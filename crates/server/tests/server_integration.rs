//! End-to-end tests over real TCP: client sessions, transaction
//! lifecycle edge cases (idle timeout, disconnect rollback) and
//! admission control under a deliberately tiny queue.

use std::time::Duration;

use graphsi_core::test_support::Watchdog;
use graphsi_core::{DbConfig, DbMetricsSnapshot, GraphDb, IsolationLevel, PropertyValue};
use graphsi_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use graphsi_storage::test_util::TempDir;

fn start_server(name: &str, config: ServerConfig) -> (TempDir, Server) {
    let dir = TempDir::new(name);
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
    let server = Server::bind(db, "127.0.0.1:0", config).unwrap();
    (dir, server)
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).unwrap()
}

#[test]
fn crud_round_trip_over_tcp() {
    let _watchdog = Watchdog::arm("crud_round_trip_over_tcp", Duration::from_secs(120));
    let (_dir, mut server) = start_server("srv_crud", ServerConfig::default());
    let mut c = connect(&server);
    c.ping().unwrap();

    let id = c
        .create_node(
            &["Person"],
            &[
                ("name", PropertyValue::String("ada".into())),
                ("age", PropertyValue::Int(36)),
            ],
        )
        .unwrap();
    let node = c.get_node(id).unwrap().expect("node must be visible");
    assert_eq!(node.labels, vec!["Person".to_string()]);
    assert_eq!(
        c.node_property(id, "age").unwrap(),
        Some(PropertyValue::Int(36))
    );

    c.set_node_property(id, "age", PropertyValue::Int(37))
        .unwrap();
    assert_eq!(
        c.node_property(id, "age").unwrap(),
        Some(PropertyValue::Int(37))
    );

    let other = c.create_node(&["Person"], &[]).unwrap();
    let rel = c.create_relationship(id, other, "KNOWS", &[]).unwrap();
    c.delete_relationship(rel).unwrap();
    c.remove_node_property(id, "name").unwrap();
    assert_eq!(c.node_property(id, "name").unwrap(), None);

    let rows = c.label_query("Person", 0, &["age"]).unwrap();
    assert_eq!(rows.len(), 2);

    c.delete_node(other).unwrap();
    assert_eq!(c.get_node(other).unwrap(), None);
    server.shutdown();
}

#[test]
fn explicit_transactions_commit_atomically_across_sessions() {
    let _watchdog = Watchdog::arm(
        "explicit_transactions_commit_atomically_across_sessions",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_txn", ServerConfig::default());
    let mut writer = connect(&server);
    let mut reader = connect(&server);

    writer
        .begin(false, IsolationLevel::SnapshotIsolation)
        .unwrap();
    let a = writer.create_node(&["Batch"], &[]).unwrap();
    let b = writer.create_node(&["Batch"], &[]).unwrap();
    // Uncommitted writes are invisible to the other session.
    assert_eq!(reader.get_node(a).unwrap(), None);
    assert_eq!(reader.label_query("Batch", 0, &[]).unwrap().len(), 0);

    let ts = writer.commit().unwrap();
    assert!(ts > 0);
    // Both rows appear atomically.
    assert!(reader.get_node(a).unwrap().is_some());
    assert!(reader.get_node(b).unwrap().is_some());
    assert_eq!(reader.label_query("Batch", 0, &[]).unwrap().len(), 2);

    // Rollback really discards.
    writer
        .begin(false, IsolationLevel::SnapshotIsolation)
        .unwrap();
    let c = writer.create_node(&["Batch"], &[]).unwrap();
    writer.rollback().unwrap();
    assert_eq!(reader.get_node(c).unwrap(), None);
    server.shutdown();
}

#[test]
fn range_queries_ride_the_index_over_the_wire() {
    let _watchdog = Watchdog::arm(
        "range_queries_ride_the_index_over_the_wire",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_range", ServerConfig::default());
    let mut c = connect(&server);
    for age in 0..20 {
        c.create_node(&["P"], &[("age", PropertyValue::Int(age))])
            .unwrap();
    }
    let rows = c
        .range_query(
            "age",
            Some(PropertyValue::Int(5)),
            Some(PropertyValue::Int(9)),
            0,
            &["age"],
        )
        .unwrap();
    assert_eq!(rows.len(), 5);
    for row in &rows {
        let Some(PropertyValue::Int(age)) = row.property("age") else {
            panic!("missing projection");
        };
        assert!((5..=9).contains(age));
    }
    // Half-open range + limit.
    let rows = c
        .range_query("age", Some(PropertyValue::Int(15)), None, 3, &[])
        .unwrap();
    assert_eq!(rows.len(), 3);
    server.shutdown();
}

#[test]
fn idle_timeout_aborts_open_transaction_and_releases_locks() {
    let _watchdog = Watchdog::arm(
        "idle_timeout_aborts_open_transaction_and_releases_locks",
        Duration::from_secs(120),
    );
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        sweep_interval: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let (_dir, mut server) = start_server("srv_idle", config);

    let mut setup = connect(&server);
    let node = setup
        .create_node(&["Hot"], &[("v", PropertyValue::Int(0))])
        .unwrap();

    // Session A opens a transaction and write-locks the node...
    let mut a = connect(&server);
    a.begin(false, IsolationLevel::SnapshotIsolation).unwrap();
    a.set_node_property(node, "v", PropertyValue::Int(1))
        .unwrap();
    // ...then goes idle past the timeout.
    std::thread::sleep(Duration::from_millis(400));

    // The sweeper must have aborted A's transaction, releasing the lock:
    // an autocommit write from another session now succeeds instead of
    // conflicting with a zombie lock-holder.
    let mut b = connect(&server);
    b.set_node_property(node, "v", PropertyValue::Int(2))
        .unwrap();
    assert_eq!(
        b.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(2))
    );

    // A learns of the abort through a typed IDLE_TIMEOUT error...
    let err = a.node_property(node, "v").unwrap_err();
    match err {
        ClientError::Server {
            code: ErrorCode::IdleTimeout,
            ..
        } => {}
        other => panic!("expected IDLE_TIMEOUT, got {other:?}"),
    }
    // ...and A's buffered write is gone; the session keeps working.
    assert_eq!(
        a.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(2))
    );
    assert!(server.metrics().idle_timeout_aborts >= 1);
    server.shutdown();
}

#[test]
fn disconnect_mid_transaction_rolls_back_and_releases_locks() {
    let _watchdog = Watchdog::arm(
        "disconnect_mid_transaction_rolls_back_and_releases_locks",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_disconnect", ServerConfig::default());
    let mut setup = connect(&server);
    let node = setup
        .create_node(&["Hot"], &[("v", PropertyValue::Int(0))])
        .unwrap();

    {
        let mut doomed = connect(&server);
        doomed
            .begin(false, IsolationLevel::SnapshotIsolation)
            .unwrap();
        doomed
            .set_node_property(node, "v", PropertyValue::Int(99))
            .unwrap();
        let orphan = doomed.create_node(&["Orphan"], &[]).unwrap();
        // The client vanishes without COMMIT or ROLLBACK.
        drop(doomed);
        // Poll until the server has reaped the session.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.metrics().sessions_active > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "server never noticed the disconnect"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // Nothing of the doomed transaction survived, and its write lock
        // on the node is gone.
        assert_eq!(setup.get_node(orphan).unwrap(), None);
    }
    setup
        .set_node_property(node, "v", PropertyValue::Int(1))
        .unwrap();
    assert_eq!(
        setup.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(1))
    );
    assert!(server.metrics().disconnect_rollbacks >= 1);
    server.shutdown();
}

/// Saturates a deliberately tiny write pool (one worker, one queue slot)
/// and checks the third concurrent request is rejected with a typed
/// `OVERLOADED` instead of queueing invisibly.
#[test]
fn full_admission_queue_sheds_with_typed_overloaded() {
    let _watchdog = Watchdog::arm(
        "full_admission_queue_sheds_with_typed_overloaded",
        Duration::from_secs(120),
    );
    let config = ServerConfig {
        read_workers: 1,
        write_workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (_dir, mut server) = start_server("srv_overload", config);

    // Two workers-worth of sleep: one executing, one in the queue slot.
    // Staggered so the first is already executing (not still queued)
    // when the second arrives; retried because the pair can still race
    // the worker's dequeue. Each returns how many OVERLOADED replies it
    // received.
    let busy: Vec<_> = (0..2)
        .map(|i| {
            let addr = server.local_addr().to_string();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                std::thread::sleep(Duration::from_millis(100 * i));
                let mut overloaded = 0u64;
                loop {
                    match c.sleep(1200) {
                        Ok(()) => break overloaded,
                        Err(e) if e.is_overloaded() => {
                            overloaded += 1;
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(e) => panic!("busy client failed: {e:?}"),
                    }
                }
            })
        })
        .collect();
    // Give both requests time to reach the pool.
    std::thread::sleep(Duration::from_millis(500));

    let mut c = connect(&server);
    let err = c
        .create_node(&["X"], &[])
        .expect_err("third write must be shed");
    assert!(err.is_overloaded(), "expected OVERLOADED, got {err:?}");

    // Probes still answer while the pool is saturated.
    c.ping().unwrap();
    assert!(c.health().unwrap().starts_with("ok"));

    // Once the sleeps drain, the same session's writes go through again.
    let overloaded_replies = 1 + busy.into_iter().map(|t| t.join().unwrap()).sum::<u64>();
    c.create_node(&["X"], &[]).unwrap();

    // Every shed request is counted once and reached its client as a
    // typed OVERLOADED reply.
    let m = server.metrics();
    assert_eq!(m.rejected_overload, overloaded_replies);
    assert!(m.queue_depth_peak >= 1);
    server.shutdown();
}

#[test]
fn session_limit_rejects_new_connections() {
    let _watchdog = Watchdog::arm(
        "session_limit_rejects_new_connections",
        Duration::from_secs(120),
    );
    let config = ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    };
    let (_dir, mut server) = start_server("srv_sessions", config);
    let mut first = connect(&server);
    first.ping().unwrap();

    let mut second = connect(&server);
    let err = second.ping().expect_err("second session must be shed");
    assert!(err.is_overloaded(), "expected OVERLOADED, got {err:?}");
    assert!(server.metrics().rejected_sessions >= 1);

    // The admitted session is unaffected.
    first.ping().unwrap();
    server.shutdown();
}

#[test]
fn metrics_command_exposes_db_and_server_counters() {
    let _watchdog = Watchdog::arm(
        "metrics_command_exposes_db_and_server_counters",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_metrics", ServerConfig::default());
    let mut c = connect(&server);
    let id = c.create_node(&["M"], &[]).unwrap();
    c.get_node(id).unwrap();

    let text = c.metrics_text().unwrap();
    // The database half parses with the core's own text decoder (which
    // skips the server_* lines as unknown counters).
    let db = DbMetricsSnapshot::from_text(&text).unwrap();
    assert!(db.commits >= 1, "autocommit write must be counted");
    // The server half is present with the expected names.
    assert!(text.contains("server_sessions_active 1\n"));
    assert!(text.contains("server_requests_total"));
    assert!(text.contains("server_latency_us_le_2"));

    let health = c.health().unwrap();
    assert!(health.starts_with("ok\n"));
    server.shutdown();
}

#[test]
fn verify_command_reports_a_clean_store_over_the_wire() {
    let _watchdog = Watchdog::arm(
        "verify_command_reports_a_clean_store_over_the_wire",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_verify", ServerConfig::default());
    let mut c = connect(&server);
    let a = c
        .create_node(&["V"], &[("w", PropertyValue::Int(1))])
        .unwrap();
    let b = c.create_node(&["V"], &[]).unwrap();
    c.create_relationship(a, b, "LINKS", &[]).unwrap();

    // VERIFY is answered inline, even from a session with an open
    // read-only transaction.
    c.begin(true, IsolationLevel::SnapshotIsolation).unwrap();
    let report = c.verify_text().unwrap();
    c.rollback().unwrap();
    for line in [
        "bad_page_crc 0",
        "dangling_chain_pointers 0",
        "index_store_divergences 0",
        "orphaned_postings 0",
    ] {
        assert!(report.contains(line), "unexpected verify report:\n{report}");
    }
    assert!(report.contains("entities_checked"));
    server.shutdown();
}

#[test]
fn read_only_sessions_reject_writes_over_the_wire() {
    let _watchdog = Watchdog::arm(
        "read_only_sessions_reject_writes_over_the_wire",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_ro", ServerConfig::default());
    let mut c = connect(&server);
    let id = c.create_node(&["R"], &[]).unwrap();

    c.begin(true, IsolationLevel::SnapshotIsolation).unwrap();
    assert!(c.get_node(id).unwrap().is_some());
    let err = c
        .set_node_property(id, "v", PropertyValue::Int(1))
        .expect_err("read-only txn must reject writes");
    match err {
        ClientError::Server {
            code: ErrorCode::ReadOnly,
            ..
        } => {}
        other => panic!("expected READ_ONLY, got {other:?}"),
    }
    c.commit().unwrap();
    server.shutdown();
}

#[test]
fn conflicting_explicit_transactions_surface_typed_conflicts() {
    let _watchdog = Watchdog::arm(
        "conflicting_explicit_transactions_surface_typed_conflicts",
        Duration::from_secs(120),
    );
    let (_dir, mut server) = start_server("srv_conflict", ServerConfig::default());
    let mut setup = connect(&server);
    let node = setup
        .create_node(&["Hot"], &[("v", PropertyValue::Int(0))])
        .unwrap();

    let mut t1 = connect(&server);
    let mut t2 = connect(&server);
    t1.begin(false, IsolationLevel::SnapshotIsolation).unwrap();
    t2.begin(false, IsolationLevel::SnapshotIsolation).unwrap();
    t1.set_node_property(node, "v", PropertyValue::Int(1))
        .unwrap();
    // First-updater-wins: the second writer loses immediately with a
    // typed, retryable CONFLICT.
    let err = t2
        .set_node_property(node, "v", PropertyValue::Int(2))
        .expect_err("second updater must conflict");
    assert!(err.is_conflict(), "expected CONFLICT, got {err:?}");
    t1.commit().unwrap();
    t2.rollback().unwrap();
    server.shutdown();
}
