//! Lock-order witness tests (`--features lock-order`).
//!
//! Two halves:
//!
//! 1. **Seeded inversions** prove the witness actually fires: blocking
//!    on a lower (or equal) rank while holding a higher one must panic
//!    *naming both acquisition sites* — the property the whole
//!    instrument exists for.
//! 2. **Deadlock regressions** prove the orders the server relies on
//!    stay quiet: the idle-session sweeper probes session locks with
//!    `try_lock` while sessions hold write transactions into the core;
//!    that order is only safe because the probe cannot block, and the
//!    witness records (but does not forbid) it. The global acquisition
//!    graph must still be acyclic afterwards.
//!
//! Each synthetic test uses unique (rank, name) pairs: the acquisition
//! graph is process-global, so reusing identities across tests could
//! manufacture cycles no real execution produces.

#![cfg(feature = "lock-order")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use graphsi_core::test_support::Watchdog;
use graphsi_core::{DbConfig, GraphDb, IsolationLevel, PropertyValue};
use graphsi_server::{Client, ErrorCode, Server, ServerConfig};
use graphsi_storage::test_util::TempDir;
use parking_lot::{order, Mutex};

/// Runs `f` and returns the panic message the witness raised.
fn witness_panic(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload must be a message")
}

#[test]
fn blocking_inversion_panics_naming_both_sites() {
    let _watchdog = Watchdog::arm(
        "blocking_inversion_panics_naming_both_sites",
        Duration::from_secs(120),
    );
    let high = Mutex::with_rank((), 9_100, "witness.test.high");
    let low = Mutex::with_rank((), 9_000, "witness.test.low");

    let message = witness_panic(|| {
        let _h = high.lock();
        let _l = low.lock(); // inversion: 9_000 while holding 9_100
    });

    assert!(
        message.contains("lock-order violation"),
        "unexpected message: {message}"
    );
    assert!(message.contains("witness.test.high"), "{message}");
    assert!(message.contains("witness.test.low"), "{message}");
    // Both acquisition sites, as file:line positions in this file.
    assert_eq!(
        message.matches("lock_witness.rs:").count(),
        2,
        "both sites must be named: {message}"
    );
}

/// A rejected acquisition never proceeds, so it must leave no edge in the
/// process-global graph — otherwise a sibling test's seeded inversion
/// plants a cycle that a later `assert_acyclic` reports.
#[test]
fn rejected_inversion_records_no_edge() {
    let _watchdog = Watchdog::arm(
        "rejected_inversion_records_no_edge",
        Duration::from_secs(120),
    );
    let high = Mutex::with_rank((), 9_700, "witness.test.rejected-high");
    let low = Mutex::with_rank((), 9_600, "witness.test.rejected-low");

    witness_panic(|| {
        let _h = high.lock();
        let _l = low.lock();
    });

    let planted = order::edges().into_iter().any(|((from, to), _)| {
        from.1 == "witness.test.rejected-high" && to.1 == "witness.test.rejected-low"
    });
    assert!(!planted, "the rejected edge must not be recorded");
    order::assert_acyclic();
}

#[test]
fn equal_rank_blocking_also_panics() {
    let _watchdog = Watchdog::arm("equal_rank_blocking_also_panics", Duration::from_secs(120));
    let a = Mutex::with_rank((), 9_200, "witness.test.eq-a");
    let b = Mutex::with_rank((), 9_200, "witness.test.eq-b");

    let message = witness_panic(|| {
        let _a = a.lock();
        let _b = b.lock(); // equal rank: still a potential cycle
    });
    assert!(message.contains("witness.test.eq-a"), "{message}");
    assert!(message.contains("witness.test.eq-b"), "{message}");
}

#[test]
fn ascending_order_is_quiet_and_tracked() {
    let _watchdog = Watchdog::arm(
        "ascending_order_is_quiet_and_tracked",
        Duration::from_secs(120),
    );
    let low = Mutex::with_rank((), 9_300, "witness.test.asc-low");
    let high = Mutex::with_rank((), 9_310, "witness.test.asc-high");

    let _l = low.lock();
    let _h = high.lock();
    let held = order::held_by_current_thread();
    let names: Vec<&str> = held.iter().map(|(_, n, _)| *n).collect();
    assert_eq!(names, vec!["witness.test.asc-low", "witness.test.asc-high"]);
    drop(_h);
    drop(_l);
    assert!(order::held_by_current_thread().is_empty());
}

#[test]
fn unranked_locks_are_invisible() {
    let _watchdog = Watchdog::arm("unranked_locks_are_invisible", Duration::from_secs(120));
    let ranked = Mutex::with_rank((), 9_400, "witness.test.over-unranked");
    let plain = Mutex::new(());

    // Holding a ranked lock, a plain `Mutex::new` lock acquires at any
    // point without participating: no panic, no held-set entry.
    let _r = ranked.lock();
    let _p = plain.lock();
    let held = order::held_by_current_thread();
    assert_eq!(held.len(), 1, "{held:?}");
}

/// The sweeper pattern in miniature. The idle-session sweeper iterates
/// the session table (rank 100) and probes each session lock (rank 150)
/// with `try_lock` — descending against a session thread that holds its
/// session lock and calls into the core. The probe must stay quiet
/// (it cannot block, hence cannot deadlock), while the *blocking* form
/// of the same descent is exactly what the witness must catch.
#[test]
fn sweeper_try_lock_descent_is_quiet_blocking_descent_fires() {
    let _watchdog = Watchdog::arm(
        "sweeper_try_lock_descent_is_quiet_blocking_descent_fires",
        Duration::from_secs(120),
    );
    let table = Mutex::with_rank((), 9_500, "witness.sweep.table");
    let session = Mutex::with_rank((), 9_510, "witness.sweep.session");

    // Legal sweeper order: hold the table, *probe* the session.
    {
        let _t = table.lock();
        let probe = session.try_lock();
        assert!(probe.is_some(), "uncontended probe must succeed");
    }

    // The edge was recorded even though try_lock never panics.
    let edges = order::edges();
    assert!(
        edges
            .iter()
            .any(|((from, to), _)| from.1 == "witness.sweep.table"
                && to.1 == "witness.sweep.session"),
        "try_lock acquisition must be recorded: {edges:?}"
    );

    // The same descent *blocking* — a sweeper bug — fires the witness.
    let message = witness_panic(|| {
        let _s = session.lock();
        let _t = table.lock();
    });
    assert!(message.contains("witness.sweep.session"), "{message}");
    assert!(message.contains("witness.sweep.table"), "{message}");
}

/// Full-stack deadlock regression: a session holds a write transaction
/// (session lock rank 150 held across core lock ranks 200+) while the
/// sweeper repeatedly probes the session table and the session lock.
/// With the witness armed, any blocking descent anywhere in the server
/// would panic the owning thread and fail the client's next request —
/// so a clean run is evidence the legal order holds end to end.
#[test]
fn idle_sweeper_vs_write_transaction_stays_deadlock_free() {
    let _watchdog = Watchdog::arm(
        "idle_sweeper_vs_write_transaction_stays_deadlock_free",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("witness_sweeper");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(120),
        sweep_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let mut server = Server::bind(db, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.begin(false, IsolationLevel::SnapshotIsolation).unwrap();
    let id = c
        .create_node(&["Sweep"], &[("k", PropertyValue::Int(1))])
        .unwrap();

    // Keep the transaction warm across several sweep intervals: the
    // sweeper probes this session's lock while the session executes
    // writes that reach deep into the core lock order.
    for i in 0..5 {
        c.set_node_property(id, "k", PropertyValue::Int(i)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    c.commit().unwrap();

    // Now go idle past the timeout so the sweeper takes the try_lock
    // path through a session with an open transaction and aborts it.
    c.begin(false, IsolationLevel::SnapshotIsolation).unwrap();
    c.set_node_property(id, "k", PropertyValue::Int(99))
        .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let err = c.commit().expect_err("idle transaction must be aborted");
    match err {
        graphsi_server::ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::IdleTimeout)
        }
        other => panic!("unexpected error: {other:?}"),
    }

    // The sweeper's try_lock probes joined the acquisition graph; with
    // the server's blocking edges alongside them it must still be a DAG.
    order::assert_acyclic();
    server.shutdown();
}
