//! Multi-threaded integration tests for the owned-handle transaction API:
//! `GraphDb` handles clone across threads, `Transaction` is
//! `Send + 'static`, read-only snapshot transactions never touch the lock
//! manager, and concurrent writers under contention keep the data
//! consistent with the conflict accounting adding up.

use std::sync::mpsc;
use std::thread;

use graphsi_core::test_support::{TempDir, Watchdog};
use graphsi_core::{
    DbConfig, Direction, GraphDb, IsolationLevel, NodeId, PropertyValue, Transaction,
};

/// The headline API guarantee of the redesign, checked at compile time.
#[test]
fn transactions_are_send_and_static() {
    fn assert_send<T: Send + 'static>() {}
    assert_send::<Transaction>();
    assert_send::<GraphDb>();
}

/// A transaction begun on one thread can be moved to another thread,
/// used there, and committed — the server-session pattern.
#[test]
fn transactions_move_across_threads() {
    let dir = TempDir::new("threads_move");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();

    let mut tx = db.begin();
    let node = tx.create_node(&["Parked"], &[]).unwrap();

    // Park the open transaction on another thread and finish it there.
    let handle = thread::spawn(move || {
        tx.set_node_property(node, "slot", PropertyValue::Int(7))
            .unwrap();
        tx.commit().unwrap()
    });
    let commit_ts = handle.join().unwrap();
    assert!(commit_ts.raw() > 0);

    let found = db.read(|tx| tx.node_property(node, "slot")).unwrap();
    assert_eq!(found, Some(PropertyValue::Int(7)));
}

/// A transaction can outlive the handle that created it (`'static`).
#[test]
fn transaction_outlives_its_handle() {
    let dir = TempDir::new("threads_outlive");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
    let mut tx = {
        let clone = db.clone();
        clone.begin()
        // `clone` dropped here; `tx` keeps the database alive.
    };
    let node = tx.create_node(&["Orphan"], &[]).unwrap();
    tx.commit().unwrap();
    assert!(db.read(|tx| tx.node_exists(node)).unwrap());
}

/// Read-only snapshot transactions make zero lock-manager calls, begin to
/// commit, even while writers are active (the paper's no-read-locks
/// claim, asserted through the lock-manager counters).
#[test]
fn read_only_transactions_never_touch_the_lock_manager() {
    let dir = TempDir::new("threads_no_read_locks");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
    let mut tx = db.begin();
    let hub = tx
        .create_node(&["Hub"], &[("balance", PropertyValue::Int(0))])
        .unwrap();
    let spoke = tx.create_node(&["Hub"], &[]).unwrap();
    tx.create_relationship(hub, spoke, "LINK", &[]).unwrap();
    tx.commit().unwrap();

    let locks_before = db.lock_stats();
    let reads_before = db.metrics().reads;

    let reader = db.txn().read_only().begin();
    // Exercise every read shape: point reads, expansion, scans.
    assert!(reader.node_exists(hub).unwrap());
    assert_eq!(reader.degree(hub, Direction::Both).unwrap(), 1);
    assert_eq!(reader.nodes_with_label("Hub").unwrap().count(), 2);
    assert_eq!(reader.all_nodes().unwrap().count(), 2);
    let neighbors: Vec<_> = reader
        .neighbors(hub, Direction::Both)
        .unwrap()
        .collect::<graphsi_core::Result<_>>()
        .unwrap();
    assert_eq!(neighbors, vec![spoke]);
    reader.commit().unwrap();

    let locks_after = db.lock_stats();
    assert!(
        db.metrics().reads > reads_before,
        "reads were actually served"
    );
    assert_eq!(
        locks_before, locks_after,
        "read-only transaction must not touch the lock manager"
    );
}

/// Read-only snapshots skip lock acquisition even when the database
/// default is read committed (read_only forces snapshot reads).
#[test]
fn read_only_fast_path_applies_under_read_committed_default() {
    let dir = TempDir::new("threads_ro_rc");
    let db = GraphDb::open(dir.path(), DbConfig::read_committed()).unwrap();
    let mut tx = db.begin();
    let node = tx.create_node(&["N"], &[]).unwrap();
    tx.commit().unwrap();

    let shared_before = db.lock_stats().shared_acquired;
    let reader = db.txn().read_only().begin();
    assert!(reader.node_exists(node).unwrap());
    reader.commit().unwrap();
    assert_eq!(db.lock_stats().shared_acquired, shared_before);

    // An ordinary read-committed reader DOES take short read locks — the
    // baseline behaviour stays observable.
    let reader = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    assert!(reader.node_exists(node).unwrap());
    drop(reader);
    assert!(db.lock_stats().shared_acquired > shared_before);
}

/// N writer threads + M read-only snapshot threads over `Send`
/// transactions: snapshots stay stable under concurrent commits, all
/// committed increments survive, and the conflict accounting adds up.
#[test]
fn writers_and_snapshot_readers_under_contention() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const INCREMENTS_PER_WRITER: usize = 50;

    // A wedged contention test aborts with the witness's lock-order state
    // instead of hanging CI.
    let _watchdog = Watchdog::arm(
        "writers_and_snapshot_readers_under_contention",
        std::time::Duration::from_secs(120),
    );
    let dir = TempDir::new("threads_contention");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();

    let mut tx = db.begin();
    let counters: Vec<NodeId> = (0..4)
        .map(|_| {
            tx.create_node(&["Counter"], &[("value", PropertyValue::Int(0))])
                .unwrap()
        })
        .collect();
    tx.commit().unwrap();

    let read_value = |tx: &Transaction, id: NodeId| -> i64 {
        tx.node_property(id, "value")
            .unwrap()
            .and_then(|v| v.as_int())
            .unwrap_or(0)
    };

    // Readers signal the writers to stop once each has observed enough
    // stable snapshots.
    let (done_tx, done_rx) = mpsc::channel::<()>();

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        let counters = counters.clone();
        handles.push(thread::spawn(move || {
            for i in 0..INCREMENTS_PER_WRITER {
                let target = counters[(w + i) % counters.len()];
                db.write_with_retry(|tx| {
                    let current = tx
                        .node_property(target, "value")?
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    tx.set_node_property(target, "value", PropertyValue::Int(current + 1))
                })
                .expect("increment with retry");
            }
        }));
    }

    let mut reader_handles = Vec::new();
    for _ in 0..READERS {
        let db = db.clone();
        let counters = counters.clone();
        let done = done_tx.clone();
        reader_handles.push(thread::spawn(move || {
            for _ in 0..25 {
                let tx = db.txn().read_only().begin();
                let first: Vec<i64> = counters.iter().map(|&c| read_value(&tx, c)).collect();
                thread::yield_now();
                let second: Vec<i64> = counters.iter().map(|&c| read_value(&tx, c)).collect();
                assert_eq!(
                    first, second,
                    "snapshot must be stable within a transaction"
                );
                assert_eq!(
                    tx.nodes_with_label("Counter").unwrap().count(),
                    counters.len()
                );
                tx.commit().unwrap();
            }
            drop(done);
        }));
    }
    drop(done_tx);

    for h in handles {
        h.join().unwrap();
    }
    let _ = done_rx.recv_timeout(std::time::Duration::from_secs(30));
    for h in reader_handles {
        h.join().unwrap();
    }

    // Every committed increment survives: the total equals the number of
    // increments performed (write_with_retry retries conflicting ones).
    let total: i64 = db
        .read(|tx| Ok(counters.iter().map(|&c| read_value(tx, c)).sum()))
        .unwrap();
    assert_eq!(total, (WRITERS * INCREMENTS_PER_WRITER) as i64);

    // Conflict accounting: begins = completions, and every conflict abort
    // was counted by the lock manager or the commit-time validator.
    let m = db.metrics();
    assert_eq!(
        m.begins,
        m.commits + m.rollbacks + m.conflict_aborts,
        "every transaction must be accounted for: {m:?}"
    );
    // Contended single-node increments must have produced at least some
    // first-updater-wins conflicts (otherwise the test is not contended).
    assert!(
        m.conflict_aborts > 0 || db.lock_stats().immediate_conflicts == 0,
        "conflict accounting out of sync with the lock manager"
    );
}

/// Regression for the retry backoff: two writers that keep colliding on
/// the same hot node must both eventually commit through
/// `write_with_retry`'s jittered backoff, and the retries they performed
/// must be visible in the `write_retries` / `write_retry_backoff_us`
/// metrics. (The deterministic schedule this replaces could retry
/// colliding sessions in lockstep.)
#[test]
fn conflicting_writers_both_commit_through_jittered_retries() {
    const ROUNDS: usize = 40;
    let _watchdog = Watchdog::arm(
        "conflicting_writers_both_commit_through_jittered_retries",
        std::time::Duration::from_secs(120),
    );
    let dir = TempDir::new("threads_retry_jitter");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();

    let mut tx = db.begin();
    let hot = tx
        .create_node(&["Hot"], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    // A channel pair aligns the two writers round by round, maximising the
    // chance each round really collides on the hot node: each writer
    // announces its round to its peer, then waits for the peer's
    // announcement. Unlike a barrier, a dead peer releases its partner —
    // its channel ends drop, `send`/`recv` fail, the survivor stops — so a
    // writer panic fails the test with its own message instead of hanging.
    let (a_tx, a_rx) = mpsc::channel::<()>();
    let (b_tx, b_rx) = mpsc::channel::<()>();
    let handles: Vec<_> = [(a_tx, b_rx), (b_tx, a_rx)]
        .into_iter()
        .map(|(to_peer, from_peer)| {
            let db = db.clone();
            thread::spawn(move || {
                for _ in 0..ROUNDS {
                    if to_peer.send(()).is_err() || from_peer.recv().is_err() {
                        return;
                    }
                    db.write_with_retry(|tx| {
                        let current = tx
                            .node_property(hot, "value")?
                            .and_then(|v| v.as_int())
                            .unwrap_or(0);
                        tx.set_node_property(hot, "value", PropertyValue::Int(current + 1))
                    })
                    .expect("conflicting writer must eventually commit");
                }
            })
        })
        .collect();
    // Join both before re-raising, so the survivor is not left detached.
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    for result in joined {
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }

    let total = db
        .read(|tx| Ok(tx.node_property(hot, "value").unwrap()))
        .unwrap();
    assert_eq!(
        total,
        Some(PropertyValue::Int(2 * ROUNDS as i64)),
        "no committed increment may be lost"
    );

    let m = db.metrics();
    assert!(
        m.write_retries > 0,
        "aligned writers on one node must have conflicted at least once"
    );
    assert!(
        m.write_retry_backoff_us >= m.write_retries * GraphDb::WRITE_RETRY_BACKOFF_BASE_US,
        "every retry sleeps at least the base backoff: {m:?}"
    );
}

/// Lazy scans and expansions hold snapshot consistency across threads: an
/// iterator created before concurrent commits only ever observes its own
/// snapshot.
#[test]
fn lazy_iterators_stay_snapshot_consistent_across_commits() {
    let dir = TempDir::new("threads_lazy_snapshots");
    let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
    let mut tx = db.begin();
    let hub = tx.create_node(&["HubL"], &[]).unwrap();
    for _ in 0..8 {
        let s = tx.create_node(&["SpokeL"], &[]).unwrap();
        tx.create_relationship(hub, s, "L", &[]).unwrap();
    }
    tx.commit().unwrap();

    let reader = db.txn().read_only().begin();
    let mut iter = reader.relationships(hub, Direction::Both).unwrap();
    let mut seen = 0usize;
    // Interleave: resolve a couple of elements, then let a writer add and
    // remove spokes, then drain the rest.
    for _ in 0..2 {
        assert!(iter.next().unwrap().is_ok());
        seen += 1;
    }
    let writer_db = db.clone();
    thread::spawn(move || {
        let mut tx = writer_db.begin();
        let s = tx.create_node(&["SpokeL"], &[]).unwrap();
        tx.create_relationship(hub, s, "L", &[]).unwrap();
        tx.commit().unwrap();
    })
    .join()
    .unwrap();
    for rel in iter {
        rel.unwrap();
        seen += 1;
    }
    assert_eq!(seen, 8, "iterator must not observe the concurrent commit");
}
