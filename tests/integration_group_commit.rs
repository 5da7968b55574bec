//! Pipelined group-commit tests: fsync batching under contention, strictly
//! in-order (gap-free) publication of the visible timestamp, checkpoint
//! quiescing, and first-committer-wins validation across the pipeline's
//! pending window.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphsi_core::test_support::TempDir;
use graphsi_core::{
    ConflictStrategy, DbConfig, GraphDb, NodeId, PropertyValue, SyncPolicy, Timestamp,
};

fn group_commit_config() -> DbConfig {
    DbConfig::default()
        .with_sync_policy(SyncPolicy::OnDemand)
        .with_group_commit_max_batch(16)
        .with_group_commit_max_delay(Duration::from_millis(2))
}

/// Creates one node per worker thread so writers never conflict.
fn worker_nodes(db: &GraphDb, threads: usize) -> Vec<NodeId> {
    let mut tx = db.begin();
    let nodes: Vec<NodeId> = (0..threads)
        .map(|_| {
            tx.create_node(&["Worker"], &[("v", PropertyValue::Int(0))])
                .unwrap()
        })
        .collect();
    tx.commit().unwrap();
    nodes
}

/// Acceptance check: under a multi-threaded write workload the WAL
/// sync count stays *strictly below* the committed-transaction count —
/// the proof that one leader fsync covers a whole batch of committers.
#[test]
fn wal_syncs_stay_below_commits_under_contention() {
    const THREADS: usize = 4;
    const COMMITS_PER_THREAD: usize = 50;
    let dir = TempDir::new("gc_batching");
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let nodes = worker_nodes(&db, THREADS);

    let handles: Vec<_> = nodes
        .iter()
        .map(|&node| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    let mut tx = db.begin();
                    tx.set_node_property(node, "v", PropertyValue::Int(i as i64))
                        .unwrap();
                    tx.commit().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let m = db.metrics();
    let write_commits = m.commits - m.read_only_commits;
    assert_eq!(write_commits as usize, THREADS * COMMITS_PER_THREAD + 1);
    assert!(m.wal_syncs >= 1);
    assert!(
        m.wal_syncs < write_commits,
        "group commit must amortise fsyncs: {} syncs for {} commits",
        m.wal_syncs,
        write_commits
    );
    assert_eq!(m.group_commit_batches, m.wal_syncs);
    assert!(
        m.group_commit_batch_size_max >= 2,
        "at least one batch must have covered multiple commits, max was {}",
        m.group_commit_batch_size_max
    );

    // Every acknowledged commit is readable.
    let tx = db.txn().read_only().begin();
    for node in nodes {
        assert_eq!(
            tx.node_property(node, "v").unwrap(),
            Some(PropertyValue::Int((COMMITS_PER_THREAD - 1) as i64))
        );
    }
}

/// Under `SyncPolicy::Always` every append syncs itself: the pipeline
/// records degenerate batches of one, so syncs equal write commits.
#[test]
fn always_policy_syncs_every_commit() {
    let dir = TempDir::new("gc_always");
    let db = GraphDb::open(
        dir.path(),
        DbConfig::default().with_sync_policy(SyncPolicy::Always),
    )
    .unwrap();
    let nodes = worker_nodes(&db, 1);
    for i in 0..10i64 {
        let mut tx = db.begin();
        tx.set_node_property(nodes[0], "v", PropertyValue::Int(i))
            .unwrap();
        tx.commit().unwrap();
    }
    let m = db.metrics();
    assert_eq!(m.wal_syncs, m.commits - m.read_only_commits);
    assert_eq!(m.group_commit_batch_size_max, 1);
}

/// Regression: the batcher's durable watermark must be seeded from the
/// log at open. A reopened database whose WAL held replayed records used
/// to count them all into the first post-recovery sync's batch size.
#[test]
fn batch_size_is_not_inflated_after_recovery() {
    let dir = TempDir::new("gc_recovered_batch");
    let node;
    {
        let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
        node = worker_nodes(&db, 1)[0];
        for i in 0..20i64 {
            let mut tx = db.begin();
            tx.set_node_property(node, "v", PropertyValue::Int(i))
                .unwrap();
            tx.commit().unwrap();
        }
        // Drop without checkpoint: the next open replays a 21-record WAL.
    }
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let mut tx = db.begin();
    tx.set_node_property(node, "v", PropertyValue::Int(99))
        .unwrap();
    tx.commit().unwrap();
    let m = db.metrics();
    assert_eq!(
        m.group_commit_batch_size_max, 1,
        "a single post-recovery commit is a batch of one, not of \
         1 + every replayed record"
    );
}

/// Acceptance check: `visible_ts` publication is gap-free in
/// commit-ts order. Writers record every acknowledged commit; concurrent
/// readers assert that *every* recorded commit at or below their snapshot
/// is visible — if commit N+1 ever published without commit N, a reader
/// snapshotting between them would observe a stale value and fail.
#[test]
fn visible_ts_publication_is_gap_free_in_commit_ts_order() {
    const THREADS: usize = 4;
    const COMMITS_PER_THREAD: usize = 60;
    let dir = TempDir::new("gc_gap_free");
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let nodes = worker_nodes(&db, THREADS);

    // (commit_ts, node, value) of every acknowledged commit.
    let committed: Arc<Mutex<Vec<(Timestamp, NodeId, i64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writers: Vec<_> = nodes
        .iter()
        .map(|&node| {
            let db = db.clone();
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                for i in 1..=COMMITS_PER_THREAD as i64 {
                    let mut tx = db.begin();
                    tx.set_node_property(node, "v", PropertyValue::Int(i))
                        .unwrap();
                    let ts = tx.commit().unwrap();
                    committed.lock().unwrap().push((ts, node, i));
                }
            })
        })
        .collect();

    // A sampler asserting the published watermark never runs backwards.
    let monotone = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = Timestamp(0);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let now = db.visible_timestamp();
                assert!(now >= last, "visible_ts ran backwards: {now:?} < {last:?}");
                last = now;
            }
        })
    };

    // Readers snapshotting mid-stream: everything recorded at or below
    // the snapshot must be visible (per node, values only grow).
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let tx = db.txn().read_only().begin();
                    let snapshot = tx.start_timestamp();
                    let seen: Vec<(Timestamp, NodeId, i64)> = committed.lock().unwrap().clone();
                    for (cts, node, value) in seen {
                        if cts <= snapshot {
                            let read = match tx.node_property(node, "v").unwrap() {
                                Some(PropertyValue::Int(v)) => v,
                                other => panic!("unexpected value {other:?}"),
                            };
                            assert!(
                                read >= value,
                                "snapshot {snapshot:?} missed commit {cts:?}: \
                                 read {read} < {value} (a publication gap)"
                            );
                        }
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    monotone.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(
        committed.lock().unwrap().len(),
        THREADS * COMMITS_PER_THREAD
    );
}

/// Checkpoints quiesce the pipeline: they must wait for every in-flight
/// commit to finish its store flush-through before truncating the WAL,
/// otherwise an acknowledged commit could vanish (in neither log nor
/// store) on the next open.
#[test]
fn checkpoint_during_concurrent_commits_loses_nothing() {
    const THREADS: usize = 4;
    const COMMITS_PER_THREAD: usize = 40;
    let dir = TempDir::new("gc_checkpoint");
    {
        let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
        let nodes = worker_nodes(&db, THREADS);
        let writers: Vec<_> = nodes
            .iter()
            .map(|&node| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 1..=COMMITS_PER_THREAD as i64 {
                        let mut tx = db.begin();
                        tx.set_node_property(node, "v", PropertyValue::Int(i))
                            .unwrap();
                        tx.commit().unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..10 {
            db.checkpoint().unwrap();
        }
        for w in writers {
            w.join().unwrap();
        }
        // No clean shutdown: recovery must see the checkpointed store plus
        // whatever the WAL holds past the last checkpoint.
    }
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let tx = db.txn().read_only().begin();
    let workers: Vec<NodeId> = tx
        .nodes_with_label("Worker")
        .unwrap()
        .collect::<graphsi_core::Result<Vec<_>>>()
        .unwrap();
    assert_eq!(workers.len(), THREADS);
    for node in workers {
        assert_eq!(
            tx.node_property(node, "v").unwrap(),
            Some(PropertyValue::Int(COMMITS_PER_THREAD as i64))
        );
    }
}

/// First-committer-wins validation must see commits that are still inside
/// the pipeline (sequenced but not yet installed): hammering one hot node
/// from many FCW threads may abort transactions, but it must never lose
/// an acknowledged update.
#[test]
fn first_committer_wins_sees_pipelined_commits() {
    const THREADS: usize = 4;
    const ATTEMPTS: usize = 30;
    let dir = TempDir::new("gc_fcw");
    let db = GraphDb::open(
        dir.path(),
        group_commit_config().with_conflict_strategy(ConflictStrategy::FirstCommitterWins),
    )
    .unwrap();
    let mut tx = db.begin();
    let hot = tx
        .create_node(&["Hot"], &[("n", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let successes: Vec<usize> = {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut ok = 0usize;
                    for _ in 0..ATTEMPTS {
                        let result = db.write_with_retry(|tx| {
                            let current = match tx.node_property(hot, "n")? {
                                Some(PropertyValue::Int(v)) => v,
                                other => panic!("unexpected value {other:?}"),
                            };
                            tx.set_node_property(hot, "n", PropertyValue::Int(current + 1))
                        });
                        match result {
                            Ok(()) => ok += 1,
                            Err(e) if e.is_conflict() => {} // retries exhausted
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let total: usize = successes.iter().sum();
    assert!(total > 0, "some increments must have succeeded");
    let tx = db.begin();
    assert_eq!(
        tx.node_property(hot, "n").unwrap(),
        Some(PropertyValue::Int(total as i64)),
        "every acknowledged increment must be applied exactly once \
         (a lost update means validation missed a pipelined commit)"
    );
}
