//! Failed-fsync crash-point tests: a commit whose WAL sync fails returns
//! an error to its caller, yet its commit record stays in the log. Without
//! invalidation, a later successful sync plus crash recovery would
//! *resurrect* the transaction the application saw abort. The failing
//! group-commit leader now invalidates the whole failed batch with a
//! range-abort record (appended before any later sync can run), and
//! replay skips invalidated commit records — these tests drive that path
//! with injected sync failures and real reopen-recovery.

use std::time::Duration;

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, GraphDb, PropertyValue, SyncPolicy};

fn config() -> DbConfig {
    DbConfig::default()
        .with_sync_policy(SyncPolicy::OnDemand)
        .with_group_commit_max_batch(16)
        .with_group_commit_max_delay(Duration::from_millis(2))
}

/// The headline crash-point: commit A succeeds, commit B fails its sync
/// (caller sees the abort), commit C succeeds — and C's sync makes B's
/// stale commit record durable along with everything else in the log.
/// After a crash and reopen, B must not be resurrected.
#[test]
fn caller_visible_abort_is_never_resurrected_by_recovery() {
    let dir = TempDir::new("fsync_resurrect");
    let (a, c);
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();

        let mut tx = db.begin();
        a = tx
            .create_node(&["Committed"], &[("who", PropertyValue::from("a"))])
            .unwrap();
        tx.commit().unwrap();

        // B: the group sync fails; the caller observes the abort.
        db.inject_wal_sync_failures(1);
        let mut tx = db.begin();
        tx.create_node(&["Aborted"], &[("who", PropertyValue::from("b"))])
            .unwrap();
        let err = tx.commit().unwrap_err();
        assert!(
            err.to_string().contains("injected sync failure"),
            "unexpected error: {err}"
        );
        assert_eq!(
            db.metrics().wal_abort_records,
            1,
            "the failed commit must leave an abort record behind"
        );

        // C: a later commit whose successful sync flushes the whole log —
        // including B's dead commit record.
        let mut tx = db.begin();
        c = tx
            .create_node(&["Committed"], &[("who", PropertyValue::from("c"))])
            .unwrap();
        tx.commit().unwrap();

        // B stayed invisible in the live database too.
        let check = db.txn().read_only().begin();
        assert_eq!(check.nodes_with_label("Aborted").unwrap().count(), 0);
        // "Crash": drop without checkpoint — recovery must replay the log.
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.txn().read_only().begin();
    assert!(tx.node_exists(a).unwrap());
    assert!(tx.node_exists(c).unwrap());
    assert_eq!(
        tx.nodes_with_label("Aborted").unwrap().count(),
        0,
        "recovery resurrected a commit whose caller saw an abort"
    );
    assert_eq!(tx.nodes_with_label("Committed").unwrap().count(), 2);
}

/// A failed batch is invalidated wholesale (one range-abort record per
/// failed sync), and none of its committers reappears after recovery —
/// while commits acknowledged *before* the failure survive it.
#[test]
fn every_committer_of_a_failed_batch_is_invalidated() {
    const WRITERS: usize = 4;
    let dir = TempDir::new("fsync_batch");
    let acknowledged;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        tx.create_node(&["Seed"], &[]).unwrap();
        tx.commit().unwrap();

        // Enough injected failures to fail each writer's batch attempt
        // (every failed committer's abort record then syncs fine because
        // the counter has drained by the time the writers are done).
        db.inject_wal_sync_failures(WRITERS as u32);
        let handles: Vec<_> = (0..WRITERS)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut tx = db.begin();
                    tx.create_node(&["MaybeAborted"], &[]).unwrap();
                    tx.commit().is_ok()
                })
            })
            .collect();
        acknowledged = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        // Whatever mix of failures and successes the batching produced,
        // the live view must agree with what the callers were told.
        let check = db.txn().read_only().begin();
        assert_eq!(
            check.nodes_with_label("MaybeAborted").unwrap().count(),
            acknowledged
        );
        let m = db.metrics();
        if acknowledged < WRITERS {
            assert!(
                m.wal_abort_records >= 1,
                "a failed batch must leave at least one (range) abort record"
            );
        }
    }
    // ... and so must the recovered view: no failed committer reappears,
    // no acknowledged one is lost.
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(tx.nodes_with_label("Seed").unwrap().count(), 1);
    assert_eq!(
        tx.nodes_with_label("MaybeAborted").unwrap().count(),
        acknowledged
    );
}

/// The abort record keeps the timestamp consumed: after recovery the
/// clock resumes past the dead commit's timestamp, so it can never be
/// handed out twice.
#[test]
fn aborted_commit_timestamps_stay_consumed_across_recovery() {
    let dir = TempDir::new("fsync_ts");
    let ts_before;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        tx.create_node(&["A"], &[]).unwrap();
        tx.commit().unwrap();

        db.inject_wal_sync_failures(1);
        let mut tx = db.begin();
        tx.create_node(&["B"], &[]).unwrap();
        assert!(tx.commit().is_err());
        ts_before = db.current_timestamp();
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    assert!(
        db.current_timestamp() >= ts_before,
        "the clock ran backwards over an aborted (but drawn) timestamp"
    );
    let mut tx = db.begin();
    tx.create_node(&["C"], &[]).unwrap();
    let new_ts = tx.commit().unwrap();
    assert!(new_ts > ts_before);
}

/// Sync failures abort cleanly mid-stream: later unrelated commits (whose
/// records postdate the failed attempt) succeed, publication never wedges
/// behind the withdrawn commit, and the final state matches exactly the
/// set of acknowledged commits — live and after recovery.
#[test]
fn pipeline_keeps_flowing_around_failed_syncs() {
    let dir = TempDir::new("fsync_flow");
    let mut acknowledged = Vec::new();
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        for i in 0..30i64 {
            if i % 7 == 3 {
                db.inject_wal_sync_failures(1);
            }
            let mut tx = db.begin();
            tx.create_node(&["Round"], &[("i", PropertyValue::Int(i))])
                .unwrap();
            if tx.commit().is_ok() {
                acknowledged.push(i);
            }
        }
        assert!(acknowledged.len() < 30, "some syncs must have failed");
        assert!(!acknowledged.is_empty());
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(
        tx.nodes_with_label("Round").unwrap().count(),
        acknowledged.len()
    );
    for i in acknowledged {
        assert_eq!(
            tx.nodes_with_property("i", &PropertyValue::Int(i))
                .unwrap()
                .count(),
            1,
            "acknowledged commit {i} lost"
        );
    }
}

/// The range-abort invariant holds across segment boundaries: with tiny
/// segments, a failed batch's commit records and the range-abort record
/// that invalidates them can land in *different* segments, and recovery
/// must still skip the dead commits.
#[test]
fn range_abort_spans_segment_boundaries() {
    let dir = TempDir::new("fsync_abort_segments");
    let mut acknowledged = Vec::new();
    {
        let db = GraphDb::open(dir.path(), config().with_wal_segment_bytes(4096)).unwrap();
        let pad = PropertyValue::from("x".repeat(96).as_str());
        for i in 0..120i64 {
            if i % 11 == 5 {
                db.inject_wal_sync_failures(1);
            }
            let mut tx = db.begin();
            tx.create_node(
                &["Round"],
                &[("i", PropertyValue::Int(i)), ("pad", pad.clone())],
            )
            .unwrap();
            if tx.commit().is_ok() {
                acknowledged.push(i);
            }
        }
        assert!(acknowledged.len() < 120, "some syncs must have failed");
        let m = db.metrics();
        assert!(m.wal_abort_records >= 1);
        assert!(
            m.wal_segments_created > 2,
            "the log must really span several segments"
        );
    }
    let db = GraphDb::open(dir.path(), config().with_wal_segment_bytes(4096)).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(
        tx.nodes_with_label("Round").unwrap().count(),
        acknowledged.len(),
        "recovery across segments disagreed with the acknowledged set"
    );
}

/// Crash point: the checkpoint's end-mark sync fails. The checkpoint
/// reports the error and must NOT have advanced the retention watermark —
/// every acknowledged commit still recovers from the full log.
#[test]
fn failed_checkpoint_end_sync_does_not_release_segments() {
    let dir = TempDir::new("fsync_ckpt_end");
    {
        let db = GraphDb::open(dir.path(), config().with_wal_segment_bytes(4096)).unwrap();
        let pad = PropertyValue::from("x".repeat(96).as_str());
        for i in 0..60i64 {
            let mut tx = db.begin();
            tx.create_node(
                &["Bulk"],
                &[("i", PropertyValue::Int(i)), ("pad", pad.clone())],
            )
            .unwrap();
            tx.commit().unwrap();
        }
        db.inject_wal_sync_failures(1);
        assert!(
            db.checkpoint().is_err(),
            "the end-mark sync failure must surface"
        );
        assert_eq!(
            db.metrics().wal_segments_deleted,
            0,
            "a failed checkpoint must not advance the retention watermark"
        );
        // "Crash" without a successful checkpoint.
    }
    let db = GraphDb::open(dir.path(), config().with_wal_segment_bytes(4096)).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(tx.nodes_with_label("Bulk").unwrap().count(), 60);
    // A retried checkpoint succeeds and releases.
    db.checkpoint().unwrap();
    assert!(db.metrics().wal_segments_deleted > 0);
}
