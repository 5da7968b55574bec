//! Durability and recovery tests: WAL replay, checkpointing, index
//! rebuild, commit-timestamp persistence across restarts, and crash-point
//! durability of the group-commit pipeline.

use std::time::Duration;

use graphsi_core::test_support::{TempDir, Watchdog};
use graphsi_core::{DbConfig, DbError, Direction, GraphDb, NodeId, PropertyValue, SyncPolicy};
use graphsi_storage::{GraphStore, GraphStoreConfig};

fn config() -> DbConfig {
    DbConfig::default().with_sync_policy(SyncPolicy::Always)
}

fn group_commit_config() -> DbConfig {
    DbConfig::default()
        .with_sync_policy(SyncPolicy::OnDemand)
        .with_group_commit_max_batch(16)
        .with_group_commit_max_delay(Duration::from_millis(2))
}

/// Paths of the database's WAL segment files, in sequence order.
fn wal_segment_paths(db_dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut segments: Vec<_> = std::fs::read_dir(db_dir.join("wal"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    segments.sort();
    segments
}

/// The numeric sequence suffix of a `wal.NNNNNN` segment path.
fn segment_seq(path: &std::path::Path) -> u64 {
    path.extension().unwrap().to_str().unwrap().parse().unwrap()
}

/// Copies every file of `from` into `to` (used to snapshot the WAL
/// directory around a simulated crash).
fn copy_dir_files(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Every WAL segment of the database with its bytes.
fn wal_image(db_dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    wal_segment_paths(db_dir)
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect()
}

/// Stores of the old format kept commit timestamps as a chained property
/// and interned its key on every open. Such a directory is refused with a
/// typed error before the write-ahead log is opened: the log is left byte
/// for byte as it was, ready for the version that wrote it.
#[test]
fn old_format_directory_is_refused_before_the_wal_is_touched() {
    let dir = TempDir::new("rec_old_format");
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        tx.create_node(&["Old"], &[("k", PropertyValue::Int(1))])
            .unwrap();
        tx.commit().unwrap();
    }
    {
        let store = GraphStore::open(dir.path(), GraphStoreConfig::default()).unwrap();
        store.tokens().property_key("__graphsi.commit_ts").unwrap();
        store.flush().unwrap();
    }
    let before = wal_image(dir.path());
    assert!(!before.is_empty() && before.iter().any(|(_, bytes)| !bytes.is_empty()));

    let err = GraphDb::open(dir.path(), config()).unwrap_err();
    assert!(
        matches!(err, DbError::UnsupportedStoreFormat { .. }),
        "unexpected error: {err}"
    );
    assert_eq!(
        wal_image(dir.path()),
        before,
        "the refused open touched the WAL"
    );
}

#[test]
fn committed_data_survives_reopen_without_checkpoint() {
    let dir = TempDir::new("rec_no_checkpoint");
    let (alice, bob, rel);
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        alice = tx
            .create_node(&["Person"], &[("name", PropertyValue::from("Alice"))])
            .unwrap();
        bob = tx
            .create_node(&["Person"], &[("name", PropertyValue::from("Bob"))])
            .unwrap();
        rel = tx
            .create_relationship(alice, bob, "KNOWS", &[("w", PropertyValue::Float(0.5))])
            .unwrap();
        tx.commit().unwrap();
        // No checkpoint, no flush: the store pages may never have been
        // written; recovery must replay the WAL.
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    let node = tx.get_node(alice).unwrap().expect("alice recovered");
    assert_eq!(node.property("name"), Some(&PropertyValue::from("Alice")));
    assert!(node.has_label("Person"));
    let r = tx.get_relationship(rel).unwrap().expect("rel recovered");
    assert_eq!(r.target, bob);
    assert_eq!(r.property("w"), Some(&PropertyValue::Float(0.5)));
    let neighbors: Vec<NodeId> = tx
        .neighbors(alice, Direction::Both)
        .unwrap()
        .collect::<graphsi_core::Result<_>>()
        .unwrap();
    assert_eq!(neighbors, vec![bob]);
}

#[test]
fn updates_and_deletes_survive_reopen() {
    let dir = TempDir::new("rec_updates");
    let (keep, gone);
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        keep = tx
            .create_node(&["Keep"], &[("v", PropertyValue::Int(1))])
            .unwrap();
        gone = tx.create_node(&["Gone"], &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        tx.set_node_property(keep, "v", PropertyValue::Int(2))
            .unwrap();
        tx.delete_node(gone).unwrap();
        tx.commit().unwrap();
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    assert_eq!(
        tx.node_property(keep, "v").unwrap(),
        Some(PropertyValue::Int(2))
    );
    assert!(!tx.node_exists(gone).unwrap());
    assert_eq!(tx.nodes_with_label("Gone").unwrap().count(), 0);
}

#[test]
fn indexes_are_rebuilt_after_reopen() {
    let dir = TempDir::new("rec_indexes");
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        for i in 0..10i64 {
            tx.create_node(
                &[if i % 2 == 0 { "Even" } else { "Odd" }],
                &[("i", PropertyValue::Int(i))],
            )
            .unwrap();
        }
        tx.commit().unwrap();
        db.checkpoint().unwrap();
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    assert_eq!(tx.nodes_with_label("Even").unwrap().count(), 5);
    assert_eq!(tx.nodes_with_label("Odd").unwrap().count(), 5);
    assert_eq!(
        tx.nodes_with_property("i", &PropertyValue::Int(7))
            .unwrap()
            .count(),
        1
    );
    assert_eq!(tx.node_count().unwrap(), 10);
}

#[test]
fn checkpoint_retires_covered_wal_segments_and_preserves_data() {
    let dir = TempDir::new("rec_checkpoint");
    let small_segments = config().with_wal_segment_bytes(4096);
    let node;
    {
        let db = GraphDb::open(dir.path(), small_segments.clone()).unwrap();
        let mut tx = db.begin();
        node = tx
            .create_node(&["Durable"], &[("x", PropertyValue::Int(7))])
            .unwrap();
        tx.commit().unwrap();
        // Enough commits to rotate through several segments.
        for i in 0..200i64 {
            let mut tx = db.begin();
            tx.create_node(&["Bulk"], &[("i", PropertyValue::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        let before = db.metrics();
        assert!(before.wal_segments_created > 1, "rotation precondition");
        db.checkpoint().unwrap();
        // The checkpoint retires every segment fully covered by its begin
        // mark; the retained log shrinks to the active suffix.
        let after = db.metrics();
        assert!(after.wal_segments_deleted > 0, "covered segments retired");
        assert!(after.wal_retained_bytes < before.wal_retained_bytes);
    }
    // Only the uncovered suffix remains on disk, and it replays fine.
    assert!(!wal_segment_paths(dir.path()).is_empty());
    let db = GraphDb::open(dir.path(), small_segments).unwrap();
    let tx = db.begin();
    assert_eq!(
        tx.node_property(node, "x").unwrap(),
        Some(PropertyValue::Int(7))
    );
    assert_eq!(tx.nodes_with_label("Bulk").unwrap().count(), 200);
}

/// A checkpoint after the last commit retires the whole log it covers,
/// the active segment included: what remains is one segment header and
/// the checkpoint's own begin/end pair. An idle checkpoint after that
/// creates no segment.
#[test]
fn idle_checkpoint_retires_the_active_segment() {
    let dir = TempDir::new("rec_idle_ckpt");
    let empty_dir = TempDir::new("rec_idle_ckpt_empty");
    // The floor: a fresh log (one header, nothing to seal) plus one pair.
    let floor = {
        let db = GraphDb::open(empty_dir.path(), config()).unwrap();
        db.checkpoint().unwrap();
        db.metrics().wal_retained_bytes
    };
    let mut nodes = Vec::new();
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        for i in 0..50i64 {
            let mut tx = db.begin();
            nodes.push(
                tx.create_node(&["Acked"], &[("i", PropertyValue::Int(i))])
                    .unwrap(),
            );
            tx.commit().unwrap();
        }
        db.checkpoint().unwrap();
        let after = db.metrics();
        assert!(
            after.wal_retained_bytes <= floor,
            "retained {} bytes, a header plus the checkpoint pair is {floor}",
            after.wal_retained_bytes
        );
        db.checkpoint().unwrap();
        let again = db.metrics();
        assert_eq!(again.wal_segments_created, after.wal_segments_created);
        assert_eq!(wal_segment_paths(dir.path()).len(), 1);
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    for (i, &node) in nodes.iter().enumerate() {
        assert_eq!(
            tx.node_property(node, "i").unwrap(),
            Some(PropertyValue::Int(i as i64))
        );
    }
    assert_eq!(tx.nodes_with_label("Acked").unwrap().count(), nodes.len());
}

#[test]
fn snapshot_timestamps_resume_after_reopen() {
    let dir = TempDir::new("rec_timestamps");
    let node;
    let ts_before;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        node = tx
            .create_node(&[], &[("v", PropertyValue::Int(1))])
            .unwrap();
        tx.commit().unwrap();
        let mut tx = db.begin();
        tx.set_node_property(node, "v", PropertyValue::Int(2))
            .unwrap();
        tx.commit().unwrap();
        ts_before = db.current_timestamp();
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    // The clock must not run backwards after recovery; otherwise new
    // commits could be ordered before already-persisted ones.
    assert!(db.current_timestamp() >= ts_before);
    let mut tx = db.begin();
    tx.set_node_property(node, "v", PropertyValue::Int(3))
        .unwrap();
    let commit_ts = tx.commit().unwrap();
    assert!(commit_ts > ts_before);
    let check = db.begin();
    assert_eq!(
        check.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(3))
    );
}

#[test]
fn repeated_reopen_cycles_are_stable() {
    let dir = TempDir::new("rec_cycles");
    let mut expected_nodes = 0usize;
    for round in 0..5i64 {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        {
            let tx = db.begin();
            assert_eq!(tx.node_count().unwrap(), expected_nodes, "round {round}");
        }
        let mut tx = db.begin();
        tx.create_node(&["Round"], &[("round", PropertyValue::Int(round))])
            .unwrap();
        tx.commit().unwrap();
        expected_nodes += 1;
        if round % 2 == 0 {
            db.checkpoint().unwrap();
        }
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    assert_eq!(tx.node_count().unwrap(), expected_nodes);
    for round in 0..5i64 {
        assert_eq!(
            tx.nodes_with_property("round", &PropertyValue::Int(round))
                .unwrap()
                .count(),
            1
        );
    }
}

#[test]
fn uncommitted_work_is_not_recovered() {
    let dir = TempDir::new("rec_uncommitted");
    let committed;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        committed = tx.create_node(&["Committed"], &[]).unwrap();
        tx.commit().unwrap();

        // Leave a transaction open with pending writes and "crash".
        let mut open_tx = db.begin();
        open_tx.create_node(&["Uncommitted"], &[]).unwrap();
        std::mem::forget(open_tx); // simulate a crash: no rollback, no commit
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    assert!(tx.node_exists(committed).unwrap());
    assert_eq!(tx.nodes_with_label("Uncommitted").unwrap().count(), 0);
    assert_eq!(tx.nodes_with_label("Committed").unwrap().count(), 1);
}

/// A WAL written by the group-commit path (batched syncs, records
/// interleaved across writer threads in commit-ts order) replays correctly
/// on reopen: every acknowledged commit survives, with no checkpoint and
/// no clean shutdown.
#[test]
fn group_committed_wal_replays_on_reopen() {
    const THREADS: usize = 4;
    const COMMITS_PER_THREAD: usize = 40;
    let dir = TempDir::new("rec_group_commit");
    let nodes;
    {
        let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
        let mut tx = db.begin();
        nodes = (0..THREADS)
            .map(|_| {
                tx.create_node(&["W"], &[("v", PropertyValue::Int(0))])
                    .unwrap()
            })
            .collect::<Vec<NodeId>>();
        tx.commit().unwrap();
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
        for w in writers {
            w.join().unwrap();
        }
        let m = db.metrics();
        assert!(
            m.wal_syncs < m.commits - m.read_only_commits,
            "precondition: this log really was written by batched group syncs"
        );
        // "Crash": drop without checkpoint or store flush.
    }
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let tx = db.txn().read_only().begin();
    for &node in &nodes {
        assert_eq!(
            tx.node_property(node, "v").unwrap(),
            Some(PropertyValue::Int(COMMITS_PER_THREAD as i64)),
            "an acknowledged (group-synced) commit was lost in recovery"
        );
    }
}

/// A torn tail past the last group sync — a record half-written when the
/// crash hit — is truncated cleanly; everything the group-commit path
/// acknowledged before it still recovers.
#[test]
fn torn_tail_past_last_group_sync_is_truncated() {
    let dir = TempDir::new("rec_group_torn");
    let (a, b);
    {
        let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
        let mut tx = db.begin();
        a = tx
            .create_node(&["Keep"], &[("v", PropertyValue::Int(1))])
            .unwrap();
        b = tx.create_node(&["Keep"], &[]).unwrap();
        tx.create_relationship(a, b, "LINK", &[]).unwrap();
        tx.commit().unwrap();
    }
    // Simulate a crash mid-append after the last sync: garbage that looks
    // like the start of an entry lands past the durable prefix of the
    // last (active) segment.
    {
        use std::io::Write as _;
        let last_segment = wal_segment_paths(dir.path()).pop().unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(last_segment)
            .unwrap();
        f.write_all(&[0x77, 0x61, 0x6C, 0x21, 9, 9, 9]).unwrap();
    }
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(tx.nodes_with_label("Keep").unwrap().count(), 2);
    let neighbors: Vec<NodeId> = tx
        .neighbors(a, Direction::Both)
        .unwrap()
        .collect::<graphsi_core::Result<_>>()
        .unwrap();
    assert_eq!(neighbors, vec![b]);
    // The torn bytes are gone: committing and reopening again works.
    let mut tx = db.begin();
    tx.set_node_property(a, "v", PropertyValue::Int(2)).unwrap();
    tx.commit().unwrap();
    drop(db);
    let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
    let tx = db.begin();
    assert_eq!(
        tx.node_property(a, "v").unwrap(),
        Some(PropertyValue::Int(2))
    );
}

/// Replaying a group-committed WAL over a store that already contains its
/// effects (flushed before the crash) must be idempotent: nothing is
/// duplicated, chains stay intact.
#[test]
fn group_commit_replay_is_idempotent_over_flushed_store() {
    let dir = TempDir::new("rec_group_idem");
    let wal_dir = dir.path().join("wal");
    let saved_wal = dir.path().join("wal.saved");
    let (hub, spokes);
    {
        let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
        let mut tx = db.begin();
        hub = tx.create_node(&["Hub"], &[]).unwrap();
        tx.commit().unwrap();
        let mut created = Vec::new();
        for _ in 0..5 {
            let mut tx = db.begin();
            let spoke = tx.create_node(&["Spoke"], &[]).unwrap();
            tx.create_relationship(hub, spoke, "SPOKE", &[]).unwrap();
            tx.commit().unwrap();
            created.push(spoke);
        }
        spokes = created;
        // Preserve the log, then checkpoint (which flushes the store and
        // marks the log's prefix as covered), then put the *unmarked* log
        // back: the next open sees a fully flushed store plus a WAL
        // claiming the same commits with no checkpoint marks — exactly
        // the crash-after-flush-before-end-mark window.
        copy_dir_files(&wal_dir, &saved_wal);
        db.checkpoint().unwrap();
    }
    std::fs::remove_dir_all(&wal_dir).unwrap();
    copy_dir_files(&saved_wal, &wal_dir);
    for round in 0..2 {
        let db = GraphDb::open(dir.path(), group_commit_config()).unwrap();
        let tx = db.txn().read_only().begin();
        assert_eq!(
            tx.nodes_with_label("Spoke").unwrap().count(),
            spokes.len(),
            "round {round}"
        );
        assert_eq!(tx.degree(hub, Direction::Both).unwrap(), spokes.len());
        let neighbors: Vec<NodeId> = tx
            .neighbors(hub, Direction::Both)
            .unwrap()
            .collect::<graphsi_core::Result<_>>()
            .unwrap();
        for spoke in &spokes {
            assert!(neighbors.contains(spoke), "round {round}");
        }
    }
}

#[test]
fn relationship_chains_survive_partial_flush_plus_replay() {
    // Flush the store mid-way (simulating page-cache write-back before a
    // crash) and make sure WAL replay on reopen does not duplicate or
    // corrupt relationship chains.
    let dir = TempDir::new("rec_partial_flush");
    let (hub, spokes);
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        hub = tx.create_node(&["Hub"], &[]).unwrap();
        tx.commit().unwrap();

        let mut created = Vec::new();
        for _ in 0..5 {
            let mut tx = db.begin();
            let spoke = tx.create_node(&["Spoke"], &[]).unwrap();
            tx.create_relationship(hub, spoke, "SPOKE", &[]).unwrap();
            tx.commit().unwrap();
            created.push(spoke);
        }
        spokes = created;
        // No checkpoint: WAL still holds everything; store pages may or may
        // not have been written. Drop without clean shutdown.
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    let neighbors: Vec<NodeId> = tx
        .neighbors(hub, Direction::Both)
        .unwrap()
        .collect::<graphsi_core::Result<_>>()
        .unwrap();
    assert_eq!(neighbors.len(), spokes.len());
    for spoke in &spokes {
        assert!(neighbors.contains(spoke));
    }
    assert_eq!(tx.degree(hub, Direction::Both).unwrap(), 5);
}

// ---------------------------------------------------------------------
// Segmented-WAL crash-point matrix
// ---------------------------------------------------------------------

/// Crash point: rotation created the next segment file but crashed before
/// its header reached disk. Reopen must discard the embryonic segment
/// (empty or half-written header) and carry on from the previous one.
#[test]
fn crash_after_segment_create_before_header_sync_is_repaired() {
    let dir = TempDir::new("rec_embryonic_segment");
    let node;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let mut tx = db.begin();
        node = tx
            .create_node(&["Keep"], &[("v", PropertyValue::Int(1))])
            .unwrap();
        tx.commit().unwrap();
    }
    // First crash shape: the new segment file exists but is empty.
    let last_seq = segment_seq(wal_segment_paths(dir.path()).last().unwrap());
    let embryonic = dir
        .path()
        .join("wal")
        .join(format!("wal.{:06}", last_seq + 1));
    std::fs::write(&embryonic, b"").unwrap();
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let tx = db.begin();
        assert_eq!(
            tx.node_property(node, "v").unwrap(),
            Some(PropertyValue::Int(1))
        );
    }
    assert!(!embryonic.exists(), "embryonic segment must be deleted");
    // Second crash shape: the header itself is half-written.
    let last_seq = segment_seq(wal_segment_paths(dir.path()).last().unwrap());
    let torn_header = dir
        .path()
        .join("wal")
        .join(format!("wal.{:06}", last_seq + 1));
    std::fs::write(&torn_header, [0xAB; 10]).unwrap();
    let db = GraphDb::open(dir.path(), config()).unwrap();
    assert!(!torn_header.exists(), "torn-header segment must be deleted");
    // The repaired log still appends and survives another reopen.
    let mut tx = db.begin();
    tx.set_node_property(node, "v", PropertyValue::Int(2))
        .unwrap();
    tx.commit().unwrap();
    drop(db);
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    assert_eq!(
        tx.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(2))
    );
}

/// Crash point: the checkpoint wrote its begin mark and crashed before the
/// end mark. The unpaired begin proves nothing about the store, so
/// recovery must replay every commit as if the checkpoint never started.
#[test]
fn crash_between_checkpoint_begin_and_end_replays_everything() {
    use graphsi_wal::{CheckpointBeginRecord, SegmentedWal, SyncPolicy as WalSyncPolicy};
    let dir = TempDir::new("rec_unpaired_begin");
    let begin_ts;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        for i in 0..10i64 {
            let mut tx = db.begin();
            tx.create_node(&["Bulk"], &[("i", PropertyValue::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        begin_ts = db.current_timestamp().raw();
        // "Crash": no checkpoint, store pages possibly unwritten.
    }
    // Splice an unpaired CheckpointBegin at the tail, exactly what a crash
    // between the begin mark and the end mark leaves behind.
    {
        let wal =
            SegmentedWal::open(dir.path().join("wal"), WalSyncPolicy::Always, 1 << 20).unwrap();
        wal.append(&CheckpointBeginRecord { epoch: 7, begin_ts }.encode())
            .unwrap();
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(
        tx.nodes_with_label("Bulk").unwrap().count(),
        10,
        "an unpaired checkpoint begin mark must not suppress replay"
    );
    // The next real checkpoint pairs up and retires the suffix cleanly.
    db.checkpoint().unwrap();
    drop(tx);
    drop(db);
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.txn().read_only().begin();
    assert_eq!(tx.nodes_with_label("Bulk").unwrap().count(), 10);
}

/// Crash point: the crash lands right after a checkpoint's release
/// unlinked the covered segments. The retained log starts at a sequence
/// number above 1 and recovery replays only the suffix.
#[test]
fn crash_after_segment_release_recovers_from_the_suffix() {
    let dir = TempDir::new("rec_post_release");
    let small_segments = config().with_wal_segment_bytes(4096);
    {
        let db = GraphDb::open(dir.path(), small_segments.clone()).unwrap();
        for i in 0..100i64 {
            let mut tx = db.begin();
            tx.create_node(&["Bulk"], &[("i", PropertyValue::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        db.checkpoint().unwrap();
        assert!(
            db.metrics().wal_segments_deleted > 0,
            "release precondition"
        );
        // "Crash" immediately after the release unlinked the segments.
    }
    let first_seq = segment_seq(wal_segment_paths(dir.path()).first().unwrap());
    assert!(first_seq > 1, "the released prefix is really gone");
    let db = GraphDb::open(dir.path(), small_segments).unwrap();
    let tx = db.begin();
    assert_eq!(tx.nodes_with_label("Bulk").unwrap().count(), 100);
}

// ---------------------------------------------------------------------
// Fuzzy checkpoint under load (the tentpole's acceptance test)
// ---------------------------------------------------------------------

/// A checkpoint under sustained multi-writer load completes while commits
/// keep flowing — no quiesce, no stop-the-world: commits are counted
/// *inside* the checkpoint window, covered segments are retired, the
/// retained log shrinks, and no single commit stalls for the checkpoint's
/// whole duration (the latency cliff the old quiesce produced).
#[test]
fn fuzzy_checkpoint_overlaps_sustained_commits() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    const WRITERS: usize = 4;
    let _watchdog = Watchdog::arm(
        "fuzzy_checkpoint_overlaps_sustained_commits",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("rec_fuzzy_ckpt");
    let db = GraphDb::open(
        dir.path(),
        group_commit_config().with_wal_segment_bytes(4096),
    )
    .unwrap();
    let mut tx = db.begin();
    let nodes: Vec<NodeId> = (0..WRITERS)
        .map(|_| {
            tx.create_node(&["W"], &[("v", PropertyValue::Int(0))])
                .unwrap()
        })
        .collect();
    tx.commit().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = nodes
        .iter()
        .map(|&node| {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rounds = 0i64;
                let mut max_commit = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    rounds += 1;
                    let mut tx = db.begin();
                    tx.set_node_property(node, "v", PropertyValue::Int(rounds))
                        .unwrap();
                    let started = Instant::now();
                    tx.commit().unwrap();
                    max_commit = max_commit.max(started.elapsed());
                }
                (rounds, max_commit)
            })
        })
        .collect();
    // Let the writers rotate through a few segments, then checkpoint
    // mid-flight.
    let spin_deadline = Instant::now() + Duration::from_secs(30);
    while db.metrics().wal_segments_created < 4 {
        assert!(Instant::now() < spin_deadline, "writers never rotated");
        std::thread::yield_now();
    }
    let before = db.metrics();
    let ckpt_started = Instant::now();
    db.checkpoint().unwrap();
    let ckpt_elapsed = ckpt_started.elapsed();
    let after = db.metrics();
    stop.store(true, Ordering::Relaxed);
    let results: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    assert_eq!(after.checkpoint_epochs, before.checkpoint_epochs + 1);
    assert!(
        after.checkpoint_concurrent_commits > 0,
        "commits must complete inside the checkpoint window (fuzzy, not quiesced)"
    );
    assert!(
        after.wal_segments_deleted > before.wal_segments_deleted,
        "the checkpoint must retire covered segments"
    );
    assert!(
        after.wal_retained_bytes < before.wal_retained_bytes,
        "the retained log must shrink across a checkpoint under load"
    );
    for (rounds, max_commit) in &results {
        assert!(*rounds > 0);
        // The quiesced checkpoint parked some commit for its entire
        // duration; the fuzzy one must not. The floor keeps the bound
        // meaningful when the checkpoint is itself nearly instant.
        let cliff = ckpt_elapsed.max(Duration::from_millis(250));
        assert!(
            *max_commit < cliff,
            "a commit stalled {max_commit:?} behind a {ckpt_elapsed:?} checkpoint"
        );
    }
}

/// A commit whose record the log would refuse to read back must be
/// refused before it is acknowledged. The log's decoder treats a payload
/// over `MAX_PAYLOAD` as corruption and open truncates there, so an
/// accepted oversize record would take itself and every later commit
/// with it on the next open.
#[test]
fn oversize_commit_is_refused_and_neighbours_survive_reopen() {
    let _watchdog = Watchdog::arm(
        "oversize_commit_is_refused_and_neighbours_survive_reopen",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("rec_oversize_commit");
    let create = |db: &GraphDb, value: PropertyValue| {
        let mut tx = db.begin();
        let id = tx.create_node(&["N"], &[("v", value)])?;
        tx.commit().map(|_| id)
    };
    let (a, c) = {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let a = create(&db, PropertyValue::from("A")).unwrap();
        let huge = "b".repeat(graphsi_wal::record::MAX_PAYLOAD + 16);
        assert!(matches!(
            create(&db, PropertyValue::String(huge)),
            Err(DbError::CommitRecordOverflow(_))
        ));
        let c = create(&db, PropertyValue::from("C")).unwrap();
        (a, c)
    };
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.begin();
    for (id, v) in [(a, "A"), (c, "C")] {
        let node = tx.get_node(id).unwrap().expect("commit survives reopen");
        assert_eq!(node.property("v"), Some(&PropertyValue::from(v)));
    }
    assert_eq!(tx.nodes_with_label("N").unwrap().count(), 2);
}
