//! Integrity-armour tests: page-trailer checksums across rewrites and
//! compaction, the online verifier's zero-false-positive contract under
//! concurrent writers, and the store crash-point matrix (torn half-page,
//! stale page, bit flip × crash before/after checkpoint).
//!
//! The matrix's contract is *recover or report, never silently wrong*:
//! a faulted page fully covered by WAL replay is rebuilt on reopen; one
//! the log no longer covers must surface as a typed checksum error or a
//! class-labelled verifier finding.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphsi_core::test_support::{TempDir, Watchdog};
use graphsi_core::{
    DbConfig, Direction, GraphDb, NodeId, PageFault, PropertyValue, StoreTarget, SyncPolicy,
};

fn config() -> DbConfig {
    DbConfig::default().with_sync_policy(SyncPolicy::Always)
}

/// A config whose per-store page cache holds `pages` frames: touching one
/// page beyond that evicts (and writes back) the least recently used one,
/// which is how these tests land an injected write fault on disk without
/// running a checkpoint.
fn tiny_cache(pages: usize) -> DbConfig {
    config().with_cache_pages_per_store(pages)
}

/// Creates `n` nodes labelled `Bulk` with `("i", Int(k))`, one commit per
/// node so the WAL carries them individually. Returns the IDs in order.
fn create_bulk(db: &GraphDb, start: i64, n: i64) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(n as usize);
    for k in start..start + n {
        let mut tx = db.begin();
        ids.push(
            tx.create_node(&["Bulk"], &[("i", PropertyValue::Int(k))])
                .unwrap(),
        );
        tx.commit().unwrap();
    }
    ids
}

/// Asserts every node of `ids` still carries its creation-order value.
fn assert_bulk_intact(db: &GraphDb, ids: &[NodeId], start: i64) {
    let tx = db.txn().read_only().begin();
    for (off, id) in ids.iter().enumerate() {
        assert_eq!(
            tx.node_property(*id, "i").unwrap(),
            Some(PropertyValue::Int(start + off as i64)),
            "node {} lost its property",
            id.raw()
        );
    }
}

// ---------------------------------------------------------------------
// Checksum round-trip
// ---------------------------------------------------------------------

/// Pages are sealed at every flush and verified on every fault-in; a
/// store that has been written, rewritten, garbage collected and
/// checkpointed repeatedly must still read back clean with zero checksum
/// failures.
#[test]
fn checksums_round_trip_across_rewrites_and_gc() {
    let _watchdog = Watchdog::arm(
        "checksums_round_trip_across_rewrites_and_gc",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("integrity_round_trip");
    let ids;
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        ids = create_bulk(&db, 0, 150);
        db.checkpoint().unwrap();
        // Rewrite every node (dirties and reseals the pages), drop a
        // third of them, collect, and checkpoint again.
        for (k, id) in ids.iter().enumerate() {
            let mut tx = db.begin();
            tx.set_node_property(*id, "i", PropertyValue::Int(1000 + k as i64))
                .unwrap();
            tx.commit().unwrap();
        }
        for id in &ids[100..] {
            let mut tx = db.begin();
            tx.delete_node(*id).unwrap();
            tx.commit().unwrap();
        }
        db.run_gc();
        db.checkpoint().unwrap();
    }
    let db = GraphDb::open(dir.path(), config()).unwrap();
    let tx = db.txn().read_only().begin();
    for (k, id) in ids[..100].iter().enumerate() {
        assert_eq!(
            tx.node_property(*id, "i").unwrap(),
            Some(PropertyValue::Int(1000 + k as i64))
        );
    }
    for id in &ids[100..] {
        assert!(tx.get_node(*id).unwrap().is_none());
    }
    drop(tx);
    let report = db.verify().unwrap();
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(report.pages_checked > 0);
    assert_eq!(db.metrics().page_checksum_failures, 0);
}

// ---------------------------------------------------------------------
// Verifier under churn
// ---------------------------------------------------------------------

/// The zero-false-positive contract: a healthy database being actively
/// written (creates, updates, deletes, relationships, GC) verifies clean
/// every single time — transient mid-commit states must never be
/// reported.
#[test]
fn verifier_finds_nothing_on_a_clean_db_under_concurrent_writers() {
    let _watchdog = Watchdog::arm(
        "verifier_finds_nothing_on_a_clean_db_under_concurrent_writers",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("integrity_churn");
    let db = Arc::new(GraphDb::open(dir.path(), config()).unwrap());
    let done = Arc::new(AtomicBool::new(false));

    // Write-write conflicts are ordinary snapshot-isolation aborts (a
    // successor transaction can race the pipeline's lock release), so
    // every writer step is a retried closure, as a real client would run.
    fn with_retry(
        db: &GraphDb,
        mut f: impl FnMut(&mut graphsi_core::Transaction) -> graphsi_core::Result<()>,
    ) {
        for _ in 0..100 {
            let mut tx = db.begin();
            if f(&mut tx).is_ok() && tx.commit().is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("transaction could not commit after 100 attempts");
    }

    let writers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut mine = Vec::new();
                for k in 0..120i64 {
                    let mut id = None;
                    let prev = mine.last().copied();
                    with_retry(&db, |tx| {
                        let n = tx.create_node(&["Churn"], &[("v", PropertyValue::Int(k))])?;
                        if let Some(prev) = prev {
                            tx.create_relationship(prev, n, "NEXT", &[])?;
                        }
                        id = Some(n);
                        Ok(())
                    });
                    let id = id.unwrap();
                    mine.push(id);
                    if k % 5 == 0 {
                        with_retry(&db, |tx| {
                            tx.set_node_property(id, "v", PropertyValue::Int(k + 1000))?;
                            tx.add_label(id, "Updated")
                        });
                    }
                    if k % 11 == 10 {
                        let victim = mine.remove(0);
                        with_retry(&db, |tx| {
                            // Relationships must be gone before the node.
                            let rels: Vec<_> = tx
                                .relationships(victim, Direction::Both)?
                                .collect::<graphsi_core::Result<_>>()?;
                            for rel in rels {
                                tx.delete_relationship(rel.id)?;
                            }
                            tx.delete_node(victim)
                        });
                    }
                    if k % 30 == 29 {
                        db.run_gc();
                    }
                }
                mine.len()
            })
        })
        .collect();

    // Verify continuously while the writers churn.
    let mut runs = 0u64;
    while !done.load(Ordering::SeqCst) {
        let report = db.verify().unwrap();
        assert!(
            report.is_clean(),
            "verifier misfired under churn:\n{}",
            report.to_text()
        );
        runs += 1;
        if writers.iter().all(|w| w.is_finished()) {
            done.store(true, Ordering::SeqCst);
        }
        // Pace the loop: back-to-back full walks would starve the writer
        // threads (and sibling test binaries) of CPU for no extra
        // coverage.
        std::thread::sleep(Duration::from_millis(10));
    }
    for w in writers {
        w.join().unwrap();
    }
    // One more settled run for good measure, then check the counters.
    let report = db.verify().unwrap();
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(report.entities_checked > 0);
    let m = db.metrics();
    assert_eq!(m.verify_runs, runs + 1);
    assert_eq!(m.verify_divergences, 0);
    assert!(m.commits > 300, "writers must actually have committed");
}

// ---------------------------------------------------------------------
// Crash matrix: faulted page write *before* any checkpoint — the WAL
// still covers everything, so recovery must rebuild silently.
// ---------------------------------------------------------------------

fn faulted_eviction_before_checkpoint_recovers(fault: PageFault, name: &'static str) {
    let dir = TempDir::new(name);
    let ids;
    {
        let db = GraphDb::open(dir.path(), tiny_cache(2)).unwrap();
        // Fill node pages 0 and 1 (127 records each), then arm the fault:
        // the first touch of page 2 evicts page 0, and that write-back
        // suffers the injected fault while the cache believes it
        // succeeded.
        let first = create_bulk(&db, 0, 130);
        db.inject_store_write_fault(StoreTarget::Nodes, fault);
        let rest = create_bulk(&db, 130, 130);
        ids = [first, rest].concat();
        // "Crash": drop without checkpoint. The store now holds a faulted
        // page image (or none at all), the WAL holds the truth.
    }
    let db = GraphDb::open(dir.path(), tiny_cache(2)).unwrap();
    assert_bulk_intact(&db, &ids, 0);
    let report = db.verify().unwrap();
    assert!(
        report.is_clean(),
        "replay must rebuild the faulted page:\n{}",
        report.to_text()
    );
}

#[test]
fn torn_half_page_before_checkpoint_is_rebuilt_by_replay() {
    let _watchdog = Watchdog::arm(
        "torn_half_page_before_checkpoint_is_rebuilt_by_replay",
        Duration::from_secs(120),
    );
    faulted_eviction_before_checkpoint_recovers(PageFault::TornHalf, "integrity_torn_pre");
}

#[test]
fn bit_flip_before_checkpoint_is_rebuilt_by_replay() {
    let _watchdog = Watchdog::arm(
        "bit_flip_before_checkpoint_is_rebuilt_by_replay",
        Duration::from_secs(120),
    );
    faulted_eviction_before_checkpoint_recovers(PageFault::BitFlip, "integrity_flip_pre");
}

#[test]
fn stale_page_before_checkpoint_is_rebuilt_by_replay() {
    let _watchdog = Watchdog::arm(
        "stale_page_before_checkpoint_is_rebuilt_by_replay",
        Duration::from_secs(120),
    );
    faulted_eviction_before_checkpoint_recovers(PageFault::Stale, "integrity_stale_pre");
}

/// The torn and bit-flipped variants of the pre-checkpoint matrix must
/// actually exercise the suspect machinery: the corrupt fault-in during
/// replay is recorded, the replay rewrites the page, and the recovery
/// outcome counts it as rebuilt.
#[test]
fn torn_page_recovery_is_counted() {
    let _watchdog = Watchdog::arm("torn_page_recovery_is_counted", Duration::from_secs(120));
    let dir = TempDir::new("integrity_torn_counted");
    let ids;
    {
        let db = GraphDb::open(dir.path(), tiny_cache(2)).unwrap();
        let first = create_bulk(&db, 0, 130);
        db.inject_store_write_fault(StoreTarget::Nodes, PageFault::TornHalf);
        let rest = create_bulk(&db, 130, 130);
        ids = [first, rest].concat();
    }
    let db = GraphDb::open(dir.path(), tiny_cache(2)).unwrap();
    assert_bulk_intact(&db, &ids, 0);
    let m = db.metrics();
    assert!(
        m.torn_pages_recovered >= 1,
        "the torn page must be counted as rebuilt (metrics: torn_pages_recovered={})",
        m.torn_pages_recovered
    );
    assert!(m.page_checksum_failures >= 1);
}

// ---------------------------------------------------------------------
// Crash matrix: faulted page write *during* the checkpoint flush — the
// checkpoint then releases the covering WAL segments, so silent recovery
// is impossible. The contract degrades to "report, never silently
// wrong": either the reopen fails with the typed checksum error, or the
// verifier reports a class-labelled finding.
// ---------------------------------------------------------------------

fn faulted_checkpoint_is_reported(fault: PageFault, name: &'static str) {
    let dir = TempDir::new(name);
    {
        let db = GraphDb::open(dir.path(), config()).unwrap();
        let ids = create_bulk(&db, 0, 100);
        db.checkpoint().unwrap();
        // Dirty page 0 again so the next checkpoint rewrites it; the
        // label lands in the first half of the page (records 0..63), so
        // a torn first-half write definitely clobbers committed bytes.
        let mut tx = db.begin();
        tx.add_label(ids[0], "Marked").unwrap();
        tx.commit().unwrap();
        db.inject_store_write_fault(StoreTarget::Nodes, fault);
        db.checkpoint().unwrap();
        // "Crash" after the checkpoint retired the WAL coverage.
    }
    match GraphDb::open(dir.path(), config()) {
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("failed its checksum"),
                "reopen failed, but not with the typed checksum error: {msg}"
            );
        }
        Ok(db) => {
            // If the store opened (the faulted image happened to decode),
            // the verifier must still catch the divergence — silence is
            // the one forbidden outcome.
            let report = db.verify().unwrap();
            assert!(
                !report.is_clean(),
                "faulted post-checkpoint page must be reported"
            );
        }
    }
}

#[test]
fn torn_half_page_in_checkpoint_flush_is_reported_on_reopen() {
    let _watchdog = Watchdog::arm(
        "torn_half_page_in_checkpoint_flush_is_reported_on_reopen",
        Duration::from_secs(120),
    );
    faulted_checkpoint_is_reported(PageFault::TornHalf, "integrity_torn_post");
}

#[test]
fn bit_flip_in_checkpoint_flush_is_reported_on_reopen() {
    let _watchdog = Watchdog::arm(
        "bit_flip_in_checkpoint_flush_is_reported_on_reopen",
        Duration::from_secs(120),
    );
    faulted_checkpoint_is_reported(PageFault::BitFlip, "integrity_flip_post");
}

/// A stale page write (the write that never happened) keeps an
/// internally consistent old image, so no checksum can catch it. The
/// detection point is the *online* verifier: once the stale image faults
/// back in while the MVCC cache and the label index still hold the newer
/// committed state, it surfaces as an index↔store divergence. And as long
/// as the covering WAL has not been retired, a crash-and-replay still
/// rebuilds the page — both halves of the contract on one store.
#[test]
fn stale_page_is_caught_online_and_rebuilt_by_replay() {
    let _watchdog = Watchdog::arm(
        "stale_page_is_caught_online_and_rebuilt_by_replay",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("integrity_stale_online");
    let ids;
    {
        // One-frame cache: every touch of another page evicts.
        let db = GraphDb::open(dir.path(), tiny_cache(1)).unwrap();
        ids = create_bulk(&db, 0, 128); // page 0 full + first record of page 1
        db.checkpoint().unwrap(); // page 0 on disk, sealed, WAL retired
        let mut tx = db.begin();
        tx.add_label(ids[0], "Flagged").unwrap();
        tx.commit().unwrap();
        // Evict the dirty page 0 with the write suppressed: disk keeps
        // the checkpoint image without the label.
        db.inject_store_write_fault(StoreTarget::Nodes, PageFault::Stale);
        {
            let tx = db.txn().read_only().begin();
            let _ = tx.get_node(ids[127]).unwrap(); // faults page 1 in
        }
        let report = db.verify().unwrap();
        assert!(
            !report.is_clean(),
            "the stale page must diverge from the index/MVCC state"
        );
        assert!(
            report.index_store_divergences + report.dangling_chain_pointers > 0,
            "unexpected finding classes:\n{}",
            report.to_text()
        );
        // "Crash": the label commit is still in the WAL (no checkpoint
        // since), so replay rewrites the page.
    }
    let db = GraphDb::open(dir.path(), tiny_cache(1)).unwrap();
    let tx = db.txn().read_only().begin();
    let node = tx.get_node(ids[0]).unwrap().expect("node 0 recovered");
    assert!(node.has_label("Flagged"), "replay must restore the label");
    drop(tx);
    let report = db.verify().unwrap();
    assert!(report.is_clean(), "{}", report.to_text());
}

// ---------------------------------------------------------------------
// Out-of-band corruption caught by the page sweep
// ---------------------------------------------------------------------

/// A byte flipped on disk behind the database's back (the classic silent
/// bit rot) is reported by the verifier's page sweep as a bad-page-CRC
/// finding: the sweep reads every non-resident page from disk, so it sees
/// the rot even though no read has faulted the page in.
#[test]
fn out_of_band_trailer_rot_is_reported_by_the_page_sweep() {
    let _watchdog = Watchdog::arm(
        "out_of_band_trailer_rot_is_reported_by_the_page_sweep",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("integrity_bit_rot");
    // A one-frame cache: once the bulk load moves on to page 2, page 1 is
    // no longer resident, and the checkpoint leaves it clean on disk.
    let db = GraphDb::open(dir.path(), tiny_cache(1)).unwrap();
    create_bulk(&db, 0, 300); // node pages 0..=2
    db.checkpoint().unwrap();
    // Flip one byte of page 1's CRC trailer in nodes.db, in place.
    {
        use std::io::{Read, Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.path().join("nodes.db"))
            .unwrap();
        let off = 8192 + 8191; // last byte of page 1 = high byte of its CRC
        let mut byte = [0u8];
        file.seek(SeekFrom::Start(off)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(off)).unwrap();
        file.write_all(&[byte[0] ^ 0xFF]).unwrap();
        file.sync_all().unwrap();
    }
    let report = db.verify().unwrap();
    assert!(report.bad_page_crc >= 1, "{}", report.to_text());
    assert!(report.to_text().contains("finding bad-page-crc"));
    // After a reopen (the object cache no longer serves these nodes), a
    // read of the rotten page fails typed.
    drop(db);
    let err = {
        match GraphDb::open(dir.path(), tiny_cache(1)) {
            Err(e) => e.to_string(),
            Ok(db) => {
                // The open scan may not touch page 1; a direct read must.
                let tx = db.txn().read_only().begin();
                let mut msg = String::new();
                for k in 120..260 {
                    if let Err(e) = tx.get_node(NodeId::new(k)) {
                        msg = e.to_string();
                        break;
                    }
                }
                msg
            }
        }
    };
    assert!(
        err.contains("failed its checksum"),
        "verified read of the rotten page must fail typed: {err:?}"
    );
}
