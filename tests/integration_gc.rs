//! Garbage-collection integration tests: watermark-driven reclamation,
//! reader protection, threaded vs vacuum equivalence, index GC and the
//! automatic GC trigger.

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, GcStrategy, GraphDb, PropertyValue};

fn open(dir: &TempDir) -> GraphDb {
    GraphDb::open(dir.path(), DbConfig::default()).unwrap()
}

#[test]
fn versions_accumulate_while_a_reader_pins_the_watermark() {
    let dir = TempDir::new("gc_pin");
    let db = open(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("v", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let reader = db.begin(); // pins the watermark at this snapshot

    for i in 1..=10i64 {
        let mut tx = db.begin();
        tx.set_node_property(node, "v", PropertyValue::Int(i))
            .unwrap();
        tx.commit().unwrap();
    }
    assert!(db.node_cache_stats().versions >= 10);

    // GC while the reader is active: the version the reader needs (v=0) and
    // everything newer than the watermark must survive.
    let summary = db.run_gc();
    assert_eq!(summary.strategy, GcStrategy::Threaded);
    assert_eq!(
        reader.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(0)),
        "the pinned snapshot still reads its version after GC"
    );
    drop(reader);

    // With no active readers, a second GC collapses the chain to (at most)
    // the newest committed version, which the store already holds.
    let summary = db.run_gc();
    assert!(summary.versions_reclaimed > 0);
    let after = db.node_cache_stats();
    assert!(
        after.versions <= 1,
        "chain collapsed, got {}",
        after.versions
    );

    // The data is still correct.
    let tx = db.begin();
    assert_eq!(
        tx.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(10))
    );
}

#[test]
fn paper_example_versions_40_56_90_watermark_100() {
    // Reproduces the paper's §3 example at the API level: three committed
    // versions; once the oldest active transaction is newer than all of
    // them, only the newest survives in memory.
    let dir = TempDir::new("gc_paper_example");
    let db = open(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("v", PropertyValue::Int(40))])
        .unwrap();
    tx.commit().unwrap();
    for v in [56i64, 90] {
        let mut tx = db.begin();
        tx.set_node_property(node, "v", PropertyValue::Int(v))
            .unwrap();
        tx.commit().unwrap();
    }
    // "Oldest active transaction has start timestamp 100": simply a fresh
    // transaction after all three commits.
    let active = db.begin();
    let summary = db.run_gc();
    assert!(
        summary.versions_reclaimed >= 2,
        "the two oldest versions go"
    );
    assert_eq!(
        active.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(90))
    );
}

#[test]
fn threaded_and_vacuum_gc_reclaim_equivalently() {
    let build = |dir: &TempDir| {
        let db = open(dir);
        let mut tx = db.begin();
        let nodes: Vec<_> = (0..20)
            .map(|i| {
                tx.create_node(&["N"], &[("v", PropertyValue::Int(i))])
                    .unwrap()
            })
            .collect();
        tx.commit().unwrap();
        for round in 0..5i64 {
            for &node in &nodes {
                let mut tx = db.begin();
                tx.set_node_property(node, "v", PropertyValue::Int(round * 100))
                    .unwrap();
                tx.commit().unwrap();
            }
        }
        db
    };
    let dir_a = TempDir::new("gc_threaded");
    let dir_b = TempDir::new("gc_vacuum");
    let db_a = build(&dir_a);
    let db_b = build(&dir_b);

    let threaded = db_a.run_gc();
    let vacuum = db_b.run_gc_vacuum();
    assert_eq!(threaded.versions_reclaimed, vacuum.versions_reclaimed);
    assert_eq!(
        db_a.node_cache_stats().versions,
        db_b.node_cache_stats().versions
    );
    // The threaded run never examines more versions than the vacuum run —
    // this is the efficiency claim of the paper.
    assert!(threaded.versions_examined <= vacuum.versions_examined);
}

#[test]
fn threaded_gc_with_no_garbage_examines_nothing() {
    let dir = TempDir::new("gc_idle");
    let db = open(&dir);
    let mut tx = db.begin();
    for i in 0..50i64 {
        tx.create_node(&["N"], &[("v", PropertyValue::Int(i))])
            .unwrap();
    }
    tx.commit().unwrap();
    // First GC may collapse the freshly created chains onto the store.
    db.run_gc();
    // A second run has nothing left to look at.
    let second = db.run_gc();
    assert_eq!(second.versions_examined, 0);
    assert_eq!(second.versions_reclaimed, 0);
    // The vacuum-style run still walks every cached chain — it walks
    // *chains*, not the GC list — so its examined count equals the number
    // of versions resident before the run, garbage or not.
    let resident_before = db.node_cache_stats().versions;
    let vacuum = db.run_gc_vacuum();
    assert_eq!(vacuum.versions_examined, resident_before);
}

#[test]
fn deleted_entities_vanish_from_memory_after_gc() {
    let dir = TempDir::new("gc_tombstones");
    let db = open(&dir);
    let mut tx = db.begin();
    let a = tx.create_node(&["Doomed"], &[]).unwrap();
    let b = tx.create_node(&["Doomed"], &[]).unwrap();
    let rel = tx.create_relationship(a, b, "LINK", &[]).unwrap();
    tx.commit().unwrap();

    let mut tx = db.begin();
    tx.delete_relationship(rel).unwrap();
    tx.delete_node(a).unwrap();
    tx.delete_node(b).unwrap();
    tx.commit().unwrap();

    let summary = db.run_gc();
    assert!(summary.versions_reclaimed > 0);
    assert_eq!(db.node_cache_stats().versions, 0);
    assert_eq!(db.relationship_cache_stats().versions, 0);

    let tx = db.begin();
    assert!(!tx.node_exists(a).unwrap());
    assert!(tx.get_relationship(rel).unwrap().is_none());
    assert_eq!(tx.nodes_with_label("Doomed").unwrap().count(), 0);
}

#[test]
fn index_postings_are_reclaimed_once_unobservable() {
    let dir = TempDir::new("gc_index");
    let db = open(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&["Person"], &[("age", PropertyValue::Int(1))])
        .unwrap();
    tx.commit().unwrap();
    // Ten value changes leave nine dead postings behind.
    for age in 2..=10i64 {
        let mut tx = db.begin();
        tx.set_node_property(node, "age", PropertyValue::Int(age))
            .unwrap();
        tx.commit().unwrap();
    }
    let summary = db.run_gc();
    assert!(summary.index_postings_reclaimed >= 9);
    let tx = db.begin();
    assert_eq!(
        tx.nodes_with_property("age", &PropertyValue::Int(10))
            .unwrap()
            .collect::<graphsi_core::Result<Vec<_>>>()
            .unwrap(),
        vec![node]
    );
    assert_eq!(
        tx.nodes_with_property("age", &PropertyValue::Int(5))
            .unwrap()
            .count(),
        0
    );
}

#[test]
fn automatic_gc_runs_after_the_configured_number_of_commits() {
    let dir = TempDir::new("gc_auto");
    let db = GraphDb::open(dir.path(), DbConfig::default().with_auto_gc(5)).unwrap();
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("v", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();
    for i in 1..=20i64 {
        let mut tx = db.begin();
        tx.set_node_property(node, "v", PropertyValue::Int(i))
            .unwrap();
        tx.commit().unwrap();
    }
    let metrics = db.metrics();
    assert!(
        metrics.gc_runs >= 3,
        "auto GC ran {} times",
        metrics.gc_runs
    );
    assert!(metrics.versions_reclaimed > 0);
    // Correctness is unaffected.
    let tx = db.begin();
    assert_eq!(
        tx.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(20))
    );
}

#[test]
fn gc_respects_the_oldest_of_several_readers() {
    let dir = TempDir::new("gc_multi_readers");
    let db = open(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("v", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let old_reader = db.begin();
    for i in 1..=3i64 {
        let mut tx = db.begin();
        tx.set_node_property(node, "v", PropertyValue::Int(i))
            .unwrap();
        tx.commit().unwrap();
    }
    let mid_reader = db.begin();
    for i in 4..=6i64 {
        let mut tx = db.begin();
        tx.set_node_property(node, "v", PropertyValue::Int(i))
            .unwrap();
        tx.commit().unwrap();
    }

    db.run_gc();
    // Both readers still see their snapshots.
    assert_eq!(
        old_reader.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(0))
    );
    assert_eq!(
        mid_reader.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(3))
    );
    drop(old_reader);

    db.run_gc();
    // The mid reader still works after the older snapshot's versions went.
    assert_eq!(
        mid_reader.node_property(node, "v").unwrap(),
        Some(PropertyValue::Int(3))
    );
}
