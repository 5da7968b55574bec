//! Integration tests for the core snapshot-isolation semantics: the read
//! rule, read-your-own-writes, commit visibility and the write rule
//! (first-updater-wins), exercised through the public `graphsi-core` API.

use graphsi_core::test_support::TempDir;
use graphsi_core::{ConflictStrategy, DbConfig, Direction, GraphDb, IsolationLevel, PropertyValue};

/// Drains a lazy scan into a sorted `Vec` (scans stream in no particular
/// order).
fn sorted_scan<T: Ord>(scan: impl Iterator<Item = graphsi_core::Result<T>>) -> Vec<T> {
    let mut out: Vec<T> = scan.collect::<graphsi_core::Result<_>>().unwrap();
    out.sort();
    out
}

fn open_si(dir: &TempDir) -> GraphDb {
    GraphDb::open(dir.path(), DbConfig::default()).expect("open db")
}

#[test]
fn committed_data_is_visible_to_later_transactions() {
    let dir = TempDir::new("si_visible");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let alice = tx
        .create_node(&["Person"], &[("name", PropertyValue::from("Alice"))])
        .unwrap();
    let bob = tx
        .create_node(&["Person"], &[("name", PropertyValue::from("Bob"))])
        .unwrap();
    let knows = tx
        .create_relationship(
            alice,
            bob,
            "KNOWS",
            &[("since", PropertyValue::from(2016i64))],
        )
        .unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    let node = tx.get_node(alice).unwrap().expect("alice exists");
    assert!(node.has_label("Person"));
    assert_eq!(node.property("name"), Some(&PropertyValue::from("Alice")));
    let rel = tx.get_relationship(knows).unwrap().expect("rel exists");
    assert_eq!(rel.rel_type, "KNOWS");
    assert_eq!(rel.source, alice);
    assert_eq!(rel.target, bob);
    assert_eq!(
        sorted_scan(tx.neighbors(alice, Direction::Both).unwrap()),
        vec![bob]
    );
    assert_eq!(tx.degree(bob, Direction::Both).unwrap(), 1);
}

#[test]
fn uncommitted_writes_are_private_but_readable_by_the_writer() {
    let dir = TempDir::new("si_ryow");
    let db = open_si(&dir);

    // Seed one committed node.
    let mut tx = db.begin();
    let seed = tx.create_node(&["Seed"], &[]).unwrap();
    tx.commit().unwrap();

    let mut writer = db.begin();
    let fresh = writer
        .create_node(&["Person"], &[("name", PropertyValue::from("Carol"))])
        .unwrap();
    writer
        .set_node_property(seed, "touched", PropertyValue::Bool(true))
        .unwrap();
    let pending_rel = writer
        .create_relationship(fresh, seed, "TOUCHES", &[])
        .unwrap();

    // The writer reads its own writes...
    assert!(writer.node_exists(fresh).unwrap());
    assert_eq!(
        writer.node_property(seed, "touched").unwrap(),
        Some(PropertyValue::Bool(true))
    );
    assert_eq!(writer.degree(fresh, Direction::Both).unwrap(), 1);
    assert!(writer.get_relationship(pending_rel).unwrap().is_some());
    assert_eq!(
        sorted_scan(writer.nodes_with_label("Person").unwrap()),
        vec![fresh]
    );

    // ...while a concurrent reader sees none of it.
    let reader = db.begin();
    assert!(!reader.node_exists(fresh).unwrap());
    assert_eq!(reader.node_property(seed, "touched").unwrap(), None);
    assert_eq!(reader.degree(seed, Direction::Both).unwrap(), 0);
    assert_eq!(reader.nodes_with_label("Person").unwrap().count(), 0);
    drop(reader);

    writer.commit().unwrap();

    let after = db.begin();
    assert!(after.node_exists(fresh).unwrap());
    assert_eq!(
        after.node_property(seed, "touched").unwrap(),
        Some(PropertyValue::Bool(true))
    );
}

#[test]
fn snapshot_readers_do_not_observe_later_commits() {
    let dir = TempDir::new("si_snapshot");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let node = tx
        .create_node(&["Counter"], &[("value", PropertyValue::Int(1))])
        .unwrap();
    tx.commit().unwrap();

    // The reader starts before the update commits.
    let reader = db.begin();
    assert_eq!(
        reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(1))
    );

    let mut writer = db.begin();
    writer
        .set_node_property(node, "value", PropertyValue::Int(2))
        .unwrap();
    writer.commit().unwrap();

    // Same transaction, same snapshot: still 1.
    assert_eq!(
        reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(1))
    );
    drop(reader);

    // A new transaction sees 2.
    let fresh = db.begin();
    assert_eq!(
        fresh.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(2))
    );
}

#[test]
fn snapshot_readers_still_see_entities_deleted_after_their_start() {
    let dir = TempDir::new("si_delete_visibility");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let a = tx.create_node(&["Person"], &[]).unwrap();
    let b = tx.create_node(&["Person"], &[]).unwrap();
    let rel = tx.create_relationship(a, b, "KNOWS", &[]).unwrap();
    tx.commit().unwrap();

    let reader = db.begin();

    // Concurrently delete the relationship and node b.
    let mut deleter = db.begin();
    deleter.delete_relationship(rel).unwrap();
    deleter.delete_node(b).unwrap();
    deleter.commit().unwrap();

    // The old snapshot still sees both.
    assert!(reader.node_exists(b).unwrap());
    assert!(reader.get_relationship(rel).unwrap().is_some());
    assert_eq!(
        sorted_scan(reader.neighbors(a, Direction::Both).unwrap()),
        vec![b]
    );
    drop(reader);

    // A fresh snapshot does not.
    let fresh = db.begin();
    assert!(!fresh.node_exists(b).unwrap());
    assert!(fresh.get_relationship(rel).unwrap().is_none());
    assert_eq!(fresh.neighbors(a, Direction::Both).unwrap().count(), 0);
}

#[test]
fn first_updater_wins_aborts_the_second_writer() {
    let dir = TempDir::new("si_fuw");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let node = tx
        .create_node(&["Hot"], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.set_node_property(node, "value", PropertyValue::Int(1))
        .unwrap();
    // T2 is the second updater of the same node: it must abort right away.
    let err = t2
        .set_node_property(node, "value", PropertyValue::Int(2))
        .unwrap_err();
    assert!(
        err.is_conflict(),
        "expected a write-write conflict, got {err}"
    );
    assert!(!t2.is_active());

    t1.commit().unwrap();
    let check = db.begin();
    assert_eq!(
        check.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(1))
    );
    assert!(db.metrics().conflict_aborts >= 1);
}

#[test]
fn writer_that_commits_first_invalidates_stale_snapshots_under_fuw() {
    let dir = TempDir::new("si_stale");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    // T2 starts before T1 commits a newer version.
    let mut t2 = db.begin();
    let mut t1 = db.begin();
    t1.set_node_property(node, "value", PropertyValue::Int(1))
        .unwrap();
    t1.commit().unwrap();

    // T2 now tries to update based on its stale snapshot: abort.
    let err = t2
        .set_node_property(node, "value", PropertyValue::Int(2))
        .unwrap_err();
    assert!(err.is_conflict());
}

#[test]
fn first_committer_wins_defers_the_abort_to_commit_time() {
    let dir = TempDir::new("si_fcw");
    let db = GraphDb::open(
        dir.path(),
        DbConfig::default().with_conflict_strategy(ConflictStrategy::FirstCommitterWins),
    )
    .unwrap();

    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.set_node_property(node, "value", PropertyValue::Int(1))
        .unwrap();
    // Under first-committer-wins the second updater is not aborted yet.
    t2.set_node_property(node, "value", PropertyValue::Int(2))
        .unwrap();

    t1.commit().unwrap();
    // T2 loses at commit time.
    let err = t2.commit().unwrap_err();
    assert!(err.is_conflict());

    let check = db.begin();
    assert_eq!(
        check.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(1))
    );
}

#[test]
fn rollback_discards_everything() {
    let dir = TempDir::new("si_rollback");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let node = tx.create_node(&["Person"], &[]).unwrap();
    tx.rollback();

    let check = db.begin();
    assert!(!check.node_exists(node).unwrap());
    assert_eq!(check.nodes_with_label("Person").unwrap().count(), 0);
    assert_eq!(db.metrics().rollbacks, 1);
}

#[test]
fn dropping_an_active_transaction_rolls_it_back() {
    let dir = TempDir::new("si_drop");
    let db = open_si(&dir);
    let node = {
        let mut tx = db.begin();
        tx.create_node(&["Ghost"], &[]).unwrap()
        // dropped here without commit
    };
    let check = db.begin();
    assert!(!check.node_exists(node).unwrap());
    assert_eq!(db.active_transactions(), 1); // only `check`
}

#[test]
fn label_and_property_index_lookups_respect_snapshots() {
    let dir = TempDir::new("si_index");
    let db = open_si(&dir);

    let mut tx = db.begin();
    let a = tx
        .create_node(&["Person"], &[("age", PropertyValue::Int(30))])
        .unwrap();
    tx.commit().unwrap();

    let old_reader = db.begin();

    let mut tx = db.begin();
    let b = tx
        .create_node(&["Person"], &[("age", PropertyValue::Int(30))])
        .unwrap();
    tx.remove_label(a, "Person").unwrap();
    tx.set_node_property(a, "age", PropertyValue::Int(31))
        .unwrap();
    tx.commit().unwrap();

    // Old snapshot: only `a`, with its old label and value.
    assert_eq!(
        sorted_scan(old_reader.nodes_with_label("Person").unwrap()),
        vec![a]
    );
    assert_eq!(
        sorted_scan(
            old_reader
                .nodes_with_property("age", &PropertyValue::Int(30))
                .unwrap()
        ),
        vec![a]
    );
    drop(old_reader);

    // New snapshot: only `b` matches both predicates now.
    let fresh = db.begin();
    assert_eq!(
        sorted_scan(fresh.nodes_with_label("Person").unwrap()),
        vec![b]
    );
    assert_eq!(
        sorted_scan(
            fresh
                .nodes_with_property("age", &PropertyValue::Int(30))
                .unwrap()
        ),
        vec![b]
    );
    assert_eq!(
        sorted_scan(
            fresh
                .nodes_with_property("age", &PropertyValue::Int(31))
                .unwrap()
        ),
        vec![a]
    );
}

#[test]
fn deleting_a_node_with_relationships_is_rejected() {
    let dir = TempDir::new("si_delete_guard");
    let db = open_si(&dir);
    let mut tx = db.begin();
    let a = tx.create_node(&[], &[]).unwrap();
    let b = tx.create_node(&[], &[]).unwrap();
    let rel = tx.create_relationship(a, b, "LINK", &[]).unwrap();
    tx.commit().unwrap();

    let mut tx = db.begin();
    assert!(tx.delete_node(a).is_err());
    // After deleting the relationship first it works.
    tx.delete_relationship(rel).unwrap();
    tx.delete_node(a).unwrap();
    tx.commit().unwrap();

    let check = db.begin();
    assert!(!check.node_exists(a).unwrap());
    assert!(check.node_exists(b).unwrap());
}

#[test]
fn reserved_names_are_rejected() {
    let dir = TempDir::new("si_reserved");
    let db = open_si(&dir);
    let mut tx = db.begin();
    let node = tx.create_node(&[], &[]).unwrap();
    assert!(tx
        .set_node_property(node, "__graphsi.commit_ts", PropertyValue::Int(1))
        .is_err());
    assert!(tx.add_label(node, "__graphsi.internal").is_err());
    assert!(tx
        .create_node(&[], &[("__graphsi.x", PropertyValue::Int(1))])
        .is_err());
}

#[test]
fn read_committed_transactions_see_latest_committed_state() {
    let dir = TempDir::new("si_rc_latest");
    let db = open_si(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("value", PropertyValue::Int(1))])
        .unwrap();
    tx.commit().unwrap();

    // An RC reader started before an update still observes the newer value
    // afterwards (no snapshot).
    let rc_reader = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    assert_eq!(
        rc_reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(1))
    );
    let mut writer = db.begin();
    writer
        .set_node_property(node, "value", PropertyValue::Int(2))
        .unwrap();
    writer.commit().unwrap();
    assert_eq!(
        rc_reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(2)),
        "read committed must observe the newer committed value"
    );
}

#[test]
fn update_properties_and_labels_roundtrip() {
    let dir = TempDir::new("si_update_roundtrip");
    let db = open_si(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(
            &["A"],
            &[
                ("p", PropertyValue::Int(1)),
                ("q", PropertyValue::Bool(true)),
            ],
        )
        .unwrap();
    tx.commit().unwrap();

    let mut tx = db.begin();
    tx.add_label(node, "B").unwrap();
    tx.remove_label(node, "A").unwrap();
    tx.set_node_property(node, "p", PropertyValue::from("text"))
        .unwrap();
    tx.remove_node_property(node, "q").unwrap();
    tx.commit().unwrap();

    let check = db.begin();
    let n = check.get_node(node).unwrap().unwrap();
    assert_eq!(n.labels, vec!["B".to_string()]);
    assert_eq!(n.property("p"), Some(&PropertyValue::from("text")));
    assert_eq!(n.property("q"), None);
    assert!(check.node_has_label(node, "B").unwrap());
    assert!(!check.node_has_label(node, "A").unwrap());
}

#[test]
fn metrics_track_transaction_outcomes() {
    let dir = TempDir::new("si_metrics");
    let db = open_si(&dir);
    let mut tx = db.begin();
    tx.create_node(&[], &[]).unwrap();
    tx.commit().unwrap();
    let ro = db.begin();
    let _ = ro.node_count().unwrap();
    ro.commit().unwrap();
    let m = db.metrics();
    assert_eq!(m.begins, 2);
    assert_eq!(m.commits, 2);
    assert_eq!(m.read_only_commits, 1);
    assert!(m.writes >= 1);
    assert!(m.reads >= 1);
}
