//! Anomaly tests: unrepeatable reads, phantom reads and write skew — the
//! phenomena the paper's introduction uses to motivate snapshot isolation
//! (and the one anomaly SI still admits).

use graphsi_core::test_support::TempDir;
use graphsi_core::traversal;
use graphsi_core::{DbConfig, Direction, GraphDb, IsolationLevel, PropertyValue};

fn open(dir: &TempDir) -> GraphDb {
    GraphDb::open(dir.path(), DbConfig::default()).unwrap()
}

/// Unrepeatable read on a scalar property: the same read inside one
/// transaction returns two different values under read committed, but not
/// under snapshot isolation.
#[test]
fn unrepeatable_read_on_property_rc_vs_si() {
    let dir = TempDir::new("anom_unrepeatable_prop");
    let db = open(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("value", PropertyValue::Int(1))])
        .unwrap();
    tx.commit().unwrap();

    for (isolation, expect_repeatable) in [
        (IsolationLevel::ReadCommitted, false),
        (IsolationLevel::SnapshotIsolation, true),
    ] {
        let reader = db.txn().isolation(isolation).begin();
        let first = reader.node_property(node, "value").unwrap().unwrap();

        let mut writer = db
            .txn()
            .isolation(IsolationLevel::SnapshotIsolation)
            .begin();
        let bumped = match first {
            PropertyValue::Int(v) => PropertyValue::Int(v + 100),
            _ => unreachable!(),
        };
        writer.set_node_property(node, "value", bumped).unwrap();
        writer.commit().unwrap();

        let second = reader.node_property(node, "value").unwrap().unwrap();
        let repeatable = first == second;
        assert_eq!(
            repeatable, expect_repeatable,
            "isolation {isolation}: first={first:?} second={second:?}"
        );
        drop(reader);
    }
}

/// The paper's motivating example: a two-step graph algorithm. A path
/// traversed in step one disappears before step two. Under read committed
/// the second traversal differs; under snapshot isolation both traversals
/// observe the same graph.
#[test]
fn unrepeatable_traversal_two_step_algorithm() {
    for (isolation, expect_consistent) in [
        (IsolationLevel::ReadCommitted, false),
        (IsolationLevel::SnapshotIsolation, true),
    ] {
        let dir = TempDir::new("anom_two_step");
        let db = open(&dir);
        // Build a small path graph: hub -> m1 -> leaf1, hub -> m2 -> leaf2.
        let mut tx = db.begin();
        let hub = tx.create_node(&["Hub"], &[]).unwrap();
        let m1 = tx.create_node(&["Mid"], &[]).unwrap();
        let m2 = tx.create_node(&["Mid"], &[]).unwrap();
        let leaf1 = tx.create_node(&["Leaf"], &[]).unwrap();
        let leaf2 = tx.create_node(&["Leaf"], &[]).unwrap();
        let hub_m1 = tx.create_relationship(hub, m1, "LINK", &[]).unwrap();
        tx.create_relationship(hub, m2, "LINK", &[]).unwrap();
        tx.create_relationship(m1, leaf1, "LINK", &[]).unwrap();
        tx.create_relationship(m2, leaf2, "LINK", &[]).unwrap();
        tx.commit().unwrap();

        let reader = db.txn().isolation(isolation).begin();
        // Step one: BFS over the whole reachable graph.
        let first_walk = traversal::bfs(&reader, hub, 3).unwrap();
        assert_eq!(first_walk.len(), 5);

        // A concurrent transaction removes the hub→m1 edge and m1 itself.
        let mut vandal = db.begin();
        vandal.delete_relationship(hub_m1).unwrap();
        // m1 still has the edge to leaf1; remove it too, then the node.
        let m1_rels = vandal.relationships_vec(m1, Direction::Both).unwrap();
        for rel in m1_rels {
            vandal.delete_relationship(rel.id).unwrap();
        }
        vandal.delete_node(m1).unwrap();
        vandal.commit().unwrap();

        // Step two: walk again inside the same reading transaction.
        let second_walk = traversal::bfs(&reader, hub, 3).unwrap();
        let consistent = first_walk == second_walk;
        assert_eq!(
            consistent, expect_consistent,
            "isolation {isolation}: first={first_walk:?} second={second_walk:?}"
        );
        drop(reader);
    }
}

/// Phantom reads on a predicate (label) selection: repeating the same
/// selection sees new rows under read committed but not under snapshot
/// isolation.
#[test]
fn phantom_read_on_label_predicate() {
    for (isolation, expect_stable) in [
        (IsolationLevel::ReadCommitted, false),
        (IsolationLevel::SnapshotIsolation, true),
    ] {
        let dir = TempDir::new("anom_phantom");
        let db = open(&dir);
        let mut tx = db.begin();
        for i in 0..5i64 {
            tx.create_node(&["Person"], &[("idx", PropertyValue::Int(i))])
                .unwrap();
        }
        tx.commit().unwrap();

        let reader = db.txn().isolation(isolation).begin();
        let first = reader.nodes_with_label("Person").unwrap().count();
        assert_eq!(first, 5);

        // A concurrent transaction inserts two more matching nodes and
        // deletes one existing one.
        let mut writer = db.begin();
        writer.create_node(&["Person"], &[]).unwrap();
        writer.create_node(&["Person"], &[]).unwrap();
        let victim = writer.nodes_with_label_vec("Person").unwrap()[0];
        writer.remove_label(victim, "Person").unwrap();
        writer.commit().unwrap();

        let second = reader.nodes_with_label("Person").unwrap().count();
        let stable = first == second;
        assert_eq!(
            stable, expect_stable,
            "isolation {isolation}: first={first} second={second}"
        );
        drop(reader);
    }
}

/// Phantoms on a property-value predicate.
#[test]
fn phantom_read_on_property_predicate() {
    let dir = TempDir::new("anom_phantom_prop");
    let db = open(&dir);
    let mut tx = db.begin();
    for _ in 0..3 {
        tx.create_node(&["Account"], &[("balance", PropertyValue::Int(100))])
            .unwrap();
    }
    tx.commit().unwrap();

    let si_reader = db.begin(); // snapshot isolation
    let rc_reader = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    let si_first = si_reader
        .nodes_with_property("balance", &PropertyValue::Int(100))
        .unwrap()
        .count();
    let rc_first = rc_reader
        .nodes_with_property("balance", &PropertyValue::Int(100))
        .unwrap()
        .count();

    let mut writer = db.begin();
    writer
        .create_node(&["Account"], &[("balance", PropertyValue::Int(100))])
        .unwrap();
    writer.commit().unwrap();

    let si_second = si_reader
        .nodes_with_property("balance", &PropertyValue::Int(100))
        .unwrap()
        .count();
    let rc_second = rc_reader
        .nodes_with_property("balance", &PropertyValue::Int(100))
        .unwrap()
        .count();

    assert_eq!(
        si_first, si_second,
        "snapshot isolation must not see phantoms"
    );
    assert_eq!(
        rc_first + 1,
        rc_second,
        "read committed sees the phantom row"
    );
}

/// Write skew: the one anomaly snapshot isolation admits (paper §1/§3).
/// Two transactions each read both accounts (sum = 100, constraint:
/// sum >= 0), then each withdraws 80 from a *different* account. Neither
/// sees the other's write, both commit (they touch disjoint items), and the
/// constraint is violated.
#[test]
fn write_skew_is_admitted_under_snapshot_isolation() {
    let dir = TempDir::new("anom_write_skew");
    let db = open(&dir);
    let mut tx = db.begin();
    let a = tx
        .create_node(&["Account"], &[("balance", PropertyValue::Int(50))])
        .unwrap();
    let b = tx
        .create_node(&["Account"], &[("balance", PropertyValue::Int(50))])
        .unwrap();
    tx.commit().unwrap();

    let read_balance = |txn: &graphsi_core::Transaction, id| -> i64 {
        txn.node_property(id, "balance")
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap()
    };

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    // Both check the invariant balance(a) + balance(b) - 80 >= 0.
    let t1_sum = read_balance(&t1, a) + read_balance(&t1, b);
    let t2_sum = read_balance(&t2, a) + read_balance(&t2, b);
    assert!(t1_sum - 80 >= 0 && t2_sum - 80 >= 0);
    // T1 withdraws from a, T2 from b: disjoint write sets, no write-write
    // conflict, so both commit under SI.
    t1.set_node_property(a, "balance", PropertyValue::Int(50 - 80))
        .unwrap();
    t2.set_node_property(b, "balance", PropertyValue::Int(50 - 80))
        .unwrap();
    t1.commit().expect("t1 commits");
    t2.commit().expect("t2 commits (write skew admitted)");

    let check = db.begin();
    let total = read_balance(&check, a) + read_balance(&check, b);
    assert!(
        total < 0,
        "write skew violated the constraint: total={total}"
    );
}

/// Materialising the constraint removes the write skew: when both
/// withdrawals also write a shared guard node their write sets overlap,
/// so the second one is a write-write conflict and the constraint holds.
#[test]
fn write_skew_vanishes_when_both_write_a_shared_guard() {
    let dir = TempDir::new("anom_write_skew_guarded");
    let db = open(&dir);
    let mut tx = db.begin();
    let a = tx
        .create_node(&["Account"], &[("balance", PropertyValue::Int(50))])
        .unwrap();
    let b = tx
        .create_node(&["Account"], &[("balance", PropertyValue::Int(50))])
        .unwrap();
    let guard = tx
        .create_node(&["Guard"], &[("version", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let read_balance = |txn: &graphsi_core::Transaction, id| -> i64 {
        txn.node_property(id, "balance")
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap()
    };

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    assert!(read_balance(&t1, a) + read_balance(&t1, b) - 80 >= 0);
    assert!(read_balance(&t2, a) + read_balance(&t2, b) - 80 >= 0);
    t1.set_node_property(a, "balance", PropertyValue::Int(50 - 80))
        .unwrap();
    t1.set_node_property(guard, "version", PropertyValue::Int(1))
        .unwrap();
    t1.commit().expect("t1 commits");
    t2.set_node_property(b, "balance", PropertyValue::Int(50 - 80))
        .unwrap();
    assert!(t2
        .set_node_property(guard, "version", PropertyValue::Int(2))
        .unwrap_err()
        .is_conflict());
    drop(t2);

    let check = db.begin();
    let total = read_balance(&check, a) + read_balance(&check, b);
    assert_eq!(total, 50 - 80 + 50, "only t1's withdrawal took effect");
}

/// The same workload with both withdrawals hitting the same account is a
/// write-write conflict and is prevented by first-updater-wins.
#[test]
fn same_account_conflict_is_prevented() {
    let dir = TempDir::new("anom_same_account");
    let db = open(&dir);
    let mut tx = db.begin();
    let a = tx
        .create_node(&["Account"], &[("balance", PropertyValue::Int(100))])
        .unwrap();
    tx.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.set_node_property(a, "balance", PropertyValue::Int(20))
        .unwrap();
    assert!(t2
        .set_node_property(a, "balance", PropertyValue::Int(20))
        .unwrap_err()
        .is_conflict());
    t1.commit().unwrap();

    let check = db.begin();
    assert_eq!(
        check.node_property(a, "balance").unwrap(),
        Some(PropertyValue::Int(20))
    );
}

/// Friends-of-friends (the two-step query) remains stable within an SI
/// transaction even while the neighbourhood churns.
#[test]
fn friends_of_friends_is_stable_under_si() {
    let dir = TempDir::new("anom_fof");
    let db = open(&dir);
    let mut tx = db.begin();
    let me = tx.create_node(&["Person"], &[]).unwrap();
    let mut friends = Vec::new();
    for _ in 0..4 {
        let f = tx.create_node(&["Person"], &[]).unwrap();
        tx.create_relationship(me, f, "KNOWS", &[]).unwrap();
        friends.push(f);
    }
    let mut fofs = Vec::new();
    for &f in &friends {
        let fof = tx.create_node(&["Person"], &[]).unwrap();
        tx.create_relationship(f, fof, "KNOWS", &[]).unwrap();
        fofs.push(fof);
    }
    tx.commit().unwrap();

    let reader = db.begin();
    let before = traversal::friends_of_friends(&reader, me).unwrap();
    assert_eq!(before.len(), 4);

    // Concurrently add and remove friend-of-friend edges.
    let mut writer = db.begin();
    let extra = writer.create_node(&["Person"], &[]).unwrap();
    writer
        .create_relationship(friends[0], extra, "KNOWS", &[])
        .unwrap();
    let doomed_rels = writer.relationships_vec(fofs[1], Direction::Both).unwrap();
    for rel in doomed_rels {
        writer.delete_relationship(rel.id).unwrap();
    }
    writer.commit().unwrap();

    let after = traversal::friends_of_friends(&reader, me).unwrap();
    assert_eq!(before, after, "SI keeps the two-step result stable");
    drop(reader);

    let fresh = db.begin();
    let latest = traversal::friends_of_friends(&fresh, me).unwrap();
    assert_ne!(before, latest, "a fresh snapshot observes the changes");
}
