//! The paper's motivating example, live: a two-step graph algorithm runs
//! while the graph is being modified. Under read committed the second step
//! can observe a different graph than the first; under snapshot isolation
//! both steps see the same snapshot.
//!
//! ```text
//! cargo run -p graphsi-core --example traversal_consistency
//! ```

use graphsi_core::test_support::TempDir;
use graphsi_core::{
    traversal, DbConfig, Direction, GraphDb, IsolationLevel, NodeId, PropertyValue, Result,
};

/// Builds a hub with `spokes` spokes, each spoke having one leaf.
fn build(db: &GraphDb, spokes: usize) -> Result<(NodeId, Vec<NodeId>)> {
    let mut tx = db.begin();
    let hub = tx.create_node(&["Hub"], &[("name", PropertyValue::from("hub"))])?;
    let mut mids = Vec::new();
    for i in 0..spokes {
        let mid = tx.create_node(&["Mid"], &[("i", PropertyValue::Int(i as i64))])?;
        let leaf = tx.create_node(&["Leaf"], &[])?;
        tx.create_relationship(hub, mid, "LINK", &[])?;
        tx.create_relationship(mid, leaf, "LINK", &[])?;
        mids.push(mid);
    }
    tx.commit()?;
    Ok((hub, mids))
}

fn run(isolation: IsolationLevel) -> Result<()> {
    let dir = TempDir::new("traversal_consistency");
    let db = GraphDb::open(dir.path(), DbConfig::default())?;
    let (hub, mids) = build(&db, 6)?;

    let reader = db.txn().isolation(isolation).begin();
    // Step one of the algorithm: enumerate the two-hop neighbourhood.
    let step_one = traversal::bfs(&reader, hub, 2)?;

    // Concurrent modification between the two steps: one middle node is
    // disconnected and removed.
    let mut vandal = db.begin();
    let victim = mids[2];
    let rels: Vec<_> = vandal
        .relationships(victim, Direction::Both)?
        .collect::<Result<_>>()?;
    for rel in rels {
        vandal.delete_relationship(rel.id)?;
    }
    vandal.delete_node(victim)?;
    vandal.commit()?;

    // Step two: walk the paths found in step one.
    let step_two = traversal::bfs(&reader, hub, 2)?;
    let mut broken_paths = 0usize;
    for &node in &step_one {
        if !reader.node_exists(node)? {
            broken_paths += 1;
        }
    }
    println!("--- {isolation} ---");
    println!("  step one visited {} nodes", step_one.len());
    println!("  step two visited {} nodes", step_two.len());
    println!(
        "  traversal repeatable: {}",
        if step_one == step_two {
            "yes"
        } else {
            "NO (unrepeatable read)"
        }
    );
    println!("  nodes from step one that vanished before step two: {broken_paths}");
    drop(reader);

    let fresh = db.begin();
    println!(
        "  a fresh snapshot sees {} nodes in the two-hop neighbourhood\n",
        traversal::bfs(&fresh, hub, 2)?.len()
    );
    Ok(())
}

fn main() -> Result<()> {
    run(IsolationLevel::ReadCommitted)?;
    run(IsolationLevel::SnapshotIsolation)?;
    println!("Snapshot isolation keeps multi-step graph algorithms consistent;");
    println!("read committed lets the graph change under their feet (paper §1).");
    Ok(())
}
