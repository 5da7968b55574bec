//! Quickstart: open a database, write a tiny graph, read it back under
//! snapshot isolation.
//!
//! ```text
//! cargo run -p graphsi-core --example quickstart
//! ```

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, Direction, GraphDb, PropertyValue, Result};

fn main() -> Result<()> {
    // A throw-away directory by default; pass a path as the first
    // argument to keep the store (CI seeds the `graphsi-admin verify`
    // gate this way).
    let arg_dir = std::env::args().nth(1);
    let dir = TempDir::new("quickstart");
    let store_path = arg_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| dir.path().to_path_buf());
    let db = GraphDb::open(&store_path, DbConfig::default())?;

    // --- Write transaction -------------------------------------------------
    let mut tx = db.begin();
    let alice = tx.create_node(
        &["Person"],
        &[
            ("name", PropertyValue::from("Alice")),
            ("age", PropertyValue::Int(34)),
        ],
    )?;
    let bob = tx.create_node(
        &["Person"],
        &[
            ("name", PropertyValue::from("Bob")),
            ("age", PropertyValue::Int(29)),
        ],
    )?;
    let acme = tx.create_node(&["Company"], &[("name", PropertyValue::from("ACME"))])?;
    tx.create_relationship(alice, bob, "KNOWS", &[("since", PropertyValue::Int(2016))])?;
    tx.create_relationship(alice, acme, "WORKS_AT", &[])?;
    tx.create_relationship(bob, acme, "WORKS_AT", &[])?;
    let commit_ts = tx.commit()?;
    println!("committed the seed graph at timestamp {commit_ts}");

    // --- Read-only transaction (a stable snapshot, zero lock-manager calls)
    let tx = db.txn().read_only().begin();
    let mut people: Vec<_> = tx.nodes_with_label("Person")?.collect::<Result<_>>()?;
    people.sort();
    println!("{} people in the snapshot", people.len());
    for id in people {
        let node = tx.get_node(id)?.expect("node visible");
        println!(
            "  {} (age {})",
            node.property("name").unwrap(),
            node.property("age").unwrap()
        );
    }
    // Lazy iterator: colleagues stream out of the snapshot one at a time.
    let colleagues = tx.neighbors(acme, Direction::Incoming)?.count();
    println!("{colleagues} people work at ACME");
    drop(tx);

    // --- Snapshot stability demo -------------------------------------------
    let reader = db.begin();
    let before = reader.node_property(alice, "age")?;
    let mut writer = db.begin();
    writer.set_node_property(alice, "age", PropertyValue::Int(35))?;
    writer.commit()?;
    let after = reader.node_property(alice, "age")?;
    println!(
        "reader snapshot: age before concurrent update = {:?}, after = {:?} (unchanged)",
        before.unwrap(),
        after.unwrap()
    );
    drop(reader);

    let fresh = db.begin();
    println!(
        "a fresh transaction sees the new age: {:?}",
        fresh.node_property(alice, "age")?.unwrap()
    );

    println!("metrics: {:?}", db.metrics());
    Ok(())
}
