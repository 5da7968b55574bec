//! A guided tour of the layers in Figure 1 of the paper, as reproduced by
//! this workspace: record stores + WAL at the bottom, the transaction
//! substrate and the MVCC object cache in the middle, versioned indexes and
//! the transaction API on top.
//!
//! ```text
//! cargo run -p graphsi-core --example architecture_tour
//! ```

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, Direction, GraphDb, PropertyValue, Result, SyncPolicy};

fn main() -> Result<()> {
    let dir = TempDir::new("architecture_tour");
    let config = DbConfig::default().with_sync_policy(SyncPolicy::Always);
    let db = GraphDb::open(dir.path(), config)?;
    println!("=== graphsi architecture tour (paper Figure 1) ===\n");

    // Layer 1: record stores + WAL -----------------------------------------
    println!("[storage] store directory: {}", dir.path().display());
    let mut tx = db.begin();
    let a = tx.create_node(&["Person"], &[("name", PropertyValue::from("Ada"))])?;
    let b = tx.create_node(&["Person"], &[("name", PropertyValue::from("Bert"))])?;
    tx.create_relationship(a, b, "KNOWS", &[])?;
    tx.commit()?;
    let store_stats = db.store_stats();
    println!(
        "[storage] node records: {}, relationship records: {}, record writes so far: {}",
        store_stats.node_high_id,
        store_stats.relationship_high_id,
        store_stats.total_record_writes()
    );
    for file in ["nodes.db", "relationships.db", "properties.db"] {
        let len = std::fs::metadata(dir.path().join(file))
            .map(|m| m.len())
            .unwrap_or(0);
        println!("[storage]   {file}: {len} bytes");
    }
    let metrics = db.metrics();
    println!(
        "[storage]   wal/: {} segment(s), {} retained bytes",
        metrics.wal_segments_created + 1 - metrics.wal_segments_deleted,
        metrics.wal_retained_bytes
    );

    // Layer 2: the versioned object cache ----------------------------------
    let old_snapshot = db.begin();
    let mut tx = db.begin();
    tx.set_node_property(a, "name", PropertyValue::from("Ada Lovelace"))?;
    tx.commit()?;
    let cache = db.node_cache_stats();
    println!(
        "\n[object cache] chains: {}, versions: {}, base loads from store: {}",
        cache.chains, cache.versions, cache.base_loads
    );
    println!(
        "[object cache] the old snapshot still reads {:?}",
        old_snapshot.node_property(a, "name")?.unwrap()
    );
    drop(old_snapshot);

    // Layer 3: transaction substrate (locks, timestamps, conflicts) --------
    println!(
        "\n[txn] current commit timestamp: {}, active transactions: {}",
        db.current_timestamp(),
        db.active_transactions()
    );
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.set_node_property(a, "touched", PropertyValue::Bool(true))?;
    let conflict = t2.set_node_property(a, "touched", PropertyValue::Bool(false));
    println!(
        "[txn] first-updater-wins: second writer got a conflict: {}",
        conflict.is_err()
    );
    drop(t2);
    t1.commit()?;
    println!("[txn] lock-manager stats: {:?}", db.lock_stats());

    // Layer 4: versioned indexes --------------------------------------------
    let tx = db.begin();
    let mut people: Vec<_> = tx.nodes_with_label("Person")?.collect::<Result<_>>()?;
    people.sort();
    println!("\n[index] nodes with label Person: {people:?}");
    let mut berts: Vec<_> = tx
        .nodes_with_property("name", &PropertyValue::from("Bert"))?
        .collect::<Result<_>>()?;
    berts.sort();
    println!("[index] nodes with name = \"Bert\": {berts:?}");
    drop(tx);

    // Layer 5: garbage collection -------------------------------------------
    let gc = db.run_gc();
    println!(
        "\n[gc] threaded run examined {} versions, reclaimed {}, dropped {} chains, reclaimed {} index postings",
        gc.versions_examined, gc.versions_reclaimed, gc.chains_dropped, gc.index_postings_reclaimed
    );

    // Layer 6: durability ----------------------------------------------------
    db.checkpoint()?;
    let m = db.metrics();
    println!(
        "\n[wal] fuzzy checkpoint done: epoch {}, {} page(s) flushed, {} segment(s) released",
        m.checkpoint_epochs, m.checkpoint_pages_flushed, m.wal_segments_deleted
    );
    drop(db);
    let reopened = GraphDb::open(dir.path(), DbConfig::default())?;
    let tx = reopened.begin();
    println!(
        "[recovery] after reopen, Ada is still {:?} and knows {} people",
        tx.node_property(a, "name")?.unwrap(),
        tx.degree(a, Direction::Both)?
    );
    println!("\n=== tour complete ===");
    Ok(())
}
