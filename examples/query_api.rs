//! The streaming query API, end to end: label/property matches, filters,
//! pushed-down range predicates, multi-hop expansion, `distinct`, `limit`,
//! row projection, and the bounded-memory guarantee of the chunked
//! cursors.
//!
//! ```text
//! cargo run --example query_api
//! ```

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, Direction, GraphDb, PropertyValue, Result};

fn main() -> Result<()> {
    let dir = TempDir::new("query_api");
    // A small chunk size to make the bounded-buffering guarantee visible
    // in the metrics below (the default is 256).
    let db = GraphDb::open(dir.path(), DbConfig::default().with_scan_chunk_size(8))?;

    // --- Seed: people in cities, employed by companies -------------------
    let mut tx = db.begin();
    let cities: Vec<_> = ["Madrid", "Lisbon"]
        .iter()
        .map(|name| tx.create_node(&["City"], &[("name", PropertyValue::from(*name))]))
        .collect::<Result<_>>()?;
    let acme = tx.create_node(&["Company"], &[("name", PropertyValue::from("ACME"))])?;
    let mut people = Vec::new();
    for i in 0..100i64 {
        let person = tx.create_node(
            &["Person"],
            &[("age", PropertyValue::Int(20 + (i * 7) % 40))],
        )?;
        tx.create_relationship(person, cities[(i % 2) as usize], "LIVES_IN", &[])?;
        if i % 3 == 0 {
            tx.create_relationship(person, acme, "WORKS_AT", &[])?;
        }
        people.push(person);
    }
    for pair in people.windows(2) {
        tx.create_relationship(pair[0], pair[1], "KNOWS", &[])?;
    }
    tx.commit()?;

    // --- The fluent pipeline, streaming from a read-only snapshot --------
    let tx = db.txn().read_only().begin();

    // Where do ACME's thirty-somethings live?
    let homes = tx
        .query()
        .nodes_with_label("Person")
        .filter_property("age", |v| v.as_int().is_some_and(|a| (30..40).contains(&a)))
        .filter(|tx, id| {
            // Arbitrary snapshot reads compose with the pipeline.
            Ok(tx
                .query()
                .start_nodes([id])
                .expand(Direction::Outgoing, Some("WORKS_AT"))
                .count()?
                > 0)
        })
        .expand(Direction::Outgoing, Some("LIVES_IN"))
        .distinct()
        .nodes()?;
    println!("ACME's thirty-somethings live in {} cities:", homes.len());
    for city in &homes {
        println!("  {}", city.property("name").unwrap());
    }

    // Two-hop KNOWS expansion with a limit: the upstream cursors stop
    // refilling the moment the limit is hit.
    let reach = tx
        .query()
        .start_nodes([people[0]])
        .expand(Direction::Both, Some("KNOWS"))
        .expand(Direction::Both, Some("KNOWS"))
        .distinct()
        .limit(5)
        .ids()?;
    println!("first 5 nodes within two KNOWS hops: {reach:?}");

    // Range predicates push down into the versioned index: `25 <= age < 35`
    // runs as a range-postings scan, never decoding candidate properties.
    let pushdowns_before = db.metrics().predicate_pushdowns;
    let decodes_before = db.metrics().property_decodes;
    let mid_twenties = tx
        .query()
        .filter_property_range("age", PropertyValue::Int(25)..PropertyValue::Int(35))
        .count()?;
    let metrics = db.metrics();
    println!(
        "{mid_twenties} people aged [25, 35) via the index ({} pushdown, {} decodes)",
        metrics.predicate_pushdowns - pushdowns_before,
        metrics.property_decodes - decodes_before,
    );
    assert!(metrics.predicate_pushdowns > pushdowns_before);
    assert_eq!(metrics.property_decodes, decodes_before);

    // Row terminals: the traversed relationship plus projected properties,
    // decoded once per row at the last stage.
    let rows = tx
        .query()
        .filter_property_range("age", PropertyValue::Int(55)..)
        .expand(Direction::Outgoing, Some("LIVES_IN"))
        .project(["name"])
        .rows()?;
    for row in rows.iter().take(3) {
        println!(
            "node {:?} reached via rel {:?}, lives in {}",
            row.node,
            row.rel,
            row.property("name").unwrap()
        );
    }

    // The bounded-memory evidence: hundreds of candidates were scanned,
    // but no cursor refill ever buffered more than one chunk of IDs.
    let metrics = db.metrics();
    println!(
        "chunk refills: {}, peak candidate ids buffered: {} (chunk size 8)",
        metrics.chunk_refills, metrics.candidate_buffer_peak
    );
    assert!(metrics.candidate_buffer_peak <= 8);
    Ok(())
}
