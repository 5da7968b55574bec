//! Cursor chunk-boundary integration tests: a reader paging through index
//! postings and relationship chains while concurrent writers commit and
//! the garbage collector runs. The invariants, per the paper's snapshot
//! rules:
//!
//! * **no phantoms below the snapshot** — entities committed after the
//!   reader's start timestamp never appear, no matter where a chunk
//!   boundary falls;
//! * **no lost entries above the watermark** — entities visible to the
//!   reader survive GC (the watermark is at or below every active start
//!   timestamp) and are delivered even when GC compacts the structures a
//!   cursor is parked in;
//! * both hold across chunk sizes 1, 2 and the default.

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, Direction, GraphDb, NodeId, PropertyValue, Transaction};

const CHUNK_SIZES: &[usize] = &[1, 2, DbConfig::DEFAULT_SCAN_CHUNK_SIZE];

fn open(dir: &TempDir) -> GraphDb {
    GraphDb::open(dir.path(), DbConfig::default()).unwrap()
}

fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort();
    v
}

/// A reader pages a label scan in single steps while a writer keeps
/// committing new matching nodes and deleting old ones, with GC runs in
/// between. The reader must deliver exactly its snapshot.
#[test]
fn label_scan_pages_through_concurrent_commits_and_gc() {
    for &chunk in CHUNK_SIZES {
        let dir = TempDir::new("cursor_label");
        let db = open(&dir);

        let mut tx = db.begin();
        let seeded: Vec<NodeId> = (0..10)
            .map(|_| tx.create_node(&["Page"], &[]).unwrap())
            .collect();
        tx.commit().unwrap();

        let reader = db.txn().read_only().scan_chunk_size(chunk).begin();
        let mut stream = reader.query().nodes_with_label("Page").stream().unwrap();

        // Pull a few results, then churn: each round deletes one seeded
        // node (tombstoning its posting) and inserts a fresh one (a
        // would-be phantom), then GC reclaims what it can.
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(stream.next().unwrap().unwrap());
        }
        for victim in [seeded[4], seeded[7], seeded[9]] {
            let mut w = db.begin();
            w.delete_node(victim).unwrap();
            w.create_node(&["Page"], &[]).unwrap();
            w.commit().unwrap();
            db.run_gc();
        }
        for id in stream {
            got.push(id.unwrap());
        }

        assert_eq!(
            sorted(got),
            sorted(seeded.clone()),
            "chunk {chunk}: the reader's snapshot is exactly the seed — \
             no phantoms from the inserts, no lost entries from the deletes"
        );
        drop(reader);

        // A fresh snapshot sees the post-churn world: 10 - 3 + 3 nodes.
        let after = db.txn().read_only().begin();
        assert_eq!(after.query().nodes_with_label("Page").count().unwrap(), 10);
    }
}

/// Same discipline for the relationship-chain cursor: the reader pages a
/// hub's relationships while a writer unlinks some (forcing chain-cursor
/// restarts) and attaches new spokes, with GC interleaved.
#[test]
fn rel_chain_pages_through_concurrent_unlink_and_gc() {
    for &chunk in CHUNK_SIZES {
        let dir = TempDir::new("cursor_chain");
        let db = open(&dir);

        let mut tx = db.begin();
        let hub = tx.create_node(&["Hub"], &[]).unwrap();
        let mut rels = Vec::new();
        for _ in 0..10 {
            let spoke = tx.create_node(&["Spoke"], &[]).unwrap();
            rels.push(tx.create_relationship(hub, spoke, "SPOKE", &[]).unwrap());
        }
        tx.commit().unwrap();
        // Collapse version chains so the reader starts from a clean,
        // store-backed world (overlay pruned lazily on first use).
        db.run_gc();

        let reader = db.txn().read_only().scan_chunk_size(chunk).begin();
        let mut iter = reader.relationships(hub, Direction::Both).unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(iter.next().unwrap().unwrap().id);
        }

        // Concurrent writer: delete two not-yet-delivered relationships
        // (the chain is rewired under the parked cursor) and add two new
        // spokes (phantoms for the reader), then GC.
        let mut w = db.begin();
        w.delete_relationship(rels[0]).unwrap();
        w.delete_relationship(rels[5]).unwrap();
        let fresh = w.create_node(&["Spoke"], &[]).unwrap();
        w.create_relationship(hub, fresh, "SPOKE", &[]).unwrap();
        w.commit().unwrap();
        db.run_gc();

        for rel in iter {
            got.push(rel.unwrap().id);
        }
        got.sort();
        got.dedup();
        assert_eq!(
            got.len(),
            rels.len(),
            "chunk {chunk}: reader sees exactly its snapshot's {} spokes \
             (got {:?})",
            rels.len(),
            got
        );
        for rel in &rels {
            assert!(got.contains(rel), "chunk {chunk}: lost {rel:?}");
        }
        drop(reader);

        let after = db.txn().read_only().begin();
        assert_eq!(after.degree(hub, Direction::Both).unwrap(), 9);
    }
}

/// Writer threads keep committing while reader threads page label scans
/// and expansions at tiny chunk sizes with auto-GC enabled: every reader
/// must observe an atomic count (a multiple of the batch size).
#[test]
fn paging_readers_race_writers_and_auto_gc() {
    let dir = TempDir::new("cursor_race");
    let db = GraphDb::open(
        dir.path(),
        DbConfig::default().with_auto_gc(4).with_scan_chunk_size(2),
    )
    .unwrap();

    let mut tx = db.begin();
    let hub = tx.create_node(&["Hub"], &[]).unwrap();
    tx.commit().unwrap();

    const BATCH: usize = 3;
    const ROUNDS: usize = 25;
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                db.write_with_retry(|tx| {
                    for _ in 0..BATCH {
                        let n = tx.create_node(&["Batch"], &[])?;
                        tx.create_relationship(hub, n, "IN", &[])?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..40 {
                    let tx = db.txn().read_only().begin();
                    let labeled = tx.query().nodes_with_label("Batch").count().unwrap();
                    assert_eq!(labeled % BATCH, 0, "a commit must be atomic to a pager");
                    let expanded = tx
                        .query()
                        .start_nodes([hub])
                        .expand(Direction::Outgoing, Some("IN"))
                        .count()
                        .unwrap();
                    assert_eq!(expanded % BATCH, 0);
                    assert_eq!(expanded, labeled, "chain and index agree per snapshot");
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    let tx = db.txn().read_only().begin();
    assert_eq!(
        tx.query().nodes_with_label("Batch").count().unwrap(),
        BATCH * ROUNDS
    );
}

/// The acceptance gauge: a query pipeline over a scan much larger than the
/// chunk size never buffers more than one chunk of candidate IDs at a
/// time, measured by the `candidate_buffer_peak` metrics counter.
#[test]
fn query_peak_candidate_buffering_is_bounded_by_chunk_size() {
    const CHUNK: usize = 8;
    let dir = TempDir::new("cursor_peak");
    let db = GraphDb::open(dir.path(), DbConfig::default().with_scan_chunk_size(CHUNK)).unwrap();

    let mut tx = db.begin();
    let hub = tx.create_node(&["Hub"], &[]).unwrap();
    for i in 0..500 {
        let n = tx
            .create_node(&["Big"], &[("i", PropertyValue::Int(i))])
            .unwrap();
        tx.create_relationship(hub, n, "IN", &[]).unwrap();
    }
    tx.commit().unwrap();

    let tx = db.txn().read_only().begin();
    let count = tx
        .query()
        .nodes_with_label("Big")
        .filter_property("i", |v| v.as_int().is_some_and(|i| i % 2 == 0))
        .expand(Direction::Incoming, Some("IN"))
        .distinct()
        .ids()
        .unwrap();
    assert_eq!(count, vec![hub]);

    // Also drive the whole-graph scans through the same bound.
    assert_eq!(tx.all_nodes().unwrap().count(), 501);
    assert_eq!(tx.all_relationships().unwrap().count(), 500);

    let metrics = db.metrics();
    assert!(metrics.chunk_refills > 0);
    assert!(
        metrics.candidate_buffer_peak <= CHUNK as u64,
        "501-node scans must never buffer more than {CHUNK} candidate IDs \
         per refill (peak was {})",
        metrics.candidate_buffer_peak
    );
}

/// Whole-graph scans page the MVCC cache through sorted per-shard pages
/// with range-resume, so their transient buffering is bounded by the chunk
/// size even under the worst possible shard skew — here a single cache
/// shard holding every key, which used to be copied wholesale and made
/// `shard_key_buffer_peak` scale with the shard instead of the chunk.
#[test]
fn whole_graph_scan_buffering_is_chunk_bounded_under_shard_skew() {
    const CHUNK: usize = 4;
    const NODES: i64 = 200;
    let dir = TempDir::new("cursor_skewed_shard");
    let config = DbConfig {
        cache_shards: 1, // maximum skew: every cached key in one shard
        ..DbConfig::default().with_scan_chunk_size(CHUNK)
    };
    let db = GraphDb::open(dir.path(), config).unwrap();

    let mut tx = db.begin();
    for i in 0..NODES {
        tx.create_node(&["Skew"], &[("i", PropertyValue::Int(i))])
            .unwrap();
    }
    tx.commit().unwrap();

    // Delete half of the nodes under a pinned old snapshot, so the cache
    // stage of the scan has real work: the deleted nodes' versions live
    // only in the (single-shard) cache.
    let old_reader = db.txn().read_only().begin();
    let mut tx = db.begin();
    let victims: Vec<NodeId> = old_reader
        .all_nodes_vec()
        .unwrap()
        .into_iter()
        .step_by(2)
        .collect();
    for &victim in &victims {
        tx.delete_node(victim).unwrap();
    }
    tx.commit().unwrap();

    assert_eq!(old_reader.all_nodes().unwrap().count(), NODES as usize);
    let fresh = db.txn().read_only().begin();
    assert_eq!(
        fresh.all_nodes().unwrap().count(),
        NODES as usize - victims.len()
    );

    let metrics = db.metrics();
    assert!(metrics.shard_key_buffer_peak > 0, "the cache stage ran");
    assert!(
        metrics.shard_key_buffer_peak <= CHUNK as u64,
        "a {NODES}-key single-shard cache must page in chunks of {CHUNK} \
         (peak was {})",
        metrics.shard_key_buffer_peak
    );
}

/// Paging is equivalent across chunk sizes for every read surface: label
/// scan, property scan, whole-graph scans, expansion and traversal.
#[test]
fn every_read_surface_is_chunk_size_invariant() {
    let dir = TempDir::new("cursor_invariant");
    let db = open(&dir);
    let mut tx = db.begin();
    let hub = tx
        .create_node(&["N"], &[("k", PropertyValue::Int(1))])
        .unwrap();
    for i in 0..17 {
        let n = tx
            .create_node(&["N"], &[("k", PropertyValue::Int(i % 4))])
            .unwrap();
        tx.create_relationship(hub, n, "E", &[]).unwrap();
    }
    tx.commit().unwrap();

    let snapshot = |tx: &Transaction| {
        (
            tx.nodes_with_label_vec("N").unwrap(),
            tx.nodes_with_property_vec("k", &PropertyValue::Int(1))
                .unwrap(),
            tx.all_nodes_vec().unwrap(),
            tx.all_relationships_vec().unwrap(),
            tx.neighbors_vec(hub, Direction::Both).unwrap(),
            graphsi_core::traversal::bfs(tx, hub, 3).unwrap(),
        )
    };
    let baseline = {
        let tx = db.txn().read_only().begin();
        snapshot(&tx)
    };
    for &chunk in CHUNK_SIZES {
        let tx = db.txn().read_only().scan_chunk_size(chunk).begin();
        assert_eq!(snapshot(&tx), baseline, "chunk {chunk}");
    }
}

/// Property-store page requests (hits and misses) so far.
fn property_page_requests(db: &GraphDb) -> u64 {
    let stats = db.store_stats().properties;
    stats.hits + stats.misses
}

/// After a reopen every cache is cold. Existence checks, neighbour walks,
/// degrees and a two-hop expansion decide visibility from the node and
/// relationship records alone, so they request no page of the property
/// store; property reads still fault it in and still see the right values.
#[test]
fn header_only_reads_touch_no_property_page() {
    const SPOKES: usize = 150;
    let dir = TempDir::new("cursor_header_only");
    let config = DbConfig::default().with_cache_pages_per_store(4);
    let (hub, spokes) = {
        let db = GraphDb::open(dir.path(), config.clone()).unwrap();
        let mut tx = db.begin();
        let hub = tx
            .create_node(&["Hub"], &[("name", PropertyValue::from("hub"))])
            .unwrap();
        let spokes: Vec<NodeId> = (0..SPOKES as i64)
            .map(|i| {
                let props = [
                    ("n", PropertyValue::Int(i)),
                    ("tag", PropertyValue::from("x".repeat(64))),
                    ("half", PropertyValue::Int(i / 2)),
                ];
                tx.create_node(&["Spoke"], &props).unwrap()
            })
            .collect();
        for (i, &spoke) in spokes.iter().enumerate() {
            tx.create_relationship(hub, spoke, "SPOKE", &[("i", PropertyValue::Int(i as i64))])
                .unwrap();
            let next = spokes[(i + 1) % SPOKES];
            tx.create_relationship(spoke, next, "RING", &[("w", PropertyValue::Int(1))])
                .unwrap();
        }
        tx.commit().unwrap();
        // A second version of every spoke, so recovery replays updates too.
        let mut tx = db.begin();
        for (i, &spoke) in spokes.iter().enumerate() {
            tx.set_node_property(spoke, "n", PropertyValue::Int(i as i64 * 10))
                .unwrap();
        }
        tx.commit().unwrap();
        db.checkpoint().unwrap();
        (hub, spokes)
    };

    let db = GraphDb::open(dir.path(), config).unwrap();
    let tx = db.txn().read_only().begin();
    let before = property_page_requests(&db);
    assert!(tx.node_exists(hub).unwrap());
    assert!(spokes.iter().all(|&s| tx.node_exists(s).unwrap()));
    assert_eq!(tx.neighbors(hub, Direction::Both).unwrap().count(), SPOKES);
    assert_eq!(tx.degree(hub, Direction::Both).unwrap(), SPOKES);
    assert_eq!(tx.degree(spokes[0], Direction::Both).unwrap(), 3);
    let two_hop = tx
        .query()
        .start_nodes([hub])
        .expand(Direction::Outgoing, Some("SPOKE"))
        .expand(Direction::Outgoing, Some("RING"))
        .distinct()
        .count()
        .unwrap();
    assert_eq!(two_hop, SPOKES);
    assert_eq!(
        property_page_requests(&db),
        before,
        "a header-only read requested a property page"
    );

    for (i, &spoke) in spokes.iter().enumerate() {
        assert_eq!(
            tx.node_property(spoke, "n").unwrap(),
            Some(PropertyValue::Int(i as i64 * 10))
        );
    }
    assert!(db.store_stats().properties.misses > 0);
    assert!(property_page_requests(&db) > before);
}
