//! Multi-threaded integration tests: lost-update prevention with retries,
//! disjoint writers, reader/writer independence under SI, and blocking
//! behaviour under read committed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, GraphDb, IsolationLevel, NodeId, PropertyValue, SyncPolicy};

fn open(dir: &TempDir) -> Arc<GraphDb> {
    Arc::new(
        GraphDb::open(
            dir.path(),
            DbConfig::default().with_sync_policy(SyncPolicy::OnDemand),
        )
        .unwrap(),
    )
}

fn read_counter(db: &GraphDb, node: NodeId) -> i64 {
    let tx = db.begin();
    tx.node_property(node, "value")
        .unwrap()
        .unwrap()
        .as_int()
        .unwrap()
}

/// Concurrent increments on one hot node with retry-on-conflict: no update
/// may be lost (SI write-write conflict detection guarantees this).
#[test]
fn concurrent_increments_with_retries_lose_no_updates() {
    let dir = TempDir::new("conc_increments");
    let db = open(&dir);
    let mut tx = db.begin();
    let counter = tx
        .create_node(&["Counter"], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let threads = 4;
    let increments_per_thread = 25;
    let aborts = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        let aborts = Arc::clone(&aborts);
        handles.push(std::thread::spawn(move || {
            for _ in 0..increments_per_thread {
                loop {
                    let mut tx = db.begin();
                    let current = match tx.node_property(counter, "value") {
                        Ok(Some(PropertyValue::Int(v))) => v,
                        _ => {
                            drop(tx);
                            continue;
                        }
                    };
                    match tx.set_node_property(counter, "value", PropertyValue::Int(current + 1)) {
                        Ok(()) => {}
                        Err(e) if e.is_conflict() => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                    match tx.commit() {
                        Ok(_) => break,
                        Err(e) if e.is_conflict() => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(e) => panic!("unexpected commit error: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        read_counter(&db, counter),
        (threads * increments_per_thread) as i64,
        "no increment may be lost (aborts retried: {})",
        aborts.load(Ordering::Relaxed)
    );
}

/// Writers touching disjoint nodes never conflict and all commits land.
#[test]
fn disjoint_writers_do_not_conflict() {
    let dir = TempDir::new("conc_disjoint");
    let db = open(&dir);
    let mut tx = db.begin();
    let nodes: Vec<NodeId> = (0..8)
        .map(|i| {
            tx.create_node(&["Slot"], &[("value", PropertyValue::Int(i))])
                .unwrap()
        })
        .collect();
    tx.commit().unwrap();

    let mut handles = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for round in 0..20i64 {
                let mut tx = db.begin();
                tx.set_node_property(node, "value", PropertyValue::Int(i as i64 * 1000 + round))
                    .unwrap();
                tx.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.metrics().conflict_aborts, 0);
    let tx = db.begin();
    for (i, &node) in nodes.iter().enumerate() {
        assert_eq!(
            tx.node_property(node, "value").unwrap(),
            Some(PropertyValue::Int(i as i64 * 1000 + 19))
        );
    }
}

/// Under snapshot isolation, a long-running reader holding an old snapshot
/// never blocks writers and always observes its original state.
#[test]
fn long_reader_never_blocks_writers_under_si() {
    let dir = TempDir::new("conc_long_reader");
    let db = open(&dir);
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let reader = db.begin();
    assert_eq!(
        reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(0))
    );

    // 20 sequential writer transactions from another thread, all while the
    // reader stays open. None of them may block or fail.
    let writer_db = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        for i in 1..=20i64 {
            let mut tx = writer_db.begin();
            tx.set_node_property(node, "value", PropertyValue::Int(i))
                .unwrap();
            tx.commit().unwrap();
        }
    });
    writer.join().unwrap();

    // The reader's snapshot is untouched.
    assert_eq!(
        reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(0))
    );
    drop(reader);
    assert_eq!(read_counter(&db, node), 20);
    // The version chain grew while the reader pinned the watermark.
    assert!(db.node_cache_stats().versions >= 2);
}

/// Under read committed, a reader blocks while a writer holds the long
/// write lock on the entity it wants to read (writers block readers — the
/// behaviour SI removes).
#[test]
fn rc_readers_block_on_writers() {
    let dir = TempDir::new("conc_rc_block");
    let db = Arc::new(
        GraphDb::open(
            dir.path(),
            DbConfig::read_committed().with_lock_timeout(Duration::from_millis(150)),
        )
        .unwrap(),
    );
    let mut tx = db.begin();
    let node = tx
        .create_node(&[], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    // Writer takes the long write lock and keeps the transaction open.
    let mut writer = db.begin();
    writer
        .set_node_property(node, "value", PropertyValue::Int(1))
        .unwrap();

    // An RC reader now times out trying to take its short read lock.
    let reader = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    let err = reader.node_property(node, "value").unwrap_err();
    assert!(err.is_conflict(), "expected a lock timeout, got {err}");
    drop(reader);

    // An SI reader is not affected at all.
    let si_reader = db
        .txn()
        .isolation(IsolationLevel::SnapshotIsolation)
        .begin();
    assert_eq!(
        si_reader.node_property(node, "value").unwrap(),
        Some(PropertyValue::Int(0))
    );
    drop(si_reader);

    writer.commit().unwrap();
    assert!(db.lock_stats().timeouts >= 1);
}

/// Mixed concurrent graph construction: many threads adding nodes and
/// relationships around a shared hub (retrying on conflicts) produce a
/// consistent graph.
#[test]
fn concurrent_graph_construction_is_consistent() {
    let dir = TempDir::new("conc_build");
    let db = open(&dir);
    let mut tx = db.begin();
    let hub = tx.create_node(&["Hub"], &[]).unwrap();
    tx.commit().unwrap();

    let threads = 4;
    let per_thread = 10;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut created = 0;
            while created < per_thread {
                let mut tx = db.begin();
                let spoke =
                    match tx.create_node(&["Spoke"], &[("thread", PropertyValue::Int(t as i64))]) {
                        Ok(n) => n,
                        Err(_) => continue,
                    };
                // Creating a relationship locks the hub; concurrent
                // creators may lose the first-updater race and retry.
                match tx.create_relationship(hub, spoke, "SPOKE", &[]) {
                    Ok(_) => {}
                    Err(e) if e.is_conflict() => continue,
                    Err(e) => panic!("unexpected: {e}"),
                }
                match tx.commit() {
                    Ok(_) => created += 1,
                    Err(e) if e.is_conflict() => continue,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let tx = db.begin();
    let expected = threads * per_thread;
    assert_eq!(
        tx.degree(hub, graphsi_core::Direction::Both).unwrap(),
        expected
    );
    assert_eq!(tx.nodes_with_label("Spoke").unwrap().count(), expected);
}

/// Read-committed lost-update demonstration is prevented because writers
/// block each other via long write locks and the second write then aborts
/// or waits; combined with retries the counter stays exact.
#[test]
fn rc_counter_with_retries_is_exact() {
    let dir = TempDir::new("conc_rc_counter");
    let db = Arc::new(
        GraphDb::open(
            dir.path(),
            DbConfig::read_committed().with_lock_timeout(Duration::from_millis(500)),
        )
        .unwrap(),
    );
    let mut tx = db.begin();
    let counter = tx
        .create_node(&["Counter"], &[("value", PropertyValue::Int(0))])
        .unwrap();
    tx.commit().unwrap();

    let threads = 3;
    let per_thread = 10;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..per_thread {
                loop {
                    let mut tx = db.begin();
                    // Acquire the write lock first (select-for-update
                    // style) so the read-modify-write is atomic under RC.
                    match tx.set_node_property(counter, "touch", PropertyValue::Bool(true)) {
                        Ok(()) => {}
                        Err(e) if e.is_conflict() => continue,
                        Err(e) => panic!("unexpected: {e}"),
                    }
                    let v = tx
                        .node_property(counter, "value")
                        .unwrap()
                        .unwrap()
                        .as_int()
                        .unwrap();
                    tx.set_node_property(counter, "value", PropertyValue::Int(v + 1))
                        .unwrap();
                    match tx.commit() {
                        Ok(_) => break,
                        Err(e) if e.is_conflict() => continue,
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(read_counter(&db, counter), (threads * per_thread) as i64);
}

/// Everything one snapshot reads about a node: its properties, one of them
/// again through the single-key path, its relationships with their
/// properties, its neighbours and its two-hop expansion.
struct Observation {
    properties: Vec<(String, PropertyValue)>,
    first: Option<PropertyValue>,
    rels: Vec<(graphsi_core::RelationshipId, Vec<(String, PropertyValue)>)>,
    neighbors: Vec<NodeId>,
    two_hop: Vec<NodeId>,
}

fn observe(tx: &graphsi_core::Transaction, node: NodeId) -> Observation {
    use graphsi_core::Direction;
    let properties: Vec<_> = tx
        .get_node(node)
        .unwrap()
        .expect("hot nodes are never deleted")
        .properties
        .into_iter()
        .collect();
    let mut rels: Vec<_> = tx
        .relationships(node, Direction::Both)
        .unwrap()
        .map(|r| {
            let r = r.unwrap();
            (r.id, r.properties.into_iter().collect::<Vec<_>>())
        })
        .collect();
    rels.sort_by_key(|(id, _)| *id);
    let mut neighbors = tx.neighbors_vec(node, Direction::Both).unwrap();
    neighbors.sort();
    let mut two_hop = tx
        .query()
        .start_nodes([node])
        .expand(Direction::Both, Some("LINK"))
        .expand(Direction::Both, Some("LINK"))
        .ids()
        .unwrap();
    two_hop.sort();
    Observation {
        properties,
        first: tx.node_property(node, "p0").unwrap(),
        rels,
        neighbors,
        two_hop,
    }
}

/// One commit writes the same counter into every property of an entity,
/// so a payload read that mixes two versions shows unequal values.
fn assert_untorn(what: &str, properties: &[(String, PropertyValue)]) {
    let counters: Vec<&PropertyValue> = properties
        .iter()
        .filter(|(k, _)| k.starts_with('p'))
        .map(|(_, v)| v)
        .collect();
    assert!(
        counters.windows(2).all(|w| w[0] == w[1]),
        "{what} mixes versions: {properties:?}"
    );
}

/// The validated store read under fire. A property cache of two pages
/// and a GC every few milliseconds send most reads to the store while
/// writers keep rewriting the same few nodes and relationships, each
/// commit stamping one counter into all of an entity's properties.
/// Read-only snapshots read every entity twice — `get_node`,
/// `node_property`, `relationships`, `neighbors` and a two-hop `expand` —
/// and each re-read must equal the first. A store read that trusted a
/// record header loaded before a concurrent apply rewrote the chain would
/// hand a later commit's values to an older snapshot, and a re-read
/// (served from the cache once the apply finished) would disagree.
#[test]
fn snapshot_rereads_agree_while_store_payloads_are_rewritten() {
    const NODES: usize = 6;
    const PROPS: usize = 12;
    const RUN: Duration = Duration::from_millis(1500);
    let _watchdog = graphsi_core::test_support::Watchdog::arm(
        "snapshot_rereads_agree",
        Duration::from_secs(120),
    );
    let dir = TempDir::new("conc_validated_reads");
    let db = Arc::new(
        GraphDb::open(
            dir.path(),
            DbConfig::default()
                .with_sync_policy(SyncPolicy::OnDemand)
                .with_cache_pages_per_store(2),
        )
        .unwrap(),
    );
    let keys: Vec<String> = (0..PROPS).map(|i| format!("p{i}")).collect();
    let counter = Arc::new(AtomicU64::new(1));
    let props = |c: i64| -> Vec<(&str, PropertyValue)> {
        keys.iter()
            .map(|k| (k.as_str(), PropertyValue::Int(c)))
            .collect()
    };
    let mut tx = db.begin();
    let nodes: Vec<NodeId> = (0..NODES)
        .map(|_| tx.create_node(&["Hot"], &props(0)).unwrap())
        .collect();
    let rels: Vec<_> = (0..NODES)
        .map(|i| {
            tx.create_relationship(nodes[i], nodes[(i + 1) % NODES], "LINK", &props(0))
                .unwrap()
        })
        .collect();
    // Cold filler spreads the property store over many more pages than
    // the cache holds.
    for i in 0..400 {
        tx.create_node(&["Cold"], &props(-i)).unwrap();
    }
    tx.commit().unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..2usize {
        let (db, stop, counter) = (Arc::clone(&db), Arc::clone(&stop), Arc::clone(&counter));
        let (nodes, rels, keys) = (nodes.clone(), rels.clone(), keys.clone());
        handles.push(std::thread::spawn(move || {
            let mut i = w;
            while !stop.load(Ordering::Relaxed) {
                let c = counter.fetch_add(1, Ordering::Relaxed) as i64;
                let (node, rel) = (nodes[i % NODES], rels[i % NODES]);
                db.write_with_retry(|tx| {
                    for k in &keys {
                        tx.set_node_property(node, k, PropertyValue::Int(c))?;
                        tx.set_relationship_property(rel, k, PropertyValue::Int(c))?;
                    }
                    Ok(())
                })
                .unwrap();
                i += 2;
            }
        }));
    }
    {
        let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.run_gc();
                std::thread::sleep(Duration::from_millis(3));
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..2 {
        let (db, stop, nodes) = (Arc::clone(&db), Arc::clone(&stop), nodes.clone());
        readers.push(std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let tx = db.txn().read_only().begin();
                let first: Vec<Observation> = nodes.iter().map(|&n| observe(&tx, n)).collect();
                for (&node, seen) in nodes.iter().zip(&first) {
                    assert_untorn("node", &seen.properties);
                    for (_, rel_props) in &seen.rels {
                        assert_untorn("relationship", rel_props);
                    }
                    assert_eq!(
                        seen.first.as_ref(),
                        seen.properties
                            .iter()
                            .find(|(k, _)| k == "p0")
                            .map(|(_, v)| v)
                    );
                    let again = observe(&tx, node);
                    assert_eq!(again.properties, seen.properties, "properties of {node}");
                    assert_eq!(again.first, seen.first, "node_property of {node}");
                    assert_eq!(again.rels, seen.rels, "relationships of {node}");
                    assert_eq!(again.neighbors, seen.neighbors, "neighbors of {node}");
                    assert_eq!(again.two_hop, seen.two_hop, "two hops from {node}");
                }
                snapshots += 1;
            }
            snapshots
        }));
    }
    std::thread::sleep(RUN);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let snapshots: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(snapshots > 0);
    assert!(
        counter.load(Ordering::Relaxed) > 10,
        "writers made no progress"
    );
}
