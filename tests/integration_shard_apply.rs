//! Per-shard stage-C store apply: commits whose footprints (node pages +
//! relationship chains) are disjoint flush through to the persistent store
//! concurrently, overlapping ones queue per shard — and either way the
//! store ends up exactly as a serial, commit-ts-ordered apply would leave
//! it.
//!
//! The store comparisons run over a checkpointed-then-reopened database:
//! the checkpoint truncates the WAL, so the asserted state comes from the
//! store files alone — a chain splice lost to a shard race could not hide
//! behind recovery replay.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, Direction, GraphDb, NodeId, PropertyValue, SyncPolicy};

fn sharded_config() -> DbConfig {
    DbConfig::default()
        .with_sync_policy(SyncPolicy::OnDemand)
        .with_group_commit_max_batch(16)
        .with_group_commit_max_delay(Duration::from_millis(2))
}

/// One action of a writer's workload, confined to that writer's private
/// node set so footprints across writers are disjoint.
#[derive(Clone, Debug)]
enum Action {
    /// Set a property on the writer's `slot`-th node.
    Set { slot: usize, value: i64 },
    /// Create a relationship between two of the writer's nodes.
    Link { from: usize, to: usize },
    /// Delete the `nth` relationship this writer created (mod the number
    /// created so far; no-op when none exist yet).
    Unlink { nth: usize },
}

const SLOTS: usize = 4;

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0..SLOTS, -100i64..100).prop_map(|(slot, value)| Action::Set { slot, value }),
        3 => (0..SLOTS, 0..SLOTS).prop_map(|(from, to)| Action::Link { from, to }),
        1 => (0..16usize).prop_map(|nth| Action::Unlink { nth }),
    ]
}

/// Runs one writer's actions, one commit per action (the real commit
/// pipeline, including the sharded stage-C apply). Retries on conflicts:
/// writers' *footprints* are disjoint, but freed relationship IDs are
/// reused across writers, so lock-level collisions on recycled IDs can
/// still abort an attempt.
fn run_writer(db: &GraphDb, nodes: &[NodeId], actions: &[Action]) {
    let mut created = Vec::new();
    for action in actions {
        match action {
            Action::Set { slot, value } => db
                .write_with_retry(|tx| {
                    tx.set_node_property(nodes[*slot], "v", PropertyValue::Int(*value))
                })
                .unwrap(),
            Action::Link { from, to } => {
                let rel = db
                    .write_with_retry(|tx| {
                        tx.create_relationship(nodes[*from], nodes[*to], "E", &[])
                    })
                    .unwrap();
                created.push(rel);
            }
            Action::Unlink { nth } => {
                if created.is_empty() {
                    continue; // nothing to delete yet
                }
                let rel = created.remove(nth % created.len());
                db.write_with_retry(|tx| tx.delete_relationship(rel))
                    .unwrap();
            }
        }
    }
}

/// Store state digest, independent of relationship-ID allocation order:
/// per node (identified by a stable seed property) the final value and the
/// sorted multiset of neighbour seeds.
fn store_digest(db: &GraphDb, nodes: &[NodeId]) -> Vec<(i64, Option<i64>, Vec<i64>)> {
    let seed_of: BTreeMap<NodeId, i64> = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as i64))
        .collect();
    let tx = db.txn().read_only().begin();
    let mut out = Vec::new();
    for &node in nodes {
        let value = match tx.node_property(node, "v").unwrap() {
            Some(PropertyValue::Int(v)) => Some(v),
            None => None,
            other => panic!("unexpected value {other:?}"),
        };
        let mut neighbors: Vec<i64> = tx
            .neighbors_vec(node, Direction::Both)
            .unwrap()
            .into_iter()
            .map(|n| seed_of[&n])
            .collect();
        neighbors.sort_unstable();
        out.push((seed_of[&node], value, neighbors));
    }
    out
}

/// Seeds `writers * SLOTS` nodes in one commit and returns them grouped
/// per writer.
fn seed_nodes(db: &GraphDb, writers: usize) -> Vec<Vec<NodeId>> {
    let mut tx = db.begin();
    let groups: Vec<Vec<NodeId>> = (0..writers)
        .map(|_| {
            (0..SLOTS)
                .map(|_| tx.create_node(&["S"], &[]).unwrap())
                .collect()
        })
        .collect();
    tx.commit().unwrap();
    groups
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The tentpole property: for any per-writer action lists, running the
    /// writers concurrently through the sharded stage-C apply leaves the
    /// *persistent store* in exactly the state the same actions produce
    /// when committed serially (which is serial ts-order apply).
    #[test]
    fn concurrent_disjoint_apply_matches_serial_ts_order_apply(
        workloads in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..12), 3)
    ) {
        // Concurrent run: one thread per writer, disjoint node sets.
        let dir_c = TempDir::new("shard_prop_concurrent");
        let concurrent = {
            let db = GraphDb::open(dir_c.path(), sharded_config()).unwrap();
            let groups = seed_nodes(&db, workloads.len());
            let handles: Vec<_> = groups
                .iter()
                .zip(&workloads)
                .map(|(nodes, actions)| {
                    let db = db.clone();
                    let nodes = nodes.clone();
                    let actions = actions.clone();
                    std::thread::spawn(move || run_writer(&db, &nodes, &actions))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Checkpoint: flush the store, truncate the WAL — then reopen
            // so the digest is served by the store files alone.
            db.checkpoint().unwrap();
            drop(db);
            let db = GraphDb::open(dir_c.path(), sharded_config()).unwrap();
            let all: Vec<NodeId> = groups.into_iter().flatten().collect();
            store_digest(&db, &all)
        };

        // Serial reference: same actions, one writer after another.
        let dir_s = TempDir::new("shard_prop_serial");
        let serial = {
            let db = GraphDb::open(dir_s.path(), sharded_config()).unwrap();
            let groups = seed_nodes(&db, workloads.len());
            for (nodes, actions) in groups.iter().zip(&workloads) {
                run_writer(&db, nodes, actions);
            }
            db.checkpoint().unwrap();
            drop(db);
            let db = GraphDb::open(dir_s.path(), sharded_config()).unwrap();
            let all: Vec<NodeId> = groups.into_iter().flatten().collect();
            store_digest(&db, &all)
        };

        prop_assert_eq!(concurrent, serial);
    }
}

/// Overlapping commits — many writers splicing relationships into the
/// *same* hub nodes' chains — queue per shard, race concurrent
/// checkpoints, and then recovery replays the WAL over the partially
/// flushed store. No acknowledged splice may be lost, duplicated, or left
/// as a corrupt chain.
///
/// Runs under first-committer-wins: there the endpoint write locks are
/// advisory, so splices on the same hub genuinely reach stage C
/// concurrently — exactly the multi-record read-modify-write hazard the
/// per-shard locks exist to serialise.
#[test]
fn overlapping_commits_race_checkpoints_and_recovery_replay() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 30;
    const HUBS: usize = 2;
    let dir = TempDir::new("shard_overlap");
    let config =
        sharded_config().with_conflict_strategy(graphsi_core::ConflictStrategy::FirstCommitterWins);
    let hubs: Vec<NodeId>;
    // (hub index, spoke) of every acknowledged, still-linked spoke.
    let acknowledged: Arc<Mutex<Vec<(usize, NodeId)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let db = GraphDb::open(dir.path(), config.clone()).unwrap();
        let mut tx = db.begin();
        hubs = (0..HUBS)
            .map(|_| tx.create_node(&["Hub"], &[]).unwrap())
            .collect();
        tx.commit().unwrap();

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = db.clone();
                let hubs = hubs.clone();
                let acknowledged = Arc::clone(&acknowledged);
                std::thread::spawn(move || {
                    let mut own: Vec<(usize, NodeId, graphsi_core::RelationshipId)> = Vec::new();
                    for i in 0..ROUNDS {
                        let hub = (w + i) % HUBS;
                        if i % 5 == 4 {
                            // Unlink one of this writer's earlier spokes:
                            // another chain splice on a shared hub.
                            let Some((h, spoke, rel)) = own.pop() else {
                                continue;
                            };
                            let result = db.write_with_retry(|tx| {
                                tx.delete_relationship(rel)?;
                                tx.delete_node(spoke)
                            });
                            match result {
                                Ok(()) => {
                                    let mut acked = acknowledged.lock().unwrap();
                                    let idx = acked.iter().position(|e| *e == (h, spoke)).unwrap();
                                    acked.swap_remove(idx);
                                }
                                Err(e) if e.is_conflict() => own.push((h, spoke, rel)),
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        } else {
                            let result = db.write_with_retry(|tx| {
                                let spoke = tx.create_node(&["Spoke"], &[]).unwrap();
                                let rel = tx.create_relationship(hubs[hub], spoke, "SPOKE", &[])?;
                                Ok((spoke, rel))
                            });
                            match result {
                                Ok((spoke, rel)) => {
                                    own.push((hub, spoke, rel));
                                    acknowledged.lock().unwrap().push((hub, spoke));
                                }
                                Err(e) if e.is_conflict() => {}
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        // Concurrent checkpoints flush the store mid-stream and truncate
        // the WAL, so the final crash leaves a partially flushed store
        // plus a WAL holding only the tail — replay must be idempotent
        // over whatever made it to the pages.
        for _ in 0..8 {
            db.checkpoint().unwrap();
        }
        for wr in writers {
            wr.join().unwrap();
        }
        // Overlapping splices queueing on shards
        // (`store_apply_shard_conflicts`) requires two threads to be
        // *physically* inside stage C at once, which a single-core host
        // cannot produce; the deterministic queueing proof lives in the
        // pipeline's unit tests. Here the point is the end state.
        // Crash: no clean shutdown.
    }
    let db = GraphDb::open(dir.path(), config).unwrap();
    let tx = db.txn().read_only().begin();
    let acked = acknowledged.lock().unwrap();
    for (hub, degree) in hubs
        .iter()
        .map(|&h| (h, acked.iter().filter(|(i, _)| hubs[*i] == h).count()))
    {
        assert_eq!(
            tx.degree(hub, Direction::Both).unwrap(),
            degree,
            "hub chain length diverged from the acknowledged splices"
        );
    }
    assert_eq!(
        tx.nodes_with_label("Spoke").unwrap().count(),
        acked.len(),
        "spoke set diverged from the acknowledged commits"
    );
    for &(hub, spoke) in acked.iter() {
        assert_eq!(
            tx.neighbors_vec(spoke, Direction::Both).unwrap(),
            vec![hubs[hub]],
            "an acknowledged splice was lost or rewired"
        );
    }
}

/// The scalability witness: on disjoint keyspaces the sharded
/// apply really overlaps — more than one commit is inside its store
/// flush-through at the same time — where the single-lock stage C pinned
/// the peak at exactly 1.
///
/// Observing the overlap through real scheduling needs ≥ 2 CPUs (on one
/// core, threads released from a group sync run stage C back-to-back and
/// a ~60µs apply window is never preempted mid-flight); single-core hosts
/// run the workload for its correctness assertions only, and the
/// deterministic overlap proof lives in the pipeline's unit tests.
#[test]
fn disjoint_commits_overlap_inside_store_apply() {
    const THREADS: usize = 4;
    const COMMITS_PER_THREAD: usize = 100;
    let multicore = std::thread::available_parallelism()
        .map(|p| p.get() >= 2)
        .unwrap_or(false);
    // Overlap is a race by nature: retry a few fresh rounds before
    // declaring the sharded path broken.
    for round in 0..5 {
        let dir = TempDir::new("shard_peak");
        let db = GraphDb::open(dir.path(), sharded_config()).unwrap();
        let mut tx = db.begin();
        // Multi-node write sets make each flush-through long enough to
        // observe overlap; keyspaces stay disjoint across threads.
        let groups: Vec<Vec<NodeId>> = (0..THREADS)
            .map(|_| {
                (0..16)
                    .map(|_| {
                        tx.create_node(&["W"], &[("v", PropertyValue::Int(0))])
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        tx.commit().unwrap();
        let handles: Vec<_> = groups
            .iter()
            .map(|nodes| {
                let db = db.clone();
                let nodes = nodes.clone();
                std::thread::spawn(move || {
                    for i in 0..COMMITS_PER_THREAD {
                        let mut tx = db.begin();
                        for &node in &nodes {
                            tx.set_node_property(node, "v", PropertyValue::Int(i as i64))
                                .unwrap();
                        }
                        tx.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let m = db.metrics();
        let tx = db.txn().read_only().begin();
        for nodes in &groups {
            for &node in nodes {
                assert_eq!(
                    tx.node_property(node, "v").unwrap(),
                    Some(PropertyValue::Int(COMMITS_PER_THREAD as i64 - 1))
                );
            }
        }
        if !multicore {
            eprintln!("single CPU: skipping the concurrency-peak assertion");
            return;
        }
        if m.store_apply_concurrency_peak >= 2 {
            return;
        }
        eprintln!(
            "round {round}: store_apply_concurrency_peak = {}, retrying",
            m.store_apply_concurrency_peak
        );
    }
    panic!("disjoint-footprint commits never overlapped in stage C");
}
