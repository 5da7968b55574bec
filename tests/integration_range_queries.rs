//! Range-postings integration tests: comparison predicates executed
//! *inside* the versioned property index (predicate pushdown) must behave
//! exactly like the decode-filter path at every snapshot, while concurrent
//! commits churn property values and the garbage collector compacts the
//! posting lists a range cursor is parked in. The invariants mirror
//! `integration_cursors.rs`:
//!
//! * **no phantoms below the snapshot** — values moved into the range by
//!   commits after the reader's start timestamp never appear;
//! * **no lost entries above the watermark** — nodes whose value was in
//!   range at the snapshot survive GC compaction of the key range;
//! * **pushdown ≡ decode** — the index range scan and the per-candidate
//!   decode filter agree on every snapshot, under every chunk size.

use std::ops::Bound;

use proptest::prelude::*;

use graphsi_core::test_support::TempDir;
use graphsi_core::{DbConfig, GraphDb, NodeId, PropertyValue, Transaction};

const CHUNK_SIZES: &[usize] = &[1, 2, DbConfig::DEFAULT_SCAN_CHUNK_SIZE];

fn open(dir: &TempDir) -> GraphDb {
    GraphDb::open(dir.path(), DbConfig::default()).unwrap()
}

fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort();
    v
}

fn range_ids(tx: &Transaction, lo: i64, hi: i64, pushdown: bool) -> Vec<NodeId> {
    sorted(
        tx.query()
            .filter_property_range("score", PropertyValue::Int(lo)..=PropertyValue::Int(hi))
            .pushdown(pushdown)
            .ids()
            .unwrap(),
    )
}

/// A reader pages a pushed-down range scan in single steps while a writer
/// moves values across the range boundary and deletes/creates nodes, with
/// GC runs in between. The reader must deliver exactly its snapshot.
#[test]
fn range_scan_pages_through_concurrent_commits_and_gc() {
    for &chunk in CHUNK_SIZES {
        let dir = TempDir::new("range_churn");
        let db = open(&dir);

        // Seed: scores 0..20; the range [5, 14] holds exactly ten nodes.
        let mut tx = db.begin();
        let seeded: Vec<NodeId> = (0..20)
            .map(|i| {
                tx.create_node(&["R"], &[("score", PropertyValue::Int(i))])
                    .unwrap()
            })
            .collect();
        tx.commit().unwrap();
        let in_range: Vec<NodeId> = seeded[5..=14].to_vec();

        let reader = db.txn().read_only().scan_chunk_size(chunk).begin();
        let mut stream = reader
            .query()
            .filter_property_range("score", PropertyValue::Int(5)..=PropertyValue::Int(14))
            .stream()
            .unwrap();

        // Pull a few results, then churn: move in-range values out, out-of
        // range values in, delete one in-range node, insert a fresh one in
        // range — each round followed by a vacuum GC pass that compacts
        // the posting lists the cursor is parked in.
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(stream.next().unwrap().unwrap());
        }
        let churn = [
            (seeded[6], 99i64), // in range -> out
            (seeded[10], -5),   // in range -> out
            (seeded[1], 7),     // out of range -> in (phantom for reader)
            (seeded[18], 9),    // out of range -> in (phantom for reader)
        ];
        for (node, value) in churn {
            let mut w = db.begin();
            w.set_node_property(node, "score", PropertyValue::Int(value))
                .unwrap();
            w.commit().unwrap();
            db.run_gc_vacuum();
        }
        {
            let mut w = db.begin();
            w.delete_node(seeded[13]).unwrap();
            w.create_node(&["R"], &[("score", PropertyValue::Int(8))])
                .unwrap();
            w.commit().unwrap();
            db.run_gc_vacuum();
        }
        for id in stream {
            got.push(id.unwrap());
        }

        assert_eq!(
            sorted(got),
            sorted(in_range.clone()),
            "chunk {chunk}: the reader's snapshot is exactly the seeded \
             range — no phantoms from moved-in values, no lost entries \
             from moved-out / deleted ones"
        );
        // The decode path over the same (still-open) snapshot agrees.
        assert_eq!(range_ids(&reader, 5, 14, false), sorted(in_range));
        drop(reader);

        // A fresh snapshot sees the post-churn world: 5,7,8,9,11,12,14 of
        // the seeds (6,10 moved out; 13 deleted), plus 1, 18 moved in,
        // plus the fresh node = 10 nodes.
        let after = db.txn().read_only().begin();
        assert_eq!(range_ids(&after, 5, 14, true).len(), 10);
        assert_eq!(
            range_ids(&after, 5, 14, true),
            range_ids(&after, 5, 14, false)
        );
    }
}

/// The acceptance gauge: pushdown runs through the index (the
/// `predicate_pushdowns` metric proves it), performs **zero** property
/// decodes, and returns the same rows as the decode path while concurrent
/// writer threads churn values and auto-GC compacts postings.
#[test]
fn pushdown_equals_decode_under_concurrent_writers_and_gc() {
    let dir = TempDir::new("range_race");
    let db = GraphDb::open(
        dir.path(),
        DbConfig::default().with_auto_gc(4).with_scan_chunk_size(2),
    )
    .unwrap();

    const NODES: i64 = 60;
    let mut tx = db.begin();
    let nodes: Vec<NodeId> = (0..NODES)
        .map(|i| {
            tx.create_node(&["W"], &[("score", PropertyValue::Int(i % 20))])
                .unwrap()
        })
        .collect();
    tx.commit().unwrap();

    let writers: Vec<_> = (0..2)
        .map(|w| {
            let db = db.clone();
            let nodes = nodes.clone();
            std::thread::spawn(move || {
                for round in 0..40i64 {
                    let node = nodes[((w * 31 + round * 7) % NODES) as usize];
                    db.write_with_retry(|tx| {
                        tx.set_node_property(
                            node,
                            "score",
                            PropertyValue::Int((round * 13 + w) % 20),
                        )
                    })
                    .unwrap();
                }
            })
        })
        .collect();

    let reader = {
        let db = db.clone();
        std::thread::spawn(move || {
            for _ in 0..40 {
                let tx = db.txn().read_only().begin();
                let before = db.metrics();
                let pushed = range_ids(&tx, 5, 12, true);
                let after = db.metrics();
                assert!(
                    after.predicate_pushdowns > before.predicate_pushdowns,
                    "the range query must compile to an index source"
                );
                assert_eq!(
                    after.property_decodes, before.property_decodes,
                    "pushdown must not decode any candidate's properties"
                );
                let decoded = range_ids(&tx, 5, 12, false);
                assert_eq!(
                    pushed, decoded,
                    "index range scan and decode filter must agree on one \
                     snapshot"
                );
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    reader.join().unwrap();

    // Quiesced double-check against a brute-force ground truth.
    let tx = db.txn().read_only().begin();
    let mut truth: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| {
            tx.node_property(n, "score")
                .unwrap()
                .and_then(|v| v.as_int())
                .is_some_and(|s| (5..=12).contains(&s))
        })
        .collect();
    truth.sort();
    assert_eq!(range_ids(&tx, 5, 12, true), truth);
}

// Property-based churn: random value moves and deletions across many
// commits, with vacuum GC interleaved and snapshots pinned at random
// points. At every pinned snapshot — checked both mid-churn and after
// all of it — the pushed-down range scan must equal the decode-filter
// scan *and* a brute-force recomputation from per-node reads.
proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn churned_range_scans_agree(
            ops in proptest::collection::vec((0..24usize, -10i64..30, 0..6usize), 10..60),
            lo in -5i64..10,
            width in 0i64..20,
        ) {
            let dir = TempDir::new("range_prop");
            let db = open(&dir);
            let hi = lo + width;

            let mut tx = db.begin();
            let nodes: Vec<NodeId> = (0..24)
                .map(|i| {
                    tx.create_node(&["P"], &[("score", PropertyValue::Int(i as i64))])
                        .unwrap()
                })
                .collect();
            tx.commit().unwrap();
            let mut alive = vec![true; nodes.len()];

            let mut pinned: Vec<(Transaction, Vec<NodeId>)> = Vec::new();
            for (i, &(slot, value, kind)) in ops.iter().enumerate() {
                let node = nodes[slot];
                let delete = kind == 0; // one in six ops deletes
                let mut w = db.begin();
                if delete && alive[slot] {
                    w.delete_node(node).unwrap();
                    alive[slot] = false;
                } else if alive[slot] {
                    w.set_node_property(node, "score", PropertyValue::Int(value))
                        .unwrap();
                }
                w.commit().unwrap();
                if i % 5 == 0 {
                    db.run_gc_vacuum();
                } else if i % 7 == 0 {
                    db.run_gc();
                }
                if i % 4 == 0 {
                    // Pin a snapshot and remember its ground truth now;
                    // later churn and GC must not change what it reads.
                    let snap = db.txn().read_only().begin();
                    let truth = brute_force(&snap, &nodes, lo, hi);
                    // Mid-churn check while the snapshot is fresh.
                    prop_assert_eq!(&range_ids(&snap, lo, hi, true), &truth);
                    pinned.push((snap, truth));
                }
            }
            db.run_gc_vacuum();

            // Every pinned snapshot still reads exactly its ground truth,
            // through both execution paths and across chunk sizes.
            for (snap, truth) in &pinned {
                prop_assert_eq!(&range_ids(snap, lo, hi, true), truth);
                prop_assert_eq!(&range_ids(snap, lo, hi, false), truth);
                let chunk1 = sorted(
                    snap.query()
                        .filter_property_range(
                            "score",
                            PropertyValue::Int(lo)..=PropertyValue::Int(hi),
                        )
                        .chunk_size(1)
                        .ids()
                        .unwrap(),
                );
                prop_assert_eq!(&chunk1, truth);
            }
            // And a fresh snapshot agrees with brute force post-churn.
            let fresh = db.txn().read_only().begin();
            let truth = brute_force(&fresh, &nodes, lo, hi);
            prop_assert_eq!(&range_ids(&fresh, lo, hi, true), &truth);
            prop_assert_eq!(&range_ids(&fresh, lo, hi, false), &truth);
        }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Ordered streaming and sorted-posting intersection agree with their
    /// decode-everything equivalents on every pinned snapshot, across
    /// random churn, deletions and GC compaction. Churned score values are
    /// made unique per (op, slot) so `top_k(key, n)` has one well-defined
    /// answer (`sort-all-take-n`) with no tie ambiguity.
    #[test]
    fn ordered_topk_and_intersections_agree(
            ops in proptest::collection::vec((0..20usize, 0..6usize), 8..40),
            lo in 0i64..120,
            width in 50i64..900,
        ) {
            let dir = TempDir::new("range_order_prop");
            let db = open(&dir);
            let hi = lo + width;

            let mut tx = db.begin();
            let nodes: Vec<NodeId> = (0..20)
                .map(|slot| {
                    tx.create_node(
                        &["P"],
                        &[
                            ("score", PropertyValue::Int(slot as i64)),
                            ("flag", PropertyValue::Int((slot % 3) as i64)),
                        ],
                    )
                    .unwrap()
                })
                .collect();
            tx.commit().unwrap();
            let mut alive = vec![true; nodes.len()];

            let mut pinned: Vec<Transaction> = Vec::new();
            for (i, &(slot, kind)) in ops.iter().enumerate() {
                let node = nodes[slot];
                let mut w = db.begin();
                if kind == 0 && alive[slot] {
                    w.delete_node(node).unwrap();
                    alive[slot] = false;
                } else if alive[slot] {
                    // 100 + i*25 + slot is collision-free: slot < 25, and
                    // the seeds live below 100.
                    let score = 100 + (i as i64) * 25 + slot as i64;
                    w.set_node_property(node, "score", PropertyValue::Int(score)).unwrap();
                    if kind == 1 {
                        w.set_node_property(
                            node,
                            "flag",
                            PropertyValue::Int(((slot + i) % 3) as i64),
                        )
                        .unwrap();
                    }
                }
                w.commit().unwrap();
                if i % 5 == 0 {
                    db.run_gc_vacuum();
                } else if i % 7 == 0 {
                    db.run_gc();
                }
                if i % 4 == 0 {
                    pinned.push(db.txn().read_only().begin());
                }
            }
            db.run_gc_vacuum();
            pinned.push(db.txn().read_only().begin());

            for snap in &pinned {
                // Ground truth: per-node point reads, sorted by score
                // (unique, so the order is total).
                let mut truth: Vec<(i64, NodeId)> = nodes
                    .iter()
                    .copied()
                    .filter_map(|n| {
                        if !snap.node_exists(n).unwrap() {
                            return None;
                        }
                        snap.node_property(n, "score")
                            .unwrap()
                            .and_then(|v| v.as_int())
                            .filter(|s| (lo..=hi).contains(s))
                            .map(|s| (s, n))
                    })
                    .collect();
                truth.sort();
                let range = || PropertyValue::Int(lo)..=PropertyValue::Int(hi);
                let asc_ids: Vec<NodeId> = truth.iter().map(|&(_, n)| n).collect();
                let desc_ids: Vec<NodeId> = truth.iter().rev().map(|&(_, n)| n).collect();

                let asc = snap
                    .query()
                    .filter_property_range("score", range())
                    .order_by("score")
                    .ids()
                    .unwrap();
                prop_assert_eq!(&asc, &asc_ids);
                let desc = snap
                    .query()
                    .filter_property_range("score", range())
                    .order_by_desc("score")
                    .ids()
                    .unwrap();
                prop_assert_eq!(&desc, &desc_ids);

                // top-k ≡ sort-all-take-n, in both directions.
                for k in [1usize, 3, 7] {
                    let top = snap
                        .query()
                        .filter_property_range("score", range())
                        .top_k("score", k)
                        .ids()
                        .unwrap();
                    prop_assert_eq!(&top, &asc_ids.iter().copied().take(k).collect::<Vec<_>>());
                    let bottom = snap
                        .query()
                        .filter_property_range("score", range())
                        .top_k_desc("score", k)
                        .ids()
                        .unwrap();
                    prop_assert_eq!(&bottom, &desc_ids.iter().copied().take(k).collect::<Vec<_>>());
                }

                // Intersection ≡ chained decode-filter ≡ brute force.
                let flag_range = || PropertyValue::Int(0)..=PropertyValue::Int(1);
                let brute: Vec<NodeId> = asc_ids
                    .iter()
                    .copied()
                    .filter(|&n| {
                        snap.node_property(n, "flag")
                            .unwrap()
                            .and_then(|v| v.as_int())
                            .is_some_and(|f| (0..=1).contains(&f))
                    })
                    .collect();
                let merged = sorted(
                    snap.query()
                        .filter_property_range("score", range())
                        .filter_property_range("flag", flag_range())
                        .ids()
                        .unwrap(),
                );
                let chained = sorted(
                    snap.query()
                        .filter_property_range("score", range())
                        .filter_property_range("flag", flag_range())
                        .intersect(false)
                        .ids()
                        .unwrap(),
                );
                prop_assert_eq!(&merged, &sorted(brute.clone()));
                prop_assert_eq!(&chained, &sorted(brute));
            }
        }
}

/// A descending (reverse-cursor) ordered stream paged in tiny chunks
/// through churn and GC compaction must deliver exactly its snapshot, in
/// reverse key order, without a single cursor restart: the reverse cursor
/// resumes from its marker key just like the forward one.
#[test]
fn descending_stream_survives_churn_without_cursor_restarts() {
    let dir = TempDir::new("range_desc_restarts");
    let db = open(&dir);
    let mut tx = db.begin();
    let nodes: Vec<NodeId> = (0..30)
        .map(|i| {
            tx.create_node(&["D"], &[("score", PropertyValue::Int(i))])
                .unwrap()
        })
        .collect();
    tx.commit().unwrap();

    let reader = db.txn().read_only().scan_chunk_size(2).begin();
    let mut stream = reader
        .query()
        .filter_property_range("score", PropertyValue::Int(5)..=PropertyValue::Int(24))
        .order_by_desc("score")
        .stream()
        .unwrap();
    let before = db.metrics();
    let mut got = Vec::new();
    for _ in 0..4 {
        got.push(stream.next().unwrap().unwrap());
    }
    // Churn across the parked cursor: move values over both boundaries,
    // compact the postings in between.
    for (n, v) in [(nodes[20], 99i64), (nodes[8], -3), (nodes[0], 10)] {
        let mut w = db.begin();
        w.set_node_property(n, "score", PropertyValue::Int(v))
            .unwrap();
        w.commit().unwrap();
        db.run_gc_vacuum();
    }
    for id in stream {
        got.push(id.unwrap());
    }
    let expected: Vec<NodeId> = (5..=24).rev().map(|i| nodes[i as usize]).collect();
    assert_eq!(got, expected, "snapshot delivered in reverse key order");
    let after = db.metrics();
    assert_eq!(
        after.cursor_restarts, before.cursor_restarts,
        "the reverse range cursor resumes from its marker, never restarts"
    );
}

/// Ground truth for one snapshot: per-node point reads, no index involved.
fn brute_force(tx: &Transaction, nodes: &[NodeId], lo: i64, hi: i64) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| {
            tx.node_exists(n).unwrap()
                && tx
                    .node_property(n, "score")
                    .unwrap()
                    .and_then(|v| v.as_int())
                    .is_some_and(|s| (lo..=hi).contains(&s))
        })
        .collect();
    out.sort();
    out
}

/// Half-open and typed bounds behave identically on both paths, including
/// floats (whose index keys sort numerically) and cross-type graphs.
#[test]
fn typed_and_half_open_bounds_agree_across_paths() {
    let dir = TempDir::new("range_typed");
    let db = open(&dir);
    let mut tx = db.begin();
    for i in 0..10i64 {
        tx.create_node(&["T"], &[("v", PropertyValue::Int(i))])
            .unwrap();
    }
    for x in [-2.5f64, -0.5, 0.0, 1.5, 9.75] {
        tx.create_node(&["T"], &[("v", PropertyValue::Float(x))])
            .unwrap();
    }
    for s in ["alpha", "beta", "gamma"] {
        tx.create_node(&["T"], &[("v", PropertyValue::String(s.into()))])
            .unwrap();
    }
    tx.commit().unwrap();

    let tx = db.txn().read_only().begin();
    let both = |q: fn() -> (Bound<PropertyValue>, Bound<PropertyValue>)| {
        let pushed = sorted(tx.query().filter_property_range("v", q()).ids().unwrap());
        let decoded = sorted(
            tx.query()
                .filter_property_range("v", q())
                .pushdown(false)
                .ids()
                .unwrap(),
        );
        assert_eq!(pushed, decoded);
        pushed
    };

    // v >= 4 (ints only: half-open stays in the bound's type).
    let ge4 = both(|| (Bound::Included(PropertyValue::Int(4)), Bound::Unbounded));
    assert_eq!(ge4.len(), 6);
    // v < 2 (ints only).
    let lt2 = both(|| (Bound::Unbounded, Bound::Excluded(PropertyValue::Int(2))));
    assert_eq!(lt2.len(), 2);
    // Float range straddling zero: negatives must order correctly.
    let floats = both(|| {
        (
            Bound::Included(PropertyValue::Float(-1.0)),
            Bound::Included(PropertyValue::Float(2.0)),
        )
    });
    assert_eq!(floats.len(), 3, "-0.5, 0.0 and 1.5");
    // String range.
    let strings = both(|| {
        (
            Bound::Included(PropertyValue::String("b".into())),
            Bound::Unbounded,
        )
    });
    assert_eq!(strings.len(), 2, "beta and gamma");
    // Fully open = has the property at all, every type.
    let any = both(|| (Bound::Unbounded, Bound::Unbounded));
    assert_eq!(any.len(), 18);

    // The transaction-level scan surface agrees with the query builder.
    let direct: Vec<NodeId> = tx
        .nodes_with_property_range("v", PropertyValue::Int(4)..)
        .unwrap()
        .collect::<graphsi_core::Result<_>>()
        .unwrap();
    assert_eq!(sorted(direct), ge4);
}

/// Equality is the index's key equality on every path: float `NaN`
/// matches itself and `-0.0` does not match `0.0`, whether the node is
/// committed, pending in the reading transaction, or committed and then
/// touched by it — and whether the scan runs inside the index or as a
/// decode filter.
#[test]
fn float_equality_is_key_equality_on_every_path() {
    let dir = TempDir::new("range_float_eq");
    let db = open(&dir);
    let mut tx = db.begin();
    let nan = tx
        .create_node(&["F"], &[("x", PropertyValue::Float(f64::NAN))])
        .unwrap();
    let hub = tx.create_node(&["F"], &[]).unwrap();
    let nan_rel = tx
        .create_relationship(hub, nan, "T", &[("w", PropertyValue::Float(f64::NAN))])
        .unwrap();
    tx.commit().unwrap();

    let paths = |tx: &Transaction, x: f64| -> Vec<Vec<NodeId>> {
        let value = PropertyValue::Float(x);
        let query = |pushdown: bool| {
            sorted(
                tx.query()
                    .nodes_with_property("x", value.clone())
                    .pushdown(pushdown)
                    .ids()
                    .unwrap(),
            )
        };
        let direct: Vec<NodeId> = tx
            .nodes_with_property("x", &value)
            .unwrap()
            .collect::<graphsi_core::Result<_>>()
            .unwrap();
        vec![query(true), query(false), sorted(direct)]
    };

    // A committed NaN node the transaction only relabels stays a NaN match,
    // and so does a NaN relationship it only touches.
    let mut w = db.begin();
    w.add_label(nan, "G").unwrap();
    w.set_relationship_property(nan_rel, "seen", PropertyValue::Bool(true))
        .unwrap();
    for ids in paths(&w, f64::NAN) {
        assert_eq!(ids, vec![nan], "relabelled NaN node");
    }
    assert_eq!(
        w.relationships_with_property("w", &PropertyValue::Float(f64::NAN))
            .unwrap(),
        vec![nan_rel],
        "touched NaN relationship"
    );

    // A pending -0.0 node matches -0.0 and not 0.0 ...
    let neg = w
        .create_node(&["F"], &[("x", PropertyValue::Float(-0.0))])
        .unwrap();
    for ids in paths(&w, 0.0) {
        assert_eq!(ids, Vec::<NodeId>::new(), "pending -0.0 node against 0.0");
    }
    for ids in paths(&w, -0.0) {
        assert_eq!(ids, vec![neg], "pending -0.0 node against -0.0");
    }
    w.commit().unwrap();

    // ... and reads the same once committed.
    let r = db.txn().read_only().begin();
    for ids in paths(&r, 0.0) {
        assert_eq!(ids, Vec::<NodeId>::new(), "committed -0.0 node against 0.0");
    }
    for ids in paths(&r, -0.0) {
        assert_eq!(ids, vec![neg], "committed -0.0 node against -0.0");
    }
    for ids in paths(&r, f64::NAN) {
        assert_eq!(ids, vec![nan], "committed NaN node");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The one write-set merge behind every index source. A read-write
    /// transaction over committed nodes applies random own writes —
    /// create, delete, set or remove `score`, add or remove the `Hot`
    /// label — and then the label, equality, range and two-predicate
    /// intersection sources each equal the decode path and a brute-force
    /// recomputation from per-node reads, at chunk size 1 and at the
    /// default.
    #[test]
    fn own_writes_merge_into_every_index_source(
            ops in proptest::collection::vec((0..24usize, 0..6usize, -3i64..8), 1..30),
            lo in -2i64..6,
            width in 0i64..4,
        ) {
            let dir = TempDir::new("range_own_writes");
            let db = open(&dir);
            let hi = lo + width;

            let mut tx = db.begin();
            let mut nodes: Vec<NodeId> = (0..16i64)
                .map(|i| {
                    let labels: &[&str] = if i % 2 == 0 { &["P", "Hot"] } else { &["P"] };
                    tx.create_node(
                        labels,
                        &[
                            ("score", PropertyValue::Int(i % 6)),
                            ("flag", PropertyValue::Int(i % 3)),
                        ],
                    )
                    .unwrap()
                })
                .collect();
            tx.commit().unwrap();
            let mut alive = vec![true; nodes.len()];

            let mut tx = db.begin();
            for &(slot, kind, value) in &ops {
                let slot = slot % nodes.len();
                let node = nodes[slot];
                match kind {
                    0 => {
                        let id = tx
                            .create_node(
                                &["P", "Hot"],
                                &[
                                    ("score", PropertyValue::Int(value)),
                                    ("flag", PropertyValue::Int(value.rem_euclid(3))),
                                ],
                            )
                            .unwrap();
                        nodes.push(id);
                        alive.push(true);
                    }
                    _ if !alive[slot] => {}
                    1 => {
                        tx.delete_node(node).unwrap();
                        alive[slot] = false;
                    }
                    2 => tx
                        .set_node_property(node, "score", PropertyValue::Int(value))
                        .unwrap(),
                    3 => tx.remove_node_property(node, "score").unwrap(),
                    4 => tx.add_label(node, "Hot").unwrap(),
                    _ => tx.remove_label(node, "Hot").unwrap(),
                }
            }

            let int = |n: NodeId, name: &str| {
                tx.node_property(n, name).unwrap().and_then(|v| v.as_int())
            };
            let brute = |keep: &dyn Fn(NodeId) -> bool| -> Vec<NodeId> {
                sorted(
                    nodes
                        .iter()
                        .copied()
                        .filter(|&n| tx.node_exists(n).unwrap() && keep(n))
                        .collect(),
                )
            };
            let hot = brute(&|n| tx.node_has_label(n, "Hot").unwrap());
            let equal = brute(&|n| int(n, "score") == Some(lo));
            let in_range = brute(&|n| int(n, "score").is_some_and(|s| (lo..=hi).contains(&s)));
            let both = brute(&|n| {
                int(n, "score").is_some_and(|s| (lo..=hi).contains(&s)) && int(n, "flag") == Some(0)
            });

            let score_range = || PropertyValue::Int(lo)..=PropertyValue::Int(hi);
            let flag_zero = || PropertyValue::Int(0)..=PropertyValue::Int(0);
            for chunk in [1, DbConfig::DEFAULT_SCAN_CHUNK_SIZE] {
                for pushdown in [true, false] {
                    let ids = |q: graphsi_core::QueryBuilder<'_>| {
                        sorted(q.chunk_size(chunk).pushdown(pushdown).ids().unwrap())
                    };
                    prop_assert_eq!(&ids(tx.query().nodes_with_label("Hot")), &hot);
                    prop_assert_eq!(
                        &ids(tx.query().nodes_with_property("score", PropertyValue::Int(lo))),
                        &equal
                    );
                    prop_assert_eq!(
                        &ids(tx.query().filter_property_range("score", score_range())),
                        &in_range
                    );
                    let before = db.metrics().intersection_pushdowns;
                    prop_assert_eq!(
                        &ids(tx
                            .query()
                            .filter_property_range("score", score_range())
                            .filter_property_range("flag", flag_zero())),
                        &both
                    );
                    prop_assert_eq!(
                        db.metrics().intersection_pushdowns > before,
                        pushdown,
                        "the conjunction compiles to an intersection exactly when pushed down"
                    );
                }
                // The label's decode path: a whole-graph scan with a label filter.
                prop_assert_eq!(
                    &sorted(tx.query().all_nodes().has_label("Hot").chunk_size(chunk).ids().unwrap()),
                    &hot
                );
            }
            tx.rollback();
        }
}
