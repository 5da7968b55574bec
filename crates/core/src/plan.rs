//! The query planner: turns the declarative parts of a composed
//! [`crate::QueryBuilder`] pipeline into an explicit [`Plan`].
//!
//! PR 5 ran this logic inline in `query.rs`; extracting it gives the plan
//! an inspectable shape — a [`SourcePlan`] (index range, label scan,
//! sorted-posting intersection, whole-graph decode fallback, ...) plus the
//! residual stage list — and room for the three shapes this module adds:
//!
//! * **ordered streaming**: `order_by`/`top_k` terminals ride the range
//!   cursor's sorted `BTreeMap` key walk (ascending or descending) with no
//!   sort buffer, early-exiting after the top-k budget;
//! * **multi-predicate intersection**: two or more pushdown-able
//!   predicates compile to one driving range cursor plus sorted posting
//!   membership legs instead of an index scan + decode-filter chain, the
//!   driver chosen by live-count cardinality estimates;
//! * **decode fallback**: whatever the index cannot serve (opaque
//!   predicates, orders broken by expansion or pending node writes) runs
//!   as per-candidate decode stages or a buffered sort, exactly as before.
//!
//! The planner only consults **live** posting counts
//! ([`graphsi_index::VersionedPostingIndex::postings_estimate`] excludes
//! tombstoned churn), so GC-heavy workloads no longer steer plans wrong.

use std::ops::Bound;

use graphsi_storage::{NodeId, PropertyValue, ValueKey};

use crate::entity::Direction;
use crate::error::{DbError, Result};
use crate::transaction::Transaction;

/// Shared semantics of a compiled range predicate: `true` if the value
/// key lies inside the bounds. Range predicates are **type-homogeneous**:
/// a typed bound only matches values of its own type, which is exactly
/// the key interval [`graphsi_index::composite_range_bounds`] confines an
/// index range scan to — so the decode path and the pushdown path agree
/// on every input.
pub(crate) fn value_key_in_bounds(
    k: &ValueKey,
    lo: &Bound<ValueKey>,
    hi: &Bound<ValueKey>,
) -> bool {
    let type_ok = |b: &Bound<ValueKey>| match b {
        Bound::Included(x) | Bound::Excluded(x) => k.same_type(x),
        Bound::Unbounded => true,
    };
    if !type_ok(lo) || !type_ok(hi) {
        return false;
    }
    let above = match lo {
        Bound::Included(x) => k >= x,
        Bound::Excluded(x) => k > x,
        Bound::Unbounded => true,
    };
    let below = match hi {
        Bound::Included(x) => k <= x,
        Bound::Excluded(x) => k < x,
        Bound::Unbounded => true,
    };
    above && below
}

/// Maps user-facing `PropertyValue` range bounds onto the index's
/// `ValueKey` bound pair — shared by the query builder's declarative
/// predicates and the transaction-level range scan.
pub(crate) fn value_range_key_bounds(
    range: &impl std::ops::RangeBounds<PropertyValue>,
) -> (Bound<ValueKey>, Bound<ValueKey>) {
    let key_of = |b: Bound<&PropertyValue>| match b {
        Bound::Included(v) => Bound::Included(v.index_key()),
        Bound::Excluded(v) => Bound::Excluded(v.index_key()),
        Bound::Unbounded => Bound::Unbounded,
    };
    (key_of(range.start_bound()), key_of(range.end_bound()))
}

/// A declarative property predicate (equality is the degenerate
/// `Included(v) ..= Included(v)` range) — the unit the planner decides
/// index-vs-decode for.
#[derive(Clone, Debug)]
pub(crate) struct RangePred {
    pub(crate) name: String,
    pub(crate) lo: Bound<ValueKey>,
    pub(crate) hi: Bound<ValueKey>,
}

impl RangePred {
    pub(crate) fn from_range(name: &str, range: impl std::ops::RangeBounds<PropertyValue>) -> Self {
        let (lo, hi) = value_range_key_bounds(&range);
        RangePred {
            name: name.to_owned(),
            lo,
            hi,
        }
    }

    pub(crate) fn equality(name: &str, value: &PropertyValue) -> Self {
        let key = value.index_key();
        RangePred {
            name: name.to_owned(),
            lo: Bound::Included(key.clone()),
            hi: Bound::Included(key),
        }
    }

    /// The full-open predicate over `name` — the ordered walk an
    /// `order_by` compiles to when the pipeline carries no range of its
    /// own. Not a user predicate: it never counts as a pushdown.
    fn unbounded(name: &str) -> Self {
        RangePred {
            name: name.to_owned(),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    fn is_unbounded(&self) -> bool {
        matches!((&self.lo, &self.hi), (Bound::Unbounded, Bound::Unbounded))
    }

    /// `false` when no value can ever satisfy the predicate (mixed-type
    /// or inverted bounds): the planner compiles the whole pipeline to an
    /// empty stream instead of scanning anything.
    pub(crate) fn satisfiable(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
            (Bound::Included(a), Bound::Included(b)) => a.same_type(b) && a <= b,
            (Bound::Included(a), Bound::Excluded(b))
            | (Bound::Excluded(a), Bound::Included(b))
            | (Bound::Excluded(a), Bound::Excluded(b)) => a.same_type(b) && a < b,
        }
    }

    pub(crate) fn matches(&self, value: &PropertyValue) -> bool {
        value_key_in_bounds(&value.index_key(), &self.lo, &self.hi)
    }
}

/// An `order_by` / `top_k` terminal: order the final stream by `name`
/// (rows lacking the key are dropped — the same semantics as an index
/// range over it), optionally truncated to the `limit` smallest/largest.
#[derive(Clone, Debug)]
pub(crate) struct OrderSpec {
    pub(crate) name: String,
    pub(crate) descending: bool,
    pub(crate) limit: Option<usize>,
}

/// A boxed snapshot predicate over one node, as stored by filter stages.
pub(crate) type NodePredicate<'tx> = Box<dyn Fn(&Transaction, NodeId) -> Result<bool> + 'tx>;

/// One pipeline stage.
pub(crate) enum Stage<'tx> {
    /// Declarative property predicate — plannable (index or decode).
    Range(RangePred),
    /// Declarative predicate over the **relationship** that produced the
    /// row. Runs as a decode filter today; the relationship property index
    /// already has the sorted key dimension, so this is the planner hook
    /// for rel-side range postings (ROADMAP follow-on).
    RelRange(RangePred),
    /// Opaque property predicate — always the decode path (but only the
    /// named key is ever materialised per candidate).
    FilterProperty(String, Box<dyn Fn(&PropertyValue) -> bool + 'tx>),
    FilterLabel(String),
    Filter(NodePredicate<'tx>),
    Expand {
        direction: Direction,
        rel_type: Option<String>,
    },
    Distinct,
    Limit(usize),
}

/// Where a compiled pipeline draws its initial node stream from — the
/// explicit plan enum the planner produces. The builder composes only the
/// plain variants (`AllNodes`, `Label`, `PropertyEq`, an unordered
/// `IndexRange`, `Fixed`); `Empty`, `Intersection` and the
/// ordered/descending flags are planner output.
pub(crate) enum SourcePlan {
    /// Nothing can match (unsatisfiable predicate, unknown name): the
    /// whole pipeline compiles to a cheap empty stream.
    Empty,
    /// Every node visible to the transaction (the default).
    AllNodes,
    /// Index-backed label scan.
    Label(String),
    /// Index-backed property equality scan (posting list).
    PropertyEq(String, PropertyValue),
    /// Index-backed property range scan over the sorted key dimension.
    /// `ordered` marks a served `order_by`: the walk itself *is* the sort
    /// (`descending` picks the reverse-direction cursor).
    IndexRange {
        pred: RangePred,
        descending: bool,
        ordered: bool,
    },
    /// Sorted-posting merge-intersect: the `driver` range cursor streams
    /// candidates, each probed against the materialised postings of every
    /// leg — zero per-candidate property decoding.
    Intersection {
        driver: RangePred,
        legs: Vec<RangePred>,
        descending: bool,
        ordered: bool,
    },
    /// An explicit start set (visibility-checked when streamed).
    Fixed(Vec<NodeId>),
}

/// Output of [`plan`]: the chosen source, the residual stages, and how
/// ordering/limits execute.
pub(crate) struct Plan<'tx> {
    pub(crate) source: SourcePlan,
    pub(crate) stages: Vec<Stage<'tx>>,
    /// Set when a requested order could not ride the index: the terminal
    /// buffers all rows, decodes the order key per row and sorts.
    pub(crate) sort_fallback: Option<OrderSpec>,
    /// Remaining-row budget threaded into the source so its cursor stops
    /// paging once the pipeline owes no more rows (leading `limit`s and
    /// served top-k).
    pub(crate) source_budget: Option<usize>,
    /// `true` when the budget realises a served top-k: exhausting it
    /// before the source runs dry records a `topk_early_exits`.
    pub(crate) topk: bool,
}

/// Cardinality estimates stop counting range keys here: past this many
/// live postings every leg is "large" and ratios no longer matter.
const EST_CAP: u64 = 4096;

/// A predicate joins an intersection as a membership leg only while its
/// estimate is within this factor of the driver's — materialising a leg
/// orders of magnitude wider than the driver costs more than decoding.
const LEG_FACTOR: u64 = 8;

/// Runs the planner: pushdown demotion/promotion, multi-predicate
/// intersection, order serving, dead-pipeline short-circuits, source
/// budgets — and records which path each predicate compiled to in the
/// database metrics.
pub(crate) fn plan<'tx>(
    db: &crate::db::GraphDbInner,
    mut source: SourcePlan,
    mut stages: Vec<Stage<'tx>>,
    order: Option<OrderSpec>,
    pushdown: bool,
    intersect: bool,
    has_node_writes: bool,
) -> Result<Plan<'tx>> {
    let key_known = |name: &str| db.store.tokens().existing_property_key(name).is_some();
    // `true` if the predicate can execute inside the index: its key token
    // exists (an unknown key cannot match anything) and the bounds are
    // satisfiable.
    let indexable = |pred: &RangePred| pred.satisfiable() && key_known(&pred.name);
    let estimate = |pred: &RangePred, cap: u64| -> u64 {
        match db.store.tokens().existing_property_key(&pred.name) {
            Some(token) => db.indexes.node_properties.range_postings_estimate(
                token,
                graphsi_index::bound_as_ref(&pred.lo),
                graphsi_index::bound_as_ref(&pred.hi),
                cap,
            ),
            None => 0,
        }
    };

    // ---- Pushdown-disabled demotion ------------------------------------
    if !pushdown {
        // Decode baseline: demote index-executed property predicates
        // (range sources and equality sources alike) back to a
        // whole-graph scan with a decode-filter stage.
        match source {
            SourcePlan::IndexRange { pred, .. } => {
                stages.insert(0, Stage::Range(pred));
                source = SourcePlan::AllNodes;
            }
            SourcePlan::PropertyEq(name, value) => {
                stages.insert(0, Stage::Range(RangePred::equality(&name, &value)));
                source = SourcePlan::AllNodes;
            }
            other => source = other,
        }
    } else if let Some(Stage::Range(head)) = stages.first() {
        // A leading declarative predicate can swap into the source.
        let promote = match &source {
            SourcePlan::AllNodes => indexable(head),
            SourcePlan::Label(label) => {
                // Cardinality rule: scan the smaller index side, check
                // the other per element. Both estimates count only live
                // postings, so tombstone churn cannot skew the choice.
                match db.store.tokens().existing_label(label) {
                    Some(ltok) if indexable(head) => {
                        let label_est = db.indexes.labels.postings_estimate(ltok);
                        // The label estimate caps the range walk: once
                        // the range is known to be at least as large,
                        // counting further keys cannot change the
                        // decision.
                        estimate(head, label_est) < label_est
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if promote {
            let Stage::Range(pred) = stages.remove(0) else {
                return Err(DbError::Internal(
                    "promoted head stage is no longer a range predicate".to_owned(),
                ));
            };
            let old = std::mem::replace(
                &mut source,
                SourcePlan::IndexRange {
                    pred,
                    descending: false,
                    ordered: false,
                },
            );
            if let SourcePlan::Label(label) = old {
                stages.insert(0, Stage::FilterLabel(label));
            }
        }
    }

    // ---- Multi-predicate intersection ----------------------------------
    if pushdown && intersect {
        let (src_pred, replaceable) = match &source {
            SourcePlan::IndexRange { pred, .. } => (Some(pred.clone()), true),
            SourcePlan::PropertyEq(name, value) => {
                // Equality via `index_key` is exactly the degenerate
                // one-key range, so the swap preserves semantics.
                (Some(RangePred::equality(name, value)), true)
            }
            SourcePlan::AllNodes => (None, true),
            _ => (None, false),
        };
        // Range stages up to the first Expand (different row set) or
        // Limit (cuts by count — a filter must not cross it) commute with
        // every other filter and may execute at the source instead.
        let cut = stages
            .iter()
            .position(|s| matches!(s, Stage::Expand { .. } | Stage::Limit(_)))
            .unwrap_or(stages.len());
        let absorbable: Vec<usize> = (0..cut)
            .filter(|&i| matches!(&stages[i], Stage::Range(p) if indexable(p)))
            .collect();
        let pool_len = absorbable.len() + usize::from(src_pred.as_ref().is_some_and(indexable));
        if replaceable && pool_len >= 2 {
            struct Cand {
                stage: Option<usize>,
                pred: RangePred,
                est: u64,
            }
            let mut pool: Vec<Cand> = Vec::with_capacity(pool_len);
            if let Some(p) = src_pred.filter(indexable) {
                pool.push(Cand {
                    stage: None,
                    est: estimate(&p, EST_CAP),
                    pred: p,
                });
            }
            for &i in &absorbable {
                let Stage::Range(p) = &stages[i] else {
                    unreachable!("absorbable index selected a non-range stage")
                };
                pool.push(Cand {
                    stage: Some(i),
                    pred: p.clone(),
                    est: estimate(p, EST_CAP),
                });
            }
            // Drive from the narrowest predicate; every other predicate
            // within LEG_FACTOR of it becomes a membership leg, the rest
            // stay decode filters.
            let di = pool
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.est)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let driver = pool.swap_remove(di);
            let cap = driver.est.max(1).saturating_mul(LEG_FACTOR);
            let mut legs: Vec<RangePred> = Vec::new();
            let mut remove: Vec<usize> = driver.stage.into_iter().collect();
            // Predicates that neither drive nor join (the gate): a stage
            // stays where it is; a source predicate demotes to a stage.
            let mut demoted: Vec<RangePred> = Vec::new();
            for c in pool {
                if c.est <= cap {
                    if let Some(i) = c.stage {
                        remove.push(i);
                    }
                    legs.push(c.pred);
                } else if c.stage.is_none() {
                    demoted.push(c.pred);
                }
            }
            remove.sort_unstable();
            for i in remove.into_iter().rev() {
                stages.remove(i);
            }
            for p in demoted {
                stages.insert(0, Stage::Range(p));
            }
            source = if legs.is_empty() {
                SourcePlan::IndexRange {
                    pred: driver.pred,
                    descending: false,
                    ordered: false,
                }
            } else {
                SourcePlan::Intersection {
                    driver: driver.pred,
                    legs,
                    descending: false,
                    ordered: false,
                }
            };
        }
    }

    // ---- Order serving -------------------------------------------------
    // A served order rides the range cursor's sorted key walk. That
    // requires pushdown, a source whose walk *is* the requested order, no
    // expansion (it re-keys the row set), and no pending node writes (the
    // write-set merge appends out of key order).
    let mut sort_fallback: Option<OrderSpec> = None;
    let mut served = false;
    if let Some(ord) = &order {
        if key_known(&ord.name) {
            let no_expand = !stages.iter().any(|s| matches!(s, Stage::Expand { .. }));
            if pushdown && no_expand && !has_node_writes {
                match &mut source {
                    SourcePlan::IndexRange {
                        pred,
                        descending,
                        ordered,
                    } if pred.name == ord.name => {
                        *descending = ord.descending;
                        *ordered = true;
                        served = true;
                    }
                    SourcePlan::AllNodes => {
                        // Rows lacking the order key are dropped, so the
                        // full-open walk over the key *is* the scan.
                        source = SourcePlan::IndexRange {
                            pred: RangePred::unbounded(&ord.name),
                            descending: ord.descending,
                            ordered: true,
                        };
                        served = true;
                    }
                    SourcePlan::PropertyEq(name, _) if *name == ord.name => {
                        // Every row shares the key's single value:
                        // trivially ordered.
                        served = true;
                    }
                    SourcePlan::Intersection {
                        driver,
                        legs,
                        descending,
                        ordered,
                    } => {
                        if driver.name == ord.name {
                            *descending = ord.descending;
                            *ordered = true;
                            served = true;
                        } else if let Some(pos) = legs.iter().position(|l| l.name == ord.name) {
                            // The order key's leg must drive; the old
                            // driver joins the membership legs.
                            let new_driver = legs.remove(pos);
                            legs.push(std::mem::replace(driver, new_driver));
                            *descending = ord.descending;
                            *ordered = true;
                            served = true;
                        }
                    }
                    _ => {}
                }
            }
            if served {
                if let Some(n) = ord.limit {
                    stages.push(Stage::Limit(n));
                }
            } else {
                sort_fallback = Some(ord.clone());
            }
        }
        // Unknown order key: handled by the dead check below (no node can
        // carry a never-interned key, and ordered rows must carry it).
    }

    // ---- Unsatisfiable / unknown-name short circuit --------------------
    // A predicate whose key was never interned (or whose bounds are
    // unsatisfiable) passes nothing, so the entire pipeline is a cheap
    // empty stream — no decode pass that filters everything out.
    let dead_stage = stages.iter().any(|stage| match stage {
        Stage::Range(pred) | Stage::RelRange(pred) => !pred.satisfiable() || !key_known(&pred.name),
        Stage::FilterProperty(name, _) => !key_known(name),
        Stage::FilterLabel(label) => db.store.tokens().existing_label(label).is_none(),
        _ => false,
    });
    let dead_source = match &source {
        SourcePlan::Empty => true,
        SourcePlan::IndexRange { pred, .. } => !indexable(pred),
        SourcePlan::Intersection { driver, legs, .. } => {
            !indexable(driver) || !legs.iter().all(indexable)
        }
        _ => false,
    };
    let dead_order = order.as_ref().is_some_and(|o| !key_known(&o.name));
    if dead_stage || dead_source || dead_order {
        return Ok(Plan {
            source: SourcePlan::Empty,
            stages: Vec::new(),
            sort_fallback: None,
            source_budget: None,
            topk: false,
        });
    }

    // ---- Source budget (limit pushdown) --------------------------------
    // Leading Limit stages truncate the source stream directly, so their
    // minimum bounds how many rows the source cursor ever needs to page —
    // including the implicit Limit a served top-k appended. A sort
    // fallback consumes everything, so no budget applies.
    let mut source_budget: Option<usize> = None;
    if sort_fallback.is_none() {
        for s in &stages {
            match s {
                Stage::Limit(n) => {
                    source_budget = Some(source_budget.map_or(*n, |m| m.min(*n)));
                }
                _ => break,
            }
        }
    }
    let topk =
        source_budget.is_some() && served && order.as_ref().is_some_and(|o| o.limit.is_some());

    // ---- Metrics: which path did each predicate compile to? ------------
    match &source {
        SourcePlan::PropertyEq(name, _) if key_known(name) => {
            db.metrics.predicate_pushdowns.add(1);
        }
        SourcePlan::IndexRange { pred, .. } if !pred.is_unbounded() => {
            db.metrics.predicate_pushdowns.add(1);
        }
        SourcePlan::Intersection { driver, legs, .. } => {
            db.metrics.intersection_pushdowns.add(1);
            if !driver.is_unbounded() {
                db.metrics.predicate_pushdowns.add(1);
            }
            db.metrics.predicate_pushdowns.add(legs.len() as u64);
        }
        _ => {}
    }
    if served {
        db.metrics.ordered_index_streams.add(1);
    }
    for stage in &stages {
        if matches!(
            stage,
            Stage::Range(_) | Stage::RelRange(_) | Stage::FilterProperty(..)
        ) {
            db.metrics.decode_filter_fallbacks.add(1);
        }
    }

    Ok(Plan {
        source,
        stages,
        sort_fallback,
        source_budget,
        topk,
    })
}
