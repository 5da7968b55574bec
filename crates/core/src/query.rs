//! The composable, streaming query builder — `tx.query()`.
//!
//! A [`QueryBuilder`] describes a pipeline of relational-ish stages over
//! the graph (CrocoPat-style composition on top of the paper's enriched
//! iterators): a *source* (label scan, property scan, property **range**
//! scan, whole-graph scan or an explicit start set) followed by *stages*
//! (property/label filters, range predicates, multi-hop `expand`,
//! `distinct`, `limit`). Terminal calls ([`QueryBuilder::stream`],
//! [`QueryBuilder::ids`], [`QueryBuilder::count`], [`QueryBuilder::nodes`],
//! [`QueryBuilder::rows`], [`QueryBuilder::stream_rows`]) compile it into
//! a snapshot-consistent stream with read-your-own-writes that pulls
//! results element by element through the chunked, GC-safe cursors of
//! [`crate::iter`] — peak candidate buffering stays bounded by the chunk
//! size no matter how many nodes a stage scans.
//!
//! ## The planner
//!
//! Compilation hands the declarative parts of the pipeline to
//! `crate::plan`, which picks an explicit `SourcePlan`: a predicate at
//! the head of the pipeline compiles to a **versioned index source**
//! (a range-postings cursor; equality is its one-key range); two or
//! more pushdown-able predicates compile to a **sorted-posting
//! intersection**; an `order_by`/`top_k` whose key matches the source's
//! sorted walk is **served straight off the index** (no sort buffer, and
//! top-k stops paging the cursor early); everything else falls back to
//! per-candidate decode filters or a buffered sort. The
//! `predicate_pushdowns` / `intersection_pushdowns` /
//! `ordered_index_streams` / `decode_filter_fallbacks` metrics record
//! which path each query compiled to, and `property_decodes` counts the
//! per-candidate decode work the fallbacks paid. Pushdown and
//! intersection can be disabled per query ([`QueryBuilder::pushdown`],
//! [`QueryBuilder::intersect`]), which equivalence tests use to run the
//! decode path as their reference.

use std::collections::HashSet;

use graphsi_storage::{
    NodeId, PropertyKeyToken, PropertyValue, RelTypeToken, RelationshipId, ValueKey,
};

use crate::entity::{Direction, Node};
use crate::error::{DbError, Result};
use crate::iter::{NodeIdIter, RelEntryIter, ScanPred};
use crate::plan::{NodePredicate, OrderSpec, RangePred, SourcePlan, Stage};
use crate::transaction::Transaction;

/// A composable, streaming query over one transaction's view; created by
/// [`Transaction::query`]. See the method docs there for an example.
#[must_use = "finish the builder with `.stream()`, `.ids()`, `.count()`, `.nodes()` or `.rows()`"]
pub struct QueryBuilder<'tx> {
    tx: &'tx Transaction,
    source: SourcePlan,
    source_set: bool,
    stages: Vec<Stage<'tx>>,
    chunk_size: Option<usize>,
    /// Property names the row terminals decode per result row (resolved
    /// to tokens once, at compile time).
    projection: Option<Vec<String>>,
    /// Whether the planner may push property predicates into the index
    /// (see [`QueryBuilder::pushdown`]).
    pushdown: bool,
    /// Whether the planner may intersect pushed predicates (see
    /// [`QueryBuilder::intersect`]).
    intersect: bool,
    /// Requested output ordering (`order_by`/`top_k`; the last call wins).
    order: Option<OrderSpec>,
    /// Set when the builder was composed illegally (a source after
    /// stages); reported as an error by the terminal calls, so a
    /// mis-composed query can never silently return wrong data.
    compose_error: Option<&'static str>,
}

impl<'tx> QueryBuilder<'tx> {
    pub(crate) fn new(tx: &'tx Transaction) -> Self {
        QueryBuilder {
            tx,
            source: SourcePlan::AllNodes,
            source_set: false,
            stages: Vec::new(),
            chunk_size: None,
            projection: None,
            pushdown: true,
            intersect: true,
            order: None,
            compose_error: None,
        }
    }

    fn set_source(mut self, source: SourcePlan) -> Self {
        if self.source_set || !self.stages.is_empty() {
            self.compose_error = Some(
                "query source must be set first and at most once (after stages, \
                      use has_label / filter_property / filter instead)",
            );
            return self;
        }
        self.source = source;
        self.source_set = true;
        self
    }

    /// Starts from the nodes carrying `label` (index-backed). If stages
    /// were already added, acts as a label filter instead.
    pub fn nodes_with_label(self, label: &str) -> Self {
        if self.source_set || !self.stages.is_empty() {
            return self.has_label(label);
        }
        self.set_source(SourcePlan::Label(label.to_owned()))
    }

    /// Starts from the nodes whose property `name` equals `value`
    /// (index-backed). If a source was already set, acts as an equality
    /// predicate instead — with the same equality semantics as the index
    /// (`PropertyValue::index_key`, so e.g. float `NaN` matches itself).
    /// Repeating the *same* equality the index source already guarantees
    /// is a no-op rather than a redundant per-node re-check.
    pub fn nodes_with_property(self, name: &str, value: PropertyValue) -> Self {
        self.range(RangePred::equality(name, &value))
    }

    /// Starts from the nodes whose property `name` holds a value inside
    /// `range` (e.g. `PropertyValue::Int(30)..=PropertyValue::Int(40)`),
    /// served by the versioned index's **range postings** when the planner
    /// can push it down. If a source was already set, acts as a range
    /// predicate stage the planner still tries to push into the index.
    ///
    /// Range semantics are type-homogeneous: a typed bound only matches
    /// values of its own type, and a half-open range stays within its
    /// bound's type.
    pub fn filter_property_range(
        self,
        name: &str,
        range: impl std::ops::RangeBounds<PropertyValue>,
    ) -> Self {
        self.range(RangePred::from_range(name, range))
    }

    /// A declarative property predicate: the index source when it comes
    /// first, a plannable stage otherwise.
    fn range(mut self, pred: RangePred) -> Self {
        if !self.source_set && self.stages.is_empty() {
            return self.set_source(SourcePlan::IndexRange {
                pred,
                descending: false,
                ordered: false,
            });
        }
        if self.stages.is_empty() {
            if let SourcePlan::IndexRange { pred: source, .. } = &self.source {
                // The index source already guarantees this exact predicate
                // for every yielded node (committed via the postings,
                // pending via the write-set check) — re-filtering would
                // decode every candidate to re-prove it.
                if *source == pred {
                    return self;
                }
            }
        }
        self.stages.push(Stage::Range(pred));
        self
    }

    /// Starts from every node visible to the transaction (the default
    /// source).
    pub fn all_nodes(self) -> Self {
        self.set_source(SourcePlan::AllNodes)
    }

    /// Starts from an explicit set of node IDs. Nodes invisible to the
    /// transaction's snapshot are silently dropped when streamed.
    pub fn start_nodes(self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.set_source(SourcePlan::Fixed(nodes.into_iter().collect()))
    }

    /// Keeps only nodes whose property `name` exists and satisfies `pred`.
    /// The predicate is opaque to the planner, so this always runs as a
    /// decode filter — but one that materialises only the named key per
    /// candidate. Prefer [`QueryBuilder::filter_property_range`] for
    /// comparisons the planner can push into the index.
    pub fn filter_property(
        mut self,
        name: &str,
        pred: impl Fn(&PropertyValue) -> bool + 'tx,
    ) -> Self {
        self.stages
            .push(Stage::FilterProperty(name.to_owned(), Box::new(pred)));
        self
    }

    /// Keeps only rows whose **producing relationship** (the one the last
    /// `expand` traversed; source rows have none and are dropped) carries
    /// property `name` with a value inside `range`. Runs as a decode
    /// filter over the relationship today — the rel-side sorted index
    /// dimension exists, so the planner hook for pushing this down to
    /// range postings is ready (ROADMAP follow-on). Same type-homogeneous
    /// range semantics as [`QueryBuilder::filter_property_range`].
    pub fn filter_rel_property_range(
        mut self,
        name: &str,
        range: impl std::ops::RangeBounds<PropertyValue>,
    ) -> Self {
        self.stages
            .push(Stage::RelRange(RangePred::from_range(name, range)));
        self
    }

    /// Equality form of [`QueryBuilder::filter_rel_property_range`]:
    /// keeps rows whose producing relationship has property `name` equal
    /// to `value` (index-key equality, like the node-side forms).
    pub fn filter_rel_property(mut self, name: &str, value: PropertyValue) -> Self {
        self.stages
            .push(Stage::RelRange(RangePred::equality(name, &value)));
        self
    }

    /// Keeps only nodes carrying `label`.
    pub fn has_label(mut self, label: &str) -> Self {
        self.stages.push(Stage::FilterLabel(label.to_owned()));
        self
    }

    /// Keeps only nodes for which `pred` returns `true`. The predicate
    /// receives the transaction, so it can run arbitrary snapshot reads.
    pub fn filter(mut self, pred: impl Fn(&Transaction, NodeId) -> Result<bool> + 'tx) -> Self {
        self.stages.push(Stage::Filter(Box::new(pred)));
        self
    }

    /// Expands every incoming node one hop along its relationships in
    /// `direction`, optionally restricted to relationships of type
    /// `rel_type`, yielding the far endpoints. Chain `expand` calls for
    /// multi-hop (k-hop) expansion; add [`QueryBuilder::distinct`] to
    /// deduplicate the frontier. Row terminals report the traversed
    /// relationship in [`Row::rel`].
    pub fn expand(mut self, direction: Direction, rel_type: Option<&str>) -> Self {
        self.stages.push(Stage::Expand {
            direction,
            rel_type: rel_type.map(str::to_owned),
        });
        self
    }

    /// Deduplicates the stream from this point on **by node** (keeps first
    /// occurrences, in stream order). Memory is proportional to the number
    /// of *distinct* rows that pass, not to the candidates scanned.
    pub fn distinct(mut self) -> Self {
        self.stages.push(Stage::Distinct);
        self
    }

    /// Stops after `n` results. Upstream cursors stop being pulled — and
    /// stop refilling chunks — as soon as the limit is reached.
    pub fn limit(mut self, n: usize) -> Self {
        self.stages.push(Stage::Limit(n));
        self
    }

    /// Orders the final result stream by property `name`, ascending.
    /// Rows lacking the property are **dropped** (the same semantics as
    /// an index range over it); ties stream in an unspecified order. When
    /// the planner can align the source's sorted index walk with the
    /// order key — pushdown on, no `expand`, no pending node writes — the
    /// walk itself is the sort: no buffer is allocated and the
    /// `ordered_index_streams` metric records it. Otherwise the terminal
    /// buffers, decodes the key per row and sorts. The last
    /// `order_by*`/`top_k*` call wins.
    pub fn order_by(mut self, name: &str) -> Self {
        self.order = Some(OrderSpec {
            name: name.to_owned(),
            descending: false,
            limit: None,
        });
        self
    }

    /// Descending form of [`QueryBuilder::order_by`], served by the
    /// reverse-direction range cursor when the order rides the index.
    pub fn order_by_desc(mut self, name: &str) -> Self {
        self.order = Some(OrderSpec {
            name: name.to_owned(),
            descending: true,
            limit: None,
        });
        self
    }

    /// The `n` smallest rows by property `name`: [`QueryBuilder::order_by`]
    /// plus a limit the planner threads **into the source** — a served
    /// top-k stops paging the index cursor as soon as `n` rows streamed
    /// (`topk_early_exits` records the early exit).
    pub fn top_k(mut self, name: &str, n: usize) -> Self {
        self.order = Some(OrderSpec {
            name: name.to_owned(),
            descending: false,
            limit: Some(n),
        });
        self
    }

    /// The `n` largest rows by property `name`; descending form of
    /// [`QueryBuilder::top_k`].
    pub fn top_k_desc(mut self, name: &str, n: usize) -> Self {
        self.order = Some(OrderSpec {
            name: name.to_owned(),
            descending: true,
            limit: Some(n),
        });
        self
    }

    /// Whether conjunctions may compile to a sorted-posting intersection
    /// (default `true`). `false` forces them onto the single-pushdown +
    /// decode-filter path: the reference path for equivalence tests.
    pub fn intersect(mut self, enabled: bool) -> Self {
        self.intersect = enabled;
        self
    }

    /// Overrides the cursor chunk size for this query only (defaults to
    /// the transaction's [`Transaction::scan_chunk_size`]).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = Some(chunk.max(1));
        self
    }

    /// Selects the properties the row terminals ([`QueryBuilder::rows`],
    /// [`QueryBuilder::stream_rows`]) decode per result row. Property
    /// names are resolved to tokens once at compile time, and each row's
    /// projected keys are decoded in a single selective chain walk at the
    /// **last** stage — a multi-hop expansion never materialises property
    /// lists for intermediate frontiers. Unknown names simply project to
    /// absent.
    pub fn project<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.projection = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Whether property predicates may be pushed into the versioned index
    /// (default `true`). `false` forces every property predicate onto the
    /// decode-filter path: the reference path for equivalence tests.
    pub fn pushdown(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// Compiles the pipeline: runs the planner over the declarative
    /// predicates, resolves every token once, and assembles the stage
    /// iterators.
    fn compile(self) -> Result<Compiled<'tx>> {
        if let Some(reason) = self.compose_error {
            return Err(crate::error::DbError::InvalidQuery(reason.to_owned()));
        }
        let tx = self.tx;
        let db = tx.db();
        let chunk = self.chunk_size.unwrap_or(tx.scan_chunk_size());
        let has_node_writes = tx.write_set_ref().is_some_and(|ws| !ws.nodes.is_empty());

        // Projection names resolve to tokens exactly once.
        let projection = self.projection.map(|names| {
            names
                .into_iter()
                .map(|name| {
                    let token = db.store.tokens().existing_property_key(&name);
                    (name, token)
                })
                .collect::<Vec<_>>()
        });

        // ---- Planner (crate::plan) -------------------------------------
        let plan = crate::plan::plan(
            db,
            self.source,
            self.stages,
            self.order,
            self.pushdown,
            self.intersect,
            has_node_writes,
        )?;
        if matches!(plan.source, SourcePlan::Empty) {
            return Ok(Compiled {
                tx,
                iter: Box::new(std::iter::empty()),
                projection,
            });
        }
        let budget = plan.source_budget;
        let topk = plan.topk;

        // ---- Assembly --------------------------------------------------
        let mut it: BoxedRowIter<'tx> = match plan.source {
            SourcePlan::Empty => Box::new(std::iter::empty()),
            SourcePlan::AllNodes => {
                row_source(NodeIdIter::all_nodes(tx, chunk)?.with_budget(budget, topk))
            }
            SourcePlan::Label(label) => {
                let preds = ScanPred::label(tx, &label).map(|p| vec![p]);
                row_source(
                    NodeIdIter::index_scan(tx, preds, chunk, false)?.with_budget(budget, topk),
                )
            }
            SourcePlan::IndexRange {
                pred, descending, ..
            } => {
                let preds = ScanPred::property(tx, &pred).map(|p| vec![p]);
                row_source(
                    NodeIdIter::index_scan(tx, preds, chunk, descending)?.with_budget(budget, topk),
                )
            }
            SourcePlan::Intersection {
                driver,
                legs,
                descending,
                ..
            } => {
                // The first predicate streams; the legs build.
                let preds = std::iter::once(&driver)
                    .chain(&legs)
                    .map(|p| ScanPred::property(tx, p))
                    .collect();
                row_source(
                    NodeIdIter::index_scan(tx, preds, chunk, descending)?.with_budget(budget, topk),
                )
            }
            SourcePlan::Fixed(ids) => Box::new(FixedSource {
                tx,
                ids: ids.into_iter(),
                failed: false,
            }),
        };
        for stage in plan.stages {
            it = match stage {
                Stage::Range(pred) => {
                    let token = db
                        .store
                        .tokens()
                        .existing_property_key(&pred.name)
                        .ok_or_else(|| {
                            DbError::Internal(
                                "dead-stage check let an unknown property key through".to_owned(),
                            )
                        })?;
                    Box::new(FilterIter {
                        tx,
                        upstream: it,
                        failed: false,
                        pred: Box::new(move |tx: &Transaction, id: NodeId| {
                            tx.db().metrics.property_decodes.add(1);
                            Ok(tx
                                .visible_node_property(id, token)?
                                .flatten()
                                .is_some_and(|v| pred.matches(&v)))
                        }),
                    })
                }
                Stage::FilterProperty(name, pred) => {
                    let token =
                        db.store
                            .tokens()
                            .existing_property_key(&name)
                            .ok_or_else(|| {
                                DbError::Internal(
                                    "dead-stage check let an unknown property key through"
                                        .to_owned(),
                                )
                            })?;
                    Box::new(FilterIter {
                        tx,
                        upstream: it,
                        failed: false,
                        pred: Box::new(move |tx: &Transaction, id: NodeId| {
                            tx.db().metrics.property_decodes.add(1);
                            Ok(tx
                                .visible_node_property(id, token)?
                                .flatten()
                                .is_some_and(|v| pred(&v)))
                        }),
                    })
                }
                Stage::FilterLabel(label) => {
                    let token = db.store.tokens().existing_label(&label).ok_or_else(|| {
                        DbError::Internal(
                            "dead-stage check let an unknown label through".to_owned(),
                        )
                    })?;
                    Box::new(FilterIter {
                        tx,
                        upstream: it,
                        failed: false,
                        pred: Box::new(move |tx: &Transaction, id: NodeId| {
                            let has =
                                tx.visible_node_labels(id, |labels| labels.contains(&token))?;
                            Ok(has.unwrap_or(false))
                        }),
                    })
                }
                Stage::Filter(pred) => Box::new(FilterIter {
                    tx,
                    upstream: it,
                    pred,
                    failed: false,
                }),
                Stage::Expand {
                    direction,
                    rel_type,
                } => {
                    let type_token = match &rel_type {
                        None => TypeFilter::Any,
                        Some(name) => match db.store.tokens().existing_rel_type(name) {
                            Some(t) => TypeFilter::Only(t),
                            // Name never interned: no relationship can match.
                            None => TypeFilter::NoMatch,
                        },
                    };
                    Box::new(ExpandIter {
                        tx,
                        upstream: it,
                        direction,
                        type_filter: type_token,
                        current: None,
                        chunk,
                        failed: false,
                    })
                }
                Stage::Distinct => Box::new(DistinctIter {
                    upstream: it,
                    seen: HashSet::new(),
                }),
                Stage::Limit(n) => Box::new(LimitIter {
                    upstream: it,
                    remaining: n,
                }),
                Stage::RelRange(pred) => {
                    let token = db
                        .store
                        .tokens()
                        .existing_property_key(&pred.name)
                        .ok_or_else(|| {
                            DbError::Internal(
                                "dead-stage check let an unknown rel property key through"
                                    .to_owned(),
                            )
                        })?;
                    Box::new(RelFilterIter {
                        tx,
                        upstream: it,
                        token,
                        pred,
                        failed: false,
                    })
                }
            };
        }
        if let Some(order) = plan.sort_fallback {
            let token = db
                .store
                .tokens()
                .existing_property_key(&order.name)
                .ok_or_else(|| {
                    DbError::Internal(
                        "dead-order check let an unknown order key through".to_owned(),
                    )
                })?;
            it = Box::new(SortFallbackIter {
                tx,
                upstream: Some(it),
                token,
                descending: order.descending,
                limit: order.limit,
                sorted: Vec::new().into_iter(),
                failed: false,
            });
        }
        Ok(Compiled {
            tx,
            iter: it,
            projection,
        })
    }

    /// Compiles the pipeline into a streaming, snapshot-consistent
    /// iterator over node IDs.
    pub fn stream(self) -> Result<QueryStream<'tx>> {
        Ok(QueryStream {
            inner: self.compile()?.iter,
        })
    }

    /// Compiles the pipeline into a streaming iterator over [`Row`]s:
    /// each result carries the node, the relationship the last `expand`
    /// traversed to reach it, and the properties selected with
    /// [`QueryBuilder::project`] — decoded once per row, at this final
    /// stage, through the selective single-walk chain decode.
    pub fn stream_rows(self) -> Result<RowStream<'tx>> {
        let compiled = self.compile()?;
        // Unknown names project to absent, so they are dropped here once;
        // the remaining (name, token) pairs and the bare token list are
        // fixed for the stream's lifetime — no per-row re-resolution.
        let projection: Vec<(String, graphsi_storage::PropertyKeyToken)> = compiled
            .projection
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(name, token)| token.map(|t| (name, t)))
            .collect();
        let tokens: Vec<graphsi_storage::PropertyKeyToken> =
            projection.iter().map(|(_, t)| *t).collect();
        Ok(RowStream {
            tx: compiled.tx,
            inner: compiled.iter,
            projection,
            tokens,
            failed: false,
        })
    }

    /// Runs the query and collects the resulting node IDs (in stream
    /// order).
    pub fn ids(self) -> Result<Vec<NodeId>> {
        self.stream()?.collect()
    }

    /// Runs the query and counts the results without collecting them.
    pub fn count(self) -> Result<usize> {
        let mut n = 0;
        for id in self.stream()? {
            id?;
            n += 1;
        }
        Ok(n)
    }

    /// Runs the query and materialises the resulting nodes (labels and
    /// properties resolved to names).
    pub fn nodes(self) -> Result<Vec<Node>> {
        let tx = self.tx;
        let mut out = Vec::new();
        for id in self.stream()? {
            let id = id?;
            if let Some(node) = tx.get_node(id)? {
                out.push(node);
            }
        }
        Ok(out)
    }

    /// Runs the query and collects the resulting [`Row`]s (in stream
    /// order). See [`QueryBuilder::stream_rows`].
    pub fn rows(self) -> Result<Vec<Row>> {
        self.stream_rows()?.collect()
    }
}

impl std::fmt::Debug for QueryBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("stages", &self.stages.len())
            .field("chunk_size", &self.chunk_size)
            .field("pushdown", &self.pushdown)
            .finish_non_exhaustive()
    }
}

/// One result of a row terminal: the node, the relationship the last
/// expansion stage traversed to reach it (`None` for source rows), and
/// the projected properties — only the keys selected with
/// [`QueryBuilder::project`], and only those present on the node, in
/// projection order.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The result node.
    pub node: NodeId,
    /// The relationship the last `expand` stage followed to produce this
    /// row, if the pipeline expanded.
    pub rel: Option<RelationshipId>,
    /// Projected `(name, value)` pairs, in projection order; keys absent
    /// on the node are omitted.
    pub properties: Vec<(String, PropertyValue)>,
}

impl Row {
    /// The projected value of `name`, if present.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }
}

/// The internal element every pipeline stage streams: a node plus the
/// relationship that produced it (set by expansion stages).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowCore {
    node: NodeId,
    rel: Option<RelationshipId>,
}

type BoxedRowIter<'tx> = Box<dyn Iterator<Item = Result<RowCore>> + 'tx>;

/// Output of [`QueryBuilder::compile`].
struct Compiled<'tx> {
    tx: &'tx Transaction,
    iter: BoxedRowIter<'tx>,
    projection: Option<Vec<(String, Option<graphsi_storage::PropertyKeyToken>)>>,
}

/// Adapts a bare node-ID iterator (the chunked scan sources) into the
/// row pipeline.
fn row_source<'tx, I>(ids: I) -> BoxedRowIter<'tx>
where
    I: Iterator<Item = Result<NodeId>> + 'tx,
{
    Box::new(ids.map(|r| r.map(|node| RowCore { node, rel: None })))
}

/// The compiled, streaming node-ID result of a [`QueryBuilder`]. Yields
/// `Result<NodeId>`; an error fuses the stream.
pub struct QueryStream<'tx> {
    inner: BoxedRowIter<'tx>,
}

impl Iterator for QueryStream<'_> {
    type Item = Result<NodeId>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.inner.next()?.map(|row| row.node))
    }
}

impl std::fmt::Debug for QueryStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryStream").finish_non_exhaustive()
    }
}

/// The compiled, streaming row result of a [`QueryBuilder`]; created by
/// [`QueryBuilder::stream_rows`]. Yields `Result<Row>`; an error fuses
/// the stream.
pub struct RowStream<'tx> {
    tx: &'tx Transaction,
    inner: BoxedRowIter<'tx>,
    /// Projected names with their (known) tokens, resolved once at compile.
    projection: Vec<(String, graphsi_storage::PropertyKeyToken)>,
    /// The bare token list `visible_node_properties` takes, in projection
    /// order — precomputed so the hot per-row path allocates nothing extra.
    tokens: Vec<graphsi_storage::PropertyKeyToken>,
    failed: bool,
}

impl Iterator for RowStream<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let core = match self.inner.next()? {
            Ok(core) => core,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        let mut properties = Vec::new();
        if !self.projection.is_empty() {
            // One selective chain walk decodes every projected key.
            let values = match self.tx.visible_node_properties(core.node, &self.tokens) {
                Ok(values) => values.unwrap_or_default(),
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            for ((name, _), value) in self.projection.iter().zip(values) {
                if let Some(value) = value {
                    properties.push((name.clone(), value));
                }
            }
        }
        Some(Ok(Row {
            node: core.node,
            rel: core.rel,
            properties,
        }))
    }
}

impl std::fmt::Debug for RowStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowStream")
            .field("projection", &self.projection.len())
            .finish_non_exhaustive()
    }
}

/// Explicit start set, visibility-checked as it streams.
struct FixedSource<'tx> {
    tx: &'tx Transaction,
    ids: std::vec::IntoIter<NodeId>,
    failed: bool,
}

impl Iterator for FixedSource<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        for id in self.ids.by_ref() {
            match self.tx.node_visible(id) {
                Ok(true) => {
                    return Some(Ok(RowCore {
                        node: id,
                        rel: None,
                    }))
                }
                Ok(false) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

/// Filter stage: keeps rows whose node satisfies a snapshot predicate.
struct FilterIter<'tx> {
    tx: &'tx Transaction,
    upstream: BoxedRowIter<'tx>,
    pred: NodePredicate<'tx>,
    failed: bool,
}

impl Iterator for FilterIter<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        for row in self.upstream.by_ref() {
            match row.and_then(|row| (self.pred)(self.tx, row.node).map(|keep| (row, keep))) {
                Ok((row, true)) => return Some(Ok(row)),
                Ok((_, false)) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

/// How an expansion stage restricts relationship types.
enum TypeFilter {
    Any,
    Only(RelTypeToken),
    /// The requested type name was never interned: nothing matches.
    NoMatch,
}

/// Expansion stage: one hop along the relationships of each upstream node,
/// streaming the far endpoints (tagged with the relationship traversed).
/// Holds one upstream node's enriched relationship iterator at a time —
/// O(frontier + chunk) memory.
struct ExpandIter<'tx> {
    tx: &'tx Transaction,
    upstream: BoxedRowIter<'tx>,
    direction: Direction,
    type_filter: TypeFilter,
    current: Option<(NodeId, RelEntryIter<'tx>)>,
    chunk: usize,
    failed: bool,
}

impl Iterator for ExpandIter<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if matches!(self.type_filter, TypeFilter::NoMatch) {
            return None;
        }
        loop {
            if let Some((node, rels)) = &mut self.current {
                let node = *node;
                for rel in rels.by_ref() {
                    match rel {
                        Ok((id, data)) => {
                            if let TypeFilter::Only(t) = self.type_filter {
                                if data.rel_type != t {
                                    continue;
                                }
                            }
                            return Some(Ok(RowCore {
                                node: data.other_node(node),
                                rel: Some(id),
                            }));
                        }
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                self.current = None;
            }
            match self.upstream.next() {
                Some(Ok(row)) => {
                    match self
                        .tx
                        .neighbors_or_empty(row.node, self.direction, self.chunk)
                    {
                        Ok(rels) => self.current = Some((row.node, rels)),
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                None => return None,
            }
        }
    }
}

/// Distinct stage: keeps the first row per node.
struct DistinctIter<'tx> {
    upstream: BoxedRowIter<'tx>,
    seen: HashSet<NodeId>,
}

impl Iterator for DistinctIter<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        for row in self.upstream.by_ref() {
            match row {
                Ok(row) => {
                    if self.seen.insert(row.node) {
                        return Some(Ok(row));
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        None
    }
}

/// Limit stage: stops pulling upstream once `remaining` results streamed.
struct LimitIter<'tx> {
    upstream: BoxedRowIter<'tx>,
    remaining: usize,
}

impl Iterator for LimitIter<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        match self.upstream.next() {
            Some(Ok(row)) => {
                self.remaining -= 1;
                Some(Ok(row))
            }
            other => other,
        }
    }
}

/// Relationship-property filter stage: keeps rows whose *relationship*
/// (the one the last `expand` traversed) satisfies a range predicate.
/// Decode fallback — the relationship property is read per row; rows
/// without a relationship (pure node sources) are dropped, as are rows
/// whose relationship lacks the key.
struct RelFilterIter<'tx> {
    tx: &'tx Transaction,
    upstream: BoxedRowIter<'tx>,
    token: PropertyKeyToken,
    pred: RangePred,
    failed: bool,
}

impl Iterator for RelFilterIter<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        for row in self.upstream.by_ref() {
            let row = match row {
                Ok(row) => row,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            let Some(rid) = row.rel else { continue };
            self.tx.db().metrics.property_decodes.add(1);
            // visible_relationship folds in this transaction's own pending
            // writes, so read-your-own-writes holds here too.
            match self.tx.visible_relationship(rid) {
                Ok(Some(data)) => {
                    if data
                        .properties
                        .get(&self.token)
                        .is_some_and(|v| self.pred.matches(v))
                    {
                        return Some(Ok(row));
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

/// Sort fallback: when the planner cannot serve an `order_by` straight
/// off the index walk it pins this terminal stage, which drains the
/// upstream, decodes the order key per row (rows lacking the key are
/// dropped — consistent with the served path, where keyless nodes never
/// appear in the posting walk), sorts by the key's index ordering and
/// replays. `candidate_buffer_peak` records the buffered row count so
/// benchmarks can prove the served path allocates no such buffer.
struct SortFallbackIter<'tx> {
    tx: &'tx Transaction,
    upstream: Option<BoxedRowIter<'tx>>,
    token: PropertyKeyToken,
    descending: bool,
    limit: Option<usize>,
    sorted: std::vec::IntoIter<RowCore>,
    failed: bool,
}

impl Iterator for SortFallbackIter<'_> {
    type Item = Result<RowCore>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if let Some(upstream) = self.upstream.take() {
            let mut buf: Vec<(ValueKey, RowCore)> = Vec::new();
            for row in upstream {
                let row = match row {
                    Ok(row) => row,
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                };
                self.tx.db().metrics.property_decodes.add(1);
                match self.tx.visible_node_property(row.node, self.token) {
                    Ok(Some(Some(v))) => buf.push((v.index_key(), row)),
                    Ok(_) => {}
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                }
            }
            self.tx
                .db()
                .metrics
                .candidate_buffer_peak
                .max(buf.len() as u64);
            if self.descending {
                buf.sort_by(|a, b| b.0.cmp(&a.0));
            } else {
                buf.sort_by(|a, b| a.0.cmp(&b.0));
            }
            if let Some(n) = self.limit {
                buf.truncate(n);
            }
            self.sorted = buf
                .into_iter()
                .map(|(_, row)| row)
                .collect::<Vec<_>>()
                .into_iter();
        }
        self.sorted.next().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Bound;

    use crate::config::DbConfig;
    use crate::db::GraphDb;
    use crate::entity::Direction;
    use graphsi_storage::test_util::TempDir;
    use graphsi_storage::{NodeId, PropertyValue};

    fn social_graph(db: &GraphDb) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut tx = db.begin();
        let people: Vec<NodeId> = (0..6)
            .map(|i| {
                tx.create_node(
                    &["Person"],
                    &[("age", PropertyValue::Int(20 + 5 * i as i64))],
                )
                .unwrap()
            })
            .collect();
        let cities: Vec<NodeId> = (0..2)
            .map(|_| tx.create_node(&["City"], &[]).unwrap())
            .collect();
        // people[i] KNOWS people[i+1]; everyone LIVES_IN a city.
        for pair in people.windows(2) {
            tx.create_relationship(pair[0], pair[1], "KNOWS", &[])
                .unwrap();
        }
        for (i, &p) in people.iter().enumerate() {
            tx.create_relationship(p, cities[i % 2], "LIVES_IN", &[])
                .unwrap();
        }
        tx.commit().unwrap();
        (people, cities)
    }

    #[test]
    fn label_filter_expand_distinct_limit_compose() {
        let dir = TempDir::new("query_compose");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, cities) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        // Cities where people aged >= 30 live.
        let mut homes = tx
            .query()
            .nodes_with_label("Person")
            .filter_property("age", |v| v.as_int().is_some_and(|a| a >= 30))
            .expand(Direction::Outgoing, Some("LIVES_IN"))
            .distinct()
            .ids()
            .unwrap();
        homes.sort();
        let mut expected = cities.clone();
        expected.sort();
        assert_eq!(homes, expected);

        // Two-hop KNOWS expansion from the chain head.
        let two_hops = tx
            .query()
            .start_nodes([people[0]])
            .expand(Direction::Outgoing, Some("KNOWS"))
            .expand(Direction::Outgoing, Some("KNOWS"))
            .ids()
            .unwrap();
        assert_eq!(two_hops, vec![people[2]]);

        // Limit stops the stream early.
        let limited = tx
            .query()
            .nodes_with_label("Person")
            .limit(2)
            .count()
            .unwrap();
        assert_eq!(limited, 2);
    }

    #[test]
    fn range_predicate_pushes_down_to_the_index() {
        let dir = TempDir::new("query_pushdown");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        let before = db.metrics();
        let mut adults = tx
            .query()
            .filter_property_range("age", PropertyValue::Int(30)..=PropertyValue::Int(40))
            .ids()
            .unwrap();
        adults.sort();
        // Ages 30, 35, 40 -> people[2..=4].
        let mut expected = people[2..=4].to_vec();
        expected.sort();
        assert_eq!(adults, expected);
        let after = db.metrics();
        assert_eq!(
            after.predicate_pushdowns,
            before.predicate_pushdowns + 1,
            "the range predicate must compile to an index range source"
        );
        assert_eq!(after.property_decodes, before.property_decodes);
        assert_eq!(
            after.decode_filter_fallbacks,
            before.decode_filter_fallbacks
        );
    }

    #[test]
    fn pushdown_disabled_takes_the_decode_path_with_identical_results() {
        let dir = TempDir::new("query_no_pushdown");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        social_graph(&db);
        let tx = db.txn().read_only().begin();

        let range = || PropertyValue::Int(25)..PropertyValue::Int(45);
        let mut pushed = tx
            .query()
            .filter_property_range("age", range())
            .ids()
            .unwrap();
        let before = db.metrics();
        let mut decoded = tx
            .query()
            .filter_property_range("age", range())
            .pushdown(false)
            .ids()
            .unwrap();
        let after = db.metrics();
        pushed.sort();
        decoded.sort();
        assert_eq!(pushed, decoded, "both paths agree on the result set");
        assert_eq!(
            after.decode_filter_fallbacks,
            before.decode_filter_fallbacks + 1
        );
        assert!(
            after.property_decodes > before.property_decodes,
            "the decode path pays per-candidate property materialisations"
        );
    }

    #[test]
    fn pushdown_disabled_demotes_equality_sources_too() {
        let dir = TempDir::new("query_no_pushdown_eq");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();
        let before = db.metrics();
        let hit = tx
            .query()
            .nodes_with_property("age", PropertyValue::Int(25))
            .pushdown(false)
            .ids()
            .unwrap();
        assert_eq!(hit, vec![people[1]]);
        let after = db.metrics();
        assert_eq!(
            after.predicate_pushdowns, before.predicate_pushdowns,
            "with pushdown disabled no predicate may execute on the index"
        );
        assert_eq!(
            after.decode_filter_fallbacks,
            before.decode_filter_fallbacks + 1
        );
        assert!(after.property_decodes > before.property_decodes);
    }

    #[test]
    fn comparison_forms_compile_and_agree() {
        let dir = TempDir::new("query_cmp_forms");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        let ge = tx
            .query()
            .filter_property_range("age", PropertyValue::Int(35)..)
            .count()
            .unwrap();
        assert_eq!(ge, 3); // 35, 40, 45
        let gt = tx
            .query()
            .filter_property_range(
                "age",
                (Bound::Excluded(PropertyValue::Int(35)), Bound::Unbounded),
            )
            .count()
            .unwrap();
        assert_eq!(gt, 2);
        let le = tx
            .query()
            .filter_property_range("age", ..=PropertyValue::Int(25))
            .count()
            .unwrap();
        assert_eq!(le, 2); // 20, 25
        let lt = tx
            .query()
            .filter_property_range("age", ..PropertyValue::Int(25))
            .ids()
            .unwrap();
        assert_eq!(lt, vec![people[0]]);
    }

    #[test]
    fn planner_swaps_label_source_for_a_narrower_range() {
        let dir = TempDir::new("query_swap");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        // 6 Person postings vs 1 age=25 posting: the planner must scan the
        // property index and label-check the survivors.
        let before = db.metrics();
        let hit = tx
            .query()
            .nodes_with_label("Person")
            .nodes_with_property("age", PropertyValue::Int(25))
            .ids()
            .unwrap();
        assert_eq!(hit, vec![people[1]]);
        let after = db.metrics();
        assert_eq!(after.predicate_pushdowns, before.predicate_pushdowns + 1);
        assert_eq!(
            after.decode_filter_fallbacks,
            before.decode_filter_fallbacks
        );
    }

    #[test]
    fn redundant_equality_after_property_source_is_elided() {
        let dir = TempDir::new("query_dedup_eq");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        social_graph(&db);
        let tx = db.txn().read_only().begin();
        let before = db.metrics();
        let count = tx
            .query()
            .nodes_with_property("age", PropertyValue::Int(25))
            .nodes_with_property("age", PropertyValue::Int(25))
            .count()
            .unwrap();
        assert_eq!(count, 1);
        let after = db.metrics();
        assert_eq!(
            after.property_decodes, before.property_decodes,
            "the index source already guarantees the equality — no \
             per-node re-decode"
        );
        assert_eq!(
            after.decode_filter_fallbacks,
            before.decode_filter_fallbacks
        );
        // A *different* equality on the same source still filters.
        let none = tx
            .query()
            .nodes_with_property("age", PropertyValue::Int(25))
            .nodes_with_property("age", PropertyValue::Int(30))
            .count()
            .unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn range_source_merges_write_set_state() {
        let dir = TempDir::new("query_range_ws");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);

        let mut tx = db.begin();
        // Pending creation inside the range.
        let fresh = tx
            .create_node(&["Person"], &[("age", PropertyValue::Int(33))])
            .unwrap();
        // Move people[2] (age 30) out of the range, people[0] (age 20) in.
        tx.set_node_property(people[2], "age", PropertyValue::Int(99))
            .unwrap();
        tx.set_node_property(people[0], "age", PropertyValue::Int(31))
            .unwrap();

        let mut got = tx
            .query()
            .filter_property_range("age", PropertyValue::Int(30)..=PropertyValue::Int(40))
            .ids()
            .unwrap();
        got.sort();
        // Expected: people[3]=35, people[4]=40 (untouched), fresh=33,
        // people[0]=31 (moved in); people[2] moved out.
        let mut expected = vec![people[3], people[4], fresh, people[0]];
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn rows_carry_rel_and_projection() {
        let dir = TempDir::new("query_rows");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        // Source rows: no rel, projected age present.
        let rows = tx
            .query()
            .nodes_with_property("age", PropertyValue::Int(25))
            .project(["age", "nope"])
            .rows()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].node, people[1]);
        assert_eq!(rows[0].rel, None);
        assert_eq!(rows[0].property("age"), Some(&PropertyValue::Int(25)));
        assert_eq!(rows[0].property("nope"), None);

        // Expanded rows: rel names the traversed relationship, projection
        // decodes at the final stage.
        let rows = tx
            .query()
            .start_nodes([people[0]])
            .expand(Direction::Outgoing, Some("KNOWS"))
            .project(["age"])
            .rows()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].node, people[1]);
        let rel = rows[0].rel.expect("expansion tags the relationship");
        let rel = tx.get_relationship(rel).unwrap().unwrap();
        assert_eq!((rel.source, rel.target), (people[0], people[1]));
        assert_eq!(rows[0].property("age"), Some(&PropertyValue::Int(25)));

        // Without a projection, rows carry no properties.
        let bare = tx.query().nodes_with_label("City").rows().unwrap();
        assert!(bare
            .iter()
            .all(|r| r.properties.is_empty() && r.rel.is_none()));
    }

    #[test]
    fn query_is_snapshot_consistent_and_reads_own_writes() {
        let dir = TempDir::new("query_snapshot");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);

        let mut tx = db.begin();
        let fresh = tx.create_node(&["Person"], &[]).unwrap();
        tx.create_relationship(people[0], fresh, "KNOWS", &[])
            .unwrap();
        // Own pending writes are visible...
        let own = tx
            .query()
            .start_nodes([people[0]])
            .expand(Direction::Outgoing, Some("KNOWS"))
            .ids()
            .unwrap();
        assert!(own.contains(&fresh));
        assert!(own.contains(&people[1]));
        // ...but invisible to a concurrent snapshot.
        let other = db.txn().read_only().begin();
        let others = other.query().nodes_with_label("Person").count().unwrap();
        assert_eq!(others, 6);
        drop(other);
    }

    #[test]
    fn unknown_names_yield_empty_streams() {
        let dir = TempDir::new("query_unknown");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.begin();
        assert_eq!(tx.query().nodes_with_label("Nope").count().unwrap(), 0);
        assert_eq!(
            tx.query()
                .start_nodes(people.clone())
                .expand(Direction::Both, Some("NO_SUCH_TYPE"))
                .count()
                .unwrap(),
            0
        );
        // Unknown property key compiles to a cheap empty stream — no
        // decode pass that filters everything out.
        let before = db.metrics();
        assert_eq!(
            tx.query()
                .nodes_with_label("Person")
                .filter_property("nope", |_| true)
                .count()
                .unwrap(),
            0
        );
        assert_eq!(
            tx.query()
                .filter_property_range("nope", PropertyValue::Int(0)..)
                .count()
                .unwrap(),
            0
        );
        let after = db.metrics();
        assert_eq!(
            after.property_decodes, before.property_decodes,
            "unknown keys must not decode anything"
        );
        // Mixed-type (unsatisfiable) bounds are empty too, not wrong.
        assert_eq!(
            tx.query()
                .filter_property_range(
                    "age",
                    PropertyValue::Int(0)..=PropertyValue::String("z".into())
                )
                .count()
                .unwrap(),
            0
        );
    }

    #[test]
    fn a_dead_source_predicate_survives_intersection_planning() {
        let dir = TempDir::new("query_dead_source");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        social_graph(&db);
        let tx = db.begin();
        // Two pushable stages after a source predicate that no node can
        // satisfy: the intersection must not replace that source and
        // forget it.
        let dead_sources = [
            tx.query()
                .nodes_with_property("nope", PropertyValue::Int(1)),
            tx.query().filter_property_range(
                "age",
                PropertyValue::Int(0)..=PropertyValue::String("z".into()),
            ),
        ];
        for query in dead_sources {
            let rows = query
                .filter_property_range("age", PropertyValue::Int(20)..)
                .filter_property_range("age", ..=PropertyValue::Int(40))
                .count()
                .unwrap();
            assert_eq!(rows, 0);
        }
    }

    #[test]
    fn nodes_terminal_materialises_public_nodes() {
        let dir = TempDir::new("query_nodes");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        social_graph(&db);
        let tx = db.begin();
        let nodes = tx
            .query()
            .nodes_with_label("Person")
            .filter_property("age", |v| v == &PropertyValue::Int(20))
            .nodes()
            .unwrap();
        assert_eq!(nodes.len(), 1);
        assert!(nodes[0].labels.contains(&"Person".to_owned()));
    }

    #[test]
    fn source_after_stages_is_an_error_not_silent_misbehavior() {
        let dir = TempDir::new("query_compose_err");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.begin();
        let err = tx
            .query()
            .nodes_with_label("Person")
            .expand(Direction::Outgoing, None)
            .start_nodes(people)
            .ids()
            .unwrap_err();
        assert!(matches!(err, crate::error::DbError::InvalidQuery(_)));
    }

    #[test]
    fn per_query_chunk_size_applies_to_every_source() {
        let dir = TempDir::new("query_chunk_all");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        social_graph(&db);
        let tx = db.txn().read_only().begin();
        assert_eq!(tx.query().all_nodes().chunk_size(2).count().unwrap(), 8);
        let peak = db.metrics().candidate_buffer_peak;
        assert!(
            peak <= 2,
            "all_nodes must honor the per-query chunk override (peak {peak})"
        );
    }

    #[test]
    fn chained_source_calls_degrade_to_filters() {
        let dir = TempDir::new("query_chain_src");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, cities) = social_graph(&db);
        let _ = (people, cities);
        let tx = db.begin();
        // Person ∩ (age == 25): second call becomes a filter (which the
        // planner may execute on either index).
        let count = tx
            .query()
            .nodes_with_label("Person")
            .nodes_with_property("age", PropertyValue::Int(25))
            .count()
            .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn order_by_streams_off_the_index() {
        let dir = TempDir::new("query_order_served");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        // Served ascending: the range source's sorted walk IS the order.
        let before = db.metrics();
        let asc = tx
            .query()
            .filter_property_range("age", PropertyValue::Int(25)..=PropertyValue::Int(40))
            .order_by("age")
            .ids()
            .unwrap();
        assert_eq!(asc, people[1..=4].to_vec(), "ages 25,30,35,40 in order");
        let after = db.metrics();
        assert_eq!(
            after.ordered_index_streams,
            before.ordered_index_streams + 1
        );
        assert_eq!(
            after.property_decodes, before.property_decodes,
            "the served path decodes nothing and buffers nothing"
        );

        // Served descending rides the reverse-direction range cursor.
        let desc = tx
            .query()
            .filter_property_range("age", PropertyValue::Int(25)..=PropertyValue::Int(40))
            .order_by_desc("age")
            .ids()
            .unwrap();
        let mut expected = people[1..=4].to_vec();
        expected.reverse();
        assert_eq!(desc, expected);

        // An order key with no predicate serves off an unbounded walk of
        // the whole sorted key dimension (nodes lacking the key — the
        // cities — never appear in the posting walk).
        let all = tx.query().order_by("age").ids().unwrap();
        assert_eq!(all, people);
    }

    #[test]
    fn top_k_early_exits_and_bounds_paging() {
        let dir = TempDir::new("query_topk");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let nodes: Vec<NodeId> = (0..60)
            .map(|i| {
                tx.create_node(&["N"], &[("score", PropertyValue::Int((i * 7919) % 1000))])
                    .unwrap()
            })
            .collect();
        tx.commit().unwrap();
        let tx = db.txn().read_only().begin();

        let mut by_score: Vec<(i64, NodeId)> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (((i as i64) * 7919) % 1000, n))
            .collect();
        by_score.sort();

        let before = db.metrics();
        let top = tx.query().top_k("score", 5).chunk_size(8).ids().unwrap();
        let after = db.metrics();
        let expected: Vec<NodeId> = by_score.iter().take(5).map(|&(_, n)| n).collect();
        assert_eq!(top, expected, "top-k = the 5 smallest scores, in order");
        assert_eq!(
            after.topk_early_exits,
            before.topk_early_exits + 1,
            "the budget must stop the stream before the base drains"
        );
        assert!(
            after.chunk_refills - before.chunk_refills <= 5,
            "limit pushdown clamps the cursor: refills ({}) must not \
             outgrow the row budget",
            after.chunk_refills - before.chunk_refills
        );
        assert_eq!(
            after.property_decodes, before.property_decodes,
            "served top-k allocates no sort buffer and decodes nothing"
        );

        // Descending top-k: the 5 largest, largest first.
        let bottom = tx.query().top_k_desc("score", 5).ids().unwrap();
        let expected: Vec<NodeId> = by_score.iter().rev().take(5).map(|&(_, n)| n).collect();
        assert_eq!(bottom, expected);
    }

    #[test]
    fn limit_pushdown_stops_paging_a_pure_index_source() {
        let dir = TempDir::new("query_limit_budget");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        for _ in 0..80 {
            tx.create_node(&["Bulk"], &[]).unwrap();
        }
        tx.commit().unwrap();
        let tx = db.txn().read_only().begin();
        let before = db.metrics();
        let n = tx
            .query()
            .nodes_with_label("Bulk")
            .limit(3)
            .chunk_size(16)
            .count()
            .unwrap();
        let after = db.metrics();
        assert_eq!(n, 3);
        assert!(
            after.chunk_refills - before.chunk_refills <= 3,
            "a leading limit's budget must reach the posting cursor, not \
             drain full chunks ({} refills)",
            after.chunk_refills - before.chunk_refills
        );
    }

    #[test]
    fn order_by_falls_back_to_a_buffered_sort_when_unserveable() {
        let dir = TempDir::new("query_order_fallback");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let (people, _) = social_graph(&db);
        let tx = db.txn().read_only().begin();

        // An expansion between source and order: the stream order is the
        // expansion's, so the planner pins the sort-fallback terminal.
        let before = db.metrics();
        let got = tx
            .query()
            .start_nodes([people[2]])
            .expand(Direction::Both, Some("KNOWS"))
            .order_by_desc("age")
            .ids()
            .unwrap();
        assert_eq!(got, vec![people[3], people[1]], "ages 35, 25");
        let after = db.metrics();
        assert_eq!(
            after.ordered_index_streams, before.ordered_index_streams,
            "an expansion downstream of the source cannot be served"
        );
        assert!(after.property_decodes > before.property_decodes);

        // A transaction with pending node writes can't trust the committed
        // posting order either — but the fallback still sees own writes.
        let mut tx = db.begin();
        let fresh = tx
            .create_node(&["Person"], &[("age", PropertyValue::Int(22))])
            .unwrap();
        let got = tx
            .query()
            .filter_property_range("age", PropertyValue::Int(20)..=PropertyValue::Int(25))
            .order_by("age")
            .ids()
            .unwrap();
        assert_eq!(got, vec![people[0], fresh, people[1]], "ages 20, 22, 25");
    }

    #[test]
    fn intersection_agrees_with_the_decode_path_and_decodes_less() {
        let dir = TempDir::new("query_intersect");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let nodes: Vec<NodeId> = (0..40)
            .map(|i| {
                tx.create_node(
                    &["N"],
                    &[
                        ("a", PropertyValue::Int(i % 10)),
                        ("b", PropertyValue::Int(i % 4)),
                    ],
                )
                .unwrap()
            })
            .collect();
        tx.commit().unwrap();
        let tx = db.txn().read_only().begin();

        let q = |tx: &crate::transaction::Transaction, on: bool| {
            tx.query()
                .filter_property_range("a", PropertyValue::Int(2)..=PropertyValue::Int(4))
                .filter_property_range("b", PropertyValue::Int(1)..=PropertyValue::Int(2))
                .intersect(on)
                .ids()
                .unwrap()
        };
        let before = db.metrics();
        let mut merged = q(&tx, true);
        let mid = db.metrics();
        let mut chained = q(&tx, false);
        let after = db.metrics();
        merged.sort();
        chained.sort();
        let mut expected: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| (2..=4).contains(&(i % 10)) && (1..=2).contains(&(i % 4)))
            .map(|(_, &n)| n)
            .collect();
        expected.sort();
        assert_eq!(merged, expected);
        assert_eq!(chained, expected);
        assert_eq!(
            mid.intersection_pushdowns,
            before.intersection_pushdowns + 1
        );
        assert_eq!(
            mid.predicate_pushdowns,
            before.predicate_pushdowns + 2,
            "both legs execute on the index"
        );
        let merged_decodes = mid.property_decodes - before.property_decodes;
        let chained_decodes = after.property_decodes - mid.property_decodes;
        assert_eq!(merged_decodes, 0, "the merge-intersect never decodes");
        assert!(
            merged_decodes < chained_decodes,
            "intersection must beat single-pushdown + decode-filter \
             ({merged_decodes} vs {chained_decodes})"
        );
        assert!(
            mid.intersection_leg_skips > before.intersection_leg_skips,
            "driver candidates outside a leg are skipped by binary search"
        );
    }

    #[test]
    fn intersection_merges_write_set_state() {
        let dir = TempDir::new("query_intersect_ws");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let keep = tx
            .create_node(
                &["N"],
                &[("a", PropertyValue::Int(5)), ("b", PropertyValue::Int(5))],
            )
            .unwrap();
        let evict = tx
            .create_node(
                &["N"],
                &[("a", PropertyValue::Int(5)), ("b", PropertyValue::Int(5))],
            )
            .unwrap();
        let outside = tx
            .create_node(
                &["N"],
                &[("a", PropertyValue::Int(0)), ("b", PropertyValue::Int(5))],
            )
            .unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        // Move `evict` out of leg b; move `outside` into leg a; create a
        // fresh pending match the committed indexes know nothing about.
        tx.set_node_property(evict, "b", PropertyValue::Int(99))
            .unwrap();
        tx.set_node_property(outside, "a", PropertyValue::Int(5))
            .unwrap();
        let fresh = tx
            .create_node(
                &["N"],
                &[("a", PropertyValue::Int(5)), ("b", PropertyValue::Int(5))],
            )
            .unwrap();
        let mut got = tx
            .query()
            .filter_property_range("a", PropertyValue::Int(1)..=PropertyValue::Int(9))
            .filter_property_range("b", PropertyValue::Int(1)..=PropertyValue::Int(9))
            .ids()
            .unwrap();
        got.sort();
        let mut expected = vec![keep, outside, fresh];
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn ordered_intersection_streams_off_the_driver() {
        let dir = TempDir::new("query_intersect_order");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let nodes: Vec<NodeId> = (0..20)
            .map(|i| {
                tx.create_node(
                    &["N"],
                    &[
                        ("a", PropertyValue::Int(i)),
                        ("b", PropertyValue::Int(i % 3)),
                    ],
                )
                .unwrap()
            })
            .collect();
        tx.commit().unwrap();
        let tx = db.txn().read_only().begin();
        let before = db.metrics();
        let got = tx
            .query()
            .filter_property_range("a", PropertyValue::Int(5)..=PropertyValue::Int(15))
            .filter_property_range("b", PropertyValue::Int(0)..=PropertyValue::Int(0))
            .order_by_desc("a")
            .ids()
            .unwrap();
        let after = db.metrics();
        // a ∈ [5,15] ∧ a ≡ 0 (mod 3), descending by a: 15, 12, 9, 6.
        let expected: Vec<NodeId> = [15usize, 12, 9, 6].iter().map(|&i| nodes[i]).collect();
        assert_eq!(got, expected);
        assert_eq!(
            after.ordered_index_streams,
            before.ordered_index_streams + 1
        );
        assert_eq!(after.property_decodes, before.property_decodes);
    }

    #[test]
    fn rel_property_predicates_filter_expanded_rows() {
        let dir = TempDir::new("query_rel_pred");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let hub = tx.create_node(&["Hub"], &[]).unwrap();
        let spokes: Vec<NodeId> = (0..5)
            .map(|i| {
                let s = tx.create_node(&["Spoke"], &[]).unwrap();
                tx.create_relationship(
                    hub,
                    s,
                    "LINK",
                    &[("weight", PropertyValue::Int(i as i64 * 10))],
                )
                .unwrap();
                s
            })
            .collect();
        tx.commit().unwrap();
        let tx = db.txn().read_only().begin();

        let mut heavy = tx
            .query()
            .start_nodes([hub])
            .expand(Direction::Outgoing, Some("LINK"))
            .filter_rel_property_range("weight", PropertyValue::Int(20)..)
            .ids()
            .unwrap();
        heavy.sort();
        let mut expected = spokes[2..].to_vec();
        expected.sort();
        assert_eq!(heavy, expected);

        // Equality form; and rows without a relationship are dropped.
        assert_eq!(
            tx.query()
                .start_nodes([hub])
                .expand(Direction::Outgoing, Some("LINK"))
                .filter_rel_property("weight", PropertyValue::Int(30))
                .ids()
                .unwrap(),
            vec![spokes[3]]
        );
        assert_eq!(
            tx.query()
                .nodes_with_label("Spoke")
                .filter_rel_property_range("weight", PropertyValue::Int(0)..)
                .count()
                .unwrap(),
            0,
            "source rows carry no relationship to test"
        );
    }
}
