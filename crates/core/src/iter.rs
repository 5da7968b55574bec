//! Snapshot-consistent, **chunked** lazy iterators over a transaction's
//! view.
//!
//! Candidates come from resumable, GC-safe cursors — the store's
//! relationship/slot chains ([`graphsi_storage::RelChainCursor`],
//! [`graphsi_storage::NodeScanCursor`]), the versioned index postings
//! ([`graphsi_index::RangePostingCursor`]) and the MVCC cache's shard
//! pages — each buffering at most one fixed-size chunk of bare IDs and
//! re-validating its position on every refill, so concurrent commits and
//! GC above the watermark are safe. (One scoped
//! exception: the whole-graph scans' cache stage transiently stages one
//! cache shard's key set at a time, bounded by the largest shard and
//! tracked by the `shard_key_buffer_peak` metric — see `ScanSource`.)
//! The paper's
//! *enriched iterator* (§4) still happens here, but per element: every
//! candidate is merged with the version cache overlay and the
//! transaction's private write set only when the iterator reaches it, so a
//! k-hop expansion over a million-node graph holds O(frontier + chunk)
//! memory instead of O(candidates).
//!
//! Every index-backed node source — label, property equality, range and
//! sorted-posting intersection — is one scan ([`NodeIdIter`] over a list
//! of label and range predicates): the first predicate's posting cursor
//! drives, the others are probed in sorted build sides, and one rule
//! merges the write set — a written node is judged by its after-state
//! against every predicate, with the same index-key equality the postings
//! use, and a written node the postings cannot yield joins a pending list.

use std::collections::HashSet;
use std::ops::Bound;

use graphsi_index::{bound_as_ref, PropertyIndexKey, RangePostingCursor};
use graphsi_storage::{
    LabelToken, NodeId, NodeScanCursor, PropertyKeyToken, RelChainCursor, RelScanCursor,
    RelationshipId, ValueKey,
};
use graphsi_txn::Timestamp;

use crate::entity::{Direction, NodeData, Relationship, RelationshipData};
use crate::error::Result;
use crate::plan::{value_key_in_bounds, RangePred};
use crate::transaction::Transaction;

// ----------------------------------------------------------------------
// Committed relationship candidates: chain cursor ∪ overlay pages
// ----------------------------------------------------------------------

/// Where the committed-candidate cursor currently draws IDs from.
enum RelStage<'tx> {
    /// The persistent relationship chain, paged by the store cursor.
    Chain(RelChainCursor<'tx>),
    /// The version-cache overlay (relationships with cached versions
    /// touching the node), paged by ID order with a resume marker.
    Overlay {
        marker: Option<RelationshipId>,
    },
    Done,
}

/// Chunked source of committed candidate relationship IDs for one node:
/// first the persistent chain, then the overlay of relationships whose
/// versions live only in the MVCC cache (the enriched-iterator merge).
/// Buffers at most one chunk; holds no lock between refills.
struct RelCandidateCursor<'tx> {
    tx: &'tx Transaction,
    node: NodeId,
    chunk: usize,
    buf: Vec<RelationshipId>,
    pos: usize,
    /// Chain-cursor restarts already flushed to the metrics. Flushing the
    /// delta after every refill (not at exhaustion) keeps the
    /// `cursor_restarts` counter accurate even when the iterator is
    /// dropped early (a `limit`, an aborted traversal).
    restarts_reported: u64,
    stage: RelStage<'tx>,
}

impl<'tx> RelCandidateCursor<'tx> {
    fn new(tx: &'tx Transaction, node: NodeId, chunk: usize) -> Result<Self> {
        let cursor = tx.db().store.rel_chain_cursor(node, chunk)?;
        Ok(RelCandidateCursor {
            tx,
            node,
            chunk,
            buf: Vec::new(),
            pos: 0,
            restarts_reported: 0,
            stage: RelStage::Chain(cursor),
        })
    }

    fn next_id(&mut self) -> Result<Option<RelationshipId>> {
        loop {
            if self.pos < self.buf.len() {
                let id = self.buf[self.pos];
                self.pos += 1;
                return Ok(Some(id));
            }
            self.pos = 0;
            match &mut self.stage {
                RelStage::Chain(cursor) => {
                    let result = cursor.next_chunk(&mut self.buf);
                    let restarts = cursor.restarts();
                    if restarts > self.restarts_reported {
                        self.tx
                            .db()
                            .metrics
                            .cursor_restarts
                            .add(restarts - self.restarts_reported);
                        self.restarts_reported = restarts;
                    }
                    if !result? {
                        self.stage = RelStage::Overlay { marker: None };
                        continue;
                    }
                    self.tx.db().metrics.record_chunk_refill(self.buf.len());
                }
                RelStage::Overlay { marker } => {
                    let next =
                        self.tx
                            .db()
                            .overlay_page(self.node, *marker, self.chunk, &mut self.buf);
                    if !self.buf.is_empty() {
                        self.tx.db().metrics.record_chunk_refill(self.buf.len());
                    }
                    match next {
                        Some(m) => *marker = Some(m),
                        None => self.stage = RelStage::Done,
                    }
                }
                RelStage::Done => return Ok(None),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Relationship iterators
// ----------------------------------------------------------------------

/// How much of each relationship a [`RelEntryIter`] resolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RelDetail {
    /// Endpoints and type only, decided from the cache or the record
    /// header: a cache miss reads no property page, and the yielded data
    /// carries an empty property map (unless it is this transaction's own
    /// write).
    Header,
    /// Properties as well, for callers that return them.
    Full,
}

/// Internal engine iterator over the relationships touching one node in
/// the transaction's view, yielding raw `(id, data)` pairs without
/// resolving token names. [`RelIter`], [`NeighborIter`] and the query
/// expansion stage all ride on it.
pub(crate) struct RelEntryIter<'tx> {
    tx: &'tx Transaction,
    node: NodeId,
    direction: Direction,
    detail: RelDetail,
    candidates: RelCandidateCursor<'tx>,
    /// This transaction's pending creations touching the node (small:
    /// bounded by the write set).
    pending: std::vec::IntoIter<RelationshipId>,
    seen: HashSet<RelationshipId>,
    failed: bool,
}

impl<'tx> RelEntryIter<'tx> {
    pub(crate) fn new(
        tx: &'tx Transaction,
        node: NodeId,
        direction: Direction,
        chunk: usize,
        detail: RelDetail,
    ) -> Result<Self> {
        let candidates = RelCandidateCursor::new(tx, node, chunk)?;
        let pending: Vec<RelationshipId> = tx
            .write_set_ref()
            .map(|ws| {
                ws.pending_relationships_of(node)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            })
            .unwrap_or_default();
        Ok(RelEntryIter {
            tx,
            node,
            direction,
            detail,
            candidates,
            pending: pending.into_iter(),
            seen: HashSet::new(),
            failed: false,
        })
    }

    pub(crate) fn node(&self) -> NodeId {
        self.node
    }
}

impl Iterator for RelEntryIter<'_> {
    type Item = Result<(RelationshipId, RelationshipData)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        // Committed candidates first: own deletions and updates win, the
        // snapshot decides the rest. The `seen` set both deduplicates the
        // chain ∪ overlay merge and absorbs re-yields after a chain-cursor
        // restart.
        loop {
            let id = match self.candidates.next_id() {
                Ok(Some(id)) => id,
                Ok(None) => break,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            if !self.seen.insert(id) {
                continue;
            }
            if let Some(state) = self
                .tx
                .write_set_ref()
                .and_then(|ws| ws.relationship_state(id))
            {
                if let Some(data) = state {
                    if data.touches(self.node)
                        && self.direction.matches(self.node, data.source, data.target)
                    {
                        return Some(Ok((id, data.clone())));
                    }
                }
                continue;
            }
            let visible = match self.detail {
                RelDetail::Header => self.tx.visible_relationship_header(id),
                RelDetail::Full => self.tx.visible_relationship(id),
            };
            match visible {
                Ok(Some(data)) => {
                    if data.touches(self.node)
                        && self.direction.matches(self.node, data.source, data.target)
                    {
                        return Some(Ok((id, data)));
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        // Then the transaction's own pending creations.
        for id in self.pending.by_ref() {
            if !self.seen.insert(id) {
                continue;
            }
            let Some(Some(data)) = self
                .tx
                .write_set_ref()
                .map(|ws| ws.relationship_state(id).flatten())
            else {
                continue;
            };
            if self.direction.matches(self.node, data.source, data.target) {
                return Some(Ok((id, data.clone())));
            }
        }
        None
    }
}

impl std::fmt::Debug for RelEntryIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelEntryIter")
            .field("node", &self.node)
            .field("direction", &self.direction)
            .finish_non_exhaustive()
    }
}

/// Lazy iterator over the relationships touching one node, in the
/// transaction's view. Yields `Result<Relationship>`; an error aborts the
/// iteration (subsequent `next` calls return `None`).
///
/// Created by [`Transaction::relationships`].
pub struct RelIter<'tx> {
    entries: RelEntryIter<'tx>,
}

impl<'tx> RelIter<'tx> {
    pub(crate) fn new(
        tx: &'tx Transaction,
        node: NodeId,
        direction: Direction,
        chunk: usize,
    ) -> Result<Self> {
        Ok(RelIter {
            entries: RelEntryIter::new(tx, node, direction, chunk, RelDetail::Full)?,
        })
    }
}

impl Iterator for RelIter<'_> {
    type Item = Result<Relationship>;

    fn next(&mut self) -> Option<Self::Item> {
        let tx = self.entries.tx;
        match self.entries.next()? {
            Ok((id, data)) => Some(Ok(tx.to_public_relationship(id, &data))),
            Err(e) => Some(Err(e)),
        }
    }
}

impl std::fmt::Debug for RelIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelIter")
            .field("node", &self.entries.node)
            .field("direction", &self.entries.direction)
            .finish_non_exhaustive()
    }
}

/// Lazy iterator over the IDs of a node's neighbours, deduplicated in
/// visit order. Created by [`Transaction::neighbors`]. Rides directly on
/// the raw entry iterator, so neighbour expansion never materialises
/// property maps or token names.
pub struct NeighborIter<'tx> {
    rels: RelEntryIter<'tx>,
    node: NodeId,
    yielded: HashSet<NodeId>,
}

impl<'tx> NeighborIter<'tx> {
    pub(crate) fn new(rels: RelEntryIter<'tx>) -> Self {
        let node = rels.node();
        NeighborIter {
            rels,
            node,
            yielded: HashSet::new(),
        }
    }
}

impl Iterator for NeighborIter<'_> {
    type Item = Result<NodeId>;

    fn next(&mut self) -> Option<Self::Item> {
        for rel in self.rels.by_ref() {
            match rel {
                Ok((_, data)) => {
                    let other = data.other_node(self.node);
                    if self.yielded.insert(other) {
                        return Some(Ok(other));
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        None
    }
}

impl std::fmt::Debug for NeighborIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborIter")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

// ----------------------------------------------------------------------
// Node scans
// ----------------------------------------------------------------------

/// One predicate of an index scan, resolved to tokens. Equality is the
/// one-key range `Included(k)..=Included(k)`.
pub(crate) enum ScanPred {
    /// The node carries the label.
    Label(LabelToken),
    /// The node's value of the property key lies inside the bounds.
    Range(PropertyKeyToken, Bound<ValueKey>, Bound<ValueKey>),
}

impl ScanPred {
    /// `None` when the label was never interned: no node can carry it.
    pub(crate) fn label(tx: &Transaction, name: &str) -> Option<Self> {
        tx.db()
            .store
            .tokens()
            .existing_label(name)
            .map(ScanPred::Label)
    }

    /// `None` when the property key was never interned: no node can hold
    /// it.
    pub(crate) fn property(tx: &Transaction, pred: &RangePred) -> Option<Self> {
        let token = tx.db().store.tokens().existing_property_key(&pred.name)?;
        Some(ScanPred::Range(token, pred.lo.clone(), pred.hi.clone()))
    }

    /// Does `node` satisfy the predicate? Values compare by their index
    /// key, exactly as the postings do, so a node's own writes and its
    /// committed postings never disagree (`NaN` matches itself, `-0.0`
    /// does not match `0.0`).
    fn holds(&self, node: &NodeData) -> bool {
        match self {
            ScanPred::Label(token) => node.has_label(*token),
            ScanPred::Range(token, lo, hi) => node
                .properties
                .get(token)
                .is_some_and(|v| value_key_in_bounds(&v.index_key(), lo, hi)),
        }
    }

    /// Opens the posting cursor over the predicate's keys.
    fn postings<'tx>(
        &self,
        tx: &'tx Transaction,
        read_ts: Timestamp,
        chunk: usize,
        descending: bool,
    ) -> Postings<'tx> {
        let indexes = &tx.db().indexes;
        match self {
            ScanPred::Label(token) => {
                Postings::Label(indexes.labels.cursor(*token, read_ts, chunk))
            }
            ScanPred::Range(token, lo, hi) => {
                let (lo, hi) = (bound_as_ref(lo), bound_as_ref(hi));
                let values = &indexes.node_properties;
                Postings::Value(if descending {
                    values.range_cursor_desc(*token, lo, hi, read_ts, chunk)
                } else {
                    values.range_cursor(*token, lo, hi, read_ts, chunk)
                })
            }
        }
    }
}

/// The posting cursor an index scan walks. Labels and property values key
/// different posting maps, so the cursor's key type differs.
enum Postings<'tx> {
    Label(RangePostingCursor<'tx, LabelToken, NodeId>),
    Value(RangePostingCursor<'tx, PropertyIndexKey, NodeId>),
}

impl Postings<'_> {
    /// Refills `buf` with the next chunk, never paging more than `budget`
    /// rows when one is set (limit pushdown; the clamp persists across
    /// refills). `false` once the postings are exhausted.
    fn next_chunk(&mut self, budget: Option<usize>, buf: &mut Vec<NodeId>) -> bool {
        match self {
            Postings::Label(cursor) => {
                if let Some(b) = budget {
                    cursor.clamp_chunk(b);
                }
                cursor.next_chunk(buf)
            }
            Postings::Value(cursor) => {
                if let Some(b) = budget {
                    cursor.clamp_chunk(b);
                }
                cursor.next_chunk(buf)
            }
        }
    }
}

/// The shape both store slot-scan cursors share, so the whole-graph scan
/// source can be written once for nodes and relationships.
trait SlotScanCursor {
    type Id: Copy + Eq + std::hash::Hash;
    fn next_chunk(&mut self, buf: &mut Vec<Self::Id>) -> graphsi_storage::Result<bool>;
}

impl SlotScanCursor for NodeScanCursor<'_> {
    type Id = NodeId;
    fn next_chunk(&mut self, buf: &mut Vec<NodeId>) -> graphsi_storage::Result<bool> {
        NodeScanCursor::next_chunk(self, buf)
    }
}

impl SlotScanCursor for RelScanCursor<'_> {
    type Id = RelationshipId;
    fn next_chunk(&mut self, buf: &mut Vec<RelationshipId>) -> graphsi_storage::Result<bool> {
        RelScanCursor::next_chunk(self, buf)
    }
}

/// Chunked source of whole-graph candidates, shared by [`NodeIdIter`]'s
/// `All` scan and [`RelIdIter`]: the store's slot scan, then the MVCC
/// cache's keys (entities whose only versions live in the cache, e.g.
/// deleted-but-still-visible ones), then the write set's keys.
///
/// The cache stage pages each shard through the cache's sorted
/// range-resume pages (`shard_keys_page`): between refills only a resume
/// marker is retained, so the stage's *transient* buffering is bounded by
/// the chunk size — not by the largest shard, no matter how skewed the
/// key distribution is (recorded in the `shard_key_buffer_peak` metric).
/// Pages up to one chunk of a cache shard's keys into the out-vector,
/// resuming after the marker; `false` = no such shard (the cache stage is
/// exhausted).
type ShardKeysFn<'tx, Id> = Box<dyn Fn(usize, Option<Id>, usize, &mut Vec<Id>) -> bool + 'tx>;

struct ScanSource<'tx, C: SlotScanCursor> {
    store: C,
    store_done: bool,
    shard: usize,
    shard_keys_fn: ShardKeysFn<'tx, C::Id>,
    /// Resume marker within the current shard: the last key the previous
    /// page yielded.
    shard_after: Option<C::Id>,
    ws_keys: std::vec::IntoIter<C::Id>,
}

impl<C: SlotScanCursor> ScanSource<'_, C> {
    /// Refills `buf` with up to `chunk` candidates; `false` = exhausted.
    fn refill(&mut self, tx: &Transaction, chunk: usize, buf: &mut Vec<C::Id>) -> Result<bool> {
        buf.clear();
        if !self.store_done {
            if self.store.next_chunk(buf)? {
                return Ok(true);
            }
            self.store_done = true;
        }
        loop {
            if !(self.shard_keys_fn)(self.shard, self.shard_after, chunk, buf) {
                break;
            }
            match buf.last() {
                Some(&last) => {
                    self.shard_after = Some(last);
                    tx.db().metrics.shard_key_buffer_peak.max(buf.len() as u64);
                    return Ok(true);
                }
                None => {
                    // Shard exhausted; move on to the next one.
                    self.shard += 1;
                    self.shard_after = None;
                }
            }
        }
        while buf.len() < chunk {
            match self.ws_keys.next() {
                Some(id) => buf.push(id),
                None => break,
            }
        }
        Ok(!buf.is_empty())
    }
}

/// Where a [`NodeIdIter`] draws candidates from, and what it checks
/// before yielding one.
enum NodeSource<'tx> {
    /// Nothing matches (a label or property name that was never interned).
    Empty,
    /// Index scan: the first predicate's postings drive, and a candidate
    /// must appear in the sorted build side of every other predicate. A
    /// node this transaction wrote is decided by its after-state against
    /// every predicate; an untouched one by the postings alone.
    Index {
        postings: Postings<'tx>,
        preds: Vec<ScanPred>,
        builds: Vec<Vec<NodeId>>,
    },
    /// Whole-graph scan: every candidate is visibility-checked once
    /// (store ∪ cache ∪ write set may list it more than once).
    All {
        source: Box<ScanSource<'tx, NodeScanCursor<'tx>>>,
        seen: HashSet<NodeId>,
    },
}

/// Lazy, chunked iterator over node IDs from an index scan (labels,
/// property equalities, ranges and their intersections) or a whole-graph
/// scan, merged with the transaction's write set. Yields `Result<NodeId>`
/// in no particular order; collect and sort for a stable one.
pub struct NodeIdIter<'tx> {
    tx: &'tx Transaction,
    source: NodeSource<'tx>,
    base_done: bool,
    chunk: usize,
    buf: Vec<NodeId>,
    pos: usize,
    /// Write-set additions the index/base listing cannot know about
    /// (computed eagerly over the — small — write set at construction).
    pending: std::vec::IntoIter<NodeId>,
    /// Limit pushdown: stop yielding — and stop *paging the base* — once
    /// this many rows streamed. `next_base` clamps the cursor chunk to the
    /// remaining budget so the source never over-fetches postings a
    /// downstream `limit` would drop.
    budget: Option<usize>,
    yielded: usize,
    /// The budget came from a served top-k terminal: reaching it with the
    /// base unexhausted is a `topk_early_exits` event.
    topk: bool,
    early_exit_recorded: bool,
    failed: bool,
}

impl<'tx> NodeIdIter<'tx> {
    /// The one index scan behind every label, equality, range and
    /// intersection source. `preds[0]` drives through its posting cursor
    /// (ascending or descending, so a served `order_by` can ride it); every
    /// other predicate is drained once into a sorted, deduplicated build
    /// side checked by binary search per candidate, so no property list is
    /// decoded on the committed path. `None` — some name was never
    /// interned — scans nothing.
    pub(crate) fn index_scan(
        tx: &'tx Transaction,
        preds: Option<Vec<ScanPred>>,
        chunk: usize,
        descending: bool,
    ) -> Result<Self> {
        tx.ensure_active()?;
        let Some(preds) = preds.filter(|p| !p.is_empty()) else {
            return Ok(Self::build(tx, NodeSource::Empty, Vec::new(), chunk));
        };
        let read_ts = tx.read_timestamp();
        let holds_all = |node: &NodeData| preds.iter().all(|p| p.holds(node));
        let mut builds: Vec<Vec<NodeId>> = Vec::with_capacity(preds.len() - 1);
        for leg in &preds[1..] {
            let mut postings = leg.postings(tx, read_ts, chunk, false);
            let (mut build, mut buf) = (Vec::new(), Vec::new());
            while postings.next_chunk(None, &mut buf) {
                tx.db().metrics.record_chunk_refill(buf.len());
                build.extend_from_slice(&buf);
            }
            // A node holding several distinct in-range values appears once
            // per value key in the posting walk.
            build.sort_unstable();
            build.dedup();
            builds.push(build);
        }
        // Own writes the postings cannot yield: a node whose after-state
        // satisfies every predicate but whose committed visible state does
        // not. A written node the postings do yield is decided by its
        // after-state when the walk reaches it.
        let mut pending: Vec<NodeId> = Vec::new();
        if let Some(ws) = tx.write_set_ref() {
            for (&id, entry) in &ws.nodes {
                if !entry.after.as_ref().is_some_and(holds_all) {
                    continue;
                }
                let committed = tx.db().read_node_version(id, read_ts)?;
                if !committed.is_some_and(|(data, _)| holds_all(&data)) {
                    pending.push(id);
                }
            }
        }
        let postings = preds[0].postings(tx, read_ts, chunk, descending);
        let source = NodeSource::Index {
            postings,
            preds,
            builds,
        };
        Ok(Self::build(tx, source, pending, chunk))
    }

    pub(crate) fn all_nodes(tx: &'tx Transaction, chunk: usize) -> Result<Self> {
        tx.ensure_active()?;
        let ws_keys: Vec<NodeId> = tx
            .write_set_ref()
            .map(|ws| ws.nodes.keys().copied().collect())
            .unwrap_or_default();
        let db = tx.db();
        let source = ScanSource {
            store: db.store.node_scan_cursor(chunk),
            store_done: false,
            shard: 0,
            shard_keys_fn: Box::new(move |shard, after, page, out| {
                db.node_cache.shard_keys_page(shard, after, page, out)
            }),
            shard_after: None,
            ws_keys: ws_keys.into_iter(),
        };
        let source = NodeSource::All {
            source: Box::new(source),
            seen: HashSet::new(),
        };
        Ok(Self::build(tx, source, Vec::new(), chunk))
    }

    fn build(
        tx: &'tx Transaction,
        source: NodeSource<'tx>,
        pending: Vec<NodeId>,
        chunk: usize,
    ) -> Self {
        NodeIdIter {
            tx,
            source,
            base_done: false,
            chunk,
            buf: Vec::new(),
            pos: 0,
            pending: pending.into_iter(),
            budget: None,
            yielded: 0,
            topk: false,
            early_exit_recorded: false,
            failed: false,
        }
    }

    /// Attaches the planner's remaining-row budget (limit pushdown). With
    /// `topk`, hitting the budget before the base drains is recorded as a
    /// `topk_early_exits` event.
    pub(crate) fn with_budget(mut self, budget: Option<usize>, topk: bool) -> Self {
        self.budget = budget;
        self.topk = topk;
        self
    }

    /// Pulls the next base candidate, refilling the chunk buffer on demand.
    fn next_base(&mut self) -> Result<Option<NodeId>> {
        loop {
            if self.pos < self.buf.len() {
                let id = self.buf[self.pos];
                self.pos += 1;
                return Ok(Some(id));
            }
            if self.base_done {
                return Ok(None);
            }
            self.pos = 0;
            // Limit pushdown: never page more candidates than the budget
            // still needs.
            let remaining = self.budget.map(|b| b.saturating_sub(self.yielded));
            let refilled = match &mut self.source {
                NodeSource::Empty => false,
                NodeSource::Index { postings, .. } => postings.next_chunk(remaining, &mut self.buf),
                NodeSource::All { source, .. } => {
                    let chunk = remaining.map_or(self.chunk, |r| self.chunk.min(r.max(1)));
                    source.refill(self.tx, chunk, &mut self.buf)?
                }
            };
            if !refilled {
                // Not a refill: nothing was buffered and the base is done
                // for good (the pending drain must not re-poll it).
                self.base_done = true;
                return Ok(None);
            }
            self.tx.db().metrics.record_chunk_refill(self.buf.len());
        }
    }

    /// The scan body behind [`Iterator::next`]; the public wrapper layers
    /// the row budget (limit pushdown / top-k early exit) on top.
    fn next_inner(&mut self) -> Option<Result<NodeId>> {
        if self.failed {
            return None;
        }
        loop {
            let id = match self.next_base() {
                Ok(Some(id)) => id,
                Ok(None) => break,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            match &mut self.source {
                NodeSource::Empty => return None,
                NodeSource::Index { preds, builds, .. } => {
                    // The other predicates' committed postings.
                    if !builds.iter().all(|b| b.binary_search(&id).is_ok()) {
                        self.tx.db().metrics.intersection_leg_skips.add(1);
                        continue;
                    }
                    match self.tx.write_set_ref().and_then(|ws| ws.node_state(id)) {
                        // Own write decides.
                        Some(Some(after)) => {
                            if preds.iter().all(|p| p.holds(after)) {
                                return Some(Ok(id));
                            }
                        }
                        // Deleted by this transaction.
                        Some(None) => {}
                        // Untouched: the postings already applied snapshot
                        // visibility and the bounds.
                        None => return Some(Ok(id)),
                    }
                }
                NodeSource::All { seen, .. } => {
                    if !seen.insert(id) {
                        continue;
                    }
                    match self.tx.node_visible(id) {
                        Ok(true) => return Some(Ok(id)),
                        Ok(false) => {}
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
            }
        }
        self.pending.next().map(Ok)
    }
}

impl Iterator for NodeIdIter<'_> {
    type Item = Result<NodeId>;

    fn next(&mut self) -> Option<Self::Item> {
        let Some(budget) = self.budget else {
            return self.next_inner();
        };
        if self.yielded >= budget {
            return None;
        }
        let item = self.next_inner();
        if matches!(item, Some(Ok(_))) {
            self.yielded += 1;
            // Record the early exit the instant the budget fills — a
            // downstream `limit` stops polling at that point, so a
            // trailing check would never run.
            if self.topk && self.yielded >= budget && !self.base_done && !self.early_exit_recorded {
                self.early_exit_recorded = true;
                self.tx.db().metrics.topk_early_exits.add(1);
            }
        }
        item
    }
}

impl std::fmt::Debug for NodeIdIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeIdIter")
            .field("chunk", &self.chunk)
            .finish_non_exhaustive()
    }
}

// ----------------------------------------------------------------------
// Whole-graph relationship scan
// ----------------------------------------------------------------------

/// Lazy, chunked iterator over every relationship ID visible to the
/// transaction. Created by [`Transaction::all_relationships`]. Rides on
/// the same three-stage `ScanSource` as the whole-graph node scan.
pub struct RelIdIter<'tx> {
    tx: &'tx Transaction,
    source: ScanSource<'tx, RelScanCursor<'tx>>,
    chunk: usize,
    buf: Vec<RelationshipId>,
    pos: usize,
    seen: HashSet<RelationshipId>,
    failed: bool,
}

impl<'tx> RelIdIter<'tx> {
    pub(crate) fn new(tx: &'tx Transaction, chunk: usize) -> Self {
        let ws_keys: Vec<RelationshipId> = tx
            .write_set_ref()
            .map(|ws| ws.relationships.keys().copied().collect())
            .unwrap_or_default();
        let db = tx.db();
        RelIdIter {
            tx,
            source: ScanSource {
                store: db.store.rel_scan_cursor(chunk),
                store_done: false,
                shard: 0,
                shard_keys_fn: Box::new(move |shard, after, page, out| {
                    db.rel_cache.shard_keys_page(shard, after, page, out)
                }),
                shard_after: None,
                ws_keys: ws_keys.into_iter(),
            },
            chunk,
            buf: Vec::new(),
            pos: 0,
            seen: HashSet::new(),
            failed: false,
        }
    }
}

impl Iterator for RelIdIter<'_> {
    type Item = Result<RelationshipId>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if self.pos >= self.buf.len() {
                self.pos = 0;
                match self.source.refill(self.tx, self.chunk, &mut self.buf) {
                    Ok(true) => {
                        self.tx.db().metrics.record_chunk_refill(self.buf.len());
                    }
                    Ok(false) => return None,
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                }
            }
            let id = self.buf[self.pos];
            self.pos += 1;
            if !self.seen.insert(id) {
                continue;
            }
            match self.tx.visible_relationship_header(id) {
                Ok(Some(_)) => return Some(Ok(id)),
                Ok(None) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl std::fmt::Debug for RelIdIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelIdIter")
            .field("chunk", &self.chunk)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::DbConfig;
    use crate::db::GraphDb;
    use crate::entity::Direction;
    use crate::error::Result;
    use graphsi_storage::test_util::TempDir;

    #[test]
    fn rel_iter_is_lazy_and_complete() {
        let dir = TempDir::new("iter_rel");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let hub = tx.create_node(&["Hub"], &[]).unwrap();
        let spokes: Vec<_> = (0..10)
            .map(|_| tx.create_node(&["Spoke"], &[]).unwrap())
            .collect();
        for &s in &spokes {
            tx.create_relationship(hub, s, "SPOKE", &[]).unwrap();
        }
        tx.commit().unwrap();

        let tx = db.begin();
        // Early termination: taking 3 elements must not resolve the rest.
        let reads_before = db.metrics().reads;
        let first_three: Vec<_> = tx
            .relationships(hub, Direction::Outgoing)
            .unwrap()
            .take(3)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(first_three.len(), 3);
        let reads_for_three = db.metrics().reads - reads_before;

        let reads_before = db.metrics().reads;
        let all: Vec<_> = tx
            .relationships(hub, Direction::Outgoing)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(all.len(), 10);
        let reads_for_all = db.metrics().reads - reads_before;
        assert!(
            reads_for_three < reads_for_all,
            "lazy iterator must resolve fewer versions when stopped early \
             ({reads_for_three} vs {reads_for_all})"
        );
    }

    #[test]
    fn rel_iter_merges_pending_writes_and_deletions() {
        let dir = TempDir::new("iter_rel_ws");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let a = tx.create_node(&["N"], &[]).unwrap();
        let b = tx.create_node(&["N"], &[]).unwrap();
        let c = tx.create_node(&["N"], &[]).unwrap();
        let ab = tx.create_relationship(a, b, "T", &[]).unwrap();
        tx.create_relationship(a, c, "T", &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        tx.delete_relationship(ab).unwrap();
        let d = tx.create_node(&["N"], &[]).unwrap();
        let ad = tx.create_relationship(a, d, "T", &[]).unwrap();
        let ids: Vec<_> = tx
            .relationships(a, Direction::Both)
            .unwrap()
            .map(|r| r.map(|r| r.id))
            .collect::<Result<_>>()
            .unwrap();
        assert!(!ids.contains(&ab), "own deletion wins");
        assert!(ids.contains(&ad), "own pending creation visible");
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn node_id_iter_merges_write_set() {
        let dir = TempDir::new("iter_label");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let keep = tx.create_node(&["P"], &[]).unwrap();
        let relabel = tx.create_node(&["P"], &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        tx.remove_label(relabel, "P").unwrap();
        let fresh = tx.create_node(&["P"], &[]).unwrap();
        let mut ids: Vec<_> = tx
            .nodes_with_label("P")
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        ids.sort();
        assert_eq!(ids, {
            let mut v = vec![keep, fresh];
            v.sort();
            v
        });
    }

    #[test]
    fn unknown_label_yields_empty_iterator() {
        let dir = TempDir::new("iter_empty");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let tx = db.begin();
        assert_eq!(tx.nodes_with_label("Nope").unwrap().count(), 0);
    }

    #[test]
    fn scans_work_at_every_chunk_size() {
        let dir = TempDir::new("iter_chunks");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let hub = tx.create_node(&["C"], &[]).unwrap();
        for _ in 0..7 {
            let n = tx.create_node(&["C"], &[]).unwrap();
            tx.create_relationship(hub, n, "T", &[]).unwrap();
        }
        tx.commit().unwrap();

        fn sorted(scan: Result<super::NodeIdIter<'_>>) -> Vec<graphsi_storage::NodeId> {
            let mut ids: Vec<_> = scan.unwrap().collect::<Result<_>>().unwrap();
            ids.sort();
            ids
        }
        let baseline = {
            let tx = db.begin();
            sorted(tx.nodes_with_label("C"))
        };
        for chunk in [1usize, 2, 3, 256] {
            let tx = db.txn().scan_chunk_size(chunk).begin();
            assert_eq!(sorted(tx.nodes_with_label("C")), baseline);
            assert_eq!(sorted(tx.all_nodes()), baseline);
            assert_eq!(tx.degree(hub, Direction::Both).unwrap(), 7);
            assert_eq!(tx.all_relationships().unwrap().count(), 7);
        }
    }

    #[test]
    fn candidate_buffering_is_bounded_by_the_chunk_size() {
        let dir = TempDir::new("iter_bounded");
        // Open with a tiny chunk so even the seeding writes obey the bound.
        let db = GraphDb::open(dir.path(), DbConfig::default().with_scan_chunk_size(4)).unwrap();
        let mut tx = db.begin();
        let hub = tx.create_node(&["B"], &[]).unwrap();
        for _ in 0..100 {
            let n = tx.create_node(&["B"], &[]).unwrap();
            tx.create_relationship(hub, n, "T", &[]).unwrap();
        }
        tx.commit().unwrap();

        let tx = db.begin();
        assert_eq!(tx.nodes_with_label("B").unwrap().count(), 101);
        let mut degree = 0;
        for rel in tx.relationships(hub, Direction::Both).unwrap() {
            rel.unwrap();
            degree += 1;
        }
        assert_eq!(degree, 100);
        let metrics = db.metrics();
        assert!(metrics.chunk_refills > 0, "cursors must have refilled");
        assert!(
            metrics.candidate_buffer_peak <= 4,
            "a 100-way scan must never buffer more than one chunk \
             (peak {} > 4)",
            metrics.candidate_buffer_peak
        );
    }
}
