//! Transactions: the user-facing unit of work.
//!
//! A [`Transaction`] buffers its writes privately (read-your-own-writes),
//! reads either a fixed snapshot (snapshot isolation) or the latest
//! committed state under short read locks (read committed), and installs
//! its changes atomically at commit through the database's commit pipeline.
//!
//! Transactions *own* a reference to the database (`Arc`-backed), so they
//! are `Send + 'static`: they can be parked in server-style sessions,
//! moved across threads and driven by one-transaction-per-thread worker
//! pools. Dropping an active transaction rolls it back.

use std::collections::BTreeMap;
use std::sync::Arc;

use graphsi_storage::{
    LabelToken, NodeId, PropertyKeyToken, PropertyValue, RelTypeToken, RelationshipId,
};
use graphsi_txn::{
    check_at_update, ConflictStrategy, LockKey, LockMode, Timestamp, TxnId, UpdateCheck,
};

use crate::config::IsolationLevel;
use crate::db::{GraphDbInner, RESERVED_PREFIX};
use crate::entity::{Direction, Node, NodeData, Relationship, RelationshipData};
use crate::error::{DbError, Result};
use crate::iter::{NeighborIter, NodeIdIter, RelDetail, RelEntryIter, RelIdIter, RelIter};
use crate::query::QueryBuilder;
use crate::write_set::WriteSet;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TxnState {
    Active,
    Committed,
    RolledBack,
}

/// A transaction over a [`crate::GraphDb`].
///
/// Obtained from [`crate::GraphDb::begin`] or the
/// [`crate::TxnOptions`] builder. The transaction owns an `Arc` reference
/// to the database, making it `Send + 'static`. Dropping an active
/// transaction rolls it back.
pub struct Transaction {
    db: Arc<GraphDbInner>,
    id: TxnId,
    start_ts: Timestamp,
    isolation: IsolationLevel,
    conflict_strategy: ConflictStrategy,
    state: TxnState,
    /// `None` for read-only transactions — they skip write-set allocation
    /// entirely and reject writes.
    write_set: Option<WriteSet>,
    /// Chunk size of the streaming read cursors this transaction opens.
    scan_chunk_size: usize,
}

// The public contract of the owned-handle redesign: transactions must be
// movable across threads and free of borrowed lifetimes.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<Transaction>();
};

impl Transaction {
    pub(crate) fn new(
        db: Arc<GraphDbInner>,
        id: TxnId,
        start_ts: Timestamp,
        isolation: IsolationLevel,
        conflict_strategy: ConflictStrategy,
        read_only: bool,
        scan_chunk_size: usize,
    ) -> Self {
        Transaction {
            db,
            id,
            start_ts,
            isolation,
            conflict_strategy,
            state: TxnState::Active,
            write_set: if read_only {
                None
            } else {
                Some(WriteSet::new())
            },
            scan_chunk_size: scan_chunk_size.max(1),
        }
    }

    /// Chunk size of the streaming read cursors this transaction opens
    /// (set through [`crate::TxnOptions::scan_chunk_size`], defaulting to
    /// [`crate::DbConfig::scan_chunk_size`]).
    pub fn scan_chunk_size(&self) -> usize {
        self.scan_chunk_size
    }

    /// The transaction's ID.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's start timestamp (its snapshot under snapshot
    /// isolation).
    pub fn start_timestamp(&self) -> Timestamp {
        self.start_ts
    }

    /// The isolation level this transaction runs under.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// The write-write conflict strategy this transaction applies (the
    /// database default unless overridden through
    /// [`crate::TxnOptions::conflict_strategy`]).
    pub fn conflict_strategy(&self) -> ConflictStrategy {
        self.conflict_strategy
    }

    /// Returns `true` if this is a read-only snapshot transaction.
    pub fn is_read_only(&self) -> bool {
        self.write_set.is_none()
    }

    /// Returns `true` while the transaction can still be used.
    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    /// Number of entities with pending (uncommitted) changes.
    pub fn pending_writes(&self) -> usize {
        self.write_set.as_ref().map_or(0, WriteSet::len)
    }

    /// The timestamp reads are served at: the fixed start timestamp under
    /// snapshot isolation (and for every read-only transaction), the
    /// latest committed timestamp under read committed (which is exactly
    /// why read committed exhibits unrepeatable reads and phantoms).
    pub fn read_timestamp(&self) -> Timestamp {
        if self.is_read_only() {
            return self.start_ts;
        }
        match self.isolation {
            IsolationLevel::SnapshotIsolation => self.start_ts,
            IsolationLevel::ReadCommitted => self.db.visible_timestamp(),
        }
    }

    pub(crate) fn db(&self) -> &GraphDbInner {
        &self.db
    }

    pub(crate) fn write_set_ref(&self) -> Option<&WriteSet> {
        self.write_set.as_ref()
    }

    /// The mutable write set, or the read-only rejection error.
    fn write_set_mut(&mut self) -> Result<&mut WriteSet> {
        self.write_set.as_mut().ok_or(DbError::ReadOnlyTransaction)
    }

    fn ensure_writable(&self) -> Result<()> {
        self.ensure_active()?;
        if self.write_set.is_none() {
            return Err(DbError::ReadOnlyTransaction);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Commits the transaction, returning its commit timestamp (or the
    /// start timestamp for read-only transactions).
    pub fn commit(mut self) -> Result<Timestamp> {
        self.ensure_active()?;
        let result = match &self.write_set {
            None => {
                // Read-only fast path: no locks were ever taken, so the
                // commit never touches the lock manager.
                self.db.finish_read_only(self.id, true);
                Ok(self.start_ts)
            }
            Some(write_set) => self.db.commit_transaction(
                self.id,
                self.start_ts,
                self.conflict_strategy,
                write_set,
            ),
        };
        self.state = match result {
            Ok(_) => TxnState::Committed,
            Err(_) => TxnState::RolledBack,
        };
        result
    }

    /// Rolls the transaction back, discarding all pending changes.
    pub fn rollback(mut self) {
        self.rollback_in_place();
    }

    fn rollback_in_place(&mut self) {
        if self.state == TxnState::Active {
            if self.write_set.is_none() {
                self.db.finish_read_only(self.id, false);
            } else {
                self.db.abort_transaction(self.id, false);
            }
            self.state = TxnState::RolledBack;
        }
    }

    fn ensure_active(&self) -> Result<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(DbError::TransactionClosed)
        }
    }

    /// Aborts the transaction because of a conflict and returns the error.
    fn conflict_abort(&mut self, err: DbError) -> DbError {
        self.db.abort_transaction(self.id, true);
        self.state = TxnState::RolledBack;
        err
    }

    // ------------------------------------------------------------------
    // Locking helpers
    // ------------------------------------------------------------------

    /// Acquires the long write lock on `key`, applying this transaction's
    /// write-write conflict strategy. Under snapshot isolation losing the
    /// first-updater race aborts the transaction; under read committed the
    /// acquisition blocks (with deadlock detection).
    ///
    /// Note: staleness of the snapshot (a concurrent writer already
    /// committed a newer version) is checked *after* the lock is held — see
    /// [`Transaction::ensure_node_unchanged`] — because checking before
    /// acquiring the lock races with a concurrent committer releasing it.
    fn write_lock(&mut self, key: LockKey, newest_committed: Option<Timestamp>) -> Result<()> {
        match self.isolation {
            IsolationLevel::ReadCommitted => {
                let acquired = self.db.locks.acquire(key, LockMode::Exclusive, self.id);
                match acquired {
                    Ok(()) => Ok(()),
                    Err(e) => Err(self.conflict_abort(e.into())),
                }
            }
            IsolationLevel::SnapshotIsolation => {
                match check_at_update(
                    self.conflict_strategy,
                    &self.db.locks,
                    key,
                    self.id,
                    self.start_ts,
                    newest_committed,
                ) {
                    UpdateCheck::Proceed => Ok(()),
                    UpdateCheck::Abort(e) => Err(self.conflict_abort(e.into())),
                }
            }
        }
    }

    /// After the write lock on a node is held: abort if a concurrent
    /// transaction committed a version newer than our snapshot (the
    /// first-updater-wins write rule). Must run *after* lock acquisition so
    /// that a competitor finishing its commit (install + lock release)
    /// cannot slip in between the check and the lock.
    fn ensure_node_unchanged(&mut self, id: NodeId) -> Result<()> {
        if self.isolation != IsolationLevel::SnapshotIsolation
            || self.conflict_strategy != ConflictStrategy::FirstUpdaterWins
        {
            // Read committed serialises through blocking locks; the
            // first-committer-wins strategy validates at commit time.
            return Ok(());
        }
        if let Some(newest) = self.db.newest_node_commit_ts(id)? {
            if !newest.visible_to(self.start_ts) {
                let err = graphsi_txn::TxnError::WriteWriteConflict {
                    key: LockKey::node(id.raw()),
                    other: None,
                };
                return Err(self.conflict_abort(err.into()));
            }
        }
        Ok(())
    }

    /// Relationship counterpart of [`Transaction::ensure_node_unchanged`].
    fn ensure_relationship_unchanged(&mut self, id: RelationshipId) -> Result<()> {
        if self.isolation != IsolationLevel::SnapshotIsolation
            || self.conflict_strategy != ConflictStrategy::FirstUpdaterWins
        {
            return Ok(());
        }
        if let Some(newest) = self.db.newest_rel_commit_ts(id)? {
            if !newest.visible_to(self.start_ts) {
                let err = graphsi_txn::TxnError::WriteWriteConflict {
                    key: LockKey::relationship(id.raw()),
                    other: None,
                };
                return Err(self.conflict_abort(err.into()));
            }
        }
        Ok(())
    }

    /// Runs `f` under a short shared (read) lock when in read-committed
    /// mode; snapshot isolation — and every read-only transaction — needs
    /// no read locks at all (the paper removes them).
    fn with_read_lock<R>(&self, key: LockKey, f: impl FnOnce() -> Result<R>) -> Result<R> {
        if self.is_read_only() {
            return f();
        }
        match self.isolation {
            IsolationLevel::SnapshotIsolation => f(),
            IsolationLevel::ReadCommitted => {
                self.db.locks.acquire(key, LockMode::Shared, self.id)?;
                let result = f();
                let _ = self.db.locks.release(key, self.id);
                result
            }
        }
    }

    // ------------------------------------------------------------------
    // Token helpers
    // ------------------------------------------------------------------

    fn check_name(name: &str) -> Result<()> {
        if name.starts_with(RESERVED_PREFIX) {
            Err(DbError::ReservedName(name.to_owned()))
        } else {
            Ok(())
        }
    }

    fn label_token(&self, name: &str) -> Result<LabelToken> {
        Self::check_name(name)?;
        Ok(self.db.store.tokens().label(name)?)
    }

    fn property_key_token(&self, name: &str) -> Result<PropertyKeyToken> {
        Self::check_name(name)?;
        Ok(self.db.store.tokens().property_key(name)?)
    }

    fn rel_type_token(&self, name: &str) -> Result<RelTypeToken> {
        Self::check_name(name)?;
        Ok(self.db.store.tokens().rel_type(name)?)
    }

    fn label_name(&self, token: LabelToken) -> String {
        self.db
            .store
            .tokens()
            .label_name(token)
            .unwrap_or_else(|| format!("label#{}", token.0))
    }

    fn property_key_name(&self, token: PropertyKeyToken) -> String {
        self.db
            .store
            .tokens()
            .property_key_name(token)
            .unwrap_or_else(|| format!("key#{}", token.0))
    }

    fn rel_type_name(&self, token: RelTypeToken) -> String {
        self.db
            .store
            .tokens()
            .rel_type_name(token)
            .unwrap_or_else(|| format!("type#{}", token.0))
    }

    // ------------------------------------------------------------------
    // Internal snapshot + write-set read path
    // ------------------------------------------------------------------

    /// The node state visible to this transaction (own writes first, then
    /// the snapshot / latest committed state).
    pub(crate) fn visible_node(&self, id: NodeId) -> Result<Option<NodeData>> {
        if let Some(state) = self.write_set.as_ref().and_then(|ws| ws.node_state(id)) {
            return Ok(state.cloned());
        }
        let read_ts = self.read_timestamp();
        let result = self.with_read_lock(LockKey::node(id.raw()), || {
            self.db.read_node_version(id, read_ts)
        })?;
        Ok(result.map(|(data, _)| (*data).clone()))
    }

    /// The relationship state visible to this transaction.
    pub(crate) fn visible_relationship(
        &self,
        id: RelationshipId,
    ) -> Result<Option<RelationshipData>> {
        if let Some(state) = self
            .write_set
            .as_ref()
            .and_then(|ws| ws.relationship_state(id))
        {
            return Ok(state.cloned());
        }
        let read_ts = self.read_timestamp();
        let result = self.with_read_lock(LockKey::relationship(id.raw()), || {
            self.db.read_relationship_version(id, read_ts)
        })?;
        Ok(result.map(|(data, _)| (*data).clone()))
    }

    /// Header-only counterpart of [`Transaction::visible_node`]: `f`
    /// applied to the labels of the node version visible to this
    /// transaction, or `None` if the node is invisible. Never reads the
    /// property store.
    pub(crate) fn visible_node_labels<R>(
        &self,
        id: NodeId,
        f: impl Fn(&[LabelToken]) -> R,
    ) -> Result<Option<R>> {
        if let Some(state) = self.write_set.as_ref().and_then(|ws| ws.node_state(id)) {
            return Ok(state.map(|data| f(&data.labels)));
        }
        let read_ts = self.read_timestamp();
        self.with_read_lock(LockKey::node(id.raw()), || {
            self.db.read_node_labels_version(id, read_ts, f)
        })
    }

    /// Does the node exist in this transaction's view? Header-only.
    pub(crate) fn node_visible(&self, id: NodeId) -> Result<bool> {
        Ok(self.visible_node_labels(id, |_| ())?.is_some())
    }

    /// Header-only counterpart of [`Transaction::visible_relationship`]:
    /// endpoints and type, with the property map left empty unless the
    /// state comes from this transaction's own writes.
    pub(crate) fn visible_relationship_header(
        &self,
        id: RelationshipId,
    ) -> Result<Option<RelationshipData>> {
        if let Some(state) = self
            .write_set
            .as_ref()
            .and_then(|ws| ws.relationship_state(id))
        {
            return Ok(state.cloned());
        }
        let read_ts = self.read_timestamp();
        self.with_read_lock(LockKey::relationship(id.raw()), || {
            self.db.read_relationship_header_version(id, read_ts)
        })
    }

    /// The committed pre-image of a node (for first writes), with its
    /// commit timestamp.
    fn node_pre_image(&self, id: NodeId) -> Result<Option<(Arc<NodeData>, Timestamp)>> {
        self.db.read_node_version(id, self.read_timestamp())
    }

    fn relationship_pre_image(
        &self,
        id: RelationshipId,
    ) -> Result<Option<(Arc<RelationshipData>, Timestamp)>> {
        self.db.read_relationship_version(id, self.read_timestamp())
    }

    // ------------------------------------------------------------------
    // Node reads
    // ------------------------------------------------------------------

    /// Returns the node if it exists in this transaction's view.
    pub fn get_node(&self, id: NodeId) -> Result<Option<Node>> {
        self.ensure_active()?;
        Ok(self
            .visible_node(id)?
            .map(|data| self.to_public_node(id, &data)))
    }

    /// Returns `true` if the node exists in this transaction's view.
    pub fn node_exists(&self, id: NodeId) -> Result<bool> {
        self.ensure_active()?;
        self.node_visible(id)
    }

    /// Returns one property of a node. A cache miss decodes the property
    /// chain only up to the requested key.
    pub fn node_property(&self, id: NodeId, name: &str) -> Result<Option<PropertyValue>> {
        self.ensure_active()?;
        let Some(token) = self.db.store.tokens().existing_property_key(name) else {
            // No node carries a key that was never interned.
            return match self.node_visible(id)? {
                true => Ok(None),
                false => Err(DbError::NodeNotFound(id)),
            };
        };
        self.visible_node_property(id, token)?
            .ok_or(DbError::NodeNotFound(id))
    }

    /// Returns the labels of a node.
    pub fn node_labels(&self, id: NodeId) -> Result<Vec<String>> {
        self.ensure_active()?;
        let labels = self.visible_node_labels(id, |labels| {
            labels.iter().map(|l| self.label_name(*l)).collect()
        })?;
        labels.ok_or(DbError::NodeNotFound(id))
    }

    /// Returns `true` if the node carries the label in this transaction's
    /// view.
    pub fn node_has_label(&self, id: NodeId, label: &str) -> Result<bool> {
        self.ensure_active()?;
        let token = self.db.store.tokens().existing_label(label);
        let has =
            self.visible_node_labels(id, |labels| token.is_some_and(|t| labels.contains(&t)))?;
        has.ok_or(DbError::NodeNotFound(id))
    }

    // ------------------------------------------------------------------
    // Relationship reads
    // ------------------------------------------------------------------

    /// Returns the relationship if it exists in this transaction's view.
    pub fn get_relationship(&self, id: RelationshipId) -> Result<Option<Relationship>> {
        self.ensure_active()?;
        Ok(self
            .visible_relationship(id)?
            .map(|data| self.to_public_relationship(id, &data)))
    }

    /// Returns one property of a relationship.
    pub fn relationship_property(
        &self,
        id: RelationshipId,
        name: &str,
    ) -> Result<Option<PropertyValue>> {
        self.ensure_active()?;
        let Some(data) = self.visible_relationship(id)? else {
            return Err(DbError::RelationshipNotFound(id));
        };
        let Some(token) = self.db.store.tokens().existing_property_key(name) else {
            return Ok(None);
        };
        Ok(data.properties.get(&token).cloned())
    }

    /// Lazily iterates the relationships touching `node` in the given
    /// direction, in this transaction's view (committed snapshot merged
    /// with own pending writes — the paper's enriched iterator, §4).
    ///
    /// Candidate IDs are paged from resumable cursors — the persistent
    /// chain and the version-cache overlay — at most one chunk
    /// ([`Transaction::scan_chunk_size`]) at a time, and each element is
    /// resolved against the snapshot only when the iterator reaches it:
    /// traversals that stop early never materialise whole adjacency lists,
    /// and even full traversals never buffer more than one chunk of
    /// candidates.
    pub fn relationships(&self, node: NodeId, direction: Direction) -> Result<RelIter<'_>> {
        self.ensure_active()?;
        if !self.node_visible(node)? {
            return Err(DbError::NodeNotFound(node));
        }
        RelIter::new(self, node, direction, self.scan_chunk_size)
    }

    /// Eager version of [`Transaction::relationships`]: collects into a
    /// `Vec` sorted by relationship ID.
    pub fn relationships_vec(
        &self,
        node: NodeId,
        direction: Direction,
    ) -> Result<Vec<Relationship>> {
        let mut out: Vec<Relationship> = self
            .relationships(node, direction)?
            .collect::<Result<_>>()?;
        out.sort_by_key(|r| r.id);
        Ok(out)
    }

    /// Lazily iterates the IDs of the neighbouring nodes of `node`,
    /// deduplicated in visit order.
    pub fn neighbors(&self, node: NodeId, direction: Direction) -> Result<NeighborIter<'_>> {
        self.ensure_active()?;
        if !self.node_visible(node)? {
            return Err(DbError::NodeNotFound(node));
        }
        Ok(NeighborIter::new(RelEntryIter::new(
            self,
            node,
            direction,
            self.scan_chunk_size,
            RelDetail::Header,
        )?))
    }

    /// [`Transaction::neighbors`] without the node-existence error: a
    /// missing or invisible start node simply expands to nothing. Used by
    /// the query expansion stage, where upstream nodes may have been
    /// deleted by this very transaction mid-stream. Header-only: the
    /// yielded relationship data carries no properties.
    pub(crate) fn neighbors_or_empty(
        &self,
        node: NodeId,
        direction: Direction,
        chunk: usize,
    ) -> Result<RelEntryIter<'_>> {
        self.ensure_active()?;
        RelEntryIter::new(self, node, direction, chunk, RelDetail::Header)
    }

    /// Eager version of [`Transaction::neighbors`]: sorted, deduplicated
    /// `Vec` of neighbour IDs.
    pub fn neighbors_vec(&self, node: NodeId, direction: Direction) -> Result<Vec<NodeId>> {
        let mut out: Vec<NodeId> = self.neighbors(node, direction)?.collect::<Result<_>>()?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Number of relationships touching `node`. Streams over the lazy
    /// iterator, reading relationship headers only.
    pub fn degree(&self, node: NodeId, direction: Direction) -> Result<usize> {
        self.ensure_active()?;
        if !self.node_visible(node)? {
            return Err(DbError::NodeNotFound(node));
        }
        let mut count = 0usize;
        for rel in self.neighbors_or_empty(node, direction, self.scan_chunk_size)? {
            rel?;
            count += 1;
        }
        Ok(count)
    }

    // ------------------------------------------------------------------
    // Scans (label, property, whole graph)
    // ------------------------------------------------------------------

    /// Lazily iterates the nodes carrying `label` in this transaction's
    /// view (versioned index cursor merged with own writes), paging the
    /// posting list one chunk at a time.
    pub fn nodes_with_label(&self, label: &str) -> Result<NodeIdIter<'_>> {
        self.nodes_with_label_chunked(label, self.scan_chunk_size)
    }

    pub(crate) fn nodes_with_label_chunked(
        &self,
        label: &str,
        chunk: usize,
    ) -> Result<NodeIdIter<'_>> {
        self.ensure_active()?;
        let Some(token) = self.db.store.tokens().existing_label(label) else {
            // The label name was never interned, so no committed node and no
            // pending write can carry it.
            return Ok(NodeIdIter::empty(self));
        };
        Ok(NodeIdIter::with_label(self, token, chunk))
    }

    /// Eager version of [`Transaction::nodes_with_label`]: sorted `Vec`.
    pub fn nodes_with_label_vec(&self, label: &str) -> Result<Vec<NodeId>> {
        let mut out: Vec<NodeId> = self.nodes_with_label(label)?.collect::<Result<_>>()?;
        out.sort();
        Ok(out)
    }

    /// Lazily iterates the nodes whose property `name` equals `value` in
    /// this transaction's view, paging the posting list one chunk at a
    /// time.
    pub fn nodes_with_property(&self, name: &str, value: &PropertyValue) -> Result<NodeIdIter<'_>> {
        self.nodes_with_property_chunked(name, value, self.scan_chunk_size)
    }

    pub(crate) fn nodes_with_property_chunked(
        &self,
        name: &str,
        value: &PropertyValue,
        chunk: usize,
    ) -> Result<NodeIdIter<'_>> {
        self.ensure_active()?;
        let Some(token) = self.db.store.tokens().existing_property_key(name) else {
            return Ok(NodeIdIter::empty(self));
        };
        Ok(NodeIdIter::with_property(self, token, value.clone(), chunk))
    }

    /// Eager version of [`Transaction::nodes_with_property`]: sorted `Vec`.
    pub fn nodes_with_property_vec(
        &self,
        name: &str,
        value: &PropertyValue,
    ) -> Result<Vec<NodeId>> {
        let mut out: Vec<NodeId> = self
            .nodes_with_property(name, value)?
            .collect::<Result<_>>()?;
        out.sort();
        Ok(out)
    }

    /// Lazily iterates the nodes whose property `name` holds a value
    /// inside `range`, served from the versioned property index's sorted
    /// key dimension (**range postings**) — a pushed-down comparison
    /// predicate that never decodes candidate property lists. Range
    /// semantics are type-homogeneous: an `Int` bound only matches `Int`
    /// values, and a half-open range stays within its bound's type.
    ///
    /// ```
    /// # use graphsi_core::{DbConfig, GraphDb, PropertyValue, Result};
    /// # fn main() -> Result<()> {
    /// # let dir = graphsi_core::test_support::TempDir::new("doc-range");
    /// # let db = GraphDb::open(dir.path(), DbConfig::default())?;
    /// # let mut tx = db.begin();
    /// # tx.create_node(&["P"], &[("age", PropertyValue::Int(36))])?;
    /// # tx.create_node(&["P"], &[("age", PropertyValue::Int(21))])?;
    /// # tx.commit()?;
    /// # let tx = db.txn().read_only().begin();
    /// let adults = tx
    ///     .nodes_with_property_range("age", PropertyValue::Int(30)..=PropertyValue::Int(120))?
    ///     .count();
    /// assert_eq!(adults, 1);
    /// # Ok(()) }
    /// ```
    pub fn nodes_with_property_range(
        &self,
        name: &str,
        range: impl std::ops::RangeBounds<PropertyValue>,
    ) -> Result<NodeIdIter<'_>> {
        let (lo, hi) = crate::plan::value_range_key_bounds(&range);
        self.nodes_with_property_range_chunked(name, lo, hi, self.scan_chunk_size, false)
    }

    pub(crate) fn nodes_with_property_range_chunked(
        &self,
        name: &str,
        lo: std::ops::Bound<graphsi_storage::ValueKey>,
        hi: std::ops::Bound<graphsi_storage::ValueKey>,
        chunk: usize,
        descending: bool,
    ) -> Result<NodeIdIter<'_>> {
        self.ensure_active()?;
        let Some(token) = self.db.store.tokens().existing_property_key(name) else {
            return Ok(NodeIdIter::empty(self));
        };
        NodeIdIter::with_property_range(self, token, lo, hi, chunk, descending)
    }

    /// Sorted-posting merge-intersect source for the query planner: the
    /// driver predicate streams through its range cursor (ascending or
    /// descending) while each leg is pre-drained into a sorted build side.
    /// An unknown property key on any predicate means nothing can match.
    pub(crate) fn nodes_intersection_chunked(
        &self,
        driver: &crate::plan::RangePred,
        legs: &[crate::plan::RangePred],
        chunk: usize,
        descending: bool,
    ) -> Result<NodeIdIter<'_>> {
        self.ensure_active()?;
        let tokens = self.db.store.tokens();
        let Some(driver_token) = tokens.existing_property_key(&driver.name) else {
            return Ok(NodeIdIter::empty(self));
        };
        let mut leg_preds = Vec::with_capacity(legs.len());
        for leg in legs {
            let Some(token) = tokens.existing_property_key(&leg.name) else {
                return Ok(NodeIdIter::empty(self));
            };
            leg_preds.push((token, leg.lo.clone(), leg.hi.clone()));
        }
        NodeIdIter::with_intersection(
            self,
            (driver_token, driver.lo.clone(), driver.hi.clone()),
            leg_preds,
            chunk,
            descending,
        )
    }

    /// One property of the node visible to this transaction, through the
    /// single-key decode fast path: own writes and cache hits answer from
    /// memory, cache misses decode only the requested key out of the
    /// store's property chain instead of materialising the whole list.
    /// Outer `None` = node invisible.
    pub(crate) fn visible_node_property(
        &self,
        id: NodeId,
        token: PropertyKeyToken,
    ) -> Result<Option<Option<PropertyValue>>> {
        Ok(self
            .visible_node_properties(id, std::slice::from_ref(&token))?
            .map(|mut v| v.pop().flatten()))
    }

    /// Multi-key variant of [`Transaction::visible_node_property`]; one
    /// chain walk decodes every requested key (row projections use this).
    pub(crate) fn visible_node_properties(
        &self,
        id: NodeId,
        tokens: &[PropertyKeyToken],
    ) -> Result<Option<Vec<Option<PropertyValue>>>> {
        if let Some(state) = self.write_set.as_ref().and_then(|ws| ws.node_state(id)) {
            return Ok(state.map(|data| {
                tokens
                    .iter()
                    .map(|t| data.properties.get(t).cloned())
                    .collect()
            }));
        }
        let read_ts = self.read_timestamp();
        self.with_read_lock(LockKey::node(id.raw()), || {
            self.db.read_node_properties_version(id, tokens, read_ts)
        })
    }

    /// Relationships whose property `name` equals `value` in this
    /// transaction's view, sorted by ID.
    pub fn relationships_with_property(
        &self,
        name: &str,
        value: &PropertyValue,
    ) -> Result<Vec<RelationshipId>> {
        self.ensure_active()?;
        let Some(token) = self.db.store.tokens().existing_property_key(name) else {
            return Ok(Vec::new());
        };
        let read_ts = self.read_timestamp();
        let mut ids: std::collections::HashSet<RelationshipId> = std::collections::HashSet::new();
        self.db
            .indexes
            .relationship_properties
            .lookup_with(token, value, read_ts, |id| {
                ids.insert(id);
            });
        if let Some(ws) = &self.write_set {
            for (&id, entry) in &ws.relationships {
                match &entry.after {
                    Some(after) if after.properties.get(&token) == Some(value) => {
                        ids.insert(id);
                    }
                    _ => {
                        ids.remove(&id);
                    }
                }
            }
        }
        let mut out: Vec<RelationshipId> = ids.into_iter().collect();
        out.sort();
        Ok(out)
    }

    /// Lazily iterates every node visible to this transaction: the
    /// persistent store's slot scan, the object cache's shard pages and
    /// the private write set are merged chunk by chunk, and each candidate
    /// is visibility-checked only when the iterator reaches it.
    pub fn all_nodes(&self) -> Result<NodeIdIter<'_>> {
        self.all_nodes_chunked(self.scan_chunk_size)
    }

    pub(crate) fn all_nodes_chunked(&self, chunk: usize) -> Result<NodeIdIter<'_>> {
        self.ensure_active()?;
        Ok(NodeIdIter::all_nodes(self, chunk))
    }

    /// Eager version of [`Transaction::all_nodes`]: sorted `Vec`.
    pub fn all_nodes_vec(&self) -> Result<Vec<NodeId>> {
        let mut out: Vec<NodeId> = self.all_nodes()?.collect::<Result<_>>()?;
        out.sort();
        Ok(out)
    }

    /// Lazily iterates every relationship visible to this transaction,
    /// merging the store's slot scan, the cache's shard pages and the
    /// write set chunk by chunk.
    pub fn all_relationships(&self) -> Result<RelIdIter<'_>> {
        self.ensure_active()?;
        Ok(RelIdIter::new(self, self.scan_chunk_size))
    }

    /// Eager version of [`Transaction::all_relationships`]: sorted `Vec`.
    pub fn all_relationships_vec(&self) -> Result<Vec<RelationshipId>> {
        let mut out: Vec<RelationshipId> = self.all_relationships()?.collect::<Result<_>>()?;
        out.sort();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Query builder
    // ------------------------------------------------------------------

    /// Starts a composable, streaming query over this transaction's
    /// snapshot (merged with its own pending writes):
    ///
    /// ```
    /// # use graphsi_core::{DbConfig, Direction, GraphDb, PropertyValue, Result};
    /// # fn main() -> Result<()> {
    /// # let dir = graphsi_core::test_support::TempDir::new("doc-query");
    /// # let db = GraphDb::open(dir.path(), DbConfig::default())?;
    /// # let mut tx = db.begin();
    /// # let ada = tx.create_node(&["Person"], &[("age", PropertyValue::Int(36))])?;
    /// # let lin = tx.create_node(&["Person"], &[("age", PropertyValue::Int(21))])?;
    /// # tx.create_relationship(ada, lin, "KNOWS", &[])?;
    /// # tx.commit()?;
    /// # let tx = db.txn().read_only().begin();
    /// let friends_of_adults = tx
    ///     .query()
    ///     .nodes_with_label("Person")
    ///     .filter_property("age", |v| v.as_int().is_some_and(|age| age >= 30))
    ///     .expand(Direction::Outgoing, Some("KNOWS"))
    ///     .distinct()
    ///     .limit(10)
    ///     .ids()?;
    /// assert_eq!(friends_of_adults, vec![lin]);
    /// # Ok(()) }
    /// ```
    ///
    /// The pipeline streams: results are produced element by element from
    /// the chunked cursors, never buffering more than one chunk of
    /// candidates per stage (plus the deduplication set a `distinct()`
    /// stage needs for the rows it has already emitted).
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder::new(self)
    }

    /// Number of nodes visible to this transaction.
    pub fn node_count(&self) -> Result<usize> {
        let mut count = 0usize;
        for id in self.all_nodes()? {
            id?;
            count += 1;
        }
        Ok(count)
    }

    // ------------------------------------------------------------------
    // Node writes
    // ------------------------------------------------------------------

    /// Creates a node with the given labels and properties, returning its
    /// ID. The node becomes visible to other transactions only at commit.
    pub fn create_node(
        &mut self,
        labels: &[&str],
        properties: &[(&str, PropertyValue)],
    ) -> Result<NodeId> {
        self.ensure_writable()?;
        let mut label_tokens = Vec::with_capacity(labels.len());
        for name in labels {
            label_tokens.push(self.label_token(name)?);
        }
        let mut props = BTreeMap::new();
        for (name, value) in properties {
            props.insert(self.property_key_token(name)?, value.clone());
        }
        let id = self.db.allocate_node_id();
        self.write_lock(LockKey::node(id.raw()), None)?;
        self.write_set_mut()?
            .create_node(id, NodeData::new(label_tokens, props));
        self.db.metrics.writes.add(1);
        Ok(id)
    }

    /// Applies a mutation to a node, buffering the new state in the write
    /// set. Captures the pre-image and acquires the write lock on first
    /// touch.
    fn mutate_node(&mut self, id: NodeId, f: impl FnOnce(&mut NodeData)) -> Result<()> {
        self.ensure_writable()?;
        // Fast path: the node is already in our write set.
        if let Some(state) = self.write_set.as_ref().and_then(|ws| ws.node_state(id)) {
            match state {
                Some(data) => {
                    let mut new = data.clone();
                    f(&mut new);
                    self.write_set_mut()?.update_node(id, None, new);
                    self.db.metrics.writes.add(1);
                    return Ok(());
                }
                None => return Err(DbError::NodeNotFound(id)),
            }
        }
        // First touch: take the long write lock, then verify the snapshot
        // is still the newest committed state, then capture the pre-image.
        self.write_lock(LockKey::node(id.raw()), None)?;
        self.ensure_node_unchanged(id)?;
        let Some((before, before_ts)) = self.node_pre_image(id)? else {
            return Err(DbError::NodeNotFound(id));
        };
        let mut new = (*before).clone();
        f(&mut new);
        self.write_set_mut()?
            .update_node(id, Some((before, before_ts)), new);
        self.db.metrics.writes.add(1);
        Ok(())
    }

    /// Sets (or replaces) a property on a node.
    pub fn set_node_property(
        &mut self,
        id: NodeId,
        name: &str,
        value: PropertyValue,
    ) -> Result<()> {
        let token = self.property_key_token(name)?;
        self.mutate_node(id, |data| {
            data.properties.insert(token, value);
        })
    }

    /// Removes a property from a node (a no-op if absent).
    pub fn remove_node_property(&mut self, id: NodeId, name: &str) -> Result<()> {
        let token = self.property_key_token(name)?;
        self.mutate_node(id, |data| {
            data.properties.remove(&token);
        })
    }

    /// Adds a label to a node (a no-op if already present).
    pub fn add_label(&mut self, id: NodeId, label: &str) -> Result<()> {
        let token = self.label_token(label)?;
        self.mutate_node(id, |data| {
            if !data.labels.contains(&token) {
                data.labels.push(token);
            }
        })
    }

    /// Removes a label from a node (a no-op if absent).
    pub fn remove_label(&mut self, id: NodeId, label: &str) -> Result<()> {
        let token = self.label_token(label)?;
        self.mutate_node(id, |data| {
            data.labels.retain(|l| *l != token);
        })
    }

    /// Deletes a node. The node must have no relationships visible to this
    /// transaction (delete them first, as in Neo4j).
    pub fn delete_node(&mut self, id: NodeId) -> Result<()> {
        self.ensure_writable()?;
        // The node must exist in our view.
        let exists_in_ws = match self.write_set.as_ref().and_then(|ws| ws.node_state(id)) {
            Some(Some(_)) => true,
            Some(None) => return Err(DbError::NodeNotFound(id)),
            None => false,
        };
        // It must have no visible relationships left.
        if self.degree(id, Direction::Both)? > 0 {
            return Err(DbError::NodeHasRelationships(id));
        }
        if exists_in_ws {
            self.write_set_mut()?.delete_node(id, None);
            self.db.metrics.writes.add(1);
            return Ok(());
        }
        self.write_lock(LockKey::node(id.raw()), None)?;
        self.ensure_node_unchanged(id)?;
        let Some((before, before_ts)) = self.node_pre_image(id)? else {
            return Err(DbError::NodeNotFound(id));
        };
        self.write_set_mut()?
            .delete_node(id, Some((before, before_ts)));
        self.db.metrics.writes.add(1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Relationship writes
    // ------------------------------------------------------------------

    /// Creates a relationship between two nodes, returning its ID.
    ///
    /// Both endpoint nodes are write-locked (as in Neo4j, where creating a
    /// relationship locks its endpoints) to serialise against concurrent
    /// node deletion; their versions are not otherwise modified.
    pub fn create_relationship(
        &mut self,
        source: NodeId,
        target: NodeId,
        rel_type: &str,
        properties: &[(&str, PropertyValue)],
    ) -> Result<RelationshipId> {
        self.ensure_writable()?;
        let type_token = self.rel_type_token(rel_type)?;
        let mut props = BTreeMap::new();
        for (name, value) in properties {
            props.insert(self.property_key_token(name)?, value.clone());
        }
        if !self.node_visible(source)? {
            return Err(DbError::NodeNotFound(source));
        }
        if !self.node_visible(target)? {
            return Err(DbError::NodeNotFound(target));
        }
        // Lock the endpoints (no stale-snapshot check: adding a
        // relationship does not conflict with property updates on the
        // endpoints) and the new relationship itself.
        self.write_lock(LockKey::node(source.raw()), None)?;
        if target != source {
            self.write_lock(LockKey::node(target.raw()), None)?;
        }
        let id = self.db.allocate_relationship_id();
        self.write_lock(LockKey::relationship(id.raw()), None)?;
        self.write_set_mut()?
            .create_relationship(id, RelationshipData::new(source, target, type_token, props));
        self.db.metrics.writes.add(1);
        Ok(id)
    }

    /// Applies a mutation to a relationship's properties.
    fn mutate_relationship(
        &mut self,
        id: RelationshipId,
        f: impl FnOnce(&mut RelationshipData),
    ) -> Result<()> {
        self.ensure_writable()?;
        if let Some(state) = self
            .write_set
            .as_ref()
            .and_then(|ws| ws.relationship_state(id))
        {
            match state {
                Some(data) => {
                    let mut new = data.clone();
                    f(&mut new);
                    self.write_set_mut()?.update_relationship(id, None, new);
                    self.db.metrics.writes.add(1);
                    return Ok(());
                }
                None => return Err(DbError::RelationshipNotFound(id)),
            }
        }
        self.write_lock(LockKey::relationship(id.raw()), None)?;
        self.ensure_relationship_unchanged(id)?;
        let Some((before, before_ts)) = self.relationship_pre_image(id)? else {
            return Err(DbError::RelationshipNotFound(id));
        };
        let mut new = (*before).clone();
        f(&mut new);
        self.write_set_mut()?
            .update_relationship(id, Some((before, before_ts)), new);
        self.db.metrics.writes.add(1);
        Ok(())
    }

    /// Sets (or replaces) a property on a relationship.
    pub fn set_relationship_property(
        &mut self,
        id: RelationshipId,
        name: &str,
        value: PropertyValue,
    ) -> Result<()> {
        let token = self.property_key_token(name)?;
        self.mutate_relationship(id, |data| {
            data.properties.insert(token, value);
        })
    }

    /// Removes a property from a relationship (a no-op if absent).
    pub fn remove_relationship_property(&mut self, id: RelationshipId, name: &str) -> Result<()> {
        let token = self.property_key_token(name)?;
        self.mutate_relationship(id, |data| {
            data.properties.remove(&token);
        })
    }

    /// Deletes a relationship.
    pub fn delete_relationship(&mut self, id: RelationshipId) -> Result<()> {
        self.ensure_writable()?;
        if let Some(state) = self
            .write_set
            .as_ref()
            .and_then(|ws| ws.relationship_state(id))
        {
            match state {
                Some(_) => {
                    self.write_set_mut()?.delete_relationship(id, None);
                    self.db.metrics.writes.add(1);
                    return Ok(());
                }
                None => return Err(DbError::RelationshipNotFound(id)),
            }
        }
        self.write_lock(LockKey::relationship(id.raw()), None)?;
        self.ensure_relationship_unchanged(id)?;
        let Some((before, before_ts)) = self.relationship_pre_image(id)? else {
            return Err(DbError::RelationshipNotFound(id));
        };
        // Lock the endpoints to serialise against concurrent node deletion.
        self.write_lock(LockKey::node(before.source.raw()), None)?;
        if before.target != before.source {
            self.write_lock(LockKey::node(before.target.raw()), None)?;
        }
        self.write_set_mut()?
            .delete_relationship(id, Some((before, before_ts)));
        self.db.metrics.writes.add(1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Conversions
    // ------------------------------------------------------------------

    pub(crate) fn to_public_node(&self, id: NodeId, data: &NodeData) -> Node {
        Node {
            id,
            labels: data.labels.iter().map(|l| self.label_name(*l)).collect(),
            properties: data
                .properties
                .iter()
                .map(|(k, v)| (self.property_key_name(*k), v.clone()))
                .collect(),
        }
    }

    pub(crate) fn to_public_relationship(
        &self,
        id: RelationshipId,
        data: &RelationshipData,
    ) -> Relationship {
        Relationship {
            id,
            source: data.source,
            target: data.target,
            rel_type: self.rel_type_name(data.rel_type),
            properties: data
                .properties
                .iter()
                .map(|(k, v)| (self.property_key_name(*k), v.clone()))
                .collect(),
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.rollback_in_place();
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("start_ts", &self.start_ts)
            .field("isolation", &self.isolation)
            .field("conflict_strategy", &self.conflict_strategy)
            .field("read_only", &self.is_read_only())
            .field("state", &self.state)
            .field("pending_writes", &self.pending_writes())
            .finish()
    }
}
