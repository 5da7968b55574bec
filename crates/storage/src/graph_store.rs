//! The aggregated persistent graph store.
//!
//! [`GraphStore`] ties together the node, relationship, property and token
//! stores and provides the *logical* operations the transactional layer
//! needs at commit time (install the newest committed version of an
//! entity) and at cold-read time (materialise an entity that is not in the
//! object cache).
//!
//! Exactly as the paper prescribes, the persistent store holds **only the
//! most recent committed version** of every node and relationship; all
//! older versions live in the in-memory object cache of the MVCC layer.
//! Each record carries the commit timestamp of the version it holds, so
//! visibility is decided from the fixed-size record alone.
//!
//! # Reading a payload while commits apply
//!
//! Readers take no lock beyond the page lock of each record they load, so a
//! property chain can be rewritten while a reader walks it. Writers change
//! the record before they touch its chain: an update first stamps the
//! record with the new commit timestamp, then frees the old chain, writes
//! the new one (it reuses the freed slots, so the chain stays on its
//! pages) and points the record at it; a delete clears the in-use flag
//! before freeing. The payload reads ([`GraphStore::node_properties`] and
//! friends) re-load the record after the walk, and if its commit
//! timestamp, chain head or in-use flag moved they report `None` instead
//! of a payload that may mix two versions. Callers pass a record whose
//! commit has finished applying (the transactional layer publishes a
//! commit only after its store apply), so a record that still matches
//! proves no writer touched the chain during the walk. Commit timestamps
//! of one entity only grow, with one exception: undoing a failed apply
//! restores the previous timestamp, and if the restored chain reuses the
//! old head slot a walk that overlapped the failed apply and its undo is
//! not detected.

use std::path::{Path, PathBuf};

use crate::error::{Result, StorageError};
use crate::ids::{LabelToken, NodeId, PropertyKeyToken, RelTypeToken, RelationshipId};
use crate::page_cache::PageCacheStats;
use crate::property_store::PropertyStore;
use crate::record::{NodeRecord, RelationshipRecord};
use crate::store_file::RecordStore;
use crate::token_store::TokenStores;
use crate::value::PropertyValue;

/// Upper bound on relationship-chain length used as a cycle guard.
const MAX_CHAIN_LENGTH: usize = 10_000_000;

/// Configuration for opening a [`GraphStore`].
#[derive(Clone, Copy, Debug)]
pub struct GraphStoreConfig {
    /// Number of pages each record store may keep cached in memory.
    pub cache_pages_per_store: usize,
    /// Verify page-trailer checksums when pages fault in (default on).
    /// Short non-zero file tails are rejected even when this is off.
    pub verify_pages_on_read: bool,
}

impl Default for GraphStoreConfig {
    fn default() -> Self {
        GraphStoreConfig {
            cache_pages_per_store: 256,
            verify_pages_on_read: true,
        }
    }
}

/// Names one of the four page-cache-backed store files, for targeting
/// fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreTarget {
    /// `nodes.db`.
    Nodes,
    /// `relationships.db`.
    Relationships,
    /// `properties.db`.
    Properties,
    /// `strings.db` (dynamic string overflow).
    Strings,
}

/// Result of a store-wide page-checksum walk
/// ([`GraphStore::verify_pages`]).
#[derive(Clone, Debug, Default)]
pub struct StorePageReport {
    /// Pages examined across all store files.
    pub pages_checked: u64,
    /// Corrupt pages as `(file, page, computed_crc, stored_crc)`.
    pub corrupt: Vec<(&'static str, u64, u32, u32)>,
}

/// A fully materialised node as stored on disk.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredNode {
    /// The node's ID.
    pub id: NodeId,
    /// Label tokens attached to the node.
    pub labels: Vec<LabelToken>,
    /// The node's properties.
    pub properties: Vec<(PropertyKeyToken, PropertyValue)>,
    /// Commit timestamp of the stored version (zero for bootstrap data).
    pub commit_ts: u64,
}

/// A fully materialised relationship as stored on disk.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredRelationship {
    /// The relationship's ID.
    pub id: RelationshipId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Relationship type token.
    pub rel_type: RelTypeToken,
    /// The relationship's properties.
    pub properties: Vec<(PropertyKeyToken, PropertyValue)>,
    /// Commit timestamp of the stored version (zero for bootstrap data).
    pub commit_ts: u64,
}

/// Aggregate counters across all record stores, used by experiment E7
/// (write amplification / store size).
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphStoreStats {
    /// Page-cache counters of the node store.
    pub nodes: PageCacheStats,
    /// Page-cache counters of the relationship store.
    pub relationships: PageCacheStats,
    /// Page-cache counters of the property store (`properties.db`).
    pub properties: PageCacheStats,
    /// Record writes issued against the property + dynamic stores.
    pub property_record_writes: u64,
    /// One past the largest node ID.
    pub node_high_id: u64,
    /// One past the largest relationship ID.
    pub relationship_high_id: u64,
}

impl GraphStoreStats {
    /// Total record writes across node, relationship and property stores.
    pub fn total_record_writes(&self) -> u64 {
        self.nodes.record_writes + self.relationships.record_writes + self.property_record_writes
    }
}

/// The persistent graph store: node, relationship, property and token
/// stores under one directory.
pub struct GraphStore {
    dir: PathBuf,
    nodes: RecordStore<NodeRecord>,
    relationships: RecordStore<RelationshipRecord>,
    properties: PropertyStore,
    tokens: TokenStores,
}

impl GraphStore {
    /// Opens (creating if necessary) a graph store in `dir`.
    pub fn open(dir: impl AsRef<Path>, config: GraphStoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::OpenFailed {
            path: dir.clone(),
            source: e,
        })?;
        let pages = config.cache_pages_per_store;
        let verify = config.verify_pages_on_read;
        Ok(GraphStore {
            nodes: RecordStore::open_with(&dir, "nodes.db", pages, verify)?,
            relationships: RecordStore::open_with(&dir, "relationships.db", pages, verify)?,
            properties: PropertyStore::open_with(&dir, pages, verify)?,
            tokens: TokenStores::open(&dir)?,
            dir,
        })
    }

    /// Runs `f` over every page cache in the store (nodes, relationships,
    /// properties, strings) — the integrity-plumbing fan-out used for
    /// trailer stamps, recovery suspect mode and stat aggregation.
    fn for_each_cache(&self, mut f: impl FnMut(&'static str, &crate::page_cache::PageCache)) {
        f("nodes.db", self.nodes.page_cache());
        f("relationships.db", self.relationships.page_cache());
        f("properties.db", self.properties.record_store().page_cache());
        f("strings.db", self.properties.dynamic_store().page_cache());
    }

    /// Sets the stamp sealed into page trailers at write-back across all
    /// store files (the checkpoint epoch; diagnostic only).
    pub fn set_page_stamp(&self, stamp: u64) {
        self.for_each_cache(|_, cache| cache.set_stamp(stamp));
    }

    /// Enters recovery mode on every store file: checksum-failed pages
    /// become suspects for WAL replay to rebuild instead of hard errors.
    pub fn begin_recovery(&self) {
        self.for_each_cache(|_, cache| cache.begin_recovery());
    }

    /// Leaves recovery mode, returning each store file's
    /// [`RecoveryOutcome`](crate::page_cache::RecoveryOutcome) keyed by
    /// file name.
    pub fn end_recovery(&self) -> Vec<(&'static str, crate::page_cache::RecoveryOutcome)> {
        let mut out = Vec::new();
        self.for_each_cache(|file, cache| out.push((file, cache.end_recovery())));
        out
    }

    /// Arms a one-shot write-back fault on the store file holding
    /// `target` (see [`PageFault`](crate::page_cache::PageFault)).
    /// Testing hook for the store crash-point matrix.
    pub fn inject_write_fault(&self, target: StoreTarget, fault: crate::page_cache::PageFault) {
        let cache = match target {
            StoreTarget::Nodes => self.nodes.page_cache(),
            StoreTarget::Relationships => self.relationships.page_cache(),
            StoreTarget::Properties => self.properties.record_store().page_cache(),
            StoreTarget::Strings => self.properties.dynamic_store().page_cache(),
        };
        cache.inject_write_fault(fault);
    }

    /// Walks every page of every store file verifying trailer checksums,
    /// holding each cache lock for at most `pages_per_hold` pages at a
    /// time (the `flush_incremental` pattern) so concurrent commits keep
    /// flowing.
    pub fn verify_pages(&self, pages_per_hold: usize) -> Result<StorePageReport> {
        let mut report = StorePageReport::default();
        let caches: [(&'static str, &crate::page_cache::PageCache); 4] = [
            ("nodes.db", self.nodes.page_cache()),
            ("relationships.db", self.relationships.page_cache()),
            ("properties.db", self.properties.record_store().page_cache()),
            ("strings.db", self.properties.dynamic_store().page_cache()),
        ];
        for (file, cache) in caches {
            let mut start = 0u64;
            loop {
                let sweep = cache.verify_pages(start, pages_per_hold)?;
                report.pages_checked += sweep.checked;
                report
                    .corrupt
                    .extend(sweep.corrupt.into_iter().map(|(p, e, f)| (file, p, e, f)));
                match sweep.next {
                    Some(next) => start = next,
                    None => break,
                }
            }
        }
        Ok(report)
    }

    /// Sum of fault-in checksum failures across all store files.
    pub fn checksum_failures(&self) -> u64 {
        let mut total = 0;
        self.for_each_cache(|_, cache| total += cache.stats().checksum_failures);
        total
    }

    /// Sum of recovery-rebuilt torn pages across all store files.
    pub fn torn_pages_recovered(&self) -> u64 {
        let mut total = 0;
        self.for_each_cache(|_, cache| total += cache.stats().torn_pages_recovered);
        total
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The token registries (labels, property keys, relationship types).
    pub fn tokens(&self) -> &TokenStores {
        &self.tokens
    }

    // ----- ID allocation ---------------------------------------------------

    /// Allocates a node ID. The slot is not written until the creating
    /// transaction commits.
    pub fn allocate_node_id(&self) -> NodeId {
        NodeId::new(self.nodes.allocate_id())
    }

    /// Allocates a relationship ID.
    pub fn allocate_relationship_id(&self) -> RelationshipId {
        RelationshipId::new(self.relationships.allocate_id())
    }

    /// Ensures ID high-water marks cover `node_high`/`rel_high`; used by
    /// recovery when replaying a WAL that references newer IDs.
    pub fn bump_high_ids(&self, node_high: u64, rel_high: u64) {
        self.nodes.bump_high_id(node_high);
        self.relationships.bump_high_id(rel_high);
    }

    /// One past the largest node ID ever allocated.
    pub fn node_high_id(&self) -> u64 {
        self.nodes.high_id()
    }

    /// One past the largest relationship ID ever allocated.
    pub fn relationship_high_id(&self) -> u64 {
        self.relationships.high_id()
    }

    // ----- Node operations --------------------------------------------------

    /// Writes a brand new node record carrying the bootstrap timestamp.
    pub fn create_node(
        &self,
        id: NodeId,
        labels: &[LabelToken],
        properties: &[(PropertyKeyToken, PropertyValue)],
    ) -> Result<()> {
        self.create_node_at(id, labels, properties, 0)
    }

    /// Writes a brand new node record holding the version committed at
    /// `commit_ts` (commit-time install of a created node).
    pub fn create_node_at(
        &self,
        id: NodeId,
        labels: &[LabelToken],
        properties: &[(PropertyKeyToken, PropertyValue)],
        commit_ts: u64,
    ) -> Result<()> {
        let mut record = NodeRecord::new_in_use();
        record.first_prop = self.properties.write_chain(properties)?;
        record.labels = labels.to_vec();
        record.commit_ts = commit_ts;
        self.nodes.write(id.raw(), &record)
    }

    /// Overwrites the labels and properties of an existing node, stamping
    /// the bootstrap timestamp.
    pub fn update_node(
        &self,
        id: NodeId,
        labels: &[LabelToken],
        properties: &[(PropertyKeyToken, PropertyValue)],
    ) -> Result<()> {
        self.update_node_at(id, labels, properties, 0)
    }

    /// Overwrites an existing node with the version committed at
    /// `commit_ts` (the paper: only the most recent committed version is
    /// written to the persistent store). The record is stamped with the
    /// new timestamp before its chain is touched (see the module docs).
    pub fn update_node_at(
        &self,
        id: NodeId,
        labels: &[LabelToken],
        properties: &[(PropertyKeyToken, PropertyValue)],
        commit_ts: u64,
    ) -> Result<()> {
        let mut record = self.nodes.load_in_use(id.raw())?;
        record.commit_ts = commit_ts;
        self.nodes.write(id.raw(), &record)?;
        self.properties.free_chain(record.first_prop)?;
        record.first_prop = self.properties.write_chain(properties)?;
        record.labels = labels.to_vec();
        self.nodes.write(id.raw(), &record)
    }

    /// Physically removes a node record. The caller must have removed all
    /// of the node's relationships first.
    pub fn delete_node(&self, id: NodeId) -> Result<()> {
        let record = self.nodes.load_in_use(id.raw())?;
        if record.first_rel.is_some() {
            return Err(StorageError::corrupt(
                "node",
                id.raw(),
                "cannot delete a node that still has relationships",
            ));
        }
        self.nodes.write(id.raw(), &NodeRecord::default())?;
        self.properties.free_chain(record.first_prop)?;
        self.nodes.release_id(id.raw());
        Ok(())
    }

    /// Returns `true` if the node record is in use.
    pub fn node_exists(&self, id: NodeId) -> Result<bool> {
        Ok(self.read_node_record(id)?.is_some())
    }

    /// The in-use record of node `id` — labels, chain heads and commit
    /// timestamp — without touching the property store; `None` if the slot
    /// is not in use.
    pub fn read_node_record(&self, id: NodeId) -> Result<Option<NodeRecord>> {
        if id.is_none() || id.raw() >= self.nodes.high_id() {
            return Ok(None);
        }
        let record = self.nodes.load(id.raw())?;
        Ok(record.in_use.then_some(record))
    }

    /// Materialises the node stored under `id`, or `None` if the slot is
    /// not in use. The record and its chain are read without validation:
    /// use it where no commit applies concurrently (recovery, tools) or
    /// where a torn read is confirmed later (the verifier).
    pub fn read_node(&self, id: NodeId) -> Result<Option<StoredNode>> {
        let Some(record) = self.read_node_record(id)? else {
            return Ok(None);
        };
        let properties = self.properties.read_chain(record.first_prop)?;
        Ok(Some(StoredNode {
            id,
            labels: record.labels,
            properties,
            commit_ts: record.commit_ts,
        }))
    }

    /// Decodes the whole property chain of the node whose record was
    /// loaded as `record`, then re-loads the record: `None` if it changed
    /// meanwhile (see the module docs), so the walk cannot be trusted.
    pub fn node_properties(
        &self,
        id: NodeId,
        record: &NodeRecord,
    ) -> Result<Option<Vec<(PropertyKeyToken, PropertyValue)>>> {
        let walk = self.properties.read_chain(record.first_prop);
        self.confirm_node(id, record, walk)
    }

    /// Decodes only the requested properties of the node whose record was
    /// loaded as `record`, in `keys` order, stopping once every key is
    /// found — the single-key fast path decode-based predicate filters and
    /// row projections ride on. Validated like
    /// [`GraphStore::node_properties`].
    pub fn node_properties_selected(
        &self,
        id: NodeId,
        record: &NodeRecord,
        keys: &[PropertyKeyToken],
    ) -> Result<Option<Vec<Option<PropertyValue>>>> {
        let mut out = vec![None; keys.len()];
        let walk = self
            .properties
            .decode_selected(record.first_prop, keys, &mut out)
            .map(|()| out);
        self.confirm_node(id, record, walk)
    }

    fn confirm_node<T>(&self, id: NodeId, seen: &NodeRecord, walk: Result<T>) -> Result<Option<T>> {
        let now = self.nodes.load(id.raw())?;
        let unchanged =
            now.in_use && now.commit_ts == seen.commit_ts && now.first_prop == seen.first_prop;
        confirm(unchanged, walk)
    }

    // ----- Relationship operations -------------------------------------------

    /// Writes a brand new relationship record carrying the bootstrap
    /// timestamp and links it at the head of both endpoint nodes'
    /// relationship chains.
    pub fn create_relationship(
        &self,
        id: RelationshipId,
        source: NodeId,
        target: NodeId,
        rel_type: RelTypeToken,
        properties: &[(PropertyKeyToken, PropertyValue)],
    ) -> Result<()> {
        self.create_relationship_at(id, source, target, rel_type, properties, 0)
    }

    /// [`GraphStore::create_relationship`] holding the version committed
    /// at `commit_ts`.
    pub fn create_relationship_at(
        &self,
        id: RelationshipId,
        source: NodeId,
        target: NodeId,
        rel_type: RelTypeToken,
        properties: &[(PropertyKeyToken, PropertyValue)],
        commit_ts: u64,
    ) -> Result<()> {
        let mut rel = RelationshipRecord::new_in_use(source, target, rel_type);
        rel.first_prop = self.properties.write_chain(properties)?;
        rel.commit_ts = commit_ts;

        let endpoints: &[NodeId] = if source == target {
            &[source]
        } else {
            &[source, target]
        };
        for &node in endpoints {
            let mut node_rec = self.nodes.load_in_use(node.raw())?;
            let old_first = node_rec.first_rel;
            rel.set_chain_for(node, RelationshipId::NONE, old_first);
            if old_first.is_some() {
                // Atomic single-call rewrite: the old chain head may also
                // sit on its *other* endpoint's chain, whose splices are
                // serialised by a different store-apply shard — only this
                // endpoint's pointer pair may be touched, and only under
                // the record's page lock.
                self.relationships.update_in_use(old_first.raw(), |head| {
                    let (_, head_next) = head.chain_for(node);
                    head.set_chain_for(node, id, head_next);
                })?;
            }
            node_rec.first_rel = id;
            self.nodes.write(node.raw(), &node_rec)?;
        }
        self.relationships.write(id.raw(), &rel)
    }

    /// Overwrites the properties of an existing relationship, stamping the
    /// bootstrap timestamp.
    pub fn update_relationship(
        &self,
        id: RelationshipId,
        properties: &[(PropertyKeyToken, PropertyValue)],
    ) -> Result<()> {
        self.update_relationship_at(id, properties, 0)
    }

    /// Overwrites an existing relationship with the version committed at
    /// `commit_ts`, stamping the record first like
    /// [`GraphStore::update_node_at`].
    pub fn update_relationship_at(
        &self,
        id: RelationshipId,
        properties: &[(PropertyKeyToken, PropertyValue)],
        commit_ts: u64,
    ) -> Result<()> {
        let mut record = self.relationships.load_in_use(id.raw())?;
        record.commit_ts = commit_ts;
        self.relationships.write(id.raw(), &record)?;
        self.properties.free_chain(record.first_prop)?;
        record.first_prop = self.properties.write_chain(properties)?;
        self.relationships.write(id.raw(), &record)
    }

    /// Physically removes a relationship record, unlinking it from both
    /// endpoint nodes' chains.
    pub fn delete_relationship(&self, id: RelationshipId) -> Result<()> {
        let rel = self.relationships.load_in_use(id.raw())?;
        let endpoints: &[NodeId] = if rel.source == rel.target {
            &[rel.source]
        } else {
            &[rel.source, rel.target]
        };
        for &node in endpoints {
            let (prev, next) = rel.chain_for(node);
            if prev.is_none() {
                let mut node_rec = self.nodes.load_in_use(node.raw())?;
                node_rec.first_rel = next;
                self.nodes.write(node.raw(), &node_rec)?;
            } else {
                // Chain-neighbour rewrites are atomic single-call updates:
                // the neighbour may concurrently have its *other*
                // endpoint's pointers rewritten by a splice holding a
                // different store-apply shard (see `update_in_use`).
                self.relationships.update_in_use(prev.raw(), |prev_rec| {
                    let (pp, _) = prev_rec.chain_for(node);
                    prev_rec.set_chain_for(node, pp, next);
                })?;
            }
            if next.is_some() {
                self.relationships.update_in_use(next.raw(), |next_rec| {
                    let (_, nn) = next_rec.chain_for(node);
                    next_rec.set_chain_for(node, prev, nn);
                })?;
            }
        }
        self.relationships
            .write(id.raw(), &RelationshipRecord::default())?;
        self.properties.free_chain(rel.first_prop)?;
        self.relationships.release_id(id.raw());
        Ok(())
    }

    /// Returns `true` if the relationship record is in use.
    pub fn relationship_exists(&self, id: RelationshipId) -> Result<bool> {
        Ok(self.read_relationship_record(id)?.is_some())
    }

    /// The in-use record of relationship `id` — endpoints, type, chain
    /// pointers and commit timestamp — without touching the property store;
    /// `None` if the slot is not in use.
    pub fn read_relationship_record(
        &self,
        id: RelationshipId,
    ) -> Result<Option<RelationshipRecord>> {
        if id.is_none() || id.raw() >= self.relationships.high_id() {
            return Ok(None);
        }
        let record = self.relationships.load(id.raw())?;
        Ok(record.in_use.then_some(record))
    }

    /// Materialises the relationship stored under `id`, or `None` if the
    /// slot is not in use. Unvalidated, like [`GraphStore::read_node`].
    pub fn read_relationship(&self, id: RelationshipId) -> Result<Option<StoredRelationship>> {
        let Some(record) = self.read_relationship_record(id)? else {
            return Ok(None);
        };
        let properties = self.properties.read_chain(record.first_prop)?;
        Ok(Some(stored_relationship(id, &record, properties)))
    }

    /// Decodes the property chain of the relationship whose record was
    /// loaded as `record`; validated like [`GraphStore::node_properties`].
    pub fn relationship_properties(
        &self,
        id: RelationshipId,
        record: &RelationshipRecord,
    ) -> Result<Option<Vec<(PropertyKeyToken, PropertyValue)>>> {
        let walk = self.properties.read_chain(record.first_prop);
        let now = self.relationships.load(id.raw())?;
        let unchanged =
            now.in_use && now.commit_ts == record.commit_ts && now.first_prop == record.first_prop;
        confirm(unchanged, walk)
    }

    /// Materialises every relationship attached to `node` by walking its
    /// relationship chain.
    pub fn relationships_of(&self, node: NodeId) -> Result<Vec<StoredRelationship>> {
        let node_rec = match self.read_node_record(node)? {
            Some(rec) => rec,
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        let mut current = node_rec.first_rel;
        let mut steps = 0usize;
        while current.is_some() {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "relationship",
                    node.raw(),
                    "relationship chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let rel = self.relationships.load_in_use(current.raw())?;
            let properties = self.properties.read_chain(rel.first_prop)?;
            out.push(stored_relationship(current, &rel, properties));
            let (_, next) = rel.chain_for(node);
            current = next;
        }
        Ok(out)
    }

    /// IDs of every relationship attached to `node`, walking its chain
    /// without loading property chains. This is the hot path behind the
    /// lazy relationship iterators: resolving full relationship state is
    /// deferred to whoever consumes the IDs.
    pub fn relationship_ids_of(&self, node: NodeId) -> Result<Vec<RelationshipId>> {
        let node_rec = match self.read_node_record(node)? {
            Some(rec) => rec,
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        let mut current = node_rec.first_rel;
        let mut steps = 0usize;
        while current.is_some() {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "relationship",
                    node.raw(),
                    "relationship chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let rel = self.relationships.load_in_use(current.raw())?;
            out.push(current);
            let (_, next) = rel.chain_for(node);
            current = next;
        }
        Ok(out)
    }

    /// Number of relationships attached to `node`.
    pub fn node_degree(&self, node: NodeId) -> Result<usize> {
        Ok(self.relationship_ids_of(node)?.len())
    }

    /// Opens a resumable, chunked cursor over the relationship chain of
    /// `node` (see [`RelChainCursor`]). Buffers nothing at creation; each
    /// [`RelChainCursor::next_chunk`] call walks at most one chunk of chain
    /// links.
    pub fn rel_chain_cursor(&self, node: NodeId, chunk_size: usize) -> Result<RelChainCursor<'_>> {
        let first = match self.read_node_record(node)? {
            Some(rec) => rec.first_rel,
            None => RelationshipId::NONE,
        };
        Ok(RelChainCursor {
            store: self,
            node,
            chunk: chunk_size.max(1),
            next: first,
            steps: 0,
            restarts: 0,
        })
    }

    /// Opens a resumable, chunked cursor over every in-use node slot (see
    /// [`NodeScanCursor`]). The scan is bounded by the high-water mark at
    /// creation time: slots allocated later belong to commits newer than
    /// any snapshot that could be driving the cursor.
    pub fn node_scan_cursor(&self, chunk_size: usize) -> NodeScanCursor<'_> {
        NodeScanCursor {
            store: self,
            next_raw: 0,
            high: self.nodes.high_id(),
            chunk: chunk_size.max(1),
        }
    }

    /// Opens a resumable, chunked cursor over every in-use relationship
    /// slot (see [`RelScanCursor`]).
    pub fn rel_scan_cursor(&self, chunk_size: usize) -> RelScanCursor<'_> {
        RelScanCursor {
            store: self,
            next_raw: 0,
            high: self.relationships.high_id(),
            chunk: chunk_size.max(1),
        }
    }

    // ----- Scans -------------------------------------------------------------

    /// IDs of every in-use node, in ID order.
    pub fn scan_node_ids(&self) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        for entry in self.nodes.scan() {
            let (id, _) = entry?;
            out.push(NodeId::new(id));
        }
        Ok(out)
    }

    /// IDs of every in-use relationship, in ID order.
    pub fn scan_relationship_ids(&self) -> Result<Vec<RelationshipId>> {
        let mut out = Vec::new();
        for entry in self.relationships.scan() {
            let (id, _) = entry?;
            out.push(RelationshipId::new(id));
        }
        Ok(out)
    }

    // ----- Maintenance --------------------------------------------------------

    /// Flushes every store (pages, ID allocators, token registries).
    pub fn flush(&self) -> Result<()> {
        self.nodes.flush()?;
        self.relationships.flush()?;
        self.properties.flush()?;
        self.tokens.persist()
    }

    /// Fuzzy-checkpoint flush: writes back every store's currently-dirty
    /// pages at most `chunk` pages per lock acquisition, letting
    /// concurrent commits keep writing between chunks. Returns the total
    /// pages written back. Pages dirtied while the flush runs stay dirty
    /// — they belong to commits the checkpoint does not cover.
    pub fn flush_incremental(&self, chunk: usize) -> Result<u64> {
        let flushed = self.nodes.flush_incremental(chunk)?
            + self.relationships.flush_incremental(chunk)?
            + self.properties.flush_incremental(chunk)?;
        self.tokens.persist()?;
        Ok(flushed)
    }

    /// Aggregate counters for the storage experiments.
    pub fn stats(&self) -> GraphStoreStats {
        GraphStoreStats {
            nodes: self.nodes.cache_stats(),
            relationships: self.relationships.cache_stats(),
            properties: self.properties.record_store().cache_stats(),
            property_record_writes: self.properties.record_writes(),
            node_high_id: self.nodes.high_id(),
            relationship_high_id: self.relationships.high_id(),
        }
    }
}

/// The verdict of a validated payload read: the walk stands only if the
/// owner's record did not change while it ran.
fn confirm<T>(unchanged: bool, walk: Result<T>) -> Result<Option<T>> {
    if unchanged {
        walk.map(Some)
    } else {
        Ok(None)
    }
}

fn stored_relationship(
    id: RelationshipId,
    record: &RelationshipRecord,
    properties: Vec<(PropertyKeyToken, PropertyValue)>,
) -> StoredRelationship {
    StoredRelationship {
        id,
        source: record.source,
        target: record.target,
        rel_type: record.rel_type,
        properties,
        commit_ts: record.commit_ts,
    }
}

/// Cap on chain-restart attempts before a cursor declares the chain
/// corrupt. Restarts only happen when a concurrent committer rewires the
/// chain between two refills, so hitting this bound requires pathological,
/// unending churn on a single node.
const MAX_CHAIN_RESTARTS: u64 = 1024;

/// A resumable, chunked cursor over the relationship chain of one node,
/// created by [`GraphStore::rel_chain_cursor`].
///
/// The cursor holds **no lock** and buffers at most one chunk of
/// relationship IDs per [`RelChainCursor::next_chunk`] call; between calls
/// it remembers only the next chain link. Because concurrent commits may
/// unlink (delete) or head-insert (create) records while the cursor is
/// parked, every resumed link is re-validated: if the record was freed or
/// reused for a relationship that no longer touches the node, the cursor
/// **restarts from the chain head**. Restarting can hand out IDs a
/// previous chunk already contained — callers are expected to deduplicate
/// (the transactional layer does, via its visit-set) and to filter every
/// ID by snapshot visibility, which also makes concurrently inserted
/// (newer-than-snapshot) records harmless. Relationships unlinked by a
/// commit the snapshot must not observe are *not* the cursor's job: their
/// versions live in the MVCC cache and reach readers through the
/// relationship overlay.
pub struct RelChainCursor<'s> {
    store: &'s GraphStore,
    node: NodeId,
    chunk: usize,
    next: RelationshipId,
    steps: usize,
    restarts: u64,
}

impl RelChainCursor<'_> {
    /// Times the cursor had to restart from the chain head because a
    /// concurrent commit invalidated its parked position.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Refills `buf` (cleared first) with up to one chunk of relationship
    /// IDs, resuming at the parked chain link. Returns `false` once the
    /// chain is exhausted and `buf` stayed empty.
    pub fn next_chunk(&mut self, buf: &mut Vec<RelationshipId>) -> Result<bool> {
        buf.clear();
        while self.next.is_some() && buf.len() < self.chunk {
            if self.steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "relationship",
                    self.node.raw(),
                    "relationship chain exceeds maximum length (cycle?)",
                ));
            }
            let record = self.store.relationships.load(self.next.raw())?;
            if !record.in_use || !(record.source == self.node || record.target == self.node) {
                // The parked link was deleted (or its slot reused) by a
                // concurrent commit: the chain was rewired under us.
                // Restart from the head; downstream dedup + visibility
                // filtering absorb the re-yielded prefix.
                self.restarts += 1;
                if self.restarts > MAX_CHAIN_RESTARTS {
                    return Err(StorageError::corrupt(
                        "relationship",
                        self.node.raw(),
                        "relationship chain kept changing under a cursor",
                    ));
                }
                self.steps = 0;
                self.next = match self.store.read_node_record(self.node)? {
                    Some(rec) => rec.first_rel,
                    None => RelationshipId::NONE,
                };
                continue;
            }
            self.steps += 1;
            buf.push(self.next);
            let (_, next) = record.chain_for(self.node);
            self.next = next;
        }
        Ok(!buf.is_empty())
    }
}

impl std::fmt::Debug for RelChainCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelChainCursor")
            .field("node", &self.node)
            .field("chunk", &self.chunk)
            .field("restarts", &self.restarts)
            .finish_non_exhaustive()
    }
}

/// A resumable, chunked cursor over every in-use node slot, created by
/// [`GraphStore::node_scan_cursor`]. Holds no lock; each refill examines
/// record headers from the parked slot onward until one chunk of in-use
/// IDs is collected. Slots freed concurrently are skipped and slots
/// allocated after creation are out of scan range — both only affect
/// entities invisible to any snapshot that existed when the cursor was
/// opened.
pub struct NodeScanCursor<'s> {
    store: &'s GraphStore,
    next_raw: u64,
    high: u64,
    chunk: usize,
}

impl NodeScanCursor<'_> {
    /// Refills `buf` (cleared first) with up to one chunk of in-use node
    /// IDs. Returns `false` once the slot space is exhausted and `buf`
    /// stayed empty.
    pub fn next_chunk(&mut self, buf: &mut Vec<NodeId>) -> Result<bool> {
        buf.clear();
        while self.next_raw < self.high && buf.len() < self.chunk {
            let raw = self.next_raw;
            self.next_raw += 1;
            if self.store.nodes.load(raw)?.in_use {
                buf.push(NodeId::new(raw));
            }
        }
        Ok(!buf.is_empty())
    }
}

impl std::fmt::Debug for NodeScanCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeScanCursor")
            .field("next", &self.next_raw)
            .field("high", &self.high)
            .finish_non_exhaustive()
    }
}

/// Relationship counterpart of [`NodeScanCursor`], created by
/// [`GraphStore::rel_scan_cursor`].
pub struct RelScanCursor<'s> {
    store: &'s GraphStore,
    next_raw: u64,
    high: u64,
    chunk: usize,
}

impl RelScanCursor<'_> {
    /// Refills `buf` (cleared first) with up to one chunk of in-use
    /// relationship IDs. Returns `false` once the slot space is exhausted
    /// and `buf` stayed empty.
    pub fn next_chunk(&mut self, buf: &mut Vec<RelationshipId>) -> Result<bool> {
        buf.clear();
        while self.next_raw < self.high && buf.len() < self.chunk {
            let raw = self.next_raw;
            self.next_raw += 1;
            if self.store.relationships.load(raw)?.in_use {
                buf.push(RelationshipId::new(raw));
            }
        }
        Ok(!buf.is_empty())
    }
}

impl std::fmt::Debug for RelScanCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelScanCursor")
            .field("next", &self.next_raw)
            .field("high", &self.high)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("dir", &self.dir)
            .field("nodes", &self.nodes.high_id())
            .field("relationships", &self.relationships.high_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    fn open(dir: &TempDir) -> GraphStore {
        GraphStore::open(dir.path(), GraphStoreConfig::default()).unwrap()
    }

    fn props(pairs: &[(u32, i64)]) -> Vec<(PropertyKeyToken, PropertyValue)> {
        pairs
            .iter()
            .map(|&(k, v)| (PropertyKeyToken(k), PropertyValue::Int(v)))
            .collect()
    }

    #[test]
    fn create_and_read_node() {
        let dir = TempDir::new("gs_node");
        let store = open(&dir);
        let id = store.allocate_node_id();
        store
            .create_node(id, &[LabelToken(1)], &props(&[(0, 42)]))
            .unwrap();
        let node = store.read_node(id).unwrap().unwrap();
        assert_eq!(node.labels, vec![LabelToken(1)]);
        assert_eq!(node.properties, props(&[(0, 42)]));
        assert!(store.node_exists(id).unwrap());
        assert!(!store.node_exists(NodeId::new(999)).unwrap());
        assert!(store.read_node(NodeId::NONE).unwrap().is_none());
    }

    #[test]
    fn update_node_replaces_labels_and_properties() {
        let dir = TempDir::new("gs_update");
        let store = open(&dir);
        let id = store.allocate_node_id();
        store
            .create_node(id, &[LabelToken(1)], &props(&[(0, 1), (1, 2)]))
            .unwrap();
        store
            .update_node(id, &[LabelToken(2), LabelToken(3)], &props(&[(5, 9)]))
            .unwrap();
        let node = store.read_node(id).unwrap().unwrap();
        assert_eq!(node.labels, vec![LabelToken(2), LabelToken(3)]);
        assert_eq!(node.properties, props(&[(5, 9)]));
    }

    #[test]
    fn delete_node_frees_slot_for_reuse() {
        let dir = TempDir::new("gs_delete");
        let store = open(&dir);
        let id = store.allocate_node_id();
        store.create_node(id, &[], &props(&[(0, 1)])).unwrap();
        store.delete_node(id).unwrap();
        assert!(!store.node_exists(id).unwrap());
        assert!(store.read_node(id).unwrap().is_none());
        // Slot is reused.
        assert_eq!(store.allocate_node_id(), id);
    }

    #[test]
    fn delete_node_with_relationships_is_rejected() {
        let dir = TempDir::new("gs_delete_guard");
        let store = open(&dir);
        let a = store.allocate_node_id();
        let b = store.allocate_node_id();
        store.create_node(a, &[], &[]).unwrap();
        store.create_node(b, &[], &[]).unwrap();
        let r = store.allocate_relationship_id();
        store
            .create_relationship(r, a, b, RelTypeToken(0), &[])
            .unwrap();
        assert!(store.delete_node(a).is_err());
    }

    #[test]
    fn relationship_chains_link_both_endpoints() {
        let dir = TempDir::new("gs_rels");
        let store = open(&dir);
        let a = store.allocate_node_id();
        let b = store.allocate_node_id();
        let c = store.allocate_node_id();
        for id in [a, b, c] {
            store.create_node(id, &[], &[]).unwrap();
        }
        let r1 = store.allocate_relationship_id();
        let r2 = store.allocate_relationship_id();
        let r3 = store.allocate_relationship_id();
        store
            .create_relationship(r1, a, b, RelTypeToken(0), &[])
            .unwrap();
        store
            .create_relationship(r2, a, c, RelTypeToken(1), &[])
            .unwrap();
        store
            .create_relationship(r3, b, c, RelTypeToken(0), &[])
            .unwrap();

        let a_rels: Vec<RelationshipId> = store
            .relationships_of(a)
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(a_rels.len(), 2);
        assert!(a_rels.contains(&r1) && a_rels.contains(&r2));
        assert_eq!(store.node_degree(b).unwrap(), 2);
        assert_eq!(store.node_degree(c).unwrap(), 2);

        let rel = store.read_relationship(r1).unwrap().unwrap();
        assert_eq!(rel.source, a);
        assert_eq!(rel.target, b);
    }

    #[test]
    fn delete_relationship_relinks_chains() {
        let dir = TempDir::new("gs_rel_delete");
        let store = open(&dir);
        let a = store.allocate_node_id();
        let b = store.allocate_node_id();
        store.create_node(a, &[], &[]).unwrap();
        store.create_node(b, &[], &[]).unwrap();
        let rels: Vec<RelationshipId> = (0..5)
            .map(|_| {
                let r = store.allocate_relationship_id();
                store
                    .create_relationship(r, a, b, RelTypeToken(0), &[])
                    .unwrap();
                r
            })
            .collect();
        // Remove the middle, the head and the tail of the chain.
        store.delete_relationship(rels[2]).unwrap();
        store.delete_relationship(rels[4]).unwrap();
        store.delete_relationship(rels[0]).unwrap();
        let remaining: Vec<RelationshipId> = store
            .relationships_of(a)
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(remaining.len(), 2);
        assert!(remaining.contains(&rels[1]) && remaining.contains(&rels[3]));
        assert_eq!(store.node_degree(b).unwrap(), 2);
        assert!(!store.relationship_exists(rels[2]).unwrap());
    }

    #[test]
    fn self_loop_appears_once_in_chain() {
        let dir = TempDir::new("gs_self_loop");
        let store = open(&dir);
        let a = store.allocate_node_id();
        store.create_node(a, &[], &[]).unwrap();
        let r = store.allocate_relationship_id();
        store
            .create_relationship(r, a, a, RelTypeToken(0), &[])
            .unwrap();
        let rels = store.relationships_of(a).unwrap();
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].source, a);
        assert_eq!(rels[0].target, a);
        store.delete_relationship(r).unwrap();
        assert_eq!(store.node_degree(a).unwrap(), 0);
    }

    #[test]
    fn relationship_properties_roundtrip() {
        let dir = TempDir::new("gs_rel_props");
        let store = open(&dir);
        let a = store.allocate_node_id();
        let b = store.allocate_node_id();
        store.create_node(a, &[], &[]).unwrap();
        store.create_node(b, &[], &[]).unwrap();
        let r = store.allocate_relationship_id();
        store
            .create_relationship(r, a, b, RelTypeToken(7), &props(&[(0, 10)]))
            .unwrap();
        store
            .update_relationship(r, &props(&[(0, 20), (1, 30)]))
            .unwrap();
        let rel = store.read_relationship(r).unwrap().unwrap();
        assert_eq!(rel.rel_type, RelTypeToken(7));
        assert_eq!(rel.properties, props(&[(0, 20), (1, 30)]));
    }

    #[test]
    fn scans_list_in_use_entities() {
        let dir = TempDir::new("gs_scan");
        let store = open(&dir);
        let mut node_ids = Vec::new();
        for _ in 0..10 {
            let id = store.allocate_node_id();
            store.create_node(id, &[], &[]).unwrap();
            node_ids.push(id);
        }
        store.delete_node(node_ids[3]).unwrap();
        store.delete_node(node_ids[7]).unwrap();
        let scanned = store.scan_node_ids().unwrap();
        assert_eq!(scanned.len(), 8);
        assert!(!scanned.contains(&node_ids[3]));

        let r = store.allocate_relationship_id();
        store
            .create_relationship(r, node_ids[0], node_ids[1], RelTypeToken(0), &[])
            .unwrap();
        assert_eq!(store.scan_relationship_ids().unwrap(), vec![r]);
    }

    #[test]
    fn graph_persists_across_reopen() {
        let dir = TempDir::new("gs_reopen");
        let (a, b, r);
        {
            let store = open(&dir);
            a = store.allocate_node_id();
            b = store.allocate_node_id();
            store
                .create_node(a, &[LabelToken(0)], &props(&[(0, 1)]))
                .unwrap();
            store.create_node(b, &[LabelToken(1)], &[]).unwrap();
            r = store.allocate_relationship_id();
            store
                .create_relationship(r, a, b, RelTypeToken(0), &props(&[(2, 3)]))
                .unwrap();
            store.flush().unwrap();
        }
        let store = open(&dir);
        let node = store.read_node(a).unwrap().unwrap();
        assert_eq!(node.labels, vec![LabelToken(0)]);
        let rel = store.read_relationship(r).unwrap().unwrap();
        assert_eq!(rel.target, b);
        assert_eq!(store.node_degree(b).unwrap(), 1);
        assert_eq!(store.node_high_id(), 2);
    }

    #[test]
    fn stats_report_record_writes() {
        let dir = TempDir::new("gs_stats");
        let store = open(&dir);
        let id = store.allocate_node_id();
        store.create_node(id, &[], &props(&[(0, 1)])).unwrap();
        let stats = store.stats();
        assert!(stats.total_record_writes() >= 2);
        assert_eq!(stats.node_high_id, 1);
    }

    #[test]
    fn tokens_are_shared_through_the_store() {
        let dir = TempDir::new("gs_tokens");
        let store = open(&dir);
        let person = store.tokens().label("Person").unwrap();
        assert_eq!(store.tokens().label("Person").unwrap(), person);
        assert_eq!(store.tokens().label_name(person), Some("Person".to_owned()));
    }

    /// Builds a hub with `n` spokes; returns (hub, spoke rel IDs).
    fn hub_graph(store: &GraphStore, n: usize) -> (NodeId, Vec<RelationshipId>) {
        let hub = store.allocate_node_id();
        store.create_node(hub, &[], &[]).unwrap();
        let rels = (0..n)
            .map(|_| {
                let spoke = store.allocate_node_id();
                store.create_node(spoke, &[], &[]).unwrap();
                let rel = store.allocate_relationship_id();
                store
                    .create_relationship(rel, hub, spoke, RelTypeToken(0), &[])
                    .unwrap();
                rel
            })
            .collect();
        (hub, rels)
    }

    #[test]
    fn rel_chain_cursor_pages_the_whole_chain() {
        let dir = TempDir::new("gs_chain_cursor");
        let store = open(&dir);
        let (hub, rels) = hub_graph(&store, 10);
        for chunk in [1usize, 3, 100] {
            let mut cursor = store.rel_chain_cursor(hub, chunk).unwrap();
            let mut buf = Vec::new();
            let mut out = Vec::new();
            while cursor.next_chunk(&mut buf).unwrap() {
                assert!(buf.len() <= chunk);
                out.extend_from_slice(&buf);
            }
            assert_eq!(cursor.restarts(), 0);
            let mut expected = rels.clone();
            expected.sort();
            out.sort();
            assert_eq!(out, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn rel_chain_cursor_restarts_after_concurrent_unlink() {
        let dir = TempDir::new("gs_chain_restart");
        let store = open(&dir);
        let (hub, rels) = hub_graph(&store, 6);
        // Chain order is head-insert: the cursor sees rels in reverse
        // creation order. Take one chunk of two, then delete the rel the
        // cursor is parked on (the 3rd-newest) plus one it already saw.
        let mut cursor = store.rel_chain_cursor(hub, 2).unwrap();
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf).unwrap());
        assert_eq!(buf.len(), 2);
        let seen_first: Vec<RelationshipId> = buf.clone();
        store.delete_relationship(rels[3]).unwrap(); // parked link
        store.delete_relationship(rels[5]).unwrap(); // already yielded
        let mut out = seen_first.clone();
        while cursor.next_chunk(&mut buf).unwrap() {
            out.extend_from_slice(&buf);
        }
        assert!(cursor.restarts() >= 1, "cursor must detect the rewiring");
        out.sort();
        out.dedup();
        // Every still-linked relationship is delivered at least once.
        for (i, rel) in rels.iter().enumerate() {
            if i != 3 && i != 5 {
                assert!(out.contains(rel), "lost rel {i}");
            }
        }
    }

    #[test]
    fn concurrent_splices_from_opposite_endpoints_share_a_neighbour_record() {
        // R(n1, n3) heads both n1's and n3's chain. One thread splices new
        // relationships onto n1, another onto n3 — each rewrite of R's
        // pointers arrives from a different endpoint and touches a
        // different pointer pair. The atomic neighbour updates keep both
        // chains intact (a lost update would orphan part of a chain).
        use std::sync::Arc;
        const PER_SIDE: usize = 50;
        let dir = TempDir::new("gs_opposite_splice");
        let store = Arc::new(open(&dir));
        let n1 = store.allocate_node_id();
        let n3 = store.allocate_node_id();
        store.create_node(n1, &[], &[]).unwrap();
        store.create_node(n3, &[], &[]).unwrap();
        let shared = store.allocate_relationship_id();
        store
            .create_relationship(shared, n1, n3, RelTypeToken(0), &[])
            .unwrap();

        let mut handles = Vec::new();
        for hub in [n1, n3] {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_SIDE {
                    let spoke = store.allocate_node_id();
                    store.create_node(spoke, &[], &[]).unwrap();
                    let rel = store.allocate_relationship_id();
                    store
                        .create_relationship(rel, hub, spoke, RelTypeToken(1), &[])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.node_degree(n1).unwrap(), PER_SIDE + 1);
        assert_eq!(store.node_degree(n3).unwrap(), PER_SIDE + 1);
        assert!(store.relationship_ids_of(n1).unwrap().contains(&shared));
        assert!(store.relationship_ids_of(n3).unwrap().contains(&shared));
        // The shared record's chain pointers survived both sides: deleting
        // it must splice cleanly out of both chains.
        store.delete_relationship(shared).unwrap();
        assert_eq!(store.node_degree(n1).unwrap(), PER_SIDE);
        assert_eq!(store.node_degree(n3).unwrap(), PER_SIDE);
    }

    #[test]
    fn commit_ts_lives_in_the_record() {
        let dir = TempDir::new("gs_commit_ts");
        let store = open(&dir);
        let (a, b) = (store.allocate_node_id(), store.allocate_node_id());
        store
            .create_node_at(a, &[LabelToken(1)], &props(&[(0, 1)]), 7)
            .unwrap();
        store.create_node(b, &[], &[]).unwrap();
        let r = store.allocate_relationship_id();
        store
            .create_relationship_at(r, a, b, RelTypeToken(0), &props(&[(1, 2)]), 8)
            .unwrap();
        assert_eq!(store.read_node(a).unwrap().unwrap().commit_ts, 7);
        assert_eq!(store.read_node(b).unwrap().unwrap().commit_ts, 0);
        assert_eq!(
            store
                .read_relationship_record(r)
                .unwrap()
                .unwrap()
                .commit_ts,
            8
        );

        store
            .update_node_at(a, &[LabelToken(2)], &props(&[(0, 5)]), 11)
            .unwrap();
        store
            .update_relationship_at(r, &props(&[(1, 3)]), 12)
            .unwrap();
        let node = store.read_node(a).unwrap().unwrap();
        assert_eq!((node.commit_ts, node.properties), (11, props(&[(0, 5)])));
        let rel = store.read_relationship(r).unwrap().unwrap();
        assert_eq!((rel.commit_ts, rel.properties), (12, props(&[(1, 3)])));
        // The rewrite left exactly one live chain per entity.
        assert_eq!(store.properties.count_in_use(), 2);
    }

    #[test]
    fn payload_reads_refuse_a_record_rewritten_under_them() {
        let dir = TempDir::new("gs_validated");
        let store = open(&dir);
        let (a, b) = (store.allocate_node_id(), store.allocate_node_id());
        store
            .create_node_at(a, &[], &props(&[(0, 1), (1, 2)]), 3)
            .unwrap();
        store.create_node(b, &[], &[]).unwrap();
        let r = store.allocate_relationship_id();
        store
            .create_relationship_at(r, a, b, RelTypeToken(0), &props(&[(2, 3)]), 3)
            .unwrap();

        let node = store.read_node_record(a).unwrap().unwrap();
        let rel = store.read_relationship_record(r).unwrap().unwrap();
        assert_eq!(
            store.node_properties(a, &node).unwrap(),
            Some(props(&[(0, 1), (1, 2)]))
        );
        assert_eq!(
            store
                .node_properties_selected(a, &node, &[PropertyKeyToken(1)])
                .unwrap(),
            Some(vec![Some(PropertyValue::Int(2))])
        );

        // A commit rewrites both after the records were loaded: the walks
        // may have mixed versions, so neither payload is handed out.
        store.update_node_at(a, &[], &props(&[(0, 9)]), 4).unwrap();
        store
            .update_relationship_at(r, &props(&[(2, 9)]), 4)
            .unwrap();
        assert_eq!(store.node_properties(a, &node).unwrap(), None);
        assert_eq!(
            store
                .node_properties_selected(a, &node, &[PropertyKeyToken(0)])
                .unwrap(),
            None
        );
        assert_eq!(store.relationship_properties(r, &rel).unwrap(), None);

        // Deletion is a change too.
        let rel = store.read_relationship_record(r).unwrap().unwrap();
        store.delete_relationship(r).unwrap();
        assert_eq!(store.relationship_properties(r, &rel).unwrap(), None);
    }

    #[test]
    fn scan_cursors_match_the_eager_scans() {
        let dir = TempDir::new("gs_scan_cursor");
        let store = open(&dir);
        let (_hub, rels) = hub_graph(&store, 7);
        store.delete_relationship(rels[2]).unwrap();

        let mut nodes = Vec::new();
        let mut buf = Vec::new();
        let mut cursor = store.node_scan_cursor(3);
        while cursor.next_chunk(&mut buf).unwrap() {
            assert!(buf.len() <= 3);
            nodes.extend_from_slice(&buf);
        }
        assert_eq!(nodes, store.scan_node_ids().unwrap());

        let mut rel_ids = Vec::new();
        let mut cursor = store.rel_scan_cursor(2);
        let mut rbuf = Vec::new();
        while cursor.next_chunk(&mut rbuf).unwrap() {
            rel_ids.extend_from_slice(&rbuf);
        }
        assert_eq!(rel_ids, store.scan_relationship_ids().unwrap());
    }
}
