//! The embedded graph database: stores, caches, indexes, transaction
//! machinery and the commit pipeline.
//!
//! [`GraphDb`] is a cheaply-cloneable *handle*: all state lives in a
//! shared `GraphDbInner` behind an `Arc`, so handles can be cloned into
//! worker threads, server sessions and connection pools, and the
//! transactions they start own a reference to the database (they are
//! `Send + 'static` and may outlive the handle that created them).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use graphsi_index::GraphIndexes;
use graphsi_mvcc::{gc, CacheLookup, CacheStatsSnapshot, GcStrategy, VersionedCache};
use graphsi_storage::record::{NodeRecord, RelationshipRecord};
use graphsi_storage::{
    GraphStore, GraphStoreConfig, GraphStoreStats, LabelToken, NodeId, PropertyKeyToken,
    PropertyValue, RelationshipId,
};
use graphsi_txn::{
    check_at_commit, ActiveTransactionTable, ConflictStrategy, LockKey, LockManager,
    LockStatsSnapshot, Timestamp, TimestampOracle, TxnId,
};
use graphsi_wal::{
    payload_kind, AbortRangeRecord, AbortRecord, CheckpointBeginRecord, CheckpointEndRecord,
    PayloadKind, SegmentedWal,
};

use crate::commit::{self, apply_to_store, CommitOp, CommitRecord};
use crate::commit_pipeline::CommitPipeline;
use crate::config::DbConfig;
use crate::entity::{NodeData, RelationshipData};
use crate::error::{DbError, Result};
use crate::lock_rank;
use crate::metrics::{DbMetrics, DbMetricsSnapshot};
use crate::options::TxnOptions;
use crate::transaction::Transaction;
use crate::write_set::WriteSet;

/// The property key under which stores of the old format kept each
/// entity's commit timestamp. Opening such a store interned this key, so
/// its presence marks a directory this version refuses to open.
const OLD_FORMAT_TIMESTAMP_KEY: &str = "__graphsi.commit_ts";

/// Prefix reserved for internal property keys, labels and relationship
/// types.
pub const RESERVED_PREFIX: &str = "__graphsi";

/// Pages flushed per chunk by the fuzzy checkpoint's incremental store
/// flush. Between chunks the page-cache lock is released, so concurrent
/// commits interleave with the flush instead of stalling behind it.
const CHECKPOINT_FLUSH_CHUNK: usize = 64;

/// Summary of one garbage-collection run across node cache, relationship
/// cache and indexes.
#[derive(Clone, Copy, Debug)]
pub struct GcSummary {
    /// Strategy used (threaded or vacuum).
    pub strategy: GcStrategy,
    /// Watermark (oldest active start timestamp) the run used.
    pub watermark: Timestamp,
    /// Versions examined across both entity caches.
    pub versions_examined: u64,
    /// Versions reclaimed across both entity caches.
    pub versions_reclaimed: u64,
    /// Chains dropped entirely from the caches.
    pub chains_dropped: u64,
    /// Index postings reclaimed.
    pub index_postings_reclaimed: u64,
    /// Wall-clock duration of the run.
    pub duration: Duration,
}

/// The shared state of one open database. Public API users interact with
/// it only through [`GraphDb`] handles and [`Transaction`]s.
pub(crate) struct GraphDbInner {
    pub(crate) config: DbConfig,
    pub(crate) store: GraphStore,
    pub(crate) wal: SegmentedWal,
    pub(crate) node_cache: VersionedCache<NodeId, NodeData>,
    pub(crate) rel_cache: VersionedCache<RelationshipId, RelationshipData>,
    pub(crate) indexes: GraphIndexes,
    pub(crate) oracle: TimestampOracle,
    pub(crate) active: ActiveTransactionTable,
    pub(crate) locks: LockManager,
    pub(crate) metrics: DbMetrics,
    /// Adjacency overlay: relationships that currently have cached versions,
    /// indexed by their endpoint nodes. The persistent store's relationship
    /// chains only reflect the *latest* committed linkage, so an older
    /// snapshot traversing a node must additionally consider relationships
    /// whose deletion it cannot yet see; those live in the relationship
    /// cache and are found through this overlay (the paper's "enriched
    /// iterator"). Per-node sets are ordered (`BTreeSet`) so the chunked
    /// cursors can page them with a resume marker instead of copying the
    /// whole set.
    rel_overlay:
        RwLock<std::collections::HashMap<NodeId, std::collections::BTreeSet<RelationshipId>>>,
    /// The staged commit pipeline: stage-A sequencing, stage-B WAL group
    /// commit and stage-C in-order publication of the visible timestamp.
    /// New transactions snapshot at the pipeline's published watermark
    /// rather than at the raw oracle counter, because a commit timestamp
    /// is allocated *before* installation: a transaction that started in
    /// between would otherwise own a snapshot it cannot read.
    pipeline: CommitPipeline,
    /// Serialises fuzzy checkpoints against each other. Commits never take
    /// this lock — a checkpoint runs concurrently with all three pipeline
    /// stages; only a *second* checkpoint waits here. Holds the LSN of
    /// the last checkpoint's end mark.
    checkpoint_lock: Mutex<u64>,
    txn_counter: AtomicU64,
    commits_since_gc: AtomicU64,
}

/// A handle to an embedded graph database with selectable isolation level.
///
/// Cloning is cheap (an `Arc` bump); clones share all state. The database
/// closes when the last handle *and* the last open [`Transaction`] are
/// dropped.
#[derive(Clone)]
pub struct GraphDb {
    inner: Arc<GraphDbInner>,
}

impl GraphDb {
    /// Opens (creating if necessary) a database in `dir` with the given
    /// configuration, replaying the write-ahead log and rebuilding the
    /// in-memory indexes.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> Result<Self> {
        let dir = dir.as_ref();
        let store = GraphStore::open(
            dir,
            GraphStoreConfig {
                cache_pages_per_store: config.cache_pages_per_store,
            },
        )?;
        if store
            .tokens()
            .existing_property_key(OLD_FORMAT_TIMESTAMP_KEY)
            .is_some()
        {
            return Err(DbError::UnsupportedStoreFormat {
                dir: dir.to_path_buf(),
            });
        }
        let wal = SegmentedWal::open(
            dir.join("wal"),
            config.sync_policy,
            config.wal_segment_bytes,
        )?;

        let inner = GraphDbInner {
            node_cache: VersionedCache::new(config.cache_shards),
            rel_cache: VersionedCache::new(config.cache_shards),
            indexes: GraphIndexes::new(),
            oracle: TimestampOracle::new(),
            active: ActiveTransactionTable::new(),
            locks: LockManager::new(config.lock_timeout),
            metrics: DbMetrics::new(),
            rel_overlay: RwLock::with_rank(
                std::collections::HashMap::new(),
                lock_rank::REL_OVERLAY,
                "core.rel_overlay",
            ),
            pipeline: CommitPipeline::new(
                config.group_commit_max_batch,
                config.group_commit_max_delay,
                wal.durable_lsn(),
            ),
            checkpoint_lock: Mutex::with_rank(0, lock_rank::CHECKPOINT, "core.checkpoint"),
            txn_counter: AtomicU64::new(1),
            commits_since_gc: AtomicU64::new(0),
            config,
            store,
            wal,
        };
        inner.recover()?;
        Ok(GraphDb {
            inner: Arc::new(inner),
        })
    }

    /// Opens a database with the default configuration.
    pub fn open_default(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open(dir, DbConfig::default())
    }

    /// The configuration this instance was opened with.
    pub fn config(&self) -> &DbConfig {
        &self.inner.config
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Starts configuring a transaction. Terminate the builder with
    /// [`TxnOptions::begin`]:
    ///
    /// ```
    /// # use graphsi_core::{DbConfig, GraphDb, IsolationLevel};
    /// # let dir = graphsi_core::test_support::TempDir::new("doc-txn");
    /// # let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
    /// let tx = db
    ///     .txn()
    ///     .isolation(IsolationLevel::SnapshotIsolation)
    ///     .read_only()
    ///     .begin();
    /// # drop(tx);
    /// ```
    pub fn txn(&self) -> TxnOptions {
        TxnOptions::new(Arc::clone(&self.inner))
    }

    /// Begins a read-write transaction at the database's default isolation
    /// level.
    pub fn begin(&self) -> Transaction {
        self.txn().begin()
    }

    /// Runs `f` inside a read-only snapshot transaction and returns its
    /// result. Read-only transactions never touch the lock manager and
    /// skip write-set allocation — the paper's "no read locks" fast path.
    pub fn read<R>(&self, f: impl FnOnce(&Transaction) -> Result<R>) -> Result<R> {
        let tx = self.txn().read_only().begin();
        let result = f(&tx)?;
        tx.commit()?;
        Ok(result)
    }

    /// Runs `f` inside a read-write transaction, committing afterwards and
    /// retrying when the attempt fails with a retryable concurrency
    /// conflict — a write-write conflict, deadlock or lock timeout.
    ///
    /// The backoff between attempts uses capped **decorrelated jitter**:
    /// each retry sleeps a uniformly random duration drawn from
    /// `[base, 3 × previous sleep]`, capped at
    /// [`Self::WRITE_RETRY_BACKOFF_CAP_US`]. A deterministic schedule
    /// would wake every colliding session at the same instant and make
    /// them collide again in lockstep; the jitter spreads them out.
    /// Retries and total backoff time are visible as the `write_retries`
    /// / `write_retry_backoff_us` metrics.
    ///
    /// Non-conflict errors are returned immediately; after
    /// [`Self::WRITE_RETRY_LIMIT`] conflicts the last conflict error is
    /// returned.
    pub fn write_with_retry<R>(
        &self,
        mut f: impl FnMut(&mut Transaction) -> Result<R>,
    ) -> Result<R> {
        let mut sleep_us = Self::WRITE_RETRY_BACKOFF_BASE_US;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut tx = self.begin();
            let result = f(&mut tx).and_then(|value| tx.commit().map(|_| value));
            match result {
                Ok(value) => return Ok(value),
                Err(e) if e.is_conflict() && attempt < Self::WRITE_RETRY_LIMIT => {
                    sleep_us = jitter_between(
                        Self::WRITE_RETRY_BACKOFF_BASE_US,
                        (sleep_us.saturating_mul(3)).min(Self::WRITE_RETRY_BACKOFF_CAP_US),
                    );
                    self.inner.metrics.record_write_retry(sleep_us);
                    std::thread::sleep(Duration::from_micros(sleep_us));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Maximum attempts made by [`GraphDb::write_with_retry`]. Jittered
    /// attempts are cheap (the loser of a first-updater conflict aborts
    /// immediately), so the limit is sized for sustained contention on a
    /// single hot key rather than for the common two-party collision.
    pub const WRITE_RETRY_LIMIT: u32 = 32;

    /// Smallest backoff sleep of [`GraphDb::write_with_retry`], in µs.
    pub const WRITE_RETRY_BACKOFF_BASE_US: u64 = 50;

    /// Largest backoff sleep of [`GraphDb::write_with_retry`], in µs.
    pub const WRITE_RETRY_BACKOFF_CAP_US: u64 = 5_000;

    /// The newest commit timestamp whose effects are fully installed and
    /// therefore readable. This is what new transactions snapshot at.
    pub fn visible_timestamp(&self) -> Timestamp {
        self.inner.visible_timestamp()
    }

    /// Runs a **fuzzy checkpoint**: flushes committed state to the store
    /// and retires fully-covered WAL segments, all while stages A–C keep
    /// admitting and committing — no quiesce, no stop-the-world.
    ///
    /// The procedure brackets the flush with a `CheckpointBegin` /
    /// `CheckpointEnd` record pair:
    ///
    /// 1. `CheckpointBegin{epoch, begin_ts}` is appended *under the
    ///    sequencing lock*, which aligns the LSN and commit-timestamp
    ///    orders: a commit record before the begin mark in the log has
    ///    `commit_ts <= begin_ts`, and vice versa.
    /// 2. The pipeline settles: wait until every commit at or below
    ///    `begin_ts` has finished its store flush-through (or withdrawn).
    ///    Later commits are *not* waited for — they keep flowing.
    /// 3. The dirty page set is snapshotted once and flushed in chunks
    ///    (`CHECKPOINT_FLUSH_CHUNK`); pages dirtied after the snapshot
    ///    belong to post-begin commits, which WAL replay covers, so the
    ///    flush terminates even under sustained writes.
    /// 4. `CheckpointEnd{epoch, stable_ts}` is appended and made durable.
    ///    Recovery replays only the suffix after the last begin mark with
    ///    a matching later end mark; an unpaired begin is ignored.
    /// 5. Segments entirely at or below the begin mark are released
    ///    ([`SegmentedWal::release_upto`]) — everything in them is now
    ///    owned by the store. Before step 1 the active segment is sealed
    ///    ([`SegmentedWal::seal_active`]) unless nothing was appended to
    ///    it since the last checkpoint, so the begin mark opens a fresh
    ///    segment and this step releases the whole covered log, down to
    ///    the checkpoint pair itself. A segment still holding unsynced
    ///    entries is never released.
    pub fn checkpoint(&self) -> Result<()> {
        let inner = &*self.inner;
        // Only a second concurrent checkpoint waits here; commits never
        // take this lock.
        let mut last_end_lsn = inner.checkpoint_lock.lock();
        let commits_before = inner.metrics.snapshot().commits;
        let epoch = inner.wal.advance_epoch();
        // Pages flushed from here on carry this epoch in their trailer
        // stamp, dating any later corruption finding.
        inner.store.set_page_stamp(epoch);
        inner.wal.seal_active(*last_end_lsn)?;
        let (begin_lsn, begin_ts) = {
            let _seq = inner.pipeline.sequence();
            let begin_ts = inner.oracle.current();
            let lsn = inner.wal.append(
                &CheckpointBeginRecord {
                    epoch,
                    begin_ts: begin_ts.raw(),
                }
                .encode(),
            )?;
            (lsn, begin_ts)
        };
        inner.pipeline.wait_published_upto(begin_ts);
        let pages = inner.store.flush_incremental(CHECKPOINT_FLUSH_CHUNK)?;
        let end_lsn = inner.wal.append(
            &CheckpointEndRecord {
                epoch,
                stable_ts: begin_ts.raw(),
            }
            .encode(),
        )?;
        inner
            .pipeline
            .wait_durable(&inner.wal, end_lsn, &inner.metrics)?;
        inner.wal.release_upto(begin_lsn)?;
        *last_end_lsn = end_lsn;
        let commits_after = inner.metrics.snapshot().commits;
        inner
            .metrics
            .record_checkpoint(pages, commits_after.saturating_sub(commits_before));
        Ok(())
    }

    /// Runs the paper's threaded garbage collector: versions and index
    /// postings that no active transaction can observe are reclaimed by
    /// walking only the reclaimable prefix of the GC lists.
    pub fn run_gc(&self) -> GcSummary {
        self.inner.run_gc_with(GcStrategy::Threaded)
    }

    /// Runs the vacuum-style baseline garbage collector (visits every
    /// cached chain), kept as the baseline the threaded collector is
    /// compared against.
    pub fn run_gc_vacuum(&self) -> GcSummary {
        self.inner.run_gc_with(GcStrategy::Vacuum)
    }

    /// Database-level metrics. The WAL segment gauges are read live from
    /// the log here (they are owned by the WAL, not the counter struct).
    pub fn metrics(&self) -> DbMetricsSnapshot {
        let mut snapshot = self.inner.metrics.snapshot();
        snapshot.wal_segments_created = self.inner.wal.segments_created();
        snapshot.wal_segments_deleted = self.inner.wal.segments_deleted();
        snapshot.wal_retained_bytes = self.inner.wal.retained_bytes();
        snapshot.page_checksum_failures = self.inner.store.checksum_failures();
        snapshot.torn_pages_recovered = self.inner.store.torn_pages_recovered();
        snapshot
    }

    /// Counters of the node object cache.
    pub fn node_cache_stats(&self) -> CacheStatsSnapshot {
        self.inner.node_cache.stats()
    }

    /// Counters of the relationship object cache.
    pub fn relationship_cache_stats(&self) -> CacheStatsSnapshot {
        self.inner.rel_cache.stats()
    }

    /// Counters of the lock manager.
    pub fn lock_stats(&self) -> LockStatsSnapshot {
        self.inner.locks.stats()
    }

    /// Counters of the persistent store (page cache, record writes).
    pub fn store_stats(&self) -> GraphStoreStats {
        self.inner.store.stats()
    }

    /// The most recently issued commit timestamp.
    pub fn current_timestamp(&self) -> Timestamp {
        self.inner.oracle.current()
    }

    /// Number of transactions currently active.
    pub fn active_transactions(&self) -> usize {
        self.inner.active.len()
    }

    /// Runs the online integrity verifier: page-trailer CRCs, store chain
    /// pointers, MVCC cache and posting indexes are cross-checked under a
    /// read snapshot with bounded pages per lock hold, so commits keep
    /// flowing while it runs. Transient anomalies from in-flight commits
    /// are confirmed against a settled second walk before being reported
    /// — a clean database under churn verifies with zero findings. See
    /// [`crate::verify::VerifyReport`] for the finding classes.
    pub fn verify(&self) -> Result<crate::verify::VerifyReport> {
        crate::verify::run(&self.inner)
    }

    /// Crash-testing hook: arms a one-shot page-write fault (torn
    /// half-page, stale page, bit flip) on the store file holding
    /// `target`. The next write-back of that file suffers the fault while
    /// the cache believes the write succeeded — exactly what a crash
    /// between DMA and completion does. The store crash-point matrix
    /// drives this, proving checkpoint+replay recovers or
    /// [`GraphDb::verify`] reports.
    pub fn inject_store_write_fault(
        &self,
        target: graphsi_storage::StoreTarget,
        fault: graphsi_storage::PageFault,
    ) {
        self.inner.store.inject_write_fault(target, fault);
    }

    /// Crash-testing hook: makes the next `n` WAL sync operations fail
    /// with an injected I/O error, exercising the pipeline's failed-fsync
    /// paths (batch abort, abort-record invalidation). The commit records
    /// of failed committers stay in the log — exactly like a kernel-level
    /// sync failure — so recovery tests can assert they are never
    /// resurrected.
    pub fn inject_wal_sync_failures(&self, n: u32) {
        self.inner.wal.fail_syncs(n);
    }

    /// Resolves a label name to its token if it exists.
    pub fn label_token(&self, name: &str) -> Option<graphsi_storage::LabelToken> {
        self.inner.store.tokens().existing_label(name)
    }

    /// Resolves a property key name to its token if it exists.
    pub fn property_key_token(&self, name: &str) -> Option<PropertyKeyToken> {
        self.inner.store.tokens().existing_property_key(name)
    }

    /// Resolves a relationship type name to its token if it exists.
    pub fn rel_type_token(&self, name: &str) -> Option<graphsi_storage::RelTypeToken> {
        self.inner.store.tokens().existing_rel_type(name)
    }
}

impl GraphDbInner {
    /// The newest fully-installed (readable) commit timestamp.
    pub(crate) fn visible_timestamp(&self) -> Timestamp {
        self.pipeline.visible_timestamp()
    }

    /// Blocks until every commit sequenced so far has fully applied and
    /// published — the verifier's confirm barrier.
    pub(crate) fn settle_pipeline(&self) {
        self.pipeline.wait_published_upto(self.oracle.current());
    }

    /// Allocates a transaction ID and registers it as active.
    pub(crate) fn register_transaction(&self) -> (TxnId, Timestamp) {
        let id = TxnId(self.txn_counter.fetch_add(1, Ordering::Relaxed));
        let start_ts = self.active.register_with(id, || self.visible_timestamp());
        self.metrics.begins.add(1);
        (id, start_ts)
    }

    fn run_gc_with(&self, strategy: GcStrategy) -> GcSummary {
        let start = Instant::now();
        let watermark = self.active.gc_watermark(self.visible_timestamp());
        let (nodes, rels) = match strategy {
            GcStrategy::Threaded => (
                gc::run_threaded(&self.node_cache, watermark),
                gc::run_threaded(&self.rel_cache, watermark),
            ),
            GcStrategy::Vacuum => (
                gc::run_vacuum(&self.node_cache, watermark),
                gc::run_vacuum(&self.rel_cache, watermark),
            ),
        };
        let index_postings_reclaimed = self.indexes.gc(watermark);
        let summary = GcSummary {
            strategy,
            watermark,
            versions_examined: nodes.versions_examined + rels.versions_examined,
            versions_reclaimed: nodes.versions_reclaimed + rels.versions_reclaimed,
            chains_dropped: nodes.chains_dropped + rels.chains_dropped,
            index_postings_reclaimed,
            duration: start.elapsed(),
        };
        self.metrics.record_gc(summary.versions_reclaimed);
        summary
    }

    // ------------------------------------------------------------------
    // Internal read path (shared by both isolation levels)
    // ------------------------------------------------------------------

    /// The node read path: [`read_version`] over the node cache and the
    /// node record.
    fn node_version<R>(
        &self,
        id: NodeId,
        read_ts: Timestamp,
        from_cache: impl FnOnce(Arc<NodeData>, Timestamp) -> R,
        from_store: impl FnOnce(NodeRecord) -> Result<Option<R>>,
    ) -> Result<Option<R>> {
        self.metrics.reads.add(1);
        let record = || {
            let record = self.store.read_node_record(id)?;
            Ok(record.map(|r| (Timestamp(r.commit_ts), r)))
        };
        read_version(
            &self.node_cache,
            id,
            read_ts,
            record,
            from_cache,
            from_store,
        )
    }

    /// The relationship read path: [`read_version`] over the relationship
    /// cache and the relationship record.
    fn rel_version<R>(
        &self,
        id: RelationshipId,
        read_ts: Timestamp,
        from_cache: impl FnOnce(Arc<RelationshipData>, Timestamp) -> R,
        from_store: impl FnOnce(RelationshipRecord) -> Result<Option<R>>,
    ) -> Result<Option<R>> {
        self.metrics.reads.add(1);
        let record = || {
            let record = self.store.read_relationship_record(id)?;
            Ok(record.map(|r| (Timestamp(r.commit_ts), r)))
        };
        read_version(&self.rel_cache, id, read_ts, record, from_cache, from_store)
    }

    /// Reads the node version visible at `read_ts`, returning the data and
    /// the commit timestamp of that version.
    pub(crate) fn read_node_version(
        &self,
        id: NodeId,
        read_ts: Timestamp,
    ) -> Result<Option<(Arc<NodeData>, Timestamp)>> {
        self.node_version(
            id,
            read_ts,
            |data, ts| (data, ts),
            |record| {
                Ok(self.store.node_properties(id, &record)?.map(|properties| {
                    let data = NodeData::new(record.labels, properties.into_iter().collect());
                    (Arc::new(data), Timestamp(record.commit_ts))
                }))
            },
        )
    }

    /// Header-only read: `f` applied to the labels of the node version
    /// visible at `read_ts`, or `None` if no version is visible. Decided
    /// from the cache or the node record alone — it never reads the
    /// property store.
    pub(crate) fn read_node_labels_version<R>(
        &self,
        id: NodeId,
        read_ts: Timestamp,
        f: impl Fn(&[LabelToken]) -> R,
    ) -> Result<Option<R>> {
        self.node_version(
            id,
            read_ts,
            |data, _| f(&data.labels),
            |record| Ok(Some(f(&record.labels))),
        )
    }

    /// Single-key fast path of [`GraphDbInner::read_node_version`]: the
    /// values of `tokens` on the node version visible at `read_ts`, without
    /// materialising the node's full property list. Cache hits answer from
    /// the already-materialised `NodeData`; cache misses use the store's
    /// selective chain decode ([`GraphStore::node_properties_selected`]),
    /// which stops once every requested key is found and never loads
    /// values the caller did not ask for.
    ///
    /// Outer `None` = the node is invisible at `read_ts`; inner `None`s =
    /// the node exists but lacks that property.
    pub(crate) fn read_node_properties_version(
        &self,
        id: NodeId,
        tokens: &[PropertyKeyToken],
        read_ts: Timestamp,
    ) -> Result<Option<Vec<Option<PropertyValue>>>> {
        self.node_version(
            id,
            read_ts,
            |data, _| {
                tokens
                    .iter()
                    .map(|t| data.properties.get(t).cloned())
                    .collect()
            },
            |record| Ok(self.store.node_properties_selected(id, &record, tokens)?),
        )
    }

    /// Reads the relationship version visible at `read_ts`.
    pub(crate) fn read_relationship_version(
        &self,
        id: RelationshipId,
        read_ts: Timestamp,
    ) -> Result<Option<(Arc<RelationshipData>, Timestamp)>> {
        self.rel_version(
            id,
            read_ts,
            |data, ts| (data, ts),
            |record| {
                Ok(self
                    .store
                    .relationship_properties(id, &record)?
                    .map(|properties| {
                        let data = RelationshipData::new(
                            record.source,
                            record.target,
                            record.rel_type,
                            properties.into_iter().collect(),
                        );
                        (Arc::new(data), Timestamp(record.commit_ts))
                    }))
            },
        )
    }

    /// Header-only relationship read: endpoints and type of the version
    /// visible at `read_ts`, with an empty property map. Like
    /// [`GraphDbInner::read_node_labels_version`], it never reads the
    /// property store.
    pub(crate) fn read_relationship_header_version(
        &self,
        id: RelationshipId,
        read_ts: Timestamp,
    ) -> Result<Option<RelationshipData>> {
        let header = |source, target, rel_type| {
            RelationshipData::new(source, target, rel_type, BTreeMap::new())
        };
        self.rel_version(
            id,
            read_ts,
            |data, _| header(data.source, data.target, data.rel_type),
            |record| Ok(Some(header(record.source, record.target, record.rel_type))),
        )
    }

    /// Pages the relationship overlay of `node`: appends up to `chunk`
    /// overlay IDs that still have cached versions to `buf` (cleared
    /// first), resuming after `after`. Returns the resume marker for the
    /// next page, or `None` once the set is exhausted. Overlay entries
    /// whose versions GC has dropped are pruned lazily along the way —
    /// they are dead for every active snapshot, so no cursor can need
    /// them.
    pub(crate) fn overlay_page(
        &self,
        node: NodeId,
        after: Option<RelationshipId>,
        chunk: usize,
        buf: &mut Vec<RelationshipId>,
    ) -> Option<RelationshipId> {
        buf.clear();
        let mut stale = Vec::new();
        let mut last = None;
        {
            let overlay = self.rel_overlay.read();
            if let Some(set) = overlay.get(&node) {
                let range: Box<dyn Iterator<Item = &RelationshipId>> = match after {
                    None => Box::new(set.iter()),
                    Some(a) => Box::new(
                        set.range((std::ops::Bound::Excluded(a), std::ops::Bound::Unbounded)),
                    ),
                };
                for &id in range {
                    last = Some(id);
                    if self.rel_cache.contains(id) {
                        buf.push(id);
                    } else {
                        stale.push(id);
                    }
                    if buf.len() >= chunk {
                        break;
                    }
                }
            }
        }
        if !stale.is_empty() {
            let mut overlay = self.rel_overlay.write();
            if let Some(set) = overlay.get_mut(&node) {
                for id in stale {
                    set.remove(&id);
                }
                if set.is_empty() {
                    overlay.remove(&node);
                }
            }
        }
        last
    }

    fn overlay_add(&self, node: NodeId, rel: RelationshipId) {
        self.rel_overlay
            .write()
            .entry(node)
            .or_default()
            .insert(rel);
    }

    /// The newest committed timestamp known for a node (cache first, the
    /// store record's header as fallback), used for write-write conflict
    /// detection.
    pub(crate) fn newest_node_commit_ts(&self, id: NodeId) -> Result<Option<Timestamp>> {
        if let Some(ts) = self.node_cache.newest_commit_ts(id) {
            return Ok(Some(ts));
        }
        Ok(self
            .store
            .read_node_record(id)?
            .map(|r| Timestamp(r.commit_ts)))
    }

    /// The newest committed timestamp known for a relationship.
    pub(crate) fn newest_rel_commit_ts(&self, id: RelationshipId) -> Result<Option<Timestamp>> {
        if let Some(ts) = self.rel_cache.newest_commit_ts(id) {
            return Ok(Some(ts));
        }
        Ok(self
            .store
            .read_relationship_record(id)?
            .map(|r| Timestamp(r.commit_ts)))
    }

    /// Allocates a fresh node ID for a create buffered in a transaction.
    pub(crate) fn allocate_node_id(&self) -> NodeId {
        self.store.allocate_node_id()
    }

    /// Allocates a fresh relationship ID.
    pub(crate) fn allocate_relationship_id(&self) -> RelationshipId {
        self.store.allocate_relationship_id()
    }

    // ------------------------------------------------------------------
    // Commit pipeline
    // ------------------------------------------------------------------

    /// Finishes a read-only transaction. By construction it holds no locks
    /// and has no write set, so this never touches the lock manager.
    pub(crate) fn finish_read_only(&self, txn: TxnId, committed: bool) {
        let _ = self.active.deregister(txn);
        if committed {
            self.metrics.record_commit(true);
        } else {
            self.metrics.rollbacks.add(1);
        }
    }

    /// Aborts a read-write transaction: releases its locks and removes it
    /// from the active table.
    pub(crate) fn abort_transaction(&self, txn: TxnId, conflict: bool) {
        self.locks.release_all(txn);
        let _ = self.active.deregister(txn);
        if conflict {
            self.metrics.conflict_aborts.add(1);
        } else {
            self.metrics.rollbacks.add(1);
        }
    }

    /// Commits a transaction's write set through the staged pipeline,
    /// returning the commit timestamp.
    ///
    /// * **Stage A** (short sequencing lock): first-committer-wins
    ///   validation, commit-timestamp assignment and WAL append, so
    ///   records land in the log in commit-timestamp order.
    /// * **Stage B** (no lock): leader/follower group sync — one fsync per
    ///   batch of concurrent committers.
    /// * **Stage C** (concurrent, per-shard store-apply locks): version
    ///   install, store flush-through and index updates overlap across
    ///   committers — the flush-through holds only the shard locks of the
    ///   commit's node-page/relationship-chain footprint, so disjoint
    ///   commits apply concurrently; the publication queue then advances
    ///   the visible timestamp strictly in commit-timestamp order.
    pub(crate) fn commit_transaction(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        strategy: ConflictStrategy,
        write_set: &WriteSet,
    ) -> Result<Timestamp> {
        if write_set.is_empty() {
            self.locks.release_all(txn);
            self.active.deregister(txn)?;
            self.metrics.record_commit(true);
            return Ok(start_ts);
        }

        // Off the sequencing critical path: snapshot the write set into
        // commit ops and pre-encode the WAL payload body (the header is
        // framed once the commit timestamp is known). Encoding validates
        // format limits, so an over-limit record aborts here — before a
        // timestamp is drawn or anything reaches the log.
        let ops = Self::build_commit_ops(write_set);
        let mut payload = match commit::encode_ops(&ops) {
            // Framed with a placeholder timestamp; the real one is patched
            // in place (8 bytes) once it is drawn under the lock, so the
            // critical section never copies the record.
            Ok(body) => commit::frame_record(Timestamp::BOOTSTRAP, &body),
            Err(e) => {
                self.abort_transaction(txn, false);
                return Err(e);
            }
        };
        let keys = commit_lock_keys(write_set);

        // Stage A — sequencing.
        let (commit_ts, lsn) = {
            let seq = self.pipeline.sequence();

            // First-committer-wins validation (skipped entirely under
            // first-updater-wins, where the long write locks already
            // decided every race at update time).
            if let Err(e) = self.validate_at_commit(start_ts, strategy, write_set) {
                drop(seq);
                self.abort_transaction(txn, true);
                return Err(e);
            }

            let commit_ts = self.oracle.commit_timestamp();
            commit::patch_commit_ts(&mut payload, commit_ts);
            match self.wal.append(&payload) {
                Ok(lsn) => {
                    // Fix this commit's position in the publication order
                    // and expose its keys to validators before leaving the
                    // lock.
                    self.pipeline.register(commit_ts, &keys);
                    (commit_ts, lsn)
                }
                Err(e) => {
                    // The drawn timestamp still gets a (withdrawn) queue
                    // slot: every drawn commit-ts must be registered so
                    // the publication queue stays contiguous in ts, which
                    // is what its O(1) offset indexing relies on.
                    self.pipeline.register(commit_ts, &[]);
                    self.pipeline.withdraw(commit_ts);
                    drop(seq);
                    self.abort_transaction(txn, false);
                    return Err(e.into());
                }
            }
        };

        // Stage B — durability: the commit record reaches stable storage
        // (one group sync covering the whole batch) before any state
        // becomes visible. On failure nothing was installed yet, so the
        // transaction aborts cleanly (locks released, deregistered, its
        // publication slot withdrawn) — otherwise its exclusive locks
        // would wedge every later writer. The commit record stays in the
        // log, but the failing group-commit leader already invalidated
        // the whole failed batch with a range-abort record (appended
        // before any later sync could run), so a later successful sync
        // plus crash recovery can never resurrect this caller-visible
        // abort.
        if let Err(e) = self.pipeline.wait_durable(&self.wal, lsn, &self.metrics) {
            self.pipeline.clear_pending(&keys);
            self.pipeline.withdraw(commit_ts);
            self.abort_transaction(txn, false);
            return Err(e);
        }

        // Stage C — installation, overlapping across committers.
        //
        // 1. Versions: install the new versions (and tombstones) into the
        //    object cache, seeding base versions so older snapshots keep
        //    reading their state. This happens *before* the store is
        //    overwritten so concurrent readers never observe a torn state.
        //    From here the cache answers validators, so the pipeline's
        //    pending table no longer needs this commit's keys.
        self.install_versions(commit_ts, write_set);
        self.pipeline.clear_pending(&keys);

        // 2. Persistent store: only the newest committed version is
        //    written (the paper's flush-through rule), under the shard
        //    locks of this commit's footprint — commits touching disjoint
        //    node pages / relationship chains flush through concurrently,
        //    overlapping ones queue per shard. Endpoints of relationship
        //    updates/deletes come from the write set's before-images (the
        //    ops encode only the ID). On failure the caller sees an abort
        //    while the record is already durable, so an abort record must
        //    invalidate it before recovery can replay it.
        let record = CommitRecord { commit_ts, ops };
        let footprint =
            commit::record_footprint(&record.ops, self.pipeline.store_shard_count(), |id| {
                rel_endpoints(write_set, id)
            });
        {
            let _apply = self.pipeline.store_apply(&footprint, &self.metrics);
            if let Err(e) = apply_to_store(&self.store, &record, false) {
                // A failed apply may have written *part* of the commit.
                // Undo it from the write set's before-images (still under
                // the shard locks) so the store returns to its pre-commit
                // state; only then is it safe to invalidate the WAL record
                // — with an abort record in the log, replay will never
                // re-apply this commit, so nothing else could repair a
                // half-applied store. If the undo itself fails (the disk
                // is failing under us), the WAL record is left *valid*:
                // recovery replays the whole commit and restores store
                // consistency — at the price of resurrecting a
                // caller-visible abort, the documented double-failure
                // stance (see ROADMAP).
                if self.undo_partial_apply(write_set).is_ok() {
                    self.append_abort_record(commit_ts);
                }
                // Roll the already-installed cache versions back *before*
                // withdrawing: the visible timestamp never reaches a
                // withdrawn commit, so nothing has observed them yet —
                // but once later commits publish past the gap they would
                // become visible, leaking writes the caller was told
                // failed.
                self.rollback_installed_versions(commit_ts, write_set);
                self.pipeline.withdraw(commit_ts);
                self.abort_transaction(txn, false);
                return Err(e);
            }
        }

        // 3. Indexes: versioned posting updates.
        self.update_indexes(commit_ts, write_set);

        // 4. Publication: advance the visible timestamp in strict
        //    commit-timestamp order (low-water mark). Returns once every
        //    earlier commit has published too, so when this commit is
        //    acknowledged a new transaction on the same thread is
        //    guaranteed to snapshot at (or past) it.
        self.pipeline.publish(commit_ts);

        self.locks.release_all(txn);
        self.active.deregister(txn)?;
        self.metrics.record_commit(false);

        if let Some(every) = self.config.auto_gc_every_commits {
            let n = self.commits_since_gc.fetch_add(1, Ordering::Relaxed) + 1;
            if n >= every {
                self.commits_since_gc.store(0, Ordering::Relaxed);
                self.run_gc_with(GcStrategy::Threaded);
            }
        }
        Ok(commit_ts)
    }

    /// Appends an abort (invalidation) record for a commit whose caller is
    /// about to observe a failure even though its commit record is — or
    /// can still become — durable in the log, and syncs it. Replay skips
    /// every commit timestamp named by an abort record, so a
    /// caller-visible abort can never be resurrected by recovery.
    ///
    /// Best-effort by necessity: if appending or syncing the abort record
    /// fails as well, the original abort is still reported and the commit
    /// record remains at risk of resurrection. That residual window is
    /// unavoidable on Linux, where a failed `fsync` may drop the dirty
    /// pages it could not write — a later "successful" sync then proves
    /// nothing about them (see ROADMAP).
    fn append_abort_record(&self, commit_ts: Timestamp) {
        let payload = AbortRecord {
            commit_ts: commit_ts.raw(),
        }
        .encode();
        if let Ok(lsn) = self.wal.append(&payload) {
            self.metrics.wal_abort_records.add(1);
            let _ = self.pipeline.wait_durable(&self.wal, lsn, &self.metrics);
        }
    }

    fn validate_at_commit(
        &self,
        start_ts: Timestamp,
        strategy: ConflictStrategy,
        write_set: &WriteSet,
    ) -> Result<()> {
        // Under first-updater-wins every write-write race was already
        // decided at update time through the long write locks; skip the
        // walk so stage A stays short.
        if strategy == ConflictStrategy::FirstUpdaterWins {
            return Ok(());
        }
        let nodes: Vec<NodeId> = write_set
            .nodes
            .iter()
            .filter(|(_, entry)| entry.before.is_some())
            .map(|(&id, _)| id)
            .collect();
        let rels: Vec<RelationshipId> = write_set
            .relationships
            .iter()
            .filter(|(_, entry)| entry.before.is_some())
            .map(|(&id, _)| id)
            .collect();
        // The pipeline's pending table is probed first (one lock for the
        // whole write set), *before* any cache read: a commit between
        // sequencing and version install is visible only there, and it
        // leaves the table only after the cache can answer for it.
        let keys: Vec<LockKey> = nodes
            .iter()
            .map(|id| LockKey::node(id.raw()))
            .chain(rels.iter().map(|id| LockKey::relationship(id.raw())))
            .collect();
        let pending = self.pipeline.pending_for(&keys);
        let (pending_nodes, pending_rels) = pending.split_at(nodes.len());
        for (&id, &p) in nodes.iter().zip(pending_nodes) {
            let newest = max_ts(p, self.newest_node_commit_ts(id)?);
            check_at_commit(strategy, LockKey::node(id.raw()), start_ts, newest)?;
        }
        for (&id, &p) in rels.iter().zip(pending_rels) {
            let newest = max_ts(p, self.newest_rel_commit_ts(id)?);
            check_at_commit(strategy, LockKey::relationship(id.raw()), start_ts, newest)?;
        }
        Ok(())
    }

    /// Snapshots a write set into commit-record operations, in
    /// store-application order (creates before deletes of dependent
    /// entities; relationship deletions before node deletions). Runs
    /// outside the sequencing lock — the ops carry no commit timestamp;
    /// [`CommitRecord`] gains one when the record is framed.
    fn build_commit_ops(write_set: &WriteSet) -> Vec<CommitOp> {
        let mut creates_nodes = Vec::new();
        let mut updates_nodes = Vec::new();
        let mut deletes_nodes = Vec::new();
        for (&id, entry) in &write_set.nodes {
            if entry.is_noop() {
                continue;
            }
            match (&entry.before, &entry.after) {
                (None, Some(after)) => creates_nodes.push(CommitOp::CreateNode {
                    id,
                    labels: after.labels.clone(),
                    properties: props_vec(&after.properties),
                }),
                (Some(_), Some(after)) => updates_nodes.push(CommitOp::UpdateNode {
                    id,
                    labels: after.labels.clone(),
                    properties: props_vec(&after.properties),
                }),
                (Some(_), None) => deletes_nodes.push(CommitOp::DeleteNode { id }),
                (None, None) => {}
            }
        }
        let mut creates_rels = Vec::new();
        let mut updates_rels = Vec::new();
        let mut deletes_rels = Vec::new();
        for (&id, entry) in &write_set.relationships {
            if entry.is_noop() {
                continue;
            }
            match (&entry.before, &entry.after) {
                (None, Some(after)) => creates_rels.push(CommitOp::CreateRelationship {
                    id,
                    source: after.source,
                    target: after.target,
                    rel_type: after.rel_type,
                    properties: props_vec(&after.properties),
                }),
                (Some(_), Some(after)) => updates_rels.push(CommitOp::UpdateRelationship {
                    id,
                    properties: props_vec(&after.properties),
                }),
                (Some(_), None) => deletes_rels.push(CommitOp::DeleteRelationship { id }),
                (None, None) => {}
            }
        }
        let mut ops = Vec::with_capacity(
            creates_nodes.len()
                + updates_nodes.len()
                + creates_rels.len()
                + updates_rels.len()
                + deletes_rels.len()
                + deletes_nodes.len(),
        );
        ops.extend(creates_nodes);
        ops.extend(updates_nodes);
        ops.extend(creates_rels);
        ops.extend(updates_rels);
        ops.extend(deletes_rels);
        ops.extend(deletes_nodes);
        ops
    }

    fn install_versions(&self, commit_ts: Timestamp, write_set: &WriteSet) {
        for (&id, entry) in &write_set.nodes {
            if entry.is_noop() {
                continue;
            }
            self.node_cache.install_over_base(
                id,
                entry.base(),
                commit_ts,
                entry.after.clone().map(Arc::new),
            );
        }
        for (&id, entry) in &write_set.relationships {
            if entry.is_noop() {
                continue;
            }
            self.rel_cache.install_over_base(
                id,
                entry.base(),
                commit_ts,
                entry.after.clone().map(Arc::new),
            );
            // Keep the adjacency overlay in sync so snapshot traversals can
            // find relationships whose latest committed state differs from
            // what an older snapshot should observe.
            let endpoints = entry
                .after
                .as_ref()
                .map(|d| (d.source, d.target))
                .or_else(|| entry.before.as_ref().map(|d| (d.source, d.target)));
            if let Some((source, target)) = endpoints {
                self.overlay_add(source, id);
                if target != source {
                    self.overlay_add(target, id);
                }
            }
        }
    }

    /// Restores the persistent store to a commit's pre-image after a
    /// failed (possibly partial) `apply_to_store`, using the write set's
    /// before-images. Must run under the commit's store-apply shard locks
    /// so no concurrent commit observes — or splices into — the half
    /// state.
    ///
    /// Every step is guarded by an existence probe, so entities the
    /// failed apply never reached are untouched. Restored entities get
    /// their *original* commit timestamp back (`before_ts`), so a later
    /// cold read or reopen seeds base versions exactly as before the
    /// aborted commit. Order mirrors reverse dependency: node
    /// pre-images first (relationship restores need their endpoints),
    /// then created relationships out, then relationship pre-images back,
    /// then created nodes out.
    fn undo_partial_apply(&self, write_set: &WriteSet) -> Result<()> {
        let raw_ts = |ts: Option<Timestamp>| ts.unwrap_or(Timestamp::BOOTSTRAP).raw();
        // 1. Node pre-images (updated or deleted nodes back to before).
        for (&id, entry) in &write_set.nodes {
            if entry.is_noop() {
                continue;
            }
            let Some(before) = entry.before.as_deref() else {
                continue;
            };
            let ts = raw_ts(entry.before_ts);
            let props = props_vec(&before.properties);
            if self.store.node_exists(id)? {
                self.store.update_node_at(id, &before.labels, &props, ts)?;
            } else {
                self.store.create_node_at(id, &before.labels, &props, ts)?;
            }
        }
        // 2. Created relationships out (before their created endpoints).
        for (&id, entry) in &write_set.relationships {
            if entry.before.is_none() && !entry.is_noop() && self.store.relationship_exists(id)? {
                self.store.delete_relationship(id)?;
            }
        }
        // 3. Relationship pre-images (updated back, deleted re-spliced).
        for (&id, entry) in &write_set.relationships {
            if entry.is_noop() {
                continue;
            }
            let Some(before) = entry.before.as_deref() else {
                continue;
            };
            let ts = raw_ts(entry.before_ts);
            let props = props_vec(&before.properties);
            if self.store.relationship_exists(id)? {
                self.store.update_relationship_at(id, &props, ts)?;
            } else {
                self.store.create_relationship_at(
                    id,
                    before.source,
                    before.target,
                    before.rel_type,
                    &props,
                    ts,
                )?;
            }
        }
        // 4. Created nodes out (their created relationships are gone).
        for (&id, entry) in &write_set.nodes {
            if entry.before.is_none() && !entry.is_noop() && self.store.node_exists(id)? {
                self.store.delete_node(id)?;
            }
        }
        Ok(())
    }

    /// Removes the versions [`Self::install_versions`] installed at
    /// `commit_ts` from the caches — the rollback half of a stage-C abort.
    /// Base (pre-image) versions seeded alongside them stay: they mirror
    /// state the persistent store really holds. Overlay entries added for
    /// the commit's relationships are pruned lazily by `overlay_page`
    /// once the cache no longer answers for them.
    fn rollback_installed_versions(&self, commit_ts: Timestamp, write_set: &WriteSet) {
        for (&id, entry) in &write_set.nodes {
            if !entry.is_noop() {
                self.node_cache.remove_version(id, commit_ts);
            }
        }
        for (&id, entry) in &write_set.relationships {
            if !entry.is_noop() {
                self.rel_cache.remove_version(id, commit_ts);
            }
        }
    }

    fn update_indexes(&self, commit_ts: Timestamp, write_set: &WriteSet) {
        for (&id, entry) in &write_set.nodes {
            if entry.is_noop() {
                continue;
            }
            let empty = NodeData::default();
            let before = entry.before.as_deref().unwrap_or(&empty);
            let after_default = NodeData::default();
            let after = entry.after.as_ref().unwrap_or(&after_default);
            // Labels.
            for label in &after.labels {
                if !before.labels.contains(label) {
                    self.indexes.labels.add(*label, id, commit_ts);
                }
            }
            for label in &before.labels {
                if !after.labels.contains(label) {
                    self.indexes.labels.remove(*label, id, commit_ts);
                }
            }
            // Properties.
            for (key, value) in &after.properties {
                match before.properties.get(key) {
                    Some(old) if old == value => {}
                    Some(old) => {
                        self.indexes
                            .node_properties
                            .remove(*key, old, id, commit_ts);
                        self.indexes.node_properties.add(*key, value, id, commit_ts);
                    }
                    None => self.indexes.node_properties.add(*key, value, id, commit_ts),
                }
            }
            for (key, value) in &before.properties {
                if !after.properties.contains_key(key) {
                    self.indexes
                        .node_properties
                        .remove(*key, value, id, commit_ts);
                }
            }
        }
        for (&id, entry) in &write_set.relationships {
            if entry.is_noop() {
                continue;
            }
            let before_props: &BTreeMap<PropertyKeyToken, PropertyValue> = match &entry.before {
                Some(b) => &b.properties,
                None => &EMPTY_PROPS,
            };
            let after_props: &BTreeMap<PropertyKeyToken, PropertyValue> = match &entry.after {
                Some(a) => &a.properties,
                None => &EMPTY_PROPS,
            };
            for (key, value) in after_props {
                match before_props.get(key) {
                    Some(old) if old == value => {}
                    Some(old) => {
                        self.indexes
                            .relationship_properties
                            .remove(*key, old, id, commit_ts);
                        self.indexes
                            .relationship_properties
                            .add(*key, value, id, commit_ts);
                    }
                    None => self
                        .indexes
                        .relationship_properties
                        .add(*key, value, id, commit_ts),
                }
            }
            for (key, value) in before_props {
                if !after_props.contains_key(key) {
                    self.indexes
                        .relationship_properties
                        .remove(*key, value, id, commit_ts);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn recover(&self) -> Result<()> {
        // 0. Permissive fault-in for the duration of replay: a store page
        //    that fails its trailer checksum now is *suspect*, not yet
        //    fatal — if WAL replay rewrites it, it was a torn write fully
        //    covered by the log and the rebuilt in-memory copy reseals at
        //    the next flush. Only a suspect replay never touches is
        //    unexplainable corruption.
        self.store.begin_recovery();

        // 1. Replay the WAL: re-apply committed transactions that may not
        //    have reached the store files before the crash. Bookkeeping
        //    records are collected first:
        //
        //    * Abort records invalidate commits (by commit timestamp —
        //      stage-C apply failure — or by LSN range — a failed group
        //      sync): those belong to transactions whose callers saw them
        //      fail, so replaying them would resurrect an acknowledged
        //      abort. Ranges only ever cover records that were never
        //      durably acknowledged, so they can never invalidate a
        //      checkpointed commit.
        //    * A `CheckpointBegin` with a matching *later* same-epoch
        //      `CheckpointEnd` proves every commit at or before the begin
        //      mark was flushed to the store before the end mark was
        //      written — that prefix is skipped. An unpaired begin (crash
        //      mid-checkpoint) proves nothing and is ignored. If the pair
        //      itself was already released with its segment, the retained
        //      log starts after the begin mark anyway, so replaying all
        //      of it is equivalent.
        let scan = self.wal.scan()?;
        let mut aborted_ts = std::collections::HashSet::new();
        let mut aborted_ranges = Vec::new();
        let mut open_begins: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut replay_after_lsn = 0u64;
        let mut max_epoch = 0u64;
        let mut max_ts = Timestamp::BOOTSTRAP;
        for entry in &scan.entries {
            match payload_kind(&entry.payload, entry.lsn)? {
                PayloadKind::Abort => {
                    aborted_ts.insert(AbortRecord::decode(&entry.payload, entry.lsn)?.commit_ts);
                }
                PayloadKind::AbortRange => {
                    aborted_ranges.push(AbortRangeRecord::decode(&entry.payload, entry.lsn)?);
                }
                PayloadKind::SegmentHeader => {
                    // Validated by the WAL's own open-time stitching.
                }
                PayloadKind::CheckpointBegin => {
                    let record = CheckpointBeginRecord::decode(&entry.payload, entry.lsn)?;
                    open_begins.insert(record.epoch, entry.lsn);
                    max_epoch = max_epoch.max(record.epoch);
                    if Timestamp(record.begin_ts) > max_ts {
                        max_ts = Timestamp(record.begin_ts);
                    }
                }
                PayloadKind::CheckpointEnd => {
                    let record = CheckpointEndRecord::decode(&entry.payload, entry.lsn)?;
                    max_epoch = max_epoch.max(record.epoch);
                    if let Some(&begin_lsn) = open_begins.get(&record.epoch) {
                        replay_after_lsn = replay_after_lsn.max(begin_lsn);
                    }
                    if Timestamp(record.stable_ts) > max_ts {
                        max_ts = Timestamp(record.stable_ts);
                    }
                }
                PayloadKind::Commit => {}
            }
        }
        for entry in &scan.entries {
            if payload_kind(&entry.payload, entry.lsn)? != PayloadKind::Commit {
                continue;
            }
            let record = CommitRecord::decode(&entry.payload)?;
            if record.commit_ts > max_ts {
                // Dead or alive, the timestamp is consumed: the clock must
                // never hand it out again.
                max_ts = record.commit_ts;
            }
            if entry.lsn <= replay_after_lsn {
                // Covered by the last completed checkpoint: already in
                // the store.
                continue;
            }
            if aborted_ts.contains(&record.commit_ts.raw())
                || aborted_ranges.iter().any(|r| r.covers(entry.lsn))
            {
                continue;
            }
            apply_to_store(&self.store, &record, true)?;
        }

        // Replay is done: resolve the suspects. Pages replay rewrote are
        // torn writes healed from the log (counted as
        // `torn_pages_recovered`); anything left over is fatal — better a
        // typed error at open than a silent wrong answer later.
        for (file, outcome) in self.store.end_recovery() {
            if let Some(&(page, expected, found)) = outcome.unresolved.first() {
                return Err(graphsi_storage::StorageError::PageChecksum {
                    file: file.to_string(),
                    page,
                    expected,
                    found,
                }
                .into());
            }
        }

        // 2. Rebuild the in-memory indexes from the store, using each
        //    record's header commit timestamp as the posting timestamp.
        for id in self.store.scan_node_ids()? {
            if let Some(stored) = self.store.read_node(id)? {
                let ts = Timestamp(stored.commit_ts);
                max_ts = max_ts.max(ts);
                for label in &stored.labels {
                    self.indexes.labels.add(*label, id, ts);
                }
                for (key, value) in &stored.properties {
                    self.indexes.node_properties.add(*key, value, id, ts);
                }
            }
        }
        for id in self.store.scan_relationship_ids()? {
            if let Some(stored) = self.store.read_relationship(id)? {
                let ts = Timestamp(stored.commit_ts);
                max_ts = max_ts.max(ts);
                for (key, value) in &stored.properties {
                    self.indexes
                        .relationship_properties
                        .add(*key, value, id, ts);
                }
            }
        }

        // 3. Resume the logical clock after the newest commit seen
        //    anywhere, and the checkpoint epoch after the newest epoch in
        //    the log. No flush-and-truncate here: recovery replays into
        //    the page cache and store, and the next *fuzzy* checkpoint
        //    retires the replayed suffix — open stays cheap.
        self.oracle.advance_to(max_ts);
        self.pipeline.set_visible_timestamp(max_ts);
        self.wal.raise_epoch(max_epoch);
        Ok(())
    }
}

static EMPTY_PROPS: BTreeMap<PropertyKeyToken, PropertyValue> = BTreeMap::new();

/// The read path every entity read shares. The cache answers first; on a
/// miss, `record` loads the store record with its header commit timestamp,
/// and `from_store` receives it when that timestamp is visible at
/// `read_ts`, returning `None` only if a concurrent commit rewrote the
/// record under it. Whenever the store cannot answer — record newer than
/// the snapshot, gone, or rewritten mid-read — the cache is asked again:
/// stage C installs a commit's versions, pre-images included, before it
/// overwrites the store, so the version the snapshot needs is there.
fn read_version<K, V, Rec, R>(
    cache: &VersionedCache<K, V>,
    id: K,
    read_ts: Timestamp,
    record: impl FnOnce() -> Result<Option<(Timestamp, Rec)>>,
    from_cache: impl FnOnce(Arc<V>, Timestamp) -> R,
    from_store: impl FnOnce(Rec) -> Result<Option<R>>,
) -> Result<Option<R>>
where
    K: std::hash::Hash + Eq + Ord + Copy,
{
    let lookup = match cache.lookup(id, read_ts) {
        CacheLookup::Miss => match record()? {
            Some((ts, record)) if ts.visible_to(read_ts) => match from_store(record)? {
                Some(found) => return Ok(Some(found)),
                None => cache.lookup(id, read_ts),
            },
            _ => cache.lookup(id, read_ts),
        },
        cached => cached,
    };
    Ok(match lookup {
        CacheLookup::Hit(v) => v.payload.map(|p| from_cache(p, v.commit_ts)),
        _ => None,
    })
}

/// Lock keys of every effective (non-noop) entry of a write set — the keys
/// the pipeline's pending-commit table exposes to validators between
/// sequencing and version install.
fn commit_lock_keys(write_set: &WriteSet) -> Vec<LockKey> {
    let mut keys = Vec::with_capacity(write_set.nodes.len() + write_set.relationships.len());
    for (&id, entry) in &write_set.nodes {
        if !entry.is_noop() {
            keys.push(LockKey::node(id.raw()));
        }
    }
    for (&id, entry) in &write_set.relationships {
        if !entry.is_noop() {
            keys.push(LockKey::relationship(id.raw()));
        }
    }
    keys
}

/// Endpoints of a relationship in a write set, for store-apply footprint
/// extraction: update/delete ops encode only the relationship ID, but the
/// write set's before-image (or the buffered after-state, for entries that
/// never had one) always knows the endpoints — they are immutable for the
/// lifetime of a relationship.
fn rel_endpoints(write_set: &WriteSet, id: RelationshipId) -> Option<(NodeId, NodeId)> {
    write_set.relationships.get(&id).and_then(|entry| {
        entry
            .before
            .as_deref()
            .map(|d| (d.source, d.target))
            .or_else(|| entry.after.as_ref().map(|d| (d.source, d.target)))
    })
}

/// A uniformly random value in `[lo, hi]` from a cheap thread-local
/// SplitMix64 generator (seeded per thread from `RandomState`), used for
/// the decorrelated retry jitter. Deliberately not seedable: two sessions
/// must never share a sequence, or their backoffs re-align.
fn jitter_between(lo: u64, hi: u64) -> u64 {
    use std::cell::Cell;
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};

    if hi <= lo {
        return lo;
    }
    thread_local! {
        static STATE: Cell<u64> = Cell::new(RandomState::new().build_hasher().finish());
    }
    STATE.with(|state| {
        let mut z = state.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        state.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        lo + (z ^ (z >> 31)) % (hi - lo + 1)
    })
}

/// The newer of two optional timestamps.
fn max_ts(a: Option<Timestamp>, b: Option<Timestamp>) -> Option<Timestamp> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

fn props_vec(
    props: &BTreeMap<PropertyKeyToken, PropertyValue>,
) -> Vec<(PropertyKeyToken, PropertyValue)> {
    props.iter().map(|(k, v)| (*k, v.clone())).collect()
}

impl std::fmt::Debug for GraphDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphDb")
            .field("dir", &self.inner.store.dir())
            .field("isolation", &self.inner.config.isolation)
            .field("current_ts", &self.inner.oracle.current())
            .field("active_txns", &self.inner.active.len())
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

// `DbError` is not `Clone`, so the closure conveniences cannot be tested
// exhaustively here; see `tests/integration_threads.rs` for the
// multi-threaded retry coverage.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use graphsi_storage::test_util::TempDir;

    #[test]
    fn handles_are_cheap_clones_sharing_state() {
        let dir = TempDir::new("db_handle");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let other = db.clone();
        let mut tx = other.begin();
        let node = tx.create_node(&["H"], &[]).unwrap();
        tx.commit().unwrap();
        let tx = db.begin();
        assert!(tx.node_exists(node).unwrap());
    }

    #[test]
    fn handle_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<GraphDb>();
    }

    #[test]
    fn read_closure_commits_read_only() {
        let dir = TempDir::new("db_read_closure");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let node = tx.create_node(&["R"], &[]).unwrap();
        tx.commit().unwrap();
        let before = db.metrics();
        let found = db.read(|tx| tx.node_exists(node)).unwrap();
        assert!(found);
        let after = db.metrics();
        assert_eq!(after.read_only_commits, before.read_only_commits + 1);
    }

    #[test]
    fn write_with_retry_commits_and_returns_value() {
        let dir = TempDir::new("db_write_retry");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let node = db
            .write_with_retry(|tx| tx.create_node(&["W"], &[]))
            .unwrap();
        assert!(db.read(|tx| tx.node_exists(node)).unwrap());
    }

    #[test]
    fn jitter_stays_in_bounds_and_varies() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let v = jitter_between(50, 5_000);
            assert!((50..=5_000).contains(&v));
            seen.insert(v);
        }
        // A degenerate (constant) generator would defeat the whole point
        // of decorrelated jitter.
        assert!(seen.len() > 32, "jitter draws must vary: {}", seen.len());
        assert_eq!(jitter_between(7, 7), 7);
        assert_eq!(jitter_between(9, 3), 9, "inverted range clamps to lo");
    }

    #[test]
    fn write_with_retry_propagates_non_conflict_errors() {
        let dir = TempDir::new("db_write_retry_err");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let err = db
            .write_with_retry(|tx| tx.node_labels(NodeId::new(404)).map(|_| ()))
            .unwrap_err();
        assert!(matches!(err, DbError::NodeNotFound(_)));
    }
}
