//! Database configuration: isolation level, conflict strategy, cache and
//! durability knobs.

use std::time::Duration;

use graphsi_txn::ConflictStrategy;
use graphsi_wal::SyncPolicy;

/// The isolation level a transaction runs under.
///
/// * [`IsolationLevel::ReadCommitted`] reproduces stock Neo4j: short shared
///   (read) locks taken and released around every read, long exclusive
///   (write) locks held until commit, reads always observe the latest
///   committed state — and therefore suffer unrepeatable reads and
///   phantoms.
/// * [`IsolationLevel::SnapshotIsolation`] is the paper's contribution:
///   reads are served from the versioned object cache at the transaction's
///   start timestamp without any read locks; writes keep the long write
///   locks and detect write-write conflicts (first-updater-wins by
///   default).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Neo4j's original isolation level (the baseline).
    ReadCommitted,
    /// The paper's multi-version snapshot isolation.
    #[default]
    SnapshotIsolation,
}

impl IsolationLevel {
    /// Short name, as printed by `Display`.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::SnapshotIsolation => "snapshot-isolation",
        }
    }
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a [`crate::db::GraphDb`] instance.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Default isolation level for transactions started with
    /// [`crate::db::GraphDb::begin`].
    pub isolation: IsolationLevel,
    /// Write-write conflict strategy for snapshot-isolation transactions.
    pub conflict_strategy: ConflictStrategy,
    /// WAL sync policy.
    pub sync_policy: SyncPolicy,
    /// WAL segment rotation threshold: once the active segment file
    /// reaches this many bytes the group-commit leader seals it and
    /// switches appends to a freshly-created segment. Smaller segments
    /// mean finer-grained retention (a checkpoint can delete more of the
    /// log sooner, bounding recovery replay tighter) at the cost of more
    /// rotations; larger segments amortise rotation overhead.
    pub wal_segment_bytes: u64,
    /// Page-cache pages per record store.
    pub cache_pages_per_store: usize,
    /// Shards of the versioned object caches.
    pub cache_shards: usize,
    /// How long a blocking lock acquisition (read-committed mode) waits
    /// before giving up.
    pub lock_timeout: Duration,
    /// If set, the threaded garbage collector runs automatically after
    /// every N commits.
    pub auto_gc_every_commits: Option<u64>,
    /// Chunk size of the streaming read cursors: how many candidate IDs a
    /// scan or expansion buffers per refill. Smaller chunks bound memory
    /// tighter; larger chunks amortise refill overhead. Can be overridden
    /// per transaction ([`crate::TxnOptions::scan_chunk_size`]) and per
    /// query ([`crate::QueryBuilder::chunk_size`]).
    pub scan_chunk_size: usize,
    /// Group commit: maximum number of committers one WAL sync may cover.
    /// A group-commit leader stops waiting for more committers to join its
    /// batch once this many are parked on the batcher. Only meaningful
    /// under [`SyncPolicy::OnDemand`] (under [`SyncPolicy::Always`] every
    /// append syncs itself).
    pub group_commit_max_batch: usize,
    /// Group commit: how long a leader waits for additional committers to
    /// join its batch before issuing the sync. `Duration::ZERO` (the
    /// default) syncs immediately — batching still emerges naturally while
    /// a sync is in flight, because committers that append during it park
    /// and are covered by the next leader's single sync. A small positive
    /// delay trades commit latency for larger batches (fewer fsyncs).
    pub group_commit_max_delay: Duration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            isolation: IsolationLevel::SnapshotIsolation,
            conflict_strategy: ConflictStrategy::FirstUpdaterWins,
            sync_policy: SyncPolicy::OnDemand,
            wal_segment_bytes: DbConfig::DEFAULT_WAL_SEGMENT_BYTES,
            cache_pages_per_store: 256,
            cache_shards: 16,
            lock_timeout: Duration::from_millis(500),
            auto_gc_every_commits: None,
            scan_chunk_size: DbConfig::DEFAULT_SCAN_CHUNK_SIZE,
            group_commit_max_batch: DbConfig::DEFAULT_GROUP_COMMIT_MAX_BATCH,
            group_commit_max_delay: Duration::ZERO,
        }
    }
}

impl DbConfig {
    /// Default [`DbConfig::scan_chunk_size`].
    pub const DEFAULT_SCAN_CHUNK_SIZE: usize = 256;

    /// Default [`DbConfig::group_commit_max_batch`].
    pub const DEFAULT_GROUP_COMMIT_MAX_BATCH: usize = 64;

    /// Default [`DbConfig::wal_segment_bytes`] (16 MiB).
    pub const DEFAULT_WAL_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

    /// Smallest accepted [`DbConfig::wal_segment_bytes`]. A segment must
    /// hold at least its own header plus a useful number of records;
    /// below this the rotation overhead dominates.
    pub const MIN_WAL_SEGMENT_BYTES: u64 = 4096;

    /// A configuration reproducing stock Neo4j (the read-committed
    /// baseline).
    pub fn read_committed() -> Self {
        DbConfig {
            isolation: IsolationLevel::ReadCommitted,
            ..Default::default()
        }
    }

    /// A configuration using the paper's snapshot isolation (the default).
    pub fn snapshot_isolation() -> Self {
        DbConfig::default()
    }

    /// Builder-style setter for the isolation level.
    pub fn with_isolation(mut self, isolation: IsolationLevel) -> Self {
        self.isolation = isolation;
        self
    }

    /// Builder-style setter for the conflict strategy.
    pub fn with_conflict_strategy(mut self, strategy: ConflictStrategy) -> Self {
        self.conflict_strategy = strategy;
        self
    }

    /// Builder-style setter for the WAL sync policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Builder-style setter for the WAL segment rotation threshold
    /// (clamped to at least [`DbConfig::MIN_WAL_SEGMENT_BYTES`]).
    pub fn with_wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes.max(Self::MIN_WAL_SEGMENT_BYTES);
        self
    }

    /// Builder-style setter for automatic GC frequency.
    pub fn with_auto_gc(mut self, every_commits: u64) -> Self {
        self.auto_gc_every_commits = Some(every_commits);
        self
    }

    /// Builder-style setter for the blocking-lock timeout.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Builder-style setter for the streaming-cursor chunk size (clamped to
    /// at least 1).
    pub fn with_scan_chunk_size(mut self, chunk: usize) -> Self {
        self.scan_chunk_size = chunk.max(1);
        self
    }

    /// Builder-style setter for the group-commit batch cap (clamped to at
    /// least 1).
    pub fn with_group_commit_max_batch(mut self, batch: usize) -> Self {
        self.group_commit_max_batch = batch.max(1);
        self
    }

    /// Builder-style setter for the group-commit batching delay.
    pub fn with_group_commit_max_delay(mut self, delay: Duration) -> Self {
        self.group_commit_max_delay = delay;
        self
    }

    /// Builder-style setter for the page-cache capacity of each record
    /// store (clamped to at least 1). Tiny capacities force eviction
    /// write-backs, which the integrity crash-point tests use to land
    /// injected page faults on disk without a checkpoint.
    pub fn with_cache_pages_per_store(mut self, pages: usize) -> Self {
        self.cache_pages_per_store = pages.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = DbConfig::default();
        assert_eq!(config.isolation, IsolationLevel::SnapshotIsolation);
        assert_eq!(config.conflict_strategy, ConflictStrategy::FirstUpdaterWins);
    }

    #[test]
    fn builders_compose() {
        let config = DbConfig::read_committed()
            .with_auto_gc(100)
            .with_lock_timeout(Duration::from_millis(10))
            .with_sync_policy(SyncPolicy::Always)
            .with_conflict_strategy(ConflictStrategy::FirstCommitterWins);
        assert_eq!(config.isolation, IsolationLevel::ReadCommitted);
        assert_eq!(config.auto_gc_every_commits, Some(100));
        assert_eq!(config.lock_timeout, Duration::from_millis(10));
        assert_eq!(config.sync_policy, SyncPolicy::Always);
        assert_eq!(
            config.conflict_strategy,
            ConflictStrategy::FirstCommitterWins
        );
        let config = config.with_isolation(IsolationLevel::SnapshotIsolation);
        assert_eq!(config.isolation, IsolationLevel::SnapshotIsolation);
    }

    #[test]
    fn group_commit_builders() {
        let config = DbConfig::default();
        assert_eq!(
            config.group_commit_max_batch,
            DbConfig::DEFAULT_GROUP_COMMIT_MAX_BATCH
        );
        assert_eq!(config.group_commit_max_delay, Duration::ZERO);
        let config = config
            .with_group_commit_max_batch(0)
            .with_group_commit_max_delay(Duration::from_micros(250));
        assert_eq!(config.group_commit_max_batch, 1, "clamped to at least 1");
        assert_eq!(config.group_commit_max_delay, Duration::from_micros(250));
    }

    #[test]
    fn wal_segment_builders() {
        let config = DbConfig::default();
        assert_eq!(
            config.wal_segment_bytes,
            DbConfig::DEFAULT_WAL_SEGMENT_BYTES
        );
        assert_eq!(
            config.with_wal_segment_bytes(1).wal_segment_bytes,
            DbConfig::MIN_WAL_SEGMENT_BYTES,
            "clamped to the minimum"
        );
        assert_eq!(
            DbConfig::default()
                .with_wal_segment_bytes(1 << 20)
                .wal_segment_bytes,
            1 << 20
        );
    }

    #[test]
    fn isolation_names() {
        assert_eq!(IsolationLevel::ReadCommitted.name(), "read-committed");
        assert_eq!(
            IsolationLevel::SnapshotIsolation.to_string(),
            "snapshot-isolation"
        );
    }
}
