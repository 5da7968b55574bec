//! The versioned object cache.
//!
//! This is the paper's modified Neo4j **object cache**: every cached entity
//! holds its list of versions ([`crate::chain::VersionChain`]), and all
//! versions are additionally threaded through the global GC list
//! ([`crate::gc_list::GcList`]) sorted by commit timestamp. The persistent
//! store below only ever holds the newest committed version, so the cache
//! is the sole home of historical versions and tombstones.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use graphsi_txn::Timestamp;

use crate::chain::VersionChain;
use crate::gc_list::GcList;
use crate::version::Version;

/// Result of a visibility read against the cache.
#[derive(Debug, Clone)]
pub enum CacheRead<V> {
    /// A visible, alive version was found.
    Version(Arc<V>),
    /// The entity is deleted in the reader's snapshot (visible tombstone).
    Deleted,
    /// The entity has cached versions, but none is visible to the reader —
    /// it did not exist yet at the reader's start timestamp.
    NotVisible,
    /// The cache holds no information about this entity; the reader should
    /// fall through to the persistent store.
    Miss,
}

impl<V> CacheRead<V> {
    /// Returns the payload if this is a visible alive version.
    pub fn into_version(self) -> Option<Arc<V>> {
        match self {
            CacheRead::Version(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` for [`CacheRead::Miss`].
    pub fn is_miss(&self) -> bool {
        matches!(self, CacheRead::Miss)
    }
}

/// A visible version returned by [`VersionedCache::lookup`], including its
/// commit timestamp (needed by the commit pipeline to seed base versions).
#[derive(Debug, Clone)]
pub struct ReadVersion<V> {
    /// Commit timestamp of the visible version.
    pub commit_ts: Timestamp,
    /// Payload, or `None` for a tombstone (deleted entity).
    pub payload: Option<Arc<V>>,
}

/// Result of a timestamp-aware visibility lookup.
#[derive(Debug, Clone)]
pub enum CacheLookup<V> {
    /// A version visible to the reader was found (alive or tombstone).
    Hit(ReadVersion<V>),
    /// The entity has cached versions, but none is visible to the reader.
    NotVisible,
    /// The cache holds no chain for this entity.
    Miss,
}

/// Counters describing cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Number of entities currently holding a version chain.
    pub chains: u64,
    /// Number of versions currently held (including tombstones).
    pub versions: u64,
    /// Committed versions installed since start-up.
    pub installs: u64,
    /// Base versions loaded from the persistent store.
    pub base_loads: u64,
    /// Tombstone versions installed.
    pub tombstones: u64,
    /// Visibility reads served (any outcome).
    pub reads: u64,
    /// Visibility reads that found chain information (hit, deleted or
    /// not-visible).
    pub chain_hits: u64,
    /// Versions reclaimed by garbage collection.
    pub reclaimed: u64,
    /// Chains dropped entirely by garbage collection.
    pub chains_dropped: u64,
}

#[derive(Default)]
struct CacheCounters {
    installs: AtomicU64,
    base_loads: AtomicU64,
    tombstones: AtomicU64,
    reads: AtomicU64,
    chain_hits: AtomicU64,
    reclaimed: AtomicU64,
    chains_dropped: AtomicU64,
    versions: AtomicU64,
    chains: AtomicU64,
}

/// Result of pruning one entity's chain.
#[derive(Debug, Default, Clone, Copy)]
pub struct PruneOutcome {
    /// Versions removed from the chain.
    pub reclaimed: usize,
    /// Whether the whole chain was dropped from the cache.
    pub dropped_chain: bool,
    /// Versions remaining in the chain afterwards (0 if dropped).
    pub remaining: usize,
}

/// The versioned object cache, generic over the entity key `K` and the
/// cached entity state `V`.
///
/// Shards are ordered maps so their key sets can be paged in sorted order
/// with a range-resume marker ([`VersionedCache::shard_keys_page`]):
/// whole-graph scans buffer one bounded page at a time instead of one
/// whole shard.
pub struct VersionedCache<K, V> {
    shards: Vec<RwLock<BTreeMap<K, VersionChain<V>>>>,
    gc_list: Mutex<GcList<K>>,
    counters: CacheCounters,
}

impl<K, V> VersionedCache<K, V>
where
    K: Hash + Eq + Ord + Copy,
{
    /// Creates a cache with the given number of shards (rounded up to at
    /// least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        VersionedCache {
            // Lock-order ranks: see the README's lock-rank map. Installs
            // push GC-list entries while holding a shard write lock, so
            // the list ranks above the shards; only one shard is ever
            // held at a time, so all shards share one rank.
            shards: (0..shards)
                .map(|_| RwLock::with_rank(BTreeMap::new(), 2520, "mvcc.cache_shard"))
                .collect(),
            gc_list: Mutex::with_rank(GcList::new(), 2540, "mvcc.gc_list"),
            counters: CacheCounters::default(),
        }
    }

    /// Creates a cache with a default shard count suitable for tests and
    /// moderate concurrency.
    pub fn with_default_shards() -> Self {
        Self::new(16)
    }

    fn shard_for(&self, key: &K) -> &RwLock<BTreeMap<K, VersionChain<V>>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Visibility read: returns the newest version visible at `start_ts`
    /// following the paper's read rule, or [`CacheRead::Miss`] if the cache
    /// has no chain for the entity.
    pub fn read(&self, key: K, start_ts: Timestamp) -> CacheRead<V> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_for(&key).read();
        let Some(chain) = shard.get(&key) else {
            return CacheRead::Miss;
        };
        self.counters.chain_hits.fetch_add(1, Ordering::Relaxed);
        match chain.visible_at(start_ts) {
            Some(version) if version.is_tombstone() => CacheRead::Deleted,
            Some(version) => CacheRead::Version(Arc::clone(
                version.payload.as_ref().expect("alive version has payload"),
            )),
            None => CacheRead::NotVisible,
        }
    }

    /// Like [`VersionedCache::read`], but also reports the commit timestamp
    /// of the visible version. Used by the commit pipeline, which needs to
    /// know the pre-image's timestamp to seed base versions.
    pub fn lookup(&self, key: K, start_ts: Timestamp) -> CacheLookup<V> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_for(&key).read();
        let Some(chain) = shard.get(&key) else {
            return CacheLookup::Miss;
        };
        self.counters.chain_hits.fetch_add(1, Ordering::Relaxed);
        match chain.visible_at(start_ts) {
            Some(version) => CacheLookup::Hit(ReadVersion {
                commit_ts: version.commit_ts,
                payload: version.payload.clone(),
            }),
            None => CacheLookup::NotVisible,
        }
    }

    /// Ensures the entity has a chain seeded with the *base* version — the
    /// version currently held by the persistent store, stamped with its
    /// commit timestamp. Called before the first new version of an entity
    /// is installed, so that readers with older snapshots keep finding the
    /// state they are entitled to. A no-op if a chain already exists.
    pub fn ensure_base(&self, key: K, base_ts: Timestamp, payload: Arc<V>) {
        let mut shard = self.shard_for(&key).write();
        self.seed_base(&mut shard, key, base_ts, payload);
    }

    /// Installs a freshly committed version (or tombstone when `payload` is
    /// `None`). Creates the chain if the entity was not cached yet (a newly
    /// created entity has no base version).
    pub fn install_committed(&self, key: K, commit_ts: Timestamp, payload: Option<Arc<V>>) {
        let mut shard = self.shard_for(&key).write();
        self.install_into(&mut shard, key, commit_ts, payload);
    }

    /// [`VersionedCache::ensure_base`] followed by
    /// [`VersionedCache::install_committed`] under one shard lock. Done as
    /// two calls, a GC pass in between could drop the freshly seeded
    /// base-only chain (the store alone serves it), and the new version
    /// would then hide the pre-image from every older snapshot.
    pub fn install_over_base(
        &self,
        key: K,
        base: Option<(Timestamp, Arc<V>)>,
        commit_ts: Timestamp,
        payload: Option<Arc<V>>,
    ) {
        let mut shard = self.shard_for(&key).write();
        if let Some((base_ts, base)) = base {
            self.seed_base(&mut shard, key, base_ts, base);
        }
        self.install_into(&mut shard, key, commit_ts, payload);
    }

    fn seed_base(
        &self,
        shard: &mut BTreeMap<K, VersionChain<V>>,
        key: K,
        base_ts: Timestamp,
        payload: Arc<V>,
    ) {
        if shard.contains_key(&key) {
            return;
        }
        let mut chain = VersionChain::with_base(base_ts, payload);
        let handle = self.gc_list.lock().push(key, base_ts);
        chain.set_gc_handle(base_ts, handle);
        shard.insert(key, chain);
        self.counters.base_loads.fetch_add(1, Ordering::Relaxed);
        self.counters.versions.fetch_add(1, Ordering::Relaxed);
        self.counters.chains.fetch_add(1, Ordering::Relaxed);
    }

    fn install_into(
        &self,
        shard: &mut BTreeMap<K, VersionChain<V>>,
        key: K,
        commit_ts: Timestamp,
        payload: Option<Arc<V>>,
    ) {
        let chain = shard.entry(key).or_insert_with(|| {
            self.counters.chains.fetch_add(1, Ordering::Relaxed);
            VersionChain::new()
        });
        let mut version = match payload {
            Some(p) => Version::alive(commit_ts, p),
            None => {
                self.counters.tombstones.fetch_add(1, Ordering::Relaxed);
                Version::tombstone(commit_ts)
            }
        };
        let handle = self.gc_list.lock().push(key, commit_ts);
        version.gc_handle = Some(handle);
        chain.install(version);
        self.counters.installs.fetch_add(1, Ordering::Relaxed);
        self.counters.versions.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes the version installed for `key` at exactly `commit_ts`
    /// (unlinking it from the GC list; the chain is dropped when it
    /// becomes empty). Returns `true` if a version was removed.
    ///
    /// This is the commit pipeline's abort rollback: a commit that fails
    /// its store apply has already installed its versions, but nothing can
    /// have observed them — the visible timestamp never reaches a
    /// withdrawn commit — so removing them restores the pre-commit state
    /// instead of leaking writes the caller was told failed.
    pub fn remove_version(&self, key: K, commit_ts: Timestamp) -> bool {
        let mut shard = self.shard_for(&key).write();
        let Some(chain) = shard.get_mut(&key) else {
            return false;
        };
        let Some(version) = chain.remove_at(commit_ts) else {
            return false;
        };
        if version.is_tombstone() {
            self.counters.tombstones.fetch_sub(1, Ordering::Relaxed);
        }
        if chain.is_empty() {
            shard.remove(&key);
            self.counters.chains.fetch_sub(1, Ordering::Relaxed);
        }
        drop(shard);
        if let Some(handle) = version.gc_handle {
            self.gc_list.lock().remove(handle);
        }
        // `installs` is a monotone history counter and stays untouched;
        // only the population gauges shrink.
        self.counters.versions.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Commit timestamp of the newest cached version of the entity, used
    /// for write-write conflict checks.
    pub fn newest_commit_ts(&self, key: K) -> Option<Timestamp> {
        self.shard_for(&key)
            .read()
            .get(&key)
            .and_then(|c| c.newest_commit_ts())
    }

    /// Returns `true` if the entity currently has a version chain.
    pub fn contains(&self, key: K) -> bool {
        self.shard_for(&key).read().contains_key(&key)
    }

    /// Number of versions in the entity's chain (0 if not cached).
    pub fn chain_len(&self, key: K) -> usize {
        self.shard_for(&key).read().get(&key).map_or(0, |c| c.len())
    }

    /// Prunes one entity's chain against the GC watermark, unlinking
    /// reclaimed versions from the GC list and dropping the chain entirely
    /// when the persistent store alone can serve all readers.
    pub fn prune_key(&self, key: K, watermark: Timestamp) -> PruneOutcome {
        let mut shard = self.shard_for(&key).write();
        let Some(chain) = shard.get_mut(&key) else {
            return PruneOutcome::default();
        };
        let result = chain.prune(watermark);
        let mut outcome = PruneOutcome {
            reclaimed: result.removed,
            dropped_chain: false,
            remaining: chain.len(),
        };
        let mut handles = result.removed_handles;
        if result.droppable {
            // Unlink whatever survives pruning as well: the store can serve
            // it, so the cache entry goes away completely.
            handles.extend(chain.all_handles());
            shard.remove(&key);
            outcome.dropped_chain = true;
            outcome.remaining = 0;
            self.counters.chains_dropped.fetch_add(1, Ordering::Relaxed);
            self.counters.chains.fetch_sub(1, Ordering::Relaxed);
        }
        drop(shard);
        if !handles.is_empty() {
            let mut list = self.gc_list.lock();
            for h in &handles {
                list.remove(*h);
            }
        }
        // The versions counter drops by every version removed from memory:
        // the pruned ones plus any survivor dropped together with its chain.
        let dropped_survivors = if outcome.dropped_chain {
            (handles.len() as u64).saturating_sub(outcome.reclaimed as u64)
        } else {
            0
        };
        let removed_from_memory = outcome.reclaimed as u64 + dropped_survivors;
        self.counters
            .reclaimed
            .fetch_add(removed_from_memory, Ordering::Relaxed);
        self.counters
            .versions
            .fetch_sub(removed_from_memory, Ordering::Relaxed);
        outcome
    }

    /// Distinct entity keys that currently hold versions older than
    /// `watermark`, together with the number of GC-list entries that were
    /// walked to find them. Only these chains need to be visited by a
    /// threaded GC run.
    pub fn gc_candidates(&self, watermark: Timestamp) -> (Vec<K>, usize) {
        let list = self.gc_list.lock();
        let entries = list.entries_older_than(watermark);
        let walked = entries.len();
        let mut seen = HashMap::new();
        let mut keys = Vec::new();
        for (_, key, _) in entries {
            if seen.insert(key, ()).is_none() {
                keys.push(key);
            }
        }
        (keys, walked)
    }

    /// Every cached entity key (used by the vacuum-style GC baseline, which
    /// must visit all chains).
    pub fn all_keys(&self) -> Vec<K> {
        let mut keys = Vec::new();
        self.for_each_key(|k| keys.push(k));
        keys
    }

    /// Borrowing variant of [`VersionedCache::all_keys`]: streams every
    /// cached key through `f`, locking one shard at a time, without
    /// allocating a full key `Vec`. Keys inserted or removed concurrently
    /// in shards not yet visited may or may not be observed — the same
    /// guarantee `all_keys` gives.
    pub fn for_each_key(&self, mut f: impl FnMut(K)) {
        for shard in &self.shards {
            for key in shard.read().keys() {
                f(*key);
            }
        }
    }

    /// Number of shards (for chunked key enumeration via
    /// [`VersionedCache::shard_keys`] and
    /// [`VersionedCache::shard_keys_page`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Appends every key of one shard to `out`, returning `false` when
    /// `shard` is out of range. GC pages the cache shard by shard with
    /// this; scans that need bounded buffering use
    /// [`VersionedCache::shard_keys_page`] instead. A shard's key set is
    /// copied atomically under its read lock, so a key that exists for the
    /// whole enumeration is never missed.
    pub fn shard_keys(&self, shard: usize, out: &mut Vec<K>) -> bool {
        let Some(shard) = self.shards.get(shard) else {
            return false;
        };
        out.extend(shard.read().keys().copied());
        true
    }

    /// Appends up to `chunk` keys of one shard to `out`, in ascending key
    /// order, resuming strictly after `after` (`None` = from the start of
    /// the shard). Returns `false` when `shard` is out of range.
    ///
    /// This is the range-resume page behind whole-graph scans: between
    /// pages only the marker is retained, so a scan's transient buffering
    /// is bounded by `chunk` no matter how large (or skewed) the shard is.
    /// Keys inserted before the marker between two pages are skipped and
    /// keys removed ahead of it are simply not yielded — the same
    /// guarantee class as [`VersionedCache::shard_keys`], which snapshots
    /// a shard at one instant: a key that exists for the whole enumeration
    /// is never missed.
    pub fn shard_keys_page(
        &self,
        shard: usize,
        after: Option<K>,
        chunk: usize,
        out: &mut Vec<K>,
    ) -> bool {
        let Some(shard) = self.shards.get(shard) else {
            return false;
        };
        let guard = shard.read();
        let range = match after {
            None => guard.range(..),
            Some(a) => guard.range((Bound::Excluded(a), Bound::Unbounded)),
        };
        out.extend(range.take(chunk.max(1)).map(|(k, _)| *k));
        true
    }

    /// Number of entries currently threaded in the GC list.
    pub fn gc_list_len(&self) -> usize {
        self.gc_list.lock().len()
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            chains: self.counters.chains.load(Ordering::Relaxed),
            versions: self.counters.versions.load(Ordering::Relaxed),
            installs: self.counters.installs.load(Ordering::Relaxed),
            base_loads: self.counters.base_loads.load(Ordering::Relaxed),
            tombstones: self.counters.tombstones.load(Ordering::Relaxed),
            reads: self.counters.reads.load(Ordering::Relaxed),
            chain_hits: self.counters.chain_hits.load(Ordering::Relaxed),
            reclaimed: self.counters.reclaimed.load(Ordering::Relaxed),
            chains_dropped: self.counters.chains_dropped.load(Ordering::Relaxed),
        }
    }
}

impl<K, V> std::fmt::Debug for VersionedCache<K, V>
where
    K: Hash + Eq + Ord + Copy,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("VersionedCache")
            .field("chains", &stats.chains)
            .field("versions", &stats.versions)
            .field("gc_list", &self.gc_list_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cache = VersionedCache<u64, String>;

    fn payload(s: &str) -> Arc<String> {
        Arc::new(s.to_owned())
    }

    #[test]
    fn miss_for_unknown_entity() {
        let cache = Cache::with_default_shards();
        assert!(cache.read(1, Timestamp(10)).is_miss());
        assert_eq!(cache.chain_len(1), 0);
        assert!(!cache.contains(1));
    }

    #[test]
    fn read_rule_selects_correct_version() {
        let cache = Cache::with_default_shards();
        cache.install_committed(1, Timestamp(10), Some(payload("v10")));
        cache.install_committed(1, Timestamp(20), Some(payload("v20")));
        match cache.read(1, Timestamp(15)) {
            CacheRead::Version(v) => assert_eq!(*v, "v10"),
            other => panic!("unexpected {other:?}"),
        }
        match cache.read(1, Timestamp(25)) {
            CacheRead::Version(v) => assert_eq!(*v, "v20"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(cache.read(1, Timestamp(5)), CacheRead::NotVisible));
        assert_eq!(cache.newest_commit_ts(1), Some(Timestamp(20)));
    }

    #[test]
    fn tombstone_reads_as_deleted() {
        let cache = Cache::with_default_shards();
        cache.install_committed(7, Timestamp(10), Some(payload("alive")));
        cache.install_committed(7, Timestamp(20), None);
        assert!(matches!(cache.read(7, Timestamp(25)), CacheRead::Deleted));
        match cache.read(7, Timestamp(15)) {
            CacheRead::Version(v) => assert_eq!(*v, "alive"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cache.stats().tombstones, 1);
    }

    #[test]
    fn ensure_base_is_idempotent_and_preserves_existing_chain() {
        let cache = Cache::with_default_shards();
        cache.ensure_base(3, Timestamp(5), payload("base"));
        cache.ensure_base(3, Timestamp(99), payload("should-not-replace"));
        match cache.read(3, Timestamp(100)) {
            CacheRead::Version(v) => assert_eq!(*v, "base"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cache.chain_len(3), 1);
        assert_eq!(cache.stats().base_loads, 1);
    }

    #[test]
    fn prune_reclaims_old_versions_and_updates_gc_list() {
        let cache = Cache::with_default_shards();
        cache.ensure_base(1, Timestamp(5), payload("base"));
        cache.install_committed(1, Timestamp(10), Some(payload("v10")));
        cache.install_committed(1, Timestamp(20), Some(payload("v20")));
        assert_eq!(cache.gc_list_len(), 3);

        let outcome = cache.prune_key(1, Timestamp(15));
        assert_eq!(outcome.reclaimed, 1); // base at ts 5
        assert!(!outcome.dropped_chain);
        assert_eq!(outcome.remaining, 2);
        assert_eq!(cache.gc_list_len(), 2);

        // Once every active snapshot is past ts 20 the chain collapses onto
        // the store and disappears from the cache.
        let outcome = cache.prune_key(1, Timestamp(25));
        assert_eq!(outcome.reclaimed, 1);
        assert!(outcome.dropped_chain);
        assert_eq!(cache.gc_list_len(), 0);
        assert!(!cache.contains(1));
        assert!(cache.read(1, Timestamp(30)).is_miss());
    }

    #[test]
    fn prune_drops_fully_deleted_entities() {
        let cache = Cache::with_default_shards();
        cache.ensure_base(9, Timestamp(5), payload("base"));
        cache.install_committed(9, Timestamp(12), None);
        let outcome = cache.prune_key(9, Timestamp(20));
        assert!(outcome.dropped_chain);
        assert_eq!(cache.chain_len(9), 0);
        assert_eq!(cache.gc_list_len(), 0);
    }

    #[test]
    fn gc_candidates_only_walk_old_entries() {
        let cache = Cache::with_default_shards();
        for ts in 1..=10u64 {
            cache.install_committed(ts % 3, Timestamp(ts), Some(payload(&format!("v{ts}"))));
        }
        let (keys, walked) = cache.gc_candidates(Timestamp(5));
        assert_eq!(walked, 4); // timestamps 1..=4
        assert!(keys.len() <= 3);
        let (_, walked_all) = cache.gc_candidates(Timestamp(100));
        assert_eq!(walked_all, 10);
    }

    #[test]
    fn all_keys_lists_every_cached_entity() {
        let cache = Cache::new(4);
        for k in 0..20u64 {
            cache.install_committed(k, Timestamp(k + 1), Some(payload("x")));
        }
        let mut keys = cache.all_keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..20u64).collect::<Vec<_>>());
    }

    #[test]
    fn shard_paging_covers_every_key_exactly_once() {
        let cache = Cache::new(4);
        for k in 0..32u64 {
            cache.install_committed(k, Timestamp(k + 1), Some(payload("x")));
        }
        assert_eq!(cache.shard_count(), 4);
        let mut paged = Vec::new();
        let mut buf = Vec::new();
        for shard in 0..cache.shard_count() {
            buf.clear();
            assert!(cache.shard_keys(shard, &mut buf));
            paged.extend_from_slice(&buf);
        }
        assert!(!cache.shard_keys(cache.shard_count(), &mut buf));
        paged.sort_unstable();
        assert_eq!(paged, (0..32u64).collect::<Vec<_>>());

        let mut streamed = Vec::new();
        cache.for_each_key(|k| streamed.push(k));
        streamed.sort_unstable();
        assert_eq!(streamed, paged);
    }

    #[test]
    fn remove_version_rolls_back_an_install() {
        let cache = Cache::with_default_shards();
        cache.ensure_base(1, Timestamp(5), payload("base"));
        cache.install_committed(1, Timestamp(10), Some(payload("v10")));
        assert_eq!(cache.gc_list_len(), 2);
        assert!(cache.remove_version(1, Timestamp(10)));
        assert!(!cache.remove_version(1, Timestamp(10)), "already gone");
        assert_eq!(cache.gc_list_len(), 1);
        assert_eq!(cache.newest_commit_ts(1), Some(Timestamp(5)));
        match cache.read(1, Timestamp(20)) {
            CacheRead::Version(v) => assert_eq!(*v, "base"),
            other => panic!("unexpected {other:?}"),
        }
        // Removing the last version drops the chain entirely.
        assert!(cache.remove_version(1, Timestamp(5)));
        assert!(!cache.contains(1));
        assert_eq!(cache.gc_list_len(), 0);
        assert_eq!(cache.stats().versions, 0);
        assert_eq!(cache.stats().chains, 0);

        // Tombstone rollback adjusts the tombstone gauge too.
        cache.install_committed(2, Timestamp(3), None);
        assert_eq!(cache.stats().tombstones, 1);
        assert!(cache.remove_version(2, Timestamp(3)));
        assert_eq!(cache.stats().tombstones, 0);
        assert!(!cache.remove_version(9, Timestamp(1)), "unknown key");
    }

    #[test]
    fn shard_key_pages_resume_in_sorted_order() {
        let cache = Cache::new(1); // worst-case skew: every key in one shard
        for k in 0..23u64 {
            cache.install_committed(k, Timestamp(k + 1), Some(payload("x")));
        }
        let mut paged = Vec::new();
        let mut buf = Vec::new();
        let mut after = None;
        loop {
            buf.clear();
            assert!(cache.shard_keys_page(0, after, 5, &mut buf));
            assert!(buf.len() <= 5, "page exceeded the chunk bound");
            let Some(&last) = buf.last() else { break };
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "page not sorted");
            paged.extend_from_slice(&buf);
            after = Some(last);
        }
        assert_eq!(paged, (0..23u64).collect::<Vec<_>>());
        assert!(!cache.shard_keys_page(1, None, 5, &mut buf));
    }

    #[test]
    fn shard_key_pages_survive_concurrent_removal() {
        let cache = Cache::new(1);
        for k in 0..10u64 {
            cache.install_committed(k, Timestamp(k + 1), Some(payload("x")));
        }
        let mut buf = Vec::new();
        assert!(cache.shard_keys_page(0, None, 4, &mut buf));
        assert_eq!(buf, vec![0, 1, 2, 3]);
        // Drop keys behind and ahead of the marker; the resume must keep
        // yielding every surviving key exactly once.
        cache.prune_key(2, Timestamp(100));
        cache.prune_key(7, Timestamp(100));
        let mut rest = Vec::new();
        cache.shard_keys_page(0, Some(3), 100, &mut rest);
        assert_eq!(rest, vec![4, 5, 6, 8, 9]);
    }

    #[test]
    fn stats_track_population() {
        let cache = Cache::with_default_shards();
        cache.ensure_base(1, Timestamp(1), payload("a"));
        cache.install_committed(1, Timestamp(2), Some(payload("b")));
        cache.install_committed(2, Timestamp(3), Some(payload("c")));
        cache.read(1, Timestamp(5));
        cache.read(9, Timestamp(5));
        let stats = cache.stats();
        assert_eq!(stats.chains, 2);
        assert_eq!(stats.versions, 3);
        assert_eq!(stats.installs, 2);
        assert_eq!(stats.base_loads, 1);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.chain_hits, 1);
    }

    #[test]
    fn concurrent_installs_and_reads() {
        let cache = Arc::new(Cache::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = (t * 500 + i) % 100;
                    cache.install_committed(
                        key,
                        Timestamp(t * 1000 + i + 1),
                        Some(Arc::new(format!("{t}-{i}"))),
                    );
                    let _ = cache.read(key, Timestamp(u64::MAX));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().installs, 2000);
        assert_eq!(cache.gc_list_len(), 2000);
    }
}
