//! Garbage collection of obsolete versions.
//!
//! Two strategies are implemented so that they can be compared:
//!
//! * [`run_threaded`] — the paper's approach: walk the global doubly linked
//!   GC list from its oldest end and stop at the watermark, so the run only
//!   ever touches versions that are candidates for reclamation.
//! * [`run_vacuum`] — a PostgreSQL-vacuum-style baseline: visit **every**
//!   cached chain, regardless of whether it holds anything reclaimable. The
//!   paper criticises this pattern because its cost is proportional to the
//!   whole data set, not to the garbage.
//!
//! Both strategies reclaim exactly the same versions; they differ only in
//! how much work they do to find them.

use std::hash::Hash;
use std::time::{Duration, Instant};

use graphsi_txn::Timestamp;

use crate::cache::VersionedCache;

/// Which GC strategy produced a [`GcRunStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcStrategy {
    /// Walk the commit-timestamp-sorted GC list (the paper's design).
    Threaded,
    /// Scan every cached chain (vacuum-style baseline).
    Vacuum,
}

impl std::fmt::Display for GcStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcStrategy::Threaded => f.write_str("threaded"),
            GcStrategy::Vacuum => f.write_str("vacuum"),
        }
    }
}

/// Statistics of one garbage-collection run.
#[derive(Clone, Copy, Debug)]
pub struct GcRunStats {
    /// Strategy that produced the run.
    pub strategy: GcStrategy,
    /// The watermark (oldest active start timestamp) used.
    pub watermark: Timestamp,
    /// Versions (GC-list entries or chain entries) the run had to examine.
    pub versions_examined: u64,
    /// Chains the run visited.
    pub chains_visited: u64,
    /// Versions actually reclaimed (removed from memory).
    pub versions_reclaimed: u64,
    /// Chains dropped entirely from the cache.
    pub chains_dropped: u64,
    /// Wall-clock duration of the run.
    pub duration: Duration,
}

impl GcRunStats {
    /// Work efficiency: versions examined per version reclaimed. Lower is
    /// better; 1.0 means the run touched nothing it did not reclaim.
    pub fn examined_per_reclaimed(&self) -> f64 {
        if self.versions_reclaimed == 0 {
            self.versions_examined as f64
        } else {
            self.versions_examined as f64 / self.versions_reclaimed as f64
        }
    }
}

/// Runs the paper's threaded GC: only versions older than the watermark are
/// visited, discovered by walking the global GC list.
pub fn run_threaded<K, V>(cache: &VersionedCache<K, V>, watermark: Timestamp) -> GcRunStats
where
    K: Hash + Eq + Ord + Copy,
{
    let start = Instant::now();
    let (candidates, walked) = cache.gc_candidates(watermark);
    let mut reclaimed = 0u64;
    let mut dropped = 0u64;
    let mut visited = 0u64;
    for key in candidates {
        let outcome = cache.prune_key(key, watermark);
        visited += 1;
        reclaimed += outcome.reclaimed as u64;
        dropped += u64::from(outcome.dropped_chain);
    }
    GcRunStats {
        strategy: GcStrategy::Threaded,
        watermark,
        versions_examined: walked as u64,
        chains_visited: visited,
        versions_reclaimed: reclaimed,
        chains_dropped: dropped,
        duration: start.elapsed(),
    }
}

/// Runs the vacuum-style baseline GC: every cached chain is visited and
/// pruned, whether or not it holds reclaimable versions.
pub fn run_vacuum<K, V>(cache: &VersionedCache<K, V>, watermark: Timestamp) -> GcRunStats
where
    K: Hash + Eq + Ord + Copy,
{
    let start = Instant::now();
    let mut reclaimed = 0u64;
    let mut dropped = 0u64;
    let mut examined = 0u64;
    let mut visited = 0u64;
    // Page the key space one shard at a time (the iterator-based key
    // access) instead of materialising every cached key up front.
    let mut keys = Vec::new();
    for shard in 0..cache.shard_count() {
        keys.clear();
        cache.shard_keys(shard, &mut keys);
        for &key in &keys {
            examined += cache.chain_len(key) as u64;
            let outcome = cache.prune_key(key, watermark);
            visited += 1;
            reclaimed += outcome.reclaimed as u64;
            dropped += u64::from(outcome.dropped_chain);
        }
    }
    GcRunStats {
        strategy: GcStrategy::Vacuum,
        watermark,
        versions_examined: examined,
        chains_visited: visited,
        versions_reclaimed: reclaimed,
        chains_dropped: dropped,
        duration: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    type Cache = VersionedCache<u64, u64>;

    /// Builds a cache with `entities` entities, each having `versions`
    /// versions committed at increasing timestamps.
    fn populated(entities: u64, versions: u64) -> Cache {
        let cache = Cache::new(8);
        let mut ts = 0u64;
        for v in 0..versions {
            for e in 0..entities {
                ts += 1;
                cache.install_committed(e, Timestamp(ts), Some(Arc::new(v)));
            }
        }
        cache
    }

    #[test]
    fn threaded_and_vacuum_reclaim_the_same_versions() {
        let a = populated(50, 5);
        let b = populated(50, 5);
        let watermark = Timestamp(u64::MAX - 1);
        let ta = run_threaded(&a, watermark);
        let tb = run_vacuum(&b, watermark);
        assert_eq!(ta.versions_reclaimed, tb.versions_reclaimed);
        assert_eq!(ta.chains_dropped, tb.chains_dropped);
        assert_eq!(a.stats().versions, b.stats().versions);
    }

    #[test]
    fn threaded_gc_touches_only_old_versions() {
        // 100 entities * 4 versions; watermark set so only the very first
        // round of installs is reclaimable.
        let cache = populated(100, 4);
        // Timestamps 1..=100 are the oldest version of each entity; the
        // newest visible at watermark 150 is the second round for half the
        // entities.
        let stats = run_threaded(&cache, Timestamp(150));
        assert!(stats.versions_examined <= 150);
        let vacuum_equivalent = populated(100, 4);
        let vstats = run_vacuum(&vacuum_equivalent, Timestamp(150));
        assert_eq!(vstats.versions_examined, 400);
        assert!(stats.versions_examined < vstats.versions_examined);
        assert_eq!(stats.versions_reclaimed, vstats.versions_reclaimed);
    }

    #[test]
    fn gc_with_nothing_to_do_is_cheap_for_threaded_only() {
        let cache = populated(200, 3);
        // Watermark 0: nothing is reclaimable.
        let t = run_threaded(&cache, Timestamp(0));
        assert_eq!(t.versions_examined, 0);
        assert_eq!(t.versions_reclaimed, 0);
        let v = run_vacuum(&cache, Timestamp(0));
        assert_eq!(v.versions_reclaimed, 0);
        // The vacuum still walked every version — the inefficiency the
        // paper calls out.
        assert_eq!(v.versions_examined, 600);
    }

    #[test]
    fn repeated_threaded_runs_are_idempotent() {
        let cache = populated(20, 5);
        let w = Timestamp(u64::MAX - 1);
        let first = run_threaded(&cache, w);
        assert!(first.versions_reclaimed > 0);
        let second = run_threaded(&cache, w);
        assert_eq!(second.versions_reclaimed, 0);
        assert_eq!(second.versions_examined, 0);
    }

    #[test]
    fn readers_behind_the_watermark_keep_their_versions() {
        let cache = Cache::new(4);
        cache.install_committed(1, Timestamp(10), Some(Arc::new(1)));
        cache.install_committed(1, Timestamp(20), Some(Arc::new(2)));
        cache.install_committed(1, Timestamp(30), Some(Arc::new(3)));
        // Oldest active reader started at 20: version 20 must survive, only
        // version 10 may go.
        let stats = run_threaded(&cache, Timestamp(20));
        assert_eq!(stats.versions_reclaimed, 1);
        assert!(matches!(
            cache.read(1, Timestamp(20)),
            crate::cache::CacheRead::Version(v) if *v == 2
        ));
        assert!(matches!(
            cache.read(1, Timestamp(35)),
            crate::cache::CacheRead::Version(v) if *v == 3
        ));
    }

    #[test]
    fn examined_per_reclaimed_metric() {
        let stats = GcRunStats {
            strategy: GcStrategy::Vacuum,
            watermark: Timestamp(1),
            versions_examined: 100,
            chains_visited: 10,
            versions_reclaimed: 20,
            chains_dropped: 0,
            duration: Duration::from_millis(1),
        };
        assert!((stats.examined_per_reclaimed() - 5.0).abs() < f64::EPSILON);
        let zero = GcRunStats {
            versions_reclaimed: 0,
            ..stats
        };
        assert!((zero.examined_per_reclaimed() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(GcStrategy::Threaded.to_string(), "threaded");
        assert_eq!(GcStrategy::Vacuum.to_string(), "vacuum");
    }
}
