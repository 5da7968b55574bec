//! Database-level metrics, exposed through
//! [`crate::db::GraphDb::metrics`] and the server's `METRICS` frame.
//!
//! Every metric is declared once, in a [`metric_set!`](crate::metric_set)
//! invocation. The macro generates the live struct of lock-free
//! [`Counter`]s and [`Histogram`]s, its plain-`u64` snapshot, and the
//! snapshot's stable plaintext codec. The server declares its own set
//! with the same macro, so both halves of a `METRICS` dump share one
//! format.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets in a [`Histogram`]: bucket `i` counts
/// values `v` with `2^i <= v < 2^(i+1)`. Bucket 0 also absorbs 0, and the
/// last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// One lock-free metric. Every operation is `Relaxed`: a metric publishes
/// no other data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, for a gauge that goes down.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` when `v` is larger: a high-water mark.
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log2 histogram of [`HISTOGRAM_BUCKETS`] buckets.
#[derive(Debug, Default)]
pub struct Histogram([AtomicU64; HISTOGRAM_BUCKETS]);

impl Histogram {
    /// Counts one sample in the bucket of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (63 - value.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.0[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The current count of every bucket.
    pub fn get(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// Declares a set of metrics once and generates everything derived from
/// the list:
///
/// - the live struct, with one `pub(crate)` [`Counter`] per counter and
///   one [`Histogram`] per histogram, plus `new()` and `snapshot()`;
/// - the snapshot struct, with one documented `pub u64` per counter and
///   one `pub [u64; HISTOGRAM_BUCKETS]` per histogram, in declaration
///   order;
/// - the snapshot's `to_text` / `from_text` codec: one
///   `<prefix><name> <value>` line per counter, then per histogram one
///   cumulative `<prefix><name>_le_<2^(i+1)> <count>` line per bucket.
///
/// ```
/// graphsi_core::metric_set! {
///     /// Live metrics.
///     pub struct DemoMetrics;
///     /// Point-in-time copy of [`DemoMetrics`].
///     pub struct DemoSnapshot;
///     prefix = "demo_";
///     counters {
///         /// Requests served.
///         requests,
///     }
///     histograms {
///         /// Request latency (µs).
///         latency_us,
///     }
/// }
///
/// let m = DemoMetrics::new();
/// m.requests.add(2);
/// m.latency_us.record(5);
/// let text = m.snapshot().to_text();
/// assert!(text.starts_with("demo_requests 2\ndemo_latency_us_le_2 0\n"));
/// assert_eq!(DemoSnapshot::from_text(&text).unwrap(), m.snapshot());
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$live_attr:meta])*
        $live_vis:vis struct $Live:ident;
        $(#[$snap_attr:meta])*
        $snap_vis:vis struct $Snap:ident;
        prefix = $prefix:literal;
        counters { $( $(#[$counter_attr:meta])* $counter:ident ),* $(,)? }
        histograms { $( $(#[$hist_attr:meta])* $hist:ident ),* $(,)? }
    ) => {
        $(#[$live_attr])*
        #[derive(Debug, Default)]
        $live_vis struct $Live {
            $( $(#[$counter_attr])* pub(crate) $counter: $crate::metrics::Counter, )*
            $( $(#[$hist_attr])* pub(crate) $hist: $crate::metrics::Histogram, )*
        }

        impl $Live {
            /// Creates zeroed metrics.
            pub fn new() -> Self {
                Self::default()
            }

            /// Takes a point-in-time copy of every metric. Each metric is
            /// loaded on its own, so the copy is not atomic across metrics.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $counter: self.$counter.get(), )*
                    $( $hist: self.$hist.get(), )*
                }
            }
        }

        $(#[$snap_attr])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $( $(#[$counter_attr])* pub $counter: u64, )*
            $( $(#[$hist_attr])* pub $hist: [u64; $crate::metrics::HISTOGRAM_BUCKETS], )*
        }

        impl $Snap {
            /// Encodes the snapshot in the stable plaintext metrics format:
            /// one `name value` line per counter in declaration order, then
            /// the cumulative `name_le_<upper> count` lines of each
            /// histogram. This is the format of the server's `METRICS`
            /// frame and the one scrapers parse; it round-trips through
            #[doc = concat!("[`", stringify!($Snap), "::from_text`].")]
            pub fn to_text(&self) -> String {
                let mut out = String::new();
                $(
                    out.push_str(&format!(
                        concat!($prefix, stringify!($counter), " {}\n"),
                        self.$counter
                    ));
                )*
                $(
                    let mut cumulative = 0u64;
                    for (i, count) in self.$hist.iter().enumerate() {
                        cumulative += count;
                        out.push_str(&format!(
                            concat!($prefix, stringify!($hist), "_le_{} {}\n"),
                            1u64 << (i + 1),
                            cumulative
                        ));
                    }
                )*
                out
            }

            /// Parses the plaintext metrics format produced by
            #[doc = concat!("[`", stringify!($Snap), "::to_text`].")]
            /// Blank lines, `#` comment lines and lines without this set's
            /// prefix are skipped, so each half of a combined `METRICS` dump
            /// parses its own lines. Unknown names are ignored, so a scraper
            /// built against this version keeps working when later versions
            /// add metrics; metrics absent from the text stay zero.
            /// Histogram buckets are rebuilt from their cumulative counts. A
            /// line of this set that is not `name value` with an unsigned
            /// integer value is an error.
            pub fn from_text(text: &str) -> ::std::result::Result<Self, String> {
                let mut snapshot = Self::default();
                $( let mut $hist = [None::<u64>; $crate::metrics::HISTOGRAM_BUCKETS]; )*
                for line in text.lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let Some(rest) = line.strip_prefix($prefix) else {
                        continue;
                    };
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed metrics line {line:?}"))?;
                    let value: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("non-integer value in metrics line {line:?}"))?;
                    $(
                        if let Some(upper) = name.strip_prefix(concat!(stringify!($hist), "_le_")) {
                            let upper: u64 = upper
                                .parse()
                                .map_err(|_| format!("bad histogram bucket in line {line:?}"))?;
                            // Bucket i has upper edge 2^(i+1).
                            let edge = upper.trailing_zeros() as usize;
                            if upper.is_power_of_two()
                                && (1..=$crate::metrics::HISTOGRAM_BUCKETS).contains(&edge)
                            {
                                $hist[edge - 1] = Some(value);
                            }
                            continue;
                        }
                    )*
                    match name {
                        $( stringify!($counter) => snapshot.$counter = value, )*
                        _ => {}
                    }
                }
                $(
                    let mut previous = 0u64;
                    for (out, cumulative) in snapshot.$hist.iter_mut().zip($hist) {
                        if let Some(cumulative) = cumulative {
                            *out = cumulative.saturating_sub(previous);
                            previous = cumulative;
                        }
                    }
                )*
                Ok(snapshot)
            }
        }
    };
}

metric_set! {
    /// The engine's live counters. The WAL owns the `wal_segments_*` and
    /// `wal_retained_bytes` gauges, and the storage layer owns
    /// `page_checksum_failures` and `torn_pages_recovered`: nothing counts
    /// them here, so they read zero in [`DbMetrics::snapshot`] and
    /// [`crate::GraphDb::metrics`] merges them in.
    pub struct DbMetrics;
    /// A point-in-time snapshot of [`DbMetrics`].
    #[derive(Copy)]
    pub struct DbMetricsSnapshot;
    prefix = "";
    counters {
        /// Transactions started.
        begins,
        /// Transactions committed (including read-only ones).
        commits,
        /// Read-only commits (no write set).
        read_only_commits,
        /// Transactions rolled back explicitly or on drop.
        rollbacks,
        /// Transactions aborted because of write-write conflicts, deadlocks or
        /// lock timeouts.
        conflict_aborts,
        /// Entity reads served.
        reads,
        /// Entity writes buffered.
        writes,
        /// Garbage-collection runs.
        gc_runs,
        /// Versions reclaimed by garbage collection.
        versions_reclaimed,
        /// Chunk refills performed by the streaming read cursors.
        chunk_refills,
        /// Largest number of candidate IDs any single cursor refill buffered —
        /// the knob the chunked redesign bounds: with chunk size `c`, this
        /// never exceeds `c` no matter how large the scanned label, posting
        /// list or relationship chain is.
        candidate_buffer_peak,
        /// Largest MVCC cache-shard key page a whole-graph scan buffered in
        /// one refill. Whole-graph scans (`all_nodes`, `all_relationships`)
        /// page each shard through sorted range-resume pages, so this peak is
        /// bounded by the scan's chunk size — not by the largest shard, no
        /// matter how skewed the key distribution is.
        shard_key_buffer_peak,
        /// Times a chain cursor had to restart from the head because a
        /// concurrent commit rewired the chain under it.
        cursor_restarts,
        /// WAL `fsync`s issued by the commit pipeline. Under group commit this
        /// is the number that proves batching: with concurrent committers it
        /// stays strictly below the committed-transaction count, because one
        /// leader sync covers every committer parked on the batcher.
        wal_syncs,
        /// Group-commit batches completed (leader sync rounds). Equal to
        /// `wal_syncs` when every sync goes through the batcher.
        group_commit_batches,
        /// Largest number of commit records any single group-commit sync made
        /// durable at once.
        group_commit_batch_size_max,
        /// Store-apply shard acquisitions that found the shard already held by
        /// another in-flight commit (overlapping footprints queueing).
        store_apply_shard_conflicts,
        /// Largest number of commits simultaneously inside their stage-C store
        /// flush-through. Above 1 proves disjoint-footprint commits really
        /// applied to the persistent store concurrently.
        store_apply_concurrency_peak,
        /// Abort (invalidation) records appended to the WAL for commits failed
        /// after their record reached the log — each one is a transaction that
        /// recovery replay must skip.
        wal_abort_records,
        /// Property predicates (equality or range) the query planner compiled
        /// into a versioned-index source — executed as postings/range-postings
        /// scans, with **zero** per-candidate property decoding.
        predicate_pushdowns,
        /// Property predicate stages the planner had to execute as
        /// decode-based filters (no usable index range, planner estimate
        /// favoured the other source, opaque predicate closure, or pushdown
        /// disabled). Together with `predicate_pushdowns` this proves which
        /// path a filtered scan ran.
        decode_filter_fallbacks,
        /// Per-candidate property materialisations performed by decode-based
        /// filter stages. A pushed-down predicate performs none of these, a
        /// decode fallback pays one per candidate scanned.
        property_decodes,
        /// Queries whose `order_by`/`top_k` the planner served straight off
        /// the index's sorted key walk — no sort buffer was allocated. A query
        /// that had to buffer-and-sort instead does not count here.
        ordered_index_streams,
        /// Index-streamed top-k queries that stopped paging the source before
        /// it was exhausted — the early-exit the ordered walk makes possible.
        topk_early_exits,
        /// Queries whose multi-predicate conjunction compiled to a
        /// sorted-posting intersection (one driving range cursor plus
        /// membership legs) instead of an index scan + decode-filter chain.
        intersection_pushdowns,
        /// Driver candidates an intersection discarded via a cheap posting
        /// membership probe — each one a candidate the decode-filter chain
        /// would have paid a `property_decodes` for.
        intersection_leg_skips,
        /// Conflict retries performed by [`crate::GraphDb::write_with_retry`]
        /// (one per aborted-and-retried attempt, across all callers).
        write_retries,
        /// Total microseconds [`crate::GraphDb::write_with_retry`] spent
        /// sleeping in its jittered backoff. Together with `write_retries`
        /// this exposes how much wall-clock contention costs writers.
        write_retry_backoff_us,
        /// Fuzzy checkpoints completed (each advances the checkpoint epoch
        /// and the WAL retention watermark).
        checkpoint_epochs,
        /// Dirty store pages written back by checkpoint flush cursors.
        checkpoint_pages_flushed,
        /// Commits that completed *while* a checkpoint was running — the
        /// headline proof that checkpoints no longer quiesce the commit
        /// pipeline.
        checkpoint_concurrent_commits,
        /// WAL segment files created (rotation) over the database's lifetime.
        wal_segments_created,
        /// WAL segment files deleted by the retention watermark after a
        /// checkpoint covered them.
        wal_segments_deleted,
        /// Bytes of WAL currently retained across all segment files. Bounded
        /// by checkpointing: after a checkpoint releases old segments this
        /// drops back to the active suffix.
        wal_retained_bytes,
        /// Online-verifier runs completed ([`crate::GraphDb::verify`]).
        verify_runs,
        /// Store pages whose trailer checksum the verifier examined, summed
        /// over all runs.
        pages_verified,
        /// Findings the verifier reported, summed over all runs and classes
        /// (bad page CRC, dangling chain pointer, index↔store divergence,
        /// orphaned posting).
        verify_divergences,
        /// Store pages that failed their trailer checksum on fault-in. Owned
        /// by the storage layer and merged in at [`crate::GraphDb::metrics`]
        /// (zero in a bare [`DbMetrics::snapshot`]).
        page_checksum_failures,
        /// Checksum-failed pages recovery rebuilt from WAL replay (torn
        /// writes fully covered by the log). Storage-owned, merged in at
        /// [`crate::GraphDb::metrics`].
        torn_pages_recovered,
    }
    histograms {}
}

impl DbMetricsSnapshot {
    /// Abort rate over all completed transactions.
    pub fn abort_rate(&self) -> f64 {
        let finished = self.commits + self.rollbacks + self.conflict_aborts;
        if finished == 0 {
            0.0
        } else {
            self.conflict_aborts as f64 / finished as f64
        }
    }
}

/// The updates that move several counters together.
impl DbMetrics {
    pub(crate) fn record_commit(&self, read_only: bool) {
        self.commits.add(1);
        if read_only {
            self.read_only_commits.add(1);
        }
    }

    pub(crate) fn record_gc(&self, versions_reclaimed: u64) {
        self.gc_runs.add(1);
        self.versions_reclaimed.add(versions_reclaimed);
    }

    pub(crate) fn record_chunk_refill(&self, buffered: usize) {
        self.chunk_refills.add(1);
        self.candidate_buffer_peak.max(buffered as u64);
    }

    /// Records one WAL sync that made `batch_size` commit records durable.
    pub(crate) fn record_group_sync(&self, batch_size: u64) {
        self.wal_syncs.add(1);
        self.group_commit_batches.add(1);
        self.group_commit_batch_size_max.max(batch_size);
    }

    /// Records one conflict retry of `write_with_retry` and the jittered
    /// backoff it is about to sleep.
    pub(crate) fn record_write_retry(&self, backoff_us: u64) {
        self.write_retries.add(1);
        self.write_retry_backoff_us.add(backoff_us);
    }

    /// Records one completed fuzzy checkpoint: the pages its flush cursor
    /// wrote back and the commits that completed while it ran.
    pub(crate) fn record_checkpoint(&self, pages_flushed: u64, concurrent_commits: u64) {
        self.checkpoint_epochs.add(1);
        self.checkpoint_pages_flushed.add(pages_flushed);
        self.checkpoint_concurrent_commits.add(concurrent_commits);
    }

    /// Records one completed online-verifier run: the pages it examined
    /// and the findings it reported (all classes).
    pub(crate) fn record_verify(&self, pages: u64, divergences: u64) {
        self.verify_runs.add(1);
        self.pages_verified.add(pages);
        self.verify_divergences.add(divergences);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DbMetrics::new();
        m.begins.add(1);
        m.begins.add(1);
        m.record_commit(false);
        m.record_commit(true);
        m.record_gc(5);
        m.record_chunk_refill(3);
        m.record_chunk_refill(7);
        m.record_chunk_refill(2);
        m.candidate_buffer_peak.max(9);
        m.record_group_sync(4);
        m.record_group_sync(9);
        m.record_group_sync(1);
        m.record_write_retry(50);
        m.record_write_retry(120);
        m.record_checkpoint(40, 3);
        m.record_checkpoint(2, 0);
        m.record_verify(10, 1);
        let s = m.snapshot();
        assert_eq!(s.begins, 2);
        assert_eq!(s.commits, 2);
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.gc_runs, 1);
        assert_eq!(s.versions_reclaimed, 5);
        assert_eq!(s.chunk_refills, 3);
        assert_eq!(
            s.candidate_buffer_peak, 9,
            "peak is a max over refills and sort buffers, not a sum"
        );
        assert_eq!(s.wal_syncs, 3);
        assert_eq!(s.group_commit_batches, 3);
        assert_eq!(s.group_commit_batch_size_max, 9, "max, not sum");
        assert_eq!(s.write_retries, 2);
        assert_eq!(s.write_retry_backoff_us, 170, "backoff is a sum");
        assert_eq!(s.checkpoint_epochs, 2);
        assert_eq!(s.checkpoint_pages_flushed, 42, "pages are a sum");
        assert_eq!(s.checkpoint_concurrent_commits, 3);
        assert_eq!(
            (s.verify_runs, s.pages_verified, s.verify_divergences),
            (1, 10, 1)
        );
        assert_eq!(s.wal_segments_created, 0, "WAL gauges merge at GraphDb");
    }

    #[test]
    fn counter_and_histogram_primitives() {
        let c = Counter::default();
        c.add(5);
        c.sub(2);
        assert_eq!(c.get(), 3);
        c.max(2);
        assert_eq!(c.get(), 3, "max never lowers");
        c.max(8);
        assert_eq!(c.get(), 8);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let buckets = h.get();
        assert_eq!(buckets[0], 2, "0 clamps into bucket 0");
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[10], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1, "huge values clamp");
    }

    /// The default dump with every counter set to a distinct non-zero
    /// value, so a counter the codec dropped or mixed up cannot
    /// round-trip.
    fn distinct_text() -> String {
        DbMetricsSnapshot::default()
            .to_text()
            .lines()
            .zip(1u64..)
            .map(|(line, value)| format!("{} {value}\n", line.split(' ').next().unwrap()))
            .collect()
    }

    #[test]
    fn text_encoding_round_trips_every_counter() {
        let text = distinct_text();
        let parsed = DbMetricsSnapshot::from_text(&text).unwrap();
        assert_eq!(parsed.to_text(), text);
        assert_eq!(
            DbMetricsSnapshot::from_text(&parsed.to_text()).unwrap(),
            parsed
        );
    }

    #[test]
    fn text_parsing_skips_comments_and_unknown_counters() {
        let text = "# scraped 2026-08-08\n\ncommits 7\nserver_sessions_active 3\nreads 2\n";
        let parsed = DbMetricsSnapshot::from_text(text).unwrap();
        assert_eq!(parsed.commits, 7);
        assert_eq!(parsed.reads, 2);
        assert_eq!(parsed.begins, 0, "absent counters stay zero");
    }

    #[test]
    fn text_parsing_rejects_malformed_lines() {
        assert!(DbMetricsSnapshot::from_text("commits").is_err());
        assert!(DbMetricsSnapshot::from_text("commits seven").is_err());
        assert!(DbMetricsSnapshot::from_text("commits -3").is_err());
    }

    #[test]
    fn abort_rate() {
        let s = DbMetricsSnapshot {
            commits: 8,
            conflict_aborts: 2,
            ..Default::default()
        };
        assert!((s.abort_rate() - 0.2).abs() < 1e-9);
        assert_eq!(DbMetricsSnapshot::default().abort_rate(), 0.0);
    }
}
