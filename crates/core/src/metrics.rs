//! Database-level metrics, exposed through
//! [`crate::db::GraphDb::metrics`] and the server's `METRICS` frame.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters.
#[derive(Debug, Default)]
pub struct DbMetrics {
    begins: AtomicU64,
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    rollbacks: AtomicU64,
    conflict_aborts: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    gc_runs: AtomicU64,
    versions_reclaimed: AtomicU64,
    chunk_refills: AtomicU64,
    candidate_buffer_peak: AtomicU64,
    shard_key_buffer_peak: AtomicU64,
    cursor_restarts: AtomicU64,
    wal_syncs: AtomicU64,
    group_commit_batches: AtomicU64,
    group_commit_batch_size_max: AtomicU64,
    store_apply_shard_conflicts: AtomicU64,
    store_apply_concurrency_peak: AtomicU64,
    wal_abort_records: AtomicU64,
    predicate_pushdowns: AtomicU64,
    decode_filter_fallbacks: AtomicU64,
    property_decodes: AtomicU64,
    ordered_index_streams: AtomicU64,
    topk_early_exits: AtomicU64,
    intersection_pushdowns: AtomicU64,
    intersection_leg_skips: AtomicU64,
    write_retries: AtomicU64,
    write_retry_backoff_us: AtomicU64,
    checkpoint_epochs: AtomicU64,
    checkpoint_pages_flushed: AtomicU64,
    checkpoint_concurrent_commits: AtomicU64,
    verify_runs: AtomicU64,
    pages_verified: AtomicU64,
    verify_divergences: AtomicU64,
}

/// A point-in-time snapshot of [`DbMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbMetricsSnapshot {
    /// Transactions started.
    pub begins: u64,
    /// Transactions committed (including read-only ones).
    pub commits: u64,
    /// Read-only commits (no write set).
    pub read_only_commits: u64,
    /// Transactions rolled back explicitly or on drop.
    pub rollbacks: u64,
    /// Transactions aborted because of write-write conflicts, deadlocks or
    /// lock timeouts.
    pub conflict_aborts: u64,
    /// Entity reads served.
    pub reads: u64,
    /// Entity writes buffered.
    pub writes: u64,
    /// Garbage-collection runs.
    pub gc_runs: u64,
    /// Versions reclaimed by garbage collection.
    pub versions_reclaimed: u64,
    /// Chunk refills performed by the streaming read cursors.
    pub chunk_refills: u64,
    /// Largest number of candidate IDs any single cursor refill buffered —
    /// the knob the chunked redesign bounds: with chunk size `c`, this
    /// never exceeds `c` no matter how large the scanned label, posting
    /// list or relationship chain is.
    pub candidate_buffer_peak: u64,
    /// Largest MVCC cache-shard key page a whole-graph scan buffered in
    /// one refill. Whole-graph scans (`all_nodes`, `all_relationships`)
    /// page each shard through sorted range-resume pages, so this peak is
    /// bounded by the scan's chunk size — not by the largest shard, no
    /// matter how skewed the key distribution is.
    pub shard_key_buffer_peak: u64,
    /// Times a chain cursor had to restart from the head because a
    /// concurrent commit rewired the chain under it.
    pub cursor_restarts: u64,
    /// WAL `fsync`s issued by the commit pipeline. Under group commit this
    /// is the number that proves batching: with concurrent committers it
    /// stays strictly below the committed-transaction count, because one
    /// leader sync covers every committer parked on the batcher.
    pub wal_syncs: u64,
    /// Group-commit batches completed (leader sync rounds). Equal to
    /// `wal_syncs` when every sync goes through the batcher.
    pub group_commit_batches: u64,
    /// Largest number of commit records any single group-commit sync made
    /// durable at once.
    pub group_commit_batch_size_max: u64,
    /// Store-apply shard acquisitions that found the shard already held by
    /// another in-flight commit (overlapping footprints queueing).
    pub store_apply_shard_conflicts: u64,
    /// Largest number of commits simultaneously inside their stage-C store
    /// flush-through. Above 1 proves disjoint-footprint commits really
    /// applied to the persistent store concurrently.
    pub store_apply_concurrency_peak: u64,
    /// Abort (invalidation) records appended to the WAL for commits failed
    /// after their record reached the log — each one is a transaction that
    /// recovery replay must skip.
    pub wal_abort_records: u64,
    /// Property predicates (equality or range) the query planner compiled
    /// into a versioned-index source — executed as postings/range-postings
    /// scans, with **zero** per-candidate property decoding.
    pub predicate_pushdowns: u64,
    /// Property predicate stages the planner had to execute as
    /// decode-based filters (no usable index range, planner estimate
    /// favoured the other source, opaque predicate closure, or pushdown
    /// disabled). Together with `predicate_pushdowns` this proves which
    /// path a filtered scan ran.
    pub decode_filter_fallbacks: u64,
    /// Per-candidate property materialisations performed by decode-based
    /// filter stages. A pushed-down predicate performs none of these, a
    /// decode fallback pays one per candidate scanned.
    pub property_decodes: u64,
    /// Queries whose `order_by`/`top_k` the planner served straight off
    /// the index's sorted key walk — no sort buffer was allocated. A query
    /// that had to buffer-and-sort instead does not count here.
    pub ordered_index_streams: u64,
    /// Index-streamed top-k queries that stopped paging the source before
    /// it was exhausted — the early-exit the ordered walk makes possible.
    pub topk_early_exits: u64,
    /// Queries whose multi-predicate conjunction compiled to a
    /// sorted-posting intersection (one driving range cursor plus
    /// membership legs) instead of an index scan + decode-filter chain.
    pub intersection_pushdowns: u64,
    /// Driver candidates an intersection discarded via a cheap posting
    /// membership probe — each one a candidate the decode-filter chain
    /// would have paid a `property_decodes` for.
    pub intersection_leg_skips: u64,
    /// Conflict retries performed by [`crate::GraphDb::write_with_retry`]
    /// (one per aborted-and-retried attempt, across all callers).
    pub write_retries: u64,
    /// Total microseconds [`crate::GraphDb::write_with_retry`] spent
    /// sleeping in its jittered backoff. Together with `write_retries`
    /// this exposes how much wall-clock contention costs writers.
    pub write_retry_backoff_us: u64,
    /// Fuzzy checkpoints completed (each advances the checkpoint epoch
    /// and the WAL retention watermark).
    pub checkpoint_epochs: u64,
    /// Dirty store pages written back by checkpoint flush cursors.
    pub checkpoint_pages_flushed: u64,
    /// Commits that completed *while* a checkpoint was running — the
    /// headline proof that checkpoints no longer quiesce the commit
    /// pipeline.
    pub checkpoint_concurrent_commits: u64,
    /// WAL segment files created (rotation) over the database's lifetime.
    pub wal_segments_created: u64,
    /// WAL segment files deleted by the retention watermark after a
    /// checkpoint covered them.
    pub wal_segments_deleted: u64,
    /// Bytes of WAL currently retained across all segment files. Bounded
    /// by checkpointing: after a checkpoint releases old segments this
    /// drops back to the active suffix.
    pub wal_retained_bytes: u64,
    /// Online-verifier runs completed ([`crate::GraphDb::verify`]).
    pub verify_runs: u64,
    /// Store pages whose trailer checksum the verifier examined, summed
    /// over all runs.
    pub pages_verified: u64,
    /// Findings the verifier reported, summed over all runs and classes
    /// (bad page CRC, dangling chain pointer, index↔store divergence,
    /// orphaned posting).
    pub verify_divergences: u64,
    /// Store pages that failed their trailer checksum on fault-in. Owned
    /// by the storage layer and merged in at [`crate::GraphDb::metrics`]
    /// (zero in a bare [`DbMetrics::snapshot`]).
    pub page_checksum_failures: u64,
    /// Checksum-failed pages recovery rebuilt from WAL replay (torn
    /// writes fully covered by the log). Storage-owned, merged in at
    /// [`crate::GraphDb::metrics`].
    pub torn_pages_recovered: u64,
}

/// Applies a macro to every counter of [`DbMetricsSnapshot`], by name.
/// Both halves of the text codec expand from this one list, and an
/// exhaustive destructuring check below makes a snapshot field that is
/// missing from the list a compile error instead of a counter that
/// silently falls out of the wire format.
macro_rules! for_each_counter {
    ($m:ident) => {
        $m! {
            begins,
            commits,
            read_only_commits,
            rollbacks,
            conflict_aborts,
            reads,
            writes,
            gc_runs,
            versions_reclaimed,
            chunk_refills,
            candidate_buffer_peak,
            shard_key_buffer_peak,
            cursor_restarts,
            wal_syncs,
            group_commit_batches,
            group_commit_batch_size_max,
            store_apply_shard_conflicts,
            store_apply_concurrency_peak,
            wal_abort_records,
            predicate_pushdowns,
            decode_filter_fallbacks,
            property_decodes,
            ordered_index_streams,
            topk_early_exits,
            intersection_pushdowns,
            intersection_leg_skips,
            write_retries,
            write_retry_backoff_us,
            checkpoint_epochs,
            checkpoint_pages_flushed,
            checkpoint_concurrent_commits,
            wal_segments_created,
            wal_segments_deleted,
            wal_retained_bytes,
            verify_runs,
            pages_verified,
            verify_divergences,
            page_checksum_failures,
            torn_pages_recovered
        }
    };
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

    /// Encodes the snapshot in the stable plaintext metrics format: one
    /// `name value` line per counter, in a fixed order. This is the format
    /// the server's `METRICS` command emits (with its own `server_*` lines
    /// alongside) and the format scrapers should parse; it round-trips
    /// through [`DbMetricsSnapshot::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        macro_rules! emit {
            ($($field:ident),*) => {
                $(
                    out.push_str(stringify!($field));
                    out.push(' ');
                    out.push_str(&self.$field.to_string());
                    out.push('\n');
                )*
            };
        }
        for_each_counter!(emit);
        out
    }

    /// Parses the plaintext metrics format produced by
    /// [`DbMetricsSnapshot::to_text`]. Blank lines and `#` comment lines
    /// are skipped; unknown counter names are ignored (so a scraper built
    /// against this version keeps working when later versions add
    /// counters); counters absent from the text stay zero. A line that is
    /// not `name value` with an unsigned integer value is an error.
    pub fn from_text(text: &str) -> std::result::Result<Self, String> {
        let mut snapshot = DbMetricsSnapshot::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed metrics line {line:?}"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("non-integer value in metrics line {line:?}"))?;
            macro_rules! assign {
                ($($field:ident),*) => {
                    match name {
                        $(stringify!($field) => snapshot.$field = value,)*
                        _ => {}
                    }
                };
            }
            for_each_counter!(assign);
        }
        Ok(snapshot)
    }
}

// The exhaustiveness guard behind `for_each_counter!`: destructuring
// without `..` stops compiling the moment a new snapshot field is not in
// the list.
macro_rules! counter_list_guard {
    ($($field:ident),*) => {
        #[allow(dead_code)]
        fn _counter_list_is_exhaustive(s: DbMetricsSnapshot) {
            let DbMetricsSnapshot { $($field: _,)* } = s;
        }
    };
}
for_each_counter!(counter_list_guard);

impl DbMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_begin(&self) {
        self.begins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_commit(&self, read_only: bool) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if read_only {
            self.read_only_commits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_conflict_abort(&self) {
        self.conflict_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_gc(&self, versions_reclaimed: u64) {
        self.gc_runs.fetch_add(1, Ordering::Relaxed);
        self.versions_reclaimed
            .fetch_add(versions_reclaimed, Ordering::Relaxed);
    }

    pub(crate) fn record_chunk_refill(&self, buffered: usize) {
        self.chunk_refills.fetch_add(1, Ordering::Relaxed);
        self.candidate_buffer_peak
            .fetch_max(buffered as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_shard_page(&self, buffered: usize) {
        self.shard_key_buffer_peak
            .fetch_max(buffered as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_cursor_restarts(&self, restarts: u64) {
        if restarts > 0 {
            self.cursor_restarts.fetch_add(restarts, Ordering::Relaxed);
        }
    }

    /// Records one WAL sync that made `batch_size` commit records durable.
    pub(crate) fn record_group_sync(&self, batch_size: u64) {
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
        self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
        self.group_commit_batch_size_max
            .fetch_max(batch_size, Ordering::Relaxed);
    }

    /// Records one contended store-apply shard acquisition.
    pub(crate) fn record_store_apply_conflict(&self) {
        self.store_apply_shard_conflicts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Feeds the store-apply concurrency peak with the current number of
    /// commits inside their flush-through.
    pub(crate) fn record_store_apply_concurrency(&self, in_flight: u64) {
        self.store_apply_concurrency_peak
            .fetch_max(in_flight, Ordering::Relaxed);
    }

    /// Records one abort record appended to the WAL.
    pub(crate) fn record_wal_abort(&self) {
        self.wal_abort_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one property predicate compiled to an index source.
    pub(crate) fn record_pushdown(&self) {
        self.predicate_pushdowns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one property predicate stage compiled to a decode filter.
    pub(crate) fn record_decode_filter_fallback(&self) {
        self.decode_filter_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-candidate property materialisation by a
    /// decode-based filter stage.
    pub(crate) fn record_property_decode(&self) {
        self.property_decodes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `order_by`/`top_k` served straight off the index's
    /// sorted key walk, with no sort buffer.
    pub(crate) fn record_ordered_index_stream(&self) {
        self.ordered_index_streams.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one index-streamed top-k that stopped paging its source
    /// before the source was exhausted.
    pub(crate) fn record_topk_early_exit(&self) {
        self.topk_early_exits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one multi-predicate conjunction compiled to a
    /// sorted-posting intersection.
    pub(crate) fn record_intersection_pushdown(&self) {
        self.intersection_pushdowns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records driver candidates an intersection's membership legs
    /// discarded without decoding any property.
    pub(crate) fn record_intersection_leg_skips(&self, skipped: u64) {
        if skipped > 0 {
            self.intersection_leg_skips
                .fetch_add(skipped, Ordering::Relaxed);
        }
    }

    /// Feeds the candidate-buffer peak with the size of a sort-fallback
    /// buffer (no refill is counted — the rows were already paged).
    pub(crate) fn record_candidate_buffer(&self, buffered: usize) {
        self.candidate_buffer_peak
            .fetch_max(buffered as u64, Ordering::Relaxed);
    }

    /// Records one conflict retry of `write_with_retry` and the jittered
    /// backoff it is about to sleep.
    pub(crate) fn record_write_retry(&self, backoff_us: u64) {
        self.write_retries.fetch_add(1, Ordering::Relaxed);
        self.write_retry_backoff_us
            .fetch_add(backoff_us, Ordering::Relaxed);
    }

    /// Records one completed fuzzy checkpoint: the pages its flush cursor
    /// wrote back and the commits that completed while it ran.
    pub(crate) fn record_checkpoint(&self, pages_flushed: u64, concurrent_commits: u64) {
        self.checkpoint_epochs.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_pages_flushed
            .fetch_add(pages_flushed, Ordering::Relaxed);
        self.checkpoint_concurrent_commits
            .fetch_add(concurrent_commits, Ordering::Relaxed);
    }

    /// Records one completed online-verifier run: the pages it examined
    /// and the findings it reported (all classes).
    pub(crate) fn record_verify(&self, pages: u64, divergences: u64) {
        self.verify_runs.fetch_add(1, Ordering::Relaxed);
        self.pages_verified.fetch_add(pages, Ordering::Relaxed);
        self.verify_divergences
            .fetch_add(divergences, Ordering::Relaxed);
    }

    /// Takes a snapshot of every counter. The `wal_segments_*` /
    /// `wal_retained_bytes` gauges are owned by the WAL itself — and the
    /// `page_checksum_failures` / `torn_pages_recovered` gauges by the
    /// storage layer — so they stay zero here;
    /// [`crate::GraphDb::metrics`] merges them in.
    pub fn snapshot(&self) -> DbMetricsSnapshot {
        DbMetricsSnapshot {
            begins: self.begins.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            read_only_commits: self.read_only_commits.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            conflict_aborts: self.conflict_aborts.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            gc_runs: self.gc_runs.load(Ordering::Relaxed),
            versions_reclaimed: self.versions_reclaimed.load(Ordering::Relaxed),
            chunk_refills: self.chunk_refills.load(Ordering::Relaxed),
            candidate_buffer_peak: self.candidate_buffer_peak.load(Ordering::Relaxed),
            shard_key_buffer_peak: self.shard_key_buffer_peak.load(Ordering::Relaxed),
            cursor_restarts: self.cursor_restarts.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            group_commit_batch_size_max: self.group_commit_batch_size_max.load(Ordering::Relaxed),
            store_apply_shard_conflicts: self.store_apply_shard_conflicts.load(Ordering::Relaxed),
            store_apply_concurrency_peak: self.store_apply_concurrency_peak.load(Ordering::Relaxed),
            wal_abort_records: self.wal_abort_records.load(Ordering::Relaxed),
            predicate_pushdowns: self.predicate_pushdowns.load(Ordering::Relaxed),
            decode_filter_fallbacks: self.decode_filter_fallbacks.load(Ordering::Relaxed),
            property_decodes: self.property_decodes.load(Ordering::Relaxed),
            ordered_index_streams: self.ordered_index_streams.load(Ordering::Relaxed),
            topk_early_exits: self.topk_early_exits.load(Ordering::Relaxed),
            intersection_pushdowns: self.intersection_pushdowns.load(Ordering::Relaxed),
            intersection_leg_skips: self.intersection_leg_skips.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            write_retry_backoff_us: self.write_retry_backoff_us.load(Ordering::Relaxed),
            checkpoint_epochs: self.checkpoint_epochs.load(Ordering::Relaxed),
            checkpoint_pages_flushed: self.checkpoint_pages_flushed.load(Ordering::Relaxed),
            checkpoint_concurrent_commits: self
                .checkpoint_concurrent_commits
                .load(Ordering::Relaxed),
            wal_segments_created: 0,
            wal_segments_deleted: 0,
            wal_retained_bytes: 0,
            verify_runs: self.verify_runs.load(Ordering::Relaxed),
            pages_verified: self.pages_verified.load(Ordering::Relaxed),
            verify_divergences: self.verify_divergences.load(Ordering::Relaxed),
            page_checksum_failures: 0,
            torn_pages_recovered: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DbMetrics::new();
        m.record_begin();
        m.record_begin();
        m.record_commit(false);
        m.record_commit(true);
        m.record_rollback();
        m.record_conflict_abort();
        m.record_read();
        m.record_write();
        m.record_gc(5);
        m.record_chunk_refill(3);
        m.record_chunk_refill(7);
        m.record_chunk_refill(2);
        m.record_shard_page(31);
        m.record_shard_page(12);
        m.record_cursor_restarts(0);
        m.record_cursor_restarts(2);
        m.record_group_sync(4);
        m.record_group_sync(9);
        m.record_group_sync(1);
        m.record_store_apply_conflict();
        m.record_store_apply_conflict();
        m.record_store_apply_concurrency(3);
        m.record_store_apply_concurrency(1);
        m.record_wal_abort();
        m.record_pushdown();
        m.record_decode_filter_fallback();
        m.record_decode_filter_fallback();
        m.record_property_decode();
        m.record_property_decode();
        m.record_property_decode();
        m.record_ordered_index_stream();
        m.record_topk_early_exit();
        m.record_intersection_pushdown();
        m.record_intersection_pushdown();
        m.record_intersection_leg_skips(0);
        m.record_intersection_leg_skips(4);
        m.record_candidate_buffer(9);
        m.record_write_retry(50);
        m.record_write_retry(120);
        m.record_checkpoint(40, 3);
        m.record_checkpoint(2, 0);
        let s = m.snapshot();
        assert_eq!(s.begins, 2);
        assert_eq!(s.commits, 2);
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.conflict_aborts, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.gc_runs, 1);
        assert_eq!(s.versions_reclaimed, 5);
        assert_eq!(s.chunk_refills, 3);
        assert_eq!(
            s.candidate_buffer_peak, 9,
            "peak is a max over refills and sort buffers, not a sum"
        );
        assert_eq!(s.shard_key_buffer_peak, 31);
        assert_eq!(s.cursor_restarts, 2);
        assert_eq!(s.wal_syncs, 3);
        assert_eq!(s.group_commit_batches, 3);
        assert_eq!(s.group_commit_batch_size_max, 9, "max, not sum");
        assert_eq!(s.store_apply_shard_conflicts, 2);
        assert_eq!(s.store_apply_concurrency_peak, 3, "peak is a max");
        assert_eq!(s.wal_abort_records, 1);
        assert_eq!(s.predicate_pushdowns, 1);
        assert_eq!(s.decode_filter_fallbacks, 2);
        assert_eq!(s.property_decodes, 3);
        assert_eq!(s.ordered_index_streams, 1);
        assert_eq!(s.topk_early_exits, 1);
        assert_eq!(s.intersection_pushdowns, 2);
        assert_eq!(s.intersection_leg_skips, 4);
        assert_eq!(s.write_retries, 2);
        assert_eq!(s.write_retry_backoff_us, 170, "backoff is a sum");
        assert_eq!(s.checkpoint_epochs, 2);
        assert_eq!(s.checkpoint_pages_flushed, 42, "pages are a sum");
        assert_eq!(s.checkpoint_concurrent_commits, 3);
        assert_eq!(s.wal_segments_created, 0, "WAL gauges merge at GraphDb");
    }

    /// Gives every counter a distinct non-zero value, so a counter the
    /// text codec dropped or mixed up cannot round-trip.
    fn distinct_snapshot() -> DbMetricsSnapshot {
        let mut s = DbMetricsSnapshot::default();
        let mut next = 1u64;
        macro_rules! fill {
            ($($field:ident),*) => {
                $(
                    s.$field = next;
                    next += 1;
                )*
            };
        }
        for_each_counter!(fill);
        s
    }

    #[test]
    fn text_encoding_round_trips_every_counter() {
        let s = distinct_snapshot();
        let text = s.to_text();
        let parsed = DbMetricsSnapshot::from_text(&text).unwrap();
        assert_eq!(parsed, s);
        // Stable shape: one `name value` line per counter, no extras.
        for line in text.lines() {
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(!name.is_empty());
            value.parse::<u64>().expect("integer value");
        }
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
