//! Saturation and latency metrics of the serving layer.
//!
//! The database's own counters live in `graphsi_core::metrics`; this
//! module tracks what only the server can see — session churn, admission
//! rejections, queue depth and per-request latency. Both sets are
//! declared with `graphsi_core::metric_set!`. The `METRICS` command
//! concatenates them: the database counters first, then one `server_*`
//! line per counter here. Each side's `from_text` skips the other's
//! lines, so both round-trip on the combined dump.

use graphsi_core::metrics::HISTOGRAM_BUCKETS;

/// Number of power-of-two latency buckets: bucket `i` counts requests
/// whose latency in microseconds satisfies `2^i <= us < 2^(i+1)` (bucket
/// 0 also absorbs sub-microsecond requests, the last bucket absorbs
/// everything slower).
pub const LATENCY_BUCKETS: usize = HISTOGRAM_BUCKETS;

graphsi_core::metric_set! {
    /// Shared, lock-free counters of one running server.
    pub struct ServerMetrics;
    /// Point-in-time copy of [`ServerMetrics`].
    pub struct ServerMetricsSnapshot;
    prefix = "server_";
    counters {
        /// Currently connected sessions.
        sessions_active,
        /// Sessions accepted since startup.
        sessions_total,
        /// Connections rejected at accept time (session limit).
        rejected_sessions,
        /// Requests executed (whether they succeeded or failed).
        requests_total,
        /// Requests rejected with `OVERLOADED` (admission queue full).
        rejected_overload,
        /// Transactions aborted by the idle-session sweeper.
        idle_timeout_aborts,
        /// Transactions rolled back because the client disconnected mid-txn.
        disconnect_rollbacks,
        /// High-water mark of queued-but-not-yet-executing requests.
        queue_depth_peak,
    }
    histograms {
        /// Log2 latency histogram over executed requests (µs).
        latency_us,
    }
}

impl ServerMetrics {
    pub(crate) fn session_opened(&self) {
        self.sessions_active.add(1);
        self.sessions_total.add(1);
    }

    /// Records one executed request and its latency.
    pub(crate) fn record_request(&self, latency_us: u64) {
        self.requests_total.add(1);
        self.latency_us.record(latency_us);
    }
}

impl ServerMetricsSnapshot {
    /// Approximates the latency percentile `p` (0.0–1.0) in microseconds
    /// from the histogram: the upper edge of the bucket the percentile
    /// falls into. Returns 0 with no samples.
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        let total: u64 = self.latency_us.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, count) in self.latency_us.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsi_core::DbMetricsSnapshot;

    #[test]
    fn request_latencies_land_in_log2_buckets() {
        let m = ServerMetrics::new();
        m.record_request(0); // clamps into bucket 0
        m.record_request(1); // bucket 0
        m.record_request(2); // bucket 1
        m.record_request(3); // bucket 1
        m.record_request(1024); // bucket 10
        let s = m.snapshot();
        assert_eq!(s.requests_total, 5);
        assert_eq!(s.latency_us[0], 2);
        assert_eq!(s.latency_us[1], 2);
        assert_eq!(s.latency_us[10], 1);
        assert_eq!(s.latency_us.iter().sum::<u64>(), 5);
    }

    #[test]
    fn huge_latency_clamps_into_last_bucket() {
        let m = ServerMetrics::new();
        m.record_request(u64::MAX);
        assert_eq!(m.snapshot().latency_us[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_walk_the_histogram() {
        let m = ServerMetrics::new();
        for _ in 0..99 {
            m.record_request(10); // bucket 3, upper edge 16
        }
        m.record_request(100_000); // bucket 16, upper edge 131072
        let s = m.snapshot();
        assert_eq!(s.latency_percentile_us(0.5), 16);
        assert_eq!(s.latency_percentile_us(0.99), 16);
        assert_eq!(s.latency_percentile_us(1.0), 131_072);
        assert_eq!(
            ServerMetricsSnapshot::default().latency_percentile_us(0.5),
            0
        );
    }

    #[test]
    fn queue_depth_keeps_the_peak() {
        let m = ServerMetrics::new();
        m.queue_depth_peak.max(3);
        m.queue_depth_peak.max(9);
        m.queue_depth_peak.max(5);
        assert_eq!(m.snapshot().queue_depth_peak, 9);
    }

    #[test]
    fn text_dump_prefixes_every_line_with_server() {
        let m = ServerMetrics::new();
        m.session_opened();
        m.record_request(7);
        m.rejected_overload.add(1);
        let text = m.snapshot().to_text();
        assert!(text.lines().count() >= 8 + LATENCY_BUCKETS);
        for l in text.lines() {
            assert!(l.starts_with("server_"), "line missing prefix: {l}");
            assert_eq!(l.split(' ').count(), 2);
        }
        assert!(text.contains("server_sessions_active 1\n"));
        assert!(text.contains("server_requests_total 1\n"));
        assert!(text.contains("server_rejected_overload 1\n"));
    }

    /// The default dump with every line set to a distinct, increasing
    /// value (increasing, so the cumulative histogram lines stay valid),
    /// so a metric the codec dropped or mixed up cannot round-trip.
    fn distinct_text() -> String {
        ServerMetricsSnapshot::default()
            .to_text()
            .lines()
            .zip(1u64..)
            .map(|(line, value)| format!("{} {value}\n", line.split(' ').next().unwrap()))
            .collect()
    }

    #[test]
    fn text_encoding_round_trips_every_counter() {
        let text = distinct_text();
        let parsed = ServerMetricsSnapshot::from_text(&text).unwrap();
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.latency_us[0], 9, "first bucket after 8 counters");
        assert_eq!(parsed.latency_us[1], 1, "buckets rebuilt from cumulative");
    }

    #[test]
    fn combined_metrics_dump_round_trips_both_halves() {
        // The METRICS command concatenates the database counters and the
        // server counters into one dump; each side's parser must
        // round-trip its own counters and ignore the other's lines.
        let db = DbMetricsSnapshot {
            commits: 11,
            wal_syncs: 3,
            predicate_pushdowns: 5,
            ..Default::default()
        };
        let server = ServerMetricsSnapshot::from_text(&distinct_text()).unwrap();
        let combined = format!("{}{}", db.to_text(), server.to_text());
        assert_eq!(DbMetricsSnapshot::from_text(&combined).unwrap(), db);
        assert_eq!(ServerMetricsSnapshot::from_text(&combined).unwrap(), server);
    }

    #[test]
    fn from_text_rejects_malformed_server_lines() {
        assert!(ServerMetricsSnapshot::from_text("server_requests_total").is_err());
        assert!(ServerMetricsSnapshot::from_text("server_requests_total many").is_err());
        assert!(ServerMetricsSnapshot::from_text("server_latency_us_le_x 1").is_err());
        // Non-server lines are not ours to validate.
        assert!(ServerMetricsSnapshot::from_text("commits seven").is_ok());
    }

    /// Pins the wire format of the `METRICS` frame: the exact, ordered
    /// list of names in the combined dump. Scrapers parse these names, so
    /// renaming, reordering or dropping one is a breaking change.
    #[test]
    fn metrics_dump_names_are_pinned() {
        let dump = format!(
            "{}{}",
            DbMetricsSnapshot::default().to_text(),
            ServerMetricsSnapshot::default().to_text()
        );
        let mut names: Vec<String> = [
            "begins",
            "commits",
            "read_only_commits",
            "rollbacks",
            "conflict_aborts",
            "reads",
            "writes",
            "gc_runs",
            "versions_reclaimed",
            "chunk_refills",
            "candidate_buffer_peak",
            "shard_key_buffer_peak",
            "cursor_restarts",
            "wal_syncs",
            "group_commit_batches",
            "group_commit_batch_size_max",
            "store_apply_shard_conflicts",
            "store_apply_concurrency_peak",
            "wal_abort_records",
            "predicate_pushdowns",
            "decode_filter_fallbacks",
            "property_decodes",
            "ordered_index_streams",
            "topk_early_exits",
            "intersection_pushdowns",
            "intersection_leg_skips",
            "write_retries",
            "write_retry_backoff_us",
            "checkpoint_epochs",
            "checkpoint_pages_flushed",
            "checkpoint_concurrent_commits",
            "wal_segments_created",
            "wal_segments_deleted",
            "wal_retained_bytes",
            "verify_runs",
            "pages_verified",
            "verify_divergences",
            "page_checksum_failures",
            "torn_pages_recovered",
            "server_sessions_active",
            "server_sessions_total",
            "server_rejected_sessions",
            "server_requests_total",
            "server_rejected_overload",
            "server_idle_timeout_aborts",
            "server_disconnect_rollbacks",
            "server_queue_depth_peak",
        ]
        .map(String::from)
        .to_vec();
        assert_eq!(names.len(), 39 + 8);
        names.extend((1..=28).map(|i| format!("server_latency_us_le_{}", 1u64 << i)));
        let expected: Vec<String> = names.iter().map(|name| format!("{name} 0")).collect();
        assert_eq!(dump.lines().collect::<Vec<_>>(), expected);
    }
}
