//! Turning what a run recorded into the named metrics: end-to-end from
//! the samples, per-layer from spans, counter deltas and probe results.

use std::collections::HashMap;

use crate::checks::PostWindow;
use crate::driver::Phase;
use crate::gen::{Kind, KNOWS_USER_BYTES, TRANSFER_USER_BYTES};
use crate::probes::Probes;
use crate::spec::{metric, Metric, END_TO_END, PER_LAYER};
use crate::stats::{log2_histogram_percentile, median, percentile_sorted, tail_percentile};
use crate::trace::{self, Span};

const PAGE_BYTES: f64 = 8192.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latencies of one class of committed transactions in the window.
pub struct Latencies {
    pub sorted_ns: Vec<u64>,
    /// The tail percentile this many samples support (0.99 from 1,000).
    pub tail: f64,
}

impl Latencies {
    fn of(phase: &Phase, write: bool) -> Latencies {
        let mut sorted_ns: Vec<u64> = phase
            .window_samples()
            .filter(|s| s.ok && s.kind.is_write() == write)
            .map(|s| s.dur_ns)
            .collect();
        sorted_ns.sort_unstable();
        let tail = tail_percentile(sorted_ns.len());
        Latencies { sorted_ns, tail }
    }

    fn us(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted_ns, p).map_or(0.0, |ns| ns as f64 / 1e3)
    }
}

pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    pub reads: Latencies,
    pub writes: Latencies,
    /// Transactions committed in each second of the window.
    pub committed_by_second: Vec<u64>,
    /// In `spec::END_TO_END` order.
    pub values: Vec<(&'static Metric, f64)>,
}

pub fn end_to_end(phase: &Phase, setup_s: f64, post: &PostWindow) -> EndToEnd {
    let attempted = phase.window_samples().count() as u64;
    let committed = phase.committed(|_| true);
    let attempts: u64 = phase.window_samples().map(|s| u64::from(s.attempts)).sum();
    let reads = Latencies::of(phase, false);
    let writes = Latencies::of(phase, true);
    let mut committed_by_second = vec![0u64; phase.window_secs().ceil() as usize];
    for s in phase.window_samples().filter(|s| s.ok) {
        committed_by_second[((s.start_ns - phase.window.0) / 1_000_000_000) as usize] += 1;
    }
    let values = [
        ("setup_s", setup_s),
        ("tput_tps", committed as f64 / phase.window_secs()),
        ("read_p50_us", reads.us(0.5)),
        ("read_p99_us", reads.us(reads.tail)),
        ("write_p50_us", writes.us(0.5)),
        ("write_p99_us", writes.us(writes.tail)),
        ("attempts_per_txn", ratio(attempts as f64, committed as f64)),
        ("reopen_s", post.reopen_median_s()),
        ("peak_rss_mb", phase.peak_rss_mb),
        (
            "space_amp",
            ratio(post.disk_bytes as f64, post.user_bytes as f64),
        ),
    ]
    .map(|(name, value)| (metric(END_TO_END, name), value))
    .to_vec();
    EndToEnd {
        attempted,
        failed: attempted - committed,
        reads,
        writes,
        committed_by_second,
        values,
    }
}

/// Window spans of every thread, with each span's root.
struct WindowSpans<'a> {
    spans: Vec<(&'a Span, u8)>,
}

impl<'a> WindowSpans<'a> {
    fn of(phase: &'a Phase) -> WindowSpans<'a> {
        let mut spans = Vec::new();
        for thread in &phase.threads {
            let mut root_name = vec![0u8; thread.spans.len()];
            for (i, s) in thread.spans.iter().enumerate() {
                // A parent always precedes its children in the buffer.
                root_name[i] = if s.parent == u32::MAX {
                    s.name
                } else {
                    root_name[s.parent as usize]
                };
                if phase.in_window(s.start_ns) {
                    spans.push((s, root_name[i]));
                }
            }
        }
        WindowSpans { spans }
    }

    fn durations(&self, keep: impl Fn(&Span, u8) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(s, root)| keep(s, *root))
            .map(|(s, _)| s.dur_ns() as f64)
            .collect()
    }

    fn median_ns(&self, keep: impl Fn(&Span, u8) -> bool) -> f64 {
        median(&self.durations(keep)).unwrap_or(0.0)
    }
}

fn is_write_root(root: u8) -> bool {
    Kind::ALL.iter().any(|k| *k as u8 == root && k.is_write())
}

/// The slowest transaction that overlapped a maintenance call, in µs.
fn maint_stall_max_us(phase: &Phase) -> f64 {
    let maintenance: Vec<_> = phase.window_maintenance().collect();
    phase
        .window_samples()
        .filter(|s| {
            maintenance
                .iter()
                .any(|m| s.start_ns < m.start_ns + m.dur_ns && m.start_ns < s.start_ns + s.dur_ns)
        })
        .map(|s| s.dur_ns)
        .max()
        .map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Every `spec::PER_LAYER` metric, in that order. `rc` is the
/// read-committed phase, where one ran.
pub fn per_layer(
    phase: &Phase,
    post: &PostWindow,
    probes: &Probes,
    rc: Option<&Phase>,
) -> Vec<(&'static Metric, f64)> {
    let mut v: HashMap<&'static str, f64> = HashMap::new();
    let secs = phase.window_secs();
    let (b, a) = (&phase.before, &phase.after);
    let read_txns = phase.committed(|k| !k.is_write()) as f64;
    let write_txns = phase.committed(Kind::is_write) as f64;
    let tput = (read_txns + write_txns) / secs;

    // --- spans ---
    let spans = WindowSpans::of(phase);
    let rpc = [
        trace::RPC_BEGIN,
        trace::RPC_READ,
        trace::RPC_WRITE,
        trace::RPC_COMMIT,
        trace::RPC_ROLLBACK,
    ];
    v.insert(
        "server.rtt_read_p50_us",
        spans.median_ns(|s, _| s.name == trace::RPC_READ) / 1e3,
    );
    v.insert(
        "server.rtt_write_p50_us",
        spans.median_ns(|s, _| s.name == trace::RPC_WRITE) / 1e3,
    );
    v.insert(
        "server.rtt_commit_p50_us",
        spans.median_ns(|s, _| s.name == trace::RPC_COMMIT) / 1e3,
    );
    let rtt_all_us = spans.median_ns(|s, _| rpc.contains(&s.name)) / 1e3;
    v.insert(
        "core.begin_ns",
        spans.median_ns(|s, _| s.name == trace::BEGIN),
    );
    for (metric, root) in [
        ("core.fof_p50_us", trace::FOF),
        ("core.profile_p50_us", trace::PROFILE),
        ("core.feed_p50_us", trace::FEED),
        ("core.search_p50_us", trace::SEARCH),
        ("core.audit_p50_us", trace::AUDIT),
    ] {
        v.insert(metric, spans.median_ns(|s, _| s.name == root) / 1e3);
    }
    v.insert(
        "core.plan_ns",
        spans.median_ns(|s, _| s.name == trace::PLAN),
    );
    let drains: Vec<_> = spans
        .spans
        .iter()
        .filter(|(s, _)| s.name == trace::DRAIN)
        .collect();
    let rows: f64 = drains.iter().map(|(s, _)| f64::from(s.rows)).sum();
    let drain_ns: f64 = drains.iter().map(|(s, _)| s.dur_ns() as f64).sum();
    v.insert("core.drain_ns_per_row", ratio(drain_ns, rows));
    v.insert(
        "core.read_commit_ns",
        spans.median_ns(|s, root| s.name == trace::COMMIT && !is_write_root(root)),
    );
    v.insert(
        "core.write_buffer_ns",
        spans.median_ns(|s, _| {
            [
                trace::WRITE_SET_NODE_PROPERTY,
                trace::WRITE_CREATE_RELATIONSHIP,
                trace::WRITE_DELETE_RELATIONSHIP,
            ]
            .contains(&s.name)
        }),
    );
    v.insert(
        "core.write_commit_p50_us",
        spans.median_ns(|s, root| s.name == trace::COMMIT && is_write_root(root)) / 1e3,
    );

    // --- server counters ---
    if let (Some(sb), Some(sa)) = (&b.server, &a.server) {
        let buckets: Vec<u64> = sa
            .latency_us
            .iter()
            .zip(&sb.latency_us)
            .map(|(a, b)| a - b)
            .collect();
        let exec_us = log2_histogram_percentile(&buckets, 0.5).unwrap_or(0.0);
        v.insert("server.exec_p50_us", exec_us);
        v.insert("server.wire_overhead_us", (rtt_all_us - exec_us).max(0.0));
        v.insert(
            "server.requests_per_txn",
            ratio(
                (sa.requests_total - sb.requests_total) as f64,
                read_txns + write_txns,
            ),
        );
        v.insert(
            "server.rejected_overload",
            (sa.rejected_overload - sb.rejected_overload) as f64,
        );
        v.insert("server.queue_depth_peak", sa.queue_depth_peak as f64);
    } else {
        for name in [
            "server.exec_p50_us",
            "server.wire_overhead_us",
            "server.requests_per_txn",
            "server.rejected_overload",
            "server.queue_depth_peak",
        ] {
            v.insert(name, 0.0);
        }
    }

    // --- core counters ---
    let d = |f: fn(&graphsi_core::DbMetricsSnapshot) -> u64| (f(&a.db) - f(&b.db)) as f64;
    v.insert(
        "core.chunk_refills_per_read_txn",
        ratio(d(|m| m.chunk_refills), read_txns),
    );
    v.insert(
        "core.property_decodes_per_row",
        ratio(d(|m| m.property_decodes), rows),
    );
    v.insert(
        "core.decode_filter_fallbacks",
        d(|m| m.decode_filter_fallbacks),
    );
    v.insert("core.ordered_index_streams", d(|m| m.ordered_index_streams));
    v.insert("core.topk_early_exits", d(|m| m.topk_early_exits));
    v.insert(
        "core.intersection_pushdowns",
        d(|m| m.intersection_pushdowns),
    );
    v.insert("core.conflict_aborts", d(|m| m.conflict_aborts));
    let write_commits = d(|m| m.commits) - d(|m| m.read_only_commits);
    v.insert(
        "core.commits_per_wal_sync",
        ratio(write_commits, d(|m| m.wal_syncs)),
    );
    v.insert(
        "core.group_commit_batch_size_max",
        a.db.group_commit_batch_size_max as f64,
    );
    v.insert(
        "core.store_apply_shard_conflicts",
        d(|m| m.store_apply_shard_conflicts),
    );

    // --- maintenance and restart ---
    let pauses = |gc: bool| -> Vec<f64> {
        phase
            .window_maintenance()
            .filter(|m| m.gc.is_some() == gc)
            .map(|m| m.dur_ns as f64 / 1e6)
            .collect()
    };
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let (gc_ms, ckpt_ms) = (pauses(true), pauses(false));
    v.insert("core.gc_pause_p50_ms", median(&gc_ms).unwrap_or(0.0));
    v.insert("core.gc_pause_max_ms", max(&gc_ms));
    v.insert("core.checkpoint_p50_ms", median(&ckpt_ms).unwrap_or(0.0));
    v.insert("core.checkpoint_max_ms", max(&ckpt_ms));
    v.insert(
        "core.checkpoint_pages_flushed",
        d(|m| m.checkpoint_pages_flushed),
    );
    v.insert("core.maint_stall_max_us", maint_stall_max_us(phase));
    v.insert("core.open_ms", post.open_ms);
    // Zero when the engine refused the crash image (see `checks`).
    let recovery_ms = post.recovery_ms.unwrap_or(0.0);
    v.insert("core.recovery_ms", recovery_ms);
    v.insert("core.verify_ms", post.verify_ms);
    v.insert("wal.replay_ms", (recovery_ms - post.open_ms).max(0.0));

    // --- mvcc ---
    let cache = |f: fn(&graphsi_mvcc::CacheStatsSnapshot) -> u64| {
        ((f(&a.nodes) + f(&a.rels)) - (f(&b.nodes) + f(&b.rels))) as f64
    };
    v.insert(
        "mvcc.reads_per_read_txn",
        ratio(cache(|c| c.reads), read_txns),
    );
    v.insert(
        "mvcc.chain_hit_ratio",
        ratio(cache(|c| c.chain_hits), cache(|c| c.reads)),
    );
    v.insert(
        "mvcc.base_loads_per_read_txn",
        ratio(cache(|c| c.base_loads), read_txns),
    );
    v.insert(
        "mvcc.installs_per_write_txn",
        ratio(cache(|c| c.installs), write_txns),
    );
    v.insert(
        "mvcc.versions_live",
        (a.nodes.versions + a.rels.versions) as f64,
    );
    v.insert("mvcc.chains_live", (a.nodes.chains + a.rels.chains) as f64);
    let gcs: Vec<_> = phase.window_maintenance().filter_map(|m| m.gc).collect();
    let gc_sum = |f: fn(&graphsi_core::GcSummary) -> u64| gcs.iter().map(f).sum::<u64>() as f64;
    let runs = gcs.len() as f64;
    v.insert(
        "mvcc.reclaimed_per_gc",
        ratio(gc_sum(|g| g.versions_reclaimed), runs),
    );
    v.insert(
        "mvcc.chains_dropped_per_gc",
        ratio(gc_sum(|g| g.chains_dropped), runs),
    );
    v.insert(
        "mvcc.examined_per_reclaimed",
        ratio(
            gc_sum(|g| g.versions_examined),
            gc_sum(|g| g.versions_reclaimed),
        ),
    );
    v.insert(
        "index.postings_reclaimed_per_gc",
        ratio(gc_sum(|g| g.index_postings_reclaimed), runs),
    );

    // --- txn ---
    let lock = |f: fn(&graphsi_core::LockStatsSnapshot) -> u64| (f(&a.locks) - f(&b.locks)) as f64;
    v.insert(
        "txn.exclusive_per_write_txn",
        ratio(lock(|l| l.exclusive_acquired), write_txns),
    );
    v.insert("txn.shared_acquired", lock(|l| l.shared_acquired));
    v.insert("txn.immediate_conflicts", lock(|l| l.immediate_conflicts));
    v.insert("txn.waits", lock(|l| l.waits));
    v.insert("txn.deadlocks", lock(|l| l.deadlocks));
    v.insert("txn.timeouts", lock(|l| l.timeouts));
    let rc_tput = rc.map_or(0.0, |rc| rc.committed(|_| true) as f64 / rc.window_secs());
    v.insert("txn.rc_tput_tps", rc_tput);
    v.insert("txn.si_over_rc_tput", ratio(tput, rc_tput));

    // --- wal ---
    let wal_bytes = phase.wal_bytes();
    v.insert("wal.syncs_per_s", d(|m| m.wal_syncs) / secs);
    v.insert("wal.bytes_per_write_txn", ratio(wal_bytes, write_txns));
    v.insert("wal.segments_created", d(|m| m.wal_segments_created));
    v.insert("wal.segments_deleted", d(|m| m.wal_segments_deleted));
    v.insert("wal.retained_bytes_peak", phase.wal_retained_peak as f64);

    // --- storage ---
    let page = |after: &graphsi_storage::page_cache::PageCacheStats,
                before: &graphsi_storage::page_cache::PageCacheStats| {
        let (hits, misses) = (
            (after.hits - before.hits) as f64,
            (after.misses - before.misses) as f64,
        );
        (ratio(hits, hits + misses), misses)
    };
    let (node_hit, _) = page(&a.store.nodes, &b.store.nodes);
    let (rel_hit, rel_misses) = page(&a.store.relationships, &b.store.relationships);
    v.insert("storage.node_page_hit_ratio", node_hit);
    v.insert("storage.rel_page_hit_ratio", rel_hit);
    v.insert(
        "storage.rel_page_misses_per_read_txn",
        ratio(rel_misses, read_txns),
    );
    let both = |f: fn(&graphsi_storage::page_cache::PageCacheStats) -> u64| {
        ((f(&a.store.nodes) + f(&a.store.relationships))
            - (f(&b.store.nodes) + f(&b.store.relationships))) as f64
    };
    v.insert("storage.evictions_per_s", both(|p| p.evictions) / secs);
    let pages_flushed = both(|p| p.pages_flushed);
    v.insert("storage.pages_flushed", pages_flushed);
    v.insert(
        "storage.record_writes_per_write_txn",
        ratio(
            (a.store.total_record_writes() - b.store.total_record_writes()) as f64,
            write_txns,
        ),
    );
    let user_bytes_written: u64 = phase
        .window_samples()
        .filter(|s| s.ok)
        .map(|s| match s.kind {
            Kind::Transfer => TRANSFER_USER_BYTES,
            Kind::Befriend => KNOWS_USER_BYTES,
            _ => 0,
        })
        .sum();
    v.insert(
        "storage.write_amp",
        ratio(
            pages_flushed * PAGE_BYTES + wal_bytes,
            user_bytes_written as f64,
        ),
    );
    v.insert(
        "storage.checksum_failures",
        a.db.page_checksum_failures as f64,
    );
    v.insert("storage.disk_bytes", post.disk_bytes as f64);

    // --- probes ---
    v.extend(probes.values.iter().copied());

    PER_LAYER
        .iter()
        .map(|m| {
            let value = *v
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", m.name));
            (m, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}
