//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` is this table
//! written out (`run.sh spec`), and a test holds the two together.

use crate::gen::{Mix, SOCIAL_READ_MIX, SOCIAL_WRITE_MIX, WIRE_MIX};
use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub persons: usize,
    pub mix: Mix,
    /// Through an in-process server and two `Client` connections.
    pub wire: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "social_read",
        why: "90% snapshot reads on a cache-resident 5k-person graph: core query/iterator code, mvcc visibility and storage chain walks do the work, wal almost none",
        persons: 5_000,
        mix: SOCIAL_READ_MIX,
        wire: false,
    },
    Workload {
        name: "social_write",
        why: "80% writes on the same graph: txn locks and conflicts, commit encode, wal append and group sync, mvcc install, index churn, store flush-through; read-path changes should not move it",
        persons: 5_000,
        mix: SOCIAL_WRITE_MIX,
        wire: false,
    },
    Workload {
        name: "social_cold",
        why: "social_read's mix on 20k persons, the relationship store 2.5x its page cache: storage faults, evictions and CRC checks dominate; memory-for-speed trades show here",
        persons: 20_000,
        mix: SOCIAL_READ_MIX,
        wire: false,
    },
    Workload {
        name: "wire_mix",
        why: "the 5k graph behind the TCP server, 2 connections: the engine does microseconds per request and the server's codec, dispatch and round trips do the rest; engine changes should not move it",
        persons: 5_000,
        mix: WIRE_MIX,
        wire: true,
    },
];

/// Persons of every workload under `--smoke`.
pub const SMOKE_PERSONS: usize = 500;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// Seconds one run measures (`run_seconds`); also the default `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The bounds are the issue's, widened where ten seeds on the two-core
/// sandbox spread wider than a third of them (the builder's acceptance
/// rule). Over four ten-seed passes at the final settings the widest
/// interquartile spreads were `tput_tps` 8 %, `read_p50_us` 6 %,
/// `read_p99_us` 8 %, `write_p50_us` 16 %, `write_p99_us` 18 % (both on
/// `social_write`, when the sandbox's fsync latency drifted between runs),
/// `reopen_s` 10 %, `space_amp` 4 %. The measurement was steadied first
/// (README, "Where this differs from the issue"). Every timing carries the
/// widest bound the contract allows because the host itself drifts: for
/// forty minutes of one validation session every workload ran 10–25 %
/// slower, at an unchanged load average.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("tput_tps", "1/s", Better::Higher, 0.25),
    e2e("read_p50_us", "us", Better::Lower, 0.25),
    e2e("read_p99_us", "us", Better::Lower, 0.25),
    e2e("write_p50_us", "us", Better::Lower, 0.25),
    e2e("write_p99_us", "us", Better::Lower, 0.25),
    e2e("attempts_per_txn", "count", Better::Lower, 0.01),
    e2e("reopen_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("space_amp", "x", Better::Lower, 0.12),
];

pub const PER_LAYER: &[Metric] = &[
    // server: spans on Client calls, the server's histogram, codec probe.
    lower("server.rtt_read_p50_us", "us"),
    lower("server.rtt_write_p50_us", "us"),
    lower("server.rtt_commit_p50_us", "us"),
    lower("server.exec_p50_us", "us"),
    lower("server.wire_overhead_us", "us"),
    lower("server.requests_per_txn", "count"),
    lower("server.rejected_overload", "count"),
    lower("server.queue_depth_peak", "count"),
    lower("server.encode_ns", "ns"),
    lower("server.decode_ns", "ns"),
    // core: API spans.
    lower("core.begin_ns", "ns"),
    lower("core.fof_p50_us", "us"),
    lower("core.profile_p50_us", "us"),
    lower("core.feed_p50_us", "us"),
    lower("core.search_p50_us", "us"),
    lower("core.audit_p50_us", "us"),
    lower("core.plan_ns", "ns"),
    lower("core.drain_ns_per_row", "ns"),
    lower("core.read_commit_ns", "ns"),
    lower("core.write_buffer_ns", "ns"),
    lower("core.write_commit_p50_us", "us"),
    // core: counter deltas over the window.
    lower("core.chunk_refills_per_read_txn", "count"),
    lower("core.property_decodes_per_row", "count"),
    lower("core.decode_filter_fallbacks", "count"),
    higher("core.ordered_index_streams", "count"),
    higher("core.topk_early_exits", "count"),
    higher("core.intersection_pushdowns", "count"),
    lower("core.conflict_aborts", "count"),
    higher("core.commits_per_wal_sync", "count"),
    higher("core.group_commit_batch_size_max", "count"),
    lower("core.store_apply_shard_conflicts", "count"),
    // core: maintenance and restart.
    lower("core.gc_pause_p50_ms", "ms"),
    lower("core.gc_pause_max_ms", "ms"),
    lower("core.checkpoint_p50_ms", "ms"),
    lower("core.checkpoint_max_ms", "ms"),
    lower("core.checkpoint_pages_flushed", "count"),
    lower("core.maint_stall_max_us", "us"),
    lower("core.open_ms", "ms"),
    lower("core.recovery_ms", "ms"),
    lower("core.verify_ms", "ms"),
    lower("core.encode_ns", "ns"),
    // mvcc.
    lower("mvcc.reads_per_read_txn", "count"),
    higher("mvcc.chain_hit_ratio", "ratio"),
    lower("mvcc.base_loads_per_read_txn", "count"),
    lower("mvcc.installs_per_write_txn", "count"),
    lower("mvcc.versions_live", "count"),
    lower("mvcc.chains_live", "count"),
    higher("mvcc.reclaimed_per_gc", "count"),
    lower("mvcc.chains_dropped_per_gc", "count"),
    lower("mvcc.examined_per_reclaimed", "ratio"),
    lower("mvcc.read_ns", "ns"),
    lower("mvcc.install_ns", "ns"),
    // index.
    lower("index.add_ns", "ns"),
    lower("index.lookup_ns", "ns"),
    lower("index.range_ns_per_posting", "ns"),
    lower("index.gc_ns_per_posting", "ns"),
    higher("index.postings_reclaimed_per_gc", "count"),
    lower("index.dead_posting_ratio", "ratio"),
    // txn.
    lower("txn.exclusive_per_write_txn", "count"),
    lower("txn.shared_acquired", "count"),
    lower("txn.immediate_conflicts", "count"),
    lower("txn.waits", "count"),
    lower("txn.deadlocks", "count"),
    lower("txn.timeouts", "count"),
    lower("txn.lock_cycle_ns", "ns"),
    higher("txn.rc_tput_tps", "1/s"),
    higher("txn.si_over_rc_tput", "ratio"),
    // wal.
    lower("wal.append_ns", "ns"),
    lower("wal.sync_p50_us", "us"),
    lower("wal.sync_p99_us", "us"),
    lower("wal.syncs_per_s", "1/s"),
    lower("wal.bytes_per_write_txn", "bytes"),
    lower("wal.segments_created", "count"),
    higher("wal.segments_deleted", "count"),
    lower("wal.retained_bytes_peak", "bytes"),
    lower("wal.replay_ms", "ms"),
    // storage.
    higher("storage.node_page_hit_ratio", "ratio"),
    higher("storage.rel_page_hit_ratio", "ratio"),
    lower("storage.rel_page_misses_per_read_txn", "count"),
    lower("storage.evictions_per_s", "1/s"),
    lower("storage.pages_flushed", "count"),
    lower("storage.record_writes_per_write_txn", "count"),
    lower("storage.write_amp", "x"),
    lower("storage.checksum_failures", "count"),
    lower("storage.disk_bytes", "bytes"),
    lower("storage.read_node_hit_ns", "ns"),
    lower("storage.read_node_miss_ns", "ns"),
    lower("storage.rel_chain_ns_per_rel", "ns"),
    lower("storage.flush_ms", "ms"),
];

/// The metric called `name` in `table`; a name the table lacks is a typo
/// in this benchmark.
pub fn metric(table: &'static [Metric], name: &str) -> &'static Metric {
    table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric called {name}"))
}

/// `BENCHMARK.json`, exactly as the builder's contract wants it.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.as_str())),
        ];
        if with_bound {
            pairs.push(("bound", Json::from(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", Json::arr(["bash", "benchmark/run.sh"])),
        ("paths", Json::arr(["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_on_disk_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(100.0, 110.0), 0.1);
        assert_eq!(Better::Higher.worsening(100.0, 90.0), 0.1);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 5.0), 0.0);
    }
}
