//! One workload, start to finish: set-up, warm-up and window, the
//! read-committed phase and the probes of a traced run, the post-window
//! checks, and the metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use graphsi_core::{DbConfig, GraphDb, NodeId};
use graphsi_server::{Client, Server, ServerConfig};

use crate::checks::{copy_dir, post_window, Check, PostWindow};
use crate::driver::{run_phase, Executor, Ledger, Pace, Phase, CLIENTS};
use crate::embedded::Embedded;
use crate::gen::{load, Graph, Kind, OpStream};
use crate::metrics::{end_to_end, per_layer, EndToEnd};
use crate::probes::{self, ProbeInput};
use crate::spec::{Metric, Workload};
use crate::stats::median;
use crate::trace::{self_time_by_name, write_jsonl, Span};
use crate::wire::{Frames, Wire};

/// Set-ups per run (`setup_s` is their median) and clean reopens per run
/// (`reopen_s` is theirs).
const SETUPS: usize = 5;
const REOPENS: usize = 7;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub persons: usize,
    pub seed: u64,
    pub pace: Pace,
    pub trace: bool,
    /// `benchmark/out`: data goes under `data/`, span files beside it.
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub end_to_end: EndToEnd,
    /// `Some` on a traced run, in `spec::PER_LAYER` order.
    pub per_layer: Option<Vec<(&'static Metric, f64)>>,
    pub checks: Vec<Check>,
    /// Reported with every run but not gating: see `checks`.
    pub crash_recovery: Check,
    /// Share of the window's span self time, by span name (traced run).
    pub self_time: Vec<(&'static str, f64)>,
    pub spans_dropped: u64,
    pub setup_s: Vec<f64>,
    pub reopen_s: Vec<f64>,
    pub gc_runs: usize,
    pub checkpoints: usize,
}

impl RunResult {
    pub fn valid(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Opens an empty database in `dir`, loads the graph, checkpoints.
fn set_up(dir: &Path, graph: &Graph) -> Result<(GraphDb, Vec<NodeId>, f64), String> {
    let started = Instant::now();
    let db = GraphDb::open(dir, DbConfig::default()).map_err(|e| format!("open: {e}"))?;
    let nodes = load(&db, graph).map_err(|e| format!("load: {e}"))?;
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok((db, nodes, started.elapsed().as_secs_f64()))
}

struct Phases {
    si: Phase,
    ledgers: Vec<Ledger>,
    frames: Vec<Frames>,
}

fn take_ledgers<E: Executor>(executors: &mut [E]) -> Vec<Ledger> {
    executors
        .iter_mut()
        .map(|e| std::mem::take(e.ledger()))
        .collect()
}

fn embedded_phases(
    cfg: &RunConfig,
    db: &GraphDb,
    stream: &OpStream<'_>,
    nodes: &[NodeId],
) -> Phases {
    let mut executors: Vec<Embedded<'_>> = (0..CLIENTS)
        .map(|_| Embedded::new(db.clone(), nodes))
        .collect();
    let si = run_phase(
        db,
        None,
        stream,
        &mut executors,
        cfg.pace,
        cfg.trace,
        &[0; CLIENTS],
    );
    Phases {
        si,
        ledgers: take_ledgers(&mut executors),
        frames: Vec::new(),
    }
}

/// The paper's comparison: the same op stream, continued at read
/// committed, on a database set up afresh exactly as the window's was.
/// Not on the window's own database: read committed loses updates (a
/// `transfer` reads, then writes), so the ledger the post-window checks
/// compare against would no longer hold.
fn read_committed_phase(
    cfg: &RunConfig,
    dir: &Path,
    graph: &Graph,
    stream: &OpStream<'_>,
    si: &Phase,
) -> Result<Phase, String> {
    let (db, nodes, _) = set_up(dir, graph).map_err(|e| format!("read-committed set-up: {e}"))?;
    let mut executors: Vec<Embedded<'_>> = (0..CLIENTS)
        .map(|_| Embedded::new(db.clone(), &nodes))
        .collect();
    for e in &mut executors {
        e.read_committed = true;
    }
    let resume: Vec<u64> = si.threads.iter().map(|t| t.next_index).collect();
    Ok(run_phase(
        &db,
        None,
        stream,
        &mut executors,
        cfg.pace,
        cfg.trace,
        &resume,
    ))
}

fn wire_phases(
    cfg: &RunConfig,
    db: &GraphDb,
    stream: &OpStream<'_>,
    nodes: &[NodeId],
) -> Result<Phases, String> {
    let mut server = Server::bind(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut executors = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        executors.push(Wire::new(client, nodes, cfg.trace));
    }
    let si = run_phase(
        db,
        Some(&server),
        stream,
        &mut executors,
        cfg.pace,
        cfg.trace,
        &[0; CLIENTS],
    );
    let ledgers = take_ledgers(&mut executors);
    let frames = executors
        .iter_mut()
        .filter_map(|e| e.frames.take())
        .collect();
    drop(executors); // closes the connections
    server.shutdown();
    Ok(Phases {
        si,
        ledgers,
        frames,
    })
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let graph = Graph::generate(cfg.seed, cfg.persons);
    let stream = OpStream::new(cfg.seed, cfg.workload.mix, &graph);
    let data =
        cfg.out_dir
            .join("data")
            .join(format!("{}-{}", cfg.workload.name, std::process::id()));
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", data.display());
    if data.exists() {
        std::fs::remove_dir_all(&data).map_err(|e| io("clearing", e))?;
    }
    std::fs::create_dir_all(&data).map_err(|e| io("creating", e))?;
    let result = run_in(cfg, &graph, &stream, &data);
    // Best effort: a failed run's data is of no use either.
    let _ = std::fs::remove_dir_all(&data);
    result
}

fn run_in(
    cfg: &RunConfig,
    graph: &Graph,
    stream: &OpStream<'_>,
    data: &Path,
) -> Result<RunResult, String> {
    // Set-up, several times over: the last one is the database the
    // workload runs on, the others are timed and thrown away.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = data.join(format!("db{i}"));
        let (db, nodes, secs) = set_up(&dir, graph).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(secs);
        if i + 1 == SETUPS {
            kept = Some((db, nodes, dir));
        } else {
            drop(db);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("removing a set-up: {e}"))?;
        }
    }
    let (db, nodes, dir) = kept.expect("SETUPS > 0");

    let phases = if cfg.workload.wire {
        wire_phases(cfg, &db, stream, &nodes)?
    } else {
        embedded_phases(cfg, &db, stream, &nodes)
    };
    let Phases {
        si,
        ledgers,
        frames,
    } = phases;

    let post = post_window(
        db,
        &dir,
        &data.join("crash-image"),
        graph,
        &nodes,
        &ledgers,
        REOPENS,
    )?;
    let rc = (cfg.trace && cfg.workload.name == "social_read")
        .then(|| read_committed_phase(cfg, &data.join("db-rc"), graph, stream, &si))
        .transpose()?;
    let e2e = end_to_end(&si, median(&setup_s).unwrap_or(0.0), &post);
    let checks = all_checks(&si, rc.as_ref(), &ledgers, &post);

    let spans: Vec<&[Span]> = si.threads.iter().map(|t| t.spans.as_slice()).collect();
    let mut self_time = Vec::new();
    let mut layers = None;
    if cfg.trace {
        write_jsonl(
            &cfg.out_dir
                .join(format!("trace-{}.jsonl", cfg.workload.name)),
            &spans,
        )
        .map_err(|e| format!("writing the span file: {e}"))?;
        let by_name = self_time_by_name(&spans, si.window.0, si.window.1);
        let total: u64 = by_name.iter().map(|(_, ns)| ns).sum();
        self_time = by_name
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / total.max(1) as f64))
            .collect();

        let store_copy = data.join("store-copy");
        let scratch = data.join("probe-scratch");
        copy_dir(&dir, &store_copy).map_err(|e| format!("copying the store: {e}"))?;
        std::fs::create_dir_all(&scratch).map_err(|e| format!("probe scratch: {e}"))?;
        let (chains, versions) = (
            si.after.nodes.chains + si.after.rels.chains,
            si.after.nodes.versions + si.after.rels.versions,
        );
        let probes = probes::run(&ProbeInput {
            graph,
            nodes: &nodes,
            scores: &post.scores,
            transfers: si.committed(|k| k == Kind::Transfer),
            versions_per_chain: versions as f64 / chains.max(1) as f64,
            chains,
            wal_payload_bytes: (si.wal_bytes() / si.committed(Kind::is_write).max(1) as f64)
                as usize,
            store_copy: &store_copy,
            scratch: &scratch,
            frames: &frames,
            seed: cfg.seed,
        })?;
        layers = Some(per_layer(&si, &post, &probes, rc.as_ref()));
    }

    let maintenance = |gc: bool| {
        si.window_maintenance()
            .filter(|m| m.gc.is_some() == gc)
            .count()
    };
    Ok(RunResult {
        end_to_end: e2e,
        per_layer: layers,
        checks,
        crash_recovery: post.crash_recovery.clone(),
        self_time,
        spans_dropped: si.threads.iter().map(|t| t.spans_dropped).sum(),
        setup_s,
        reopen_s: post.reopen_s.clone(),
        gc_runs: maintenance(true),
        checkpoints: maintenance(false),
    })
}

fn all_checks(si: &Phase, rc: Option<&Phase>, ledgers: &[Ledger], post: &PostWindow) -> Vec<Check> {
    let mut checks = Vec::new();
    let failures: u64 = ledgers.iter().map(|l| l.check_failures).sum();
    let messages: Vec<&str> = ledgers
        .iter()
        .flat_map(|l| l.check_messages.iter().map(String::as_str))
        .collect();
    checks.push(Check::new(
        "transaction_results",
        failures == 0,
        if failures == 0 {
            "every audit sum, fof exclusion and feed order held".to_owned()
        } else {
            format!("{failures} failed: {}", messages.join("; "))
        },
    ));
    // Conflict aborts are retried; anything else that went wrong — an
    // error frame on the wire, a failed checkpoint — fails the run.
    let phases = std::iter::once(si).chain(rc);
    let (count, first): (u64, Vec<&str>) =
        phases
            .flat_map(|p| &p.threads)
            .fold((0, Vec::new()), |(n, mut msgs), t| {
                msgs.extend(t.unexpected.iter().map(String::as_str));
                (n + t.unexpected_count, msgs)
            });
    checks.push(Check::new(
        "no_unexpected_errors",
        count == 0,
        if count == 0 {
            "no error other than conflict aborts".to_owned()
        } else {
            format!("{count} errors: {}", first.join("; "))
        },
    ));
    let shared = si.after.locks.shared_acquired - si.before.locks.shared_acquired;
    checks.push(Check::new(
        "no_shared_locks",
        shared == 0,
        format!("{shared} shared locks taken in the snapshot-isolation window"),
    ));
    let bad_pages = si.after.db.page_checksum_failures;
    checks.push(Check::new(
        "no_checksum_failures",
        bad_pages == 0,
        format!("{bad_pages} pages failed their checksum"),
    ));
    checks.extend(post.checks.iter().cloned());
    checks
}
