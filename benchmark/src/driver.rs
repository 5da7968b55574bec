//! The closed loop shared by the embedded and the wire workloads: two
//! client threads, each sending its next transaction only when the last
//! one returned, with thread 0 also running the maintenance the engine
//! leaves to its caller.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use graphsi_core::{DbMetricsSnapshot, GcSummary, GraphDb, LockStatsSnapshot, RelationshipId};
use graphsi_mvcc::CacheStatsSnapshot;
use graphsi_server::{Server, ServerMetricsSnapshot};
use graphsi_storage::GraphStoreStats;

use crate::gen::{Kind, Op, OpStream, FRIEND_FIFO};
use crate::trace::{self, Span, Tracer};

/// Client threads (embedded) or client connections (wire). The sandbox
/// has two cores; see the README's closed-loop statement.
pub const CLIENTS: usize = 2;

/// The clock of one phase. Maintenance is part of the load — an MVCC
/// store that never collects is not the system users run — so thread 0
/// calls `run_gc()` and `checkpoint()` between its transactions.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    /// Unreported; long enough for two GC cycles, so the window sees the
    /// post-GC steady state.
    pub warmup: Duration,
    pub window: Duration,
    pub gc_every: Duration,
    pub checkpoint_every: Duration,
}

impl Pace {
    pub fn standard(window: Duration) -> Pace {
        Pace {
            warmup: Duration::from_secs(5),
            window,
            gc_every: Duration::from_secs(2),
            checkpoint_every: Duration::from_secs(5),
        }
    }

    /// `--smoke`: everything happens, only sooner.
    pub fn smoke(window: Duration) -> Pace {
        Pace {
            warmup: Duration::from_secs(1),
            window,
            gc_every: Duration::from_millis(400),
            checkpoint_every: Duration::from_millis(900),
        }
    }
}

/// Why an attempt did not commit.
pub enum Fail {
    /// A conflict abort, or `OVERLOADED` on the wire: the client backs off
    /// and sends the transaction again.
    Aborted,
    /// Anything else: a failed operation *and* a failed output check.
    Unexpected(String),
}

/// A transaction that keeps aborting is given up — a failed operation —
/// after this many attempts. Between attempts the client sleeps
/// [`BACKOFF`] times the number of attempts so far.
pub const MAX_ATTEMPTS: u32 = 64;
const BACKOFF: Duration = Duration::from_micros(50);

pub trait Executor {
    /// Runs one transaction to commit, recording spans around every call
    /// it makes into the engine. An `unfriend` always finds a relationship
    /// in the ledger's FIFO: the loop turns it into a `befriend` otherwise.
    fn exec(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail>;
    fn ledger(&mut self) -> &mut Ledger;
}

/// What one client knows it was acknowledged, for the post-window checks.
#[derive(Default)]
pub struct Ledger {
    /// Net score every acknowledged `transfer` moved, per uid.
    pub delta: Vec<i64>,
    /// Relationships this client created and has not deleted, oldest
    /// first, with their endpoint uids.
    pub fifo: VecDeque<(RelationshipId, u32, u32)>,
    /// The last relationship this client was acknowledged deleting.
    pub last_deleted: Option<RelationshipId>,
    /// Output checks failed so far, and the first few messages.
    pub check_failures: u64,
    pub check_messages: Vec<String>,
}

impl Ledger {
    pub fn new(persons: usize) -> Ledger {
        Ledger {
            delta: vec![0; persons],
            ..Ledger::default()
        }
    }

    pub fn fail(&mut self, message: String) {
        self.check_failures += 1;
        if self.check_messages.len() < 5 {
            self.check_messages.push(message);
        }
    }
}

/// `befriend` and `unfriend` keep the graph its stated size: a client with
/// nothing to delete befriends, and one holding [`FRIEND_FIFO`] unfriends.
pub fn friend_kind(drawn: Kind, held: usize) -> Kind {
    match drawn {
        Kind::Unfriend if held == 0 => Kind::Befriend,
        Kind::Befriend if held >= FRIEND_FIFO => Kind::Unfriend,
        other => other,
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    pub ok: bool,
    /// Times the transaction was sent: 1 unless it met a conflict.
    pub attempts: u32,
    /// First attempt's begin to the acknowledged commit, back-off included.
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Maintenance {
    pub start_ns: u64,
    pub dur_ns: u64,
    /// `Some` for a GC run, `None` for a checkpoint.
    pub gc: Option<GcSummary>,
}

/// Every public counter snapshot the engine offers, taken together.
#[derive(Clone, Debug)]
pub struct Counters {
    pub db: DbMetricsSnapshot,
    pub store: GraphStoreStats,
    pub nodes: CacheStatsSnapshot,
    pub rels: CacheStatsSnapshot,
    pub locks: LockStatsSnapshot,
    pub server: Option<ServerMetricsSnapshot>,
}

impl Counters {
    pub fn take(db: &GraphDb, server: Option<&Server>) -> Counters {
        Counters {
            db: db.metrics(),
            store: db.store_stats(),
            nodes: db.node_cache_stats(),
            rels: db.relationship_cache_stats(),
            locks: db.lock_stats(),
            server: server.map(Server::metrics),
        }
    }
}

pub struct ThreadLog {
    pub samples: Vec<Sample>,
    pub maintenance: Vec<Maintenance>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    /// Index of the next op this thread would have run.
    pub next_index: u64,
    pub unexpected: Vec<String>,
    pub unexpected_count: u64,
}

pub struct Phase {
    pub threads: Vec<ThreadLog>,
    /// The measured window, in ns since the phase's epoch.
    pub window: (u64, u64),
    pub before: Counters,
    pub after: Counters,
    /// Largest `wal_retained_bytes` seen at a maintenance call or at
    /// either edge of the window.
    pub wal_retained_peak: u64,
    /// `VmHWM` of this process when the window closed, in MB.
    pub peak_rss_mb: f64,
}

impl Phase {
    pub fn window_secs(&self) -> f64 {
        (self.window.1 - self.window.0) as f64 / 1e9
    }

    pub fn in_window(&self, start_ns: u64) -> bool {
        (self.window.0..self.window.1).contains(&start_ns)
    }

    pub fn window_samples(&self) -> impl Iterator<Item = &Sample> {
        self.threads
            .iter()
            .flat_map(|t| &t.samples)
            .filter(|s| self.in_window(s.start_ns))
    }

    /// Transactions of the kinds `keep` accepts that committed in the window.
    pub fn committed(&self, keep: impl Fn(Kind) -> bool) -> u64 {
        self.window_samples()
            .filter(|s| s.ok && keep(s.kind))
            .count() as u64
    }

    /// WAL bytes appended over the window: growth of the retained log,
    /// plus whole segments the window's checkpoints released (none at the
    /// default 16 MiB segment size).
    pub fn wal_bytes(&self) -> f64 {
        let (b, a) = (&self.before.db, &self.after.db);
        a.wal_retained_bytes as f64 - b.wal_retained_bytes as f64
            + (a.wal_segments_deleted - b.wal_segments_deleted) as f64
                * graphsi_core::DbConfig::DEFAULT_WAL_SEGMENT_BYTES as f64
    }

    pub fn window_maintenance(&self) -> impl Iterator<Item = &Maintenance> {
        self.threads
            .iter()
            .flat_map(|t| &t.maintenance)
            .filter(|m| self.in_window(m.start_ns))
    }
}

/// `VmHWM` from `/proc/self/status`, in MB (0 where there is no procfs).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs warm-up then the measured window on [`CLIENTS`] threads.
/// `first_index[t]` is where thread `t` resumes its op stream.
pub fn run_phase<E: Executor + Send>(
    db: &GraphDb,
    server: Option<&Server>,
    stream: &OpStream<'_>,
    executors: &mut [E],
    pace: Pace,
    trace: bool,
    first_index: &[u64],
) -> Phase {
    assert_eq!(executors.len(), CLIENTS);
    let epoch = Instant::now();
    let window_start = epoch + pace.warmup;
    let end = window_start + pace.window;
    let since_epoch = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    // Room for 200,000 spans a second and thread — ten times what the
    // busiest workload writes; pages are only touched as spans are written.
    let span_capacity = ((pace.warmup + pace.window).as_secs() as usize + 1) * 200_000;

    let (threads, before, after, wal_retained_peak, rss) = std::thread::scope(|scope| {
        let handles: Vec<_> = executors
            .iter_mut()
            .enumerate()
            .map(|(t, exec)| {
                let mut index = first_index[t];
                scope.spawn(move || {
                    let mut tr = Tracer::new(trace, epoch, span_capacity);
                    let mut samples = Vec::with_capacity(1 << 20);
                    let mut maintenance = Vec::new();
                    let mut unexpected = Vec::new();
                    let mut unexpected_count = 0u64;
                    let mut retained_peak = 0u64;
                    let mut next_gc = epoch + pace.gc_every;
                    let mut next_ckpt = epoch + pace.checkpoint_every;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        if t == 0 && now >= next_gc {
                            let span = tr.root(trace::GC);
                            let summary = db.run_gc();
                            tr.end(span);
                            maintenance.push(Maintenance {
                                start_ns: since_epoch(now),
                                dur_ns: now.elapsed().as_nanos() as u64,
                                gc: Some(summary),
                            });
                            next_gc += pace.gc_every;
                            retained_peak = retained_peak.max(db.metrics().wal_retained_bytes);
                        }
                        if t == 0 && now >= next_ckpt {
                            retained_peak = retained_peak.max(db.metrics().wal_retained_bytes);
                            let started = Instant::now();
                            let span = tr.root(trace::CHECKPOINT);
                            let result = db.checkpoint();
                            tr.end(span);
                            maintenance.push(Maintenance {
                                start_ns: since_epoch(started),
                                dur_ns: started.elapsed().as_nanos() as u64,
                                gc: None,
                            });
                            if let Err(e) = result {
                                unexpected_count += 1;
                                unexpected.push(format!("checkpoint: {e}"));
                            }
                            next_ckpt += pace.checkpoint_every;
                        }
                        let mut op = stream.op(t as u64, index);
                        index += 1;
                        op.kind = friend_kind(op.kind, exec.ledger().fifo.len());
                        let started = Instant::now();
                        let mut attempts = 1;
                        let result = loop {
                            match exec.exec(&op, &mut tr) {
                                Err(Fail::Aborted) if attempts < MAX_ATTEMPTS => {
                                    std::thread::sleep(BACKOFF * attempts);
                                    attempts += 1;
                                }
                                other => break other,
                            }
                        };
                        let dur_ns = started.elapsed().as_nanos() as u64;
                        if let Err(Fail::Unexpected(message)) = &result {
                            unexpected_count += 1;
                            if unexpected.len() < 5 {
                                unexpected.push(format!("{}: {message}", op.kind.name()));
                            }
                        }
                        samples.push(Sample {
                            kind: op.kind,
                            ok: result.is_ok(),
                            attempts,
                            start_ns: since_epoch(started),
                            dur_ns,
                        });
                    }
                    let (spans, spans_dropped) = tr.finish();
                    let log = ThreadLog {
                        samples,
                        maintenance,
                        spans,
                        spans_dropped,
                        next_index: index,
                        unexpected,
                        unexpected_count,
                    };
                    (log, retained_peak)
                })
            })
            .collect();

        // This thread only sleeps to the window's edges to read counters.
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let before = Counters::take(db, server);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let after = Counters::take(db, server);
        let rss = peak_rss_mb();
        let mut peak = before
            .db
            .wal_retained_bytes
            .max(after.db.wal_retained_bytes);
        let threads: Vec<ThreadLog> = handles
            .into_iter()
            .map(|h| {
                let (log, retained) = h.join().expect("client thread panicked");
                peak = peak.max(retained);
                log
            })
            .collect();
        (threads, before, after, peak, rss)
    });

    Phase {
        threads,
        window: (since_epoch(window_start), since_epoch(end)),
        before,
        after,
        wal_retained_peak,
        peak_rss_mb: rss,
    }
}
