//! Layer probes: direct, timed calls into one lower crate's public
//! functions, on inputs shaped by the workload that just ran (its final
//! scores, its chain-length mix, its commit-record size, its frames, a copy
//! of its store). They give each layer a cost that owes nothing to the
//! layers above it. Run only on the traced run, after the window.

use std::hint::black_box;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use graphsi_core::{CommitOp, CommitRecord};
use graphsi_index::NodePropertyIndex;
use graphsi_mvcc::VersionedCache;
use graphsi_server::{Request, Response};
use graphsi_storage::{
    GraphStore, GraphStoreConfig, LabelToken, NodeId, PropertyKeyToken, PropertyValue,
};
use graphsi_txn::{LockKey, LockManager, Timestamp, TxnId};
use graphsi_wal::{SegmentedWal, SyncPolicy};

use crate::gen::{Graph, Rng, Zipf, ZIPF_THETA};
use crate::stats::{median, percentile_sorted};
use crate::wire::Frames;

/// What the window left behind for the probes to shape their inputs by.
pub struct ProbeInput<'a> {
    pub graph: &'a Graph,
    /// uid → node id.
    pub nodes: &'a [NodeId],
    /// uid → score once the window closed.
    pub scores: &'a [i64],
    /// Committed transfers in the window (each moves two index postings).
    pub transfers: u64,
    /// Live versions per live chain in the MVCC caches at window end.
    pub versions_per_chain: f64,
    pub chains: u64,
    /// Mean WAL bytes one write transaction appended.
    pub wal_payload_bytes: usize,
    /// A copy of the store directory, taken after the final checkpoint.
    pub store_copy: &'a Path,
    /// An empty directory for the WAL probe.
    pub scratch: &'a Path,
    /// Frames the wire connections exchanged (wire workload only).
    pub frames: &'a [Frames],
    pub seed: u64,
}

#[derive(Default)]
pub struct Probes {
    pub values: Vec<(&'static str, f64)>,
}

/// Mean ns of `f` over `iters` calls.
fn mean_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

pub fn run(input: &ProbeInput<'_>) -> Result<Probes, String> {
    let mut p = Probes::default();
    codec(input, &mut p);
    commit_encode(input, &mut p);
    mvcc(input, &mut p);
    index(input, &mut p);
    locks(&mut p);
    wal(input, &mut p).map_err(|e| format!("wal probe: {e}"))?;
    storage(input, &mut p).map_err(|e| format!("storage probe: {e}"))?;
    Ok(p)
}

/// `Request`/`Response` `encode`/`decode` over the recorded frame mix.
fn codec(input: &ProbeInput<'_>, p: &mut Probes) {
    let requests: Vec<&Request> = input.frames.iter().flat_map(|f| &f.requests).collect();
    let responses: Vec<&Response> = input.frames.iter().flat_map(|f| &f.responses).collect();
    if requests.is_empty() {
        p.values
            .extend([("server.encode_ns", 0.0), ("server.decode_ns", 0.0)]);
        return;
    }
    let frames = (requests.len() + responses.len()) as f64;
    let rounds = 20;
    let started = Instant::now();
    let mut encoded = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        encoded.0 = requests.iter().map(|r| black_box(r).encode()).collect();
        encoded.1 = responses.iter().map(|r| black_box(r).encode()).collect();
    }
    let encode_ns = started.elapsed().as_nanos() as f64 / (frames * f64::from(rounds));
    let started = Instant::now();
    for _ in 0..rounds {
        for bytes in &encoded.0 {
            black_box(Request::decode(black_box(bytes)).is_ok());
        }
        for bytes in &encoded.1 {
            black_box(Response::decode(black_box(bytes)).is_ok());
        }
    }
    let decode_ns = started.elapsed().as_nanos() as f64 / (frames * f64::from(rounds));
    p.values.extend([
        ("server.encode_ns", encode_ns),
        ("server.decode_ns", decode_ns),
    ]);
}

/// `CommitRecord::encode` of a `transfer`: two node updates, each with
/// the Person label and its three properties plus the commit timestamp.
fn commit_encode(input: &ProbeInput<'_>, p: &mut Probes) {
    let update = |uid: u32| CommitOp::UpdateNode {
        id: input.nodes[uid as usize],
        labels: vec![LabelToken(0)],
        properties: vec![
            (PropertyKeyToken(0), PropertyValue::Int(1_000)),
            (PropertyKeyToken(1), PropertyValue::Int(i64::from(uid))),
            (
                PropertyKeyToken(2),
                PropertyValue::Int(input.scores[uid as usize]),
            ),
            (PropertyKeyToken(3), PropertyValue::Int(i64::from(uid) % 64)),
        ],
    };
    let record = CommitRecord {
        commit_ts: Timestamp(1_000),
        ops: vec![update(input.graph.hot[0]), update(input.graph.hot[1])],
    };
    let ns = mean_ns(50_000, |_| {
        black_box(black_box(&record).encode().is_ok());
    });
    p.values.push(("core.encode_ns", ns));
}

/// `VersionedCache::read` / `install_committed` over as many chains as
/// the workload left live, at its mean chain length, zipf-chosen keys.
fn mvcc(input: &ProbeInput<'_>, p: &mut Probes) {
    let chains = input.chains.clamp(1_000, 100_000);
    let cache: VersionedCache<u64, i64> = VersionedCache::new(16);
    let mut rng = Rng::for_cell(input.seed, u64::MAX - 1, 0);
    let mut ts = 0u64;
    for key in 0..chains {
        cache.ensure_base(key, Timestamp::BOOTSTRAP, Arc::new(0));
    }
    let extra = ((input.versions_per_chain - 1.0).max(0.0) * chains as f64) as u64;
    for _ in 0..extra {
        ts += 1;
        cache.install_committed(rng.below(chains), Timestamp(ts), Some(Arc::new(ts as i64)));
    }
    let zipf = Zipf::new(chains as usize, ZIPF_THETA);
    let keys: Vec<u64> = (0..4096).map(|_| zipf.rank(&mut rng) as u64).collect();
    let read_at = Timestamp(ts);
    let read_ns = mean_ns(400_000, |i| {
        black_box(cache.read(keys[i as usize % keys.len()], read_at));
    });
    let payload = Arc::new(7i64);
    let install_ns = mean_ns(100_000, |i| {
        cache.install_committed(
            keys[i as usize % keys.len()],
            Timestamp(ts + 1 + i),
            Some(Arc::clone(&payload)),
        );
    });
    p.values
        .extend([("mvcc.read_ns", read_ns), ("mvcc.install_ns", install_ns)]);
}

/// `PropertyIndex` over the final `score` postings, churned by as many
/// value changes as the window's transfers made.
fn index(input: &ProbeInput<'_>, p: &mut Probes) {
    let key = PropertyKeyToken(2);
    let index = NodePropertyIndex::new();
    let mut scores = input.scores.to_vec();
    for (uid, score) in scores.iter().enumerate() {
        index.add(
            key,
            &PropertyValue::Int(*score),
            input.nodes[uid],
            Timestamp(1),
        );
    }
    let mut rng = Rng::for_cell(input.seed, u64::MAX - 2, 0);
    let zipf = Zipf::new(scores.len(), ZIPF_THETA);
    let churn = (input.transfers * 2).clamp(2_000, 200_000);
    let mut ts = 1u64;
    let mut add_ns = 0u128;
    for _ in 0..churn {
        let uid = input.graph.hot[zipf.rank(&mut rng)] as usize;
        let (old, new) = (scores[uid], scores[uid] + rng.below(21) as i64 - 10);
        ts += 1;
        index.remove(
            key,
            &PropertyValue::Int(old),
            input.nodes[uid],
            Timestamp(ts),
        );
        let started = Instant::now();
        index.add(
            key,
            &PropertyValue::Int(new),
            input.nodes[uid],
            Timestamp(ts),
        );
        add_ns += started.elapsed().as_nanos();
        scores[uid] = new;
    }
    let now = Timestamp(ts);
    let lookup_ns = mean_ns(50_000, |i| {
        let value = PropertyValue::Int(scores[i as usize % scores.len()]);
        let mut hits = 0u32;
        index.lookup_with(key, black_box(&value), now, |_| hits += 1);
        black_box(hits);
    });

    let started = Instant::now();
    let (mut postings, rounds) = (0u64, 20);
    let mut buf = Vec::new();
    for _ in 0..rounds {
        let mut cursor = index.range_cursor(key, Bound::Unbounded, Bound::Unbounded, now, 256);
        while cursor.next_chunk(&mut buf) {
            postings += buf.len() as u64;
        }
    }
    let range_ns = started.elapsed().as_nanos() as f64 / postings.max(1) as f64;

    let stats = index.stats();
    let dead_ratio = stats.dead_postings as f64 / stats.postings.max(1) as f64;
    let started = Instant::now();
    let reclaimed = index.gc(now);
    let gc_ns = started.elapsed().as_nanos() as f64 / reclaimed.max(1) as f64;
    p.values.extend([
        ("index.add_ns", add_ns as f64 / churn as f64),
        ("index.lookup_ns", lookup_ns),
        ("index.range_ns_per_posting", range_ns),
        ("index.gc_ns_per_posting", gc_ns),
        ("index.dead_posting_ratio", dead_ratio),
    ]);
}

/// What a `transfer` asks of the lock manager: two `try_exclusive` and
/// one `release_all`.
fn locks(p: &mut Probes) {
    let manager = LockManager::with_default_timeout();
    let ns = mean_ns(200_000, |i| {
        let txn = TxnId(i + 1);
        black_box(manager.try_exclusive(LockKey::node(i % 4096), txn).is_ok());
        black_box(
            manager
                .try_exclusive(LockKey::node((i + 7) % 4096), txn)
                .is_ok(),
        );
        black_box(manager.release_all(txn));
    });
    p.values.push(("txn.lock_cycle_ns", ns));
}

/// `SegmentedWal::append` and `sync_appended`, one sync per append (the
/// group-commit leader's path with a batch of one), payloads the size the
/// workload's write transactions logged.
fn wal(input: &ProbeInput<'_>, p: &mut Probes) -> Result<(), graphsi_wal::WalError> {
    let wal = SegmentedWal::open(input.scratch.join("wal"), SyncPolicy::OnDemand, 16 << 20)?;
    let payload = vec![0xA5u8; input.wal_payload_bytes.clamp(32, 64 << 10)];
    let rounds = 300;
    let (mut appends, mut syncs) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for _ in 0..rounds {
        let t0 = Instant::now();
        wal.append(&payload)?;
        let t1 = Instant::now();
        wal.sync_appended()?;
        appends.push((t1 - t0).as_nanos() as f64);
        syncs.push(t1.elapsed().as_nanos() as u64);
    }
    syncs.sort_unstable();
    let us = |q: f64| percentile_sorted(&syncs, q).map_or(0.0, |ns| ns as f64 / 1e3);
    p.values.extend([
        ("wal.append_ns", median(&appends).unwrap_or(0.0)),
        ("wal.sync_p50_us", us(0.5)),
        ("wal.sync_p99_us", us(0.99)),
    ]);
    Ok(())
}

/// `GraphStore` on the copied directory: first-touch and repeated
/// `read_node`, relationship-chain walks of the hot persons, and a
/// `flush` after rewriting them.
fn storage(input: &ProbeInput<'_>, p: &mut Probes) -> Result<(), graphsi_storage::StorageError> {
    let store = GraphStore::open(input.store_copy, GraphStoreConfig::default())?;
    // One node per node-store page (127 records a page): each read faults
    // its node page in, and the property page behind it.
    let firsts: Vec<NodeId> = input.nodes.iter().copied().step_by(127).collect();
    let mut miss = Vec::with_capacity(firsts.len());
    for id in &firsts {
        let started = Instant::now();
        black_box(store.read_node(*id)?);
        miss.push(started.elapsed().as_nanos() as f64);
    }
    let mut failed = None;
    let hit_ns = mean_ns(firsts.len() as u64 * 200, |i| {
        if let Err(e) = store.read_node(firsts[i as usize % firsts.len()]) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }

    let hot: Vec<NodeId> = input.graph.hot[..input.graph.hot.len().min(2_000)]
        .iter()
        .map(|uid| input.nodes[*uid as usize])
        .collect();
    let (mut rels, mut buf) = (0u64, Vec::new());
    let started = Instant::now();
    for node in &hot {
        let mut cursor = store.rel_chain_cursor(*node, 256)?;
        while cursor.next_chunk(&mut buf)? {
            rels += buf.len() as u64;
        }
    }
    let chain_ns = started.elapsed().as_nanos() as f64 / rels.max(1) as f64;

    for node in hot.iter().take(500) {
        if let Some(stored) = store.read_node(*node)? {
            store.update_node(*node, &stored.labels, &stored.properties)?;
        }
    }
    let started = Instant::now();
    store.flush()?;
    let flush_ms = started.elapsed().as_secs_f64() * 1e3;
    p.values.extend([
        ("storage.read_node_hit_ns", hit_ns),
        ("storage.read_node_miss_ns", median(&miss).unwrap_or(0.0)),
        ("storage.rel_chain_ns_per_rel", chain_ns),
        ("storage.flush_ms", flush_ms),
    ]);
    Ok(())
}
