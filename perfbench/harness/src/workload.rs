//! Seeded inputs: the world, the request schedule and the mutation
//! script. Everything here is a pure function of the workload and the
//! seed, so two runs with one seed send byte-identical traffic.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use kor::data::{generate_traffic, generate_world, GenConfig, Snapshot, TrafficConfig};
use kor::graph::{EdgeMutation, Graph, KeywordId, MutationKind, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid side: 64 × 64 = 4096 nodes, 16128 directed edges.
pub const GRID: usize = 64;
/// Keyword vocabulary size.
pub const VOCAB: usize = 50;
/// Popular-target pool of `hot-targets`: well inside the engine's
/// 128-entry pre-processing cache.
pub const HOT_POOL: usize = 32;
/// `kor gen`'s default budget tightness: Δ = 1.5 × the shortest
/// budget distance from source to target.
pub const TIGHTNESS: f64 = 1.5;
/// Mutation batches sent after each reference stretch, so every
/// workload reports the write path.
pub const PROBE_BATCHES: usize = 40;
/// Spacing of those probe batches, in seconds.
pub const PROBE_GAP_S: f64 = 0.025;

/// One traffic mix.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Targets from a [`HOT_POOL`]-node pool per server (else uniform).
    pub hot_targets: bool,
    /// Fixed absolute rates for `max_ok_qps`, ascending.
    pub ladder_qps: &'static [f64],
}

/// Open-loop rate the gated latencies are taken at: about a tenth of
/// what the two server workers can serve, so a query's latency is its
/// own and not a queue's.
pub const REFERENCE_QPS: f64 = 25.0;
/// p99 limit a ladder rate must meet, in milliseconds.
pub const P99_LIMIT_MS: f64 = 100.0;

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "hot-targets",
        hot_targets: true,
        ladder_qps: &[100.0, 150.0, 200.0],
    },
    Spec {
        name: "diverse-targets",
        hot_targets: false,
        ladder_qps: &[60.0, 90.0, 120.0],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The algorithm mix every workload draws from (exact is the oracle's
/// business, not traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    OsScaling,
    BucketBound,
    OsScalingK3,
    Greedy,
}

impl Algo {
    pub const ALL: [Algo; 4] = [
        Algo::OsScaling,
        Algo::BucketBound,
        Algo::OsScalingK3,
        Algo::Greedy,
    ];

    /// Metric-name spelling.
    pub fn label(self) -> &'static str {
        match self {
            Algo::OsScaling => "os-scaling",
            Algo::BucketBound => "bucket-bound",
            Algo::OsScalingK3 => "os-scaling-k3",
            Algo::Greedy => "greedy",
        }
    }

    /// Wire `algo` value and `k`.
    pub fn wire(self) -> (&'static str, usize) {
        match self {
            Algo::OsScaling => ("os-scaling", 1),
            Algo::BucketBound => ("bucket-bound", 1),
            Algo::OsScalingK3 => ("os-scaling", 3),
            Algo::Greedy => ("greedy", 1),
        }
    }

    /// os-scaling 50%, bucket-bound 25%, os-scaling k=3 10%, greedy 15%.
    fn draw(rng: &mut StdRng) -> Algo {
        match rng.gen_range(0..100u32) {
            0..=49 => Algo::OsScaling,
            50..=74 => Algo::BucketBound,
            75..=84 => Algo::OsScalingK3,
            _ => Algo::Greedy,
        }
    }
}

/// One KOR query as sent on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub from: u32,
    pub to: u32,
    pub keywords: Vec<String>,
    pub budget: f64,
    pub algo: Algo,
}

impl Query {
    /// The request line (no newline), tagged with `id`.
    pub fn line(&self, id: &str) -> String {
        let (algo, k) = self.algo.wire();
        let kws: Vec<String> = self.keywords.iter().map(|k| format!("\"{k}\"")).collect();
        let k = if k > 1 {
            format!(",\"k\":{k}")
        } else {
            String::new()
        };
        format!(
            "{{\"id\":\"{id}\",\"method\":\"query\",\"params\":{{\"from\":{},\"to\":{},\"keywords\":[{}],\"budget\":{},\"algo\":\"{algo}\"{k}}}}}",
            self.from,
            self.to,
            kws.join(","),
            self.budget
        )
    }
}

/// The `update_edges` request line for one batch.
pub fn update_line(id: &str, batch: &[EdgeMutation]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|m| {
            let (op, weights) = match m.kind {
                MutationKind::Close => ("close", String::new()),
                MutationKind::Reopen { objective, budget } => (
                    "reopen",
                    format!(",\"objective\":{objective},\"budget\":{budget}"),
                ),
                MutationKind::Scale { objective, budget } => (
                    "scale",
                    format!(",\"objective\":{objective},\"budget\":{budget}"),
                ),
            };
            format!(
                "{{\"from\":{},\"to\":{},\"op\":\"{op}\"{weights}}}",
                m.from.0, m.to.0
            )
        })
        .collect();
    format!(
        "{{\"id\":\"{id}\",\"method\":\"update_edges\",\"params\":{{\"mutations\":[{}]}}}}",
        items.join(",")
    )
}

/// What one scheduled event sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into [`Plan::queries`].
    Read(usize),
    /// Index into [`Plan::script`].
    Update(usize),
}

/// One scheduled send, `at` seconds after the phase starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub at: f64,
    pub op: Op,
}

/// A timed stretch of open-loop traffic at one offered rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub name: String,
    pub rate: f64,
    pub seconds: f64,
    pub events: Vec<Event>,
}

impl Phase {
    pub fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.events.iter().filter_map(|e| match e.op {
            Op::Read(i) => Some(i),
            Op::Update(_) => None,
        })
    }
}

/// Everything one run sends, derived from (workload, seed, seconds).
#[derive(Debug)]
pub struct Plan {
    pub world: Snapshot,
    /// Every query of the run; index 0 is the set-up probe each server
    /// start answers first.
    pub queries: Vec<Query>,
    /// Mutation batches in the order a fresh server must apply them.
    pub script: Vec<Vec<EdgeMutation>>,
    /// The reference rate in [`CHUNKS`] stretches, each against its own
    /// server, so a run samples the host at several moments.
    pub reference: Vec<Phase>,
    pub ladder: Vec<Phase>,
    /// Untimed reads that fill a server's caches before its timed
    /// traffic, one list per server: each reference stretch, then the
    /// ladder. One read per popular target (none for uniform targets).
    pub warmup: Vec<Vec<usize>>,
    /// Batches sent after each reference stretch.
    pub probe: Phase,
}

/// Reference stretches per run.
pub const CHUNKS: usize = 3;

/// The world for `seed`: shared by every workload run with that seed.
pub fn world(seed: u64) -> Snapshot {
    let mut config = GenConfig::grid(GRID, GRID, seed);
    config.vocab_size = VOCAB;
    config.keyword_counts = Vec::new();
    config.queries_per_set = 0;
    generate_world(&config)
}

/// Mixes the workload name into the seed, so workloads sharing a seed
/// still draw independent streams.
fn stream_seed(seed: u64, name: &str) -> u64 {
    name.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Share of `seconds` spent at the reference rate; the rest is split
/// evenly over the ladder steps.
const REFERENCE_SHARE: f64 = 0.8;

/// Draws phases of reads from the query stream at Poisson times.
struct PhaseGen<'g> {
    queries: QueryGen<'g>,
    arrivals: StdRng,
}

impl PhaseGen<'_> {
    fn phase(&mut self, name: String, rate: f64, secs: f64) -> Phase {
        let events = poisson(&mut self.arrivals, rate, secs)
            .into_iter()
            .map(|at| Event {
                at,
                op: Op::Read(self.queries.push()),
            })
            .collect();
        Phase {
            name,
            rate,
            seconds: secs,
            events,
        }
    }
}

impl Plan {
    pub fn new(spec: &'static Spec, seed: u64, seconds: f64) -> Plan {
        let world = world(seed);
        let base = stream_seed(seed, spec.name);
        let mut gen = PhaseGen {
            queries: QueryGen::new(&world.graph, spec.hot_targets, base),
            arrivals: StdRng::seed_from_u64(base ^ 0x5eed_a441),
        };
        let first = gen.queries.setup_query();
        let chunk_secs = seconds * REFERENCE_SHARE / CHUNKS as f64;
        let step_secs = seconds * (1.0 - REFERENCE_SHARE) / spec.ladder_qps.len() as f64;

        // Every server draws its own popular pool: each one's working
        // set fits the cache, and a run averages over several pools.
        let mut warmup = Vec::new();
        let mut reference = Vec::new();
        for c in 0..CHUNKS {
            warmup.push(gen.queries.new_pool());
            reference.push(gen.phase(format!("reference-{c}"), REFERENCE_QPS, chunk_secs));
        }
        warmup.push(gen.queries.new_pool());
        let ladder: Vec<Phase> = spec
            .ladder_qps
            .iter()
            .map(|&r| gen.phase(format!("ladder-{r}"), r, step_secs))
            .collect();
        // Batch `k` is the `k`-th a server applies, from epoch 0.
        let probe = Phase {
            name: "probe".into(),
            rate: 0.0,
            seconds: PROBE_BATCHES as f64 * PROBE_GAP_S,
            events: (0..PROBE_BATCHES)
                .map(|k| Event {
                    at: (k as f64 + 0.5) * PROBE_GAP_S,
                    op: Op::Update(k),
                })
                .collect(),
        };
        let mut queries = vec![first];
        queries.append(&mut gen.queries.drawn);
        let script = generate_traffic(
            &world.graph,
            &TrafficConfig {
                phases: PROBE_BATCHES,
                ..TrafficConfig::base(base ^ 0x7aff1c)
            },
        );
        Plan {
            world,
            queries,
            script,
            reference,
            ladder,
            warmup,
            probe,
        }
    }
}

/// Poisson arrival offsets in `[0, secs)` at `rate` per second.
fn poisson(rng: &mut StdRng, rate: f64, secs: f64) -> Vec<f64> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// Draws queries: Zipf-weighted keywords (the world's tags are Zipf,
/// so document frequency is the weight), 2–4 per query, and budgets by
/// the tightness rule.
struct QueryGen<'g> {
    graph: &'g Graph,
    rng: StdRng,
    hot: bool,
    /// Hot-targets: the current popular pool.
    pool: Option<Vec<NodeId>>,
    keywords: Vec<(String, f64)>,
    /// Budget distances to each pooled target, computed once.
    to_target: HashMap<NodeId, Vec<f64>>,
    /// Queries drawn after the first, in order.
    drawn: Vec<Query>,
}

impl<'g> QueryGen<'g> {
    fn new(graph: &'g Graph, hot: bool, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        let mut df = vec![0usize; graph.vocab().len()];
        for (_, t) in graph.keyword_postings() {
            df[t.index()] += 1;
        }
        let mut acc = 0.0;
        let keywords = df
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                acc += c as f64;
                let term = graph
                    .vocab()
                    .resolve(KeywordId(i as u32))
                    .expect("interned keyword");
                (term.to_string(), acc)
            })
            .collect();
        QueryGen {
            graph,
            rng,
            hot,
            pool: None,
            keywords,
            to_target: HashMap::new(),
            drawn: Vec::new(),
        }
    }

    fn push(&mut self) -> usize {
        let q = self.next_query();
        self.drawn.push(q);
        // Index in `Plan::queries`, where the set-up probe is entry 0.
        self.drawn.len()
    }

    /// Hot-targets: draws the next server's popular pool, one target
    /// per cell of an 8 × 4 partition of the grid (a search's cost
    /// depends on where its target sits; stratifying keeps a pool from
    /// being all corners). Returns one query per target, for the
    /// untimed warm-up; none for uniform targets.
    fn new_pool(&mut self) -> Vec<usize> {
        if !self.hot {
            return Vec::new();
        }
        let (cols, rows) = (8, HOT_POOL / 8);
        let (cw, rh) = (GRID / cols, GRID / rows);
        let pool: Vec<NodeId> = (0..HOT_POOL)
            .map(|c| {
                let x = (c % cols) * cw + self.rng.gen_range(0..cw);
                let y = (c / cols) * rh + self.rng.gen_range(0..rh);
                NodeId((y * GRID + x) as u32)
            })
            .collect();
        self.pool = Some(pool.clone());
        pool.into_iter()
            .map(|t| {
                let q = self.query_to(t);
                self.drawn.push(q);
                self.drawn.len()
            })
            .collect()
    }

    /// The query every server start answers first: cheap to search
    /// (two keywords, no slack in the budget), so `setup_s` times the
    /// set-up rather than one search.
    fn setup_query(&mut self) -> Query {
        let mut q = self.next_query();
        q.keywords.truncate(2);
        q.budget /= TIGHTNESS;
        q.algo = Algo::OsScaling;
        q
    }

    fn next_query(&mut self) -> Query {
        let n = self.graph.node_count() as u32;
        let to = match &self.pool {
            Some(pool) => pool[self.rng.gen_range(0..pool.len())],
            None => NodeId(self.rng.gen_range(0..n)),
        };
        self.query_to(to)
    }

    fn query_to(&mut self, to: NodeId) -> Query {
        let n = self.graph.node_count() as u32;
        let from = loop {
            let v = NodeId(self.rng.gen_range(0..n));
            if v != to {
                break v;
            }
        };
        let m = self.rng.gen_range(2..=4usize).min(self.keywords.len());
        let total = self.keywords.last().map_or(0.0, |k| k.1);
        let mut keywords: Vec<String> = Vec::with_capacity(m);
        while keywords.len() < m {
            let x = self.rng.gen_range(0.0..total);
            let i = self.keywords.partition_point(|k| k.1 <= x);
            let term = &self.keywords[i.min(self.keywords.len() - 1)].0;
            if !keywords.contains(term) {
                keywords.push(term.clone());
            }
        }
        let distance = match self.pool {
            Some(_) => {
                let graph = self.graph;
                self.to_target
                    .entry(to)
                    .or_insert_with(|| budget_distances_to(graph, to))[from.index()]
            }
            None => budget_distances_to(self.graph, to)[from.index()],
        };
        let algo = Algo::draw(&mut self.rng);
        Query {
            from: from.0,
            to: to.0,
            keywords,
            budget: TIGHTNESS * distance,
            algo,
        }
    }
}

/// Shortest budget distance from every node to `target` (backward
/// Dijkstra; gen worlds are strongly connected).
fn budget_distances_to(graph: &Graph, target: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[target.index()] = 0.0;
    heap.push(Reverse((0, target.0)));
    while let Some(Reverse((bits, v))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[v as usize] {
            continue;
        }
        for e in graph.in_edges(NodeId(v)) {
            let nd = d + e.budget;
            if nd < dist[e.node.index()] {
                dist[e.node.index()] = nd;
                heap.push(Reverse((nd.to_bits(), e.node.0)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor::data::snapshot_to_bytes;

    /// Everything the benchmark sends for one (workload, seed), as bytes.
    fn inputs(name: &str, seed: u64) -> (Vec<u8>, Vec<String>, Vec<String>) {
        let plan = Plan::new(spec(name).unwrap(), seed, 4.0);
        let world = snapshot_to_bytes(&plan.world);
        let mut schedule = Vec::new();
        for phase in plan
            .reference
            .iter()
            .chain(&plan.ladder)
            .chain(std::iter::once(&plan.probe))
        {
            for e in &phase.events {
                let line = match e.op {
                    Op::Read(i) => plan.queries[i].line(&format!("q{i}")),
                    Op::Update(b) => format!("u{b}"),
                };
                schedule.push(format!("{} {} {}", phase.name, e.at.to_bits(), line));
            }
        }
        let script = plan
            .script
            .iter()
            .enumerate()
            .map(|(b, batch)| update_line(&format!("u{b}"), batch))
            .collect();
        (world, schedule, script)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for spec in &WORKLOADS {
            let a = inputs(spec.name, 11);
            let b = inputs(spec.name, 11);
            assert!(a.0 == b.0, "{}: world bytes differ", spec.name);
            assert_eq!(a.1, b.1, "{}: schedule differs", spec.name);
            assert_eq!(a.2, b.2, "{}: mutation script differs", spec.name);
            assert!(!a.1.is_empty(), "{}: empty schedule", spec.name);
            assert!(!a.2.is_empty(), "{}: empty script", spec.name);

            let c = inputs(spec.name, 12);
            assert!(a.0 != c.0, "{}: world ignores the seed", spec.name);
            assert_ne!(a.1, c.1, "{}: schedule ignores the seed", spec.name);
            assert_ne!(a.2, c.2, "{}: script ignores the seed", spec.name);
        }
    }

    #[test]
    fn workloads_draw_their_stated_targets() {
        let hot = Plan::new(spec("hot-targets").unwrap(), 5, 8.0);
        let diverse = Plan::new(spec("diverse-targets").unwrap(), 5, 8.0);
        let distinct = |p: &Plan, reads: &mut dyn Iterator<Item = usize>| {
            let mut t: Vec<u32> = reads.map(|i| p.queries[i].to).collect();
            t.sort_unstable();
            t.dedup();
            t.len()
        };
        // Each server's reads stay inside its own warmed pool.
        for (c, phase) in hot.reference.iter().enumerate() {
            let pool = distinct(&hot, &mut hot.warmup[c].iter().copied());
            assert_eq!(pool, HOT_POOL);
            let mut both = hot.warmup[c].iter().copied().chain(phase.reads());
            assert_eq!(distinct(&hot, &mut both), HOT_POOL);
        }
        let all = distinct(&diverse, &mut (1..diverse.queries.len()));
        assert!(all > 4 * HOT_POOL);
        assert!(diverse.warmup.iter().all(Vec::is_empty));
        for q in hot.queries.iter().chain(&diverse.queries) {
            assert!((2..=4).contains(&q.keywords.len()));
            assert!(q.budget.is_finite() && q.budget > 0.0);
        }
    }
}
