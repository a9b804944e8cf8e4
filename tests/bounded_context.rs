//! Budget-bounded query contexts answer exactly like unbounded ones.
//!
//! A label search with budget `Δ` builds its to-target `τ`/`σ` trees
//! only out to the `Δ`-ball around the target (see
//! `kor_apsp::QueryContext`). Every read outside the ball belongs to a
//! label Algorithm 1 line 10 discards either way, so the answers — and
//! every search counter except the cache ones — must be those of the
//! unbounded engine. On the 18 oracle worlds × 6 algorithms this battery
//! compares three engines query by query, each canned query also asked
//! with a budget too small to reach the target (its source outside the
//! ball):
//!
//! * **unbounded** — every target's complete context pre-warmed, so
//!   each search reads full trees;
//! * **warm bounded** — a fresh engine whose cache fills with bounded
//!   entries and grows them as later queries ask for larger radii;
//! * **cold bounded** — the cache-less free functions, building a
//!   bounded context per call.

use std::sync::Arc;

use kor::prelude::*;

const EPSILON: f64 = 0.5;
const BETA: f64 = 1.2;
const K: usize = 3;

/// Same worlds as `tests/gen_oracle.rs`: two topologies × 9 seeds.
fn worlds() -> Vec<GenConfig> {
    let mut configs = Vec::new();
    for seed in 0..9 {
        configs.push(GenConfig {
            vocab_size: 12,
            max_tags_per_node: 2,
            keyword_counts: vec![1, 2],
            queries_per_set: 4,
            budget_tightness: 1.5,
            ..GenConfig::grid(3, 4, seed)
        });
        configs.push(GenConfig {
            vocab_size: 12,
            max_tags_per_node: 2,
            keyword_counts: vec![1, 2],
            queries_per_set: 4,
            budget_tightness: 1.6,
            ..GenConfig::ring(10, 3, 1000 + seed)
        });
    }
    configs
}

/// A route reduced to its exact bits: node ids, OS bits, BS bits.
type RouteKey = (Vec<u32>, u64, u64);

fn key(r: &RouteResult) -> RouteKey {
    (
        r.route.nodes().iter().map(|n| n.0).collect(),
        r.objective.to_bits(),
        r.budget.to_bits(),
    )
}

/// The search counters with the cache-dependent ones zeroed.
fn search_counters(mut s: SearchStats) -> String {
    s.cache_hits = 0;
    s.cache_misses = 0;
    s.trees_built = 0;
    format!("{s:?}")
}

/// One answer: the routes' bits plus the non-cache search counters.
type Answer = (Vec<RouteKey>, Option<String>);

fn from_search(r: SearchResult) -> Answer {
    (
        r.route.iter().map(key).collect(),
        Some(search_counters(r.stats)),
    )
}

fn from_top_k(r: TopKResult) -> Answer {
    (
        r.routes.iter().map(key).collect(),
        Some(search_counters(r.stats)),
    )
}

const ALGOS: [&str; 6] = [
    "exact",
    "os-scaling",
    "bucket-bound",
    "top-k-os-scaling",
    "top-k-bucket-bound",
    "greedy",
];

fn run_engine(engine: &KorEngine<&Graph>, query: &KorQuery, algo: &str) -> Answer {
    let os = OsScalingParams::with_epsilon(EPSILON);
    let bb = BucketBoundParams::with(EPSILON, BETA);
    match algo {
        "exact" => from_search(engine.exact(query).unwrap()),
        "os-scaling" => from_search(engine.os_scaling(query, &os).unwrap()),
        "bucket-bound" => from_search(engine.bucket_bound(query, &bb).unwrap()),
        "top-k-os-scaling" => from_top_k(engine.top_k_os_scaling(query, &os, K).unwrap()),
        "top-k-bucket-bound" => from_top_k(engine.top_k_bucket_bound(query, &bb, K).unwrap()),
        "greedy" => (
            engine
                .greedy(query, &GreedyParams::default())
                .unwrap()
                .into_iter()
                .map(|g| {
                    (
                        g.route.nodes().iter().map(|n| n.0).collect(),
                        g.objective.to_bits(),
                        g.budget.to_bits(),
                    )
                })
                .collect(),
            None,
        ),
        other => unreachable!("unknown algo {other}"),
    }
}

/// The cache-less free functions: a bounded context built per call.
fn run_cold(graph: &Graph, index: &InvertedIndex, query: &KorQuery, algo: &str) -> Option<Answer> {
    let os = OsScalingParams::with_epsilon(EPSILON);
    let bb = BucketBoundParams::with(EPSILON, BETA);
    Some(match algo {
        "exact" => from_search(exact_labeling(graph, index, query).unwrap()),
        "os-scaling" => from_search(os_scaling(graph, index, query, &os).unwrap()),
        "bucket-bound" => from_search(bucket_bound(graph, index, query, &bb).unwrap()),
        "top-k-os-scaling" => from_top_k(top_k_os_scaling(graph, index, query, &os, K).unwrap()),
        "top-k-bucket-bound" => {
            from_top_k(top_k_bucket_bound(graph, index, query, &bb, K).unwrap())
        }
        _ => return None,
    })
}

#[test]
fn bounded_contexts_answer_like_unbounded_on_the_oracle_worlds() {
    let mut compared = 0usize;
    let mut bounded_builds = 0usize;
    let mut extends = 0u64;
    let mut outside_ball = 0usize;
    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        let index = InvertedIndex::build(graph);
        let unbounded = KorEngine::new(graph);
        for t in graph.nodes() {
            unbounded.preprocess_cache().context(graph, t);
        }
        let warm = KorEngine::new(graph);
        let label = format!("{} seed {}", config.topology.name(), config.seed);
        let queries = world.query_sets.iter().flat_map(|s| &s.queries);
        // Each canned query as generated, and again with half its
        // source's budget distance: a source outside the ball, which
        // must widen the context rather than end the search early.
        let queries = queries.flat_map(|c| {
            let sigma = QueryContext::new(graph, c.target).bs_sigma(c.source);
            [c.budget, 0.5 * sigma].map(|budget| {
                KorQuery::new(graph, c.source, c.target, c.keywords.clone(), budget)
                    .expect("canned queries are valid")
            })
        });
        for query in queries {
            let ctx = QueryContext::within(graph, query.target, query.budget, query.source);
            bounded_builds += usize::from(ctx.radius().is_finite());
            outside_ball += usize::from(
                query.budget < QueryContext::new(graph, query.target).bs_sigma(query.source),
            );
            for algo in ALGOS {
                let what = format!(
                    "{label}: {} -> {} Δ {} [{algo}]",
                    query.source, query.target, query.budget
                );
                let want = run_engine(&unbounded, &query, algo);
                assert_eq!(
                    run_engine(&warm, &query, algo),
                    want,
                    "{what}: warm bounded"
                );
                if let Some(cold) = run_cold(graph, &index, &query, algo) {
                    assert_eq!(cold, want, "{what}: cold bounded");
                }
                compared += 1;
            }
        }
        extends += warm.preprocess_stats().ctx_extends;
        // The unbounded engine never grew or built a context for a query.
        let full = unbounded.preprocess_stats();
        assert_eq!(
            (full.ctx_misses as usize, full.ctx_extends),
            (graph.node_count(), 0)
        );
    }
    assert_eq!(compared, 18 * 2 * 4 * 2 * ALGOS.len(), "sweep shrank");
    assert!(
        outside_ball >= 50,
        "only {outside_ball} sources outside the ball"
    );
    // Non-vacuity: many contexts really were cut at Δ, and warm entries
    // were grown in place (greedy, at least, asks for the full trees).
    assert!(
        bounded_builds >= 50,
        "only {bounded_builds} bounded contexts"
    );
    assert!(extends > 0, "no warm entry was ever extended");
}

/// On a larger world, a query whose source lies a few hops from its
/// target has a small ball: the bounded builds settle far fewer nodes
/// and still answer identically.
#[test]
fn bounded_builds_settle_less_and_answer_the_same() {
    let config = GenConfig {
        vocab_size: 20,
        keyword_counts: vec![2, 3],
        queries_per_set: 6,
        budget_tightness: 1.5,
        ..GenConfig::grid(24, 24, 7)
    };
    let world = generate_world(&config);
    let graph = Arc::new(world.graph);
    let bounded = KorEngine::new(Arc::clone(&graph));
    let unbounded = KorEngine::new(Arc::clone(&graph));
    // Without Optimization Strategy 2, which needs the full trees.
    let os = OsScalingParams {
        use_opt2: false,
        ..OsScalingParams::default()
    };
    for (i, canned) in world.query_sets.iter().flat_map(|s| &s.queries).enumerate() {
        // A source up to six hops upstream of the canned target, with
        // `kor gen`'s Δ = 1.5 × the budget distance.
        let target = canned.target;
        let mut source = target;
        for hop in 0..(2 + i % 5) {
            let ins: Vec<NodeId> = graph.in_edges(source).map(|e| e.node).collect();
            source = ins[(i + hop) % ins.len()];
        }
        let full = QueryContext::new(&graph, target);
        let budget = 1.5 * full.bs_sigma(source);
        let q = KorQuery::new(&graph, source, target, canned.keywords.clone(), budget).unwrap();
        unbounded.preprocess_cache().context(&graph, target);
        let a = bounded.os_scaling(&q, &os).unwrap();
        let b = unbounded.os_scaling(&q, &os).unwrap();
        assert_eq!(a.route.as_ref().map(key), b.route.as_ref().map(key));
        assert_eq!(search_counters(a.stats), search_counters(b.stats));
    }
    let (sb, su) = (bounded.preprocess_stats(), unbounded.preprocess_stats());
    assert_eq!(
        sb.ctx_misses, su.ctx_misses,
        "one build per target either way"
    );
    assert!(
        2 * sb.ctx_settled < su.ctx_settled,
        "bounded builds settled {} nodes, unbounded {}",
        sb.ctx_settled,
        su.ctx_settled
    );
}
