//! Micro-benchmarks, one group per paper figure family.
//!
//! These complement the `experiments` binary (which reproduces the
//! figures' data series) with per-operation timings on fixed,
//! representative inputs. The build environment vendors no Criterion, so
//! the file is a `harness = false` benchmark with a small built-in
//! measurement loop: warm up once, then run batches until the slower of
//! ~0.5 s or 10 iterations, and report mean/min per iteration.
//!
//! ```bash
//! cargo bench -p kor-bench               # all groups
//! cargo bench -p kor-bench -- epsilon    # only groups whose name matches
//! ```

use std::time::{Duration, Instant};

use kor_apsp::{CachedPairCosts, DenseApsp, PairCosts, QueryContext};
use kor_core::{BucketBoundParams, GreedyParams, KorEngine, KorQuery, OsScalingParams};
use kor_data::{
    generate_roadnet, generate_workload, generate_world, GenConfig, QuerySpec, RoadNetConfig,
    WorkloadConfig,
};
use kor_graph::fixtures::figure1;
use kor_graph::Graph;
use kor_index::{DiskInvertedIndex, InvertedIndex};

/// Minimal stand-in for a Criterion benchmark group: times closures and
/// prints one aligned row per benchmark.
struct Harness {
    filter: Option<String>,
}

impl Harness {
    fn from_args() -> Self {
        // Cargo passes `--bench`; any other free argument is a substring
        // filter on `group/name`.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Harness { filter }
    }

    fn bench<T>(&self, group: &str, name: &str, mut f: impl FnMut() -> T) {
        let id = format!("{group}/{name}");
        if let Some(fil) = &self.filter {
            if !id.contains(fil.as_str()) {
                return;
            }
        }
        // Warm-up run (also keeps the result alive so the call is not
        // optimized out).
        let _keep = f();
        let budget = Duration::from_millis(500);
        let started = Instant::now();
        let mut iters = 0u32;
        let mut best = Duration::MAX;
        while iters < 10 || (started.elapsed() < budget && iters < 1_000) {
            let t0 = Instant::now();
            let _keep = f();
            let dt = t0.elapsed();
            if dt < best {
                best = dt;
            }
            iters += 1;
        }
        let mean = started.elapsed() / iters;
        println!(
            "{id:<44} {iters:>5} iters   mean {:>12}   min {:>12}",
            format!("{:.3?}", mean),
            format!("{:.3?}", best),
        );
    }
}

fn bench_graph() -> Graph {
    generate_roadnet(&RoadNetConfig {
        nodes: 1_500,
        area_km: 40.0,
        vocab_size: 2_000,
        seed: 2012,
        ..RoadNetConfig::with_nodes(1_500)
    })
}

fn specs(graph: &Graph, keyword_counts: &[usize], per_set: usize) -> Vec<Vec<QuerySpec>> {
    let index = InvertedIndex::build(graph);
    generate_workload(
        graph,
        &index,
        &WorkloadConfig {
            keyword_counts: keyword_counts.to_vec(),
            queries_per_set: per_set,
            frequency_weighted: true,
            max_euclidean_km: Some(15.0),
            min_doc_fraction: 0.0,
            seed: 7,
        },
    )
    .into_iter()
    .map(|s| s.queries)
    .collect()
}

fn query(graph: &Graph, spec: &QuerySpec, delta: f64) -> KorQuery {
    KorQuery::new(
        graph,
        spec.source,
        spec.target,
        spec.keywords.clone(),
        delta,
    )
    .unwrap()
}

/// Figure 4/18 analogue: per-algorithm runtime as keyword count grows.
fn algorithms_vs_keywords(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let sets = specs(&graph, &[2, 6, 10], 4);
    let delta = 25.0;
    for (set, &m) in sets.iter().zip(&[2usize, 6, 10]) {
        let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, delta)).collect();
        h.bench("runtime_vs_keywords", &format!("os_scaling/{m}"), || {
            let params = OsScalingParams::default();
            for q in &queries {
                let _ = engine.os_scaling(q, &params).unwrap();
            }
        });
        h.bench("runtime_vs_keywords", &format!("bucket_bound/{m}"), || {
            let params = BucketBoundParams::default();
            for q in &queries {
                let _ = engine.bucket_bound(q, &params).unwrap();
            }
        });
        h.bench("runtime_vs_keywords", &format!("greedy1/{m}"), || {
            let params = GreedyParams::with_beam(1);
            for q in &queries {
                let _ = engine.greedy(q, &params).unwrap();
            }
        });
        h.bench("runtime_vs_keywords", &format!("greedy2/{m}"), || {
            let params = GreedyParams::with_beam(2);
            for q in &queries {
                let _ = engine.greedy(q, &params).unwrap();
            }
        });
    }
}

/// Figure 6 analogue: OSScaling runtime across ε.
fn epsilon_sweep(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[6], 4)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    for eps in [0.1, 0.5, 0.9] {
        h.bench("epsilon_sweep", &format!("{eps}"), || {
            let params = OsScalingParams::with_epsilon(eps);
            for q in &queries {
                let _ = engine.os_scaling(q, &params).unwrap();
            }
        });
    }
}

/// Figure 8 analogue: BucketBound runtime across β.
fn beta_sweep(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[6], 4)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    for beta in [1.2, 1.6, 2.0] {
        h.bench("beta_sweep", &format!("{beta}"), || {
            let params = BucketBoundParams::with(0.5, beta);
            for q in &queries {
                let _ = engine.bucket_bound(q, &params).unwrap();
            }
        });
    }
}

/// Figure 16 analogue: KkR runtime across k.
fn topk_sweep(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[4], 3)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    for k in [1usize, 3, 5] {
        h.bench("topk", &format!("os_scaling/{k}"), || {
            let params = OsScalingParams::default();
            for q in &queries {
                let _ = engine.top_k_os_scaling(q, &params, k).unwrap();
            }
        });
        h.bench("topk", &format!("bucket_bound/{k}"), || {
            let params = BucketBoundParams::default();
            for q in &queries {
                let _ = engine.top_k_bucket_bound(q, &params, k).unwrap();
            }
        });
    }
}

/// Figure 17 analogue: scalability over graph size.
fn scalability(h: &Harness) {
    for nodes in [500usize, 1_000, 2_000] {
        let graph = generate_roadnet(&RoadNetConfig::with_nodes(nodes));
        let engine = KorEngine::new(&graph);
        let set = &specs(&graph, &[6], 3)[0];
        let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 30.0)).collect();
        h.bench("scalability", &format!("bucket_bound/{nodes}"), || {
            let params = BucketBoundParams::default();
            for q in &queries {
                let _ = engine.bucket_bound(q, &params).unwrap();
            }
        });
    }
}

/// §4.2.1 claim: the optimization strategies' speed-up.
fn optimization_ablation(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[6], 3)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    h.bench("opt_ablation", "os_scaling/with", || {
        let params = OsScalingParams::default();
        for q in &queries {
            let _ = engine.os_scaling(q, &params).unwrap();
        }
    });
    h.bench("opt_ablation", "os_scaling/without", || {
        let params = OsScalingParams::without_optimizations(0.5);
        for q in &queries {
            let _ = engine.os_scaling(q, &params).unwrap();
        }
    });
}

/// Cold start: a fresh engine's first label search on a 64×64 generated
/// grid. Everything the first query pays is timed: the index build plus
/// every tree the search needs, with no warm cache to lean on.
fn cold_start(h: &Harness) {
    let world = generate_world(&GenConfig::grid(64, 64, 3));
    let graph = &world.graph;
    let canned = &world.query_sets[0].queries[0];
    let q = KorQuery::new(
        graph,
        canned.source,
        canned.target,
        canned.keywords.clone(),
        canned.budget,
    )
    .unwrap();
    h.bench("engine", "first_search_fresh", || {
        KorEngine::new(graph)
            .os_scaling(&q, &OsScalingParams::default())
            .unwrap()
    });
}

/// Substrate benchmarks: pre-processing and index lookups (§3.1).
fn substrates(h: &Harness) {
    let graph = bench_graph();
    let target = kor_graph::NodeId(0);
    h.bench("substrates", "query_context_build", || {
        QueryContext::new(&graph, target)
    });
    // A `kor gen`-tight query: the source at the median budget distance
    // to the target, Δ = 1.5 × that distance. The context stops at Δ.
    let full = QueryContext::new(&graph, target);
    let mut sources: Vec<_> = graph
        .nodes()
        .filter(|&v| v != target && full.reaches_target(v))
        .collect();
    sources.sort_by(|&a, &b| full.bs_sigma(a).total_cmp(&full.bs_sigma(b)));
    let source = sources[sources.len() / 2];
    let radius = 1.5 * full.bs_sigma(source);
    h.bench("substrates", "query_context_bounded", || {
        QueryContext::within(&graph, target, radius, source)
    });
    h.bench("substrates", "inverted_index_build", || {
        InvertedIndex::build(&graph)
    });
    let dir = std::env::temp_dir().join("kor-bench-idx");
    std::fs::create_dir_all(&dir).unwrap();
    let disk = DiskInvertedIndex::build(&graph, &dir.join("bench.idx")).unwrap();
    let mem = InvertedIndex::build(&graph);
    let terms: Vec<String> = graph
        .vocab()
        .iter()
        .filter(|(k, _)| mem.doc_frequency(*k) > 0)
        .take(64)
        .map(|(_, t)| t.to_string())
        .collect();
    h.bench("substrates", "bptree_lookup_64_terms", || {
        for t in &terms {
            let _ = disk.postings(t).unwrap();
        }
    });
    // Floyd–Warshall is cubic: measure it on the Figure-1 fixture where a
    // single iteration is cheap, and Dijkstra-APSP on the big graph.
    let small = figure1();
    h.bench("substrates", "floyd_warshall_fixture", || {
        DenseApsp::floyd_warshall(&small)
    });
    let pairs = CachedPairCosts::new(&graph);
    let nodes: Vec<_> = graph.nodes().take(16).collect();
    h.bench("substrates", "pairwise_tau_cached", || {
        let mut acc = 0.0;
        for &s in &nodes {
            if let Some(c) = pairs.tau(s, kor_graph::NodeId(0)) {
                acc += c.objective;
            }
        }
        acc
    });
}

fn main() {
    let h = Harness::from_args();
    algorithms_vs_keywords(&h);
    epsilon_sweep(&h);
    beta_sweep(&h);
    topk_sweep(&h);
    scalability(&h);
    optimization_ablation(&h);
    cold_start(&h);
    substrates(&h);
}
