//! A fresh engine's first label search builds only per-query trees.
//!
//! Cold start is the first search on a new [`KorEngine`], and the first
//! search after every `apply_edge_mutations` batch. Both must build
//! exactly the trees the query itself needs and nothing per-dataset:
//!
//! * 2 for the to-target `τ`/`σ` context;
//! * 1 keyword reach tree per query keyword (Optimization Strategy 1);
//! * 2 more when Optimization Strategy 2 applies.
//!
//! Any dataset-wide precompute on that path shows up as a larger count
//! in `CacheStats::trees_built` or in the search's own `trees_built`.

use std::sync::Arc;

use kor::prelude::*;

const ALGOS: [&str; 2] = ["os-scaling", "bucket-bound"];

/// Runs `algo` on `engine`, with Opt-2 forced on (a threshold above 1
/// admits every keyword) or off. Returns the search's `trees_built`.
fn search(engine: &KorEngine<Arc<Graph>>, query: &KorQuery, algo: &str, opt2: bool) -> u64 {
    let stats = match algo {
        "os-scaling" => {
            let params = OsScalingParams {
                use_opt2: opt2,
                infrequent_threshold: 1.1,
                ..OsScalingParams::default()
            };
            engine.os_scaling(query, &params).unwrap().stats
        }
        "bucket-bound" => {
            let params = BucketBoundParams {
                use_opt2: opt2,
                infrequent_threshold: 1.1,
                ..BucketBoundParams::default()
            };
            engine.bucket_bound(query, &params).unwrap().stats
        }
        other => unreachable!("unknown algo {other}"),
    };
    stats.trees_built
}

/// The trees `query` needs: its context, one reach tree per keyword,
/// and the Opt-2 pair when enabled.
fn needed(query: &KorQuery, opt2: bool) -> u64 {
    2 + query.keywords.len() as u64 + if opt2 { 2 } else { 0 }
}

/// Asserts that one search moved the cache counters from `before` to
/// `after` by exactly the query's own misses and builds. Every other
/// counter, including any a future dataset-wide layer might add, must
/// stay where it was.
fn assert_only_query_trees(
    before: CacheStats,
    after: CacheStats,
    query: &KorQuery,
    opt2: bool,
    what: &str,
) {
    let want = CacheStats {
        ctx_misses: before.ctx_misses + 1,
        ctx_settled: after.ctx_settled,
        reach_misses: before.reach_misses + query.keywords.len() as u64,
        opt2_misses: before.opt2_misses + u64::from(opt2),
        trees_built: before.trees_built + needed(query, opt2),
        ..before
    };
    assert_eq!(after, want, "{what}");
}

fn to_query(graph: &Graph, c: &CannedQuery) -> KorQuery {
    KorQuery::new(graph, c.source, c.target, c.keywords.clone(), c.budget)
        .expect("canned queries are valid")
}

#[test]
fn first_search_builds_only_the_querys_trees() {
    let mut checked = 0usize;
    for seed in [3, 4] {
        let world = generate_world(&GenConfig::grid(12, 12, seed));
        let graph = Arc::new(world.graph);
        let canned: Vec<&CannedQuery> = world.query_sets.iter().flat_map(|s| &s.queries).collect();
        let first = to_query(&graph, canned[0]);
        // After the mutation, ask a query sharing no target and no
        // keyword with the first: nothing it needs can carry over.
        let second = canned
            .iter()
            .find(|c| {
                c.target != first.target
                    && c.keywords.iter().all(|&k| first.keywords.bit(k).is_none())
            })
            .map(|c| to_query(&graph, c))
            .expect("a disjoint canned query exists");
        let (u, e) = graph
            .nodes()
            .find_map(|u| graph.out_edges(u).next().map(|e| (u, e.node)))
            .expect("the world has edges");
        for algo in ALGOS {
            for opt2 in [false, true] {
                let what = format!("seed {seed} [{algo}, opt2 {opt2}]");
                let engine = KorEngine::new(graph.clone());
                let fresh = engine.preprocess_stats();
                assert_eq!(fresh, CacheStats::default(), "{what}: fresh");
                let built = search(&engine, &first, algo, opt2);
                assert_eq!(built, needed(&first, opt2), "{what}: first");
                let after = engine.preprocess_stats();
                assert_only_query_trees(fresh, after, &first, opt2, &format!("{what}: first"));

                let (mutated, _) = engine
                    .apply_edge_mutations(&[EdgeMutation::scale(u, e, 1.5, 1.5)])
                    .unwrap();
                let before = mutated.preprocess_stats();
                let built = search(&mutated, &second, algo, opt2);
                assert_eq!(built, needed(&second, opt2), "{what}: mutated");
                let after = mutated.preprocess_stats();
                assert_only_query_trees(before, after, &second, opt2, &format!("{what}: mutated"));
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * ALGOS.len() * 2, "sweep shrank");
}
