//! Property-based tests over random small graphs: algorithm invariants
//! that must hold on *every* input, not just the curated fixtures.
//!
//! The build environment vendors no `proptest`, so these are hand-rolled
//! randomized properties: each test draws `CASES` independent inputs from
//! a seeded [`StdRng`] (deterministic, so failures reproduce) and checks
//! the same invariants a proptest harness would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kor::prelude::*;

const CASES: u64 = 64;

/// A random small directed graph with `2..=max_nodes` nodes, up to two
/// keywords per node from a tiny vocabulary, and random positive weights.
fn random_graph(rng: &mut StdRng, max_nodes: usize) -> Graph {
    let n = rng.gen_range(2..=max_nodes);
    let mut b = GraphBuilder::new();
    for t in 0..6u32 {
        b.vocab_mut().intern(&format!("kw{t}"));
    }
    for _ in 0..n {
        let n_kws = rng.gen_range(0..3usize);
        let kws: Vec<KeywordId> = (0..n_kws)
            .map(|_| KeywordId(rng.gen_range(0u32..6)))
            .collect();
        b.add_node_ids(kws);
    }
    let n_edges = rng.gen_range(1..(n * 3).max(2));
    for _ in 0..n_edges {
        let from = rng.gen_range(0..n as u32);
        let to = rng.gen_range(0..n as u32);
        if from != to {
            let o = rng.gen_range(1u32..50) as f64 / 10.0;
            let bu = rng.gen_range(1u32..50) as f64 / 10.0;
            // Duplicate edges are rejected; ignore those.
            let _ = b.add_edge(NodeId(from), NodeId(to), o, bu);
        }
    }
    b.build().expect("valid random graph")
}

/// Random query pieces: raw endpoints (reduced modulo the node count at
/// the use site), up to two query keywords, and a budget in `(0, 12]`.
fn random_query_parts(rng: &mut StdRng) -> (u32, u32, Vec<KeywordId>, f64) {
    let s = rng.gen_range(0u32..12);
    let t = rng.gen_range(0u32..12);
    let n_kws = rng.gen_range(0..3usize);
    let kws: Vec<KeywordId> = (0..n_kws)
        .map(|_| KeywordId(rng.gen_range(0u32..6)))
        .collect();
    let delta = rng.gen_range(1u32..120) as f64 / 10.0;
    (s, t, kws, delta)
}

#[test]
fn exact_agrees_with_brute_force() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let graph = random_graph(&mut rng, 8);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let brute = engine.brute_force(
            &query,
            &BruteForceParams {
                max_expansions: 2_000_000,
                target_pruning: true,
            },
        );
        let Ok(brute) = brute else { continue }; // search space cap
        let exact = engine.exact(&query).unwrap();
        match (&brute.route, &exact.route) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    (a.objective - b.objective).abs() < 1e-9,
                    "case {case}: brute {} vs exact {}",
                    a.objective,
                    b.objective
                );
            }
            (a, b) => panic!("case {case}: feasibility disagreement {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn os_scaling_bound_and_feasibility() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let graph = random_graph(&mut rng, 10);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let eps = rng.gen_range(5u32..95) as f64 / 100.0;
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let exact = engine.exact(&query).unwrap();
        let approx = engine
            .os_scaling(&query, &OsScalingParams::with_epsilon(eps))
            .unwrap();
        match (&exact.route, &approx.route) {
            (None, None) => {}
            (Some(opt), Some(found)) => {
                assert!(
                    found.objective <= opt.objective / (1.0 - eps) + 1e-9,
                    "case {case}: Theorem 2 violated at eps={eps}: {} > {}",
                    found.objective,
                    opt.objective / (1.0 - eps)
                );
                let (os, bs) = found.route.scores(&graph).unwrap();
                assert!((os - found.objective).abs() < 1e-9, "case {case}");
                assert!((bs - found.budget).abs() < 1e-9, "case {case}");
                assert!(found.budget <= delta + 1e-9, "case {case}");
                assert!(
                    found.route.covers(&graph, query.keywords.ids()),
                    "case {case}"
                );
            }
            (a, b) => panic!("case {case}: feasibility disagreement {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn bucket_bound_theorem3() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let graph = random_graph(&mut rng, 10);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let beta = rng.gen_range(105u32..250) as f64 / 100.0;
        let eps = 0.5;
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let exact = engine.exact(&query).unwrap();
        let bb = engine
            .bucket_bound(&query, &BucketBoundParams::with(eps, beta))
            .unwrap();
        match (&exact.route, &bb.route) {
            (None, None) => {}
            (Some(opt), Some(found)) => {
                assert!(
                    found.objective <= opt.objective * beta / (1.0 - eps) + 1e-9,
                    "case {case}: Theorem 3 violated at beta={beta}: {} > {}",
                    found.objective,
                    opt.objective * beta / (1.0 - eps)
                );
                assert!(found.budget <= delta + 1e-9, "case {case}");
                assert!(
                    found.route.covers(&graph, query.keywords.ids()),
                    "case {case}"
                );
            }
            (a, b) => panic!("case {case}: feasibility disagreement {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn top_k_is_sorted_distinct_feasible() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let graph = random_graph(&mut rng, 8);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let k = rng.gen_range(1usize..5);
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let topk = engine
            .top_k_os_scaling(&query, &OsScalingParams::with_epsilon(0.3), k)
            .unwrap();
        assert!(topk.routes.len() <= k, "case {case}");
        for w in topk.routes.windows(2) {
            assert!(w[0].objective <= w[1].objective + 1e-12, "case {case}");
            assert!(
                w[0].route.nodes() != w[1].route.nodes(),
                "case {case}: duplicate route"
            );
        }
        for r in &topk.routes {
            assert!(r.budget <= delta + 1e-9, "case {case}");
            assert!(r.route.covers(&graph, query.keywords.ids()), "case {case}");
            let (os, bs) = r.route.scores(&graph).unwrap();
            assert!((os - r.objective).abs() < 1e-9, "case {case}");
            assert!((bs - r.budget).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn greedy_output_is_always_a_valid_route() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000 + case);
        let graph = random_graph(&mut rng, 10);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let beam = rng.gen_range(1usize..3);
        let alpha = rng.gen_range(0u32..=100) as f64 / 100.0;
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let params = GreedyParams {
            alpha,
            beam_width: beam,
            mode: GreedyMode::KeywordsFirst,
        };
        if let Some(r) = engine.greedy(&query, &params).unwrap() {
            assert_eq!(r.route.source(), Some(s), "case {case}");
            assert_eq!(r.route.target(), Some(t), "case {case}");
            let (os, bs) = r.route.scores(&graph).unwrap();
            assert!((os - r.objective).abs() < 1e-9, "case {case}");
            assert!((bs - r.budget).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn inverted_indexes_agree() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let graph = random_graph(&mut rng, 12);
        let mem = InvertedIndex::build(&graph);
        let dir = std::env::temp_dir().join("kor-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("idx-{}-{case}.bin", std::process::id()));
        let disk = DiskInvertedIndex::build(&graph, &path).unwrap();
        for (kw, postings) in mem.iter() {
            let term = graph.vocab().resolve(kw).unwrap();
            assert_eq!(
                disk.postings(term).unwrap().unwrap(),
                postings.to_vec(),
                "case {case}"
            );
        }
        assert_eq!(disk.term_count() as usize, mem.term_count(), "case {case}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn graph_io_round_trips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7000 + case);
        let graph = random_graph(&mut rng, 12);
        let text = kor::data::graph_to_string(&graph);
        let back = kor::data::graph_from_str(&text).unwrap();
        assert_eq!(back.node_count(), graph.node_count(), "case {case}");
        assert_eq!(back.edge_count(), graph.edge_count(), "case {case}");
        for v in graph.nodes() {
            let a: Vec<(u32, u64, u64)> = graph
                .out_edges(v)
                .map(|e| (e.node.0, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            let b: Vec<(u32, u64, u64)> = back
                .out_edges(v)
                .map(|e| (e.node.0, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            assert_eq!(a, b, "case {case}");
        }
    }
}
