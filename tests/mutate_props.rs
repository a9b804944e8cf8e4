//! Property sweep over the incremental invalidation machinery.
//!
//! Random *directed* layered graphs (edges only flow forward, so
//! backward reachability is genuinely partial — unlike the strongly
//! connected gen worlds) are warmed, mutated, and checked against the
//! two properties the stamps must satisfy:
//!
//! * **soundness** — every cached backward tree whose stamp contains a
//!   changed edge head is evicted; a query to an evicted target
//!   rebuilds its trees (`trees_built` grows) and answers exactly like
//!   a cold engine;
//! * **minimality** — the eviction is *exactly* the reachability
//!   predicate, no collateral damage: entries whose stamp avoids every
//!   changed head survive, and a query to a surviving target is a pure
//!   cache hit (`trees_built` unchanged).
//!
//! The expected eviction set is computed independently of the stamps,
//! by asking each cached target's own `QueryContext` whether any
//! changed head reaches it. The sweep also pins the typed rejection
//! contract: closing a nonexistent edge, zero/negative/non-finite
//! multipliers, duplicate pairs, and reopening a live edge each map to
//! their own `MutationError` variant and leave the engine untouched.

use std::sync::Arc;

use kor::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random layered DAG: `layers × width` nodes, edges only from
/// layer i to i+1 (plus a few skips), one keyword per node from a tiny
/// vocab. Directed on purpose: reachability must be partial for
/// retention to be observable.
fn layered_dag(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = 4 + (seed as usize % 3); // 4..=6
    let width = 3 + (seed as usize % 2); // 3..=4
    let mut builder = GraphBuilder::new();
    let mut grid: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..layers {
        let mut layer = Vec::new();
        for _ in 0..width {
            let tag = format!("t{}", rng.gen_range(0u32..6));
            layer.push(builder.add_node([tag.as_str()]));
        }
        grid.push(layer);
    }
    for i in 0..layers - 1 {
        for &u in &grid[i] {
            // Every node gets 1-2 forward edges so no layer dead-ends.
            let fanout = rng.gen_range(1usize..=2);
            for _ in 0..fanout {
                let w = grid[i + 1][rng.gen_range(0..width)];
                let objective = rng.gen_range(1.0..4.0);
                let budget = rng.gen_range(1.0..4.0);
                // Duplicate picks are fine: add_edge rejects them, skip.
                let _ = builder.add_edge(u, w, objective, budget);
            }
        }
        // A couple of layer-skipping edges for path diversity.
        if i + 2 < layers {
            let u = grid[i][rng.gen_range(0..width)];
            let w = grid[i + 2][rng.gen_range(0..width)];
            let _ = builder.add_edge(u, w, rng.gen_range(1.0..4.0), rng.gen_range(2.0..6.0));
        }
    }
    builder.build().expect("layered DAG is a valid graph")
}

/// Every (from, to) edge pair of the graph.
fn edge_pairs(graph: &Graph) -> Vec<(NodeId, NodeId)> {
    graph
        .nodes()
        .flat_map(|u| graph.out_edges(u).map(move |e| (u, e.node)))
        .collect()
}

#[test]
fn eviction_is_exactly_the_reachability_predicate() {
    let mut retained_total = 0usize;
    let mut evicted_total = 0usize;
    for seed in 0..12u64 {
        let graph = Arc::new(layered_dag(seed));
        let engine = KorEngine::new(Arc::clone(&graph));
        let mut rng = StdRng::seed_from_u64(0xFEED ^ seed);

        // Warm a context for every node that has an in-edge (others are
        // unreachable targets and would cache nothing useful).
        for t in graph.nodes() {
            let (_, _) = engine.preprocess_cache().context(graph.as_ref(), t);
        }
        let cached = engine.preprocess_cache().cached_context_targets();
        assert!(!cached.is_empty());

        // Pick a mutation batch: one scale + one close on random edges.
        let pairs = edge_pairs(&graph);
        let scale_at = rng.gen_range(0..pairs.len());
        let mut close_at = rng.gen_range(0..pairs.len());
        while close_at == scale_at {
            close_at = rng.gen_range(0..pairs.len());
        }
        let batch = [
            EdgeMutation::scale(pairs[scale_at].0, pairs[scale_at].1, 1.3, 1.1),
            EdgeMutation::close(pairs[close_at].0, pairs[close_at].1),
        ];
        let heads = [pairs[scale_at].1, pairs[close_at].1];

        // Expected eviction set, computed from each target's own
        // context — independently of the stamp implementation.
        let expected_evicted: Vec<NodeId> = cached
            .iter()
            .copied()
            .filter(|&t| {
                let (ctx, _) = engine.preprocess_cache().context(graph.as_ref(), t);
                heads
                    .iter()
                    .any(|&h| ctx.reaches_target(h) || ctx.sigma_to_target(h).is_some() || h == t)
            })
            .collect();

        let (mutated, report) = engine.apply_edge_mutations(&batch).expect("valid batch");
        assert_eq!(
            report.contexts_evicted,
            expected_evicted.len(),
            "seed {seed}: eviction must equal the reachability predicate"
        );
        assert_eq!(
            report.contexts_retained,
            cached.len() - expected_evicted.len(),
            "seed {seed}: retention must be the complement"
        );
        retained_total += report.contexts_retained;
        evicted_total += report.contexts_evicted;

        // Soundness and minimality through the stats counters: querying
        // a survivor is a pure hit, querying an evicted target rebuilds.
        for &t in &cached {
            let before = mutated.preprocess_cache().stats().trees_built;
            let (_, hit) = mutated.preprocess_cache().context(mutated.graph(), t);
            let after = mutated.preprocess_cache().stats().trees_built;
            if expected_evicted.contains(&t) {
                assert!(!hit, "seed {seed}: stale context for {t} survived");
                assert!(after > before, "seed {seed}: eviction without rebuild");
            } else {
                assert!(hit, "seed {seed}: retained context for {t} was lost");
                assert_eq!(after, before, "seed {seed}: retained context rebuilt");
            }
        }
    }
    // The sweep must observe both outcomes or the predicate check was
    // one-sided.
    assert!(retained_total > 0, "no context ever survived a mutation");
    assert!(evicted_total > 0, "no context was ever evicted");
    eprintln!("mutate props: {retained_total} retained, {evicted_total} evicted across 12 seeds");
}

#[test]
fn warm_answers_match_cold_across_random_mutation_sequences() {
    for seed in 0..8u64 {
        let graph = Arc::new(layered_dag(seed));
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ seed);
        let mut engine = KorEngine::new(Arc::clone(&graph));

        // Random feasible-looking queries: first-layer sources, any
        // later node as target, one keyword the target actually has.
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let queries: Vec<(NodeId, NodeId, f64)> = (0..6)
            .map(|_| {
                let s = nodes[rng.gen_range(0..nodes.len() / 2)];
                let t = nodes[rng.gen_range(nodes.len() / 2..nodes.len())];
                (s, t, rng.gen_range(5.0..25.0))
            })
            .collect();
        let run_all = |e: &KorEngine<Arc<Graph>>| -> Vec<Option<(Vec<u32>, u64, u64)>> {
            queries
                .iter()
                .map(|&(s, t, b)| {
                    let q = KorQuery::new(e.graph(), s, t, Vec::new(), b).expect("endpoints exist");
                    e.os_scaling(&q, &OsScalingParams::with_epsilon(0.5))
                        .unwrap()
                        .route
                        .map(|r| {
                            (
                                r.route.nodes().iter().map(|n| n.0).collect(),
                                r.objective.to_bits(),
                                r.budget.to_bits(),
                            )
                        })
                })
                .collect()
        };

        for step in 0..4 {
            let _ = run_all(&engine); // keep the caches warm
            let pairs = edge_pairs(engine.graph());
            let (u, w) = pairs[rng.gen_range(0..pairs.len())];
            let batch = if rng.gen_bool(0.5) {
                vec![EdgeMutation::scale(u, w, 1.0, rng.gen_range(1.1..2.0))]
            } else {
                vec![EdgeMutation::close(u, w)]
            };
            let (next, _) = engine.apply_edge_mutations(&batch).expect("valid batch");
            engine = next;
            let cold = KorEngine::new(Arc::new(engine.graph().clone()));
            assert_eq!(
                run_all(&engine),
                run_all(&cold),
                "seed {seed} step {step}: warm diverged from cold"
            );
        }
    }
}

/// A context cached at a small radius is carried over a mutation whose
/// head lies outside its ball, then extended on the mutated graph: the
/// result must equal a cold build there, bit for bit on every node —
/// the mutated edge included, since the extension scans it.
#[test]
fn carried_bounded_context_extends_like_a_cold_build() {
    let mut extended = 0usize;
    let mut shell_heads = 0usize;
    for seed in 0..6u64 {
        let graph = Arc::new(generate_world(&GenConfig::grid(12, 12, seed)).graph);
        let mut rng = StdRng::seed_from_u64(0xB0A1 ^ seed);
        let engine = KorEngine::new(Arc::clone(&graph));
        let target = NodeId(rng.gen_range(0..graph.node_count() as u32));
        let (ctx, _) = engine
            .preprocess_cache()
            .context_within(&graph, target, 3.0, target);
        assert!(
            ctx.radius().is_finite(),
            "seed {seed}: the ball is the graph"
        );
        // Make an edge cheaper whose head the small ball never settled
        // (the stamp avoids it, so the entry survives the mutation) and
        // which is its tail's first hop toward the target (so the full
        // trees change).
        let stale = QueryContext::new(&graph, target);
        let (u, w) = edge_pairs(&graph)
            .into_iter()
            .filter(|&(u, w)| {
                !ctx.trees().iter().any(|t| t.is_settled(w))
                    && stale.tau_route(u).is_some_and(|r| r.nodes()[1] == w)
            })
            .nth(rng.gen_range(0..8))
            .expect("edges outside the ball");
        let batch = [EdgeMutation::scale(u, w, 0.25, 0.25)];
        let (mutated, report) = engine.apply_edge_mutations(&batch).expect("valid batch");
        assert_eq!(
            report.contexts_retained, 1,
            "seed {seed}: entry not carried"
        );

        // A head that only `τ` settled (its shell beyond the `σ` ball)
        // is in the stamp too: such a mutation evicts the entry.
        let [tau, sigma] = ctx.trees();
        if let Some((u, w)) = edge_pairs(&graph)
            .into_iter()
            .find(|&(_, w)| tau.is_settled(w) && !sigma.is_settled(w))
        {
            let shell = [EdgeMutation::scale(u, w, 0.25, 0.25)];
            let (_, report) = engine.apply_edge_mutations(&shell).expect("valid batch");
            assert_eq!(report.contexts_evicted, 1, "seed {seed}: τ-shell head kept");
            shell_heads += 1;
        }

        let before = mutated.preprocess_stats();
        let (grown, hit) = mutated.preprocess_cache().context(mutated.graph(), target);
        let after = mutated.preprocess_stats();
        assert!(hit, "seed {seed}: the carried entry must be reused");
        assert_eq!(after.ctx_extends, before.ctx_extends + 1);
        assert_eq!(
            after.trees_built, before.trees_built,
            "extended, not rebuilt"
        );

        let cold = QueryContext::new(mutated.graph(), target);
        let mut differs_from_old = false;
        for v in graph.nodes() {
            for (g, c) in grown.trees().into_iter().zip(cold.trees()) {
                let (a, b) = (g.node(v), c.node(v));
                assert_eq!(
                    (a.objective.to_bits(), a.budget.to_bits(), a.link),
                    (b.objective.to_bits(), b.budget.to_bits(), b.link),
                    "seed {seed}: {v} differs from a cold build"
                );
            }
            differs_from_old |= cold.os_tau(v) != stale.os_tau(v);
        }
        extended += usize::from(differs_from_old);
    }
    // The mutations must matter, or a stale extension would pass too.
    assert_eq!(extended, 6, "a mutation left the trees unchanged");
    assert!(shell_heads > 0, "no seed had a τ-only settled head");
}

#[test]
fn invalid_mutations_are_typed_errors_and_leave_the_engine_alone() {
    let graph = Arc::new(layered_dag(1));
    let engine = KorEngine::new(Arc::clone(&graph));
    let pairs = edge_pairs(&graph);
    let (u, w) = pairs[0];
    // A pair with no edge: reverse of an existing one (the DAG never
    // has back edges).
    let expect_err = |batch: &[EdgeMutation]| match engine.apply_edge_mutations(batch) {
        Ok(_) => panic!("batch {batch:?} must be rejected"),
        Err(e) => e,
    };

    match expect_err(&[EdgeMutation::close(w, u)]) {
        MutationError::UnknownEdge { from, to } => {
            assert_eq!((from, to), (w, u));
        }
        other => panic!("expected UnknownEdge, got {other}"),
    }
    match expect_err(&[EdgeMutation::scale(u, w, 1.0, 0.0)]) {
        MutationError::InvalidMultiplier {
            attribute, value, ..
        } => {
            assert_eq!(attribute, "budget");
            assert_eq!(value, 0.0);
        }
        other => panic!("expected InvalidMultiplier, got {other}"),
    }
    match expect_err(&[EdgeMutation::scale(u, w, f64::NAN, 1.0)]) {
        MutationError::InvalidMultiplier { attribute, .. } => assert_eq!(attribute, "objective"),
        other => panic!("expected InvalidMultiplier, got {other}"),
    }
    match expect_err(&[EdgeMutation::reopen(u, w, 1.0, 1.0)]) {
        MutationError::EdgeExists { from, to } => assert_eq!((from, to), (u, w)),
        other => panic!("expected EdgeExists, got {other}"),
    }
    match expect_err(&[
        EdgeMutation::close(u, w),
        EdgeMutation::scale(u, w, 1.0, 1.5),
    ]) {
        MutationError::DuplicateMutation { from, to } => assert_eq!((from, to), (u, w)),
        other => panic!("expected DuplicateMutation, got {other}"),
    }
    let far = NodeId(graph.node_count() as u32);
    match expect_err(&[EdgeMutation::close(far, u)]) {
        MutationError::UnknownNode(n) => assert_eq!(n, far),
        other => panic!("expected UnknownNode, got {other}"),
    }

    // Rejected batches are atomic: the engine still answers on the
    // original graph at epoch 0 with its caches intact.
    assert_eq!(engine.graph().epoch(), 0);
    assert_eq!(engine.graph().edge_count(), graph.edge_count());
}
