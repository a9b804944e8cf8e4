//! Pairwise `τ`/`σ` cost lookups.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kor_graph::{Graph, NodeId};

use crate::tree::{forward_tree, Metric, Tree};

/// The two scores of a pre-processed path (`OS`, `BS`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    /// Objective score of the path.
    pub objective: f64,
    /// Budget score of the path.
    pub budget: f64,
}

/// Access to the paper's pre-processing products for arbitrary node pairs:
/// the minimum-objective path `τ_{i,j}` and minimum-budget path `σ_{i,j}`
/// with their `(OS, BS)` scores and, unlike the paper (which discards
/// them), the paths themselves for route materialization.
pub trait PairCosts {
    /// Scores of `τ_{i,j}`, or `None` if `j` is unreachable from `i`.
    fn tau(&self, i: NodeId, j: NodeId) -> Option<PathCost>;
    /// Scores of `σ_{i,j}`, or `None` if unreachable.
    fn sigma(&self, i: NodeId, j: NodeId) -> Option<PathCost>;
    /// Node sequence of `τ_{i,j}` (inclusive), or `None` if unreachable.
    fn tau_path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>>;
    /// Node sequence of `σ_{i,j}` (inclusive), or `None` if unreachable.
    fn sigma_path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>>;
}

/// Lazy [`PairCosts`] backed by memoized forward Dijkstra trees.
///
/// Each distinct `(source, metric)` pair computes one tree on first use;
/// the greedy algorithm touches only a handful of sources per query, so
/// this avoids any `O(|V|²)` pre-processing while returning exactly the
/// same values as [`crate::DenseApsp`].
///
/// The cache is generic over how it holds the graph: `G` may be a plain
/// `&Graph` (scoped use, as in tests and the batch front end) or an
/// `Arc<Graph>` (long-lived services that must own their dataset). The
/// memo table sits behind a `Mutex`, so a single cache can be shared by
/// any number of threads — a tree computed for one query is reused by
/// every later query regardless of which thread runs it.
pub struct CachedPairCosts<G> {
    graph: G,
    trees: Mutex<HashMap<(NodeId, u8), Arc<Tree>>>,
}

impl<G: AsRef<Graph>> CachedPairCosts<G> {
    /// Creates an empty cache over `graph`.
    pub fn new(graph: G) -> Self {
        Self {
            graph,
            trees: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph.as_ref()
    }

    /// Number of trees computed so far (for instrumentation).
    pub fn cached_tree_count(&self) -> usize {
        self.trees.lock().unwrap().len()
    }

    /// The memoized forward tree for `(source, metric)`. A miss runs
    /// Dijkstra *outside* the lock, so it never stalls lookups from
    /// other threads; when two threads miss on the same key, the first
    /// insert wins and both return that tree.
    fn tree(&self, source: NodeId, metric: Metric) -> Arc<Tree> {
        let key = (source, metric as u8);
        if let Some(tree) = self.trees.lock().unwrap().get(&key) {
            return Arc::clone(tree);
        }
        let built = Arc::new(forward_tree(self.graph.as_ref(), metric, source));
        Arc::clone(self.trees.lock().unwrap().entry(key).or_insert(built))
    }

    /// Rebinds the cache to a mutated graph, carrying over every tree
    /// that provably avoided all changed edges. A forward tree from `s`
    /// can only be affected by an edge whose *tail* is reachable from
    /// `s`; because mutation rebuilds preserve the relative CSR order
    /// of surviving edges, a carried tree is bit-for-bit the tree a
    /// cold engine would compute on the new graph (identical scan
    /// order, identical weights, identical ties).
    ///
    /// `changed_tails` must hold the `from` node of every mutation in
    /// the batch (closures, reopenings, and scalings alike — a reopened
    /// edge adds paths only below its tail, so the same test covers
    /// it). The new graph must have the same node count as the old one.
    ///
    /// Returns the rebound cache plus `(retained, evicted)` tree
    /// counts.
    pub fn carry_over(&self, graph: G, changed_tails: &[NodeId]) -> (Self, usize, usize) {
        let old = self.trees.lock().unwrap();
        let mut kept = HashMap::with_capacity(old.len());
        let mut evicted = 0usize;
        for (&key, tree) in old.iter() {
            if changed_tails.iter().any(|&u| tree.is_reachable(u)) {
                evicted += 1;
            } else {
                kept.insert(key, Arc::clone(tree));
            }
        }
        let retained = kept.len();
        (
            Self {
                graph,
                trees: Mutex::new(kept),
            },
            retained,
            evicted,
        )
    }
}

impl<G: AsRef<Graph>> PairCosts for CachedPairCosts<G> {
    fn tau(&self, i: NodeId, j: NodeId) -> Option<PathCost> {
        let t = self.tree(i, Metric::Objective);
        t.is_reachable(j).then(|| PathCost {
            objective: t.objective(j),
            budget: t.budget(j),
        })
    }

    fn sigma(&self, i: NodeId, j: NodeId) -> Option<PathCost> {
        let t = self.tree(i, Metric::Budget);
        t.is_reachable(j).then(|| PathCost {
            objective: t.objective(j),
            budget: t.budget(j),
        })
    }

    fn tau_path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        self.tree(i, Metric::Objective).walk_from_source(j)
    }

    fn sigma_path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        self.tree(i, Metric::Budget).walk_from_source(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseApsp;
    use kor_graph::fixtures::{figure1, v};

    #[test]
    fn cached_agrees_with_dense() {
        let g = figure1();
        let dense = DenseApsp::floyd_warshall(&g);
        let cached = CachedPairCosts::new(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(dense.tau(i, j), cached.tau(i, j), "tau {i}->{j}");
                assert_eq!(dense.sigma(i, j), cached.sigma(i, j), "sigma {i}->{j}");
            }
        }
    }

    #[test]
    fn cached_paths_match_costs() {
        let g = figure1();
        let cached = CachedPairCosts::new(&g);
        let p = cached.tau_path(v(0), v(7)).unwrap();
        assert_eq!(p, vec![v(0), v(3), v(4), v(7)]);
        assert_eq!(
            cached.sigma_path(v(0), v(7)).unwrap(),
            vec![v(0), v(3), v(5), v(7)]
        );
        assert!(cached.tau_path(v(1), v(7)).is_none());
    }

    #[test]
    fn carry_over_keeps_only_trees_that_avoid_changed_tails() {
        use kor_graph::{EdgeMutation, GraphBuilder};

        // Diamond: 0 -> 1 -> 3, 0 -> 2 -> 3.
        let mut b = GraphBuilder::new();
        let s = b.add_node(["s"]);
        let a = b.add_node(["a"]);
        let c = b.add_node(["c"]);
        let t = b.add_node(["t"]);
        b.add_edge(s, a, 1.0, 1.0).unwrap();
        b.add_edge(s, c, 2.0, 2.0).unwrap();
        b.add_edge(a, t, 1.0, 1.0).unwrap();
        b.add_edge(c, t, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();

        let cached = CachedPairCosts::new(&g);
        let _ = cached.tau(s, t); // tree from s: reaches a -> must evict
        let _ = cached.tau(c, t); // tree from c: never sees a -> retained
        let _ = cached.sigma(t, s); // tree from t: only {t} -> retained
        assert_eq!(cached.cached_tree_count(), 3);

        let g2 = g
            .apply_mutations(&[EdgeMutation::scale(a, t, 3.0, 1.0)])
            .unwrap();
        let (warm, retained, evicted) = cached.carry_over(&g2, &[a]);
        assert_eq!((retained, evicted), (2, 1));
        assert_eq!(warm.cached_tree_count(), 2);

        // Every answer matches a cold cache on the mutated graph,
        // bit for bit, whether the tree was carried or recomputed.
        let cold = CachedPairCosts::new(&g2);
        for i in g2.nodes() {
            for j in g2.nodes() {
                let (w, c) = (warm.tau(i, j), cold.tau(i, j));
                assert_eq!(w.is_some(), c.is_some(), "tau {i}->{j}");
                if let (Some(w), Some(c)) = (w, c) {
                    assert_eq!(w.objective.to_bits(), c.objective.to_bits());
                    assert_eq!(w.budget.to_bits(), c.budget.to_bits());
                }
                assert_eq!(warm.tau_path(i, j), cold.tau_path(i, j));
                assert_eq!(warm.sigma(i, j), cold.sigma(i, j), "sigma {i}->{j}");
            }
        }
    }

    #[test]
    fn concurrent_misses_converge_on_one_tree_per_key() {
        use kor_graph::GraphBuilder;
        use std::sync::Barrier;

        // A 40×40 grid, so one build is long enough for racers to overlap.
        let side = 40u32;
        let mut b = GraphBuilder::new();
        for _ in 0..side * side {
            b.add_node(["x"]);
        }
        for i in 0..side * side {
            let (x, y) = (i % side, i / side);
            let w = f64::from(1 + (x * 7 + y * 3) % 5);
            if x + 1 < side {
                b.add_edge(NodeId(i), NodeId(i + 1), w, 6.0 - w).unwrap();
                b.add_edge(NodeId(i + 1), NodeId(i), 6.0 - w, w).unwrap();
            }
            if y + 1 < side {
                b.add_edge(NodeId(i), NodeId(i + side), w, w).unwrap();
                b.add_edge(NodeId(i + side), NodeId(i), w, w).unwrap();
            }
        }
        let g = b.build().unwrap();
        let cached = CachedPairCosts::new(&g);
        // Four threads miss on v0 together, four more on v3: the same
        // key raced by several builders, and distinct keys in parallel.
        let sources = [v(0), v(0), v(0), v(0), v(3), v(3), v(3), v(3)];
        let barrier = Barrier::new(sources.len());
        let trees: Vec<(NodeId, Arc<Tree>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = sources
                .iter()
                .map(|&s| {
                    let (cached, barrier) = (&cached, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        (s, cached.tree(s, Metric::Objective))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cached.cached_tree_count(), 2, "each key counted once");
        for (s, tree) in &trees {
            let memo = cached.tree(*s, Metric::Objective);
            assert!(Arc::ptr_eq(tree, &memo), "every racer got the stored tree");
            let fresh = forward_tree(&g, Metric::Objective, *s);
            for n in g.nodes() {
                assert_eq!(tree.objective(n).to_bits(), fresh.objective(n).to_bits());
                assert_eq!(tree.budget(n).to_bits(), fresh.budget(n).to_bits());
                assert_eq!(tree.walk_from_source(n), fresh.walk_from_source(n));
            }
        }
    }

    #[test]
    fn trees_are_memoized() {
        let g = figure1();
        let cached = CachedPairCosts::new(&g);
        assert_eq!(cached.cached_tree_count(), 0);
        let _ = cached.tau(v(0), v(7));
        let _ = cached.tau(v(0), v(5));
        assert_eq!(cached.cached_tree_count(), 1);
        let _ = cached.sigma(v(0), v(7));
        assert_eq!(cached.cached_tree_count(), 2);
    }
}
