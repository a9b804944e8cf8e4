//! Lexicographic single-source / multi-seed Dijkstra trees.
//!
//! Every pre-processing value the KOR algorithms consume is a shortest
//! path under one of two lexicographic orders:
//!
//! * [`Metric::Objective`] — minimize objective score, tie-break on budget
//!   (yields `τ` paths: `OS(τ)` primary, `BS(τ)` secondary);
//! * [`Metric::Budget`] — minimize budget score, tie-break on objective
//!   (yields `σ` paths).
//!
//! Trees run either *backward* (costs **to** a seed set, following
//! forward edges — used for to-target bounds and keyword reachability) or
//! *forward* (costs **from** a single source — used by the greedy
//! algorithm). Seeds may carry initial potentials, which turns the tree
//! into a "min over seeds of (path cost + potential)" oracle as needed by
//! Optimization Strategy 2.
//!
//! # The kernel
//!
//! One Dijkstra serves every tree family. Costs are finite and
//! non-negative, so a `(primary, secondary)` key compares exactly as the
//! pair of its `u64` bit patterns, with the node id as the final
//! tie-break: heap entries are plain integer triples. Per-node costs,
//! links and a settled bitset share one structure-of-arrays allocation.
//!
//! A tree is **resumable**: it can stop at a rule ([`Tree::grow_to`],
//! [`Tree::grow_to_cover`]) and later continue from its saved frontier.
//! The pop order of a stopped-and-continued run is a prefix-by-prefix
//! copy of the uninterrupted run's — the heap holds the same entries
//! either way, and a node's first valid pop settles it for good — so the
//! settled values are bit-identical to [`backward_tree`]'s. Nodes that
//! are not settled read as unreached (`+inf`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kor_graph::{Graph, NodeId};

/// Sentinel for "no next hop" (seed nodes / unreachable nodes).
pub const NO_NODE: u32 = u32::MAX;

/// Bit pattern of `f64::INFINITY`, the unreached cost.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// Which edge attribute the tree minimizes (the other tie-breaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Minimize objective, tie-break budget (`τ` paths).
    Objective,
    /// Minimize budget, tie-break objective (`σ` paths).
    Budget,
}

impl Metric {
    /// `(objective, budget)` in this metric's `(primary, secondary)` order
    /// (the map is its own inverse).
    #[inline]
    fn order(self, objective: f64, budget: f64) -> (f64, f64) {
        match self {
            Metric::Objective => (objective, budget),
            Metric::Budget => (budget, objective),
        }
    }
}

/// Which adjacency a tree relaxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Costs *to* the seeds: scan each settled node's in-edges.
    Backward,
    /// Costs *from* the source: scan each settled node's out-edges.
    Forward,
}

/// Per-node result of a tree computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SptNode {
    /// Accumulated objective score of the chosen path (`+inf` if
    /// unreachable or not settled).
    pub objective: f64,
    /// Accumulated budget score of the chosen path (`+inf` if
    /// unreachable or not settled).
    pub budget: f64,
    /// Next hop toward the seed set (backward trees) or predecessor on the
    /// path from the source (forward trees); [`NO_NODE`] at seeds, the
    /// source, and unreachable nodes.
    pub link: u32,
}

impl SptNode {
    const UNREACHED: SptNode = SptNode {
        objective: f64::INFINITY,
        budget: f64::INFINITY,
        link: NO_NODE,
    };

    /// Whether the node can reach (or be reached from) the seed set.
    #[inline]
    pub fn is_reachable(&self) -> bool {
        self.objective.is_finite()
    }
}

/// A shortest-path tree (forward or backward), possibly still growing.
///
/// `words` is the one per-tree allocation, laid out as
/// `[primary bits; n] [secondary bits; n] [links, two per word]
/// [settled bits]`. Values of unsettled nodes are tentative and never
/// leave the tree: every accessor reads them as unreached.
#[derive(Debug, Clone)]
pub struct Tree {
    metric: Metric,
    direction: Direction,
    n: usize,
    words: Vec<u64>,
    /// Frontier entries `(primary, secondary, node)`; an entry whose node
    /// is settled is stale and skipped.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    settled_count: usize,
}

impl Tree {
    fn seeded(
        n: usize,
        metric: Metric,
        direction: Direction,
        seeds: &[(NodeId, f64, f64)],
    ) -> Self {
        let links = n.div_ceil(2);
        let mut words = vec![INF_BITS; 2 * n];
        words.resize(2 * n + links, u64::MAX);
        words.resize(2 * n + links + n.div_ceil(64), 0);
        let mut tree = Tree {
            metric,
            direction,
            n,
            words,
            heap: BinaryHeap::new(),
            settled_count: 0,
        };
        for &(seed, objective, budget) in seeds {
            let (p, s) = metric.order(objective, budget);
            tree.offer(seed.0, p.to_bits(), s.to_bits(), NO_NODE);
        }
        tree
    }

    /// A backward tree toward `seeds` with nothing settled yet: grow it
    /// with [`Self::grow_to`], [`Self::grow_to_cover`] or [`Self::finish`].
    pub(crate) fn backward(graph: &Graph, metric: Metric, seeds: &[(NodeId, f64, f64)]) -> Self {
        Self::seeded(graph.node_count(), metric, Direction::Backward, seeds)
    }

    #[inline]
    fn settled_off(&self) -> usize {
        2 * self.n + self.n.div_ceil(2)
    }

    #[inline]
    fn key(&self, v: u32) -> (u64, u64) {
        let i = v as usize;
        (self.words[i], self.words[self.n + i])
    }

    #[inline]
    fn link(&self, v: u32) -> u32 {
        let w = self.words[2 * self.n + v as usize / 2];
        (w >> (32 * (v & 1))) as u32
    }

    /// Records a tentative `(primary, secondary)` for `v` via `link` if it
    /// is strictly smaller than the current one, and queues it.
    #[inline]
    fn offer(&mut self, v: u32, p: u64, s: u64, link: u32) {
        if (p, s) < self.key(v) {
            let i = v as usize;
            self.words[i] = p;
            self.words[self.n + i] = s;
            let w = &mut self.words[2 * self.n + i / 2];
            let shift = 32 * (v & 1);
            *w = (*w & !(u64::from(u32::MAX) << shift)) | (u64::from(link) << shift);
            self.heap.push(Reverse((p, s, v)));
        }
    }

    /// Whether `v`'s costs are final.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.words[self.settled_off() + v.index() / 64] & (1u64 << (v.index() % 64)) != 0
    }

    /// The settled set as a bitset, one bit per node, `⌈n/64⌉` words.
    pub fn settled_words(&self) -> &[u64] {
        &self.words[self.settled_off()..]
    }

    /// Number of settled nodes.
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Whether the search has run to exhaustion: every node the seeds
    /// reach is settled, as in an unbounded run.
    pub(crate) fn is_complete(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops frontier entries while `admit(primary bits, node)` accepts the
    /// smallest one, settling and relaxing each. Stops with the first
    /// rejected entry still queued, so a later call continues exactly
    /// where this one left off.
    fn advance(&mut self, graph: &Graph, mut admit: impl FnMut(u64, u32) -> bool) {
        assert_eq!(graph.node_count(), self.n, "tree grown on another graph");
        let off = self.settled_off();
        while let Some(&Reverse((p, _, v))) = self.heap.peek() {
            let (word, bit) = (off + v as usize / 64, 1u64 << (v % 64));
            if self.words[word] & bit != 0 {
                self.heap.pop(); // stale: v settled at a smaller key
                continue;
            }
            if !admit(p, v) {
                break;
            }
            self.heap.pop();
            self.words[word] |= bit;
            self.settled_count += 1;
            let node = NodeId(v);
            let edges = match self.direction {
                Direction::Backward => graph.in_slices(node),
                Direction::Forward => graph.out_slices(node),
            };
            self.relax(v, edges);
        }
    }

    #[inline]
    fn relax(&mut self, v: u32, (nodes, objective, budget): (&[NodeId], &[f64], &[f64])) {
        let (p, s) = self.key(v);
        let (p, s) = (f64::from_bits(p), f64::from_bits(s));
        let (primary, secondary) = match self.metric {
            Metric::Objective => (objective, budget),
            Metric::Budget => (budget, objective),
        };
        for ((u, ep), es) in nodes.iter().zip(primary).zip(secondary) {
            self.offer(u.0, (p + ep).to_bits(), (s + es).to_bits(), v);
        }
    }

    /// Settles every node whose primary cost is at most `radius` (with
    /// `+inf`, runs to exhaustion).
    pub(crate) fn grow_to(&mut self, graph: &Graph, radius: f64) {
        self.advance(graph, |p, _| f64::from_bits(p) <= radius);
    }

    /// Settles nodes until every node `other` has settled is settled here
    /// too. `other` must be a tree over the same graph whose settled
    /// nodes this tree reaches (for example the other-metric tree toward
    /// the same seeds) — otherwise this runs to exhaustion.
    pub(crate) fn grow_to_cover(&mut self, graph: &Graph, other: &Tree) {
        let mut pending: usize = other
            .settled_words()
            .iter()
            .zip(self.settled_words())
            .map(|(o, s)| (o & !s).count_ones() as usize)
            .sum();
        self.advance(graph, |_, v| {
            if pending == 0 {
                return false;
            }
            if other.is_settled(NodeId(v)) {
                pending -= 1;
            }
            true
        });
    }

    /// Runs the search to exhaustion.
    pub(crate) fn finish(&mut self, graph: &Graph) {
        self.advance(graph, |_, _| true);
    }

    /// The minimized metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Per-node costs and link (`+inf` costs and [`NO_NODE`] if `v` is
    /// not settled).
    #[inline]
    pub fn node(&self, v: NodeId) -> SptNode {
        if !self.is_settled(v) {
            return SptNode::UNREACHED;
        }
        let (p, s) = self.key(v.0);
        let (objective, budget) = self.metric.order(f64::from_bits(p), f64::from_bits(s));
        SptNode {
            objective,
            budget,
            link: self.link(v.0),
        }
    }

    /// The primary cost of `v` (objective for [`Metric::Objective`],
    /// budget for [`Metric::Budget`]); `+inf` if not settled.
    #[inline]
    pub(crate) fn primary(&self, v: NodeId) -> f64 {
        if self.is_settled(v) {
            f64::from_bits(self.words[v.index()])
        } else {
            f64::INFINITY
        }
    }

    /// The secondary (tie-break) cost of `v`; `+inf` if not settled.
    #[inline]
    pub(crate) fn secondary(&self, v: NodeId) -> f64 {
        if self.is_settled(v) {
            f64::from_bits(self.words[self.n + v.index()])
        } else {
            f64::INFINITY
        }
    }

    /// Objective score of the chosen path for `v` (`+inf` if unreachable
    /// or not settled).
    #[inline]
    pub fn objective(&self, v: NodeId) -> f64 {
        match self.metric {
            Metric::Objective => self.primary(v),
            Metric::Budget => self.secondary(v),
        }
    }

    /// Budget score of the chosen path for `v` (`+inf` if unreachable or
    /// not settled).
    #[inline]
    pub fn budget(&self, v: NodeId) -> f64 {
        match self.metric {
            Metric::Objective => self.secondary(v),
            Metric::Budget => self.primary(v),
        }
    }

    /// Whether `v` is settled and connected to the seed set / source.
    #[inline]
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.objective(v).is_finite()
    }

    /// For a **backward** tree: the node sequence `v, …, seed` following
    /// forward edges. `None` if unreachable. Every node on the walk is
    /// settled: a link points at the node whose settlement relaxed it.
    pub fn walk_to_seed(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_reachable(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v.0;
        while self.link(cur) != NO_NODE {
            cur = self.link(cur);
            path.push(NodeId(cur));
        }
        Some(path)
    }

    /// For a **forward** tree: the node sequence `source, …, v`. `None` if
    /// unreachable.
    pub fn walk_from_source(&self, v: NodeId) -> Option<Vec<NodeId>> {
        let mut path = self.walk_to_seed(v)?;
        path.reverse();
        Some(path)
    }

    /// The seed (terminal) node of `v`'s backward path — for multi-seed
    /// trees this identifies the nearest seed. `None` if unreachable.
    pub fn terminal(&self, v: NodeId) -> Option<NodeId> {
        if !self.is_reachable(v) {
            return None;
        }
        let mut cur = v.0;
        while self.link(cur) != NO_NODE {
            cur = self.link(cur);
        }
        Some(NodeId(cur))
    }
}

/// Computes a backward tree: for every node `v`, the lexicographically
/// minimal cost of a forward path from `v` into the seed set, where each
/// seed contributes an initial potential `(objective, budget)`.
///
/// With a single seed `(t, 0, 0)` and [`Metric::Objective`] this yields
/// `OS(τ_{v,t})` / `BS(τ_{v,t})` for all `v` — the to-target bounds used
/// throughout Algorithms 1 and 2.
pub fn backward_tree(graph: &Graph, metric: Metric, seeds: &[(NodeId, f64, f64)]) -> Tree {
    let mut tree = Tree::backward(graph, metric, seeds);
    tree.finish(graph);
    tree
}

/// Computes a forward tree: costs of paths **from** `source` to every
/// node. Used by the greedy algorithm's pairwise lookups.
pub fn forward_tree(graph: &Graph, metric: Metric, source: NodeId) -> Tree {
    let mut tree = Tree::seeded(
        graph.node_count(),
        metric,
        Direction::Forward,
        &[(source, 0.0, 0.0)],
    );
    tree.finish(graph);
    tree
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};
    use kor_graph::GraphBuilder;

    #[test]
    fn tau_to_target_matches_paper() {
        // §3.1: τ(0,7) has OS 4, BS 7; Example 2: OS(τ3,7)=2 with BS 5,
        // OS(τ5,7)=3 with BS 4.
        let g = figure1();
        let tau = backward_tree(&g, Metric::Objective, &[(v(7), 0.0, 0.0)]);
        assert_eq!(tau.objective(v(0)), 4.0);
        assert_eq!(tau.budget(v(0)), 7.0);
        assert_eq!(tau.objective(v(3)), 2.0);
        assert_eq!(tau.budget(v(3)), 5.0);
        assert_eq!(tau.objective(v(5)), 3.0);
        assert_eq!(tau.budget(v(5)), 4.0);
        assert_eq!(
            tau.walk_to_seed(v(0)).unwrap(),
            vec![v(0), v(3), v(4), v(7)]
        );
    }

    #[test]
    fn sigma_to_target_matches_paper() {
        // §3.1: σ(0,7) has OS 9, BS 5; Example 2: BS(σ6,7) = 7.
        let g = figure1();
        let sigma = backward_tree(&g, Metric::Budget, &[(v(7), 0.0, 0.0)]);
        assert_eq!(sigma.budget(v(0)), 5.0);
        assert_eq!(sigma.objective(v(0)), 9.0);
        assert_eq!(sigma.budget(v(6)), 7.0);
        assert_eq!(
            sigma.walk_to_seed(v(0)).unwrap(),
            vec![v(0), v(3), v(5), v(7)]
        );
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let g = figure1();
        // v1 (keyword t5) has no outgoing edges, so it cannot reach v7.
        let tau = backward_tree(&g, Metric::Objective, &[(v(7), 0.0, 0.0)]);
        assert!(!tau.is_reachable(v(1)));
        assert!(tau.objective(v(1)).is_infinite());
        assert_eq!(tau.walk_to_seed(v(1)), None);
        assert_eq!(tau.terminal(v(1)), None);
    }

    #[test]
    fn seed_has_zero_cost_and_is_own_terminal() {
        let g = figure1();
        let tau = backward_tree(&g, Metric::Objective, &[(v(7), 0.0, 0.0)]);
        assert_eq!(tau.objective(v(7)), 0.0);
        assert_eq!(tau.budget(v(7)), 0.0);
        assert_eq!(tau.terminal(v(7)), Some(v(7)));
        assert_eq!(tau.walk_to_seed(v(7)).unwrap(), vec![v(7)]);
    }

    #[test]
    fn multi_seed_picks_nearest() {
        let g = figure1();
        // Seeds at the two t1 nodes, v3 and v6, minimizing budget: from v2
        // the nearest t1 node by budget is v6 (edge budget 1) not v3 (2).
        let t1_tree = backward_tree(&g, Metric::Budget, &[(v(3), 0.0, 0.0), (v(6), 0.0, 0.0)]);
        assert_eq!(t1_tree.budget(v(2)), 1.0);
        assert_eq!(t1_tree.terminal(v(2)), Some(v(6)));
        assert_eq!(t1_tree.budget(v(0)), 2.0);
        assert_eq!(t1_tree.terminal(v(0)), Some(v(3)));
    }

    #[test]
    fn potentials_shift_the_optimum() {
        let g = figure1();
        // Same seeds, but v6 starts with a potential of 5 budget: now v3
        // wins from v2 (2 < 1+5).
        let tree = backward_tree(&g, Metric::Budget, &[(v(3), 0.0, 0.0), (v(6), 0.0, 5.0)]);
        assert_eq!(tree.budget(v(2)), 2.0);
        assert_eq!(tree.terminal(v(2)), Some(v(3)));
    }

    #[test]
    fn forward_tree_from_source() {
        let g = figure1();
        let from0 = forward_tree(&g, Metric::Objective, v(0));
        assert_eq!(from0.objective(v(7)), 4.0);
        assert_eq!(from0.budget(v(7)), 7.0);
        assert_eq!(
            from0.walk_from_source(v(7)).unwrap(),
            vec![v(0), v(3), v(4), v(7)]
        );
        assert_eq!(from0.objective(v(0)), 0.0);
    }

    #[test]
    fn lexicographic_tie_break_prefers_smaller_secondary() {
        // Two parallel routes with equal objective but different budget:
        // the tree must pick the cheaper-budget one.
        let mut b = GraphBuilder::new();
        let s = b.add_node(["s"]);
        let a = b.add_node(["a"]);
        let c = b.add_node(["c"]);
        let t = b.add_node(["t"]);
        b.add_edge(s, a, 1.0, 10.0).unwrap();
        b.add_edge(a, t, 1.0, 10.0).unwrap();
        b.add_edge(s, c, 1.0, 1.0).unwrap();
        b.add_edge(c, t, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let tau = backward_tree(&g, Metric::Objective, &[(t, 0.0, 0.0)]);
        assert_eq!(tau.objective(s), 2.0);
        assert_eq!(tau.budget(s), 2.0);
        assert_eq!(tau.walk_to_seed(s).unwrap(), vec![s, c, t]);
    }

    #[test]
    fn empty_seed_set_reaches_nothing() {
        let g = figure1();
        let tree = backward_tree(&g, Metric::Budget, &[]);
        for n in g.nodes() {
            assert!(!tree.is_reachable(n));
        }
    }

    /// Seeded random digraph with small integer weights, so equal-cost
    /// ties (the tie-break order's whole job) are everywhere.
    pub(crate) fn random_graph(seed: u64) -> Graph {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..40);
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(["k"])).collect();
        for _ in 0..rng.gen_range(n..4 * n) {
            let (u, w) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != w {
                let o = f64::from(rng.gen_range(1u32..4));
                let c = f64::from(rng.gen_range(1u32..4)) * 0.5;
                let _ = b.add_edge(nodes[u], nodes[w], o, c);
            }
        }
        b.build().unwrap()
    }

    fn same_bits(a: SptNode, b: SptNode) -> bool {
        a.objective.to_bits() == b.objective.to_bits()
            && a.budget.to_bits() == b.budget.to_bits()
            && a.link == b.link
    }

    /// A tree grown through a random radius sequence equals the unbounded
    /// tree bit for bit on every settled node, settles every node within
    /// the largest radius so far, and — finished — equals it everywhere.
    #[test]
    fn resumed_growth_matches_the_unbounded_tree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..200u64 {
            let g = random_graph(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let n = g.node_count() as u32;
            let seeds: Vec<(NodeId, f64, f64)> = (0..rng.gen_range(1usize..3))
                .map(|_| {
                    (
                        NodeId(rng.gen_range(0..n)),
                        f64::from(rng.gen_range(0u32..3)),
                        0.0,
                    )
                })
                .collect();
            for metric in [Metric::Objective, Metric::Budget] {
                let full = backward_tree(&g, metric, &seeds);
                let mut grown = Tree::backward(&g, metric, &seeds);
                let mut reached = f64::NEG_INFINITY;
                for _ in 0..rng.gen_range(1usize..5) {
                    let radius = f64::from(rng.gen_range(0u32..24)) * 0.5;
                    grown.grow_to(&g, radius);
                    reached = reached.max(radius);
                    for v in g.nodes() {
                        let primary = match metric {
                            Metric::Objective => full.objective(v),
                            Metric::Budget => full.budget(v),
                        };
                        if grown.is_settled(v) {
                            assert!(same_bits(grown.node(v), full.node(v)), "seed {seed} {v}");
                        } else {
                            assert!(primary > reached, "seed {seed}: {v} within the radius");
                            assert!(!grown.is_reachable(v) && grown.walk_to_seed(v).is_none());
                        }
                    }
                }
                grown.finish(&g);
                assert!(grown.is_complete());
                for v in g.nodes() {
                    assert!(same_bits(grown.node(v), full.node(v)), "seed {seed} {v}");
                }
                assert_eq!(grown.settled_words(), full.settled_words());
            }
        }
    }

    #[test]
    fn grow_to_cover_settles_the_other_trees_nodes() {
        for seed in 0..100u64 {
            let g = random_graph(seed);
            let seeds = [(NodeId(0), 0.0, 0.0)];
            let mut sigma = Tree::backward(&g, Metric::Budget, &seeds);
            sigma.grow_to(&g, 2.0);
            let mut tau = Tree::backward(&g, Metric::Objective, &seeds);
            tau.grow_to_cover(&g, &sigma);
            let full = backward_tree(&g, Metric::Objective, &seeds);
            for v in g.nodes() {
                if sigma.is_settled(v) {
                    assert!(tau.is_settled(v), "seed {seed}: {v} not covered");
                }
                if tau.is_settled(v) {
                    assert!(same_bits(tau.node(v), full.node(v)), "seed {seed} {v}");
                }
            }
        }
    }

    #[test]
    fn metric_accessor() {
        let g = figure1();
        let tree = backward_tree(&g, Metric::Budget, &[(v(7), 0.0, 0.0)]);
        assert_eq!(tree.metric(), Metric::Budget);
    }
}
