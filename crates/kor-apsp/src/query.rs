//! Per-query to-target cost context.

use kor_graph::{Graph, NodeId, Route};

use crate::pair::PathCost;
use crate::tree::{Metric, Tree};

/// The to-target pre-processing values consumed by Algorithms 1 and 2.
///
/// For a query targeting `v_t`, the label algorithms read four quantities
/// per node `v_i`:
///
/// * `OS(τ_{i,t})`, `BS(τ_{i,t})` — scores of the minimum-objective path
///   to the target (upper-bound updates and pruning, Alg. 1 lines 7/10/17);
/// * `BS(σ_{i,t})`, `OS(σ_{i,t})` — scores of the minimum-budget path to
///   the target (budget feasibility, Alg. 1 line 10).
///
/// Computed with two backward Dijkstra trees, which also reconstruct the
/// completion paths needed to materialize result routes — values identical
/// to a [`crate::DenseApsp`] row.
///
/// # Radius
///
/// Algorithms 1 and 2 discard every label with `BS(L) + BS(σ_{v,t}) > Δ`,
/// so a search with budget `Δ` only ever needs exact values inside the
/// **ball** `{v : BS(σ_{v,t}) ≤ Δ}`. A context built [`Self::within`]
/// radius `Δ` settles `σ` over exactly that ball, then grows `τ` until
/// every ball node is settled in it too; every other node reads `+inf`
/// (unreachable). Settled values are bit-identical to the unbounded
/// trees'. [`Self::grow`] extends a context to a larger radius from its
/// saved frontiers, never rebuilding; radius `+inf` is the unbounded
/// build, and [`Self::new`] is exactly that.
///
/// The context owns its trees outright (no borrow of the graph), so
/// long-lived services can keep contexts for popular targets in a shared
/// cache behind `Arc` and skip the two Dijkstras on repeat queries — see
/// `kor_core`'s pre-processing cache.
#[derive(Debug, Clone)]
pub struct QueryContext {
    target: NodeId,
    tau: Tree,
    sigma: Tree,
    radius: f64,
}

impl QueryContext {
    /// Builds the two complete to-target trees for `target`.
    pub fn new(graph: &Graph, target: NodeId) -> Self {
        Self::within(graph, target, f64::INFINITY, target)
    }

    /// Builds the trees for `target` out to `radius`, and further when
    /// needed to settle `source`: a source outside the ball (or unable to
    /// reach the target) gets the unbounded trees, so it reads exactly
    /// what [`Self::new`] would give it.
    pub fn within(graph: &Graph, target: NodeId, radius: f64, source: NodeId) -> Self {
        let seeds = [(target, 0.0, 0.0)];
        let mut ctx = Self {
            target,
            tau: Tree::backward(graph, Metric::Objective, &seeds),
            sigma: Tree::backward(graph, Metric::Budget, &seeds),
            radius: f64::NEG_INFINITY,
        };
        ctx.grow(graph, radius, source);
        ctx
    }

    /// Whether this context answers a search with budget `radius` from
    /// `source` exactly as the unbounded context would.
    pub fn serves(&self, radius: f64, source: NodeId) -> bool {
        self.radius == f64::INFINITY || (radius <= self.radius && self.covers(source))
    }

    /// Extends the trees from their saved frontiers until the context
    /// [`serves`](Self::serves) `(radius, source)`; a no-op if it already
    /// does. `graph` must be the graph the context was built on, or a
    /// mutated graph whose changed edge heads none of its trees settled
    /// (what a cache's stamp check guarantees on carry-over).
    pub fn grow(&mut self, graph: &Graph, radius: f64, source: NodeId) {
        if radius > self.radius {
            self.sigma.grow_to(graph, radius);
            self.tau.grow_to_cover(graph, &self.sigma);
            self.radius = radius;
        }
        // A source outside the ball gets the full trees; so does a ball
        // that already holds every reachable node (τ then has at most
        // stale entries left).
        if !self.serves(radius, source) || self.sigma.is_complete() {
            self.sigma.finish(graph);
            self.tau.finish(graph);
            self.radius = f64::INFINITY;
        }
    }

    /// The radius the context was grown to: every node with
    /// `BS(σ_{v,t})` at most this is settled; `+inf` once complete.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Whether `v` lies inside the settled ball (its `σ` is final).
    #[inline]
    pub(crate) fn covers(&self, v: NodeId) -> bool {
        self.sigma.is_settled(v)
    }

    /// The `τ` and `σ` trees (for their settled sets and sizes).
    pub fn trees(&self) -> [&Tree; 2] {
        [&self.tau, &self.sigma]
    }

    /// The target node `v_t`.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Whether `i` can reach the target (`false` outside the radius).
    #[inline]
    pub fn reaches_target(&self, i: NodeId) -> bool {
        self.tau.is_reachable(i)
    }

    /// Scores of `τ_{i,t}`, or `None` if the target is unreachable (or
    /// `i` lies outside the radius).
    #[inline]
    pub fn tau_to_target(&self, i: NodeId) -> Option<PathCost> {
        self.tau.is_reachable(i).then(|| PathCost {
            objective: self.tau.objective(i),
            budget: self.tau.budget(i),
        })
    }

    /// Scores of `σ_{i,t}`, or `None` if the target is unreachable (or
    /// `i` lies outside the radius).
    #[inline]
    pub fn sigma_to_target(&self, i: NodeId) -> Option<PathCost> {
        self.sigma.is_reachable(i).then(|| PathCost {
            objective: self.sigma.objective(i),
            budget: self.sigma.budget(i),
        })
    }

    /// `OS(τ_{i,t})` with `+inf` for unreachable nodes and nodes outside
    /// the radius (pruning-friendly).
    #[inline]
    pub fn os_tau(&self, i: NodeId) -> f64 {
        self.tau.primary(i)
    }

    /// `BS(τ_{i,t})` with `+inf` for unreachable nodes.
    #[inline]
    pub fn bs_tau(&self, i: NodeId) -> f64 {
        self.tau.secondary(i)
    }

    /// `BS(σ_{i,t})` with `+inf` for unreachable nodes.
    #[inline]
    pub fn bs_sigma(&self, i: NodeId) -> f64 {
        self.sigma.primary(i)
    }

    /// `OS(σ_{i,t})` with `+inf` for unreachable nodes.
    #[inline]
    pub fn os_sigma(&self, i: NodeId) -> f64 {
        self.sigma.secondary(i)
    }

    /// The completion path `τ_{i,t}` as a route.
    pub fn tau_route(&self, i: NodeId) -> Option<Route> {
        self.tau.walk_to_seed(i).map(Route::new)
    }

    /// The completion path `σ_{i,t}` as a route.
    pub fn sigma_route(&self, i: NodeId) -> Option<Route> {
        self.sigma.walk_to_seed(i).map(Route::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};

    #[test]
    fn to_target_values_match_paper() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        assert_eq!(ctx.target(), v(7));
        let tau0 = ctx.tau_to_target(v(0)).unwrap();
        assert_eq!((tau0.objective, tau0.budget), (4.0, 7.0));
        let sigma0 = ctx.sigma_to_target(v(0)).unwrap();
        assert_eq!((sigma0.objective, sigma0.budget), (9.0, 5.0));
        assert_eq!(ctx.os_tau(v(3)), 2.0);
        assert_eq!(ctx.bs_tau(v(3)), 5.0);
        assert_eq!(ctx.bs_sigma(v(6)), 7.0);
        assert_eq!(ctx.os_tau(v(5)), 3.0);
        assert_eq!(ctx.bs_tau(v(5)), 4.0);
    }

    #[test]
    fn unreachable_nodes() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        assert!(!ctx.reaches_target(v(1)));
        assert!(ctx.os_tau(v(1)).is_infinite());
        assert!(ctx.tau_to_target(v(1)).is_none());
        assert!(ctx.sigma_to_target(v(1)).is_none());
        assert!(ctx.tau_route(v(1)).is_none());
    }

    #[test]
    fn completion_routes_materialize() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        let r = ctx.tau_route(v(3)).unwrap();
        assert_eq!(r.nodes(), &[v(3), v(4), v(7)]);
        assert_eq!(r.scores(&g).unwrap(), (2.0, 5.0));
        let s = ctx.sigma_route(v(0)).unwrap();
        assert_eq!(s.nodes(), &[v(0), v(3), v(5), v(7)]);
    }

    fn assert_same_on_ball(bounded: &QueryContext, full: &QueryContext, g: &Graph) {
        for v in g.nodes() {
            if bounded.covers(v) {
                let [bt, bs] = bounded.trees();
                let [ft, fs] = full.trees();
                assert_eq!(bt.node(v), ft.node(v), "{v}");
                assert_eq!(bs.node(v), fs.node(v), "{v}");
                assert_eq!(bounded.tau_route(v), full.tau_route(v));
            } else {
                assert!(bounded.bs_sigma(v) == f64::INFINITY);
                assert!(
                    !full.reaches_target(v) || full.bs_sigma(v) > bounded.radius(),
                    "{v} inside the ball"
                );
            }
        }
    }

    #[test]
    fn bounded_context_matches_full_inside_the_ball() {
        let g = figure1();
        let full = QueryContext::new(&g, v(7));
        assert_eq!(full.radius(), f64::INFINITY);
        for radius in [0.0, 2.0, 4.0, 5.0, 7.0] {
            let ctx = QueryContext::within(&g, v(7), radius, v(7));
            assert!(ctx.serves(radius, v(7)));
            assert_same_on_ball(&ctx, &full, &g);
        }
        // σ(v0 → v7) = 5: a radius-4 ball misses the source, so the
        // context widens to the full trees.
        let ctx = QueryContext::within(&g, v(7), 4.0, v(0));
        assert_eq!(ctx.radius(), f64::INFINITY);
        assert!(ctx.reaches_target(v(0)));
    }

    #[test]
    fn growth_extends_without_rebuilding() {
        let g = figure1();
        let full = QueryContext::new(&g, v(7));
        let mut ctx = QueryContext::within(&g, v(7), 2.0, v(7));
        assert_eq!(ctx.radius(), 2.0);
        assert!(!ctx.serves(5.0, v(7)));
        ctx.grow(&g, 5.0, v(0));
        assert_eq!(ctx.radius(), 5.0);
        assert!(ctx.serves(5.0, v(0)) && ctx.serves(3.0, v(0)));
        assert_same_on_ball(&ctx, &full, &g);
        ctx.grow(&g, f64::INFINITY, v(7));
        assert_eq!(ctx.radius(), f64::INFINITY);
        for n in g.nodes() {
            assert_eq!(ctx.os_tau(n).to_bits(), full.os_tau(n).to_bits());
            assert_eq!(ctx.bs_sigma(n).to_bits(), full.bs_sigma(n).to_bits());
        }
    }

    /// Contexts grown through random radius sequences from random
    /// sources read exactly the unbounded values inside their ball, and
    /// `τ` covers the whole `σ` ball (objective and budget weights differ,
    /// so neither ball contains the other by accident).
    #[test]
    fn bounded_context_matches_full_on_random_graphs() {
        use crate::tree::tests::random_graph;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..150u64 {
            let g = random_graph(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
            let n = g.node_count() as u32;
            let target = NodeId(rng.gen_range(0..n));
            let full = QueryContext::new(&g, target);
            let source = NodeId(rng.gen_range(0..n));
            let mut ctx = QueryContext::within(&g, target, 1.0, source);
            for _ in 0..4 {
                assert_same_on_ball(&ctx, &full, &g);
                for v in g.nodes() {
                    if full.reaches_target(v) && full.bs_sigma(v) <= ctx.radius() {
                        assert!(ctx.covers(v), "seed {seed}: {v} missing from the ball");
                    }
                }
                assert!(ctx.serves(ctx.radius(), source));
                let (radius, source) = (
                    f64::from(rng.gen_range(0u32..16)) * 0.5,
                    NodeId(rng.gen_range(0..n)),
                );
                ctx.grow(&g, radius, source);
                assert!(ctx.serves(radius, source), "seed {seed}");
            }
        }
    }

    #[test]
    fn target_costs_zero() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        assert_eq!(ctx.os_tau(v(7)), 0.0);
        assert_eq!(ctx.bs_sigma(v(7)), 0.0);
        assert_eq!(ctx.tau_route(v(7)).unwrap().nodes(), &[v(7)]);
    }
}
