//! The label-search engine: `OSScaling` (Algorithm 1), its exact-dominance
//! variant, and the KkR top-k extension (§3.5).
//!
//! One engine implements all three because they share every mechanism —
//! label creation (Definition 7), dominance (Definition 6 / k-dominance),
//! the priority order (Definition 8), the feasibility and upper-bound
//! pruning of Algorithm 1, and the two optimization strategies — and
//! differ only in the dominance key (scaled vs. exact objective) and in
//! how many result routes are tracked.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use kor_apsp::{KeywordReach, QueryContext};
use kor_graph::{Graph, KeywordId, NodeId, QueryKeywords, Route};
use kor_index::InvertedIndex;

use crate::cache::{build_opt2_trees, Opt2Trees, PreprocessCache};
use crate::dominance::{DomMode, LabelStore};
use crate::error::KorError;
use crate::label::{Label, LabelArena, LabelSnapshot, NO_LABEL};
use crate::params::{OsScalingParams, ScaleAnchor};
use crate::query::KorQuery;
use crate::result::{RouteResult, SearchResult, TopKResult};
use crate::scale::Scaler;
use crate::stats::SearchStats;

/// How many queue pops pass between two deadline checks. Calling
/// `Instant::now()` per pop costs a syscall-ish vDSO hit in the hottest
/// loop of the engine; a stride this size keeps deadline latency well
/// under a millisecond while making the check free in the aggregate.
/// The first pop always checks, so an already-expired deadline aborts
/// before any work happens.
pub(crate) const DEADLINE_STRIDE: u64 = 1024;

/// Strided deadline checker shared by every search loop.
///
/// The counter is **per search** — one ticker lives for the whole engine
/// run, never reset per bucket or beam — so a deadline can be starved by
/// at most `DEADLINE_STRIDE − 1` pops no matter how the queue is
/// structured. The first call always checks, so an already-expired
/// deadline aborts before any expansion work happens.
pub(crate) struct DeadlineTicker {
    deadline: Option<Instant>,
    pops: u64,
}

impl DeadlineTicker {
    pub(crate) fn new(deadline: Option<Instant>) -> Self {
        Self { deadline, pops: 0 }
    }

    /// Counts one queue pop; errors with
    /// [`KorError::DeadlineExceeded`] when a configured deadline has
    /// passed at a checked pop (the first, then every
    /// `DEADLINE_STRIDE`-th).
    #[inline]
    pub(crate) fn tick(&mut self) -> Result<(), KorError> {
        if self.pops % DEADLINE_STRIDE == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(KorError::DeadlineExceeded);
                }
            }
        }
        self.pops += 1;
        Ok(())
    }
}

/// The scaler for a search: anchored to pinned reference extrema when
/// the params carry a [`ScaleAnchor`], otherwise read from `graph`.
pub(crate) fn scaler_for(
    graph: &Graph,
    anchor: Option<ScaleAnchor>,
    epsilon: f64,
    delta: f64,
) -> Scaler {
    match anchor {
        Some(a) => Scaler::from_extrema(a.o_min, a.b_min, epsilon, delta),
        None => Scaler::new(graph, epsilon, delta),
    }
}

/// Runs `OSScaling` (Algorithm 1): the `1/(1−ε)`-approximation.
pub fn os_scaling(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    params: &OsScalingParams,
) -> Result<SearchResult, KorError> {
    os_scaling_with_cache(graph, index, query, params, None)
}

/// [`os_scaling`] reusing a shared [`PreprocessCache`] for the to-target
/// trees and Opt-2 bounds. Results are byte-identical to the cold path;
/// only the setup cost changes. `None` builds everything per call.
pub fn os_scaling_with_cache(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    params: &OsScalingParams,
    cache: Option<&PreprocessCache>,
) -> Result<SearchResult, KorError> {
    params.validate()?;
    let cfg = EngineConfig {
        mode: ScoreMode::Scaled(scaler_for(
            graph,
            params.anchor,
            params.epsilon,
            query.budget,
        )),
        k: 1,
        use_opt1: params.use_opt1,
        use_opt2: params.use_opt2,
        infrequent_threshold: params.infrequent_threshold,
        collect_labels: params.collect_labels,
        deadline: params.deadline,
    };
    let mut engine = Engine::new(graph, index, query, cfg, cache);
    let mut routes = engine.run()?;
    Ok(SearchResult {
        route: routes.pop(),
        stats: engine.stats,
        labels: engine.snapshots,
    })
}

/// Runs the exact variant: label dominance on unscaled objective scores,
/// which preserves at least one optimal label chain and therefore returns
/// the true optimum (the `ε → 0` limit of `OSScaling`). Exponentially
/// more labels in the worst case — intended as the accuracy ground truth.
pub fn exact_labeling(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
) -> Result<SearchResult, KorError> {
    exact_labeling_with_deadline(graph, index, query, None)
}

/// [`exact_labeling`] with an optional deadline: the search aborts with
/// [`KorError::DeadlineExceeded`] once `deadline` passes. Long-lived
/// services use this to bound the (worst-case exponential) exact search.
pub fn exact_labeling_with_deadline(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    deadline: Option<Instant>,
) -> Result<SearchResult, KorError> {
    exact_labeling_with_cache(graph, index, query, deadline, None)
}

/// [`exact_labeling_with_deadline`] reusing a shared [`PreprocessCache`].
pub fn exact_labeling_with_cache(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    deadline: Option<Instant>,
    cache: Option<&PreprocessCache>,
) -> Result<SearchResult, KorError> {
    let cfg = EngineConfig {
        mode: ScoreMode::Exact,
        k: 1,
        use_opt1: true,
        use_opt2: true,
        infrequent_threshold: 0.01,
        collect_labels: false,
        deadline,
    };
    let mut engine = Engine::new(graph, index, query, cfg, cache);
    let mut routes = engine.run()?;
    Ok(SearchResult {
        route: routes.pop(),
        stats: engine.stats,
        labels: engine.snapshots,
    })
}

/// Runs the KkR extension of `OSScaling`: k-dominance plus a top-k result
/// set whose k-th objective serves as the pruning bound `U`.
pub fn top_k_os_scaling(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    params: &OsScalingParams,
    k: usize,
) -> Result<TopKResult, KorError> {
    top_k_os_scaling_with_cache(graph, index, query, params, k, None)
}

/// [`top_k_os_scaling`] reusing a shared [`PreprocessCache`].
pub fn top_k_os_scaling_with_cache(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    params: &OsScalingParams,
    k: usize,
    cache: Option<&PreprocessCache>,
) -> Result<TopKResult, KorError> {
    params.validate()?;
    if k == 0 {
        return Err(KorError::InvalidK);
    }
    let cfg = EngineConfig {
        mode: ScoreMode::Scaled(scaler_for(
            graph,
            params.anchor,
            params.epsilon,
            query.budget,
        )),
        k,
        use_opt1: params.use_opt1,
        use_opt2: params.use_opt2,
        infrequent_threshold: params.infrequent_threshold,
        collect_labels: params.collect_labels,
        deadline: params.deadline,
    };
    let mut engine = Engine::new(graph, index, query, cfg, cache);
    let routes = engine.run()?;
    Ok(TopKResult {
        routes,
        stats: engine.stats,
    })
}

/// Acquires the to-target [`QueryContext`] for `query`, from the cache
/// when one is supplied, recording hit/miss/build counters in `stats`.
///
/// The context is bounded at the query's budget `Δ`: a label search
/// reads `τ`/`σ` only inside the `Δ`-ball (every read outside it is for
/// a label Algorithm 1 line 10 discards either way). `unbounded` asks
/// for the full trees instead, as Optimization Strategy 2 seeds from
/// every posting; a source outside the ball widens it the same way (see
/// [`QueryContext::within`]).
pub(crate) fn acquire_context(
    graph: &Graph,
    query: &KorQuery,
    unbounded: bool,
    cache: Option<&PreprocessCache>,
    stats: &mut SearchStats,
) -> Arc<QueryContext> {
    let radius = if unbounded {
        f64::INFINITY
    } else {
        query.budget
    };
    match cache {
        Some(cache) => {
            let (ctx, hit) = cache.context_within(graph, query.target, radius, query.source);
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                stats.trees_built += 2;
            }
            ctx
        }
        None => {
            stats.trees_built += 2;
            Arc::new(QueryContext::within(
                graph,
                query.target,
                radius,
                query.source,
            ))
        }
    }
}

/// The Optimization-Strategy-1 keyword reach for `query`, assembled from
/// cached per-keyword trees when a cache is supplied (each tree depends
/// only on the keyword's postings, so one build serves every query
/// mentioning the keyword), built cold otherwise. Identical either way.
pub(crate) fn acquire_reach(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    cache: Option<&PreprocessCache>,
    stats: &mut SearchStats,
) -> KeywordReach {
    match cache {
        Some(cache) => {
            let trees = query
                .keywords
                .ids()
                .iter()
                .map(|&kw| {
                    let (tree, hit) = cache.reach_tree(graph, kw, index.postings(kw));
                    if hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                        stats.trees_built += 1;
                    }
                    tree
                })
                .collect();
            KeywordReach::from_trees(trees)
        }
        None => KeywordReach::new(
            graph,
            &query.keywords,
            &index.query_postings(&query.keywords),
        ),
    }
}

/// The query-keyword coverage mask for every node, as one flat table.
///
/// The hot loop previously called `keywords.mask_of(graph.keywords(v))`
/// once per child label — a sorted-slice intersection per label. The
/// table is built once per query from the inverted index's postings, so
/// only nodes actually holding a query keyword are touched (plus one
/// zeroed allocation); lookups become a single indexed load. Empty for
/// keyword-less queries, where every mask is zero.
pub(crate) fn query_mask_table(
    node_count: usize,
    keywords: &QueryKeywords,
    index: &InvertedIndex,
) -> Vec<u64> {
    if keywords.is_empty() {
        return Vec::new();
    }
    let mut masks = vec![0u64; node_count];
    for (bit, &kw) in keywords.ids().iter().enumerate() {
        for &node in index.postings(kw) {
            masks[node.index()] |= 1u64 << bit;
        }
    }
    masks
}

/// Objective representation used for dominance and ordering.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScoreMode {
    Scaled(Scaler),
    Exact,
}

impl ScoreMode {
    #[inline]
    pub(crate) fn dom_mode(&self) -> DomMode {
        match self {
            ScoreMode::Scaled(_) => DomMode::Scaled,
            ScoreMode::Exact => DomMode::Exact,
        }
    }

    /// The child's ordering/dominance key after traversing an edge with
    /// objective `edge_obj` from `parent`, where the child's exact
    /// objective is `child_obj`.
    #[inline]
    pub(crate) fn child_key(&self, parent: &Label, edge_obj: f64, child_obj: f64) -> u64 {
        match self {
            // `scale` saturates at `u64::MAX` for overflowing objectives
            // (e.g. after extreme `update_edges` multipliers), so the sum
            // must saturate too — a wrapping add here would panic in
            // debug builds and break key monotonicity in release.
            ScoreMode::Scaled(s) => parent.scaled.saturating_add(s.scale(edge_obj)),
            ScoreMode::Exact => child_obj.to_bits(),
        }
    }
}

struct EngineConfig {
    mode: ScoreMode,
    k: usize,
    use_opt1: bool,
    use_opt2: bool,
    infrequent_threshold: f64,
    collect_labels: bool,
    deadline: Option<Instant>,
}

/// Priority-queue item implementing the label order of Definition 8:
/// more covered keywords first, then smaller scaled objective, then
/// smaller budget, then node id, then creation sequence.
#[derive(PartialEq)]
pub(crate) struct QItem {
    pub(crate) covered: u32,
    pub(crate) key: u64,
    pub(crate) budget: f64,
    pub(crate) node: u32,
    pub(crate) id: u32,
}

impl Eq for QItem {}

impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum, so "pops first" must be "greater".
        self.covered
            .cmp(&other.covered)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.budget.total_cmp(&self.budget))
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A completed (label + τ-completion) candidate route.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) objective: f64,
    pub(crate) budget: f64,
}

/// Sorted top-k candidate set; its k-th objective is the bound `U`.
struct TopSet {
    k: usize,
    items: Vec<Candidate>,
}

impl TopSet {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k),
        }
    }

    /// Current upper bound `U`: the k-th best objective, `+inf` while
    /// fewer than `k` candidates exist.
    fn bound(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items.last().expect("k ≥ 1").objective
        }
    }

    /// Inserts if the candidate improves the set; returns whether it did.
    /// Candidates describing a route already in the set are ignored: a
    /// label and its extensions along the τ-completion materialize the
    /// same final route.
    fn insert(&mut self, c: Candidate) -> bool {
        if c.objective >= self.bound() {
            return false;
        }
        if self.items.iter().any(|x| x.nodes == c.nodes) {
            return false;
        }
        let at = self
            .items
            .partition_point(|x| (x.objective, x.budget) <= (c.objective, c.budget));
        self.items.insert(at, c);
        self.items.truncate(self.k);
        true
    }
}

/// Optimization Strategy 2 state: the infrequent query keyword bit plus
/// the two "through an infrequent-keyword node" lower-bound trees
/// (shared with the pre-processing cache when one is in use).
pub(crate) struct Opt2 {
    pub(crate) bit_mask: u64,
    pub(crate) trees: Arc<Opt2Trees>,
}

struct Engine<'a> {
    graph: &'a Graph,
    query: &'a KorQuery,
    cfg: EngineConfig,
    ctx: Arc<QueryContext>,
    /// Per-node query-keyword masks (empty ⇒ all zero).
    masks: Vec<u64>,
    reach: Option<KeywordReach>,
    opt2: Option<Opt2>,
    arena: LabelArena,
    store: LabelStore,
    heap: BinaryHeap<QItem>,
    top: TopSet,
    pub stats: SearchStats,
    pub snapshots: Vec<LabelSnapshot>,
}

impl<'a> Engine<'a> {
    fn new(
        graph: &'a Graph,
        index: &'a InvertedIndex,
        query: &'a KorQuery,
        cfg: EngineConfig,
        cache: Option<&PreprocessCache>,
    ) -> Self {
        let mut stats = SearchStats::default();
        let opt2_kw = opt2_keyword(graph, index, query, cfg.use_opt2, cfg.infrequent_threshold);
        let ctx = acquire_context(graph, query, opt2_kw.is_some(), cache, &mut stats);
        let masks = query_mask_table(graph.node_count(), &query.keywords, index);
        let reach = (cfg.use_opt1 && !query.keywords.is_empty())
            .then(|| acquire_reach(graph, index, query, cache, &mut stats));
        let opt2 = opt2_kw.map(|kw| build_opt2(graph, index, query, &ctx, kw, cache, &mut stats));
        let store = LabelStore::new(
            cfg.mode.dom_mode(),
            query.keywords.full_mask(),
            cfg.k,
            graph.node_count(),
        );
        let k = cfg.k;
        Self {
            graph,
            query,
            cfg,
            ctx,
            masks,
            reach,
            opt2,
            arena: LabelArena::with_capacity(1024),
            store,
            heap: BinaryHeap::with_capacity(1024),
            top: TopSet::new(k),
            stats,
            snapshots: Vec::new(),
        }
    }

    /// The query-keyword mask of `node` (one indexed load).
    #[inline]
    fn node_mask(&self, node: NodeId) -> u64 {
        if self.masks.is_empty() {
            0
        } else {
            self.masks[node.index()]
        }
    }

    /// Runs the search to exhaustion and materializes the result routes in
    /// ascending objective order. Aborts with
    /// [`KorError::DeadlineExceeded`] if a configured deadline passes
    /// before the search drains its queue.
    fn run(&mut self) -> Result<Vec<RouteResult>, KorError> {
        let source = self.query.source;
        if !self.ctx.reaches_target(source) {
            return Ok(Vec::new());
        }

        // Initial label (Algorithm 1 lines 2–4).
        let init = Label {
            node: source,
            mask: self.node_mask(source),
            scaled: 0,
            objective: 0.0,
            budget: 0.0,
            parent: NO_LABEL,
            alive: true,
        };
        let init_id = self.arena.push(init);
        self.record(init_id);
        self.store.try_insert(&mut self.arena, init_id);
        // The initial label may already cover everything (then its best
        // completion is τ(s,t) — handled by the same completion check the
        // children go through).
        self.try_complete(init_id);
        self.push_queue(init_id);

        // Stride-based deadline check: `Instant::now()` per pop is
        // measurable in this loop; checking every DEADLINE_STRIDE pops
        // (including the very first) bounds both the overhead and the
        // firing latency.
        let mut ticker = DeadlineTicker::new(self.cfg.deadline);
        while let Some(item) = self.heap.pop() {
            ticker.tick()?;
            let label = *self.arena.get(item.id);
            if !label.alive {
                self.stats.labels_skipped += 1;
                continue;
            }
            // Algorithm 1 line 7: the best completion cannot beat U.
            if label.objective + self.ctx.os_tau(label.node) > self.top.bound() {
                self.stats.labels_skipped += 1;
                continue;
            }
            self.stats.labels_expanded += 1;
            self.expand(item.id);
        }

        let candidates = std::mem::take(&mut self.top.items);
        Ok(candidates
            .into_iter()
            .map(|c| RouteResult {
                route: Route::new(c.nodes),
                objective: c.objective,
                budget: c.budget,
            })
            .collect())
    }

    /// Label treatment (Definition 7) over all outgoing edges, plus the
    /// Optimization-Strategy-1 jump.
    fn expand(&mut self, id: u32) {
        let label = *self.arena.get(id);
        // `self.graph` is a plain `&'a Graph`, so copying the reference
        // out lets the adjacency iterator borrow the graph — not `self` —
        // and the CSR slices are walked in place with no per-expansion
        // `Vec` allocation.
        let graph = self.graph;
        for e in graph.out_edges(label.node) {
            self.make_child(id, e.node, e.objective, e.budget);
        }
        if self.reach.is_some() && !self.query.keywords.is_covering(label.mask) {
            self.opt1_jump(id);
        }
    }

    /// Creates, checks, and files one child label; returns its id if it
    /// survived all checks.
    fn make_child(
        &mut self,
        parent_id: u32,
        node: NodeId,
        edge_obj: f64,
        edge_bud: f64,
    ) -> Option<u32> {
        let parent = *self.arena.get(parent_id);
        let objective = parent.objective + edge_obj;
        let budget = parent.budget + edge_bud;
        let child = Label {
            node,
            mask: parent.mask | self.node_mask(node),
            scaled: self.cfg.mode.child_key(&parent, edge_obj, objective),
            objective,
            budget,
            parent: parent_id,
            alive: true,
        };
        self.stats.labels_created += 1;
        if self.cfg.collect_labels {
            self.snapshots.push(LabelSnapshot {
                node: child.node,
                mask: child.mask,
                scaled: child.scaled,
                objective: child.objective,
                budget: child.budget,
            });
        }

        // Algorithm 1 line 10, first two filters: the label must still be
        // able to produce a feasible route (budget via the min-budget
        // completion σ) that beats the bound (objective via the
        // min-objective completion τ).
        if child.budget + self.ctx.bs_sigma(child.node) > self.query.budget {
            self.stats.labels_pruned += 1;
            return None;
        }
        if child.objective + self.ctx.os_tau(child.node) >= self.top.bound() {
            self.stats.labels_pruned += 1;
            return None;
        }
        // Optimization Strategy 2.
        if let Some(opt2) = &self.opt2 {
            if child.mask & opt2.bit_mask == 0 {
                let through_obj = opt2.trees.obj_bound.objective(child.node);
                let through_bud = opt2.trees.bud_bound.budget(child.node);
                if child.objective + through_obj > self.top.bound()
                    || child.budget + through_bud > self.query.budget
                {
                    self.stats.opt2_discards += 1;
                    return None;
                }
            }
        }

        let id = self.arena.push(child);
        if !self.store.try_insert(&mut self.arena, id) {
            self.arena.kill(id);
            self.sync_store_stats();
            return None;
        }
        self.sync_store_stats();

        // Algorithm 1 lines 16–20: completion handling for covering
        // labels; non-covering labels are enqueued.
        if self.query.keywords.is_covering(self.arena.get(id).mask) {
            let completed = self.try_complete(id);
            // k = 1: a feasible completion is the best this label can do
            // (τ is the min-objective completion), so it is not enqueued.
            // For k > 1 further extensions may yield additional routes.
            if !completed || self.cfg.k > 1 {
                self.push_queue(id);
            }
        } else {
            self.push_queue(id);
        }
        Some(id)
    }

    /// Optimization Strategy 1: jump to the nearest (by budget) node
    /// holding an uncovered query keyword, materializing the actual
    /// `σ_{i,j}` path so scores and coverage stay exact.
    fn opt1_jump(&mut self, id: u32) {
        let label = *self.arena.get(id);
        let reach = self.reach.as_ref().expect("opt1 enabled");
        let mut best: Option<(f64, u32)> = None;
        for (bit, _) in self.query.keywords.uncovered(label.mask) {
            if let Some((dist, j)) = reach.nearest(bit, label.node) {
                // Feasibility: jump there and still finish within budget.
                if label.budget + dist + self.ctx.bs_sigma(j) <= self.query.budget {
                    let better = match best {
                        None => true,
                        Some((d, _)) => dist < d,
                    };
                    if better {
                        best = Some((dist, bit));
                    }
                }
            }
        }
        let Some((_, bit)) = best else { return };
        let Some(path) = reach.path_to_nearest(bit, label.node) else {
            return;
        };
        if path.len() < 2 {
            return;
        }
        self.stats.opt1_jumps += 1;
        // Fold the jump path into chained labels; only the terminal label
        // enters the store/queue, intermediates exist for reconstruction.
        let mut cur = id;
        for step in path.windows(2) {
            let (from, to) = (step[0], step[1]);
            let e = self
                .graph
                .edge_between(from, to)
                .expect("reach paths follow graph edges");
            let is_last = to == *path.last().expect("non-empty");
            if is_last {
                self.make_child(cur, to, e.objective, e.budget);
            } else {
                let parent = *self.arena.get(cur);
                let objective = parent.objective + e.objective;
                let child = Label {
                    node: to,
                    mask: parent.mask | self.node_mask(to),
                    scaled: self.cfg.mode.child_key(&parent, e.objective, objective),
                    objective,
                    budget: parent.budget + e.budget,
                    parent: cur,
                    alive: true,
                };
                cur = self.arena.push(child);
            }
        }
    }

    /// Lines 16–19: if the label covers all keywords and its τ-completion
    /// fits the budget, record the candidate route. Returns whether a
    /// feasible completion existed.
    fn try_complete(&mut self, id: u32) -> bool {
        let label = *self.arena.get(id);
        if !self.query.keywords.is_covering(label.mask) {
            return false;
        }
        let tau = self.ctx.os_tau(label.node);
        if !tau.is_finite() {
            return false;
        }
        if label.budget + self.ctx.bs_tau(label.node) <= self.query.budget {
            let objective = label.objective + tau;
            if objective < self.top.bound() {
                let cand = Candidate {
                    nodes: self.route_nodes(id),
                    objective,
                    budget: label.budget + self.ctx.bs_tau(label.node),
                };
                if self.top.insert(cand) {
                    self.stats.upper_bound_updates += 1;
                }
            }
            true
        } else {
            false
        }
    }

    /// The node sequence `path(label) + τ(label.node, t)`.
    fn route_nodes(&self, id: u32) -> Vec<NodeId> {
        let label = self.arena.get(id);
        let mut nodes = self.arena.path_nodes(id);
        let completion = self
            .ctx
            .tau_route(label.node)
            .expect("candidates reach the target");
        nodes.extend_from_slice(&completion.nodes()[1..]);
        nodes
    }

    fn push_queue(&mut self, id: u32) {
        let label = self.arena.get(id);
        self.heap.push(QItem {
            covered: label.mask.count_ones(),
            key: label.scaled,
            budget: label.budget,
            node: label.node.0,
            id,
        });
        self.stats.queue_pushes += 1;
    }

    fn record(&mut self, id: u32) {
        self.stats.labels_created += 1;
        if self.cfg.collect_labels {
            self.snapshots.push(LabelSnapshot::from(self.arena.get(id)));
        }
    }

    fn sync_store_stats(&mut self) {
        self.stats.labels_dominated = self.store.dominated_count();
        self.stats.labels_evicted = self.store.evicted_count();
    }
}

/// The query keyword Optimization Strategy 2 bounds through, when the
/// strategy is enabled: the least frequent one, if it is rare enough (a
/// cheap index lookup).
pub(crate) fn opt2_keyword(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    enabled: bool,
    threshold: f64,
) -> Option<KeywordId> {
    if !enabled {
        return None;
    }
    let (kw, df) = index.least_frequent(query.keywords.ids())?;
    (graph.node_count() > 0 && (df as f64 / graph.node_count() as f64) < threshold).then_some(kw)
}

/// Builds Optimization-Strategy-2 state for `kw` (from [`opt2_keyword`]).
/// The bound trees are pulled from the pre-processing cache when one is
/// supplied (keyed by `(target, kw)` — the bit position is query-local
/// and recomputed per call). `ctx` must be unbounded.
pub(crate) fn build_opt2(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    ctx: &QueryContext,
    kw: KeywordId,
    cache: Option<&PreprocessCache>,
    stats: &mut SearchStats,
) -> Opt2 {
    let bit = query.keywords.bit(kw).expect("kw is a query keyword");
    let trees = match cache {
        Some(cache) => {
            let (trees, hit) = cache.opt2_trees(graph, index, ctx, kw);
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                stats.trees_built += 2;
            }
            trees
        }
        None => {
            stats.trees_built += 2;
            Arc::new(build_opt2_trees(graph, index, ctx, kw))
        }
    };
    Opt2 {
        bit_mask: 1u64 << bit,
        trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, t, v};

    fn setup() -> (Graph, InvertedIndex) {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn ticker_first_tick_always_checks() {
        // Promptness invariant: an already-expired deadline must abort
        // on the very first pop — searches with fewer than
        // DEADLINE_STRIDE pops would otherwise never check at all.
        let mut ticker = DeadlineTicker::new(Some(Instant::now()));
        assert!(matches!(ticker.tick(), Err(KorError::DeadlineExceeded)));
    }

    #[test]
    fn ticker_without_deadline_never_errors() {
        let mut ticker = DeadlineTicker::new(None);
        for _ in 0..(3 * DEADLINE_STRIDE) {
            ticker.tick().expect("no deadline configured");
        }
    }

    #[test]
    fn ticker_rechecks_within_one_stride() {
        // A deadline that expires mid-search is noticed after at most
        // DEADLINE_STRIDE further pops: the first tick passes (the
        // deadline is still ahead), then once it lapses, some tick in
        // the next stride window must error.
        let mut ticker =
            DeadlineTicker::new(Some(Instant::now() + std::time::Duration::from_millis(30)));
        ticker.tick().expect("deadline still ahead");
        std::thread::sleep(std::time::Duration::from_millis(40));
        let erred = (0..DEADLINE_STRIDE).any(|_| ticker.tick().is_err());
        assert!(erred, "expired deadline survived a full stride window");
    }

    fn plain_params(epsilon: f64) -> OsScalingParams {
        OsScalingParams {
            epsilon,
            use_opt1: false,
            use_opt2: false,
            collect_labels: true,
            ..OsScalingParams::default()
        }
    }

    #[test]
    fn example2_returns_r1() {
        // Q = ⟨v0, v7, {t1, t2}, 10⟩, ε = 0.5 ⇒ R1 = ⟨v0,v2,v3,v4,v7⟩,
        // OS 6, BS 10.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0), v(2), v(3), v(4), v(7)]);
        assert_eq!(route.objective, 6.0);
        assert_eq!(route.budget, 10.0);
    }

    #[test]
    fn example2_table1_labels() {
        // The nine labels of Table 1 (ÔS at θ = 1/20) must all be created.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        // (node, mask {t1=bit0, t2=bit1}, ÔS, OS, BS)
        let expected: [(u32, u64, u64, f64, f64); 9] = [
            (0, 0b00, 0, 0.0, 0.0),   // L00
            (1, 0b00, 80, 4.0, 1.0),  // L01
            (1, 0b01, 60, 3.0, 4.0),  // L11
            (2, 0b10, 20, 1.0, 3.0),  // L02
            (3, 0b01, 40, 2.0, 2.0),  // L03
            (3, 0b11, 80, 4.0, 5.0),  // L13
            (4, 0b01, 60, 3.0, 4.0),  // L04
            (5, 0b11, 100, 5.0, 4.0), // L05
            (6, 0b11, 40, 2.0, 4.0),  // L06 (created, then budget-pruned)
        ];
        for (node, mask, scaled, os, bs) in expected {
            assert!(
                r.labels.iter().any(|l| l.node == v(node)
                    && l.mask == mask
                    && l.scaled == scaled
                    && l.objective == os
                    && l.budget == bs),
                "missing label ({node}, {mask:#b}, {scaled}, {os}, {bs})\nhave: {:?}",
                r.labels
            );
        }
    }

    #[test]
    fn example2_with_optimizations_same_answer() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &OsScalingParams::default()).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.objective, 6.0);
        assert_eq!(route.budget, 10.0);
    }

    #[test]
    fn definition4_delta6() {
        // Q = ⟨v0, v7, {t1,t2,t3}, 6⟩ ⇒ ⟨v0,v3,v5,v7⟩ with OS 9, BS 5.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2), t(3)], 6.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0), v(3), v(5), v(7)]);
        assert_eq!(route.objective, 9.0);
        assert_eq!(route.budget, 5.0);
    }

    #[test]
    fn infeasible_when_budget_too_small() {
        let (g, idx) = setup();
        // The cheapest-budget covering route for {t1,t2} needs BS ≥ 5.
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 4.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        assert!(r.route.is_none());
    }

    #[test]
    fn infeasible_when_keyword_unreachable() {
        let (g, idx) = setup();
        // t5 lives only at v1, which has no outgoing edges: covering t5
        // strands the route.
        let q = KorQuery::new(&g, v(0), v(7), vec![t(5)], 100.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        assert!(r.route.is_none());
    }

    #[test]
    fn empty_keywords_degenerate_to_wcspp() {
        // Without keywords the answer is the min-objective path meeting Δ.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0), v(3), v(4), v(7)]);
        assert_eq!(route.objective, 4.0);
        // With Δ = 6 the τ path (BS 7) is out; σ (OS 9, BS 5) wins.
        let q6 = KorQuery::new(&g, v(0), v(7), vec![], 6.0).unwrap();
        let r6 = os_scaling(&g, &idx, &q6, &plain_params(0.5)).unwrap();
        assert_eq!(r6.route.unwrap().objective, 9.0);
    }

    #[test]
    fn source_equals_target_trivial() {
        let (g, idx) = setup();
        // v0 holds t3; querying t3 from v0 to v0 is satisfied by standing
        // still.
        let q = KorQuery::new(&g, v(0), v(0), vec![t(3)], 5.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0)]);
        assert_eq!(route.objective, 0.0);
        assert_eq!(route.budget, 0.0);
    }

    #[test]
    fn source_equals_target_requires_cycle() {
        let (g, idx) = setup();
        // From v5 back to v5 covering t4 (at v4): needs a cycle, but v5
        // is unreachable from v4's continuations ⇒ infeasible.
        let q = KorQuery::new(&g, v(5), v(5), vec![t(4)], 100.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        assert!(r.route.is_none());
    }

    #[test]
    fn unreachable_target_is_infeasible() {
        let (g, idx) = setup();
        // v1 has no outgoing edges; nothing reaches v0 either.
        let q = KorQuery::new(&g, v(1), v(7), vec![], 100.0).unwrap();
        assert!(os_scaling(&g, &idx, &q, &plain_params(0.5))
            .unwrap()
            .route
            .is_none());
        let q2 = KorQuery::new(&g, v(7), v(0), vec![], 100.0).unwrap();
        assert!(os_scaling(&g, &idx, &q2, &plain_params(0.5))
            .unwrap()
            .route
            .is_none());
    }

    #[test]
    fn exact_labeling_matches_os_scaling_small_eps() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let exact = exact_labeling(&g, &idx, &q).unwrap();
        let approx = os_scaling(&g, &idx, &q, &plain_params(0.01)).unwrap();
        assert_eq!(exact.route.as_ref().unwrap().objective, 6.0);
        assert_eq!(
            exact.route.unwrap().objective,
            approx.route.unwrap().objective
        );
    }

    #[test]
    fn approximation_bound_holds_on_fixture() {
        let (g, idx) = setup();
        for m in [vec![t(1)], vec![t(1), t(2)], vec![t(1), t(2), t(3)]] {
            for delta in [5.0, 6.0, 8.0, 10.0, 14.0] {
                let q = KorQuery::new(&g, v(0), v(7), m.clone(), delta).unwrap();
                let exact = exact_labeling(&g, &idx, &q).unwrap();
                for eps in [0.1, 0.5, 0.9] {
                    let r = os_scaling(&g, &idx, &q, &plain_params(eps)).unwrap();
                    match (&exact.route, &r.route) {
                        (None, None) => {}
                        (Some(opt), Some(found)) => {
                            assert!(
                                found.objective <= opt.objective / (1.0 - eps) + 1e-9,
                                "eps={eps} delta={delta}: {} > {}/(1-{eps})",
                                found.objective,
                                opt.objective
                            );
                            assert!(found.budget <= delta + 1e-9);
                        }
                        (a, b) => panic!("feasibility disagreement: exact={a:?} approx={b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_returns_distinct_sorted_routes() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 12.0).unwrap();
        let r = top_k_os_scaling(&g, &idx, &q, &plain_params(0.2), 3).unwrap();
        assert!(!r.routes.is_empty());
        for w in r.routes.windows(2) {
            assert!(w[0].objective <= w[1].objective);
            assert_ne!(w[0].route.nodes(), w[1].route.nodes());
        }
        for route in &r.routes {
            assert!(route.budget <= 12.0 + 1e-9);
            let (os, bs) = route.route.scores(&g).unwrap();
            assert!((os - route.objective).abs() < 1e-9);
            assert!((bs - route.budget).abs() < 1e-9);
            assert!(route.route.covers(&g, &[t(1), t(2)]));
        }
        // k = 1 must agree with the single-route search.
        let single = os_scaling(&g, &idx, &q, &plain_params(0.2)).unwrap();
        let top1 = top_k_os_scaling(&g, &idx, &q, &plain_params(0.2), 1).unwrap();
        assert_eq!(single.route.unwrap().objective, top1.routes[0].objective);
    }

    #[test]
    fn top_k_zero_is_error() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        assert!(matches!(
            top_k_os_scaling(&g, &idx, &q, &OsScalingParams::default(), 0),
            Err(KorError::InvalidK)
        ));
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        assert!(matches!(
            os_scaling(&g, &idx, &q, &plain_params(0.0)),
            Err(KorError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn returned_route_scores_verify_against_graph() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2), t(4)], 12.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &OsScalingParams::default()).unwrap();
        let route = r.route.expect("feasible");
        let (os, bs) = route.route.scores(&g).unwrap();
        assert!((os - route.objective).abs() < 1e-9);
        assert!((bs - route.budget).abs() < 1e-9);
        assert!(route.route.covers(&g, &[t(1), t(2), t(4)]));
        assert_eq!(route.route.nodes().first(), Some(&v(0)));
        assert_eq!(route.route.nodes().last(), Some(&v(7)));
    }

    #[test]
    fn stats_are_populated() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = os_scaling(&g, &idx, &q, &plain_params(0.5)).unwrap();
        assert!(r.stats.labels_created >= 9);
        assert!(r.stats.labels_expanded > 0);
        assert!(r.stats.queue_pushes > 0);
        assert!(r.stats.upper_bound_updates >= 1);
    }
}
