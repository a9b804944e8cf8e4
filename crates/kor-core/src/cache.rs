//! The shared per-query pre-processing cache.
//!
//! The paper's cost model assumes the `τ`/`σ` pre-processing is amortized
//! across queries, but a naive engine rebuilds it per call: every label
//! search starts with two full backward Dijkstras ([`QueryContext`]) and
//! Optimization Strategy 2 runs two more. Under serve/batch traffic many
//! queries share popular targets and keyword sets, so those trees are
//! pure recomputation.
//!
//! [`PreprocessCache`] memoizes both products behind `Arc`-cloned
//! entries:
//!
//! * **query contexts** — the to-target `τ`/`σ` tree pair, keyed by the
//!   target node (identical for every query ending at that target). An
//!   entry is grown only as far as its queries' budgets need (see
//!   [`QueryContext`]'s radius) and extended in place of a rebuild when
//!   a later query needs more;
//! * **Opt-2 bound trees** — the "through an infrequent-keyword node,
//!   then finish" lower-bound tree pair, keyed by `(target, keyword)`
//!   (the seed set is exactly the keyword's postings weighted by the
//!   target context, so the pair pins the trees down completely);
//! * **keyword reach trees** — the Optimization-Strategy-1 "nearest node
//!   holding this keyword" tree, keyed by the keyword alone (the seed
//!   set is the keyword's postings with zero potential — independent of
//!   the query's source, target, and budget, so one build serves every
//!   query mentioning the keyword).
//!
//! Entries are evicted least-recently-used once a map exceeds its
//! capacity, bounding memory at roughly
//! `capacity × 4 trees × node_count × 20 bytes`. The design
//! mirrors [`kor_apsp::CachedPairCosts`]: one `Mutex` around a memo
//! table, shared by any number of worker threads, with the expensive
//! tree construction performed *outside* the lock so concurrent misses
//! on different keys never serialize on Dijkstra.
//!
//! Cached and cold searches are byte-identical by construction: a cache
//! hit returns the same deterministic `Tree` values a fresh build would
//! produce (pinned down by the equivalence tests in
//! `tests/cache_equivalence.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kor_apsp::{backward_tree, KeywordReach, Metric, QueryContext, Tree};
use kor_graph::{Graph, KeywordId, NodeId};
use kor_index::InvertedIndex;

/// The two Optimization-Strategy-2 lower-bound trees for one
/// `(target, infrequent keyword)` pair.
///
/// Seeds carry the to-target completion as initial potential, so each
/// tree bounds "reach an infrequent-keyword node, then finish at the
/// target" (objective-side and budget-side respectively).
#[derive(Debug)]
pub struct Opt2Trees {
    /// Objective lower bound through an infrequent-keyword node.
    pub obj_bound: Tree,
    /// Budget lower bound through an infrequent-keyword node.
    pub bud_bound: Tree,
}

/// Builds the Opt-2 tree pair for `kw` under `ctx`'s target.
///
/// The seeds are *every* posting's `τ`/`σ` completion, so `ctx` must be
/// unbounded (radius `+inf`).
pub(crate) fn build_opt2_trees(
    graph: &Graph,
    index: &InvertedIndex,
    ctx: &QueryContext,
    kw: KeywordId,
) -> Opt2Trees {
    assert_eq!(
        ctx.radius(),
        f64::INFINITY,
        "Opt-2 trees need an unbounded query context"
    );
    let mut obj_seeds = Vec::new();
    let mut bud_seeds = Vec::new();
    for &l in index.postings(kw) {
        if let Some(tau) = ctx.tau_to_target(l) {
            obj_seeds.push((l, tau.objective, tau.budget));
        }
        if let Some(sigma) = ctx.sigma_to_target(l) {
            bud_seeds.push((l, sigma.objective, sigma.budget));
        }
    }
    Opt2Trees {
        obj_bound: backward_tree(graph, Metric::Objective, &obj_seeds),
        bud_bound: backward_tree(graph, Metric::Budget, &bud_seeds),
    }
}

/// Compact invalidation stamp for one cached tree family: the set of
/// nodes the family's Dijkstras settled (one bit per node) — the
/// kernel's own settled bitsets, unioned.
///
/// A backward tree scans exactly the in-edges of its settled nodes, so a
/// mutation of edge `u → v` can change it only if the edge's *head* `v`
/// is settled. Otherwise the edge was never scanned, and (because
/// mutation rebuilds preserve the relative CSR order of surviving edges)
/// a cold build on the mutated graph scans the exact same edge sequence:
/// it settles the same nodes with the same values *and* leaves the same
/// frontier. That holds for trees stopped at a radius too, so a carried
/// bounded context that is later extended on the mutated graph equals a
/// cold build there. One stamp per target covers every cache family
/// keyed by that target: the `τ`/`σ` context trees directly, and the
/// Opt-2 bound trees (always built from an unbounded context) because
/// their reachable sets *and* their seed potentials both live inside the
/// context's settled set (any node that reaches a seeded posting also
/// reaches the target). The Opt-2 stamp still unions its own trees'
/// settled sets as a belt-and-braces check.
#[derive(Debug)]
pub struct TreeStamp {
    words: Vec<u64>,
}

impl TreeStamp {
    /// The union of `trees`' settled sets (all over one graph).
    fn of(trees: &[&Tree]) -> Self {
        let mut words = trees[0].settled_words().to_vec();
        for tree in &trees[1..] {
            for (w, s) in words.iter_mut().zip(tree.settled_words()) {
                *w |= s;
            }
        }
        Self { words }
    }

    /// Whether node `v` is in the stamped (settled) set. Out-of-range
    /// ids are never in the set.
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w & (1u64 << (v.index() % 64)) != 0)
    }

    /// Whether any of `nodes` is in the stamped set.
    pub fn touches_any(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().any(|&v| self.contains(v))
    }

    /// Number of stamped nodes.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no node is stamped.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Per-family retain/evict counts reported by
/// [`PreprocessCache::carry_over`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationCounts {
    /// Query contexts whose stamp avoided every changed edge head.
    pub contexts_retained: usize,
    /// Query contexts evicted because a changed edge head was stamped.
    pub contexts_evicted: usize,
    /// Opt-2 tree pairs carried over warm.
    pub opt2_retained: usize,
    /// Opt-2 tree pairs evicted.
    pub opt2_evicted: usize,
    /// Keyword reach trees carried over warm.
    pub reach_retained: usize,
    /// Keyword reach trees evicted.
    pub reach_evicted: usize,
}

/// Point-in-time counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Query-context lookups answered from the cache.
    pub ctx_hits: u64,
    /// Query-context lookups that had to build trees.
    pub ctx_misses: u64,
    /// Query-context hits whose entry had to be grown to a larger radius
    /// from its saved frontier (a subset of `ctx_hits`: no tree is
    /// rebuilt, so `trees_built` is unchanged).
    pub ctx_extends: u64,
    /// Nodes settled by context builds and extensions, `τ` and `σ`
    /// together. Divided by `ctx_misses + ctx_extends`, the size of the
    /// average context build.
    pub ctx_settled: u64,
    /// Opt-2 tree lookups answered from the cache.
    pub opt2_hits: u64,
    /// Opt-2 tree lookups that had to build trees.
    pub opt2_misses: u64,
    /// Keyword reach-tree lookups answered from the cache.
    pub reach_hits: u64,
    /// Keyword reach-tree lookups that had to build a tree.
    pub reach_misses: u64,
    /// Entries removed by the LRU cap (all families alike).
    ///
    /// **Exclusive** with `invalidated`: one removed entry increments
    /// exactly one of the two counters. [`PreprocessCache::carry_over`]
    /// filters by invalidation stamp first — stamped entries count only
    /// here-under `invalidated` — and applies the LRU cap only to the
    /// survivors, so an entry that is both stale and over-cap is counted
    /// once, as invalidated.
    pub evictions: u64,
    /// Dijkstra trees built on behalf of this cache (two per context
    /// miss, two per Opt-2 miss, one per reach miss — including builds
    /// that lost a concurrent race and were discarded).
    pub trees_built: u64,
    /// Entries evicted by mutation-driven incremental invalidation
    /// ([`PreprocessCache::carry_over`]), all families alike. Distinct
    /// from — and exclusive with — `evictions`, which counts the LRU
    /// cap (see `evictions`).
    pub invalidated: u64,
    /// Entries that survived mutation-driven invalidation warm.
    pub retained: u64,
}

impl CacheStats {
    /// Fraction of all lookups answered from the cache (`0.0` when no
    /// lookup has happened yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ctx_hits + self.opt2_hits + self.reach_hits;
        let total = hits + self.ctx_misses + self.opt2_misses + self.reach_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// One memoized entry plus its LRU clock value and invalidation stamp.
struct Slot<T> {
    value: Arc<T>,
    stamp: Arc<TreeStamp>,
    last_used: u64,
}

struct Inner {
    /// Monotone logical clock for LRU ordering.
    tick: u64,
    /// `(node_count, edge_count)` of the graph this cache serves, pinned
    /// on first use. Keys are plain `NodeId`s, so trees from one graph
    /// would silently answer queries on another — a shape mismatch is a
    /// caller bug and panics instead.
    graph_shape: Option<(usize, usize)>,
    contexts: HashMap<NodeId, Slot<QueryContext>>,
    opt2: HashMap<(NodeId, KeywordId), Slot<Opt2Trees>>,
    reach: HashMap<KeywordId, Slot<Tree>>,
    stats: CacheStats,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Pins the cache to `graph` on first use; panics if a later lookup
    /// arrives with a different graph shape.
    fn check_graph(&mut self, graph: &Graph) {
        let shape = (graph.node_count(), graph.edge_count());
        match self.graph_shape {
            None => self.graph_shape = Some(shape),
            Some(bound) => assert_eq!(
                bound, shape,
                "PreprocessCache is bound to one graph: cached trees for a \
                 {bound:?} (nodes, edges) graph cannot answer queries on a \
                 {shape:?} graph — use one cache per dataset"
            ),
        }
    }
}

/// Thread-safe, LRU-capped cache of per-query pre-processing products.
///
/// See the module documentation for the design. One cache per
/// dataset is meant to be shared by reference across worker threads;
/// [`crate::KorEngine`] owns one and threads it through every label
/// search automatically.
pub struct PreprocessCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for PreprocessCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("PreprocessCache")
            .field("capacity", &self.capacity)
            .field("contexts", &inner.contexts.len())
            .field("opt2", &inner.opt2.len())
            .field("reach", &inner.reach.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Default for PreprocessCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PreprocessCache {
    /// Default number of targets (and Opt-2 pairs) kept warm.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A cache with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` query contexts and `capacity`
    /// Opt-2 tree pairs (each map is capped independently).
    ///
    /// # Panics
    ///
    /// If `capacity` is zero — a zero-capacity cache would thrash on
    /// every lookup; pass no cache instead.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                tick: 0,
                graph_shape: None,
                contexts: HashMap::new(),
                opt2: HashMap::new(),
                reach: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// The configured per-map entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The complete (unbounded) to-target context for `target`, built
    /// or extended on first use — [`Self::context_within`] at radius
    /// `+inf`.
    ///
    /// # Panics
    ///
    /// If `graph` differs in shape from the graph this cache served
    /// first — one cache serves exactly one dataset.
    pub fn context(&self, graph: &Graph, target: NodeId) -> (Arc<QueryContext>, bool) {
        self.context_within(graph, target, f64::INFINITY, target)
    }

    /// A to-target context for `target` that serves a search with budget
    /// `radius` from `source` (see [`QueryContext::serves`]).
    ///
    /// Returns the shared context and whether this lookup was a hit. An
    /// entry too small for the query is a hit too, but is *extended*
    /// copy-on-write from its saved frontier (counted in `ctx_extends`)
    /// and the larger context replaces it; holders of the smaller one
    /// keep it. Tree construction happens outside the cache lock; when
    /// two threads build or extend the same target concurrently, the
    /// first insert that serves the query wins and the other build is
    /// discarded.
    ///
    /// # Panics
    ///
    /// If `graph` differs in shape from the graph this cache served
    /// first — one cache serves exactly one dataset.
    pub fn context_within(
        &self,
        graph: &Graph,
        target: NodeId,
        radius: f64,
        source: NodeId,
    ) -> (Arc<QueryContext>, bool) {
        let held = {
            let mut inner = self.inner.lock().unwrap();
            inner.check_graph(graph);
            let tick = inner.next_tick();
            match inner.contexts.get_mut(&target) {
                Some(slot) => {
                    slot.last_used = tick;
                    let value = slot.value.clone();
                    if value.serves(radius, source) {
                        inner.stats.ctx_hits += 1;
                        return (value, true);
                    }
                    Some(value)
                }
                None => None,
            }
        };
        let extended = held.is_some();
        let (built, settled_before) = match held {
            Some(old) => {
                let mut ctx = QueryContext::clone(&old);
                let before = settled_nodes(&ctx);
                ctx.grow(graph, radius, source);
                (ctx, before)
            }
            None => (QueryContext::within(graph, target, radius, source), 0),
        };
        let settled = (settled_nodes(&built) - settled_before) as u64;
        let stamp = Arc::new(TreeStamp::of(&built.trees()));
        let built = Arc::new(built);
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        if extended {
            inner.stats.ctx_hits += 1;
            inner.stats.ctx_extends += 1;
        } else {
            inner.stats.ctx_misses += 1;
            inner.stats.trees_built += 2;
        }
        inner.stats.ctx_settled += settled;
        let slot = Slot {
            value: built.clone(),
            stamp,
            last_used: tick,
        };
        let value = match inner.contexts.entry(target) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().value.serves(radius, source) {
                    // A concurrent build landed first; converge on its
                    // trees so every holder shares one allocation.
                    e.get_mut().last_used = tick;
                    e.get().value.clone()
                } else {
                    e.insert(slot);
                    built
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(slot);
                built
            }
        };
        let evicted = evict_lru(&mut inner.contexts, self.capacity);
        inner.stats.evictions += evicted;
        (value, extended)
    }

    /// The Opt-2 bound-tree pair for `(target, kw)`, built on first use
    /// from `ctx` (which must be the unbounded context for the same
    /// target, as [`Self::context`] returns).
    ///
    /// # Panics
    ///
    /// If `graph` differs in shape from the graph this cache served
    /// first — one cache serves exactly one dataset — or if a build is
    /// needed and `ctx` is bounded.
    pub fn opt2_trees(
        &self,
        graph: &Graph,
        index: &InvertedIndex,
        ctx: &QueryContext,
        kw: KeywordId,
    ) -> (Arc<Opt2Trees>, bool) {
        let key = (ctx.target(), kw);
        {
            let mut inner = self.inner.lock().unwrap();
            inner.check_graph(graph);
            let tick = inner.next_tick();
            if let Some(slot) = inner.opt2.get_mut(&key) {
                slot.last_used = tick;
                let value = slot.value.clone();
                inner.stats.opt2_hits += 1;
                return (value, true);
            }
        }
        let built = Arc::new(build_opt2_trees(graph, index, ctx, kw));
        // The context stamp provably covers the Opt-2 dependencies (see
        // `TreeStamp`); union the pair's own settled sets anyway.
        let [tau, sigma] = ctx.trees();
        let stamp = Arc::new(TreeStamp::of(&[
            tau,
            sigma,
            &built.obj_bound,
            &built.bud_bound,
        ]));
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        inner.stats.opt2_misses += 1;
        inner.stats.trees_built += 2;
        let value = match inner.opt2.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().last_used = tick;
                e.get().value.clone()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Slot {
                    value: built.clone(),
                    stamp,
                    last_used: tick,
                });
                built
            }
        };
        let evicted = evict_lru(&mut inner.opt2, self.capacity);
        inner.stats.evictions += evicted;
        (value, false)
    }

    /// The Optimization-Strategy-1 reach tree for `kw`, built on first
    /// use from `postings` (which must be `kw`'s posting list from the
    /// inverted index — the tree is fully determined by it).
    ///
    /// # Panics
    ///
    /// If `graph` differs in shape from the graph this cache served
    /// first — one cache serves exactly one dataset.
    pub fn reach_tree(
        &self,
        graph: &Graph,
        kw: KeywordId,
        postings: &[NodeId],
    ) -> (Arc<Tree>, bool) {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.check_graph(graph);
            let tick = inner.next_tick();
            if let Some(slot) = inner.reach.get_mut(&kw) {
                slot.last_used = tick;
                let value = slot.value.clone();
                inner.stats.reach_hits += 1;
                return (value, true);
            }
        }
        let built = Arc::new(KeywordReach::build_tree(graph, postings));
        let stamp = Arc::new(TreeStamp::of(&[&built]));
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        inner.stats.reach_misses += 1;
        inner.stats.trees_built += 1;
        let value = match inner.reach.entry(kw) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().last_used = tick;
                e.get().value.clone()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Slot {
                    value: built.clone(),
                    stamp,
                    last_used: tick,
                });
                built
            }
        };
        let evicted = evict_lru(&mut inner.reach, self.capacity);
        inner.stats.evictions += evicted;
        (value, false)
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of query contexts currently cached.
    pub fn context_entries(&self) -> usize {
        self.inner.lock().unwrap().contexts.len()
    }

    /// Number of Opt-2 tree pairs currently cached.
    pub fn opt2_entries(&self) -> usize {
        self.inner.lock().unwrap().opt2.len()
    }

    /// Targets of the currently cached query contexts, sorted (for
    /// instrumentation and the mutation property tests).
    pub fn cached_context_targets(&self) -> Vec<NodeId> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<NodeId> = inner.contexts.keys().copied().collect();
        out.sort_by_key(|v| v.0);
        out
    }

    /// Incremental invalidation: rebinds the cache to a mutated graph,
    /// carrying over every entry whose stamp avoids all changed edge
    /// heads and evicting the rest.
    ///
    /// `changed_heads` must hold the `to` node of every mutation in the
    /// batch. Soundness: a backward tree changes only if a mutated edge
    /// was scanned, i.e. only if that edge's head is in the tree
    /// family's stamp — including *reopened* edges, whose head cannot
    /// create new paths to the target unless it already reached it.
    /// Carried entries are bit-for-bit what a cold build on the mutated
    /// graph would produce (see [`TreeStamp`]).
    ///
    /// The returned cache is pinned to the mutated graph's shape and
    /// carries the cumulative counters forward, with `invalidated` /
    /// `retained` updated. `self` is left untouched, still answering
    /// for the old graph.
    pub fn carry_over(
        &self,
        new_graph: &Graph,
        changed_heads: &[NodeId],
    ) -> (PreprocessCache, InvalidationCounts) {
        let inner = self.inner.lock().unwrap();
        let mut counts = InvalidationCounts::default();
        let mut contexts = HashMap::with_capacity(inner.contexts.len());
        for (&target, slot) in &inner.contexts {
            if slot.stamp.touches_any(changed_heads) {
                counts.contexts_evicted += 1;
            } else {
                counts.contexts_retained += 1;
                contexts.insert(
                    target,
                    Slot {
                        value: slot.value.clone(),
                        stamp: slot.stamp.clone(),
                        last_used: slot.last_used,
                    },
                );
            }
        }
        let mut opt2 = HashMap::with_capacity(inner.opt2.len());
        for (&key, slot) in &inner.opt2 {
            if slot.stamp.touches_any(changed_heads) {
                counts.opt2_evicted += 1;
            } else {
                counts.opt2_retained += 1;
                opt2.insert(
                    key,
                    Slot {
                        value: slot.value.clone(),
                        stamp: slot.stamp.clone(),
                        last_used: slot.last_used,
                    },
                );
            }
        }
        let mut reach = HashMap::with_capacity(inner.reach.len());
        for (&key, slot) in &inner.reach {
            if slot.stamp.touches_any(changed_heads) {
                counts.reach_evicted += 1;
            } else {
                counts.reach_retained += 1;
                reach.insert(
                    key,
                    Slot {
                        value: slot.value.clone(),
                        stamp: slot.stamp.clone(),
                        last_used: slot.last_used,
                    },
                );
            }
        }
        let mut stats = inner.stats;
        stats.invalidated +=
            (counts.contexts_evicted + counts.opt2_evicted + counts.reach_evicted) as u64;
        stats.retained +=
            (counts.contexts_retained + counts.opt2_retained + counts.reach_retained) as u64;
        // Counter exclusivity (`evictions` vs `invalidated`): stamped
        // entries were dropped above and counted once, as invalidated;
        // the LRU cap runs only over the surviving entries, so a
        // stale-and-over-cap entry can never be counted twice. The maps
        // cannot normally exceed the cap here (carry-over only shrinks
        // them), but enforcing it keeps the invariant local rather than
        // depending on every caller's history.
        for e in [
            evict_lru(&mut contexts, self.capacity),
            evict_lru(&mut opt2, self.capacity),
            evict_lru(&mut reach, self.capacity),
        ] {
            stats.evictions += e;
        }
        let cache = PreprocessCache {
            capacity: self.capacity,
            inner: Mutex::new(Inner {
                tick: inner.tick,
                graph_shape: Some((new_graph.node_count(), new_graph.edge_count())),
                contexts,
                opt2,
                reach,
                stats,
            }),
        };
        (cache, counts)
    }

    /// Drops every cached entry (counters are kept). The graph binding
    /// is released too: with no stale trees left, the cache may serve a
    /// different dataset afterwards.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.contexts.clear();
        inner.opt2.clear();
        inner.reach.clear();
        inner.graph_shape = None;
    }
}

/// Nodes settled in a context's two trees together.
fn settled_nodes(ctx: &QueryContext) -> usize {
    ctx.trees().iter().map(|t| t.settled_count()).sum()
}

/// Removes least-recently-used slots until `map` fits `capacity`;
/// returns how many were evicted.
fn evict_lru<K: std::hash::Hash + Eq + Copy, T>(
    map: &mut HashMap<K, Slot<T>>,
    capacity: usize,
) -> u64 {
    let mut evicted = 0;
    while map.len() > capacity {
        let oldest = map
            .iter()
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(&k, _)| k)
            .expect("map is non-empty");
        map.remove(&oldest);
        evicted += 1;
    }
    evicted
}

// Worker threads share one cache per dataset; a regression to
// `Send`/`Sync` must fail the build here, not at distant call sites.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreprocessCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};

    #[test]
    fn context_is_memoized_and_shared() {
        let g = figure1();
        let cache = PreprocessCache::new();
        let (a, hit_a) = cache.context(&g, v(7));
        let (b, hit_b) = cache.context(&g, v(7));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same allocation");
        let s = cache.stats();
        assert_eq!((s.ctx_hits, s.ctx_misses, s.trees_built), (1, 1, 2));
        assert_eq!(cache.context_entries(), 1);
    }

    #[test]
    fn cached_context_matches_cold_build() {
        let g = figure1();
        let cache = PreprocessCache::new();
        let (warm, _) = cache.context(&g, v(7));
        let cold = QueryContext::new(&g, v(7));
        for n in g.nodes() {
            assert_eq!(warm.os_tau(n).to_bits(), cold.os_tau(n).to_bits());
            assert_eq!(warm.bs_tau(n).to_bits(), cold.bs_tau(n).to_bits());
            assert_eq!(warm.bs_sigma(n).to_bits(), cold.bs_sigma(n).to_bits());
            assert_eq!(warm.os_sigma(n).to_bits(), cold.os_sigma(n).to_bits());
        }
    }

    #[test]
    fn bounded_entries_serve_smaller_radii_and_extend_for_larger() {
        let g = figure1();
        let cache = PreprocessCache::new();
        let (small, hit) = cache.context_within(&g, v(7), 2.0, v(7));
        assert!(!hit);
        assert_eq!(small.radius(), 2.0);
        let (again, hit) = cache.context_within(&g, v(7), 1.0, v(7));
        assert!(hit && Arc::ptr_eq(&small, &again), "a smaller radius hits");
        let (grown, hit) = cache.context_within(&g, v(7), 5.0, v(0));
        assert!(
            hit && !Arc::ptr_eq(&small, &grown),
            "extended copy-on-write"
        );
        assert_eq!((small.radius(), grown.radius()), (2.0, 5.0));
        let s = cache.stats();
        assert_eq!(
            (s.ctx_hits, s.ctx_misses, s.ctx_extends, s.trees_built),
            (2, 1, 1, 2)
        );
        assert_eq!(s.ctx_settled as usize, settled_nodes(&grown));
        // The grown entry replaced the small one; the unbounded lookup
        // extends it once more and matches a cold build bit for bit.
        let (full, hit) = cache.context(&g, v(7));
        assert!(hit && full.radius() == f64::INFINITY);
        assert_eq!(cache.stats().ctx_extends, 2);
        let cold = QueryContext::new(&g, v(7));
        for n in g.nodes() {
            assert_eq!(full.os_tau(n).to_bits(), cold.os_tau(n).to_bits());
            assert_eq!(full.bs_tau(n).to_bits(), cold.bs_tau(n).to_bits());
            assert_eq!(full.bs_sigma(n).to_bits(), cold.bs_sigma(n).to_bits());
            assert_eq!(full.os_sigma(n).to_bits(), cold.os_sigma(n).to_bits());
            assert_eq!(full.tau_route(n), cold.tau_route(n));
        }
        assert_eq!(cache.context_entries(), 1);
    }

    #[test]
    fn lru_evicts_oldest_target() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(2);
        cache.context(&g, v(5));
        cache.context(&g, v(6));
        // Touch v5 so v6 becomes the LRU entry.
        cache.context(&g, v(5));
        cache.context(&g, v(7));
        assert_eq!(cache.context_entries(), 2);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        // v5 and v7 survive: v5 hits, v6 re-misses.
        assert!(cache.context(&g, v(5)).1);
        assert!(!cache.context(&g, v(6)).1);
    }

    #[test]
    fn opt2_trees_memoized_per_target_and_keyword() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        let (ctx, _) = cache.context(&g, v(7));
        let (a, hit_a) = cache.opt2_trees(&g, &index, &ctx, t(1));
        let (b, hit_b) = cache.opt2_trees(&g, &index, &ctx, t(1));
        let (_, hit_c) = cache.opt2_trees(&g, &index, &ctx, t(2));
        assert!(!hit_a && hit_b && !hit_c);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.opt2_entries(), 2);
        let s = cache.stats();
        assert_eq!((s.opt2_hits, s.opt2_misses), (1, 2));
        // 1 ctx miss + 2 opt2 misses = 6 trees.
        assert_eq!(s.trees_built, 6);
    }

    #[test]
    fn hit_rate_counts_both_kinds() {
        let g = figure1();
        let cache = PreprocessCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.context(&g, v(7));
        cache.context(&g, v(7));
        cache.context(&g, v(7));
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_keeps_counters() {
        let g = figure1();
        let cache = PreprocessCache::new();
        cache.context(&g, v(7));
        cache.clear();
        assert_eq!(cache.context_entries(), 0);
        assert_eq!(cache.stats().ctx_misses, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be ≥ 1")]
    fn zero_capacity_panics() {
        let _ = PreprocessCache::with_capacity(0);
    }

    #[test]
    #[should_panic(expected = "bound to one graph")]
    fn sharing_across_graphs_panics() {
        use kor_graph::GraphBuilder;
        let a = figure1();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["a"]);
        let y = b.add_node(["b"]);
        b.add_edge(x, y, 1.0, 1.0).unwrap();
        let b = b.build().unwrap();
        let cache = PreprocessCache::new();
        cache.context(&a, v(7));
        // Same NodeId namespace, different graph: must panic, not
        // silently answer with figure1's trees.
        cache.context(&b, x);
    }

    #[test]
    fn reach_tree_memoized_per_keyword() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        let (a, hit_a) = cache.reach_tree(&g, t(1), index.postings(t(1)));
        let (b, hit_b) = cache.reach_tree(&g, t(1), index.postings(t(1)));
        let (_, hit_c) = cache.reach_tree(&g, t(2), index.postings(t(2)));
        assert!(!hit_a && hit_b && !hit_c);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.reach_hits, s.reach_misses, s.trees_built), (1, 2, 2));
    }

    #[test]
    fn cached_reach_tree_matches_cold_build() {
        use kor_apsp::KeywordReach;
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        let (warm, _) = cache.reach_tree(&g, t(1), index.postings(t(1)));
        let cold = KeywordReach::build_tree(&g, index.postings(t(1)));
        for n in g.nodes() {
            assert_eq!(warm.budget(n).to_bits(), cold.budget(n).to_bits());
            assert_eq!(warm.objective(n).to_bits(), cold.objective(n).to_bits());
        }
    }

    /// Satellite: mutation-driven invalidation and the LRU cap must be
    /// **exclusive** counters — one removed entry bumps exactly one.
    #[test]
    fn invalidation_and_lru_counters_are_exclusive() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(8);
        cache.context(&g, v(7)); // stamp covers v0..v7 minus dead ends
        cache.context(&g, v(4));
        // Mutation touching v7's tree only: v7 reaches v7, v4's τ tree
        // does not relax head v7 (no path v7 → v4).
        let (warm, counts) = cache.carry_over(&g, &[v(7)]);
        assert_eq!(counts.contexts_evicted, 1);
        assert_eq!(counts.contexts_retained, 1);
        let s = warm.stats();
        assert_eq!(s.invalidated, 1, "stamped entry counts as invalidated");
        assert_eq!(s.evictions, 0, "…and never also as an LRU eviction");
        assert_eq!(s.retained, 1);
    }

    /// Satellite: an entry that is both stamped *and* over the cap is
    /// counted once — as invalidated. Survivors over the cap (possible
    /// only if the capacity shrank between builds) count as evictions.
    #[test]
    fn carry_over_applies_cap_to_survivors_only() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(3);
        cache.context(&g, v(5));
        cache.context(&g, v(6));
        cache.context(&g, v(7));
        // Shrink the cap in place: the maps now exceed it, which is the
        // only way the defensive cap path can fire.
        let cache = PreprocessCache {
            capacity: 1,
            inner: cache.inner,
        };
        let (warm, counts) = cache.carry_over(&g, &[v(7)]);
        // v7 is in a context's stamp iff v7 reaches that context's
        // target; v7 reaches only itself, so exactly the v7 context is
        // invalidated and the v5/v6 contexts survive the stamp filter.
        assert_eq!(counts.contexts_evicted, 1);
        assert_eq!(counts.contexts_retained, 2);
        let s = warm.stats();
        assert_eq!(s.invalidated, 1);
        // Two survivors over a cap of 1: exactly one LRU eviction, and
        // the invalidated entry was NOT double-counted here.
        assert_eq!(s.evictions, 1);
        assert_eq!(warm.context_entries(), 1);
    }

    #[test]
    fn lru_pressure_bumps_only_evictions() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(1);
        cache.context(&g, v(6));
        cache.context(&g, v(7)); // evicts v6 by cap
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.invalidated, 0);
        assert_eq!(s.retained, 0);
    }

    #[test]
    fn carry_over_keeps_clean_reach_trees() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        cache.reach_tree(&g, t(1), index.postings(t(1)));
        // t1's reach tree relaxes nodes that reach {v3, v6}; v1 reaches
        // neither (no out-edges), so a change at head v1 keeps it warm.
        let (warm, counts) = cache.carry_over(&g, &[v(1)]);
        assert_eq!((counts.reach_retained, counts.reach_evicted), (1, 0));
        let (_, reach_hit) = warm.reach_tree(&g, t(1), index.postings(t(1)));
        assert!(reach_hit, "clean reach tree carried over warm");
    }

    #[test]
    fn clear_releases_graph_binding() {
        use kor_graph::GraphBuilder;
        let a = figure1();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["a"]);
        let b = b.build().unwrap();
        let cache = PreprocessCache::new();
        cache.context(&a, v(7));
        cache.clear();
        // No stale trees remain, so a new dataset is fine.
        let (_, hit) = cache.context(&b, x);
        assert!(!hit);
    }
}
