//! Pre-processing structures for keyword-aware optimal route search.
//!
//! The paper's §3.1 pre-computes, for every node pair `(v_i, v_j)`, two
//! paths: `τ_{i,j}` with the smallest **objective** score and `σ_{i,j}`
//! with the smallest **budget** score (only their scores are consumed by
//! the algorithms). This crate provides that information in two forms:
//!
//! * [`DenseApsp`] — the faithful all-pairs matrices, computed either with
//!   Floyd–Warshall (as in the paper) or with repeated Dijkstra, including
//!   next-hop matrices for path reconstruction;
//! * lazy per-query structures that deliver exactly the values the search
//!   algorithms read, without `O(|V|²)` space:
//!   [`QueryContext`] (to-target `τ`/`σ` trees), [`KeywordReach`]
//!   (per-query-keyword nearest-node trees for Optimization Strategy 1),
//!   and [`CachedPairCosts`] (memoized forward trees for the greedy
//!   algorithm).
//!
//! Both forms agree exactly; `DenseApsp` doubles as the test oracle for
//! the lazy structures. [`PartitionedApsp`] additionally implements the
//! paper's §6 future-work scheme: partition the graph, pre-process within
//! clusters, and keep an all-pairs table only over border nodes.

mod dense;
mod keyword_reach;
mod pair;
mod partition;
mod query;
mod tree;

pub use dense::DenseApsp;
pub use keyword_reach::KeywordReach;
pub use pair::{CachedPairCosts, PairCosts, PathCost};
pub use partition::{partition, PartitionConfig, PartitionedApsp};
pub use query::QueryContext;
pub use tree::{backward_tree, forward_tree, Metric, SptNode, Tree, NO_NODE};
