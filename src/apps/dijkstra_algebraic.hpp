// Algebraic Dijkstra — the frontier-selection strategy MFBC argues against.
//
// §4.2.3: "this scheme is much faster than using Dijkstra's algorithm to
// compute shortest-paths, since it requires the same number of iterations as
// Bellman Ford (Dijkstra's algorithm requires n − 1 matrix multiplications)."
//
// A matrix-formulated Dijkstra may only relax vertices whose distance is
// *settled* (provably final): per iteration, the unsettled vertices holding
// the minimum tentative distance. That keeps the work optimal but serializes
// the traversal — the frontier per iteration is tiny and the iteration count
// approaches the number of distinct distance values (up to n−1), each one a
// bulk-synchronous matrix multiplication. MFBF instead relaxes the *maximal*
// frontier (every vertex whose information changed), completing in
// amplified-diameter iterations at the price of some repeated relaxations.
//
// This module implements the settled-frontier scheme with the same sparse
// kernels so the two strategies' iteration/operation counts are directly
// comparable (bench_ablate_frontier reproduces the paper's argument).
#pragma once

#include <span>
#include <vector>

#include "algebra/tropical.hpp"
#include "graph/graph.hpp"

namespace mfbc::apps {

using algebra::Weight;
using graph::Graph;
using graph::vid_t;

struct FrontierCost {
  int iterations = 0;          ///< bulk-synchronous multiplications
  sparse::nnz_t total_ops = 0; ///< nonzero products over all iterations
  sparse::nnz_t frontier_nnz_total = 0;
};

/// Batched shortest paths with settled (Dijkstra) frontiers: row s of the
/// dense nb×n result holds the distances from sources[s] (∞ if unreachable).
/// `cost` (optional) receives the iteration/work counters.
std::vector<Weight> sssp_batch_dijkstra(const Graph& g,
                                        std::span<const vid_t> sources,
                                        FrontierCost* cost = nullptr);

/// The same counters for the maximal-frontier (MFBF-style) strategy, so the
/// two can be printed side by side.
std::vector<Weight> sssp_batch_maximal(const Graph& g,
                                       std::span<const vid_t> sources,
                                       FrontierCost* cost = nullptr);

}  // namespace mfbc::apps
