// Tests for the serial Brandes ground truth itself: closed-form centralities
// on canonical graphs and internal consistency between the BFS and Dijkstra
// code paths. Its Dijkstra also serves as the oracle for the two frontier
// strategies of the §4.2.3 ablation (apps/dijkstra_algebraic).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "apps/dijkstra_algebraic.hpp"
#include "baseline/brandes.hpp"
#include "graph/generators.hpp"

namespace mfbc::baseline {
namespace {

using graph::Edge;
using graph::Graph;

Graph path_graph(vid_t n) {
  std::vector<Edge> edges;
  for (vid_t v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::from_edges(n, edges, false, false);
}

Graph star_graph(vid_t leaves) {
  std::vector<Edge> edges;
  for (vid_t v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return Graph::from_edges(leaves + 1, edges, false, false);
}

Graph complete_graph(vid_t n) {
  std::vector<Edge> edges;
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph::from_edges(n, edges, false, false);
}

TEST(Brandes, PathGraphClosedForm) {
  // On a path, vertex i lies on the shortest path of every ordered pair
  // (s,t) with s < i < t or t < i < s: λ(i) = 2·i·(n-1-i).
  const vid_t n = 9;
  auto bc = brandes(path_graph(n));
  for (vid_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(bc[static_cast<std::size_t>(i)],
                     2.0 * static_cast<double>(i) *
                         static_cast<double>(n - 1 - i))
        << "vertex " << i;
  }
}

TEST(Brandes, StarGraphClosedForm) {
  // Center lies on all (k)(k-1) ordered leaf pairs; leaves on none.
  const vid_t k = 7;
  auto bc = brandes(star_graph(k));
  EXPECT_DOUBLE_EQ(bc[0], static_cast<double>(k) * static_cast<double>(k - 1));
  for (vid_t v = 1; v <= k; ++v) EXPECT_DOUBLE_EQ(bc[static_cast<std::size_t>(v)], 0.0);
}

TEST(Brandes, CompleteGraphIsZero) {
  auto bc = brandes(complete_graph(6));
  for (double v : bc) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Brandes, CycleGraph) {
  // C5 (odd): every pair has a unique shortest path; by symmetry every
  // vertex has equal centrality, total = Σ over pairs of interior vertices:
  // each ordered pair at distance 2 has exactly 1 interior vertex; there are
  // 2·5 such pairs, so each vertex gets 10/5 = 2.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}};
  auto bc = brandes(Graph::from_edges(5, edges, false, false));
  for (double v : bc) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Brandes, DirectedTriangleChain) {
  // 0 -> 1 -> 2: only pair routed through 1 is (0,2).
  auto bc = brandes(Graph::from_edges(3, {{0, 1}, {1, 2}}, true, false));
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(Brandes, TieSplitsCredit) {
  // Diamond 0-{1,2}-3: pair (0,3) splits across 1 and 2 (1/2 each way), and
  // pair (1,2) splits across 0 and 3 — every vertex ends at exactly 1.0.
  std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  auto bc = brandes(Graph::from_edges(4, edges, false, false));
  EXPECT_DOUBLE_EQ(bc[0], 1.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 1.0);
  EXPECT_DOUBLE_EQ(bc[3], 1.0);
}

TEST(Brandes, WeightedPathDominatesHopPath) {
  // 0-2 direct (weight 10) vs 0-1-2 (weights 3+3): the weighted route wins,
  // so vertex 1 carries the (0,2) pairs.
  std::vector<Edge> edges{{0, 2, 10.0}, {0, 1, 3.0}, {1, 2, 3.0}};
  auto bc = brandes(Graph::from_edges(3, edges, false, true));
  EXPECT_DOUBLE_EQ(bc[1], 2.0);  // both directions
}

TEST(Brandes, WeightedAllOnesMatchesUnweighted) {
  graph::WeightSpec ws{true, 1, 1};  // weighted graph, all weights 1
  Graph gw = graph::erdos_renyi(80, 240, false, ws, 5);
  Graph gu = graph::graph_from_csr(gw.adj(), false, false);
  auto bw = brandes(gw);  // Dijkstra path
  auto bu = brandes(gu);  // BFS path
  for (std::size_t v = 0; v < bw.size(); ++v) {
    EXPECT_NEAR(bw[v], bu[v], 1e-9 * (1.0 + std::abs(bu[v])));
  }
}

TEST(Brandes, PartialSumsToFull) {
  Graph g = graph::erdos_renyi(40, 120, false, {}, 8);
  auto full = brandes(g);
  std::vector<graph::vid_t> first, second;
  for (graph::vid_t v = 0; v < g.n(); ++v) {
    (v < g.n() / 2 ? first : second).push_back(v);
  }
  auto a = brandes_partial(g, first);
  auto b = brandes_partial(g, second);
  for (std::size_t v = 0; v < full.size(); ++v) {
    EXPECT_NEAR(a[v] + b[v], full[v], 1e-9 * (1.0 + full[v]));
  }
}

TEST(Brandes, SsspCountsOnDiamond) {
  std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  Graph g = Graph::from_edges(4, edges, false, false);
  auto r = sssp_with_counts(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 2.0);
  EXPECT_DOUBLE_EQ(r.sigma[3], 2.0);
  EXPECT_DOUBLE_EQ(r.sigma[0], 1.0);
}

TEST(Brandes, SsspUnreachable) {
  Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}}, false, false);
  auto r = sssp_with_counts(g, 0);
  EXPECT_TRUE(std::isinf(r.dist[2]));
  EXPECT_DOUBLE_EQ(r.sigma[2], 0.0);
}

TEST(Brandes, FrontierStrategiesMatchSsspDistances) {
  // Every row of the settled (Dijkstra) and maximal (MFBF) frontier loops
  // holds the Dijkstra distances from its source, on directed and
  // undirected graphs with integer weights (so the sums are exact).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool directed : {false, true}) {
      const Graph g =
          graph::erdos_renyi(70, 220, directed, {true, 1, 20}, seed);
      const auto n = static_cast<std::size_t>(g.n());
      std::vector<vid_t> sources(n);
      std::iota(sources.begin(), sources.end(), vid_t{0});
      const auto settled = apps::sssp_batch_dijkstra(g, sources);
      const auto maximal = apps::sssp_batch_maximal(g, sources);
      ASSERT_EQ(settled.size(), n * n);
      ASSERT_EQ(maximal.size(), n * n);
      for (std::size_t s = 0; s < n; ++s) {
        const std::vector<double> ref =
            sssp_with_counts(g, sources[s]).dist;
        const auto row = [&](const std::vector<double>& d) {
          const auto first = d.begin() + static_cast<std::ptrdiff_t>(s * n);
          return std::vector<double>(first,
                                     first + static_cast<std::ptrdiff_t>(n));
        };
        EXPECT_EQ(row(settled), ref)
            << "settled, seed " << seed << " directed " << directed
            << " source " << s;
        EXPECT_EQ(row(maximal), ref)
            << "maximal, seed " << seed << " directed " << directed
            << " source " << s;
      }
    }
  }
}

TEST(Brandes, DependenciesMatchDefinitionOnPath) {
  // On the path 0-1-2-3 from source 0: δ(0,1) counts pairs (0,t) through 1:
  // t=2,3 → 2; δ(0,2) = 1; δ(0,3) = 0.
  auto g = path_graph(4);
  auto d = brandes_dependencies(g, 0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 1.0);
  EXPECT_DOUBLE_EQ(d[3], 0.0);
}

}  // namespace
}  // namespace mfbc::baseline
