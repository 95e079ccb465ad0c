// Tests for graph construction, generators, preprocessing, metrics, and I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "graph/mutate.hpp"
#include "graph/prep.hpp"
#include "graph/snap_proxy.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"

namespace mfbc::graph {
namespace {

TEST(Graph, UndirectedStoresBothDirections) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}}, /*directed=*/false,
                              /*weighted=*/false);
  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 2);
  EXPECT_EQ(g.nnz(), 4);
  EXPECT_EQ(g.out_degree(1), 2);
}

TEST(Graph, UndirectedAdjacencyIsItsOwnTranspose) {
  // The distributed engines read an undirected graph's Aᵀ from A, so every
  // way of building one must leave its adjacency symmetric, weights too.
  const Graph g = erdos_renyi(40, 120, false, {true, 1, 50}, 3);
  vid_t absent_v = 1;
  while (g.has_edge(0, absent_v)) ++absent_v;
  const vid_t present_v = g.adj().row_cols(1)[0];
  MutationBatch batch;
  batch.mutations = {Mutation::add(0, absent_v, 7.5),
                     Mutation::remove(1, present_v)};
  std::vector<vid_t> perm(static_cast<std::size_t>(g.n()));
  for (vid_t v = 0; v < g.n(); ++v) {
    perm[static_cast<std::size_t>(v)] = (v * 7 + 3) % g.n();
  }
  const std::vector<vid_t> some = {0, 5, 9, 12, 20, 33, 39};
  std::stringstream text("0 1 2\n1 0 5\n1 2 3\n2 3 1.5\n");
  const std::pair<const char*, Graph> built[] = {
      {"from_edges", g},
      {"from_edges, parallel edges in both directions",
       Graph::from_edges(4, {{0, 1, 2.0}, {1, 0, 5.0}, {1, 2, 3.0}}, false,
                         true)},
      {"read_edge_list",
       read_edge_list(text, {.directed = false, .weighted = true})},
      {"add_edge", g.add_edge(0, absent_v, 4.25)},
      {"remove_edge", g.remove_edge(1, present_v)},
      {"apply", g.apply(batch)},
      {"remove_isolated", remove_isolated(g)},
      {"random_relabel", random_relabel(g, 11)},
      {"relabel", relabel(g, perm)},
      {"symmetrize", symmetrize(erdos_renyi(30, 90, true, {true, 1, 9}, 5))},
      {"largest_component", largest_component(g)},
      {"induced_subgraph", induced_subgraph(g, some)},
  };
  for (const auto& [how, h] : built) {
    EXPECT_FALSE(h.directed()) << how;
    EXPECT_EQ(sparse::transpose(h.adj()), h.adj()) << how;
  }
}

TEST(Graph, DirectedStoresOneDirection) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}}, true, false);
  EXPECT_EQ(g.m(), 2);
  EXPECT_EQ(g.nnz(), 2);
  EXPECT_EQ(g.out_degree(2), 0);
}

TEST(Graph, SelfLoopsDropped) {
  Graph g = Graph::from_edges(2, {{0, 0}, {0, 1}}, true, false);
  EXPECT_EQ(g.m(), 1);
}

TEST(Graph, ParallelEdgesKeepMinimumWeight) {
  Graph g = Graph::from_edges(2, {{0, 1, 5.0}, {0, 1, 3.0}, {0, 1, 7.0}}, true,
                              true);
  EXPECT_EQ(g.m(), 1);
  EXPECT_EQ(g.adj().row_vals(0)[0], 3.0);
}

TEST(Graph, RejectsNonPositiveWeights) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 1, 0.0}}, true, true), Error);
  EXPECT_THROW(Graph::from_edges(2, {{0, 1, -2.0}}, true, true), Error);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}, true, false), Error);
}

TEST(Generators, ErdosRenyiExactEdgeCount) {
  Graph g = erdos_renyi(100, 300, /*directed=*/false, {}, 5);
  EXPECT_EQ(g.n(), 100);
  EXPECT_EQ(g.m(), 300);
  EXPECT_FALSE(g.weighted());
}

TEST(Generators, ErdosRenyiDeterministic) {
  Graph a = erdos_renyi(64, 200, false, {}, 9);
  Graph b = erdos_renyi(64, 200, false, {}, 9);
  EXPECT_EQ(a.adj(), b.adj());
  Graph c = erdos_renyi(64, 200, false, {}, 10);
  EXPECT_FALSE(a.adj() == c.adj());
}

TEST(Generators, ErdosRenyiWeighted) {
  WeightSpec ws{true, 1, 100};
  Graph g = erdos_renyi(50, 120, true, ws, 3);
  EXPECT_TRUE(g.weighted());
  for (vid_t r = 0; r < g.n(); ++r) {
    for (Weight w : g.adj().row_vals(r)) {
      EXPECT_GE(w, 1.0);
      EXPECT_LE(w, 100.0);
    }
  }
}

TEST(Generators, ErdosRenyiPercentMatchesFormula) {
  // f = 100·m/n² (§7.3's edge percentage); check within rounding.
  Graph g = erdos_renyi_percent(200, 1.0, false, {}, 7);
  const double f = 100.0 * 2.0 * static_cast<double>(g.m()) / (200.0 * 200.0);
  EXPECT_NEAR(f, 1.0, 0.02);
}

TEST(Generators, RmatShapeAndDeterminism) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  Graph a = rmat(p, 21);
  Graph b = rmat(p, 21);
  EXPECT_EQ(a.adj(), b.adj());
  EXPECT_EQ(a.n(), 1024);
  EXPECT_GT(a.m(), 6 * 1024);  // duplicates shave a bit off 8·n
  EXPECT_LE(a.m(), 8 * 1024);
}

TEST(Generators, RmatIsSkewed) {
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 16;
  Graph g = rmat(p, 33);
  auto stats = degree_stats(g);
  // Power-law-ish: the max degree far exceeds the average.
  EXPECT_GT(static_cast<double>(stats.max), 8.0 * stats.avg);
}

TEST(Generators, RmatWeighted) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  p.weights = {true, 1, 100};
  Graph g = rmat(p, 1);
  EXPECT_TRUE(g.weighted());
}

TEST(Prep, RemoveIsolatedCompacts) {
  // vertices 2 and 4 are isolated
  Graph g = Graph::from_edges(6, {{0, 1}, {3, 5}}, false, false);
  std::vector<vid_t> map;
  Graph h = remove_isolated(g, &map);
  EXPECT_EQ(h.n(), 4);
  EXPECT_EQ(h.m(), 2);
  EXPECT_EQ(map[2], -1);
  EXPECT_EQ(map[4], -1);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[5], 3);
}

TEST(Prep, RandomRelabelPreservesStructure) {
  Graph g = erdos_renyi(60, 150, false, {}, 13);
  std::vector<vid_t> perm;
  Graph h = random_relabel(g, 99, &perm);
  EXPECT_EQ(h.n(), g.n());
  EXPECT_EQ(h.m(), g.m());
  // Degree multiset is preserved under relabeling.
  std::vector<vid_t> dg, dh;
  for (vid_t v = 0; v < g.n(); ++v) {
    dg.push_back(g.out_degree(v));
    dh.push_back(h.out_degree(v));
  }
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  EXPECT_EQ(dg, dh);
  // And each vertex keeps its degree through the permutation.
  for (vid_t v = 0; v < g.n(); ++v) {
    EXPECT_EQ(h.out_degree(perm[static_cast<std::size_t>(v)]),
              g.out_degree(v));
  }
}

TEST(Prep, LargestComponentKeepsGiant) {
  // Components of sizes 3, 2, 1 (vertex 5 isolated).
  Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}}, false, false);
  std::vector<vid_t> map;
  Graph giant = largest_component(g, &map);
  EXPECT_EQ(giant.n(), 3);
  EXPECT_EQ(giant.m(), 2);
  EXPECT_EQ(map[3], -1);
  EXPECT_EQ(map[5], -1);
  EXPECT_GE(map[0], 0);
  EXPECT_EQ(weakly_connected_components(giant), 1);
}

TEST(Prep, LargestComponentDirectedUsesWeakConnectivity) {
  Graph g = Graph::from_edges(5, {{0, 1}, {2, 1}, {3, 4}}, true, false);
  Graph giant = largest_component(g);
  EXPECT_EQ(giant.n(), 3);  // {0,1,2} weakly connected
  EXPECT_TRUE(giant.directed());
}

TEST(Prep, LargestComponentOnConnectedGraphIsIdentityShape) {
  Graph g = erdos_renyi(40, 200, false, {}, 77);
  if (weakly_connected_components(g) == 1) {
    Graph giant = largest_component(g);
    EXPECT_EQ(giant.n(), g.n());
    EXPECT_EQ(giant.m(), g.m());
  }
}

TEST(Prep, SymmetrizeMakesUndirected) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}}, true, false);
  Graph h = symmetrize(g);
  EXPECT_FALSE(h.directed());
  EXPECT_EQ(h.nnz(), 4);
  EXPECT_EQ(h.m(), 2);
}

TEST(Metrics, BfsLevelsOnPath) {
  Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false, false);
  auto levels = bfs_levels(g, 0);
  for (vid_t v = 0; v < 5; ++v) {
    EXPECT_EQ(levels[static_cast<std::size_t>(v)], v);
  }
}

TEST(Metrics, BfsUnreachableIsMinusOne) {
  Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}}, false, false);
  auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[2], -1);
  EXPECT_EQ(levels[3], -1);
}

TEST(Metrics, ComponentsAndReachability) {
  Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}}, false, false);
  EXPECT_EQ(weakly_connected_components(g), 3);  // {0,1,2},{3,4},{5}
  EXPECT_EQ(reachable_count(g, 0), 3);
  EXPECT_EQ(reachable_count(g, 3), 2);
  EXPECT_EQ(reachable_count(g, 5), 1);
}

TEST(Metrics, DiameterOfPathIsExactWithFullSampling) {
  Graph g = Graph::from_edges(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                  {5, 6}, {6, 7}},
                              false, false);
  auto d = estimate_diameter(g, /*samples=*/8, 1);
  EXPECT_EQ(d.lower_bound, 7);
}

TEST(Metrics, DegreeStats) {
  Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}}, false, false);
  auto s = degree_stats(g);
  EXPECT_EQ(s.max, 3);
  EXPECT_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.avg, 1.5);
}

TEST(Io, EdgeListRoundTrip) {
  Graph g = erdos_renyi(40, 100, false, {}, 17);
  std::stringstream ss;
  write_edge_list(ss, g);
  Graph h = read_edge_list(ss, {.directed = false, .weighted = true});
  EXPECT_EQ(h.n(), g.n());
  EXPECT_EQ(h.m(), g.m());
}

TEST(Io, EdgeListCommentsAndCompaction) {
  std::stringstream ss("# comment\n10 20\n20 30\n% another\n30 10\n");
  Graph g = read_edge_list(ss, {.directed = true, .weighted = false});
  EXPECT_EQ(g.n(), 3);  // ids compacted to 0..2
  EXPECT_EQ(g.m(), 3);
}

TEST(Io, MalformedEdgeListThrows) {
  std::stringstream ss("1 banana\n");
  EXPECT_THROW(read_edge_list(ss, {}), Error);
}

TEST(Io, EdgeListWhitespaceVariants) {
  // Tokens split on the whitespace operator>> skips in the classic locale:
  // tabs, CRLF line ends, runs of spaces, leading whitespace, \v and \f.
  // Tokens past the ones a line needs are ignored.
  auto read = [](const std::string& text, bool weighted) {
    std::stringstream ss(text);
    return read_edge_list(ss, {.directed = true, .weighted = weighted});
  };
  const Graph clean = read("10 20\n20 30\n30 40\n40 50\n50 60\n60 10\n", false);
  const Graph messy = read(
      "10\t20\r\n20    30\r\n  \t30 40\n40 50 7 extra tokens\n"
      "50\v60\f\n\t60\t \t10\t\r\n",
      false);
  EXPECT_EQ(messy.n(), clean.n());
  EXPECT_EQ(messy.adj(), clean.adj());

  const Graph wclean = read("1 2 2.5\n2 3 0.5\n3 4 4\n4 1 1e1\n", true);
  const Graph wmessy = read(
      "1\t2\t2.5\r\n2  3   0.5 trailing words\n \t 3 4 4\r\n\f4\v1 1e1 9\n",
      true);
  EXPECT_EQ(wmessy.n(), wclean.n());
  EXPECT_EQ(wmessy.adj(), wclean.adj());

  // A line of whitespace alone is still a truncated edge, and a weight
  // cut off by a CR is still missing.
  EXPECT_THROW(read("1 2\n \t\r\n", false), Error);
  EXPECT_THROW(read("1 2\r\n", true), Error);
}

TEST(Io, MatrixMarketRoundTrip) {
  WeightSpec ws{true, 1, 9};
  Graph g = erdos_renyi(30, 80, true, ws, 23);
  std::stringstream ss;
  write_matrix_market(ss, g);
  Graph h = read_matrix_market(ss);
  EXPECT_EQ(h.n(), g.n());
  EXPECT_EQ(h.m(), g.m());
  EXPECT_TRUE(h.directed());
  EXPECT_EQ(h.adj(), g.adj());
}

TEST(Io, MatrixMarketSymmetricPattern) {
  Graph g = erdos_renyi(25, 60, false, {}, 29);
  std::stringstream ss;
  write_matrix_market(ss, g);
  Graph h = read_matrix_market(ss);
  EXPECT_FALSE(h.directed());
  EXPECT_FALSE(h.weighted());
  EXPECT_EQ(h.adj(), g.adj());
}

TEST(SnapProxy, MatchesSpecShape) {
  for (const SnapSpec& spec : snap_specs()) {
    Graph g = snap_proxy(spec.id, /*scale=*/11, /*seed=*/2);
    EXPECT_EQ(g.directed(), spec.directed) << spec.name;
    // Average degree within a factor ~2 of the original (duplicate merging
    // in R-MAT and isolated-vertex removal shift it somewhat).
    const double target = spec.m_real / spec.n_real;
    EXPECT_GT(g.avg_degree(), target * 0.5) << spec.name;
    EXPECT_LT(g.avg_degree(), target * 2.0) << spec.name;
    // Preprocessing removed isolated vertices (paper §7.1).
    auto stats = degree_stats(g);
    if (!g.directed()) {
      EXPECT_GE(stats.min, 1) << spec.name;
    }
  }
}

TEST(SnapProxy, PatentsKeepsLargerDiameterThanOrkut) {
  Graph ork = snap_proxy(SnapId::kOrkut, 12, 4);
  Graph cit = snap_proxy(SnapId::kPatents, 12, 4);
  auto dork = estimate_diameter(symmetrize(ork), 12, 5);
  auto dcit = estimate_diameter(symmetrize(cit), 12, 5);
  EXPECT_GT(dcit.lower_bound, dork.lower_bound);
}

}  // namespace
}  // namespace mfbc::graph
