// Correctness of the sequential MFBC stack (Algorithms 1–3) against serial
// Brandes, across directedness × weightedness × graph families, plus the
// phase-level invariants: MFBF distances/multiplicities vs Dijkstra/BFS and
// MFBr factors vs Brandes dependencies (ζ(s,v)·σ̄(s,v) = δ(s,v)).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <tuple>

#include "baseline/brandes.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sparse/ops.hpp"

namespace mfbc::core {
namespace {

using baseline::brandes;
using baseline::brandes_dependencies;
using baseline::brandes_partial;
using baseline::sssp_with_counts;
using graph::Edge;
using graph::Graph;

struct GraphCase {
  const char* name;
  bool directed;
  bool weighted;
  std::uint64_t seed;
};

// Without a printer gtest shows a parameter as its raw bytes, and ctest puts
// that text in the test name; `name` is a pointer, so the name would change
// with every load address.
void PrintTo(const GraphCase& c, std::ostream* os) {
  *os << c.name << " (seed " << c.seed << ")";
}

Graph make_case_graph(const GraphCase& c, vid_t n, nnz_t m) {
  graph::WeightSpec ws{c.weighted, 1, 10};
  return graph::erdos_renyi(n, m, c.directed, ws, c.seed);
}

class MfbcVsBrandes : public ::testing::TestWithParam<GraphCase> {};

TEST_P(MfbcVsBrandes, ExactBcOnRandomGraph) {
  Graph g = make_case_graph(GetParam(), 60, 180);
  auto ref = brandes(g);
  auto got = mfbc(g, {.batch_size = 16});
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-9 * (1.0 + ref[v])) << "vertex " << v;
  }
}

TEST_P(MfbcVsBrandes, MfbfMatchesSssp) {
  Graph g = make_case_graph(GetParam(), 50, 150);
  const std::vector<vid_t> sources{0, 7, 13, 49};
  auto t = mfbf(g, sources);
  for (vid_t s = 0; s < t.nb; ++s) {
    auto ref = sssp_with_counts(g, sources[static_cast<std::size_t>(s)]);
    for (vid_t v = 0; v < g.n(); ++v) {
      if (v == sources[static_cast<std::size_t>(s)]) continue;
      EXPECT_EQ(t.d(s, v), ref.dist[static_cast<std::size_t>(v)])
          << "dist s=" << s << " v=" << v;
      if (std::isfinite(ref.dist[static_cast<std::size_t>(v)])) {
        EXPECT_DOUBLE_EQ(t.m(s, v), ref.sigma[static_cast<std::size_t>(v)])
            << "mult s=" << s << " v=" << v;
      }
    }
  }
}

TEST_P(MfbcVsBrandes, MfbrFactorsMatchDependencies) {
  Graph g = make_case_graph(GetParam(), 40, 120);
  const std::vector<vid_t> sources{2, 19};
  auto at = sparse::transpose(g.adj());
  auto t = mfbf(g, sources);
  auto z = mfbr(g, at, t);
  for (vid_t s = 0; s < t.nb; ++s) {
    auto delta = brandes_dependencies(g, sources[static_cast<std::size_t>(s)]);
    for (vid_t v = 0; v < g.n(); ++v) {
      if (v == sources[static_cast<std::size_t>(s)]) continue;
      if (!std::isfinite(t.d(s, v))) continue;
      // δ(s,v) = ζ(s,v)·σ̄(s,v)  (§4.2.1)
      EXPECT_NEAR(z.z(s, v) * t.m(s, v), delta[static_cast<std::size_t>(v)],
                  1e-9 * (1.0 + delta[static_cast<std::size_t>(v)]))
          << "s=" << s << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, MfbcVsBrandes,
    ::testing::Values(GraphCase{"undirected_unweighted", false, false, 11},
                      GraphCase{"undirected_weighted", false, true, 22},
                      GraphCase{"directed_unweighted", true, false, 33},
                      GraphCase{"directed_weighted", true, true, 44}),
    [](const auto& info) { return info.param.name; });

class BatchInvariance : public ::testing::TestWithParam<vid_t> {};

TEST_P(BatchInvariance, ResultIndependentOfBatchSize) {
  Graph g = graph::erdos_renyi(48, 144, false, {}, 55);
  auto ref = mfbc(g, {.batch_size = 48});
  auto got = mfbc(g, {.batch_size = GetParam()});
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-9 * (1.0 + ref[v]));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchInvariance,
                         ::testing::Values(1, 3, 7, 16, 17, 47, 100));

TEST(MfbcSeq, RmatPowerLawGraph) {
  graph::RmatParams p;
  p.scale = 7;
  p.edge_factor = 6;
  Graph g = graph::rmat(p, 66);
  auto ref = brandes(g);
  auto got = mfbc(g, {.batch_size = 32});
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-8 * (1.0 + ref[v]));
  }
}

TEST(MfbcSeq, WeightedRmat) {
  graph::RmatParams p;
  p.scale = 6;
  p.edge_factor = 5;
  p.weights = {true, 1, 100};
  Graph g = graph::rmat(p, 77);
  auto ref = brandes(g);
  auto got = mfbc(g, {.batch_size = 16});
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-8 * (1.0 + ref[v]));
  }
}

TEST(MfbcSeq, DisconnectedComponents) {
  // Two components + an isolated vertex: unreachable pairs contribute 0.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}};
  Graph g = Graph::from_edges(7, edges, false, false);
  auto ref = brandes(g);
  auto got = mfbc(g, {.batch_size = 3});
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_DOUBLE_EQ(got[v], ref[v]);
  }
}

TEST(MfbcSeq, PartialSourcesMatchPartialBrandes) {
  Graph g = graph::erdos_renyi(64, 200, true, {}, 88);
  MfbcOptions opts;
  opts.batch_size = 8;
  opts.sources = {1, 5, 9, 33, 60};
  auto got = mfbc(g, opts);
  auto ref = brandes_partial(g, opts.sources);
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-9 * (1.0 + ref[v]));
  }
}

TEST(MfbcSeq, EqualWeightTiesAccumulateMultiplicities) {
  // Weighted diamond with equal-cost alternatives: 0->1->3 (2+2) and
  // 0->2->3 (1+3): σ̄(0,3) = 2.
  std::vector<Edge> edges{{0, 1, 2}, {1, 3, 2}, {0, 2, 1}, {2, 3, 3}};
  Graph g = Graph::from_edges(4, edges, true, true);
  auto t = mfbf(g, std::vector<vid_t>{0});
  EXPECT_EQ(t.d(0, 3), 4.0);
  EXPECT_DOUBLE_EQ(t.m(0, 3), 2.0);
}

TEST(MfbcSeq, WeightedGraphRevisitsFrontier) {
  // The Bellman-Ford frontier revisits a vertex when a lighter path arrives
  // later (§4.2.3: "a single vertex may appear many times in the frontier").
  // 0->2 weight 10 is relaxed first, then improved through the chain
  // 0->1->2 (2+2).
  std::vector<Edge> edges{{0, 2, 10}, {0, 1, 2}, {1, 2, 2}, {2, 3, 1}};
  Graph g = Graph::from_edges(4, edges, true, true);
  FrontierTrace trace;
  auto t = mfbf(g, std::vector<vid_t>{0}, &trace);
  EXPECT_EQ(t.d(0, 2), 4.0);
  EXPECT_EQ(t.d(0, 3), 5.0);
  EXPECT_GE(trace.iterations(), 3);  // more than the 2-hop BFS depth
}

TEST(MfbcSeq, UnweightedIterationsBoundedByDiameter) {
  // For unweighted graphs MFBF runs at most d relaxations (§5.3 uses this).
  std::vector<Edge> edges;
  const vid_t n = 10;
  for (vid_t v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  Graph g = Graph::from_edges(n, edges, false, false);
  FrontierTrace trace;
  mfbf(g, std::vector<vid_t>{0}, &trace);
  EXPECT_EQ(trace.iterations(), 9);  // path of diameter 9 from one end
}

TEST(MfbcSeq, UnweightedFrontierNnzSumsToReachablePairs) {
  // Each (s,v) pair enters the MFBF frontier exactly once in the unweighted
  // case — the §5.3 Σ nnz(F_i) ≤ n·n_b argument.
  Graph g = graph::erdos_renyi(60, 180, false, {}, 99);
  const std::vector<vid_t> sources{0, 1, 2, 3, 4, 5, 6, 7};
  FrontierTrace trace;
  auto t = mfbf(g, sources, &trace);
  nnz_t frontier_total = 0;
  for (nnz_t f : trace.frontier_nnz) frontier_total += f;
  nnz_t reachable = 0;
  for (vid_t s = 0; s < t.nb; ++s) {
    for (vid_t v = 0; v < g.n(); ++v) {
      if (v != sources[static_cast<std::size_t>(s)] && std::isfinite(t.d(s, v))) {
        ++reachable;
      }
    }
  }
  EXPECT_EQ(frontier_total, reachable);
}

TEST(MfbcSeq, TraceOpsArePositive) {
  Graph g = graph::erdos_renyi(30, 90, false, {}, 101);
  MfbcStats stats;
  mfbc(g, {.batch_size = 10}, &stats);
  EXPECT_GT(stats.forward.total_ops, 0);
  EXPECT_GT(stats.backward.total_ops, 0);
  EXPECT_EQ(stats.batches, 3);
}

TEST(MfbcSeq, DuplicateSourcesAccumulateTwice) {
  Graph g = graph::erdos_renyi(30, 90, false, {}, 123);
  MfbcOptions once;
  once.sources = {5};
  MfbcOptions twice;
  twice.sources = {5, 5};
  auto a = mfbc(g, once);
  auto b = mfbc(g, twice);
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_NEAR(b[v], 2.0 * a[v], 1e-12 * (1.0 + a[v]));
  }
}

TEST(MfbcSeq, SingleVertexAndEmptyGraphs) {
  Graph g1 = Graph::from_edges(1, {}, false, false);
  EXPECT_EQ(mfbc(g1, {.batch_size = 1}), std::vector<double>{0.0});
  Graph g0 = Graph::from_edges(0, {}, false, false);
  EXPECT_TRUE(mfbc(g0, {.batch_size = 1}).empty());
}

}  // namespace
}  // namespace mfbc::core
