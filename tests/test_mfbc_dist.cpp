// Distributed MFBC correctness and cost behavior: the simulated-machine
// implementation must equal serial Brandes for every rank count and plan
// mode, weighted and unweighted, directed and undirected; and the ledger
// must reflect the §5.3 cost structure (communication charged, replication
// amortized, CA grids respected).
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/brandes.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"
#include "telemetry/registry.hpp"

namespace mfbc::core {
namespace {

using baseline::brandes;
using baseline::brandes_partial;
using graph::Graph;

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-9 * (1.0 + ref[v])) << "vertex " << v;
  }
}

class DistOverRanks
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(DistOverRanks, MatchesBrandes) {
  const auto [p, directed, weighted] = GetParam();
  graph::WeightSpec ws{weighted, 1, 10};
  Graph g = graph::erdos_renyi(40, 130, directed, ws,
                               500 + static_cast<std::uint64_t>(p));
  sim::Sim sim(p);
  DistMfbc engine(sim, g);
  auto got = engine.run({.batch_size = 8});
  expect_close(got, brandes(g));
}

INSTANTIATE_TEST_SUITE_P(
    RankSweep, DistOverRanks,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 9, 16),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_dir" : "_und") +
             (std::get<2>(info.param) ? "_w" : "_u");
    });

class CaPlanModes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CaPlanModes, FixedCaGridMatchesBrandes) {
  const auto [p, c] = GetParam();
  Graph g = graph::erdos_renyi(36, 110, false, {},
                               700 + static_cast<std::uint64_t>(p * 31 + c));
  sim::Sim sim(p);
  DistMfbc engine(sim, g);
  DistMfbcOptions opts;
  opts.batch_size = 9;
  opts.plan_mode = PlanMode::kFixedCa;
  opts.replication_c = c;
  DistMfbcStats stats;
  auto got = engine.run(opts, &stats);
  expect_close(got, brandes(g));
  // The fixed plan is the only plan used.
  ASSERT_EQ(stats.plans_used.size(), 1u);
  EXPECT_EQ(stats.plans_used[0], ca_plan(p, c).to_string());
}

INSTANTIATE_TEST_SUITE_P(Grids, CaPlanModes,
                         ::testing::Values(std::pair{4, 1}, std::pair{4, 4},
                                           std::pair{8, 2}, std::pair{16, 1},
                                           std::pair{16, 4}, std::pair{18, 2}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) +
                                  "_c" + std::to_string(info.param.second);
                         });

TEST(CaPlan, ShapeMatchesTheorem51) {
  // p1 = c (adjacency replication), p2 = p3 = √(p/c); the 2D level keeps
  // the adjacency stationary and communicates frontier + output (AC).
  const dist::Plan plan = ca_plan(16, 4);
  EXPECT_EQ(plan.p1, 4);
  EXPECT_EQ(plan.p2, 2);
  EXPECT_EQ(plan.p3, 2);
  EXPECT_EQ(plan.v1, dist::Variant1D::kB);
  EXPECT_EQ(plan.v2, dist::Variant2D::kAC);
}

TEST(CaPlan, RejectsNonSquareRemainder) {
  EXPECT_THROW(ca_plan(12, 2), Error);  // 12/2 = 6 not a square
  EXPECT_THROW(ca_plan(16, 3), Error);  // 3 does not divide 16
  EXPECT_NO_THROW(ca_plan(12, 3));      // 12/3 = 4 = 2²
}

TEST(DistMfbc, PartialSourcesMatchPartialBrandes) {
  Graph g = graph::erdos_renyi(50, 160, true, {}, 900);
  sim::Sim sim(4);
  DistMfbc engine(sim, g);
  DistMfbcOptions opts;
  opts.batch_size = 4;
  opts.sources = {0, 3, 17, 42, 49};
  auto got = engine.run(opts);
  expect_close(got, brandes_partial(g, opts.sources));
}

TEST(DistMfbc, WeightedRmatMatchesBrandes) {
  graph::RmatParams p;
  p.scale = 6;
  p.edge_factor = 5;
  p.weights = {true, 1, 100};
  Graph g = graph::rmat(p, 11);
  sim::Sim sim(9);
  DistMfbc engine(sim, g);
  auto got = engine.run({.batch_size = 16});
  expect_close(got, brandes(g));
}

TEST(DistMfbc, CommunicationChargedForMultiRank) {
  Graph g = graph::erdos_renyi(40, 120, false, {}, 33);
  sim::Sim sim(8);
  DistMfbc engine(sim, g);
  sim.ledger().reset();
  engine.run({.batch_size = 10, .sources = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}});
  const sim::Cost c = sim.ledger().critical();
  EXPECT_GT(c.words, 0.0);
  EXPECT_GT(c.msgs, 0.0);
  EXPECT_GT(c.compute_seconds, 0.0);
}

TEST(DistMfbc, SingleRankChargesNoCommunication) {
  Graph g = graph::erdos_renyi(30, 90, false, {}, 44);
  sim::Sim sim(1);
  DistMfbc engine(sim, g);
  sim.ledger().reset();
  auto got = engine.run({.batch_size = 30});
  EXPECT_DOUBLE_EQ(sim.ledger().critical().words, 0.0);
  expect_close(got, brandes(g));
}

TEST(DistMfbc, AdjacencyReplicationIsAmortizedAcrossBatches) {
  // With a fixed CA plan, the adjacency mapping is charged once; a second
  // batch must add strictly less communication than the first.
  Graph g = graph::erdos_renyi(60, 300, false, {}, 55);
  auto words_for_batches = [&](int nbatches) {
    sim::Sim sim(4);
    DistMfbc engine(sim, g);
    DistMfbcOptions opts;
    opts.batch_size = 6;
    opts.plan_mode = PlanMode::kFixedCa;
    opts.replication_c = 4;  // heavy replication makes amortization visible
    opts.sources.clear();
    for (graph::vid_t v = 0; v < 6 * nbatches; ++v) opts.sources.push_back(v);
    sim.ledger().reset();
    engine.run(opts);
    return sim.ledger().critical().words;
  };
  const double one = words_for_batches(1);
  const double two = words_for_batches(2);
  EXPECT_LT(two, 2.0 * one);
}

TEST(DistMfbc, HomeCacheHoldsOneCopyOfEachReplicatedOperand) {
#if MFBC_TELEMETRY
  // CA-MFBC with c = 4 on 16 ranks replicates A (forward) and Aᵀ (backward)
  // over four layers; the plan-home caches hold one copy of each, on layer
  // 0's home.
  for (const bool directed : {false, true}) {
    const Graph g = graph::erdos_renyi(48, 200, directed, {true, 1, 9}, 61);
    sim::Sim sim(16);
    DistMfbc engine(sim, g);
    DistMfbcOptions opts;
    opts.batch_size = 12;
    opts.plan_mode = PlanMode::kFixedCa;
    opts.replication_c = 4;
    DistMfbcStats stats;
    engine.run(opts, &stats);
    ASSERT_EQ(stats.plans_used, std::vector<std::string>{"3D-B,AC[4x2x2]"});
    const dist::Layout home{0, 2, 2, dist::Range{0, g.n()},
                            dist::Range{0, g.n()}, false};
    using Adj = dist::DistMatrix<graph::Weight>;
    const Adj a =
        Adj::scatter<algebra::TropicalMinMonoid>(sim, g.adj(), home);
    const Adj at = Adj::scatter<algebra::TropicalMinMonoid>(
        sim, sparse::transpose(g.adj()), home);
    EXPECT_EQ(telemetry::registry().value("mfbc.home_cache_bytes"),
              static_cast<double>(a.bytes() + at.bytes()))
        << (directed ? "directed" : "undirected");
  }
#else
  GTEST_SKIP() << "telemetry is compiled out";
#endif
}

TEST(DistMfbc, RunsAreDeterministic) {
  Graph g = graph::erdos_renyi(44, 150, true, {1, 1, 1}, 92);
  auto run_once = [&] {
    sim::Sim sim(6);
    DistMfbc engine(sim, g);
    auto bc = engine.run({.batch_size = 7});
    return std::pair{bc, sim.ledger().critical().words};
  };
  const auto [bc1, w1] = run_once();
  const auto [bc2, w2] = run_once();
  EXPECT_EQ(bc1, bc2);  // bitwise: same graph, same schedule, same folds
  EXPECT_DOUBLE_EQ(w1, w2);
}

TEST(DistMfbc, PhaseCostsSumToRunTotal) {
  Graph g = graph::erdos_renyi(40, 140, false, {}, 91);
  sim::Sim sim(4);
  DistMfbc engine(sim, g);
  sim.ledger().reset();
  DistMfbcStats stats;
  engine.run({.batch_size = 10, .sources = {0, 1, 2, 3, 4}}, &stats);
  const sim::Cost total = sim.ledger().critical();
  // Forward + backward phase deltas cover the run up to the final λ
  // reduction (which is outside both phases).
  EXPECT_GT(stats.forward_cost.words, 0.0);
  EXPECT_GT(stats.backward_cost.words, 0.0);
  EXPECT_LE(stats.forward_cost.words + stats.backward_cost.words,
            total.words + 1e-9);
  EXPECT_NEAR(stats.forward_cost.comm_seconds + stats.backward_cost.comm_seconds,
              total.comm_seconds, 0.2 * total.comm_seconds + 1e-12);
}

TEST(DistMfbc, StatsTracePopulated) {
  Graph g = graph::erdos_renyi(32, 100, false, {}, 66);
  sim::Sim sim(4);
  DistMfbc engine(sim, g);
  DistMfbcStats stats;
  engine.run({.batch_size = 32}, &stats);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_GT(stats.forward.iterations(), 0);
  EXPECT_GT(stats.backward.iterations(), 0);
  EXPECT_GT(stats.forward.total_ops, 0);
  EXPECT_FALSE(stats.plans_used.empty());
}

TEST(DistMfbc, MemoryLimitForbidsReplicationPlans) {
  // A per-rank memory cap just above the flat nnz/p share keeps the result
  // exact while restricting the autotuner to non-replicating plans.
  Graph g = graph::erdos_renyi(48, 300, false, {}, 77);
  sim::Sim sim(8);
  DistMfbc engine(sim, g);
  DistMfbcOptions opts;
  opts.batch_size = 12;
  const double total_words = 3.0 * static_cast<double>(g.nnz()) * 3.0;
  opts.tune.memory_words_limit = 2.0 * total_words / 8.0;
  DistMfbcStats stats;
  auto got = engine.run(opts, &stats);
  expect_close(got, brandes(g));
  for (const auto& name : stats.plans_used) {
    EXPECT_EQ(name.find("1D-B"), std::string::npos)
        << "adjacency-replicating plan chosen under memory cap: " << name;
  }
}

TEST(DistMfbc, ImpossibleMemoryLimitThrows) {
  Graph g = graph::erdos_renyi(30, 120, false, {}, 78);
  sim::Sim sim(4);
  DistMfbc engine(sim, g);
  DistMfbcOptions opts;
  opts.tune.memory_words_limit = 1.0;
  EXPECT_THROW(engine.run(opts), Error);
}

TEST(DistMfbc, RejectsInvalidSourcesBeforeAnyDistributionWork) {
  Graph g = graph::erdos_renyi(20, 60, false, {}, 11);
  sim::Sim sim(4);
  DistMfbc engine(sim, g);
  // Construction distributes the adjacency; everything charged after this
  // point would belong to the (invalid) run.
  const double words_before = sim.ledger().critical().words;
  const double ops_before = sim.ledger().critical().ops;

  DistMfbcOptions opts;
  opts.batch_size = 4;
  opts.sources = {0, 25};  // 25 >= n
  EXPECT_THROW(engine.run(opts), Error);
  opts.sources = {-1, 2};
  EXPECT_THROW(engine.run(opts), Error);
  opts.sources = {3, 5, 3};  // duplicate
  EXPECT_THROW(engine.run(opts), Error);

  // Validation happens before any batch is formed or collective charged.
  EXPECT_EQ(sim.ledger().critical().words, words_before);
  EXPECT_EQ(sim.ledger().critical().ops, ops_before);

  // And the same option set with the bad entries fixed runs fine.
  opts.sources = {3, 5, 0, 19};
  auto lambda = engine.run(opts);
  EXPECT_EQ(lambda.size(), static_cast<std::size_t>(g.n()));
}

TEST(DistMfbc, DisconnectedGraphAcrossRanks) {
  std::vector<graph::Edge> edges{{0, 1}, {1, 2}, {4, 5}, {5, 6}, {6, 4}};
  Graph g = Graph::from_edges(8, edges, false, false);
  sim::Sim sim(6);
  DistMfbc engine(sim, g);
  auto got = engine.run({.batch_size = 3});
  expect_close(got, brandes(g));
}

}  // namespace
}  // namespace mfbc::core
