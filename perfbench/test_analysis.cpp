// Self-tests of the harness's correctness gate, λ digest and span self-time
// aggregation.
#include "analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sim/comm.hpp"

namespace perfbench {
namespace {

using mfbc::graph::vid_t;
using mfbc::telemetry::SpanRecord;

/// Per-batch deltas of a real DistMfbc run, as the harness collects them.
std::vector<std::vector<double>> engine_deltas(const mfbc::graph::Graph& g,
                                               const std::vector<vid_t>& src,
                                               vid_t batch) {
  mfbc::sim::Sim sim(4);
  mfbc::core::DistMfbc engine(sim, g);
  mfbc::core::DistMfbcOptions opts;
  opts.batch_size = batch;
  opts.sources = src;
  std::vector<std::vector<double>> deltas;
  opts.on_batch = [&](int, std::size_t, const std::vector<double>& d) {
    deltas.push_back(d);
    return true;
  };
  engine.run(opts);
  return deltas;
}

TEST(Gate, PassesOnEngineDeltasAndTripsOnPerturbedOrMissingOnes) {
  const auto g = mfbc::graph::rmat({.scale = 7, .edge_factor = 6}, 3);
  std::vector<vid_t> src(40);
  std::iota(src.begin(), src.end(), vid_t{0});
  const vid_t batch = 16;  // batches of 16, 16 and 8 sources
  auto deltas = engine_deltas(g, src, batch);
  ASSERT_EQ(deltas.size(), 3u);

  const Gate ok = check_batches(g, src, batch, deltas);
  EXPECT_EQ(ok.attempted, 3);
  EXPECT_EQ(ok.failed, 0);
  EXPECT_GT(ok.brandes_s, 0);

  // Find a vertex with a nonzero dependency in the middle batch and nudge
  // it by far more than the 1e-9 relative tolerance.
  auto& mid = deltas[1];
  const auto v = static_cast<std::size_t>(
      std::max_element(mid.begin(), mid.end()) - mid.begin());
  ASSERT_GT(mid[v], 0);
  mid[v] *= 1 + 1e-7;
  EXPECT_EQ(check_batches(g, src, batch, deltas).failed, 1);

  mid[v] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(check_batches(g, src, batch, deltas).failed, 1);

  deltas.pop_back();  // the observer never reported the last batch
  const Gate short_run = check_batches(g, src, batch, deltas);
  EXPECT_EQ(short_run.attempted, 3);
  EXPECT_EQ(short_run.failed, 2);
}

TEST(Gate, ToleranceIsRelativeOneE9) {
  const std::vector<double> ref{0.0, 1.0, 1e6};
  EXPECT_TRUE(delta_matches({0.0, 1.0, 1e6 * (1 + 5e-10)}, ref));
  EXPECT_FALSE(delta_matches({0.0, 1.0, 1e6 * (1 + 5e-9)}, ref));
  EXPECT_FALSE(delta_matches({3e-9, 1.0, 1e6}, ref));
  EXPECT_FALSE(delta_matches({0.0, 1.0}, ref));
}

TEST(Digest, IsBitwise) {
  const std::vector<double> a{0.0, 1.5, 2.25};
  EXPECT_EQ(lambda_digest(a), lambda_digest(std::vector<double>(a)));
  EXPECT_EQ(lambda_digest(a).size(), 16u);
  EXPECT_NE(lambda_digest(a), lambda_digest({-0.0, 1.5, 2.25}));
  EXPECT_NE(lambda_digest(a),
            lambda_digest({0.0, 1.5, std::nextafter(2.25, 3.0)}));
}

SpanRecord span(std::int64_t id, std::int64_t parent, int tid,
                const char* name, double start, double end) {
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.tid = tid;
  r.name = name;
  r.start_us = start;
  r.dur_us = end - start;
  return r;
}

TEST(SelfTime, NestedCrossThreadAndDissolvedChunkChildren) {
  // Completion order, as the collector reports it.
  const std::vector<SpanRecord> spans{
      span(2, 1, 0, "a.inner", 15, 25),
      span(7, 1, 0, "a", 30, 35),  // nested in a span of its own name
      span(1, 0, 0, "a", 10, 40),
      span(4, 3, 1, "b", 60, 70),  // inside a pool chunk on thread 1
      span(3, 0, 1, "parallel.chunk", 50, 90),
      span(8, 5, 3, "e", 55, 65),  // outlives its parent: clipped
      span(5, 0, 2, "d", 30, 60),  // overlaps "a" from another thread
      span(0, -1, 0, "root", 0, 100),
      span(6, -1, 0, "outside", 0, 5),
  };
  const auto t = aggregate_layers(spans, 0);

  // root's children are a, d and (through the dissolved chunk) b; their
  // union is [10, 70), so 40 of root's 100 us are its own.
  EXPECT_DOUBLE_EQ(t.at("root").self_us, 40);
  EXPECT_DOUBLE_EQ(t.at("root").total_us, 100);
  // Outer a: 30 minus a.inner [15,25) and inner a [30,35) = 15; inner a: 5.
  EXPECT_EQ(t.at("a").calls, 2);
  EXPECT_DOUBLE_EQ(t.at("a").self_us, 20);
  EXPECT_DOUBLE_EQ(t.at("a").total_us, 30);
  EXPECT_DOUBLE_EQ(t.at("a.inner").self_us, 10);
  EXPECT_DOUBLE_EQ(t.at("b").self_us, 10);
  // d: 30 minus e clipped to [55, 60).
  EXPECT_DOUBLE_EQ(t.at("d").self_us, 25);
  EXPECT_DOUBLE_EQ(t.at("e").self_us, 10);
  EXPECT_EQ(t.count("parallel.chunk"), 0u);
  EXPECT_EQ(t.count("outside"), 0u);

  // Rooted lower, only that subtree counts.
  const auto sub = aggregate_layers(spans, 5);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.at("d").self_us, 25);
}

}  // namespace
}  // namespace perfbench
