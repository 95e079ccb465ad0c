// Statistical harness for the adaptive (ε,δ) sampler (mfbc/adaptive.hpp,
// docs/approximation.md) — the acceptance gate of the approximation layer.
//
// Four pinned contracts:
//   1. The guarantee itself: across ≥200 seeded runs on graphs with known
//      Brandes truth, the fraction of runs where ANY vertex's true λ escapes
//      its confidence interval stays within δ plus binomial slack. (The
//      bounds are conservative, so the observed miss count is expected to be
//      far below the allowance — but the allowance is the contract.)
//   2. ε → 0 degenerates to the exact sweep bit-for-bit: at k = n the
//      estimator scale is exactly 1.0, so the sampled λ must equal a plain
//      engine run over the same drawn source list with EXPECT_EQ on doubles.
//   3. Determinism: the full result (drawn sources, samples, batches, stop
//      reason, λ, CI endpoints) is bit-identical across thread counts,
//      recoverable fault schedules, and partitionings at fixed (seed,
//      schedule).
//   4. Resume: a run killed mid-sampling and resumed from the statistics
//      sidecar reproduces the uninterrupted run's (samples_used, λ, CI)
//      bitwise — including the crash window where the sidecar leads the λ
//      checkpoint by one batch. Damaged sidecars are named defects, never
//      silently accepted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baseline/brandes.hpp"
#include "baseline/combblas_bc.hpp"
#include "core/checkpoint.hpp"
#include "dist/partition.hpp"
#include "graph/generators.hpp"
#include "graph/prep.hpp"
#include "mfbc/adaptive.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "support/parallel.hpp"

namespace mfbc {
namespace {

using core::AdaptiveSampleResult;
using core::AdaptiveSamplerOptions;
using core::AdaptiveStats;
using core::AdaptiveStatsError;
using core::AdaptiveStop;
using graph::Graph;
using graph::vid_t;

constexpr int kRanks = 4;
constexpr vid_t kBatch = 8;

/// Restores the global pool size on scope exit.
struct PoolSizeGuard {
  int saved = support::num_threads();
  ~PoolSizeGuard() { support::set_threads(saved); }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Thrown by the kill-injecting observers to simulate a process death at a
/// batch boundary. Deliberately NOT sim::FaultError: the driver's retry loop
/// must not absorb it, so it unwinds the whole run like a real kill.
struct KillSignal {
  int batch = -1;
};

/// Optional test hook wrapping the sampler's observer before the engine
/// sees it (the kill-injection point for the resume tests).
using ObserverWrap = std::function<core::BatchRunOptions::BatchObserver(
    const core::BatchRunOptions::BatchObserver&)>;

/// One adaptive run over DistMfbc with the given fault schedule/partition.
/// The engine checkpoint directory follows aopts.checkpoint_dir so the λ
/// checkpoint and the statistics sidecar land side by side, as the resume
/// contract requires.
AdaptiveSampleResult sampled_mfbc(const Graph& g,
                                  const AdaptiveSamplerOptions& aopts,
                                  const std::string& fault_spec = "",
                                  const dist::Partition* part = nullptr,
                                  const ObserverWrap& wrap = {}) {
  sim::Sim sim(kRanks);
  std::optional<core::DistMfbc> engine;
  if (part != nullptr) {
    engine.emplace(sim, g, *part);
  } else {
    engine.emplace(sim, g);
  }
  if (!fault_spec.empty()) sim.enable_faults(sim::FaultSpec::parse(fault_spec));
  return core::run_adaptive_bc(
      g.n(), aopts,
      [&](const std::vector<vid_t>& srcs,
          const core::BatchRunOptions::BatchObserver& ob, bool resume) {
        core::DistMfbcOptions opts;
        opts.batch_size = aopts.batch_size;
        opts.sources = srcs;
        opts.checkpoint_dir = aopts.checkpoint_dir;
        opts.resume = resume;
        opts.on_batch = wrap ? wrap(ob) : ob;
        return engine->run(opts);
      });
}

void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& ref, const std::string& label) {
  ASSERT_EQ(got.size(), ref.size()) << label;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    // EXPECT_EQ on doubles is exact — any regrouping shows up here.
    EXPECT_EQ(got[v], ref[v]) << label << ", vertex " << v;
  }
}

/// Full-result bit comparison: the determinism contract covers every field,
/// not just λ.
void expect_same_result(const AdaptiveSampleResult& got,
                        const AdaptiveSampleResult& ref,
                        const std::string& label) {
  EXPECT_EQ(got.sources, ref.sources) << label;
  EXPECT_EQ(got.samples_used, ref.samples_used) << label;
  EXPECT_EQ(got.batches, ref.batches) << label;
  EXPECT_EQ(got.full_batches, ref.full_batches) << label;
  EXPECT_EQ(got.stop_reason, ref.stop_reason) << label;
  EXPECT_EQ(got.guarantee_met, ref.guarantee_met) << label;
  EXPECT_EQ(got.max_ci_width, ref.max_ci_width) << label;
  expect_bits(got.lambda, ref.lambda, label + " lambda");
  expect_bits(got.ci_lower, ref.ci_lower, label + " ci_lower");
  expect_bits(got.ci_upper, ref.ci_upper, label + " ci_upper");
}

Graph path_graph(vid_t n) {
  std::vector<graph::Edge> edges;
  for (vid_t v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::from_edges(n, edges, /*directed=*/false, false);
}

Graph star_graph(vid_t leaves) {
  std::vector<graph::Edge> edges;
  for (vid_t v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return Graph::from_edges(leaves + 1, edges, /*directed=*/false, false);
}

// ---------------------------------------------------------------------------
// Contract 1: the (ε,δ) guarantee, measured.

struct Family {
  const char* name;
  Graph g;
  double eps;
  double delta;
};

// 200 seeded runs (4 graph families × 50 seeds) against Brandes truth. A run
// "misses" when any vertex's exact λ falls outside [ci_lower, ci_upper]. The
// sampler promises a joint miss probability ≤ δ per run, so the expected
// miss count is at most Σ_runs δ_run; we allow three binomial standard
// deviations on top so the test is deterministic-in-practice while still
// failing loudly on a broken bound. ε is sized so the runs genuinely stop
// early (k < n) — an exhausted run is exact and would test nothing.
TEST(AdaptiveGuarantee, JointMissRateWithinDelta) {
  graph::RmatParams params;
  params.scale = 6;
  params.edge_factor = 6;
  std::vector<Family> families;
  families.push_back(
      {"er", graph::erdos_renyi(40, 120, false, {}, 11), 0.30, 0.20});
  families.push_back(
      {"rmat",
       graph::random_relabel(
           graph::remove_isolated(graph::rmat(params, 77)), 7),
       0.35, 0.25});
  families.push_back({"path", path_graph(33), 0.40, 0.30});
  families.push_back({"star", star_graph(40), 0.30, 0.20});

  constexpr int kSeedsPerFamily = 50;
  int runs = 0;
  int misses = 0;
  int early_stops = 0;
  double expected_misses = 0;
  double variance = 0;
  for (const Family& fam : families) {
    const std::vector<double> truth = baseline::brandes(fam.g);
    for (int s = 0; s < kSeedsPerFamily; ++s) {
      AdaptiveSamplerOptions aopts;
      aopts.eps = fam.eps;
      aopts.delta = fam.delta;
      aopts.seed = 1000 + static_cast<std::uint64_t>(s);
      aopts.batch_size = kBatch;
      const AdaptiveSampleResult r = sampled_mfbc(fam.g, aopts);
      ++runs;
      expected_misses += fam.delta;
      variance += fam.delta * (1.0 - fam.delta);
      if (r.samples_used < fam.g.n()) ++early_stops;
      ASSERT_EQ(r.lambda.size(), truth.size());
      bool miss = false;
      for (std::size_t v = 0; v < truth.size(); ++v) {
        const double slack = 1e-9 * (1.0 + truth[v]);
        if (truth[v] < r.ci_lower[v] - slack ||
            truth[v] > r.ci_upper[v] + slack) {
          miss = true;
          break;
        }
      }
      if (miss) ++misses;
    }
  }
  ASSERT_GE(runs, 200);
  // The harness must test the sampled regime, not the exact fallback.
  EXPECT_GE(early_stops, runs / 2)
      << "eps too tight: most runs exhausted the source population";
  const double allowance = expected_misses + 3.0 * std::sqrt(variance);
  EXPECT_LE(static_cast<double>(misses), allowance)
      << misses << " joint CI misses in " << runs
      << " runs — the (eps,delta) guarantee is broken";
}

// The reported CI endpoints must bracket the reported point estimate, the
// certified stop reasons must carry guarantee_met, and the max width the
// sampler stopped on must actually be ≤ ε on convergence.
TEST(AdaptiveGuarantee, ResultInvariants) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 3);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.3;
  aopts.delta = 0.2;
  aopts.seed = 4;
  aopts.batch_size = kBatch;
  const AdaptiveSampleResult r = sampled_mfbc(g, aopts);
  EXPECT_EQ(r.stop_reason, AdaptiveStop::kConverged);
  EXPECT_TRUE(r.guarantee_met);
  EXPECT_LE(r.max_ci_width, aopts.eps);
  EXPECT_LT(r.samples_used, g.n());
  EXPECT_EQ(r.sources.size(), static_cast<std::size_t>(g.n()));
  for (std::size_t v = 0; v < r.lambda.size(); ++v) {
    EXPECT_LE(r.ci_lower[v], r.lambda[v]) << "vertex " << v;
    EXPECT_GE(r.ci_upper[v], r.lambda[v]) << "vertex " << v;
    EXPECT_GE(r.ci_lower[v], 0.0) << "vertex " << v;
  }
}

// Stopping on the sample budget is honest: guarantee_met must be false, and
// the cap must be respected exactly even when it is not a batch multiple.
TEST(AdaptiveGuarantee, SampleCapIsNotCertified) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 5);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 1e-12;  // unreachable: forces the cap to bind
  aopts.delta = 0.2;
  aopts.seed = 6;
  aopts.batch_size = kBatch;
  aopts.max_samples = 12;  // 8 + a partial tail of 4
  const AdaptiveSampleResult r = sampled_mfbc(g, aopts);
  EXPECT_EQ(r.stop_reason, AdaptiveStop::kSampleCap);
  EXPECT_FALSE(r.guarantee_met);
  EXPECT_EQ(r.samples_used, 12);
  EXPECT_EQ(r.batches, 2);
  EXPECT_EQ(r.full_batches, 1u);  // the partial tail stays out of Bernstein
  EXPECT_GT(r.max_ci_width, aopts.eps);
}

// ---------------------------------------------------------------------------
// Contract 2: ε → 0 degenerates to the exact sweep, bit for bit.

TEST(AdaptiveExactness, EpsZeroIsBitEqualToExactRun) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 7);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.0;
  aopts.delta = 0.1;
  aopts.seed = 8;
  aopts.batch_size = kBatch;
  const AdaptiveSampleResult r = sampled_mfbc(g, aopts);
  EXPECT_EQ(r.stop_reason, AdaptiveStop::kExhausted);
  EXPECT_TRUE(r.guarantee_met);
  EXPECT_EQ(r.samples_used, g.n());
  EXPECT_EQ(r.max_ci_width, 0.0);

  // The exact reference: run_batched_bc (through the engine) over the same
  // drawn source permutation, no sampler attached. At k = n the sampler's
  // scale is exactly 1.0, so equality is bitwise, not approximate.
  sim::Sim sim(kRanks);
  core::DistMfbc engine(sim, g);
  core::DistMfbcOptions opts;
  opts.batch_size = kBatch;
  opts.sources = r.sources;
  const std::vector<double> exact = engine.run(opts);
  expect_bits(r.lambda, exact, "eps=0 vs exact engine run");
  expect_bits(r.ci_lower, exact, "eps=0 ci_lower collapses to lambda");
  expect_bits(r.ci_upper, exact, "eps=0 ci_upper collapses to lambda");

  // And the exact run is the true λ (regrouping tolerance vs Brandes).
  const std::vector<double> truth = baseline::brandes(g);
  for (std::size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(r.lambda[v], truth[v], 1e-9 * (1.0 + truth[v]));
  }
}

// A pivot budget above n clamps to n: the same drawn permutation, the same
// exhaustive stop and the same bits as an unbounded run.
TEST(ApproxBc, PivotCountClamped) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 7);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.0;
  aopts.delta = 0.1;
  aopts.seed = 8;
  aopts.batch_size = kBatch;
  const AdaptiveSampleResult r = sampled_mfbc(g, aopts);
  ASSERT_EQ(r.samples_used, g.n());

  AdaptiveSamplerOptions over = aopts;
  over.max_samples = 10 * g.n();
  const AdaptiveSampleResult clamped = sampled_mfbc(g, over);
  EXPECT_EQ(clamped.samples_used, g.n());
  EXPECT_EQ(clamped.stop_reason, AdaptiveStop::kExhausted);
  EXPECT_EQ(clamped.sources, r.sources);
  expect_bits(clamped.lambda, r.lambda, "budget 10n vs unbounded");
}

// Feeding the executed prefix of the drawn permutation back into a plain
// engine run reproduces the sampled estimate exactly (the replayability
// contract AdaptiveSampleResult::sources documents).
TEST(AdaptiveExactness, ExecutedPrefixReplaysBitwise) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 9);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.3;
  aopts.delta = 0.2;
  aopts.seed = 10;
  aopts.batch_size = kBatch;
  const AdaptiveSampleResult r = sampled_mfbc(g, aopts);
  ASSERT_LT(r.samples_used, g.n());

  sim::Sim sim(kRanks);
  core::DistMfbc engine(sim, g);
  core::DistMfbcOptions opts;
  opts.batch_size = kBatch;
  opts.sources.assign(r.sources.begin(),
                      r.sources.begin() + r.samples_used);
  const std::vector<double> raw = engine.run(opts);
  const double scale = static_cast<double>(g.n()) /
                       static_cast<double>(r.samples_used);
  for (std::size_t v = 0; v < raw.size(); ++v) {
    EXPECT_EQ(r.lambda[v], raw[v] * scale) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Contract 3: bit-identity across threads × faults × partitions.

TEST(AdaptiveDeterminism, BitIdenticalAcrossThreadsFaultsPartitions) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 13);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.3;
  aopts.delta = 0.2;
  aopts.seed = 14;
  aopts.batch_size = kBatch;
  const std::vector<std::string> schedules = {"", "transient@3", "rank@5:1"};
  PoolSizeGuard guard;
  for (const dist::PartitionKind pkind :
       {dist::PartitionKind::kBlock, dist::PartitionKind::kDegree}) {
    const dist::Partition part = dist::make_partition(g, pkind, kRanks);
    const char* pname =
        pkind == dist::PartitionKind::kBlock ? "block" : "balanced";
    support::set_threads(1);
    const AdaptiveSampleResult ref = sampled_mfbc(g, aopts, "", &part);
    ASSERT_LT(ref.samples_used, g.n());  // the sampled regime, not exact
    for (const int threads : {1, 2, 4}) {
      support::set_threads(threads);
      for (const std::string& spec : schedules) {
        const std::string label = std::string(pname) +
                                  " threads=" + std::to_string(threads) +
                                  " faults='" + spec + "'";
        expect_same_result(sampled_mfbc(g, aopts, spec, &part), ref, label);
      }
    }
  }
}

// Different seeds draw different permutations (and so different estimates):
// determinism is in the seed, not an accident of a constant schedule.
TEST(AdaptiveDeterminism, SeedChangesTheRun) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 15);
  AdaptiveSamplerOptions a;
  a.eps = 0.3;
  a.delta = 0.2;
  a.seed = 1;
  a.batch_size = kBatch;
  AdaptiveSamplerOptions b = a;
  b.seed = 2;
  const AdaptiveSampleResult ra = sampled_mfbc(g, a);
  const AdaptiveSampleResult rb = sampled_mfbc(g, b);
  EXPECT_NE(ra.sources, rb.sources);
  EXPECT_NE(ra.lambda, rb.lambda);
}

TEST(AdaptiveDeterminism, SampleSourcesIsASeededPermutationPrefix) {
  const vid_t n = 37;
  const auto full = core::sample_sources(n, n, 99);
  // A permutation: every vertex exactly once.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (vid_t v : full) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate " << v;
    seen[static_cast<std::size_t>(v)] = true;
  }
  // Deterministic in the seed, and k1 < k2 draws a strict prefix — the
  // property that lets the sampler hand the full permutation to the engine
  // while the stop rule trims execution.
  EXPECT_EQ(full, core::sample_sources(n, n, 99));
  const auto prefix = core::sample_sources(n, 10, 99);
  ASSERT_EQ(prefix.size(), 10u);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i], full[i]) << "position " << i;
  }
  EXPECT_NE(core::sample_sources(n, n, 100), full);
}

// ---------------------------------------------------------------------------
// Contract 4: kill mid-sampling, resume, reproduce bitwise.

struct ResumeRig {
  Graph g = graph::erdos_renyi(44, 150, false, {}, 21);
  AdaptiveSamplerOptions aopts;
  ResumeRig() {
    aopts.eps = 0.0;  // run every batch: deterministic batch count (6)
    aopts.delta = 0.1;
    aopts.seed = 22;
    aopts.batch_size = kBatch;
  }
  AdaptiveSamplerOptions with_dir(const std::string& dir,
                                  bool resume = false) const {
    AdaptiveSamplerOptions o = aopts;
    o.checkpoint_dir = dir;
    o.resume = resume;
    return o;
  }
};

/// Kill wrapper: forward the committed batch to the sampler first (the
/// sidecar is saved inside), then die — the sidecar now leads the λ
/// checkpoint by exactly one batch, the real crash window of the
/// sidecar-before-λ write order.
ObserverWrap kill_after_forwarding(int batch) {
  return [batch](const core::BatchRunOptions::BatchObserver& ob) {
    return [batch, ob](int idx, std::size_t cnt,
                       const std::vector<double>& delta) {
      const bool keep_going = ob(idx, cnt, delta);
      if (idx == batch) throw KillSignal{idx};
      return keep_going;
    };
  };
}

/// Kill wrapper: die before the sampler hears about the batch — sidecar and
/// λ checkpoint agree on the last fully committed batch.
ObserverWrap kill_before_forwarding(int batch) {
  return [batch](const core::BatchRunOptions::BatchObserver& ob) {
    return [batch, ob](int idx, std::size_t cnt,
                       const std::vector<double>& delta) {
      if (idx == batch) throw KillSignal{idx};
      return ob(idx, cnt, delta);
    };
  };
}

TEST(AdaptiveResume, SidecarAheadCrashWindowResumesBitwise) {
  const ResumeRig rig;
  const std::string ref_dir = fresh_dir("adaptive_resume_ref");
  const AdaptiveSampleResult ref =
      sampled_mfbc(rig.g, rig.with_dir(ref_dir));
  ASSERT_EQ(ref.stop_reason, AdaptiveStop::kExhausted);
  ASSERT_GE(ref.batches, 4);

  const std::string dir = fresh_dir("adaptive_resume_ahead");
  EXPECT_THROW(
      sampled_mfbc(rig.g, rig.with_dir(dir), "", nullptr,
                   kill_after_forwarding(2)),
      KillSignal);
  // The crash window, pinned: statistics cover batch 2, λ does not.
  EXPECT_EQ(core::load_adaptive_stats(dir).batches_done, 3u);
  EXPECT_EQ(core::load_checkpoint(dir).batches_done, 3u - 1u);

  const AdaptiveSampleResult resumed =
      sampled_mfbc(rig.g, rig.with_dir(dir, /*resume=*/true));
  expect_same_result(resumed, ref, "resume after sidecar-ahead crash");

  // The final persisted statistics are bitwise the uninterrupted run's.
  const AdaptiveStats a = core::load_adaptive_stats(dir);
  const AdaptiveStats b = core::load_adaptive_stats(ref_dir);
  EXPECT_EQ(a.batches_done, b.batches_done);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.full_batches, b.full_batches);
  EXPECT_EQ(a.sig, b.sig);
  expect_bits(a.m1, b.m1, "resumed sidecar m1");
  expect_bits(a.m2, b.m2, "resumed sidecar m2");
}

TEST(AdaptiveResume, CleanBoundaryCrashResumesBitwise) {
  const ResumeRig rig;
  const std::string ref_dir = fresh_dir("adaptive_resume_ref2");
  const AdaptiveSampleResult ref =
      sampled_mfbc(rig.g, rig.with_dir(ref_dir));

  const std::string dir = fresh_dir("adaptive_resume_clean");
  EXPECT_THROW(
      sampled_mfbc(rig.g, rig.with_dir(dir), "", nullptr,
                   kill_before_forwarding(2)),
      KillSignal);
  // Died between batches: sidecar and λ agree.
  EXPECT_EQ(core::load_adaptive_stats(dir).batches_done, 2u);
  EXPECT_EQ(core::load_checkpoint(dir).batches_done, 2u);

  const AdaptiveSampleResult resumed =
      sampled_mfbc(rig.g, rig.with_dir(dir, /*resume=*/true));
  expect_same_result(resumed, ref, "resume after clean-boundary crash");
}

// Two successive kills with a resume in between: every restart replays the
// committed prefix and continues, and the final result is still bitwise the
// uninterrupted run's.
TEST(AdaptiveResume, SurvivesRepeatedKills) {
  const ResumeRig rig;
  const std::string ref_dir = fresh_dir("adaptive_resume_ref3");
  const AdaptiveSampleResult ref =
      sampled_mfbc(rig.g, rig.with_dir(ref_dir));

  const std::string dir = fresh_dir("adaptive_resume_repeat");
  EXPECT_THROW(sampled_mfbc(rig.g, rig.with_dir(dir), "", nullptr,
                            kill_after_forwarding(1)),
               KillSignal);
  EXPECT_THROW(sampled_mfbc(rig.g, rig.with_dir(dir, true), "", nullptr,
                            kill_before_forwarding(4)),
               KillSignal);
  const AdaptiveSampleResult resumed =
      sampled_mfbc(rig.g, rig.with_dir(dir, /*resume=*/true));
  expect_same_result(resumed, ref, "resume after two kills");
}

// A converging run (not ε = 0) killed past the point where the stop rule
// would have fired must, on resume, stop at the very same batch with the
// same statistics — the stop decision is a pure fold over committed batches.
TEST(AdaptiveResume, ResumedRunStopsAtTheSameBatch) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 23);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.3;
  aopts.delta = 0.2;
  aopts.seed = 24;
  aopts.batch_size = kBatch;
  const std::string ref_dir = fresh_dir("adaptive_stop_ref");
  aopts.checkpoint_dir = ref_dir;
  const AdaptiveSampleResult ref = sampled_mfbc(g, aopts);
  ASSERT_EQ(ref.stop_reason, AdaptiveStop::kConverged);
  ASSERT_GE(ref.batches, 2);

  const std::string dir = fresh_dir("adaptive_stop_resume");
  aopts.checkpoint_dir = dir;
  // Kill at batch 1, the earliest resumable point: a crash during batch 0
  // leaves no λ checkpoint at all, and the engine's resume contract starts
  // such a run from scratch rather than resuming.
  EXPECT_THROW(sampled_mfbc(g, aopts, "", nullptr, kill_after_forwarding(1)),
               KillSignal);
  aopts.resume = true;
  const AdaptiveSampleResult resumed = sampled_mfbc(g, aopts);
  expect_same_result(resumed, ref, "converging resume");
}

// ---------------------------------------------------------------------------
// Sidecar defect taxonomy: every damaged form is a named error.

void expect_stats_error(const std::string& dir, const std::string& needle) {
  try {
    core::load_adaptive_stats(dir);
    FAIL() << "expected AdaptiveStatsError mentioning '" << needle << "'";
  } catch (const AdaptiveStatsError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

AdaptiveStats sample_stats() {
  AdaptiveStats st;
  st.n = 5;
  st.batches_done = 2;
  st.samples_used = 16;
  st.full_batches = 2;
  st.sig = 0xfeedface;
  st.m1 = {0.5, -0.0, 1e-300, 3.1415926535897931, 0.0};
  st.m2 = {0.25, 0.0, 0.0, 9.8696044010893586, 0.0};
  return st;
}

TEST(AdaptiveStatsFile, RoundTripsBitwise) {
  const std::string dir = fresh_dir("astats_roundtrip");
  const AdaptiveStats st = sample_stats();
  core::save_adaptive_stats(dir, st);
  const AdaptiveStats back = core::load_adaptive_stats(dir);
  EXPECT_EQ(back.n, st.n);
  EXPECT_EQ(back.batches_done, st.batches_done);
  EXPECT_EQ(back.samples_used, st.samples_used);
  EXPECT_EQ(back.full_batches, st.full_batches);
  EXPECT_EQ(back.sig, st.sig);
  ASSERT_EQ(back.m1.size(), st.m1.size());
  for (std::size_t i = 0; i < st.m1.size(); ++i) {
    // Bit patterns, not values: -0.0 and denormals must survive.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.m1[i]),
              std::bit_cast<std::uint64_t>(st.m1[i]))
        << "m1[" << i << "]";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.m2[i]),
              std::bit_cast<std::uint64_t>(st.m2[i]))
        << "m2[" << i << "]";
  }
}

TEST(AdaptiveStatsFile, MissingSidecarIsNamed) {
  const std::string dir = fresh_dir("astats_missing");
  expect_stats_error(dir, "cannot open");
}

TEST(AdaptiveStatsFile, ForeignFileIsNamed) {
  const std::string dir = fresh_dir("astats_foreign");
  std::ofstream(core::adaptive_stats_path(dir)) << "not a sidecar at all";
  expect_stats_error(dir, "bad magic");
}

TEST(AdaptiveStatsFile, VersionMismatchIsNamed) {
  const std::string dir = fresh_dir("astats_version");
  std::ofstream(core::adaptive_stats_path(dir))
      << "mfbc.stats.v9\n"
      << std::string(64, '\0');
  expect_stats_error(dir, "version mismatch");
}

TEST(AdaptiveStatsFile, TruncationIsNamed) {
  const std::string dir = fresh_dir("astats_truncated");
  core::save_adaptive_stats(dir, sample_stats());
  const std::string path = core::adaptive_stats_path(dir);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  expect_stats_error(dir, "truncated");
}

TEST(AdaptiveStatsFile, CorruptMomentsFailTheChecksum) {
  const std::string dir = fresh_dir("astats_corrupt");
  core::save_adaptive_stats(dir, sample_stats());
  const std::string path = core::adaptive_stats_path(dir);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  expect_stats_error(dir, "checksum mismatch");
}

TEST(AdaptiveStatsFile, MomentCountMismatchIsNamed) {
  const std::string dir = fresh_dir("astats_count");
  core::save_adaptive_stats(dir, sample_stats());
  const std::string path = core::adaptive_stats_path(dir);
  // The count field sits 40 bytes past the magic; bumping it detaches the
  // header from n before the checksum is even consulted.
  const std::streamoff at =
      static_cast<std::streamoff>(sizeof(core::kAdaptiveStatsMagic) - 1 + 40);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(at);
  const char bumped = 6;  // n is 5
  f.write(&bumped, 1);
  f.close();
  expect_stats_error(dir, "moment count != n");
}

// ---------------------------------------------------------------------------
// Resume refusal: a sidecar from a different run/graph/position never
// seasons another estimate.

/// A durable completed run to resume "against"; returns its directory.
std::string completed_run_dir(const std::string& name, const Graph& g,
                              const AdaptiveSamplerOptions& aopts) {
  const std::string dir = fresh_dir(name);
  AdaptiveSamplerOptions o = aopts;
  o.checkpoint_dir = dir;
  sampled_mfbc(g, o);
  return dir;
}

struct ResumeRefusalRig {
  Graph g = graph::erdos_renyi(24, 70, false, {}, 31);
  AdaptiveSamplerOptions aopts;
  ResumeRefusalRig() {
    aopts.eps = 0.0;
    aopts.delta = 0.1;
    aopts.seed = 32;
    aopts.batch_size = kBatch;
  }
};

void expect_resume_refused(const Graph& g,
                           const AdaptiveSamplerOptions& aopts,
                           const std::string& needle) {
  try {
    // Refusal happens during validation, before the engine is consulted.
    core::run_adaptive_bc(g.n(), aopts,
                          [](const std::vector<vid_t>&,
                             const core::BatchRunOptions::BatchObserver&,
                             bool) -> std::vector<double> {
                            ADD_FAILURE() << "engine ran on a refused resume";
                            return {};
                          });
    FAIL() << "expected the resume to be refused: " << needle;
  } catch (const AdaptiveStatsError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(AdaptiveResumeRefusal, DifferentRunShapeIsRefused) {
  const ResumeRefusalRig rig;
  const std::string dir =
      completed_run_dir("astats_sig", rig.g, rig.aopts);
  AdaptiveSamplerOptions o = rig.aopts;
  o.checkpoint_dir = dir;
  o.resume = true;
  o.seed += 1;  // a different permutation — not the run the sidecar covers
  expect_resume_refused(rig.g, o, "signature mismatch");
}

TEST(AdaptiveResumeRefusal, DifferentGraphIsRefused) {
  const ResumeRefusalRig rig;
  const std::string dir = completed_run_dir("astats_n", rig.g, rig.aopts);
  AdaptiveSamplerOptions o = rig.aopts;
  o.checkpoint_dir = dir;
  o.resume = true;
  const Graph other = graph::erdos_renyi(23, 70, false, {}, 31);
  expect_resume_refused(other, o, "different graph");
}

TEST(AdaptiveResumeRefusal, SidecarBehindTheCheckpointIsRefused) {
  const ResumeRefusalRig rig;
  const std::string dir =
      completed_run_dir("astats_behind", rig.g, rig.aopts);
  // Rewind the statistics two batches while λ stays ahead: no crash of the
  // sidecar-first write order produces this, so the resume must refuse to
  // certify rather than silently under-count.
  AdaptiveStats st = core::load_adaptive_stats(dir);
  ASSERT_GE(st.batches_done, 2u);
  st.batches_done -= 2;
  core::save_adaptive_stats(dir, st);
  AdaptiveSamplerOptions o = rig.aopts;
  o.checkpoint_dir = dir;
  o.resume = true;
  expect_resume_refused(rig.g, o, "disagrees with the λ checkpoint");
}

// ---------------------------------------------------------------------------
// Option validation and signature sensitivity.

TEST(AdaptiveOptionsValidation, BadOptionsThrowBeforeAnyWork) {
  const auto dummy = [](const std::vector<vid_t>&,
                        const core::BatchRunOptions::BatchObserver&,
                        bool) -> std::vector<double> { return {}; };
  AdaptiveSamplerOptions ok;
  EXPECT_THROW(core::run_adaptive_bc(0, ok, dummy), Error);
  AdaptiveSamplerOptions bad = ok;
  bad.eps = -0.1;
  EXPECT_THROW(core::run_adaptive_bc(10, bad, dummy), Error);
  bad = ok;
  bad.eps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(core::run_adaptive_bc(10, bad, dummy), Error);
  bad = ok;
  bad.delta = 0.0;
  EXPECT_THROW(core::run_adaptive_bc(10, bad, dummy), Error);
  bad = ok;
  bad.delta = 1.0;
  EXPECT_THROW(core::run_adaptive_bc(10, bad, dummy), Error);
  bad = ok;
  bad.batch_size = 0;
  EXPECT_THROW(core::run_adaptive_bc(10, bad, dummy), Error);
  bad = ok;
  bad.resume = true;  // resume without a checkpoint directory
  EXPECT_THROW(core::run_adaptive_bc(10, bad, dummy), Error);
  EXPECT_THROW(core::run_adaptive_bc(10, ok, nullptr), Error);
}

TEST(AdaptiveSignature, EveryRunShapeFieldIsBound) {
  const std::vector<vid_t> srcs = {3, 1, 4, 1, 5};
  AdaptiveSamplerOptions base;
  const std::uint64_t ref = core::adaptive_signature(10, base, srcs);
  EXPECT_EQ(core::adaptive_signature(10, base, srcs), ref);
  AdaptiveSamplerOptions o = base;
  o.eps = base.eps + 0.01;
  EXPECT_NE(core::adaptive_signature(10, o, srcs), ref);
  o = base;
  o.delta = base.delta + 0.01;
  EXPECT_NE(core::adaptive_signature(10, o, srcs), ref);
  o = base;
  o.seed += 1;
  EXPECT_NE(core::adaptive_signature(10, o, srcs), ref);
  o = base;
  o.batch_size += 1;
  EXPECT_NE(core::adaptive_signature(10, o, srcs), ref);
  o = base;
  o.max_samples += 1;
  EXPECT_NE(core::adaptive_signature(10, o, srcs), ref);
  o = base;
  o.graph_sig = 0xabc;
  EXPECT_NE(core::adaptive_signature(10, o, srcs), ref);
  EXPECT_NE(core::adaptive_signature(11, base, srcs), ref);
  std::vector<vid_t> other = srcs;
  other.back() += 1;
  EXPECT_NE(core::adaptive_signature(10, base, other), ref);
}

TEST(AdaptiveJson, ApproxBlockCarriesTheSchema) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, 41);
  AdaptiveSamplerOptions aopts;
  aopts.eps = 0.3;
  aopts.delta = 0.2;
  aopts.seed = 42;
  aopts.batch_size = kBatch;
  const AdaptiveSampleResult r = sampled_mfbc(g, aopts);
  const std::string j = core::approx_json(r, aopts).dump();
  for (const char* key :
       {"\"eps\"", "\"delta\"", "\"seed\"", "\"samples\"", "\"batches\"",
        "\"full_batches\"", "\"stop_reason\"", "\"guarantee_met\"",
        "\"max_ci_width\"", "\"ci_width\"", "\"p50\"", "\"p95\"",
        "\"max\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
  EXPECT_NE(j.find("\"stop_reason\":\"converged\""), std::string::npos) << j;
}

}  // namespace
}  // namespace mfbc
