// Differential harness pinning baseline parity: on randomized graphs the
// CombBLAS-path λ, the DistMfbc λ, and sequential Brandes must agree; each
// distributed engine must be bit-identical across thread counts and
// recoverable fault schedules; and attaching a tuner to the CombBLAS path
// must never charge more than the untuned fixed-plan run.
//
// Tolerance contract: *cross-engine* comparisons use a relative 1e-9
// EXPECT_NEAR — the engines accumulate shortest-path tie sums in different
// orders (batch structure, semiring grouping), so λ components may differ by
// a few ulps of regrouped floating-point addition, never more. *Within* one
// engine, runs are compared bit-for-bit: thread count and recovered faults
// must not change a single bit (docs/fault_tolerance.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <algorithm>

#include "baseline/brandes.hpp"
#include "baseline/combblas_bc.hpp"
#include "core/checkpoint.hpp"
#include "dist/partition.hpp"
#include "graph/generators.hpp"
#include "graph/more_generators.hpp"
#include "mfbc/adaptive.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "support/parallel.hpp"
#include "tune/calibrate.hpp"

namespace mfbc {
namespace {

using graph::Graph;
using graph::vid_t;

constexpr int kRanks = 4;       // square, so both engines accept it
constexpr vid_t kBatch = 8;     // several batches per run
constexpr double kRelTol = 1e-9;

/// Restores the global pool size on scope exit.
struct PoolSizeGuard {
  int saved = support::num_threads();
  ~PoolSizeGuard() { support::set_threads(saved); }
};

/// The randomized graph family: one undirected and one directed Erdős–Rényi
/// graph per seed, sized so runs take several batches and BFS levels.
Graph make_graph(std::uint64_t seed, bool directed) {
  return graph::erdos_renyi(/*n=*/44, /*m=*/150, directed, {},
                            seed * 2 + (directed ? 1 : 0));
}

std::vector<double> run_combblas(const Graph& g, const std::string& spec,
                                 tune::Tuner* tuner = nullptr) {
  sim::Sim sim(kRanks);
  baseline::CombBlasBc engine(sim, g);
  // Faults go live after construction so the one-time graph distribution
  // consumes no charge indices and schedules address the algorithm itself.
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  baseline::CombBlasOptions opts;
  opts.batch_size = kBatch;
  opts.tuner = tuner;
  return engine.run(opts);
}

std::vector<double> run_mfbc(const Graph& g, const std::string& spec) {
  sim::Sim sim(kRanks);
  core::DistMfbc engine(sim, g);
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  core::DistMfbcOptions opts;
  opts.batch_size = kBatch;
  return engine.run(opts);
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& ref, const char* label) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], kRelTol * (1.0 + ref[v]))
        << label << ", vertex " << v;
  }
}

void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& ref, const std::string& label) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    // EXPECT_EQ on doubles is exact — any regrouping shows up here.
    EXPECT_EQ(got[v], ref[v]) << label << ", vertex " << v;
  }
}

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

// CombBLAS λ == DistMfbc λ == sequential Brandes on randomized graphs.
TEST_P(Differential, EnginesAgreeWithBrandes) {
  for (const bool directed : {false, true}) {
    const Graph g = make_graph(GetParam(), directed);
    const std::vector<double> ref = baseline::brandes(g);
    expect_close(run_combblas(g, ""), ref,
                 directed ? "combblas directed" : "combblas undirected");
    expect_close(run_mfbc(g, ""), ref,
                 directed ? "mfbc directed" : "mfbc undirected");
  }
}

// Bit-identity matrix: each engine × threads ∈ {1,2,4} × fault schedules
// ∈ {none, transient, rank-failure} must reproduce the single-threaded
// fault-free bits exactly. Both schedules are recoverable: the transient is
// retried at the charge site, the rank failure is remapped and its batch
// rolled back from the λ checkpoint by the shared driver.
TEST_P(Differential, BitIdenticalAcrossThreadsAndFaults) {
  const Graph g = make_graph(GetParam(), false);
  const std::vector<std::string> schedules = {"", "transient@3", "rank@5:1"};
  PoolSizeGuard guard;
  support::set_threads(1);
  const std::vector<double> ref_comb = run_combblas(g, "");
  const std::vector<double> ref_mfbc = run_mfbc(g, "");
  for (const int threads : {1, 2, 4}) {
    support::set_threads(threads);
    for (const std::string& spec : schedules) {
      const std::string label =
          "threads=" + std::to_string(threads) + " faults='" + spec + "'";
      expect_bits(run_combblas(g, spec), ref_comb, "combblas " + label);
      expect_bits(run_mfbc(g, spec), ref_mfbc, "mfbc " + label);
    }
  }
}

// ---------------------------------------------------------------------------
// Elastic-recovery cells (docs/fault_tolerance.md "Elastic recovery"): the
// bit-identity matrix extended with spare-pool and grid-shrink recovery,
// crossed with the partitioning axis — threads {1,2,4} × fault schedules ×
// {spares, no-spares} × {block, balanced}.

/// One engine run with an explicit partition/machine, capturing the recovery
/// stats the elastic cells assert on.
struct DiffRun {
  std::vector<double> lambda;
  std::vector<sim::FaultInjector::TracePoint> trace;
  int spare_rehomes = 0;
  int grid_shrinks = 0;
};

DiffRun run_mfbc_part(const Graph& g, const std::string& spec,
                      dist::PartitionKind pkind,
                      const sim::MachineModel& machine = {},
                      vid_t batch = kBatch) {
  sim::Sim sim(kRanks, machine);
  core::DistMfbc engine(sim, g, dist::make_partition(g, pkind, kRanks));
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  core::DistMfbcOptions opts;
  opts.batch_size = batch;
  core::DistMfbcStats st;
  DiffRun out;
  out.lambda = engine.run(opts, &st);
  if (const sim::FaultInjector* fi = sim.faults()) out.trace = fi->trace();
  out.spare_rehomes = st.spare_rehomes;
  out.grid_shrinks = st.grid_shrinks;
  return out;
}

DiffRun run_combblas_part(const Graph& g, const std::string& spec,
                          dist::PartitionKind pkind) {
  sim::Sim sim(kRanks);
  baseline::CombBlasBc engine(sim, g, dist::make_partition(g, pkind, kRanks));
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  baseline::CombBlasOptions opts;
  opts.batch_size = kBatch;
  baseline::CombBlasStats st;
  DiffRun out;
  out.lambda = engine.run(opts, &st);
  if (const sim::FaultInjector* fi = sim.faults()) out.trace = fi->trace();
  out.spare_rehomes = st.spare_rehomes;
  out.grid_shrinks = st.grid_shrinks;
  return out;
}

/// First all-ranks charge index in `trace` strictly after `after` (used to
/// schedule kills at points that exist at every thread count).
std::uint64_t all_ranks_index_after(
    const std::vector<sim::FaultInjector::TracePoint>& trace,
    std::uint64_t after) {
  for (const auto& t : trace) {
    if (t.group_size == kRanks && t.index > after) return t.index;
  }
  return 0;
}

const char* part_name(dist::PartitionKind k) {
  return k == dist::PartitionKind::kBlock ? "block" : "balanced";
}

// Spare-pool cells: both engines, threads {1,2,4} × {spares, no-spares} ×
// {block, balanced} must reproduce the single-threaded fault-free bits of
// the same partition, and the spare pool must actually serve the recovery
// when provisioned (never when not).
TEST_P(Differential, SparePoolBitIdenticalAcrossThreadsAndPartitions) {
  const Graph g = make_graph(GetParam(), false);
  PoolSizeGuard guard;
  for (const dist::PartitionKind pkind :
       {dist::PartitionKind::kBlock, dist::PartitionKind::kDegree}) {
    support::set_threads(1);
    const DiffRun ref_comb = run_combblas_part(g, "", pkind);
    const DiffRun ref_mfbc = run_mfbc_part(g, "", pkind);
    for (const int threads : {1, 2, 4}) {
      support::set_threads(threads);
      for (const bool spares : {false, true}) {
        const std::string spec =
            spares ? "rank@5:1,spares:1" : "rank@5:1";
        const std::string label = std::string(part_name(pkind)) +
                                  " threads=" + std::to_string(threads) +
                                  " faults='" + spec + "'";
        const DiffRun comb = run_combblas_part(g, spec, pkind);
        expect_bits(comb.lambda, ref_comb.lambda, "combblas " + label);
        EXPECT_EQ(comb.spare_rehomes, spares ? 1 : 0) << "combblas " << label;
        EXPECT_EQ(comb.grid_shrinks, 0) << "combblas " << label;
        const DiffRun mfbc = run_mfbc_part(g, spec, pkind);
        expect_bits(mfbc.lambda, ref_mfbc.lambda, "mfbc " + label);
        EXPECT_EQ(mfbc.spare_rehomes, spares ? 1 : 0) << "mfbc " << label;
        EXPECT_EQ(mfbc.grid_shrinks, 0) << "mfbc " << label;
      }
    }
  }
}

// Grid-shrink cells: under a memory budget where survivor doubling would
// violate the fit, the balanced shrink must keep every partition's bits at
// every thread count. The budget is probed per partition — balanced
// orderings change the per-rank resident footprints.
TEST_P(Differential, GridShrinkBitIdenticalAcrossThreadsAndPartitions) {
  // Dense graph, small batch: the resident adjacency dominates the plan
  // workspace, so the fault-free plan still fits after a doubling
  // consolidates two residents onto one host. The plan never switches
  // mid-run — a switch would change the SpGEMM accumulation grid and the
  // floating-point summation order, breaking bit-identity with clean.
  const Graph g =
      graph::erdos_renyi(64, 800, /*directed=*/false, {}, 90 + GetParam());
  const vid_t batch = 2;
  PoolSizeGuard guard;
  for (const dist::PartitionKind pkind :
       {dist::PartitionKind::kBlock, dist::PartitionKind::kDegree}) {
    support::set_threads(1);
    sim::MachineModel m;
    std::vector<double> r(kRanks);
    {
      sim::Sim sim(kRanks, m);
      core::DistMfbc probe(sim, g, dist::make_partition(g, pkind, kRanks));
      for (int i = 0; i < kRanks; ++i) r[i] = sim.resident_words(i);
    }
    ASSERT_GT(r[2], 0.0);
    // Kill v0 (doubles onto host 1), then v2: a second doubling would stack
    // three residents on host 1 and violate the fit, forcing the balanced
    // shrink onto the pairs {0,1} and {2,3} — which fit again. The budget
    // sits just under the collision to maximize plan-fit headroom.
    const double first_double = r[0] + r[1];
    const double collision = first_double + r[2];
    const double shrunk = std::max(r[0] + r[1], r[2] + r[3]);
    m.memory_words = collision - 0.05 * r[2];
    ASSERT_GE(m.memory_words, first_double) << part_name(pkind);
    ASSERT_GE(m.memory_words, shrunk) << part_name(pkind);
    ASSERT_GT(collision, m.memory_words) << part_name(pkind);

    const DiffRun clean = run_mfbc_part(g, "", pkind, m, batch);
    const DiffRun pass1 =
        run_mfbc_part(g, "rank@1000000000,trace", pkind, m, batch);
    const std::uint64_t i1 =
        all_ranks_index_after(pass1.trace, pass1.trace.size() / 3);
    ASSERT_GT(i1, 0u);
    const DiffRun pass2 = run_mfbc_part(
        g, "rank@" + std::to_string(i1) + ":0,trace", pkind, m, batch);
    const std::uint64_t i2 = all_ranks_index_after(pass2.trace, i1 + 8);
    ASSERT_GT(i2, 0u);
    const std::string spec = "rank@" + std::to_string(i1) + ":0,rank@" +
                             std::to_string(i2) + ":2";

    for (const int threads : {1, 2, 4}) {
      support::set_threads(threads);
      const std::string label = std::string(part_name(pkind)) +
                                " threads=" + std::to_string(threads);
      const DiffRun degraded = run_mfbc_part(g, spec, pkind, m, batch);
      expect_bits(degraded.lambda, clean.lambda, "mfbc shrink " + label);
      EXPECT_EQ(degraded.grid_shrinks, 1) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive-sampler cross-engine cells (docs/approximation.md): the (ε,δ)
// sampler layered over each engine at equal (seed, schedule) must agree on
// the whole control plane — drawn sources, samples used, batch count, stop
// reason — bitwise, while λ and the CI endpoints meet the usual cross-engine
// regrouping tolerance. ε is fat relative to the per-batch width decrements,
// so an ulp of cross-engine λ difference can never flip a stop decision.

core::AdaptiveSampleResult run_adaptive_on(const Graph& g, bool use_mfbc,
                                           const std::string& spec) {
  sim::Sim sim(kRanks);
  std::optional<core::DistMfbc> mfbc_engine;
  std::optional<baseline::CombBlasBc> comb_engine;
  if (use_mfbc) {
    mfbc_engine.emplace(sim, g);
  } else {
    comb_engine.emplace(sim, g);
  }
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  core::AdaptiveSamplerOptions aopts;
  aopts.eps = 0.3;
  aopts.delta = 0.2;
  aopts.seed = 71;
  aopts.batch_size = kBatch;
  return core::run_adaptive_bc(
      g.n(), aopts,
      [&](const std::vector<vid_t>& srcs,
          const core::BatchRunOptions::BatchObserver& ob, bool resume) {
        if (use_mfbc) {
          core::DistMfbcOptions opts;
          opts.batch_size = kBatch;
          opts.sources = srcs;
          opts.on_batch = ob;
          opts.resume = resume;
          return mfbc_engine->run(opts);
        }
        baseline::CombBlasOptions opts;
        opts.batch_size = kBatch;
        opts.sources = srcs;
        opts.on_batch = ob;
        opts.resume = resume;
        return comb_engine->run(opts);
      });
}

TEST_P(Differential, AdaptiveSamplerAgreesAcrossEngines) {
  const Graph g = make_graph(GetParam(), false);
  const core::AdaptiveSampleResult mfbc = run_adaptive_on(g, true, "");
  const core::AdaptiveSampleResult comb = run_adaptive_on(g, false, "");
  // Control plane: bitwise. The drawn permutation is engine-independent by
  // construction; the stop decisions must be too.
  EXPECT_EQ(mfbc.sources, comb.sources);
  EXPECT_EQ(mfbc.samples_used, comb.samples_used);
  EXPECT_EQ(mfbc.batches, comb.batches);
  EXPECT_EQ(mfbc.full_batches, comb.full_batches);
  EXPECT_EQ(mfbc.stop_reason, comb.stop_reason);
  EXPECT_EQ(mfbc.guarantee_met, comb.guarantee_met);
  // Estimates: regrouping tolerance, like the exact cross-engine cells.
  expect_close(mfbc.lambda, comb.lambda, "adaptive lambda");
  expect_close(mfbc.ci_lower, comb.ci_lower, "adaptive ci_lower");
  expect_close(mfbc.ci_upper, comb.ci_upper, "adaptive ci_upper");

  // And each engine's sampled run is bit-identical across recoverable fault
  // schedules at the fixed (seed, schedule) — the determinism contract holds
  // with the sampler's early-stop vote in the loop.
  for (const std::string& spec : {std::string("transient@3"),
                                  std::string("rank@5:1")}) {
    const core::AdaptiveSampleResult mf = run_adaptive_on(g, true, spec);
    EXPECT_EQ(mf.samples_used, mfbc.samples_used) << spec;
    EXPECT_EQ(mf.stop_reason, mfbc.stop_reason) << spec;
    expect_bits(mf.lambda, mfbc.lambda, "mfbc adaptive faults=" + spec);
    expect_bits(mf.ci_upper, mfbc.ci_upper,
                "mfbc adaptive ci faults=" + spec);
    const core::AdaptiveSampleResult cb = run_adaptive_on(g, false, spec);
    EXPECT_EQ(cb.samples_used, comb.samples_used) << spec;
    expect_bits(cb.lambda, comb.lambda, "combblas adaptive faults=" + spec);
  }
}

// Acceptance pin: the tuned CombBLAS path never charges more than the
// untuned fixed-plan run (seed_stream anchors hysteresis at the SUMMA plan,
// so switching away requires a modelled win), and tuning never changes λ.
TEST_P(Differential, TunedBaselineNeverChargesMore) {
  const Graph g = make_graph(GetParam(), false);
  auto charged = [&](tune::Tuner* tuner, std::vector<double>* lambda) {
    sim::Sim sim(kRanks);
    baseline::CombBlasBc engine(sim, g);
    sim.ledger().reset();  // charge the algorithm, not the distribution
    baseline::CombBlasOptions opts;
    opts.batch_size = kBatch;
    opts.tuner = tuner;
    *lambda = engine.run(opts);
    return sim.ledger().critical().total_seconds();
  };
  std::vector<double> untuned_lambda, tuned_lambda;
  const double untuned = charged(nullptr, &untuned_lambda);
  tune::Tuner tuner;
  const double tuned = charged(&tuner, &tuned_lambda);
  EXPECT_LE(tuned, untuned);
  expect_bits(tuned_lambda, untuned_lambda, "tuned vs untuned");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

// ---------------------------------------------------------------------------
// Engine pins: the absolute outcome of one small run per engine
// configuration. Every cell above compares engines or configurations with
// each other, so a change that moves both engines (or every configuration)
// the same way still passes them; these rows catch it. A row is regenerated
// only by a change that sets out to alter charges or plans: a failing row
// prints its measured values in the table's own syntax.

enum class PinGraph {
  kWeighted,    ///< ER(48, 200), weights U{1..100}: the MFBC rows
  kUnweighted,  ///< ER(48, 200): the CombBLAS rows
  kDense,       ///< ER(64, 800): the grid-shrink rows
  kGrid,        ///< 8×8 grid, weights U{1..100}: a banded adjacency
};

struct PinRun {
  const char* name = "";
  bool combblas = false;
  PinGraph graph = PinGraph::kWeighted;
  int p = 4;
  vid_t batch = 16;
  dist::PartitionKind part = dist::PartitionKind::kBlock;
  core::PlanMode mode = core::PlanMode::kAuto;
  int c = 1;
  bool tuner = false;
  bool stable_plans = false;
  bool batch_deltas = false;
  double memory_words = 0;  ///< 0 keeps the machine model's default
  const char* faults = "";
};

struct Pin {
  std::uint64_t digest = 0;  ///< FNV-1a of λ's bits, then any batch deltas'
  double crit_words = 0, crit_msgs = 0, comm_seconds = 0, compute_seconds = 0;
  double forward_words = 0, backward_words = 0;
  std::vector<std::string> plans;
  int fwd_iterations = 0, bwd_iterations = 0;
  int batch_retries = 0, spare_rehomes = 0, grid_shrinks = 0;
  double imbalance_nnz = 0, imbalance_ops = 0;
  double overhead_words = 0;
  bool operator==(const Pin&) const = default;
};

Graph pin_graph(PinGraph kind) {
  switch (kind) {
    case PinGraph::kWeighted:
      return graph::erdos_renyi(48, 200, /*directed=*/false, {true, 1, 100}, 7);
    case PinGraph::kUnweighted:
      return graph::erdos_renyi(48, 200, /*directed=*/false, {}, 7);
    case PinGraph::kDense:
      return graph::erdos_renyi(64, 800, /*directed=*/false, {}, 91);
    case PinGraph::kGrid:
      return graph::grid_2d(8, /*torus=*/false, {true, 1, 100}, 7);
  }
  return {};
}

std::uint64_t fold_bits(const std::vector<double>& v, std::uint64_t h) {
  return core::fnv1a(v.data(), v.size() * sizeof(double), h);
}

template <typename Stats>
Pin pin_of(const std::vector<double>& lambda,
           const std::vector<std::vector<double>>& deltas,
           const sim::Sim& sim, const Stats& st) {
  Pin pin;
  pin.digest = core::fnv1a(lambda.data(), lambda.size() * sizeof(double));
  for (const auto& d : deltas) pin.digest = fold_bits(d, pin.digest);
  const sim::Cost crit = sim.ledger().critical();
  pin.crit_words = crit.words;
  pin.crit_msgs = crit.msgs;
  pin.comm_seconds = crit.comm_seconds;
  pin.compute_seconds = crit.compute_seconds;
  pin.forward_words = st.forward_cost.words;
  pin.backward_words = st.backward_cost.words;
  pin.plans = st.plans_used;
  pin.fwd_iterations = st.forward.iterations();
  pin.bwd_iterations = st.backward.iterations();
  pin.batch_retries = st.batch_retries;
  pin.spare_rehomes = st.spare_rehomes;
  pin.grid_shrinks = st.grid_shrinks;
  pin.imbalance_nnz = st.imbalance_nnz;
  pin.imbalance_ops = st.imbalance_ops;
  if (const sim::FaultInjector* fi = sim.faults()) {
    pin.overhead_words = fi->overhead().words;
  }
  return pin;
}

Pin measure(const PinRun& r) {
  const Graph g = pin_graph(r.graph);
  sim::MachineModel machine;
  if (r.memory_words > 0) machine.memory_words = r.memory_words;
  sim::Sim sim(r.p, machine);
  tune::Tuner tuner;
  std::vector<std::vector<double>> deltas;
  dist::Partition part = dist::make_partition(g, r.part, r.p);
  if (r.combblas) {
    baseline::CombBlasBc engine(sim, g, std::move(part));
    if (*r.faults != '\0') sim.enable_faults(sim::FaultSpec::parse(r.faults));
    baseline::CombBlasOptions opts;
    opts.batch_size = r.batch;
    if (r.tuner) opts.tuner = &tuner;
    baseline::CombBlasStats st;
    const std::vector<double> lambda = engine.run(opts, &st);
    return pin_of(lambda, deltas, sim, st);
  }
  core::DistMfbc engine(sim, g, std::move(part));
  if (*r.faults != '\0') sim.enable_faults(sim::FaultSpec::parse(r.faults));
  core::DistMfbcOptions opts;
  opts.batch_size = r.batch;
  opts.plan_mode = r.mode;
  opts.replication_c = r.c;
  if (r.tuner) opts.tuner = &tuner;
  opts.stable_plans = r.stable_plans;
  if (r.batch_deltas) opts.batch_deltas = &deltas;
  core::DistMfbcStats st;
  const std::vector<double> lambda = engine.run(opts, &st);
  return pin_of(lambda, deltas, sim, st);
}

/// `pin` in the syntax of the expected-value table below.
std::string pin_row(const Pin& pin) {
  auto hex = [](double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return std::string(buf);
  };
  std::string plans;
  for (const std::string& p : pin.plans) {
    plans += (plans.empty() ? "\"" : ", \"") + p + "\"";
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llxull",
                static_cast<unsigned long long>(pin.digest));
  return std::string("{") + digest + ",\n " + hex(pin.crit_words) + ", " +
         hex(pin.crit_msgs) + ",\n " + hex(pin.comm_seconds) + ", " +
         hex(pin.compute_seconds) + ",\n " + hex(pin.forward_words) + ", " +
         hex(pin.backward_words) + ",\n {" + plans + "},\n " +
         std::to_string(pin.fwd_iterations) + ", " +
         std::to_string(pin.bwd_iterations) + ", " +
         std::to_string(pin.batch_retries) + ", " +
         std::to_string(pin.spare_rehomes) + ", " +
         std::to_string(pin.grid_shrinks) + ",\n " + hex(pin.imbalance_nnz) +
         ", " + hex(pin.imbalance_ops) + ", " + hex(pin.overhead_words) + "}";
}

TEST(EnginePins, ChargesHoldPerConfiguration) {
  using dist::PartitionKind;
  // The shrink budget: the first doubling fits, the second collides on one
  // host, the balanced pairs fit again (the GridShrink cells' recipe,
  // evaluated once on the dense graph's resident footprints at p=4).
  constexpr double kShrinkMemory = 0x1.2273333333333p+12;
  const std::vector<std::pair<PinRun, Pin>> rows = {
      {{.name = "mfbc auto block p16", .p = 16},
       {0x980cbeaf987a9e62ull,
        0x1.6b38p+15, 0x1.a1p+10,
        0x1.bd619a1e1e1cep-9, 0x1.40e18b649168fp-16,
        0x1.58a8p+14, 0x1.6348p+14,
        {"3D-A,AB[4x2x2]", "3D-B,AC[4x2x2]", "3D-A,BC[4x2x2]", "1D-A[16]",
         "1D-B[16]"},
        23, 23, 0, 0, 0,
        0x1.47ae147ae147bp+0, 0x1.1442e774cd541p+0, 0x0p+0}},
      {{.name = "mfbc auto grid p16", .graph = PinGraph::kGrid, .p = 16},
       {0x875dbcf10d66ecc6ull,
        0x1.3cfcp+16, 0x1.284p+12,
        0x1.3a2fa0fcb4963p-7, 0x1.a53572ed4c379p-16,
        0x1.60bcp+15, 0x1.113cp+15,
        {"1D-A[16]", "3D-A,BC[4x2x2]", "3D-B,AC[4x2x2]", "3D-B,AB[4x2x2]",
         "1D-B[16]", "3D-A,AB[4x2x2]"},
        70, 70, 0, 0, 0,
        0x1.9249249249249p+1, 0x1.566d148d17068p+0, 0x0p+0}},
      {{.name = "mfbc ca c4", .p = 16, .mode = core::PlanMode::kFixedCa,
        .c = 4},
       {0x980cbeaf987a9e62ull,
        0x1.4dbp+15, 0x1.92p+10,
        0x1.acfdf4b23e504p-9, 0x1.6e0301abeb6fcp-16,
        0x1.2028p+14, 0x1.60b8p+14,
        {"3D-B,AC[4x2x2]"},
        23, 23, 0, 0, 0,
        0x1.47ae147ae147bp+0, 0x1.1fd75654e8548p+0, 0x0p+0}},
      {{.name = "mfbc tuner degree", .part = PartitionKind::kDegree,
        .tuner = true},
       {0x980cbeaf987a9e62ull,
        0x1.1a22p+16, 0x1.5ep+9,
        0x1.883f152aa07f4p-10, 0x1.c450517c1e898p-15,
        0x1.9528p+15, 0x1.23b8p+14,
        {"1D-A[4]+bal", "1D-B[4]+bal"},
        23, 23, 0, 0, 0,
        0x1.051eb851eb852p+0, 0x1.014a6ccd08e88p+0, 0x0p+0}},
      {{.name = "mfbc stable deltas chunk", .part = PartitionKind::kChunk,
        .stable_plans = true, .batch_deltas = true},
       {0x0d9f0ab423d664a9ull,
        0x1.bd4p+15, 0x1.7ap+9,
        0x1.a04829032315p-10, 0x1.ccda74e743d7dp-15,
        0x1.7f18p+14, 0x1.e0e8p+14,
        {"1D-A[4]+bal", "1D-B[4]+bal"},
        23, 23, 0, 0, 0,
        0x1.0f5c28f5c28f6p+0, 0x1.060001b526c3ep+0, 0x0p+0}},
      {{.name = "mfbc resident budget binds", .p = 16, .memory_words = 1024},
       {0x980cbeaf987a9e62ull,
        0x1.7c9p+15, 0x1.a3p+10,
        0x1.bfddcb470afb2p-9, 0x1.4e7877cfb421bp-16,
        0x1.58a8p+14, 0x1.85f8p+14,
        {"3D-A,AB[4x2x2]", "3D-B,AC[4x2x2]", "3D-A,BC[4x2x2]",
         "1D-A[16]"},
        23, 23, 0, 0, 0,
        0x1.47ae147ae147bp+0, 0x1.1a3cef22469eap+0, 0x0p+0}},
      {{.name = "combblas fixed p16", .combblas = true,
        .graph = PinGraph::kUnweighted, .p = 16},
       {0x9b66a0bff1ac16f0ull,
        0x1.12bp+14, 0x1.94p+9,
        0x1.adc4f4bc2a11dp-10, 0x1.2c029aed8a3a7p-16,
        0x1.124p+13, 0x1.bc4p+12,
        {"2D-AB[4x4]"},
        12, 9, 0, 0, 0,
        0x1.3d70a3d70a3d7p+0, 0x1.1a688e48380cfp+0, 0x0p+0}},
      {{.name = "combblas tuner chunk", .combblas = true,
        .graph = PinGraph::kUnweighted, .part = PartitionKind::kChunk,
        .tuner = true},
       {0x3933beffbfe27a3full,
        0x1.c1dp+14, 0x1.d8p+7,
        0x1.0b9694b50bee6p-11, 0x1.806a95ed5f0b1p-15,
        0x1.d16p+13, 0x1.7d4p+13,
        {"2D-AB[2x2]+bal"},
        12, 9, 0, 0, 0,
        0x1.0a3d70a3d70a4p+0, 0x1.0669d9694f70ep+0, 0x0p+0}},
      {{.name = "mfbc spare", .batch = 8, .faults = "rank@5:1,spares:1"},
       {0x980cbeaf987a9e62ull,
        0x1.8383p+16, 0x1.87cp+10,
        0x1.ac1ddb62ed661p-9, 0x1.d13725ed35b47p-15,
        0x1.987ap+15, 0x1.5584p+15,
        {"1D-A[4]", "1D-B[4]"},
        45, 45, 1, 1, 0,
        0x1.199999999999ap+0, 0x1.073d9fdf72cd1p+0, 0x1.378p+10}},
      {{.name = "combblas spare", .combblas = true,
        .graph = PinGraph::kUnweighted, .batch = 8,
        .faults = "rank@5:1,spares:1"},
       {0xd0c3c757e54ad6b9ull,
        0x1.736p+15, 0x1.e3p+8,
        0x1.0dd89ca5a9896p-10, 0x1.8167fd1cff47fp-15,
        0x1.871p+14, 0x1.355p+14,
        {"2D-AB[2x2]"},
        24, 18, 1, 1, 0,
        0x1.0f5c28f5c28f6p+0, 0x1.0a74a0d267b18p+0, 0x1.2cp+10}},
      {{.name = "mfbc shrink", .graph = PinGraph::kDense, .batch = 2,
        .memory_words = kShrinkMemory, .faults = "rank@236:0,rank@245:2"},
       {0x8ef8d353eefa748full,
        0x1.5765p+17, 0x1.5c4p+11,
        0x1.7c87a12fcc325p-8, 0x1.3739ca7378945p-12,
        0x1.6fd8p+15, 0x1.b328p+16,
        {"1D-A[4]", "2D-AC[2x2]"},
        66, 64, 2, 0, 1,
        0x1.0b851eb851eb8p+0, 0x1.0d1c63b81772p+0, 0x1.241p+13}},
      {{.name = "combblas shrink", .combblas = true, .graph = PinGraph::kDense,
        .batch = 2, .memory_words = kShrinkMemory,
        .faults = "rank@508:0,rank@523:2"},
       {0x32e650eb66d97ac5ull,
        0x1.b32dcp+19, 0x1.1e4p+11,
        0x1.7a087c1cd36dcp-8, 0x1.080a31ff78ea2p-12,
        0x1.fcbp+18, 0x1.55aep+18,
        {"2D-AB[2x2]"},
        97, 64, 2, 0, 1,
        0x1.0b851eb851eb8p+0, 0x1.071138bf9f069p+0, 0x1.117p+13}},
  };
  for (const auto& [run, want] : rows) {
    const Pin got = measure(run);
    EXPECT_TRUE(got == want) << run.name << " measured\n" << pin_row(got);
  }
}

}  // namespace
}  // namespace mfbc
