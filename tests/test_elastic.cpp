// Elastic recovery (docs/fault_tolerance.md "Elastic recovery"): spare-rank
// pools, grid-shrink graceful degradation, and durable restartable
// checkpoints.
//
// The contract under test:
//  1. Remap policy order — spare re-home first, survivor doubling when the
//     pool is dry, a balanced grid shrink when doubling would violate the
//     survivors' memory fit, a structured unrecoverable FaultError when the
//     shrink budget (or the shrunken fit) is exhausted too.
//  2. Every recoverable path produces bit-identical centrality at every
//     thread count; a spare re-home never charges more than survivor
//     doubling at the same schedule.
//  3. Durable checkpoints round-trip bitwise; corrupt, truncated, or
//     version-mismatched files are rejected with a named defect, never
//     silently loaded; --resume reproduces the uninterrupted run's bits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/combblas_bc.hpp"
#include "core/checkpoint.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "tune/plan_cache.hpp"

namespace mfbc::core {
namespace {

using graph::Graph;
using graph::vid_t;

/// Restores the global pool size on scope exit.
struct PoolSizeGuard {
  int saved = support::num_threads();
  ~PoolSizeGuard() { support::set_threads(saved); }
};

struct ElasticRun {
  std::vector<double> lambda;
  sim::Cost crit;
  sim::FaultCounters counters;
  sim::FaultOverhead overhead;
  std::vector<sim::FaultInjector::TracePoint> trace;
  std::vector<sim::RecoveryEvent> timeline;
  sim::SpareReport spares;
  int shrinks = 0;
  int batch_retries = 0;
  int spare_rehomes = 0;
  int grid_shrinks = 0;
  int resumed_batches = 0;
};

/// One distributed run with `spec` ("" = no injector), optionally on a
/// custom machine and with durable checkpoints. Faults are enabled after
/// construction so schedules address the algorithm itself.
ElasticRun run_dist(const Graph& g, int p, const std::string& spec,
                    const sim::MachineModel& machine = {},
                    const std::string& ckpt_dir = "", bool resume = false,
                    vid_t batch = 8) {
  sim::Sim sim(p, machine);
  DistMfbc engine(sim, g);
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  DistMfbcOptions opts;
  opts.batch_size = batch;
  opts.checkpoint_dir = ckpt_dir;
  opts.resume = resume;
  DistMfbcStats st;
  ElasticRun out;
  out.lambda = engine.run(opts, &st);
  out.crit = sim.ledger().critical();
  if (const sim::FaultInjector* fi = sim.faults()) {
    out.counters = fi->counters();
    out.overhead = fi->overhead();
    out.trace = fi->trace();
    out.timeline = fi->timeline();
    out.spares = fi->spare_report(out.crit.total_seconds());
    out.shrinks = fi->shrinks();
  }
  out.batch_retries = st.batch_retries;
  out.spare_rehomes = st.spare_rehomes;
  out.grid_shrinks = st.grid_shrinks;
  out.resumed_batches = st.resumed_batches;
  return out;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    ASSERT_EQ(got[v], ref[v]) << "vertex " << v;
  }
}

Graph test_graph() {
  return graph::erdos_renyi(40, 160, /*directed=*/false, {}, 99);
}

/// First all-ranks charge index in `trace` strictly after `after`.
std::uint64_t all_ranks_index_after(
    const std::vector<sim::FaultInjector::TracePoint>& trace, int p,
    std::uint64_t after) {
  for (const auto& t : trace) {
    if (t.group_size == p && t.index > after) return t.index;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Remap policy units (hand-driven injector, no Sim)

TEST(SpareRemap, DeadHostRehomesOntoTheNextSpare) {
  sim::FaultInjector fi(sim::FaultSpec::parse("spares:2"), 4);
  EXPECT_EQ(fi.nranks(), 4);
  EXPECT_EQ(fi.physical_ranks(), 6);
  EXPECT_EQ(fi.spares_provisioned(), 2);
  EXPECT_EQ(fi.spares_available(), 2);
  fi.kill(0);
  const sim::RemapOutcome out = fi.remap();
  EXPECT_TRUE(out.used_spare);
  EXPECT_FALSE(out.doubled);
  EXPECT_FALSE(out.shrunk);
  ASSERT_EQ(out.spares_activated.size(), 1u);
  EXPECT_EQ(out.spares_activated[0], 4);  // lowest spare id first
  EXPECT_EQ(fi.physical(0), 4);
  EXPECT_EQ(fi.physical(1), 1);  // survivors untouched
  EXPECT_EQ(fi.spares_available(), 1);
  EXPECT_EQ(fi.spares_activated(), 1);
  EXPECT_EQ(fi.alive_count(), 4);  // the fleet is back to full strength
  ASSERT_EQ(fi.timeline().size(), 1u);
  EXPECT_EQ(fi.timeline()[0].kind, sim::RecoveryEvent::Kind::kSpareRehome);
  EXPECT_EQ(fi.timeline()[0].victim, 0);
  EXPECT_EQ(fi.timeline()[0].host, 4);
}

TEST(SpareRemap, DryPoolFallsBackToSurvivorDoubling) {
  sim::FaultInjector fi(sim::FaultSpec::parse("spares:1"), 4);
  fi.kill(0);
  EXPECT_TRUE(fi.remap().used_spare);
  fi.kill(1);
  const sim::RemapOutcome out = fi.remap();
  EXPECT_FALSE(out.used_spare);
  EXPECT_TRUE(out.doubled);
  EXPECT_FALSE(out.shrunk);
  // Survivors sorted: {2, 3, 4}; v1 -> alive[1 mod 3] = 3 (the pre-elastic
  // doubling rule, unchanged).
  EXPECT_EQ(fi.physical(1), 3);
  EXPECT_EQ(fi.spares_available(), 0);
}

TEST(GridShrink, FitViolationShrinksBalancedOntoSurvivors) {
  // Doubling would put v1 (4 words) onto v2's host (12 resident) against a
  // 13-word budget; the balanced shrink pairs v0+v1 on host 0 instead.
  sim::MachineModel m;
  m.memory_words = 13;
  const std::vector<double> residents = {2, 4, 12, 5};
  sim::RemapContext ctx;
  ctx.vrank_resident_words = residents;
  ctx.machine = &m;
  sim::FaultInjector fi(sim::FaultSpec{}, 4);
  fi.kill(1);
  const sim::RemapOutcome out = fi.remap(ctx);
  EXPECT_TRUE(out.shrunk);
  EXPECT_FALSE(out.doubled);
  EXPECT_FALSE(out.used_spare);
  EXPECT_EQ(fi.shrinks(), 1);
  // Balanced contiguous map v -> alive[v·3/4] over survivors {0, 2, 3}.
  EXPECT_EQ(fi.physical(0), 0);
  EXPECT_EQ(fi.physical(1), 0);
  EXPECT_EQ(fi.physical(2), 2);
  EXPECT_EQ(fi.physical(3), 3);
}

TEST(GridShrink, ExhaustedShrinkBudgetIsUnrecoverable) {
  sim::MachineModel m;
  m.memory_words = 13;
  const std::vector<double> residents = {2, 4, 12, 5};
  sim::RemapContext ctx;
  ctx.vrank_resident_words = residents;
  ctx.machine = &m;
  sim::FaultInjector fi(sim::FaultSpec::parse("shrinks:0"), 4);
  fi.kill(1);
  try {
    fi.remap(ctx);
    FAIL() << "expected an unrecoverable FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_FALSE(e.recoverable());
    EXPECT_NE(std::string(e.what()).find("shrinks:0"), std::string::npos)
        << e.what();
  }
}

TEST(GridShrink, ShrunkenPlacementMustStillFit) {
  sim::MachineModel m;
  m.memory_words = 5;  // even the balanced pairs exceed this
  const std::vector<double> residents = {2, 4, 12, 5};
  sim::RemapContext ctx;
  ctx.vrank_resident_words = residents;
  ctx.machine = &m;
  sim::FaultInjector fi(sim::FaultSpec{}, 4);
  fi.kill(1);
  try {
    fi.remap(ctx);
    FAIL() << "expected an unrecoverable FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_FALSE(e.recoverable());
    EXPECT_NE(std::string(e.what()).find("fit"), std::string::npos)
        << e.what();
  }
}

TEST(GridShrink, EveryHostDeadIsUnrecoverableEvenBeforeFitChecks) {
  sim::FaultInjector fi(sim::FaultSpec{}, 2);
  fi.kill(0);
  fi.kill(1);
  try {
    fi.remap();
    FAIL() << "expected an unrecoverable FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_FALSE(e.recoverable());
    EXPECT_NE(std::string(e.what()).find("dead"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Spare pool, end to end

TEST(SpareRecovery, BitIdenticalAndNeverCostlierThanDoubling) {
  PoolSizeGuard guard;
  const Graph g = test_graph();
  const int p = 4;
  const ElasticRun clean = run_dist(g, p, "");
  // Index selection against a checkpointing schedule (the never-firing
  // scheduled fault switches λ-checkpoint charging on).
  const ElasticRun pass1 = run_dist(g, p, "rank@1000000000,trace");
  const std::uint64_t mid =
      all_ranks_index_after(pass1.trace, p, pass1.trace.size() / 2);
  ASSERT_GT(mid, 0u);
  const std::string kill = "rank@" + std::to_string(mid) + ":1";

  const ElasticRun doubled = run_dist(g, p, kill);
  expect_bit_identical(doubled.lambda, clean.lambda);
  EXPECT_EQ(doubled.spare_rehomes, 0);

  for (int threads : {1, 2, 4}) {
    support::set_threads(threads);
    const ElasticRun spared = run_dist(g, p, kill + ",spares:2");
    expect_bit_identical(spared.lambda, clean.lambda);
    EXPECT_EQ(spared.spare_rehomes, 1) << "threads=" << threads;
    EXPECT_EQ(spared.grid_shrinks, 0);
    EXPECT_EQ(spared.batch_retries, 1);
    EXPECT_EQ(spared.spares.provisioned, 2);
    EXPECT_EQ(spared.spares.activated, 1);
    EXPECT_GT(spared.spares.idle_seconds, 0.0);
    // The spare path charges exactly the collectives the doubling path
    // charges (warm-up re-broadcast = restore + lost-block scatter), so at
    // equal schedules it is never costlier — the bench gate relies on this.
    EXPECT_LE(spared.crit.words, doubled.crit.words);
    EXPECT_LE(spared.crit.msgs, doubled.crit.msgs);
    EXPECT_LE(spared.crit.total_seconds(), doubled.crit.total_seconds());
    bool saw_failure = false, saw_rehome = false;
    for (const sim::RecoveryEvent& ev : spared.timeline) {
      saw_failure |= ev.kind == sim::RecoveryEvent::Kind::kRankFailure;
      saw_rehome |= ev.kind == sim::RecoveryEvent::Kind::kSpareRehome;
    }
    EXPECT_TRUE(saw_failure);
    EXPECT_TRUE(saw_rehome);
  }
}

TEST(SpareRecovery, SecondFailureAfterDryPoolStillRecovers) {
  const Graph g = test_graph();
  const int p = 4;
  const ElasticRun clean = run_dist(g, p, "");
  const ElasticRun pass1 = run_dist(g, p, "rank@1000000000,trace");
  const std::uint64_t i1 =
      all_ranks_index_after(pass1.trace, p, pass1.trace.size() / 3);
  ASSERT_GT(i1, 0u);
  // The second kill is scheduled against the post-recovery index space.
  const ElasticRun pass2 =
      run_dist(g, p, "rank@" + std::to_string(i1) + ":1,spares:1,trace");
  const std::uint64_t i2 = all_ranks_index_after(pass2.trace, p, i1 + 8);
  ASSERT_GT(i2, 0u);

  const ElasticRun both = run_dist(
      g, p, "rank@" + std::to_string(i1) + ":1,rank@" + std::to_string(i2) +
                ":2,spares:1");
  expect_bit_identical(both.lambda, clean.lambda);
  EXPECT_EQ(both.spare_rehomes, 1);  // first failure drains the pool
  EXPECT_EQ(both.counters.injected_rank, 2u);
  EXPECT_EQ(both.counters.aborted, 0u);
  EXPECT_EQ(both.spares.activated, 1);
  bool saw_double = false;
  for (const sim::RecoveryEvent& ev : both.timeline) {
    saw_double |= ev.kind == sim::RecoveryEvent::Kind::kSurvivorDouble;
  }
  EXPECT_TRUE(saw_double) << "second failure should fall back to doubling";
}

// ---------------------------------------------------------------------------
// Grid shrink, end to end

TEST(GridShrinkRecovery, DegradedButCorrectUnderTightMemory) {
  PoolSizeGuard guard;
  // Dense graph, small batch: the resident adjacency dominates the plan
  // workspace, so even after a doubling consolidates two residents onto one
  // host the generous (fault-free) plan still fits the leftover budget. The
  // plan therefore never switches mid-run — a plan switch would change the
  // SpGEMM accumulation grid and with it the floating-point summation
  // order, which is exactly what bit-identity with the clean run forbids.
  const Graph g = graph::erdos_renyi(64, 800, /*directed=*/false, {}, 99);
  const vid_t batch = 2;
  const int p = 4;  // 2x2 base grid
  // Probe the run's resident footprints to construct a memory budget where
  // the first doubling fits, the second collides on one host and violates
  // the fit, and the balanced shrink pairs fit again. The budget sits just
  // under the collision — the loosest value that still forces the shrink —
  // to maximize the plan-fit headroom everywhere else.
  sim::MachineModel m;
  std::vector<double> r(p);
  {
    sim::Sim sim(p, m);
    DistMfbc probe(sim, g);
    for (int i = 0; i < p; ++i) r[i] = sim.resident_words(i);
  }
  ASSERT_GT(r[2], 0.0);
  const double first_double = r[0] + r[1];           // v0 doubles onto host 1
  const double collision = first_double + r[2];      // v2 would land there too
  const double shrunk =
      std::max(r[0] + r[1], r[2] + r[3]);            // balanced pairs
  m.memory_words = collision - 0.05 * r[2];
  ASSERT_GE(m.memory_words, first_double);
  ASSERT_GE(m.memory_words, shrunk)
      << "the balanced shrink must fit for this test to recover";
  ASSERT_GT(collision, m.memory_words)
      << "the second doubling must violate the fit for this test to bite";

  const ElasticRun clean = run_dist(g, p, "", m, "", false, batch);
  const ElasticRun pass1 =
      run_dist(g, p, "rank@1000000000,trace", m, "", false, batch);
  const std::uint64_t i1 =
      all_ranks_index_after(pass1.trace, p, pass1.trace.size() / 3);
  ASSERT_GT(i1, 0u);
  const ElasticRun pass2 = run_dist(
      g, p, "rank@" + std::to_string(i1) + ":0,trace", m, "", false, batch);
  const std::uint64_t i2 = all_ranks_index_after(pass2.trace, p, i1 + 8);
  ASSERT_GT(i2, 0u);
  const std::string spec = "rank@" + std::to_string(i1) + ":0,rank@" +
                           std::to_string(i2) + ":2";

  for (int threads : {1, 2, 4}) {
    support::set_threads(threads);
    const ElasticRun degraded = run_dist(g, p, spec, m, "", false, batch);
    expect_bit_identical(degraded.lambda, clean.lambda);
    EXPECT_EQ(degraded.grid_shrinks, 1) << "threads=" << threads;
    EXPECT_EQ(degraded.shrinks, 1);
    EXPECT_EQ(degraded.counters.injected_rank, 2u);
    EXPECT_EQ(degraded.counters.aborted, 0u);
    bool saw_shrink = false;
    for (const sim::RecoveryEvent& ev : degraded.timeline) {
      saw_shrink |= ev.kind == sim::RecoveryEvent::Kind::kGridShrink;
    }
    EXPECT_TRUE(saw_shrink);
    // Degraded-but-correct is not free: the shrink redistribution charges.
    EXPECT_GT(degraded.crit.words, clean.crit.words);
  }
}

// ---------------------------------------------------------------------------
// Durable checkpoint files

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

LambdaCheckpoint sample_ckpt() {
  LambdaCheckpoint ck;
  ck.n = 5;
  ck.batches_done = 3;
  ck.source_sig = source_signature(5, 2, {0, 1, 2, 3, 4});
  ck.lambda = {0.5, -0.0, 1e-300, 3.1415926535897931, 0.0};
  return ck;
}

TEST(Checkpoint, SaveLoadRoundTripsBitwise) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  const LambdaCheckpoint ck = sample_ckpt();
  save_checkpoint(dir, ck);
  const LambdaCheckpoint back = load_checkpoint(dir);
  EXPECT_EQ(back.n, ck.n);
  EXPECT_EQ(back.batches_done, ck.batches_done);
  EXPECT_EQ(back.source_sig, ck.source_sig);
  ASSERT_EQ(back.lambda.size(), ck.lambda.size());
  for (std::size_t i = 0; i < ck.lambda.size(); ++i) {
    // Bit patterns, not values: -0.0 must stay -0.0.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.lambda[i]),
              std::bit_cast<std::uint64_t>(ck.lambda[i]))
        << "lambda[" << i << "]";
  }
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const std::string dir = fresh_dir("ckpt_truncated");
  save_checkpoint(dir, sample_ckpt());
  const std::string path = checkpoint_path(dir);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  try {
    load_checkpoint(dir);
    FAIL() << "expected the truncated checkpoint to be rejected";
  } catch (const mfbc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(Checkpoint, CorruptPayloadIsRejectedByChecksum) {
  const std::string dir = fresh_dir("ckpt_corrupt");
  save_checkpoint(dir, sample_ckpt());
  std::fstream f(checkpoint_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(50);  // inside the λ payload
  char b = 0;
  f.seekg(50);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(50);
  f.write(&b, 1);
  f.close();
  try {
    load_checkpoint(dir);
    FAIL() << "expected the corrupt checkpoint to be rejected";
  } catch (const mfbc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, VersionMismatchIsNamedDistinctly) {
  const std::string dir = fresh_dir("ckpt_version");
  save_checkpoint(dir, sample_ckpt());
  std::fstream f(checkpoint_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(11);  // the version digit of "mfbc.ckpt.v1\n"
  f.write("9", 1);
  f.close();
  try {
    load_checkpoint(dir);
    FAIL() << "expected the future-versioned checkpoint to be rejected";
  } catch (const mfbc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, NonCheckpointFileIsRejected) {
  const std::string dir = fresh_dir("ckpt_garbage");
  std::ofstream(checkpoint_path(dir)) << "definitely not a checkpoint";
  EXPECT_THROW(load_checkpoint(dir), mfbc::Error);
  EXPECT_THROW(load_checkpoint(fresh_dir("ckpt_missing")), mfbc::Error);
}

// ---------------------------------------------------------------------------
// Durable checkpoints + resume, end to end

TEST(DurableCheckpoint, LedgerGrowsByExactlyTheChargedWrites) {
  const Graph g = test_graph();
  const int p = 4;
  const std::string dir = fresh_dir("elastic_durable");
  const ElasticRun clean = run_dist(g, p, "trace");
  const ElasticRun durable = run_dist(g, p, "trace", {}, dir);
  expect_bit_identical(durable.lambda, clean.lambda);
  // The per-batch write gathers are the only extra charges, all on
  // all-ranks groups, all accounted as overhead: exact ledger growth.
  EXPECT_GT(durable.overhead.words, 0.0);
  EXPECT_DOUBLE_EQ(durable.crit.words,
                   clean.crit.words + durable.overhead.words);
  EXPECT_DOUBLE_EQ(durable.crit.msgs, clean.crit.msgs + durable.overhead.msgs);
  const LambdaCheckpoint full = load_checkpoint(dir);
  EXPECT_EQ(full.n, 40u);
  EXPECT_EQ(full.batches_done, 5u);  // n=40, batch=8
}

TEST(DurableCheckpoint, ResumeReproducesTheUninterruptedRunBitwise) {
  const Graph g = test_graph();
  const int p = 4;
  const std::string dir = fresh_dir("elastic_resume");
  const ElasticRun clean = run_dist(g, p, "");

  // Index selection against the durable schedule (write gathers consume
  // charge indices too).
  const ElasticRun pass1 =
      run_dist(g, p, "trace", {}, fresh_dir("elastic_resume_probe"));
  const std::uint64_t mid =
      all_ranks_index_after(pass1.trace, p, pass1.trace.size() / 2);
  ASSERT_GT(mid, 0u);

  // Interrupt: an unrecoverable transient mid-run. The durable checkpoint
  // keeps the batches completed before the abort.
  {
    sim::Sim sim(p);
    DistMfbc engine(sim, g);
    sim.enable_faults(sim::FaultSpec::parse(
        "transient@" + std::to_string(mid) + ",retries:0"));
    DistMfbcOptions opts;
    opts.batch_size = 8;
    opts.checkpoint_dir = dir;
    EXPECT_THROW(engine.run(opts), sim::FaultError);
  }
  const LambdaCheckpoint partial = load_checkpoint(dir);
  ASSERT_GT(partial.batches_done, 0u);
  ASSERT_LT(partial.batches_done, 5u)
      << "the interrupt landed after the last batch; the resume is vacuous";

  const ElasticRun resumed = run_dist(g, p, "", {}, dir, /*resume=*/true);
  expect_bit_identical(resumed.lambda, clean.lambda);
  EXPECT_EQ(resumed.resumed_batches,
            static_cast<int>(partial.batches_done));
  // The finished run's checkpoint covers every batch again.
  EXPECT_EQ(load_checkpoint(dir).batches_done, 5u);
}

TEST(DurableCheckpoint, ResumeRejectsACheckpointFromADifferentRun) {
  const Graph g = test_graph();
  const std::string dir = fresh_dir("elastic_wrong_run");
  LambdaCheckpoint ck;
  ck.n = 40;
  ck.batches_done = 1;
  ck.source_sig = source_signature(40, 16, {0, 1, 2});  // wrong batch/sources
  ck.lambda.assign(40, 0.0);
  save_checkpoint(dir, ck);
  sim::Sim sim(4);
  DistMfbc engine(sim, g);
  DistMfbcOptions opts;
  opts.batch_size = 8;
  opts.checkpoint_dir = dir;
  opts.resume = true;
  try {
    engine.run(opts);
    FAIL() << "expected the mismatched checkpoint to be rejected";
  } catch (const mfbc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("signature"), std::string::npos)
        << e.what();
  }
}

// Each engine binds its checkpoints to the graph it computes on: a
// checkpoint from another graph of the same size, batching and sources is
// refused, signature or no signature passed by the caller.
TEST(DurableCheckpoint, ResumeRejectsACheckpointFromAnotherGraph) {
  const Graph written_on = graph::erdos_renyi(40, 120, false, {}, 1);
  const Graph resumed_on = graph::erdos_renyi(40, 120, false, {}, 2);
  auto run_on = [](const Graph& g, bool combblas, const std::string& dir,
                   bool resume) {
    sim::Sim sim(4);
    if (combblas) {
      baseline::CombBlasBc engine(sim, g);
      baseline::CombBlasOptions opts;
      opts.batch_size = 8;
      opts.checkpoint_dir = dir;
      opts.resume = resume;
      return engine.run(opts);
    }
    DistMfbc engine(sim, g);
    DistMfbcOptions opts;
    opts.batch_size = 8;
    opts.checkpoint_dir = dir;
    opts.resume = resume;
    return engine.run(opts);
  };
  for (const bool combblas : {false, true}) {
    const std::string dir =
        fresh_dir(combblas ? "elastic_other_graph_combblas"
                           : "elastic_other_graph_mfbc");
    run_on(written_on, combblas, dir, false);
    try {
      run_on(resumed_on, combblas, dir, true);
      ADD_FAILURE() << (combblas ? "combblas" : "mfbc")
                    << ": expected the other graph's checkpoint to be "
                       "rejected";
    } catch (const mfbc::Error& e) {
      EXPECT_NE(std::string(e.what()).find("signature"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Topology epoch in the plan-cache key

TEST(PlanKeyTopology, ShrinkEpochSeparatesCacheEntries) {
  tune::PlanKey healthy;
  healthy.monoid = "multpath";
  healthy.m = 8;
  healthy.k = 40;
  healthy.n = 40;
  healthy.ranks = 4;
  tune::PlanKey shrunk = healthy;
  shrunk.topology = 1;
  EXPECT_FALSE(healthy == shrunk);
  EXPECT_TRUE(healthy < shrunk);
  // The healthy key renders without the suffix (pre-elastic profile
  // compatibility); the shrunk epoch is visible in the key text.
  EXPECT_EQ(healthy.to_string().find(":g"), std::string::npos);
  EXPECT_NE(shrunk.to_string().find(":g1"), std::string::npos);

  tune::PlanCache cache;
  const std::vector<dist::Plan> plans = dist::enumerate_plans(4, {});
  ASSERT_GE(plans.size(), 2u);
  cache.insert(healthy, plans[0]);
  cache.insert(shrunk, plans[1]);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.find(healthy).has_value());
  ASSERT_TRUE(cache.find(shrunk).has_value());
  EXPECT_FALSE(*cache.find(healthy) == *cache.find(shrunk));

  // Entries survive the JSON profile round trip with their epoch intact.
  tune::PlanCache reloaded;
  reloaded.load_json(cache.to_json());
  EXPECT_EQ(reloaded.size(), 2u);
  ASSERT_TRUE(reloaded.find(shrunk).has_value());
  EXPECT_TRUE(*reloaded.find(shrunk) == plans[1]);
}

}  // namespace
}  // namespace mfbc::core
