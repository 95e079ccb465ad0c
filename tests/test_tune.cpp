// Tests for the adaptive plan-tuning subsystem (src/tune): calibration,
// profile persistence + validation, runtime observation, the persistent plan
// cache, online re-planning with hysteresis, and the invariant underpinning
// all of it — tuning changes plans, never results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "algebra/multpath.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"
#include "tune/calibrate.hpp"

namespace mfbc::tune {
namespace {

using algebra::BellmanFordAction;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using dist::DistMatrix;
using dist::Layout;
using dist::Range;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good());
  out << text;
}

CalibrateOptions small_calibration() {
  CalibrateOptions opts;
  opts.ranks = 8;
  opts.n = 128;
  opts.nb = 16;
  opts.degrees = {4.0};
  return opts;
}

// ---- Calibration ----

TEST(Calibration, ApplyScalesPlanningModelOnly) {
  Calibration c;
  c.alpha_scale = 2.0;
  c.beta_scale = 0.5;
  c.compute_scale = 3.0;
  c.samples = 4;
  const sim::MachineModel mm = sim::MachineModel::blue_waters();
  const sim::MachineModel tuned = c.apply(mm);
  EXPECT_DOUBLE_EQ(tuned.alpha, 2.0 * mm.alpha);
  EXPECT_DOUBLE_EQ(tuned.beta, 0.5 * mm.beta);
  EXPECT_DOUBLE_EQ(tuned.seconds_per_op, 3.0 * mm.seconds_per_op);
  EXPECT_DOUBLE_EQ(tuned.memory_words, mm.memory_words);
}

TEST(Calibration, ValidateRejectsBadScales) {
  Calibration nan;
  nan.alpha_scale = std::nan("");
  EXPECT_THROW(nan.validate(), Error);
  Calibration neg;
  neg.beta_scale = -1.0;
  EXPECT_THROW(neg.validate(), Error);
  Calibration zero;
  zero.compute_scale = 0.0;
  EXPECT_THROW(zero.validate(), Error);
  EXPECT_NO_THROW(Calibration{}.validate());
}

TEST(Calibration, MicrobenchmarkFitIsSaneAndDeterministic) {
  const Profile a = calibrate(small_calibration());
  EXPECT_TRUE(a.calibration.calibrated());
  EXPECT_GT(a.calibration.samples, 0);
  EXPECT_GT(a.calibration.alpha_scale, 0.0);
  EXPECT_GT(a.calibration.beta_scale, 0.0);
  EXPECT_GT(a.calibration.compute_scale, 0.0);
  EXPECT_NO_THROW(a.calibration.validate());
  // Deterministic: an identical run produces a bit-identical profile.
  const Profile b = calibrate(small_calibration());
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

// The host measurement only refines the flop-rate correction: it must give
// a usable compute scale and leave the fitted α and β bit-equal.
TEST(Calibration, MeasuredFlopRateRefinesComputeOnly) {
  const Profile fitted = calibrate(small_calibration());
  CalibrateOptions opts = small_calibration();
  opts.measure_flop_rate = true;
  const Profile measured = calibrate(opts);
  const Calibration& c = measured.calibration;
  EXPECT_TRUE(std::isfinite(c.compute_scale));
  EXPECT_GT(c.compute_scale, 0.0);
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.alpha_scale, fitted.calibration.alpha_scale);
  EXPECT_EQ(c.beta_scale, fitted.calibration.beta_scale);
}

// ---- Profile persistence and validation ----

TEST(Profile, RoundTripsThroughDisk) {
  Profile p = calibrate(small_calibration());
  const std::string path = temp_path("tune_roundtrip.json");
  p.save(path);
  const Profile q = Profile::load(path);
  EXPECT_EQ(p.to_json().dump(), q.to_json().dump());
  EXPECT_NO_THROW(q.check_machine(p.machine));
  std::remove(path.c_str());
}

TEST(Profile, LoadRejectsTruncatedJson) {
  const std::string path = temp_path("tune_truncated.json");
  write_file(path, R"({"schema": "mfbc.tune.v1", "version": 1, "mach)");
  EXPECT_THROW(Profile::load(path), Error);
  EXPECT_EQ(try_load_profile(path, sim::MachineModel::blue_waters()),
            std::nullopt);
  std::remove(path.c_str());
}

// A profile nested past the JSON depth bound falls back like any other
// malformed file instead of overflowing the parser's stack.
TEST(Profile, TryLoadFallsBackOnDeeplyNestedJson) {
  const std::string path = temp_path("tune_deep.json");
  write_file(path, std::string(100000, '['));
  std::string error;
  EXPECT_EQ(try_load_profile(path, sim::MachineModel::blue_waters(), &error),
            std::nullopt);
  EXPECT_NE(error.find("json parse error"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Profile, LoadRejectsWrongSchemaAndVersion) {
  Profile p;
  telemetry::Json j = p.to_json();
  j["schema"] = telemetry::Json("mfbc.other.v1");
  EXPECT_THROW(Profile::from_json(j), Error);
  j = p.to_json();
  j["version"] = telemetry::Json(kProfileVersion + 1);
  EXPECT_THROW(Profile::from_json(j), Error);
}

TEST(Profile, LoadRejectsNonFiniteAndNegativeCoefficients) {
  // NaN can't travel through JSON text, so splice bad values into the
  // parsed document directly.
  Profile p;
  telemetry::Json j = p.to_json();
  j["calibration"]["alpha_scale"] = telemetry::Json(std::nan(""));
  EXPECT_THROW(Profile::from_json(j), Error);
  j = p.to_json();
  j["calibration"]["beta_scale"] = telemetry::Json(-2.0);
  EXPECT_THROW(Profile::from_json(j), Error);
  j = p.to_json();
  j["machine"]["alpha"] = telemetry::Json(-1.0);
  EXPECT_THROW(Profile::from_json(j), Error);
}

TEST(Profile, MachineSignatureMismatchIsRejected) {
  Profile p;
  p.machine = sim::MachineModel::blue_waters();
  sim::MachineModel other = p.machine;
  other.beta *= 2;
  EXPECT_THROW(p.check_machine(other), Error);

  const std::string path = temp_path("tune_wrong_machine.json");
  p.save(path);
  std::string error;
  EXPECT_EQ(try_load_profile(path, other, &error), std::nullopt);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(try_load_profile(path, p.machine), std::nullopt);
  std::remove(path.c_str());
}

TEST(Profile, TryLoadFallsBackOnMissingFile) {
  EXPECT_EQ(try_load_profile(temp_path("tune_does_not_exist.json"),
                             sim::MachineModel::blue_waters()),
            std::nullopt);
}

TEST(Profile, LoadRejectsMalformedPlanEntries) {
  Profile p;
  telemetry::Json j = p.to_json();
  telemetry::Json entry = telemetry::Json::object();
  entry["key"] = telemetry::Json("garbage");
  j["plans"].push(std::move(entry));
  EXPECT_THROW(Profile::from_json(j), Error);
}

// ---- Observer ----

TEST(Observer, AccumulatesPerVariantErrorStats) {
  Observer obs;
  Observation o;
  o.plan = dist::Plan{4, 1, 1, dist::Variant1D::kB, dist::Variant2D::kAB};
  o.stream = "forward";
  o.predicted.bandwidth = 2.0;
  o.measured.comm_seconds = 1.0;
  o.measured.compute_seconds = 0.0;
  obs.record(o);
  o.predicted.bandwidth = 1.0;
  obs.record(o);
  EXPECT_EQ(obs.size(), 2u);
  // Errors: |2-1|/1 = 1 and |1-1|/1 = 0.
  EXPECT_DOUBLE_EQ(obs.overall().mean_abs_rel(), 0.5);
  EXPECT_DOUBLE_EQ(obs.overall().worst, 1.0);
  const auto by_variant = obs.per_variant();
  ASSERT_EQ(by_variant.count("1D-B[4]"), 1u);
  EXPECT_EQ(by_variant.at("1D-B[4]").count, 2);
  ASSERT_TRUE(obs.last("forward").has_value());
  EXPECT_DOUBLE_EQ(obs.last("forward")->predicted.bandwidth, 1.0);
  EXPECT_EQ(obs.last("backward"), std::nullopt);
}

TEST(Observer, SpgemmRecordsWhileInstalled) {
  graph::Graph g = graph::erdos_renyi(64, 256, false, {}, 5);
  sim::Sim sim(4);
  Layout l{0, 2, 2, Range{0, 64}, Range{0, 64}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, g.adj(), l);
  sparse::Coo<Multpath> fc(8, 64);
  for (graph::vid_t s = 0; s < 8; ++s) {
    auto cols = g.adj().row_cols(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      fc.push(s, cols[i], Multpath{g.adj().row_vals(s)[i], 1.0});
    }
  }
  auto f = sparse::Csr<Multpath>::from_coo<MultpathMonoid>(std::move(fc));
  Layout lf{0, 1, 4, Range{0, 8}, Range{0, 64}, false};
  auto df = DistMatrix<Multpath>::scatter<MultpathMonoid>(sim, f, lf);

  Observer obs;
  {
    ScopedObserver installed(&obs);
    obs.set_stream("test");
    dist::spgemm<MultpathMonoid>(sim, dist::Plan{1, 2, 2}, df, da,
                                 BellmanFordAction{}, lf);
  }
  ASSERT_EQ(obs.size(), 1u);
  const Observation o = obs.all()[0];
  EXPECT_EQ(o.stream, "test");
  EXPECT_DOUBLE_EQ(o.nnz_a, static_cast<double>(f.nnz()));
  EXPECT_DOUBLE_EQ(o.nnz_b, static_cast<double>(g.adj().nnz()));
  EXPECT_GT(o.nnz_c, 0.0);
  EXPECT_GT(o.ops, 0.0);
  EXPECT_GT(o.est_ops, 0.0);
  EXPECT_GT(o.measured.total_seconds(), 0.0);
  EXPECT_GT(o.predicted.total(), 0.0);
  // Uninstalled: no further recording.
  dist::spgemm<MultpathMonoid>(sim, dist::Plan{1, 2, 2}, df, da,
                               BellmanFordAction{}, lf);
  EXPECT_EQ(obs.size(), 1u);
}

// ---- Plan cache ----

TEST(PlanCache, CountsHitsAndPersists) {
  PlanCache cache;
  PlanKey key;
  key.monoid = "multpath";
  key.m = 32;
  key.k = 256;
  key.n = 256;
  key.band_a = PlanKey::nnz_band(100.0);
  key.band_b = PlanKey::nnz_band(2000.0);
  key.ranks = 16;
  EXPECT_EQ(cache.find(key), std::nullopt);
  const dist::Plan plan{2, 2, 4, dist::Variant1D::kC, dist::Variant2D::kAB};
  cache.insert(key, plan);
  ASSERT_TRUE(cache.find(key).has_value());
  EXPECT_EQ(*cache.find(key), plan);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 2.0 / 3.0);

  PlanCache loaded;
  loaded.load_json(cache.to_json());
  ASSERT_TRUE(loaded.find(key).has_value());
  EXPECT_EQ(*loaded.find(key), plan);
}

TEST(PlanCache, NnzBandQuantizes) {
  EXPECT_EQ(PlanKey::nnz_band(0.0), -1);
  EXPECT_EQ(PlanKey::nnz_band(1.0), 0);
  EXPECT_EQ(PlanKey::nnz_band(1023.0), 9);
  EXPECT_EQ(PlanKey::nnz_band(1024.0), 10);
}

// ---- Tuner: re-planning with hysteresis ----

struct ScenarioResult {
  double stat = 0;
  double adapt = 0;
  std::uint64_t switches = 0;
};

/// Replays the bench_spgemm_variants re-planning experiment at test scale:
/// charged cost of a frontier-size trajectory under the static step-0 plan
/// vs the adaptive tuner.
ScenarioResult run_scenario(const std::vector<graph::vid_t>& rows) {
  const int p = 16;
  const graph::vid_t n = 1024;
  graph::Graph g = graph::erdos_renyi(n, n * 8, false, {}, 7);
  const sim::MachineModel mm;
  auto frontier_rows = [&](graph::vid_t k) {
    sparse::Coo<Multpath> c(k, n);
    for (graph::vid_t s = 0; s < k; ++s) {
      auto cols = g.adj().row_cols(s);
      auto vals = g.adj().row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        c.push(s, cols[i], Multpath{vals[i], 1.0});
      }
    }
    return sparse::Csr<Multpath>::from_coo<MultpathMonoid>(std::move(c));
  };
  auto run = [&](Tuner* tuner) {
    sim::Sim sim(p, mm);
    Layout la{0, 4, 4, Range{0, n}, Range{0, n}, false};
    auto da = DistMatrix<double>::scatter<SumMonoid>(sim, g.adj(), la);
    dist::HomeCache<double> bcache;
    std::optional<ScopedObserver> obs;
    if (tuner != nullptr) obs.emplace(&tuner->observer());
    dist::Plan static_plan;
    bool have_static = false;
    double total = 0;
    for (graph::vid_t k : rows) {
      auto f = frontier_rows(k);
      Layout lf{0, 1, p, Range{0, k}, Range{0, n}, false};
      auto df = DistMatrix<Multpath>::scatter<MultpathMonoid>(sim, f, lf);
      auto st = dist::MultiplyStats::estimated(
          k, n, n, static_cast<double>(f.nnz()),
          static_cast<double>(g.adj().nnz()),
          sim::sparse_entry_words<Multpath>(),
          sim::sparse_entry_words<double>(),
          sim::sparse_entry_words<Multpath>());
      dist::Plan plan;
      if (tuner != nullptr) {
        PlanRequest req;
        req.stream = "test";
        req.monoid = "multpath";
        req.ranks = p;
        req.stats = st;
        req.machine = mm;
        plan = tuner->plan(req);
      } else {
        if (!have_static) {
          static_plan = dist::autotune(p, st, mm);
          have_static = true;
        }
        plan = static_plan;
      }
      const double before = sim.ledger().critical().total_seconds();
      dist::spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lf,
                                   nullptr, &bcache);
      total += sim.ledger().critical().total_seconds() - before;
    }
    return total;
  };
  ScenarioResult r;
  r.stat = run(nullptr);
  Tuner tuner;
  r.adapt = run(&tuner);
  r.switches = tuner.plan_switches();
  return r;
}

TEST(Tuner, HysteresisNeverLosesToStaticPlan) {
  // The same trajectories bench_spgemm_variants --small reports on.
  const graph::vid_t big = 512;
  const std::vector<std::pair<const char*, std::vector<graph::vid_t>>>
      scenarios = {
          {"constant", {32, 32, 32, 32, 32, 32}},
          {"growing", {4, 16, 64, 256, big}},
          {"shrinking", {big, 256, 64, 16, 4}},
          {"spike", {32, 32, big, 32, 32}},
      };
  bool strict_win = false;
  for (const auto& [name, rows] : scenarios) {
    const ScenarioResult r = run_scenario(rows);
    EXPECT_LE(r.adapt, r.stat * (1.0 + 1e-12))
        << name << ": adaptive " << r.adapt << " vs static " << r.stat;
    if (r.adapt < r.stat * (1.0 - 1e-9)) strict_win = true;
  }
  EXPECT_TRUE(strict_win)
      << "adaptive re-planning never beat the static plan on any "
         "varying-frontier trajectory";
}

TEST(Tuner, CacheHitsAcrossRepeatedShapes) {
  Tuner tuner;
  PlanRequest req;
  req.stream = "test";
  req.monoid = "multpath";
  req.ranks = 16;
  req.stats = dist::MultiplyStats::estimated(32, 256, 256, 100, 2000, 2, 2, 2);
  req.machine = sim::MachineModel::blue_waters();
  const dist::Plan first = tuner.plan(req);
  const dist::Plan second = tuner.plan(req);
  EXPECT_EQ(first, second);
  EXPECT_GE(tuner.cache().hits(), 1u);
  EXPECT_EQ(tuner.cache().size(), 1u);

  // The cache persists through the profile: a fresh tuner loading the saved
  // profile starts with the entry.
  const std::string path = temp_path("tune_cache_persist.json");
  tuner.save(path);
  Tuner reloaded(Profile::load(path));
  EXPECT_EQ(reloaded.cache().size(), 1u);
  EXPECT_EQ(reloaded.plan(req), first);
  EXPECT_GE(reloaded.cache().hits(), 1u);
  std::remove(path.c_str());
}

TEST(Tuner, JsonBlockCarriesExpectedFields) {
  Tuner tuner;
  PlanRequest req;
  req.stream = "test";
  req.monoid = "multpath";
  req.ranks = 8;
  req.stats = dist::MultiplyStats::estimated(16, 128, 128, 50, 1000, 2, 2, 2);
  req.machine = sim::MachineModel::blue_waters();
  tuner.plan(req);
  const telemetry::Json j = tuner.json();
  ASSERT_TRUE(j.is_object());
  ASSERT_NE(j.find("calibration"), nullptr);
  EXPECT_NE(j.at("calibration").find("calibrated"), nullptr);
  ASSERT_NE(j.find("prediction"), nullptr);
  EXPECT_NE(j.at("prediction").find("mean_abs_rel_err"), nullptr);
  ASSERT_NE(j.find("cache"), nullptr);
  EXPECT_NE(j.at("cache").find("hit_rate"), nullptr);
  EXPECT_NE(j.find("replans"), nullptr);
  EXPECT_NE(j.find("plan_switches"), nullptr);
  EXPECT_NE(j.find("hysteresis_holds"), nullptr);
  EXPECT_DOUBLE_EQ(j.at("replans").as_double(), 1.0);
}

// ---- The master invariant: tuning changes plans, never the math ----

std::vector<double> run_mfbc(core::DistMfbcOptions opts, sim::Cost* cost,
                             core::DistMfbcStats* stats = nullptr) {
  graph::Graph g = graph::erdos_renyi(300, 1500, false, {}, 11);
  sim::Sim sim(16);
  core::DistMfbc engine(sim, g);
  auto bc = engine.run(opts, stats);
  if (cost != nullptr) *cost = sim.ledger().critical();
  return bc;
}

// A tuner with every adaptation disabled and an identity calibration is a
// pass-through to dist::autotune: same plan sequence, hence bit-identical
// centrality and ledger — attaching the machinery alone changes nothing.
TEST(Tuner, NeutralTunerReproducesAutotuneExactly) {
  core::DistMfbcOptions opts;
  opts.batch_size = 64;
  sim::Cost plain_cost;
  core::DistMfbcStats plain_stats;
  const auto plain = run_mfbc(opts, &plain_cost, &plain_stats);

  TunerOptions topt;
  topt.hysteresis = false;
  topt.use_cache = false;
  topt.learn_ratios = false;
  Tuner tuner(Profile{}, topt);
  opts.tuner = &tuner;
  sim::Cost tuned_cost;
  core::DistMfbcStats tuned_stats;
  const auto tuned = run_mfbc(opts, &tuned_cost, &tuned_stats);
  EXPECT_EQ(plain_stats.plans_used, tuned_stats.plans_used);
  EXPECT_EQ(plain, tuned);
  EXPECT_EQ(plain_cost.words, tuned_cost.words);
  EXPECT_EQ(plain_cost.comm_seconds, tuned_cost.comm_seconds);
  EXPECT_EQ(plain_cost.compute_seconds, tuned_cost.compute_seconds);
  EXPECT_GT(tuner.replans(), 0u);
  EXPECT_GT(tuner.observer().size(), 0u);
}

// A calibrated profile may pick different plans. Plans that split the
// contraction dimension regroup the backward phase's centpath tie-sums
// (fractional doubles), so cross-plan agreement is exact-to-regrouping:
// forward multiplicities and weights are exact under any plan, and the
// centrality matches to last-ulp reduction noise, never more.
TEST(Tuner, CalibratedCentralityMatchesUncalibratedToUlps) {
  core::DistMfbcOptions opts;
  opts.batch_size = 64;
  const auto plain = run_mfbc(opts, nullptr);

  Profile prof;
  prof.calibration.alpha_scale = 2.5;
  prof.calibration.beta_scale = 0.25;
  prof.calibration.compute_scale = 4.0;
  prof.calibration.samples = 7;
  Tuner tuner(prof);
  opts.tuner = &tuner;
  const auto tuned = run_mfbc(opts, nullptr);
  ASSERT_EQ(plain.size(), tuned.size());
  for (std::size_t v = 0; v < plain.size(); ++v) {
    EXPECT_NEAR(plain[v], tuned[v], 1e-12 * (1.0 + std::fabs(plain[v])))
        << "vertex " << v;
  }
  EXPECT_GT(tuner.replans(), 0u);
  EXPECT_GT(tuner.observer().size(), 0u);
}

TEST(Tuner, FixedProfileIsBitIdenticalAcrossThreadCounts) {
  const Profile prof = calibrate(small_calibration());
  auto run_at = [&](int threads) {
    support::set_threads(threads);
    core::DistMfbcOptions opts;
    opts.batch_size = 64;
    Tuner tuner(prof);
    opts.tuner = &tuner;
    sim::Cost cost;
    auto bc = run_mfbc(opts, &cost);
    return std::make_pair(bc, cost);
  };
  const int restore = support::num_threads();
  const auto [bc1, cost1] = run_at(1);
  const auto [bc4, cost4] = run_at(4);
  support::set_threads(restore);
  EXPECT_EQ(bc1, bc4);
  EXPECT_EQ(cost1.words, cost4.words);
  EXPECT_EQ(cost1.msgs, cost4.msgs);
  EXPECT_EQ(cost1.comm_seconds, cost4.comm_seconds);
  EXPECT_EQ(cost1.compute_seconds, cost4.compute_seconds);
}

// ---- Cross-run calibration staleness ----

/// A calibrated profile whose fit claims err_after accuracy and whose last
/// run recorded `observed` mean error over `samples` multiplies.
Profile profile_with_observed(double err_after, double observed,
                              std::int64_t samples) {
  Profile p;
  p.calibration.alpha_scale = 1.5;
  p.calibration.beta_scale = 0.8;
  p.calibration.compute_scale = 1.1;
  p.calibration.samples = 12;
  p.calibration.err_before = 0.9;
  p.calibration.err_after = err_after;
  p.observed_error = observed;
  p.observed_samples = samples;
  return p;
}

TEST(ProfileStaleness, DriftPastThresholdFlagsStaleAndCounts) {
#if MFBC_TELEMETRY
  const double before = telemetry::registry().value("tune.profile.stale");
#endif
  // Fit promised 10% error; the last run observed 80% — 4x past the 2x
  // default threshold (floor 0.05 < 0.1 leaves err_after in charge).
  Tuner stale(profile_with_observed(0.1, 0.8, 40));
  EXPECT_TRUE(stale.profile_stale());
#if MFBC_TELEMETRY
  EXPECT_DOUBLE_EQ(telemetry::registry().value("tune.profile.stale"),
                   before + 1.0);
#endif
}

TEST(ProfileStaleness, AccurateProfileIsNotStale) {
  Tuner fresh(profile_with_observed(0.1, 0.15, 40));
  EXPECT_FALSE(fresh.profile_stale());
}

TEST(ProfileStaleness, FloorShieldsNearPerfectCalibrations) {
  // err_after ~ 0 would make any observed error look like infinite drift;
  // the floor keeps ordinary noise below threshold...
  Tuner fresh(profile_with_observed(1e-6, 0.09, 40));
  EXPECT_FALSE(fresh.profile_stale());
  // ...but real drift still trips it.
  Tuner stale(profile_with_observed(1e-6, 0.2, 40));
  EXPECT_TRUE(stale.profile_stale());
}

TEST(ProfileStaleness, NeverObservedOrUncalibratedProfilesAreQuiet) {
  // No observed block recorded yet (fresh calibration, never run).
  Tuner unobserved(profile_with_observed(0.1, 0.0, 0));
  EXPECT_FALSE(unobserved.profile_stale());
  // Uncalibrated profile: there is no promise to have drifted from.
  Profile p;
  p.observed_error = 5.0;
  p.observed_samples = 100;
  Tuner uncalibrated(p);
  EXPECT_FALSE(uncalibrated.profile_stale());
}

TEST(ProfileStaleness, ObservedBlockRoundTripsThroughDisk) {
  const std::string path = temp_path("observed_profile.json");
  Profile p = profile_with_observed(0.1, 0.42, 17);
  p.save(path);
  const Profile back = Profile::load(path);
  EXPECT_DOUBLE_EQ(back.observed_error, 0.42);
  EXPECT_EQ(back.observed_samples, 17);
  // Old profiles without the block still load, with nothing observed.
  Profile old = profile_with_observed(0.1, 0.0, 0);
  old.save(path);
  EXPECT_EQ(Profile::load(path).observed_samples, 0);
}

TEST(ProfileStaleness, SnapshotFoldsThisRunsObservedErrorIn) {
  // Drive one real tuned run, then snapshot: the profile must carry the
  // observer's overall error so the *next* load can judge staleness.
  Tuner tuner;
  core::DistMfbcOptions opts;
  opts.batch_size = 64;
  opts.tuner = &tuner;
  run_mfbc(opts, nullptr);
  ASSERT_GT(tuner.observer().size(), 0u);
  const Profile snap = tuner.snapshot_profile();
  EXPECT_EQ(snap.observed_samples,
            static_cast<std::int64_t>(tuner.observer().overall().count));
  EXPECT_DOUBLE_EQ(snap.observed_error,
                   tuner.observer().overall().mean_abs_rel());
}

TEST(ProfileStaleness, LoadRejectsMalformedObservedBlock) {
  const std::string path = temp_path("bad_observed.json");
  Profile p = profile_with_observed(0.1, 0.2, 5);
  telemetry::Json j = p.to_json();
  j["observed"] = telemetry::Json(3.0);  // not an object
  write_file(path, j.dump(2));
  EXPECT_THROW(Profile::load(path), Error);
  telemetry::Json j2 = p.to_json();
  j2["observed"]["mean_abs_rel_err"] = telemetry::Json(-0.5);
  write_file(path, j2.dump(2));
  EXPECT_THROW(Profile::load(path), Error);
}

}  // namespace
}  // namespace mfbc::tune
