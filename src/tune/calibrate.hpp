// Calibrated cost models, profile persistence, and the adaptive plan tuner.
//
// Three pieces (docs/autotuning.md):
//
//  * Calibration — tune::calibrate() runs a microbenchmark grid of small
//    distributed multiplies over the §5.2 plan space, compares each plan's
//    predicted ModelCost components against the charged cost off the
//    ledger, and least-squares-fits per-component correction scales
//    (effective α, β, flop rate). The scales adjust the machine model used
//    for *plan selection only* — charging is untouched, so calibration can
//    never change results or ledger totals, only which plan runs.
//
//  * Profile — a versioned JSON file carrying the calibration, the machine
//    signature it was fitted for, and the persistent plan cache
//    (tune/plan_cache.hpp). Loading validates schema, version, coefficient
//    sanity (finite, positive), and the machine signature; try_load_profile
//    degrades to the uncalibrated model with a warning instead of failing
//    the run.
//
//  * Tuner — the online re-planner consulted by core::DistMfbc each
//    iteration: corrects the §5.2 uniform ops/nnz(C) estimates with the
//    stream's last measured ratios (from the Observer), evaluates the
//    calibrated model, consults the plan cache, and applies hysteresis —
//    switching plans only when the modelled win exceeds the modelled cost
//    of redistributing the stationary operand to the new plan's homes
//    (the HomeCache amortization of dist/spgemm_dist.hpp makes returning
//    to an already-seen plan free).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/autotune.hpp"
#include "sim/machine.hpp"
#include "telemetry/json.hpp"
#include "tune/observer.hpp"
#include "tune/plan_cache.hpp"

namespace mfbc::tune {

inline constexpr const char* kProfileSchema = "mfbc.tune.v1";
inline constexpr int kProfileVersion = 1;

/// Least-squares-fitted correction scales for the §5.2 model.
struct Calibration {
  double alpha_scale = 1.0;    ///< effective latency / modelled latency
  double beta_scale = 1.0;     ///< effective inverse bandwidth correction
  double compute_scale = 1.0;  ///< effective seconds-per-op correction
  int samples = 0;
  double err_before = 0;  ///< mean |pred−meas|/meas before the fit
  double err_after = 0;   ///< same, with the scales applied

  bool calibrated() const { return samples > 0; }

  /// The machine model the *planner* should evaluate (α, β, seconds_per_op
  /// scaled; memory untouched). Never used for charging.
  sim::MachineModel apply(const sim::MachineModel& mm) const;

  /// Throws mfbc::Error on NaN/Inf or non-positive scales.
  void validate() const;
};

/// The persistent tuning profile (calibration + plan cache + signature).
struct Profile {
  sim::MachineModel machine;  ///< signature: model the calibration ran on
  Calibration calibration;
  telemetry::Json plans = telemetry::Json::array();  ///< serialized cache
  /// Cross-run staleness tracking: the mean absolute relative prediction
  /// error the tuner's Observer measured over the profile's *last* run
  /// (snapshot_profile folds it in before save). A freshly calibrated
  /// profile predicted within err_after of the measured cost; when later
  /// runs drift far past that, the calibration no longer describes the
  /// workload and the Tuner warns at load time (tune.profile.stale).
  /// observed_samples == 0 means nothing recorded yet (old profiles parse
  /// fine — the block is optional in the JSON).
  double observed_error = 0;
  std::int64_t observed_samples = 0;

  telemetry::Json to_json() const;
  /// Parse + validate (schema, version, coefficients); throws mfbc::Error.
  static Profile from_json(const telemetry::Json& j);

  void save(const std::string& path) const;
  /// Read + parse + validate; throws mfbc::Error (truncated file, schema or
  /// version mismatch, bad coefficients all produce a descriptive message).
  static Profile load(const std::string& path);

  /// Throws mfbc::Error when `mm` differs from the profile's machine
  /// signature (a profile calibrated for one machine must not silently
  /// steer plan selection on another).
  void check_machine(const sim::MachineModel& mm) const;
};

/// Load and validate `path` against `mm`. On any failure: print a warning,
/// optionally report the message through `error`, and return nullopt so the
/// caller falls back to the uncalibrated model.
std::optional<Profile> try_load_profile(const std::string& path,
                                        const sim::MachineModel& mm,
                                        std::string* error = nullptr);

struct CalibrateOptions {
  int ranks = 16;
  sparse::vid_t n = 512;   ///< calibration graph vertices
  sparse::vid_t nb = 64;   ///< frontier rows per sample multiply
  std::vector<double> degrees = {4.0, 8.0};  ///< graph average degrees
  std::uint64_t seed = 1;
  sim::MachineModel machine = sim::MachineModel::blue_waters();
  /// Also wall-clock a local multiply and fold the measured flop rate into
  /// compute_scale. Off by default: it makes the profile machine-dependent
  /// and non-deterministic, which the tests must not be.
  bool measure_flop_rate = false;
};

/// Run the calibration microbenchmark pass and return a fitted profile
/// (plan cache empty). Deterministic given the options, unless
/// measure_flop_rate is set.
Profile calibrate(const CalibrateOptions& opts = {});

struct TunerOptions {
  /// Switch only when the modelled win exceeds the modelled switch cost.
  bool hysteresis = true;
  bool use_cache = true;
  /// Correct the §5.2 ops/nnz(C) estimates with the stream's last measured
  /// ratios before planning.
  bool learn_ratios = true;
};

/// One plan request from the algorithm layer.
struct PlanRequest {
  std::string stream;  ///< re-planning context ("forward", "backward", ...)
  std::string monoid;  ///< operation tag for the cache key
  int ranks = 0;
  dist::MultiplyStats stats;  ///< with the §5.2 uniform estimates filled in
  sim::MachineModel machine;  ///< the *charging* model (uncalibrated)
  dist::TuneOptions opts;
  /// Topology epoch (grid shrinks survived, sim/faults.hpp): keys the plan
  /// cache so a shrink retires every plan chosen for the old placement.
  int topology = 0;
  /// Structural signature of the graph version being computed on
  /// (graph/mutate.hpp), 0 for unversioned batch runs. Keys the plan cache
  /// per version: the serving layer's mutated adjacencies must not reuse
  /// plans tuned for a structure that no longer exists.
  std::uint64_t graph_sig = 0;
};

class Tuner {
 public:
  explicit Tuner(Profile profile = {}, TunerOptions opts = {});

  /// Choose the plan for the next multiply. Deterministic given the request
  /// sequence and the loaded profile.
  dist::Plan plan(const PlanRequest& req);

  Observer& observer() { return observer_; }
  PlanCache& cache() { return cache_; }
  const Profile& profile() const { return profile_; }
  const TunerOptions& options() const { return opts_; }

  /// Profile with the current cache contents folded in (what save() writes).
  Profile snapshot_profile() const;
  void save(const std::string& path) const;

  /// True when the loaded profile's recorded cross-run prediction error
  /// drifted past twice max(err_after, 0.05) — the calibration no
  /// longer describes the workload; re-run --calibrate. Flagged (once, with
  /// a stderr warning and a tune.profile.stale counter bump) at
  /// construction; the tuner still runs, it just plans on scales that have
  /// stopped earning their trust.
  bool profile_stale() const { return stale_; }

  std::uint64_t replans() const { return replans_; }
  std::uint64_t plan_switches() const { return switches_; }
  std::uint64_t hysteresis_holds() const { return holds_; }
  /// Candidates the per-rank memory limit rejected across all plan searches
  /// (memory-pressure re-planning visibility; also in json()).
  std::uint64_t pruned_memory() const { return pruned_memory_; }
  /// Observer's overall mean absolute relative prediction error.
  double prediction_error() const { return observer_.overall().mean_abs_rel(); }

  /// The --json artifact's `tune` block: calibration scales, prediction
  /// error (overall + per variant), cache hit rate, plan-switch counters.
  telemetry::Json json() const;

  /// Forget per-stream current plans and seen-plan sets (cache and observer
  /// stay). Used between independent runs sharing one tuner.
  void reset_stream_state();

  /// Seed a stream's hysteresis state with a plan that is already running —
  /// its operand homes are mapped, so holding it (or returning to it) is
  /// free. No-op when the stream already has a current plan. Engines whose
  /// untuned behavior is a fixed plan (the CombBLAS baseline) seed their
  /// streams with it, so the tuner switches away only when the modelled win
  /// clears the modelled re-homing cost of the candidate.
  void seed_stream(const std::string& stream, const dist::Plan& plan);

 private:
  PlanKey make_key(const PlanRequest& req,
                   const dist::MultiplyStats& stats) const;

  Profile profile_;
  TunerOptions opts_;
  Observer observer_;
  PlanCache cache_;
  std::map<std::string, dist::Plan> current_;       ///< per stream
  std::map<std::string, std::set<std::string>> seen_;  ///< plans with homes mapped
  std::uint64_t replans_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t holds_ = 0;
  std::uint64_t pruned_memory_ = 0;
  bool stale_ = false;
};

}  // namespace mfbc::tune
