#include "tune/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "algebra/multpath.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "sim/comm.hpp"
#include "support/error.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::tune {

namespace {

double num_field(const telemetry::Json& j, const char* key) {
  const telemetry::Json* f = j.find(key);
  MFBC_CHECK(f != nullptr && f->is_number(),
             std::string("tune profile: missing or non-numeric field: ") + key);
  return f->as_double();
}

void require_finite(double v, const char* what) {
  MFBC_CHECK(std::isfinite(v),
             std::string("tune profile: ") + what + " is not finite");
}

/// One calibration data point: per-component (predicted, measured) pairs in
/// seconds. pred_* come from the §5.2 model, meas_* off the ledger.
struct Sample {
  double pred_lat = 0, pred_bw = 0, pred_comp = 0;
  double meas_lat = 0, meas_bw = 0, meas_comp = 0;
};

/// 1-D least squares through the origin: scale minimizing Σ(s·x − y)².
/// Falls back to 1 when the data is degenerate (all-zero predictions) or the
/// fit would be non-positive/non-finite — a bad fit must never poison plan
/// selection worse than the uncalibrated model.
double fit_scale(const std::vector<Sample>& samples, double Sample::*x,
                 double Sample::*y) {
  double sxx = 0, sxy = 0;
  for (const Sample& s : samples) {
    sxx += (s.*x) * (s.*x);
    sxy += (s.*x) * (s.*y);
  }
  if (!(sxx > 0)) return 1.0;
  const double scale = sxy / sxx;
  if (!std::isfinite(scale) || !(scale > 0)) return 1.0;
  return scale;
}

double mean_abs_rel_err(const std::vector<Sample>& samples, double a_scale,
                        double b_scale, double c_scale) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const Sample& s : samples) {
    const double meas = s.meas_lat + s.meas_bw + s.meas_comp;
    if (!(meas > 0)) continue;
    const double pred =
        a_scale * s.pred_lat + b_scale * s.pred_bw + c_scale * s.pred_comp;
    sum += std::abs(pred - meas) / meas;
  }
  return sum / static_cast<double>(samples.size());
}

}  // namespace

sim::MachineModel Calibration::apply(const sim::MachineModel& mm) const {
  sim::MachineModel out = mm;
  out.alpha *= alpha_scale;
  out.beta *= beta_scale;
  out.seconds_per_op *= compute_scale;
  return out;
}

void Calibration::validate() const {
  require_finite(alpha_scale, "alpha_scale");
  require_finite(beta_scale, "beta_scale");
  require_finite(compute_scale, "compute_scale");
  MFBC_CHECK(alpha_scale > 0 && beta_scale > 0 && compute_scale > 0,
             "tune profile: calibration scales must be positive");
  MFBC_CHECK(samples >= 0, "tune profile: negative sample count");
}

telemetry::Json Profile::to_json() const {
  telemetry::Json j = telemetry::Json::object();
  j["schema"] = telemetry::Json(kProfileSchema);
  j["version"] = telemetry::Json(kProfileVersion);
  telemetry::Json m = telemetry::Json::object();
  m["alpha"] = telemetry::Json(machine.alpha);
  m["beta"] = telemetry::Json(machine.beta);
  m["seconds_per_op"] = telemetry::Json(machine.seconds_per_op);
  m["memory_words"] = telemetry::Json(machine.memory_words);
  j["machine"] = std::move(m);
  telemetry::Json c = telemetry::Json::object();
  c["alpha_scale"] = telemetry::Json(calibration.alpha_scale);
  c["beta_scale"] = telemetry::Json(calibration.beta_scale);
  c["compute_scale"] = telemetry::Json(calibration.compute_scale);
  c["samples"] = telemetry::Json(calibration.samples);
  c["err_before"] = telemetry::Json(calibration.err_before);
  c["err_after"] = telemetry::Json(calibration.err_after);
  j["calibration"] = std::move(c);
  if (observed_samples > 0) {
    telemetry::Json o = telemetry::Json::object();
    o["mean_abs_rel_err"] = telemetry::Json(observed_error);
    o["samples"] = telemetry::Json(static_cast<std::int64_t>(observed_samples));
    j["observed"] = std::move(o);
  }
  j["plans"] = plans;
  return j;
}

Profile Profile::from_json(const telemetry::Json& j) {
  MFBC_CHECK(j.is_object(), "tune profile: document must be a JSON object");
  const telemetry::Json* schema = j.find("schema");
  MFBC_CHECK(schema != nullptr && schema->is_string(),
             "tune profile: missing \"schema\"");
  MFBC_CHECK(schema->as_string() == kProfileSchema,
             "tune profile: schema mismatch: got \"" + schema->as_string() +
                 "\", want \"" + kProfileSchema + "\"");
  const int version = static_cast<int>(num_field(j, "version"));
  MFBC_CHECK(version == kProfileVersion,
             "tune profile: version mismatch: got " + std::to_string(version) +
                 ", want " + std::to_string(kProfileVersion));

  Profile p;
  const telemetry::Json* m = j.find("machine");
  MFBC_CHECK(m != nullptr && m->is_object(),
             "tune profile: missing \"machine\" object");
  p.machine.alpha = num_field(*m, "alpha");
  p.machine.beta = num_field(*m, "beta");
  p.machine.seconds_per_op = num_field(*m, "seconds_per_op");
  p.machine.memory_words = num_field(*m, "memory_words");
  MFBC_CHECK(p.machine.alpha > 0 && p.machine.beta > 0 &&
                 p.machine.seconds_per_op > 0 && p.machine.memory_words > 0,
             "tune profile: machine parameters must be positive");

  const telemetry::Json* c = j.find("calibration");
  MFBC_CHECK(c != nullptr && c->is_object(),
             "tune profile: missing \"calibration\" object");
  p.calibration.alpha_scale = num_field(*c, "alpha_scale");
  p.calibration.beta_scale = num_field(*c, "beta_scale");
  p.calibration.compute_scale = num_field(*c, "compute_scale");
  p.calibration.samples = static_cast<int>(num_field(*c, "samples"));
  p.calibration.err_before = num_field(*c, "err_before");
  p.calibration.err_after = num_field(*c, "err_after");
  p.calibration.validate();

  if (const telemetry::Json* o = j.find("observed")) {
    // Optional: profiles written before cross-run staleness tracking (or
    // never run after calibration) simply lack the block.
    MFBC_CHECK(o->is_object(), "tune profile: \"observed\" must be an object");
    p.observed_error = num_field(*o, "mean_abs_rel_err");
    p.observed_samples = static_cast<std::int64_t>(num_field(*o, "samples"));
    require_finite(p.observed_error, "observed error");
    MFBC_CHECK(p.observed_error >= 0 && p.observed_samples >= 0,
               "tune profile: observed error fields must be non-negative");
  }

  if (const telemetry::Json* plans = j.find("plans")) {
    PlanCache check;
    check.load_json(*plans);  // validates every entry before we accept it
    p.plans = *plans;
  }
  return p;
}

void Profile::save(const std::string& path) const {
  std::ofstream out(path);
  MFBC_CHECK(out.good(), "tune profile: cannot open for writing: " + path);
  out << to_json().dump(2) << "\n";
  MFBC_CHECK(out.good(), "tune profile: write failed: " + path);
}

Profile Profile::load(const std::string& path) {
  std::ifstream in(path);
  MFBC_CHECK(in.good(), "tune profile: cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(telemetry::Json::parse(buf.str()));
}

void Profile::check_machine(const sim::MachineModel& mm) const {
  const bool same =
      machine.alpha == mm.alpha && machine.beta == mm.beta &&
      machine.seconds_per_op == mm.seconds_per_op &&
      machine.memory_words == mm.memory_words;
  MFBC_CHECK(same,
             "tune profile: machine signature mismatch (profile was "
             "calibrated for a different machine model)");
}

std::optional<Profile> try_load_profile(const std::string& path,
                                        const sim::MachineModel& mm,
                                        std::string* error) {
  try {
    Profile p = Profile::load(path);
    p.check_machine(mm);
    return p;
  } catch (const Error& e) {
    if (error) *error = e.what();
    std::fprintf(stderr,
                 "tune: ignoring profile %s (falling back to the "
                 "uncalibrated model): %s\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

Profile calibrate(const CalibrateOptions& opts) {
  using algebra::BellmanFordAction;
  using algebra::Multpath;
  using algebra::MultpathMonoid;
  using algebra::SumMonoid;
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;

  MFBC_CHECK(opts.ranks >= 1, "calibrate: ranks must be positive");
  MFBC_CHECK(opts.n >= 2 && opts.nb >= 1 && opts.nb <= opts.n,
             "calibrate: need 2 <= nb <= n");
  telemetry::Span span("tune.calibrate");
  span.attr("ranks", static_cast<std::int64_t>(opts.ranks));

  std::vector<Sample> samples;
  std::uint64_t seed = opts.seed;
  for (double degree : opts.degrees) {
    graph::Graph g = graph::erdos_renyi(
        opts.n, static_cast<sparse::nnz_t>(static_cast<double>(opts.n) * degree),
        false, {}, seed++);
    sparse::Coo<Multpath> fc(opts.nb, opts.n);
    for (graph::vid_t s = 0; s < opts.nb; ++s) {
      auto cols = g.adj().row_cols(s);
      auto vals = g.adj().row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        fc.push(s, cols[i], Multpath{vals[i], 1.0});
      }
    }
    auto f = sparse::Csr<Multpath>::from_coo<MultpathMonoid>(std::move(fc));
    const auto stats = dist::MultiplyStats::estimated(
        opts.nb, opts.n, opts.n, static_cast<double>(f.nnz()),
        static_cast<double>(g.adj().nnz()),
        sim::sparse_entry_words<Multpath>(), sim::sparse_entry_words<double>(),
        sim::sparse_entry_words<Multpath>());

    for (const dist::Plan& plan : dist::enumerate_plans(opts.ranks)) {
      sim::Sim sim(opts.ranks, opts.machine);
      Layout lf{0, 1, opts.ranks, Range{0, opts.nb}, Range{0, opts.n}, false};
      Layout la{0, 1, opts.ranks, Range{0, opts.n}, Range{0, opts.n}, false};
      auto df = DistMatrix<Multpath>::scatter<MultpathMonoid>(sim, f, lf);
      auto da = DistMatrix<double>::scatter<SumMonoid>(sim, g.adj(), la);
      sim.ledger().reset();
      dist::spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lf);
      const sim::Cost meas = sim.ledger().critical();
      const dist::ModelCost pred = model_cost(plan, stats, opts.machine);
      Sample s;
      s.pred_lat = pred.latency;
      // Remap is a β-dominated all-to-all in the model; fold it into the
      // bandwidth component so the fit sees one β axis.
      s.pred_bw = pred.bandwidth + pred.remap;
      s.pred_comp = pred.compute;
      s.meas_lat = meas.msgs * opts.machine.alpha;
      s.meas_bw = meas.words * opts.machine.beta;
      s.meas_comp = meas.compute_seconds;
      samples.push_back(s);
    }
  }

  Profile profile;
  profile.machine = opts.machine;
  Calibration& cal = profile.calibration;
  cal.alpha_scale = fit_scale(samples, &Sample::pred_lat, &Sample::meas_lat);
  cal.beta_scale = fit_scale(samples, &Sample::pred_bw, &Sample::meas_bw);
  cal.compute_scale =
      fit_scale(samples, &Sample::pred_comp, &Sample::meas_comp);

  if (opts.measure_flop_rate) {
    // Wall-clock one local multiply to refine the flop-rate correction with
    // the real machine's throughput (opt-in: host-dependent by design).
    sim::Sim sim(1, opts.machine);
    graph::Graph g = graph::erdos_renyi(opts.n, opts.n * 8, false, {}, seed);
    Layout l1{0, 1, 1, Range{0, opts.n}, Range{0, opts.n}, false};
    auto da = DistMatrix<double>::scatter<SumMonoid>(sim, g.adj(), l1);
    dist::DistSpgemmStats st;
    const auto t0 = std::chrono::steady_clock::now();
    dist::spgemm<SumMonoid>(
        sim, dist::Plan{}, da, da,
        [](double x, double y) { return x * y; }, l1, &st);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (st.total_ops > 0 && secs > 0) {
      const double measured_spo = secs / static_cast<double>(st.total_ops);
      const double scale = measured_spo / opts.machine.seconds_per_op;
      if (std::isfinite(scale) && scale > 0) cal.compute_scale = scale;
    }
  }

  cal.samples = static_cast<int>(samples.size());
  cal.err_before = mean_abs_rel_err(samples, 1, 1, 1);
  cal.err_after = mean_abs_rel_err(samples, cal.alpha_scale, cal.beta_scale,
                                   cal.compute_scale);
  cal.validate();
  span.attr("samples", static_cast<std::int64_t>(cal.samples));
  span.attr("alpha_scale", cal.alpha_scale);
  span.attr("beta_scale", cal.beta_scale);
  span.attr("compute_scale", cal.compute_scale);
  span.attr("err_before", cal.err_before);
  span.attr("err_after", cal.err_after);
  return profile;
}

namespace {

/// Switch plans only when the modelled win exceeds this multiple of the
/// modelled re-homing cost.
constexpr double kSwitchMargin = 1.0;
/// A loaded calibrated profile is stale when the error its last run observed
/// exceeds kStaleErrorFactor * max(err_after, kStaleErrorFloor). The floor
/// keeps a near-perfect calibration (err_after ~ 0) from tripping on
/// ordinary noise.
constexpr double kStaleErrorFactor = 2.0;
constexpr double kStaleErrorFloor = 0.05;

}  // namespace

Tuner::Tuner(Profile profile, TunerOptions opts)
    : profile_(std::move(profile)), opts_(opts) {
  if (opts_.use_cache && profile_.plans.is_array()) {
    cache_.load_json(profile_.plans);
  }
  // Cross-run staleness: the profile records the prediction error its last
  // run actually observed. When that drifted far past what the calibration
  // promised (err_after), the fitted scales no longer describe the workload
  // or the machine — warn once and expose profile_stale().
  if (profile_.calibration.calibrated() && profile_.observed_samples > 0) {
    const double expected =
        std::max(profile_.calibration.err_after, kStaleErrorFloor);
    if (profile_.observed_error > kStaleErrorFactor * expected) {
      stale_ = true;
      telemetry::count("tune.profile.stale");
      std::fprintf(stderr,
                   "tune: warning: calibration looks stale — last run "
                   "observed mean |pred err| %.3f over %lld multiplies vs "
                   "%.3f promised by the fit; re-run --calibrate\n",
                   profile_.observed_error,
                   static_cast<long long>(profile_.observed_samples),
                   profile_.calibration.err_after);
    }
  }
}

PlanKey Tuner::make_key(const PlanRequest& req,
                        const dist::MultiplyStats& stats) const {
  PlanKey key;
  key.monoid = req.monoid;
  key.m = stats.m;
  key.k = stats.k;
  key.n = stats.n;
  key.band_a = PlanKey::nnz_band(stats.nnz_a);
  key.band_b = PlanKey::nnz_band(stats.nnz_b);
  key.ranks = req.ranks;
  // key.threads stays 0: plans must not depend on the pool size, or results
  // would stop being bit-identical across thread counts.
  // The schedule axis is part of the request shape: a sync-only search and
  // an async-enabled search rank different candidate spaces, so their
  // winners live under different keys.
  key.schedule = req.opts.allow_async ? 1 : 0;
  // So is the distribution axis: the data's actual placement plus whether
  // the advisory other-distribution twins were in the candidate space.
  key.partition = (req.opts.partition == dist::Dist::kBalanced ? 1 : 0) |
                  (req.opts.allow_partition ? 2 : 0);
  // And the topology epoch: plans chosen before a grid shrink were priced
  // for a placement that no longer exists.
  key.topology = req.topology;
  // And the graph version: a mutated adjacency is a different operand even
  // when its dims and nnz band happen to match.
  key.graph = req.graph_sig;
  return key;
}

dist::Plan Tuner::plan(const PlanRequest& req) {
  MFBC_CHECK(req.ranks >= 1, "tune: plan request needs ranks >= 1");
  telemetry::Span span("tune.plan");
  span.attr("stream", req.stream);
  telemetry::count("tune.plan.calls");
  ++replans_;
  observer_.set_stream(req.stream);

  // Correct the §5.2 uniform estimates with the stream's last measured
  // ratios: how many products actually fired per modelled product, and how
  // dense the output actually was. Clamped so one pathological iteration
  // cannot fling the model into nonsense.
  dist::MultiplyStats stats = req.stats;
  if (opts_.learn_ratios) {
    if (auto last = observer_.last(req.stream)) {
      const auto clamp = [](double r) {
        if (!std::isfinite(r) || r <= 0) return 1.0;
        return std::min(64.0, std::max(1.0 / 64.0, r));
      };
      if (last->est_ops > 0 && last->ops > 0 && stats.ops > 0) {
        stats.ops *= clamp(last->ops / last->est_ops);
      }
      if (last->est_nnz_c > 0 && last->nnz_c > 0 && stats.nnz_c > 0) {
        stats.nnz_c *= clamp(last->nnz_c / last->est_nnz_c);
        const double dense =
            static_cast<double>(stats.m) * static_cast<double>(stats.n);
        if (stats.nnz_c > dense) stats.nnz_c = dense;
      }
    }
  }

  // Plan selection runs on the calibrated model; charging stays on the real
  // one, so this can only change *which* plan runs, never what it costs.
  const sim::MachineModel planning_mm = profile_.calibration.apply(req.machine);

  dist::Plan candidate;
  bool cache_hit = false;
  const PlanKey key = make_key(req, stats);
  if (opts_.use_cache) {
    if (auto hit = cache_.find(key)) {
      const bool usable =
          hit->total_ranks() <= req.ranks &&
          // Schedule gate: a profile edited or written by an async-enabled
          // run must not hand an async plan to a sync-only request.
          (req.opts.allow_async || !hit->is_async()) &&
          // Distribution gate: a cached plan only applies when it matches
          // the request's data placement (unless the advisory twins were
          // requested, in which case both distributions were candidates).
          (req.opts.allow_partition || hit->dist == req.opts.partition) &&
          model_memory_words(*hit, stats) <= req.opts.memory_words_limit;
      if (usable) {
        candidate = *hit;
        cache_hit = true;
      }
    }
  }
  if (!cache_hit) {
    dist::TuneReport report;
    candidate = dist::autotune(req.ranks, stats, planning_mm, req.opts,
                               &report);
    pruned_memory_ += static_cast<std::uint64_t>(report.pruned_memory);
    if (report.pruned_memory > 0) {
      span.attr("pruned.memory",
                static_cast<std::int64_t>(report.pruned_memory));
    }
    if (opts_.use_cache) cache_.insert(key, candidate);
  }
  telemetry::count(cache_hit ? "tune.cache.hits" : "tune.cache.misses");

  dist::Plan final_plan = candidate;
  auto cur_it = current_.find(req.stream);
  if (opts_.hysteresis && cur_it != current_.end() &&
      !(cur_it->second == candidate)) {
    const dist::Plan& cur = cur_it->second;
    const bool cur_fits =
        model_memory_words(cur, stats) <= req.opts.memory_words_limit;
    if (cur_fits) {
      const double cost_cur = model_cost(cur, stats, planning_mm).total();
      const double cost_new = model_cost(candidate, stats, planning_mm).total();
      const double win = cost_cur - cost_new;
      // Switching to a plan this stream has not run yet re-homes the
      // stationary operand B: an all-to-all of nnz(B) wire words (replicated
      // p1-fold when the 1D level broadcasts B), plus the usual tree α term
      // — the amortization dist/spgemm_dist.hpp documents for its HomeCache.
      // A plan already seen keeps its cached homes, so returning is free.
      // The seen set keys on the *sync shape*: an async plan and its sync
      // twin share operand home layouts (dist::Plan::sync_shape), so
      // flipping the schedule of a shape this stream already runs moves no
      // data and costs nothing.
      double switch_cost = 0;
      if (!seen_[req.stream].count(candidate.sync_shape().to_string())) {
        const double repl =
            (candidate.has_1d() && candidate.v1 == dist::Variant1D::kB)
                ? static_cast<double>(candidate.p1)
                : 1.0;
        switch_cost =
            (stats.nnz_b * stats.words_b / req.ranks) * repl *
                planning_mm.beta +
            2.0 * sim::log2_ceil(req.ranks) * planning_mm.alpha;
      }
      if (win > kSwitchMargin * switch_cost) {
        ++switches_;
        telemetry::count("tune.plan.switches");
      } else {
        final_plan = cur;
        ++holds_;
      }
    } else {
      // The held plan no longer fits in memory; forced switch.
      ++switches_;
      telemetry::count("tune.plan.switches");
    }
  }

  current_[req.stream] = final_plan;
  seen_[req.stream].insert(final_plan.sync_shape().to_string());
  span.attr("chosen", final_plan.to_string());
  span.attr("cache_hit", cache_hit ? std::string("yes") : std::string("no"));
  return final_plan;
}

Profile Tuner::snapshot_profile() const {
  Profile p = profile_;
  p.plans = cache_.to_json();
  // Fold this run's observed prediction error into the profile, so the next
  // load can judge whether the calibration still describes the workload.
  const ErrorStats overall = observer_.overall();
  if (overall.count > 0) {
    p.observed_error = overall.mean_abs_rel();
    p.observed_samples = overall.count;
  }
  return p;
}

void Tuner::save(const std::string& path) const {
  snapshot_profile().save(path);
}

telemetry::Json Tuner::json() const {
  telemetry::Json j = telemetry::Json::object();
  telemetry::Json c = telemetry::Json::object();
  c["calibrated"] = telemetry::Json(profile_.calibration.calibrated());
  c["alpha_scale"] = telemetry::Json(profile_.calibration.alpha_scale);
  c["beta_scale"] = telemetry::Json(profile_.calibration.beta_scale);
  c["compute_scale"] = telemetry::Json(profile_.calibration.compute_scale);
  c["samples"] = telemetry::Json(profile_.calibration.samples);
  c["err_before"] = telemetry::Json(profile_.calibration.err_before);
  c["err_after"] = telemetry::Json(profile_.calibration.err_after);
  j["calibration"] = std::move(c);

  telemetry::Json pr = telemetry::Json::object();
  const ErrorStats overall = observer_.overall();
  pr["observations"] = telemetry::Json(overall.count);
  pr["mean_abs_rel_err"] = telemetry::Json(overall.mean_abs_rel());
  pr["worst_abs_rel_err"] = telemetry::Json(overall.worst);
  telemetry::Json pv = telemetry::Json::object();
  for (const auto& [variant, st] : observer_.per_variant()) {
    telemetry::Json v = telemetry::Json::object();
    v["count"] = telemetry::Json(st.count);
    v["mean_abs_rel_err"] = telemetry::Json(st.mean_abs_rel());
    v["worst_abs_rel_err"] = telemetry::Json(st.worst);
    pv[variant] = std::move(v);
  }
  pr["per_variant"] = std::move(pv);
  j["prediction"] = std::move(pr);

  telemetry::Json cj = telemetry::Json::object();
  cj["entries"] = telemetry::Json(cache_.size());
  cj["hits"] = telemetry::Json(cache_.hits());
  cj["misses"] = telemetry::Json(cache_.misses());
  cj["hit_rate"] = telemetry::Json(cache_.hit_rate());
  j["cache"] = std::move(cj);

  j["replans"] = telemetry::Json(replans_);
  j["plan_switches"] = telemetry::Json(switches_);
  j["hysteresis_holds"] = telemetry::Json(holds_);
  j["pruned_memory"] = telemetry::Json(pruned_memory_);
  j["profile_stale"] = telemetry::Json(stale_);
  return j;
}

void Tuner::reset_stream_state() {
  current_.clear();
  seen_.clear();
}

void Tuner::seed_stream(const std::string& stream, const dist::Plan& plan) {
  if (current_.count(stream) != 0) return;
  current_[stream] = plan;
  seen_[stream].insert(plan.sync_shape().to_string());
}

}  // namespace mfbc::tune
