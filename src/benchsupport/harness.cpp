#include "benchsupport/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "baseline/combblas_bc.hpp"
#include "mfbc/teps.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strutil.hpp"
#include "telemetry/export.hpp"
#include "telemetry/ledger_sink.hpp"

namespace mfbc::bench {

namespace {

std::vector<SessionCell>& session_cells_mutable() {
  static std::vector<SessionCell> cells;
  return cells;
}

std::unique_ptr<tune::Tuner>& session_tuner_slot() {
  static std::unique_ptr<tune::Tuner> tuner;
  return tuner;
}

std::string& session_tuner_path() {
  static std::string path;
  return path;
}

std::vector<graph::vid_t> pick_sources(const graph::Graph& g,
                                       const CellConfig& cfg) {
  // Benchmarks time one (or a few) batches, as the paper does ("we executed
  // each batch only once", §7.1). Sources are the first k vertices; the
  // graphs are randomly relabeled by the generators, so this is a uniform
  // sample.
  graph::vid_t k = cfg.num_sources > 0 ? cfg.num_sources : cfg.batch_size;
  k = std::min(k, g.n());
  std::vector<graph::vid_t> out(static_cast<std::size_t>(k));
  for (graph::vid_t i = 0; i < k; ++i) out[static_cast<std::size_t>(i)] = i;
  return out;
}

void fill_costs(CellResult& r, const sim::Sim& sim, const graph::Graph& g,
                double nsources) {
  const sim::Cost crit = sim.ledger().critical();
  r.seconds = crit.total_seconds();
  r.comm_seconds = crit.comm_seconds;
  r.words = crit.words;
  r.msgs = crit.msgs;
  r.mteps_per_node = core::mteps_per_node(
      core::edge_traversals(g, nsources), r.seconds, r.nodes);
}

/// Copy the injector's outcome into the cell record after a measured run.
/// Engine-agnostic: both engines run the shared batch driver, so a plain
/// batch-retry count is the only engine-side input.
void fill_fault_outcome(CellResult& r, const sim::Sim& sim,
                        int batch_retries, int spare_rehomes = 0,
                        int grid_shrinks = 0) {
  const sim::FaultInjector* fi = sim.faults();
  if (fi == nullptr) return;
  const sim::FaultCounters& c = fi->counters();
  r.faults_injected = c.injected;
  r.faults_detected = c.detected;
  r.faults_recovered = c.recovered;
  r.faults_aborted = c.aborted;
  r.batch_retries = batch_retries;
  const sim::FaultOverhead& o = fi->overhead();
  r.overhead_words = o.words;
  r.overhead_seconds = o.comm_seconds + o.compute_seconds;
  r.spare_rehomes = spare_rehomes;
  r.grid_shrinks = grid_shrinks;
  // fill_costs runs first, so r.seconds is the run's end time — the window
  // the idle-spare pricing covers.
  const sim::SpareReport sp = fi->spare_report(r.seconds);
  r.spares_provisioned = sp.provisioned;
  r.spares_activated = sp.activated;
  r.spare_idle_seconds = sp.idle_seconds;
}

}  // namespace

void apply_fault_flags(const BenchArgs& args, CellConfig& cfg) {
  cfg.fault_spec = args.faults;
  cfg.fault_seed = args.fault_seed;
}

tune::Tuner* session_tuner() { return session_tuner_slot().get(); }

void init_session_tuner(const BenchArgs& args) {
  session_tuner_slot().reset();
  session_tuner_path() = args.tune_profile;
  if (args.tune_profile.empty()) return;
  // Missing or invalid profiles degrade to an uncalibrated, empty-cache
  // tuner (try_load_profile already warned); the run still adapts online
  // and save_session_tuner writes what it learned to the same path.
  tune::Profile profile;
  profile.machine = sim::MachineModel::blue_waters();
  if (auto loaded =
          tune::try_load_profile(args.tune_profile, profile.machine)) {
    profile = std::move(*loaded);
  }
  session_tuner_slot() =
      std::make_unique<tune::Tuner>(std::move(profile), tune::TunerOptions{});
}

void save_session_tuner() {
  if (session_tuner_slot() == nullptr || session_tuner_path().empty()) return;
  session_tuner_slot()->save(session_tuner_path());
  std::printf("[tune] wrote %s\n", session_tuner_path().c_str());
}

namespace {

/// One measured cell on `Engine`. `opts` carries the engine's own
/// settings; batch size, sources and the session tuner are filled in here.
/// The result is recorded in the session store under `kind`.
template <typename Engine, typename Options>
CellResult run_cell(const graph::Graph& g, const CellConfig& cfg,
                    Options opts, const char* kind) {
  CellResult r;
  r.nodes = cfg.nodes;
  try {
    sim::Sim sim(cfg.nodes, cfg.machine);
    // Route every ledger charge of this cell into the active span and the
    // metric registry for the duration of the run.
    telemetry::ScopedLedgerSink sink(sim.ledger());
    Engine engine(sim, g);
    if (!cfg.fault_spec.empty()) {
      // Enable after construction so the one-time adjacency distribution
      // (excluded from measurement by the ledger reset below) does not
      // consume charge indices — fault schedules stay comparable per batch.
      sim.enable_faults(sim::FaultSpec::parse(cfg.fault_spec, cfg.fault_seed));
    }
    opts.batch_size = cfg.batch_size;
    opts.tuner = session_tuner();
    opts.sources = pick_sources(g, cfg);
    if (cfg.warmup) {
      Options warm = opts;
      warm.sources.assign(
          opts.sources.begin(),
          opts.sources.begin() +
              std::min<std::ptrdiff_t>(
                  static_cast<std::ptrdiff_t>(opts.sources.size()),
                  static_cast<std::ptrdiff_t>(cfg.batch_size)));
      engine.run(warm);
    }
    sim.ledger().reset();  // exclude one-time graph distribution, as §7 does
    core::DistBcStats stats;
    engine.run(opts, &stats);
    r.fwd_iterations = stats.forward.iterations();
    r.bwd_iterations = stats.backward.iterations();
    r.fwd_words = stats.forward_cost.words;
    r.bwd_words = stats.backward_cost.words;
    r.plans = stats.plans_used;
    fill_costs(r, sim, g, static_cast<double>(opts.sources.size()));
    fill_fault_outcome(r, sim, stats.batch_retries, stats.spare_rehomes,
                       stats.grid_shrinks);
  } catch (const Error& e) {
    r.ok = false;
    r.error = e.what();
  }
  session_cells_mutable().push_back({kind, r});
  return r;
}

}  // namespace

CellResult run_mfbc_cell(const graph::Graph& g, const CellConfig& cfg) {
  core::DistMfbcOptions opts;
  opts.plan_mode = cfg.plan_mode;
  opts.replication_c = cfg.replication_c;
  return run_cell<core::DistMfbc>(g, cfg, std::move(opts), "mfbc");
}

CellResult run_combblas_cell(const graph::Graph& g, const CellConfig& cfg) {
  return run_cell<baseline::CombBlasBc>(g, cfg, baseline::CombBlasOptions{},
                                        "combblas");
}

std::string cell_str(const CellResult& r) {
  if (!r.ok) return "fail";
  return fixed(r.mteps_per_node, 2);
}

telemetry::Json cell_json(const CellResult& r) {
  telemetry::Json j = telemetry::Json::object();
  j["nodes"] = telemetry::Json(r.nodes);
  j["ok"] = telemetry::Json(r.ok);
  if (!r.ok) {
    j["error"] = telemetry::Json(r.error);
    return j;
  }
  j["seconds"] = telemetry::Json(r.seconds);
  j["comm_seconds"] = telemetry::Json(r.comm_seconds);
  j["words"] = telemetry::Json(r.words);
  j["msgs"] = telemetry::Json(r.msgs);
  j["mteps_per_node"] = telemetry::Json(r.mteps_per_node);
  j["fwd_iterations"] = telemetry::Json(r.fwd_iterations);
  j["bwd_iterations"] = telemetry::Json(r.bwd_iterations);
  j["fwd_words"] = telemetry::Json(r.fwd_words);
  j["bwd_words"] = telemetry::Json(r.bwd_words);
  telemetry::Json plans = telemetry::Json::array();
  for (const std::string& p : r.plans) plans.push(telemetry::Json(p));
  j["plans"] = std::move(plans);
  if (r.faults_injected > 0 || r.faults_detected > 0) {
    telemetry::Json f = telemetry::Json::object();
    f["injected"] = telemetry::Json(static_cast<double>(r.faults_injected));
    f["detected"] = telemetry::Json(static_cast<double>(r.faults_detected));
    f["recovered"] = telemetry::Json(static_cast<double>(r.faults_recovered));
    f["aborted"] = telemetry::Json(static_cast<double>(r.faults_aborted));
    f["batch_retries"] = telemetry::Json(r.batch_retries);
    f["overhead_words"] = telemetry::Json(r.overhead_words);
    f["overhead_seconds"] = telemetry::Json(r.overhead_seconds);
    if (r.spare_rehomes > 0) f["spare_rehomes"] = telemetry::Json(r.spare_rehomes);
    if (r.grid_shrinks > 0) f["grid_shrinks"] = telemetry::Json(r.grid_shrinks);
    if (r.spares_provisioned > 0) {
      telemetry::Json sp = telemetry::Json::object();
      sp["provisioned"] = telemetry::Json(r.spares_provisioned);
      sp["activated"] = telemetry::Json(r.spares_activated);
      sp["idle_seconds"] = telemetry::Json(r.spare_idle_seconds);
      f["spares"] = std::move(sp);
    }
    j["faults"] = std::move(f);
  }
  return j;
}

telemetry::Json table_json(const Table& t) {
  telemetry::Json j = telemetry::Json::object();
  telemetry::Json headers = telemetry::Json::array();
  for (const std::string& h : t.headers()) headers.push(telemetry::Json(h));
  j["headers"] = std::move(headers);
  telemetry::Json rows = telemetry::Json::array();
  for (const auto& row : t.rows()) {
    telemetry::Json cells = telemetry::Json::array();
    for (const std::string& c : row) cells.push(telemetry::Json(c));
    rows.push(std::move(cells));
  }
  j["rows"] = std::move(rows);
  return j;
}

const std::vector<SessionCell>& session_cells() {
  return session_cells_mutable();
}

void clear_session_cells() { session_cells_mutable().clear(); }

void maybe_write_artifacts(
    const BenchArgs& args, const std::string& bench,
    const std::vector<std::pair<std::string, const Table*>>& tables) {
  if (!args.json_path.empty()) {
    // Snapshot the pool's busy/wait split into gauges so the run summary's
    // registry section carries per-thread utilization alongside the cells.
    support::export_pool_utilization();
    telemetry::RunSummary summary(bench);
    if (!tables.empty()) {
      telemetry::Json tj = telemetry::Json::object();
      for (const auto& [name, table] : tables) tj[name] = table_json(*table);
      summary.set("tables", std::move(tj));
    }
    for (const SessionCell& cell : session_cells()) {
      telemetry::Json j = cell_json(cell.result);
      j["kind"] = telemetry::Json(cell.kind);
      summary.add_cell(std::move(j));
    }
    if (tune::Tuner* tuner = session_tuner()) {
      summary.set("tune", tuner->json());
    }
    summary.write(args.json_path);
    std::printf("[json] wrote %s\n", args.json_path.c_str());
  }
  if (!args.chrome_trace_path.empty()) {
    telemetry::write_chrome_trace(args.chrome_trace_path);
    std::printf("[trace] wrote %s\n", args.chrome_trace_path.c_str());
  }
  save_session_tuner();
}

}  // namespace mfbc::bench
