// mfbc — command-line driver for the library.
//
// Computes betweenness centrality (exact; λ accumulated from sources
// 0..K-1 only, not scaled; or (eps,delta)-sampled) for a graph read from an
// edge-list / MatrixMarket file or produced by the built-in generators,
// optionally on the simulated distributed machine (printing the
// critical-path communication costs).
//
// Examples:
//   mfbc --er 1000,4000 --top 5
//   mfbc --rmat 12,8 --weighted --algo mfbc --batch 128 --top 10
//   mfbc --input graph.txt --directed --approx 256 --ranks 16 --mode ca --c 4
//   mfbc --snap ork --approx 64 --ranks 16
//   mfbc --input graph.mtx --ranks 16 --approx 0.05,0.1
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baseline/brandes.hpp"
#include "baseline/combblas_bc.hpp"
#include "benchsupport/table.hpp"
#include "dist/partition.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/mutate.hpp"
#include "graph/prep.hpp"
#include "graph/snap_proxy.hpp"
#include "mfbc/adaptive.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "mfbc/ranking.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strutil.hpp"
#include "support/timer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/ledger_sink.hpp"
#include "tune/calibrate.hpp"

namespace {

using namespace mfbc;

struct Args {
  std::string input;
  std::string rmat;   // "scale,degree"
  std::string er;     // "n,m"
  std::string snap;   // frd|ork|ljm|cit
  bool directed = false;
  bool weighted = false;
  bool one_indexed = false;
  bool giant = false;  // restrict to the largest weakly connected component
  std::string algo = "mfbc";  // mfbc | brandes | combblas
  graph::vid_t batch = 128;
  graph::vid_t approx = 0;  // 0 = all sources; K = sources 0..K-1 only
  bool adaptive = false;    // --approx eps,delta[,seed] (ε,δ)-sampling
  double approx_eps = 0.05;
  double approx_delta = 0.1;
  std::uint64_t approx_seed = 1;
  int ranks = 0;            // 0 = sequential
  int threads = 0;          // 0 = MFBC_THREADS / hardware default
  std::string mode = "auto";  // auto | ca
  std::string schedule = "sync";  // sync | auto | async
  std::string partition = "block";  // block | degree | chunk
  std::string machine_profile;      // per-rank profile spec, e.g. "4xcpu,4xaccel"
  double overlap_beta = -1.0;     // <0 = keep the machine model's value
  int c = 1;
  int top = 10;
  std::uint64_t seed = 1;
  std::string tune_profile;    // adaptive plan tuner profile (load + save)
  std::string calibrate_file;  // run tune::calibrate, save here, exit
  bool explain_plan = false;   // print the candidate-plan table, don't run
  std::string faults;      // fault-injection spec (simulated runs)
  std::uint64_t fault_seed = 1;
  int spares = 0;          // cold spare ranks beyond --ranks
  std::string checkpoint_dir;  // durable λ checkpoints land here
  bool resume = false;         // restart from the durable checkpoint
  std::string json_file;   // write a run-summary artifact here
  bool help = false;
};

void usage() {
  std::puts(
      "usage: mfbc [options]\n"
      "graph source (choose one):\n"
      "  --input FILE        whitespace edge list ('u v [w]'; # comments),\n"
      "                      or MatrixMarket if FILE ends in .mtx\n"
      "  --rmat S,E          R-MAT graph, 2^S vertices, avg degree E\n"
      "  --er N,M            Erdos-Renyi graph with N vertices, M edges\n"
      "  --snap ID           SNAP proxy: frd|ork|ljm|cit (Table 2 shapes)\n"
      "graph flags:\n"
      "  --directed --weighted --one-indexed\n"
      "  --giant             restrict to the largest connected component\n"
      "computation:\n"
      "  --algo A            bc engine: mfbc (default) | brandes | combblas\n"
      "  --batch NB          source batch size (default 128)\n"
      "  --approx K          lambda accumulated from sources 0..K-1 only,\n"
      "                      not scaled (every --algo)\n"
      "  --approx E,D[,S]    adaptive (eps,delta)-sampled BC on the batch\n"
      "                      driver (docs/approximation.md): seeded source\n"
      "                      sampling with per-vertex confidence intervals,\n"
      "                      stopping once every normalized score is within\n"
      "                      eps at joint confidence 1-delta. Needs a\n"
      "                      simulated run (--ranks P); deterministic in the\n"
      "                      seed S (default 1), bit-identical across\n"
      "                      threads, fault schedules, and --resume\n"
      "  --ranks P           run on a P-rank simulated machine (mfbc and\n"
      "                      combblas; combblas needs a square P)\n"
      "  --threads N         execution-pool threads for the per-rank kernels\n"
      "                      (default: MFBC_THREADS or all cores; results\n"
      "                      are identical for every N)\n"
      "  --mode auto|ca      plan selection: CTF-MFBC or CA-MFBC (with --c)\n"
      "  --c C               CA-MFBC replication factor\n"
      "  --schedule S        communication schedule axis of the plan space:\n"
      "                      sync (default) keeps the blocking lcm-step\n"
      "                      schedules; auto (alias: async) also enumerates\n"
      "                      async-pipelined twins — nonblocking broadcasts\n"
      "                      prefetched behind multiplies — and picks\n"
      "                      whichever the model says is cheaper. Results\n"
      "                      are bit-identical either way; only charged\n"
      "                      cost differs (docs/SIMULATOR.md)\n"
      "  --overlap-beta B    overlap efficiency of the simulated machine in\n"
      "                      [0,1]: fraction of a posted collective's\n"
      "                      transfer time that can hide behind compute\n"
      "                      (default: the machine model's, 1.0)\n"
      "  --partition P       vertex distribution of the simulated run\n"
      "                      (docs/partitioning.md): block (default) keeps\n"
      "                      the plain contiguous index ranges; degree packs\n"
      "                      vertices into rank slots by total degree\n"
      "                      (heaviest first); chunk packs contiguous\n"
      "                      mini-chunks (locality-preserving). Centrality\n"
      "                      is bit-identical across all three; only the\n"
      "                      per-rank load balance and charged cost differ\n"
      "machine model (simulated runs):\n"
      "  --machine-profile S heterogeneous per-rank profiles as a comma list\n"
      "                      of COUNTxCLASS (cpu | accel | spare), e.g.\n"
      "                      '4xaccel,60xcpu'; trailing ranks default to cpu.\n"
      "                      Collectives are priced at the group's slowest\n"
      "                      link; compute at each rank's own flop rate.\n"
      "                      spare ranks are provisioned beyond --ranks as a\n"
      "                      cold pool (same as --spares)\n"
      "plan tuning (simulated runs; see docs/autotuning.md):\n"
      "  --tune-profile FILE attach the adaptive plan tuner: calibrated\n"
      "                      model, per-iteration re-planning with\n"
      "                      hysteresis, persistent plan cache in FILE\n"
      "                      (loaded if present, learned plans written back)\n"
      "  --calibrate FILE    fit section 5.2 model correction factors on a\n"
      "                      microbenchmark grid, save the profile, exit\n"
      "  --explain-plan      print the full candidate-plan table (model\n"
      "                      cost terms, memory fit, chosen marker) for the\n"
      "                      run's first multiply without executing it\n"
      "fault injection (simulated runs; see docs/fault_tolerance.md):\n"
      "  --faults SPEC       deterministic fault schedule, e.g.\n"
      "                      'transient:0.01,corrupt:0.002,rank:0.0005' or\n"
      "                      'rank@25:3,retries:5'; recovered runs produce\n"
      "                      bit-identical centrality, the ledger pays the\n"
      "                      recovery cost\n"
      "  --fault-seed S      seed of the fault schedule (default 1)\n"
      "  --spares N          provision N cold spare physical ranks beyond\n"
      "                      --ranks; a dead host's virtual ranks re-home\n"
      "                      onto the next spare before survivor doubling\n"
      "                      is tried (docs/fault_tolerance.md)\n"
      "  --checkpoint-dir D  write a durable, versioned λ checkpoint\n"
      "                      (mfbc.ckpt) into D after every batch\n"
      "  --resume            restart from D's checkpoint: completed batches\n"
      "                      are skipped, centrality stays bit-identical to\n"
      "                      the uninterrupted run\n"
      "output:\n"
      "  --top K             print the K highest-ranked vertices (default 10)\n"
      "  --seed S            generator seed\n"
      "  --json FILE         write a machine-readable run summary (top\n"
      "                      scores, ledger costs, faults.* counters)\n");
}

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw Error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--input") a.input = need(i);
    else if (f == "--rmat") a.rmat = need(i);
    else if (f == "--er") a.er = need(i);
    else if (f == "--snap") a.snap = need(i);
    else if (f == "--directed") a.directed = true;
    else if (f == "--weighted") a.weighted = true;
    else if (f == "--one-indexed") a.one_indexed = true;
    else if (f == "--giant") a.giant = true;
    else if (f == "--algo") a.algo = need(i);
    else if (f == "--batch") a.batch = parse_int<graph::vid_t>(f, need(i));
    else if (f == "--approx") {
      // Dual form: a plain integer K runs sources 0..K-1 only; a comma
      // means the adaptive (ε,δ) sampler.
      const std::string v = need(i);
      if (v.find(',') != std::string::npos) {
        a.adaptive = true;
        const std::vector<std::string> p = split(v, ',');
        if (p.size() > 3) throw Error("--approx expects K or eps,delta[,seed]");
        a.approx_eps = parse_double(f, p[0]);
        a.approx_delta = parse_double(f, p[1]);
        if (p.size() == 3) a.approx_seed = parse_int<std::uint64_t>(f, p[2]);
      } else {
        a.approx = parse_int<graph::vid_t>(f, v);
      }
    }
    else if (f == "--ranks") a.ranks = parse_int<int>(f, need(i));
    else if (f == "--threads") a.threads = parse_int<int>(f, need(i));
    else if (f == "--mode") a.mode = need(i);
    else if (f == "--schedule") a.schedule = need(i);
    else if (f == "--partition") a.partition = need(i);
    else if (f == "--machine-profile") a.machine_profile = need(i);
    else if (f == "--overlap-beta") a.overlap_beta = parse_rate(f, need(i));
    else if (f == "--c") a.c = parse_int<int>(f, need(i));
    else if (f == "--top") a.top = parse_int<int>(f, need(i));
    else if (f == "--tune-profile") a.tune_profile = need(i);
    else if (f == "--calibrate") a.calibrate_file = need(i);
    else if (f == "--explain-plan") a.explain_plan = true;
    else if (f == "--faults") a.faults = need(i);
    else if (f == "--fault-seed")
      a.fault_seed = parse_int<std::uint64_t>(f, need(i));
    else if (f == "--spares") a.spares = parse_int<int>(f, need(i));
    else if (f == "--checkpoint-dir") a.checkpoint_dir = need(i);
    else if (f == "--resume") a.resume = true;
    else if (f == "--json") a.json_file = need(i);
    else if (f == "--seed") a.seed = parse_int<std::uint64_t>(f, need(i));
    else if (f == "--help" || f == "-h") a.help = true;
    else throw Error("unknown flag: " + f);
  }
  return a;
}

graph::Graph load_graph(const Args& a) {
  if (!a.input.empty()) {
    if (a.input.size() > 4 &&
        a.input.compare(a.input.size() - 4, 4, ".mtx") == 0) {
      std::ifstream in(a.input);
      if (!in) throw Error("cannot open " + a.input);
      return graph::read_matrix_market(in);
    }
    return graph::read_edge_list_file(
        a.input, {.directed = a.directed, .weighted = a.weighted,
                  .one_indexed = a.one_indexed});
  }
  if (!a.rmat.empty()) {
    const std::vector<std::string> se = split(a.rmat, ',');
    if (se.size() != 2) throw Error("--rmat expects S,E");
    graph::RmatParams p;
    p.scale = parse_int<int>("--rmat", se[0]);
    p.edge_factor = parse_double("--rmat", se[1]);
    p.directed = a.directed;
    p.weights = {a.weighted, 1, 100};
    return graph::random_relabel(graph::remove_isolated(graph::rmat(p, a.seed)),
                                 a.seed ^ 0xabc);
  }
  if (!a.er.empty()) {
    const std::vector<std::string> nm = split(a.er, ',');
    if (nm.size() != 2) throw Error("--er expects N,M");
    return graph::erdos_renyi(parse_int<graph::vid_t>("--er", nm[0]),
                              parse_int<graph::nnz_t>("--er", nm[1]),
                              a.directed, {a.weighted, 1, 100}, a.seed);
  }
  if (!a.snap.empty()) {
    for (const auto& spec : graph::snap_specs()) {
      if (spec.name == a.snap) return graph::snap_proxy(spec.id, 0, a.seed);
    }
    throw Error("unknown --snap id (use frd|ork|ljm|cit): " + a.snap);
  }
  throw Error("no graph source given (try --help)");
}

/// --approx K: sources 0..K-1 (at most n). Every engine accumulates λ from
/// these sources only and prints it unscaled.
std::vector<graph::vid_t> pivot_sources(const graph::Graph& g,
                                        graph::vid_t k) {
  std::vector<graph::vid_t> out;
  const graph::vid_t n = g.n();
  for (graph::vid_t v = 0; v < std::min(k, n); ++v) out.push_back(v);
  return out;
}

void print_top(const std::vector<double>& score, int k) {
  const auto ranked = core::top_k(score, static_cast<std::size_t>(k));
  std::printf("top-%zu vertices by betweenness centrality:\n", ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    std::printf("  %3zu. v%-8zu %.6g\n", i + 1, ranked[i].vertex,
                ranked[i].score);
  }
}

/// The --json `cost` block for a simulated run's critical-path cost.
telemetry::Json cost_block(const sim::Cost& cost) {
  telemetry::Json j = telemetry::Json::object();
  j["words"] = telemetry::Json(cost.words);
  j["msgs"] = telemetry::Json(cost.msgs);
  j["comm_seconds"] = telemetry::Json(cost.comm_seconds);
  j["total_seconds"] = telemetry::Json(cost.total_seconds());
  return j;
}

/// Print the fault-injection outcome line and return the --json `faults`
/// block. Shared by the mfbc and combblas engines (both run the same batch
/// driver, so the outcome shape is identical). `end_seconds` is the run's
/// critical-path time, pricing the spare pool's idleness.
telemetry::Json fault_block(const sim::FaultInjector& fi, int batch_retries,
                            double end_seconds) {
  const sim::FaultCounters& c = fi.counters();
  const sim::FaultOverhead& o = fi.overhead();
  std::printf("faults: %llu injected, %llu detected, %llu recovered, "
              "%llu aborted, %d batch retries; recovery overhead %s, "
              "%.4fs\n",
              static_cast<unsigned long long>(c.injected),
              static_cast<unsigned long long>(c.detected),
              static_cast<unsigned long long>(c.recovered),
              static_cast<unsigned long long>(c.aborted), batch_retries,
              human_bytes(o.words * 8).c_str(),
              o.comm_seconds + o.compute_seconds);
  telemetry::Json j = telemetry::Json::object();
  j["injected"] = telemetry::Json(static_cast<double>(c.injected));
  j["detected"] = telemetry::Json(static_cast<double>(c.detected));
  j["recovered"] = telemetry::Json(static_cast<double>(c.recovered));
  j["aborted"] = telemetry::Json(static_cast<double>(c.aborted));
  j["batch_retries"] = telemetry::Json(batch_retries);
  j["overhead_words"] = telemetry::Json(o.words);
  j["overhead_seconds"] = telemetry::Json(o.comm_seconds + o.compute_seconds);
  if (fi.spares_provisioned() > 0) {
    const sim::SpareReport sr = fi.spare_report(end_seconds);
    std::printf("spares: %d provisioned, %d activated, %.4fs idle\n",
                sr.provisioned, sr.activated, sr.idle_seconds);
    telemetry::Json s = telemetry::Json::object();
    s["provisioned"] = telemetry::Json(sr.provisioned);
    s["activated"] = telemetry::Json(sr.activated);
    s["idle_seconds"] = telemetry::Json(sr.idle_seconds);
    j["spares"] = std::move(s);
  }
  if (fi.shrinks() > 0) j["shrinks"] = telemetry::Json(fi.shrinks());
  if (!fi.timeline().empty()) {
    telemetry::Json tl = telemetry::Json::array();
    for (const sim::RecoveryEvent& ev : fi.timeline()) {
      telemetry::Json e = telemetry::Json::object();
      e["kind"] =
          telemetry::Json(std::string(recovery_event_kind_name(ev.kind)));
      e["charge_index"] =
          telemetry::Json(static_cast<double>(ev.charge_index));
      e["batch"] = telemetry::Json(ev.batch);
      e["victim"] = telemetry::Json(ev.victim);
      e["host"] = telemetry::Json(ev.host);
      e["seconds"] = telemetry::Json(ev.seconds);
      tl.push(std::move(e));
    }
    j["timeline"] = std::move(tl);
  }
  return j;
}

/// An unrecoverable fault schedule: print the one-line diagnostic naming
/// the failing batch and the schedule that produced it, write the --json
/// artifact (an `unrecoverable` block next to the usual `faults` block) if
/// one was requested, and return the distinct exit code 3.
int report_unrecoverable(const sim::FaultError& e, const Args& a,
                         const sim::Sim& sim, int batch_retries) {
  std::fprintf(stderr,
               "unrecoverable fault schedule: %s [%s at charge index %llu, "
               "batch %d, --faults '%s' seed %llu]\n",
               e.what(), sim::fault_kind_name(e.kind()),
               static_cast<unsigned long long>(e.charge_index()), e.batch(),
               a.faults.c_str(),
               static_cast<unsigned long long>(a.fault_seed));
  if (!a.json_file.empty()) {
    telemetry::RunSummary summary("mfbc_cli");
    telemetry::Json u = telemetry::Json::object();
    u["what"] = telemetry::Json(std::string(e.what()));
    u["kind"] = telemetry::Json(std::string(sim::fault_kind_name(e.kind())));
    u["charge_index"] =
        telemetry::Json(static_cast<double>(e.charge_index()));
    u["batch"] = telemetry::Json(e.batch());
    u["schedule"] = telemetry::Json(a.faults);
    u["fault_seed"] = telemetry::Json(static_cast<double>(a.fault_seed));
    summary.set("unrecoverable", std::move(u));
    if (const sim::FaultInjector* fi = sim.faults()) {
      summary.set("faults",
                  fault_block(*fi, batch_retries,
                              sim.ledger().critical().total_seconds()));
    }
    summary.write(a.json_file);
    std::printf("[json] wrote %s\n", a.json_file.c_str());
  }
  return 3;
}

/// Sampler options for --approx eps,delta[,seed] (mfbc/adaptive.hpp).
core::AdaptiveSamplerOptions adaptive_opts(const Args& a,
                                           const graph::Graph& g) {
  core::AdaptiveSamplerOptions o;
  o.eps = a.approx_eps;
  o.delta = a.approx_delta;
  o.seed = a.approx_seed;
  o.batch_size = a.batch;
  o.checkpoint_dir = a.checkpoint_dir;
  o.resume = a.resume;
  o.graph_sig = graph::structural_signature(g);
  return o;
}

void print_adaptive_summary(const core::AdaptiveSampleResult& r,
                            const core::AdaptiveSamplerOptions& o,
                            graph::vid_t n) {
  std::printf("approx: eps=%g delta=%g seed=%llu -> %lld/%lld sources in %d "
              "batches, stop=%s, guarantee %s, max CI half-width %.3g\n",
              o.eps, o.delta, static_cast<unsigned long long>(o.seed),
              static_cast<long long>(r.samples_used),
              static_cast<long long>(n), r.batches,
              core::adaptive_stop_name(r.stop_reason),
              r.guarantee_met ? "met" : "NOT met", r.max_ci_width);
}

/// Attach the adaptive plan tuner when --tune-profile was given.
std::unique_ptr<tune::Tuner> make_tuner(const Args& a,
                                        const sim::MachineModel& machine) {
  if (a.tune_profile.empty()) return nullptr;
  tune::Profile prof;
  prof.machine = machine;
  if (auto loaded = tune::try_load_profile(a.tune_profile, machine)) {
    prof = std::move(*loaded);
  }
  return std::make_unique<tune::Tuner>(std::move(prof));
}

void print_tune_summary(tune::Tuner& tuner) {
  std::printf("tune: %llu re-plans, %llu plan switches, %llu hysteresis "
              "holds, cache hit rate %.2f, mean |pred err| %.3f\n",
              static_cast<unsigned long long>(tuner.replans()),
              static_cast<unsigned long long>(tuner.plan_switches()),
              static_cast<unsigned long long>(tuner.hysteresis_holds()),
              tuner.cache().hit_rate(), tuner.prediction_error());
}

/// --schedule → does the plan space include the async-pipelined twins?
bool allow_async_of(const Args& a) {
  if (a.schedule == "sync") return false;
  MFBC_CHECK(a.schedule == "auto" || a.schedule == "async",
             "--schedule expects sync|auto|async, got: " + a.schedule);
  return true;
}

/// The --json blocks of a bc run; null when the run has none.
struct BcJson {
  telemetry::Json cost;      ///< ledger cost of a simulated run
  telemetry::Json faults;    ///< fault-injection outcome, if enabled
  telemetry::Json tune;      ///< adaptive-tuner summary, if attached
  telemetry::Json approx;    ///< adaptive (eps,delta) sampling outcome
  telemetry::Json baseline;  ///< combblas engine summary
};

/// What run_simulated_bc hands back: centrality, the engine's stats, and
/// the process exit code.
struct SimulatedBc {
  std::vector<double> bc;
  core::DistBcStats stats;
  int exit_code = 0;  ///< 3 after an unrecoverable fault schedule
};

/// A bc run on a simulated machine, on either engine: the partitioned
/// engine, faults with spares, the tuner's load, summary and save, the
/// adaptive sampler, the unrecoverable-fault report, and the cost, overlap
/// and fault reports. `opts` carries the engine's own settings; `headline`
/// opens the cost line.
template <typename Engine, typename Options>
SimulatedBc run_simulated_bc(const Args& a, const graph::Graph& g,
                             const sim::MachineModel& machine, int spares,
                             Options opts, const std::string& headline,
                             BcJson& json) {
  sim::Sim sim(std::max(a.ranks, 1), machine);
  // Route ledger charges into the telemetry registry so the --json
  // artifact carries sim.* totals alongside the faults.* counters.
  telemetry::ScopedLedgerSink sink(sim.ledger());
  Engine engine(sim, g,
                dist::make_partition(g, dist::partition_kind_of(a.partition),
                                     sim.nranks()));
  if (!a.faults.empty()) {
    // After construction: the one-time graph distribution does not
    // consume charge indices, so schedules address the algorithm itself.
    sim::FaultSpec spec = sim::FaultSpec::parse(a.faults, a.fault_seed);
    spec.spares += spares;
    sim.enable_faults(spec);
  }
  opts.batch_size = a.batch;
  opts.tune.allow_async = allow_async_of(a);
  opts.checkpoint_dir = a.checkpoint_dir;
  opts.resume = a.resume;
  if (a.approx > 0) opts.sources = pivot_sources(g, a.approx);
  std::unique_ptr<tune::Tuner> tuner = make_tuner(a, machine);
  opts.tuner = tuner.get();
  SimulatedBc out;
  try {
    if (a.adaptive) {
      const core::AdaptiveSamplerOptions aopts = adaptive_opts(a, g);
      const core::AdaptiveSampleResult ares = core::run_adaptive_bc(
          g.n(), aopts,
          [&](const std::vector<graph::vid_t>& srcs,
              const core::BatchRunOptions::BatchObserver& ob, bool resume) {
            Options ropts = opts;
            ropts.sources = srcs;
            ropts.on_batch = ob;
            ropts.resume = resume;
            return engine.run(ropts, &out.stats);
          });
      out.bc = ares.lambda;
      print_adaptive_summary(ares, aopts, g.n());
      json.approx = core::approx_json(ares, aopts);
    } else {
      out.bc = engine.run(opts, &out.stats);
    }
  } catch (const sim::FaultError& e) {
    if (e.recoverable()) throw;
    out.exit_code = report_unrecoverable(e, a, sim, out.stats.batch_retries);
    return out;
  }
  const auto cost = sim.ledger().critical();
  std::printf("%s: critical path %s, %.0f msgs, modelled %.4fs, plans:",
              headline.c_str(), human_bytes(cost.words * 8).c_str(),
              cost.msgs, cost.total_seconds());
  for (const auto& p : out.stats.plans_used) std::printf(" %s", p.c_str());
  std::puts("");
  if (sim.overlap_windows() > 0) {
    std::printf("overlap: %llu windows, modelled %.4fs hidden behind "
                "compute\n",
                static_cast<unsigned long long>(sim.overlap_windows()),
                sim.overlap_saved_seconds());
  }
  if (tuner) {
    print_tune_summary(*tuner);
    json.tune = tuner->json();
    tuner->save(a.tune_profile);
    std::printf("[tune] wrote %s\n", a.tune_profile.c_str());
  }
  json.cost = cost_block(cost);
  if (const sim::FaultInjector* fi = sim.faults()) {
    json.faults = fault_block(*fi, out.stats.batch_retries,
                              cost.total_seconds());
  }
  return out;
}

/// The --json `baseline` block of a combblas run.
telemetry::Json baseline_block(const core::DistBcStats& stats) {
  telemetry::Json j = telemetry::Json::object();
  j["engine"] = telemetry::Json(std::string("combblas"));
  j["batches"] = telemetry::Json(stats.batches);
  j["batch_retries"] = telemetry::Json(stats.batch_retries);
  if (stats.resumed_batches > 0) {
    j["resumed_batches"] = telemetry::Json(stats.resumed_batches);
  }
  telemetry::Json plans = telemetry::Json::array();
  for (const auto& p : stats.plans_used) plans.push(telemetry::Json(p));
  j["plans"] = std::move(plans);
  j["forward_seconds"] = telemetry::Json(stats.forward_cost.total_seconds());
  j["backward_seconds"] = telemetry::Json(stats.backward_cost.total_seconds());
  j["forward_words"] = telemetry::Json(stats.forward_cost.words);
  j["backward_words"] = telemetry::Json(stats.backward_cost.words);
  j["imbalance_nnz"] = telemetry::Json(stats.imbalance_nnz);
  j["imbalance_ops"] = telemetry::Json(stats.imbalance_ops);
  return j;
}

int run(const Args& a) {
  if (a.threads > 0) support::set_threads(a.threads);
  sim::MachineModel machine = sim::MachineModel::blue_waters();
  if (a.overlap_beta >= 0) machine.overlap_beta = a.overlap_beta;
  int profile_spares = 0;  // spare-class ranks declared by --machine-profile
  if (!a.machine_profile.empty()) {
    MFBC_CHECK(a.ranks > 0, "--machine-profile needs --ranks P");
    profile_spares =
        sim::apply_profile_spec(machine, a.machine_profile, a.ranks);
  }
  const bool allow_async = allow_async_of(a);
  // Validate eagerly so a bogus value fails before any expensive work.
  const dist::PartitionKind pkind = dist::partition_kind_of(a.partition);
  if (!a.calibrate_file.empty()) {
    std::puts("calibrating the section 5.2 planning model "
              "(microbenchmark plan grid)...");
    tune::CalibrateOptions copts;
    copts.machine = machine;
    copts.measure_flop_rate = true;
    const tune::Profile prof = tune::calibrate(copts);
    prof.save(a.calibrate_file);
    const tune::Calibration& c = prof.calibration;
    std::printf("fit over %d samples: alpha x%.3g, beta x%.3g, compute "
                "x%.3g; mean |rel err| %.3f -> %.3f\n",
                c.samples, c.alpha_scale, c.beta_scale, c.compute_scale,
                c.err_before, c.err_after);
    std::printf("[tune] wrote %s\n", a.calibrate_file.c_str());
    return 0;
  }
  graph::Graph g = load_graph(a);
  if (a.giant) g = graph::largest_component(g);
  std::printf("graph: n=%lld m=%lld %s %s avg_degree=%.2f\n",
              static_cast<long long>(g.n()), static_cast<long long>(g.m()),
              g.directed() ? "directed" : "undirected",
              g.weighted() ? "weighted" : "unweighted", g.avg_degree());

  if (a.explain_plan) {
    MFBC_CHECK(a.ranks > 0, "--explain-plan needs --ranks P");
    // Model the run's first structurally interesting forward multiply:
    // the frontier holds the first batch's adjacency rows (the shape every
    // later iteration resembles), B is the full adjacency.
    const graph::vid_t total =
        a.approx > 0 ? std::min<graph::vid_t>(a.approx, g.n()) : g.n();
    const graph::vid_t nb = std::min<graph::vid_t>(a.batch, total);
    double frontier_nnz = 0, adj_nnz = 0;
    for (graph::vid_t v = 0; v < g.n(); ++v) {
      const double d = static_cast<double>(g.out_degree(v));
      if (v < nb) frontier_nnz += d;
      adj_nnz += d;
    }
    const double frontier_words =
        a.algo == "combblas" ? sim::sparse_entry_words<double>()
                             : sim::sparse_entry_words<algebra::Multpath>();
    dist::MultiplyStats stats = dist::MultiplyStats::estimated(
        nb, g.n(), g.n(), frontier_nnz, adj_nnz, frontier_words,
        sim::sparse_entry_words<graph::Weight>(), frontier_words);
    dist::TuneOptions topts;
    topts.allow_async = allow_async;
    if (pkind != dist::PartitionKind::kBlock) {
      // Price both distributions with their *measured* load factors so the
      // table shows what degree-aware packing actually buys on this graph.
      const dist::Partition part = dist::make_partition(g, pkind, a.ranks);
      stats.imb_block =
          dist::max_mean_imbalance(dist::slot_loads(g, a.ranks));
      stats.imb_balanced = part.balance.imbalance();
      topts.partition = dist::Dist::kBalanced;
      topts.allow_partition = true;
    }
    if (a.algo == "combblas") {
      // The baseline engine re-plans over square-grid 2D SUMMA only — show
      // the candidate table it would actually choose from.
      const int s = static_cast<int>(
          std::lround(std::sqrt(static_cast<double>(a.ranks))));
      MFBC_CHECK(s * s == a.ranks,
                 "--explain-plan with --algo combblas needs a square --ranks");
      topts.allow_1d = false;
      topts.allow_3d = false;
      topts.square_2d_only = true;
    }
    const dist::Plan best = dist::autotune(a.ranks, stats, machine, topts);
    bench::Table tab({"plan", "schedule", "dist", "latency(s)",
                      "bandwidth(s)", "compute(s)", "remap(s)", "overlap(s)",
                      "total(s)", "mem(words)", "fits", ""});
    for (const dist::Plan& plan : dist::enumerate_plans(a.ranks, topts)) {
      const dist::ModelCost mc = dist::model_cost(plan, stats, machine);
      const double mem = dist::model_memory_words(plan, stats);
      tab.add_row({plan.to_string(), dist::schedule_name(plan),
                   dist::dist_name(plan.dist),
                   compact(mc.latency, 4), compact(mc.bandwidth, 4),
                   compact(mc.compute, 4), compact(mc.remap, 4),
                   compact(mc.overlap, 4), compact(mc.total(), 4),
                   compact(mem, 4),
                   mem <= topts.memory_words_limit ? "yes" : "no",
                   plan == best ? "<== chosen" : ""});
    }
    std::printf("candidate plans for the first forward multiply "
                "(m=%lld k=n=%lld nnz(A)=%.0f nnz(B)=%.0f) on %d ranks "
                "(schedule axis: %s, partition: %s, overlap beta %.2f):\n",
                static_cast<long long>(nb), static_cast<long long>(g.n()),
                frontier_nnz, adj_nnz, a.ranks,
                allow_async ? "sync+async" : "sync only",
                dist::partition_kind_name(pkind), machine.overlap_beta);
    std::fputs(tab.render().c_str(), stdout);
    return 0;
  }

  WallTimer timer;
  const bool simulated_bc =
      (a.algo == "mfbc" || a.algo == "combblas") && a.ranks > 0;
  MFBC_CHECK(a.faults.empty() || simulated_bc,
             "--faults needs a simulated run "
             "(--algo mfbc|combblas --ranks P)");
  MFBC_CHECK(a.tune_profile.empty() || simulated_bc,
             "--tune-profile needs a simulated run "
             "(--algo mfbc|combblas --ranks P)");
  MFBC_CHECK(pkind == dist::PartitionKind::kBlock || simulated_bc,
             "--partition needs a simulated run "
             "(--algo mfbc|combblas --ranks P)");
  MFBC_CHECK(a.spares == 0 || !a.faults.empty(),
             "--spares needs --faults (spares only matter to recovery)");
  MFBC_CHECK(a.checkpoint_dir.empty() || simulated_bc,
             "--checkpoint-dir needs a simulated run "
             "(--algo mfbc|combblas --ranks P)");
  MFBC_CHECK(!a.resume || !a.checkpoint_dir.empty(),
             "--resume needs --checkpoint-dir DIR");
  MFBC_CHECK(!a.adaptive || simulated_bc,
             "--approx eps,delta needs a simulated run "
             "(--algo mfbc|combblas --ranks P)");
  // Spares can come from either flag: --spares N and the machine-profile's
  // `spare` class add up to one pool.
  const int total_spares = a.spares + profile_spares;
  BcJson json;
  std::vector<double> bc;
  if (a.algo == "brandes") {
    bc = a.approx > 0
             ? baseline::brandes_partial(g, pivot_sources(g, a.approx))
             : baseline::brandes(g);
  } else if (a.algo == "combblas") {
    SimulatedBc run = run_simulated_bc<baseline::CombBlasBc>(
        a, g, machine, total_spares, baseline::CombBlasOptions{},
        "combblas-style on " + std::to_string(std::max(a.ranks, 1)) +
            " ranks",
        json);
    if (run.exit_code != 0) return run.exit_code;
    bc = std::move(run.bc);
    json.baseline = baseline_block(run.stats);
  } else if (a.algo == "mfbc" && a.ranks > 0) {
    core::DistMfbcOptions opts;
    opts.plan_mode =
        a.mode == "ca" ? core::PlanMode::kFixedCa : core::PlanMode::kAuto;
    opts.replication_c = a.c;
    // Key cached plans to this exact graph version (docs/serving.md): plans
    // tuned on one structure are never reused on another.
    opts.graph_signature = graph::structural_signature(g);
    SimulatedBc run = run_simulated_bc<core::DistMfbc>(
        a, g, machine, total_spares, std::move(opts),
        "mfbc on " + std::to_string(a.ranks) + " ranks (" + a.mode + ")",
        json);
    if (run.exit_code != 0) return run.exit_code;
    bc = std::move(run.bc);
  } else if (a.algo == "mfbc") {
    core::MfbcOptions opts;
    opts.batch_size = a.batch;
    if (a.approx > 0) opts.sources = pivot_sources(g, a.approx);
    bc = core::mfbc(g, opts);
  } else {
    throw Error("unknown --algo: " + a.algo);
  }
  std::printf("computed in %.2fs wall\n", timer.seconds());
  print_top(bc, a.top);
  if (!a.json_file.empty()) {
    support::export_pool_utilization();
    telemetry::RunSummary summary("mfbc_cli");
    telemetry::Json config = telemetry::Json::object();
    config["algo"] = telemetry::Json(a.algo);
    config["ranks"] = telemetry::Json(a.ranks);
    config["batch"] = telemetry::Json(static_cast<std::int64_t>(a.batch));
    config["schedule"] = telemetry::Json(a.schedule);
    config["partition"] = telemetry::Json(a.partition);
    if (!a.machine_profile.empty()) {
      config["machine_profile"] = telemetry::Json(a.machine_profile);
    }
    config["overlap_beta"] = telemetry::Json(machine.overlap_beta);
    config["seed"] = telemetry::Json(static_cast<double>(a.seed));
    if (!a.faults.empty()) {
      config["faults"] = telemetry::Json(a.faults);
      config["fault_seed"] =
          telemetry::Json(static_cast<double>(a.fault_seed));
    }
    if (a.spares > 0) config["spares"] = telemetry::Json(a.spares);
    if (!a.checkpoint_dir.empty()) {
      config["checkpoint_dir"] = telemetry::Json(a.checkpoint_dir);
      config["resume"] = telemetry::Json(a.resume);
    }
    summary.set("config", std::move(config));
    if (!json.cost.is_null()) summary.set("cost", std::move(json.cost));
    if (!json.faults.is_null()) summary.set("faults", std::move(json.faults));
    if (!json.tune.is_null()) summary.set("tune", std::move(json.tune));
    if (!json.approx.is_null()) summary.set("approx", std::move(json.approx));
    if (!json.baseline.is_null()) {
      summary.set("baseline", std::move(json.baseline));
    }
    telemetry::Json top = telemetry::Json::array();
    for (const auto& rv : core::top_k(bc, static_cast<std::size_t>(a.top))) {
      telemetry::Json e = telemetry::Json::object();
      e["vertex"] = telemetry::Json(static_cast<std::int64_t>(rv.vertex));
      e["score"] = telemetry::Json(rv.score);
      top.push(std::move(e));
    }
    summary.set("top", std::move(top));
    summary.write(a.json_file);
    std::printf("[json] wrote %s\n", a.json_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args a = parse(argc, argv);
    if (a.help || argc == 1) {
      usage();
      return 0;
    }
    return run(a);
  } catch (const mfbc::sim::FaultError& e) {
    // Backstop for FaultErrors escaping outside the engine branches (the
    // branches themselves report unrecoverable schedules with context):
    // unrecoverable schedules exit 3, distinct from the generic error 2.
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.recoverable() ? 2 : 3;
  } catch (const mfbc::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
