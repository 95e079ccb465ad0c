// Benchmark harness: runs one workload in this process and prints its
// metrics, ending with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 (the end-to-end run): times rounds of set-up plus
// DistMfbc/CombBlasBc::run() with span collection off until --seconds have
// passed, sets the workload up a few more times, and reports the median
// set-up and run() times; reads the modelled critical path off the ledger,
// and checks every batch's λ delta against Brandes.
//
// --trace 1 (the per-layer run): repeats the run with span collection on,
// the benchmark's own spans (bench.ingest, bench.build, bench.run,
// bench.oracle, bench.kernel) around each library call, then the same run
// untraced (the base of the tracing overhead) and on kPoolThreads pool
// threads, a kernel lane and the Brandes / sequential-MFBC reference
// timings. Writes a Chrome trace and a per-layer JSON into --out.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "inputs.hpp"

#include "algebra/multpath.hpp"
#include "baseline/combblas_bc.hpp"
#include "graph/io.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"
#include "telemetry/export.hpp"
#include "telemetry/ledger_sink.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace mfbc;
using graph::vid_t;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Engine { kMfbc, kCombBlas };
enum class Family { kRmat, kMesh };

// Why each workload exists is recorded in BENCHMARK.json. A round is one
// set-up plus one run() over `batches` batches, sized so that a round takes
// about six seconds: --trace 0 then fits several rounds into its --seconds,
// and a burst of load from another tenant of the host spoils one round's
// time rather than moving the median. Runs use one pool thread; the traced
// run adds a kPoolThreads lane, so the pool's parallel path is measured
// without gating a wall time that other tenants of the host can double.
struct Workload {
  const char* name;
  Engine engine;
  Family family;
  int ranks;
  vid_t batch;
  int batches;
};

constexpr Workload kWorkloads[] = {
    {"rmat-p16", Engine::kMfbc, Family::kRmat, 16, 128, 2},
    {"mesh-w-p64", Engine::kMfbc, Family::kMesh, 64, 64, 1},
    {"combblas-p16", Engine::kCombBlas, Family::kRmat, 16, 128, 4},
};

constexpr int kPoolThreads = 4;

/// Rounds per --trace 0 run, however short --seconds is.
constexpr int kMinRounds = 3;

/// Set-ups per --trace 0 run, rounds included; setup_s is their median.
constexpr int kSetups = 20;

perfbench::Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  if (w.family == Family::kRmat) {
    return perfbench::rmat_inputs(13, 16, std::int64_t{w.batch} * w.batches,
                                  seed);
  }
  return perfbench::mesh_inputs(128, 16, w.batches, seed);
}

/// What the user builds before the first query: the graph parsed from
/// edge-list bytes, the simulated machine, and the distributed engine.
struct Setup {
  std::unique_ptr<graph::Graph> g;
  std::unique_ptr<sim::Sim> sim;
  std::unique_ptr<core::DistMfbc> mfbc;
  std::unique_ptr<baseline::CombBlasBc> combblas;
  double ingest_s = 0;
  double build_s = 0;

  void drop_engine() {
    mfbc.reset();
    combblas.reset();
    sim.reset();
  }
};

Setup set_up(const Workload& w, const perfbench::Inputs& in) {
  Setup s;
  auto t0 = Clock::now();
  {
    telemetry::Span span("bench.ingest");
    std::istringstream bytes(in.edge_list);
    s.g = std::make_unique<graph::Graph>(graph::read_edge_list(
        bytes, {.directed = false, .weighted = in.weighted}));
  }
  s.ingest_s = since(t0);
  t0 = Clock::now();
  {
    telemetry::Span span("bench.build");
    s.sim = std::make_unique<sim::Sim>(w.ranks);
    if (w.engine == Engine::kMfbc) {
      s.mfbc = std::make_unique<core::DistMfbc>(*s.sim, *s.g);
    } else {
      s.combblas = std::make_unique<baseline::CombBlasBc>(*s.sim, *s.g);
    }
  }
  s.build_s = since(t0);
  return s;
}

struct RunResult {
  std::vector<double> lambda;
  std::vector<std::vector<double>> deltas;  ///< per batch, from on_batch
  std::vector<double> batch_s;              ///< per batch, from on_batch
  double wall_s = 0;
  sim::Cost modelled;  ///< ledger critical path over run() only
  core::FrontierTrace forward, backward;
  sim::Cost forward_cost, backward_cost;
};

template <typename Options, typename Stats, typename EngineT>
RunResult run_engine(EngineT& engine, sim::Sim& sim, const Workload& w,
                     const std::vector<vid_t>& sources) {
  RunResult r;
  Options opts;
  opts.batch_size = w.batch;
  opts.sources = sources;
  Clock::time_point last;
  opts.on_batch = [&](int, std::size_t, const std::vector<double>& delta) {
    const auto now = Clock::now();
    r.batch_s.push_back(std::chrono::duration<double>(now - last).count());
    last = now;
    r.deltas.push_back(delta);
    return true;
  };
  sim.ledger().reset();  // exclude the one-time distribution, as §7 does
  Stats stats;
  {
    telemetry::Span span("bench.run");
    const auto t0 = Clock::now();
    last = t0;
    r.lambda = engine.run(opts, &stats);
    r.wall_s = since(t0);
  }
  r.modelled = sim.ledger().critical();
  r.forward = std::move(stats.forward);
  r.backward = std::move(stats.backward);
  r.forward_cost = stats.forward_cost;
  r.backward_cost = stats.backward_cost;
  return r;
}

RunResult run(Setup& s, const Workload& w, const std::vector<vid_t>& sources) {
  if (s.mfbc) {
    return run_engine<core::DistMfbcOptions, core::DistMfbcStats>(
        *s.mfbc, *s.sim, w, sources);
  }
  return run_engine<baseline::CombBlasOptions, baseline::CombBlasStats>(
      *s.combblas, *s.sim, w, sources);
}

/// Batches of `r` that fail to repeat `ref` bit for bit. Both runs computed
/// the same sources on fresh engines, so their λ deltas and modelled costs
/// must be identical; a cost difference fails every batch.
int repeat_failures(const RunResult& ref, const RunResult& r) {
  const bool same_cost = r.modelled.words == ref.modelled.words &&
                         r.modelled.msgs == ref.modelled.msgs &&
                         r.modelled.total_seconds() ==
                             ref.modelled.total_seconds();
  int failed = 0;
  for (std::size_t b = 0; b < ref.deltas.size(); ++b) {
    if (!same_cost || b >= r.deltas.size() || r.deltas[b] != ref.deltas[b]) {
      ++failed;
    }
  }
  return failed;
}

struct KernelLane {
  double ops = 0;
  double seconds = 0;
};

/// Replays the first batch's forward sweep (MFBF) on one rank and times only
/// the sparse::spgemm calls: the workload's own frontiers through the local
/// Gustavson kernel, without distribution or state-update work.
KernelLane kernel_lane(const graph::Graph& g, std::span<const vid_t> batch) {
  using algebra::Multpath;
  telemetry::Span span("bench.kernel");
  const vid_t n = g.n();
  const auto nb = static_cast<vid_t>(batch.size());
  const auto at = [n](vid_t s, vid_t v) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(v);
  };
  // Path weights found so far; the next frontier keeps the product entries
  // that improve or tie them (multiplicities ride along in the values).
  std::vector<double> dist(static_cast<std::size_t>(nb) * n,
                           algebra::kInfWeight);
  std::vector<sparse::nnz_t> rowptr{0};
  std::vector<vid_t> cols;
  std::vector<Multpath> vals;
  for (vid_t s = 0; s < nb; ++s) {
    const vid_t src = batch[static_cast<std::size_t>(s)];
    const auto c = g.adj().row_cols(src);
    const auto v = g.adj().row_vals(src);
    for (std::size_t x = 0; x < c.size(); ++x) {
      dist[at(s, c[x])] = v[x];
      cols.push_back(c[x]);
      vals.push_back({v[x], 1.0});
    }
    rowptr.push_back(static_cast<sparse::nnz_t>(cols.size()));
  }
  sparse::Csr<Multpath> frontier(nb, n, std::move(rowptr), std::move(cols),
                                 std::move(vals));
  KernelLane lane;
  while (frontier.nnz() > 0) {
    sparse::SpgemmStats st;
    const auto t0 = Clock::now();
    const sparse::Csr<Multpath> product =
        sparse::spgemm<algebra::MultpathMonoid>(frontier, g.adj(),
                                                algebra::BellmanFordAction{},
                                                &st);
    lane.seconds += since(t0);
    lane.ops += static_cast<double>(st.ops);
    std::vector<sparse::nnz_t> next_ptr{0};
    std::vector<vid_t> next_cols;
    std::vector<Multpath> next_vals;
    for (vid_t s = 0; s < nb; ++s) {
      const vid_t src = batch[static_cast<std::size_t>(s)];
      const auto c = product.row_cols(s);
      const auto v = product.row_vals(s);
      for (std::size_t x = 0; x < c.size(); ++x) {
        if (c[x] == src) continue;
        double& d = dist[at(s, c[x])];
        if (v[x].w > d) continue;
        d = v[x].w;
        next_cols.push_back(c[x]);
        next_vals.push_back(v[x]);
      }
      next_ptr.push_back(static_cast<sparse::nnz_t>(next_cols.size()));
    }
    frontier = sparse::Csr<Multpath>(nb, n, std::move(next_ptr),
                                     std::move(next_cols),
                                     std::move(next_vals));
  }
  return lane;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

template <typename T>
double sum(const std::vector<T>& v) {
  return static_cast<double>(std::accumulate(v.begin(), v.end(), T{}));
}

/// Ordered (name, value, unit) metrics plus the outcome fields.
struct Report {
  telemetry::Json metrics = telemetry::Json::object();
  int attempted = 0;
  int failed = 0;
  std::string digest;  ///< λ bit digest of the checked run

  void add(const std::string& name, double value, const char* unit) {
    std::printf("  %-26s %.6g %s\n", name.c_str(), value, unit);
    telemetry::Json m = telemetry::Json::object();
    m["value"] = value;
    m["unit"] = unit;
    metrics[name] = std::move(m);
  }
};

void end_to_end(const Workload& w, double seconds, const perfbench::Inputs& in,
                const std::vector<vid_t>& sources, Report& rep) {
  std::vector<double> setups, walls;
  std::optional<Setup> s;
  std::optional<RunResult> first;
  auto fresh_setup = [&] {
    s.reset();
    s.emplace(set_up(w, in));
    setups.push_back(s->ingest_s + s->build_s);
  };
  const auto t0 = Clock::now();
  while (walls.size() < kMinRounds || since(t0) < seconds) {
    fresh_setup();
    RunResult r = run(*s, w, sources);
    walls.push_back(r.wall_s);
    if (!first) {
      first = std::move(r);
      continue;
    }
    rep.attempted += static_cast<int>(first->deltas.size());
    rep.failed += repeat_failures(*first, r);
  }
  while (setups.size() < kSetups) fresh_setup();
  s->drop_engine();
  perfbench::Gate gate;
  {
    telemetry::Span span("bench.oracle");
    gate = perfbench::check_batches(*s->g, sources, w.batch, first->deltas);
  }
  rep.attempted += gate.attempted;
  rep.failed += gate.failed;
  rep.digest = perfbench::lambda_digest(first->lambda);
  std::printf("  rounds                     %zu, run() s:", walls.size());
  for (const double t : walls) std::printf(" %.4f", t);
  std::printf("\n");
  rep.add("wall_s", median(walls), "s");
  rep.add("setup_s", median(setups), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("modelled_s", first->modelled.total_seconds(), "s");
  rep.add("modelled_words", first->modelled.words, "words");
  rep.add("modelled_msgs", first->modelled.msgs, "msgs");
}

void per_layer(const Workload& w, const perfbench::Inputs& in,
               const std::vector<vid_t>& sources, const std::string& out_dir,
               std::uint64_t seed, Report& rep) {
  telemetry::Registry& reg = telemetry::registry();
  telemetry::SpanCollector& spans = telemetry::collector();
  spans.clear();
  spans.set_enabled(true);
  Setup s = set_up(w, in);
  const double calls0 = reg.value("dist.spgemm.calls");
  const double colls0 = reg.value("ledger.collectives");
  RunResult traced;
  {
    telemetry::ScopedLedgerSink sink(s.sim->ledger());
    traced = run(s, w, sources);
  }
  const double spgemm_calls = reg.value("dist.spgemm.calls") - calls0;
  const double collectives = reg.value("ledger.collectives") - colls0;
  s.drop_engine();
  perfbench::Gate gate;
  {
    telemetry::Span span("bench.oracle");
    gate = perfbench::check_batches(*s.g, sources, w.batch, traced.deltas);
  }
  const KernelLane lane =
      kernel_lane(*s.g, std::span<const vid_t>(sources.data(),
                                               std::min<std::size_t>(
                                                   sources.size(), w.batch)));
  spans.set_enabled(false);
  const std::vector<telemetry::SpanRecord> records = spans.finished();

  // The same run untraced: the base of the tracing overhead, and the pool
  // and batch figures free of tracing cost. Then again on kPoolThreads pool
  // threads. Both must repeat the traced run bit for bit.
  struct PoolRun {
    RunResult r;
    std::vector<support::ChunkUtilization> util;
    double cpu_s = 0;
  };
  auto pool_run = [&](int threads) {
    support::set_threads(threads);
    Setup s2 = set_up(w, in);
    PoolRun p;
    support::pool().reset_utilization();
    const double cpu0 = cpu_seconds();
    p.r = run(s2, w, sources);
    p.cpu_s = cpu_seconds() - cpu0;
    p.util = support::pool().utilization();
    return p;
  };
  const PoolRun plain = pool_run(1);
  const PoolRun wide = pool_run(kPoolThreads);
  support::set_threads(1);
  rep.attempted = gate.attempted + 2 * static_cast<int>(traced.deltas.size());
  rep.failed = gate.failed + repeat_failures(traced, plain.r) +
               repeat_failures(traced, wide.r);

  const auto t0 = Clock::now();
  core::mfbc(*s.g, {.batch_size = w.batch, .sources = sources});
  const double seq_s = since(t0);

  std::int64_t run_id = -1;
  double run_us = 0;
  for (const auto& r : records) {
    if (r.name == "bench.run") {
      run_id = r.id;
      run_us = r.dur_us;
    }
  }
  const auto layers = perfbench::aggregate_layers(records, run_id);
  auto layer = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? perfbench::LayerTime{} : it->second;
  };
  const std::string engine = w.engine == Engine::kMfbc ? "mfbc" : "baseline";
  const double state_us = layer(engine + ".forward").self_us +
                          layer(engine + ".backward").self_us;
  // Busy and barrier-wait time of the pool's chunks, as shares of the
  // thread-time the run had (threads × wall).
  struct PoolShares {
    double busy = 0, wait = 0, chunk0 = 0;
  };
  auto shares = [](const PoolRun& p) {
    double busy_ns = 0, wait_ns = 0;
    for (const auto& u : p.util) {
      busy_ns += u.busy_ns;
      wait_ns += u.wait_ns;
    }
    const double ns = static_cast<double>(p.util.size()) * p.r.wall_s * 1e9;
    return PoolShares{busy_ns / ns, wait_ns / ns, p.util[0].busy_ns / busy_ns};
  };
  const PoolShares one = shares(plain), many = shares(wide);

  rep.digest = perfbench::lambda_digest(traced.lambda);
  rep.add("graph.ingest_s", s.ingest_s, "s");
  rep.add("dist.build_s", s.build_s, "s");
  const std::vector<double>& batch_s = plain.r.batch_s;
  rep.add("core.batches", static_cast<double>(batch_s.size()), "count");
  rep.add("core.batch_p50_s", median(batch_s), "s");
  rep.add("core.batch_max_s",
          *std::max_element(batch_s.begin(), batch_s.end()), "s");
  rep.add("sparse.ops",
          static_cast<double>(traced.forward.total_ops +
                              traced.backward.total_ops),
          "count");
  rep.add("sparse.ns_per_op", lane.seconds * 1e9 / lane.ops, "ns");
  rep.add("dist.spgemm.calls", spgemm_calls, "count");
  rep.add("dist.spgemm_s", layer("dist.spgemm").total_us * 1e-6, "s");
  rep.add("dist.frontier_nnz",
          sum(traced.forward.frontier_nnz) + sum(traced.backward.frontier_nnz),
          "count");
  rep.add("dist.product_nnz",
          sum(traced.forward.product_nnz) + sum(traced.backward.product_nnz),
          "count");
  rep.add("dist.plan.calls", static_cast<double>(layer("dist.autotune").calls),
          "count");
  rep.add("dist.plan_share", layer("dist.autotune").total_us / run_us,
          "share");
  rep.add("engine.state_s", state_us * 1e-6, "s");
  rep.add("engine.fwd_iterations", traced.forward.iterations(), "count");
  rep.add("engine.bwd_iterations", traced.backward.iterations(), "count");
  rep.add("sim.fwd_words", traced.forward_cost.words, "words");
  rep.add("sim.bwd_words", traced.backward_cost.words, "words");
  rep.add("sim.collectives", collectives, "count");
  rep.add("pool.busy_share", one.busy, "share");
  rep.add("pool.cpu_s", plain.cpu_s, "s");
  rep.add("pool.t4_speedup", plain.r.wall_s / wide.r.wall_s, "ratio");
  rep.add("pool.t4_busy_share", many.busy, "share");
  rep.add("pool.t4_chunk0_share", many.chunk0, "share");
  rep.add("pool.t4_wait_share", many.wait, "share");
  rep.add("ref.brandes_s", gate.brandes_s, "s");
  rep.add("ref.seq_mfbc_s", seq_s, "s");
  rep.add("ref.dist_over_seq", plain.r.wall_s / seq_s, "ratio");
  rep.add("telemetry.traced_wall_s", traced.wall_s, "s");
  rep.add("telemetry.untraced_wall_s", plain.r.wall_s, "s");
  rep.add("telemetry.overhead", traced.wall_s / plain.r.wall_s, "ratio");

  // Artifacts: the Chrome trace, and the per-layer figures with the full
  // per-span-name table of the traced run.
  std::filesystem::create_directories(out_dir);
  const std::string stem =
      out_dir + "/" + w.name + "-seed" + std::to_string(seed);
  telemetry::write_chrome_trace(stem + ".trace.json");
  telemetry::Json doc = telemetry::Json::object();
  doc["workload"] = w.name;
  doc["seed"] = static_cast<std::int64_t>(seed);
  doc["metrics"] = rep.metrics;
  telemetry::Json table = telemetry::Json::object();
  for (const auto& [name, lt] : layers) {
    telemetry::Json row = telemetry::Json::object();
    row["calls"] = lt.calls;
    row["total_s"] = lt.total_us * 1e-6;
    row["self_s"] = lt.self_us * 1e-6;
    table[name] = std::move(row);
  }
  doc["spans"] = std::move(table);
  telemetry::write_json(stem + ".layers.json", doc);
  std::printf("  wrote %s.{trace,layers}.json\n", stem.c_str());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".";
  std::optional<std::uint64_t> seed;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    if (f == "--workload") workload = v;
    else if (f == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") seconds = std::atof(v);
    else if (f == "--trace") trace = std::atoi(v);
    else if (f == "--out") out_dir = v;
    else usage(("unknown flag " + f).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (!seed) usage("--seed is required");
  if (!(seconds > 0)) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");

  support::set_threads(1);
  const perfbench::Inputs in = make_inputs(*w, *seed);
  const std::vector<vid_t> sources(in.sources.begin(), in.sources.end());
  std::printf("%s seed=%llu: n=%lld m=%lld p=%d sources=%zu batch=%lld\n",
              w->name, static_cast<unsigned long long>(*seed),
              static_cast<long long>(in.n), static_cast<long long>(in.m),
              w->ranks, sources.size(),
              static_cast<long long>(w->batch));

  Report rep;
  if (trace == 0) {
    end_to_end(*w, seconds, in, sources, rep);
  } else {
    per_layer(*w, in, sources, out_dir, *seed, rep);
  }
  // fail_frac is reported here and through attempted/failed rather than as
  // a gated metric: on a correct run it is 0.
  std::printf("  fail_frac                  %.6g (%d of %d batches)\n",
              static_cast<double>(rep.failed) / rep.attempted, rep.failed,
              rep.attempted);
  std::printf("  lambda_digest              %s\n", rep.digest.c_str());
  telemetry::Json line = telemetry::Json::object();
  line["correct"] = rep.failed == 0;
  line["attempted"] = rep.attempted;
  line["failed"] = rep.failed;
  line["metrics"] = std::move(rep.metrics);
  std::printf("%s\n", line.dump().c_str());
  return rep.failed == 0 ? 0 : 1;
}
