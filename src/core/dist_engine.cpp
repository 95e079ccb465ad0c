#include "core/dist_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dist/batch_state.hpp"
#include "graph/mutate.hpp"
#include "sim/faults.hpp"
#include "sparse/ops.hpp"
#include "telemetry/registry.hpp"

namespace mfbc::core {

using dist::DistMatrix;
using dist::Layout;
using dist::Range;
using graph::vid_t;
using graph::Weight;

DistEngine::DistEngine(sim::Sim& sim, const graph::Graph& g,
                       dist::Partition part, std::string prefix)
    : sim_(sim),
      prefix_(std::move(prefix)),
      part_(std::move(part)),
      // Non-identity partitions relabel the graph once at ingest; the
      // engine computes entirely in permuted ids and run() inverts the
      // permutation on the centrality output. Identity partitions keep the
      // caller's graph by reference (no copy).
      gp_(part_.identity() ? graph::Graph{} : part_.apply(g)),
      g_(part_.identity() ? g : gp_) {
  auto [pr, pc] = dist::near_square_grid(sim.nranks());
  base_ = Layout{0, pr, pc, Range{0, g_.n()}, Range{0, g_.n()}, false};
  adj_ = DistMatrix<Weight>::scatter<algebra::TropicalMinMonoid>(
      sim, g_.adj(), base_);
  if (g_.directed()) {
    adj_t_ = DistMatrix<Weight>::scatter<algebra::TropicalMinMonoid>(
        sim, sparse::transpose(g_.adj()), base_);
  } else {
    // Every Graph construction keeps an undirected adjacency symmetric, so
    // adj_t() reads A's blocks; each simulated rank still receives its own
    // Aᵀ, and that scatter is charged as a directed graph's is.
    sim.charge_scatter(base_.ranks(), static_cast<double>(g_.adj().nnz()) *
                                          sim::sparse_entry_words<Weight>());
  }
  // The adjacency and its transpose stay resident for the whole run; record
  // them with the simulated allocator so plan selection sees the memory that
  // is genuinely spoken for (plan_for subtracts the high-water mark).
  std::vector<double> rank_nnz(static_cast<std::size_t>(sim.nranks()), 0.0);
  for (int i = 0; i < pr; ++i) {
    for (int j = 0; j < pc; ++j) {
      const double entries = static_cast<double>(adj_.block(i, j).nnz()) +
                             static_cast<double>(adj_t().block(i, j).nnz());
      sim.note_resident(base_.rank_at(i, j),
                        entries * sim::sparse_entry_words<Weight>());
      rank_nnz[static_cast<std::size_t>(base_.rank_at(i, j))] += entries;
    }
  }
  imb_nnz_ = dist::max_mean_imbalance(rank_nnz);
  telemetry::gauge("dist.imbalance.nnz", imb_nnz_);
}

std::vector<double> DistEngine::run(const ShellRun& spec, DistBcStats* stats,
                                    const BatchFn& batch) {
  // With a tuner attached, install its observer for the whole run: every
  // distributed multiply below records (plan, prediction, measured cost),
  // which is what the per-multiply re-planning feeds on.
  std::optional<tune::ScopedObserver> observe;
  if (spec.tuner != nullptr) observe.emplace(&spec.tuner->observer());
  struct RunScope {
    DistEngine& shell;
    ~RunScope() {
      shell.run_ = nullptr;
      shell.stats_ = nullptr;
    }
  } scope{*this};
  run_ = &spec;
  stats_ = stats;

  // Batching, λ-checkpoint/rollback, the retry loop, and the final reduce
  // are the shared driver's job (core/batch_driver.hpp); the engine only
  // supplies the per-batch algorithm.
  BatchHooks hooks;
  hooks.run_batch = [&](const std::vector<vid_t>& batch_sources,
                        std::vector<double>& lambda,
                        std::span<const int> all_ranks, int batch_index) {
    telemetry::Span batch_span(prefix_ + ".batch");
    batch_span.attr("index", static_cast<std::int64_t>(batch_index));
    batch_span.attr("nb", static_cast<std::int64_t>(batch_sources.size()));
    batch(batch_sources, lambda, all_ranks);
    telemetry::count(prefix_ + ".batches");
    if (stats != nullptr) ++stats->batches;
  };
  hooks.lost_block_words = [&](int i, int j) {
    return (static_cast<double>(adj_.block(i, j).nnz()) +
            static_cast<double>(adj_t().block(i, j).nnz())) *
           sim::sparse_entry_words<Weight>();
  };
  int seen_shrinks = 0;
  hooks.invalidate_caches = [&, seen_shrinks]() mutable {
    // Plan-home adjacency replicas on dead ranks are gone; drop the caches
    // so the next multiply re-maps (and re-charges) them.
    adj_cache_.clear();
    adj_t_cache_.clear();
    // After a grid shrink the tuner's per-stream hysteresis state describes
    // a placement that no longer exists — forget it so the next plan is a
    // fresh decision on the shrunken topology (the bumped epoch already
    // retired the cached plans).
    const sim::FaultInjector* fi = sim_.faults();
    if (fi != nullptr && fi->shrinks() > seen_shrinks) {
      seen_shrinks = fi->shrinks();
      if (spec.tuner != nullptr) spec.tuner->reset_stream_state();
    }
  };
  // Sources arrive in the caller's original vertex ids; validate and map
  // them into partition order *positionally* (the batch composition and λ
  // accumulation order must not depend on the labels) before the driver
  // slices batches. λ comes back in permuted ids and is inverted below.
  run_ops_ = dist::DistSpgemmStats{};
  cache_bytes_ = 0;
  const std::vector<vid_t> sources =
      part_.map_sources(resolve_sources(g_.n(), spec.sources));
  BatchDriverStats driver_stats;
  BatchRunOptions run_opts;
  run_opts.checkpoint_dir = spec.checkpoint_dir;
  run_opts.resume = spec.resume;
  // Bind every durable checkpoint to the graph it was computed on, so a
  // checkpoint from another graph of the same size can never resume.
  if (!spec.checkpoint_dir.empty()) {
    run_opts.graph_sig = graph::structural_signature(g_);
  }
  run_opts.batch_deltas = spec.batch_deltas;
  if (spec.on_batch) {
    if (part_.identity()) {
      run_opts.on_batch = spec.on_batch;
    } else {
      // The driver observes deltas in permuted ids; the caller's observer
      // must see original ids, exactly like the returned λ. Resume-replayed
      // batches carry an empty delta — pass it through unpermuted.
      run_opts.on_batch = [&spec, this](int batch_index,
                                        std::size_t batch_source_count,
                                        const std::vector<double>& delta) {
        if (delta.empty()) {
          return spec.on_batch(batch_index, batch_source_count, delta);
        }
        return spec.on_batch(batch_index, batch_source_count,
                             part_.unpermute(delta));
      };
    }
  }
  auto lambda = run_batched_bc(sim_, base_, g_.n(), sources, spec.batch_size,
                               hooks, &driver_stats, run_opts);
  if (spec.batch_deltas != nullptr && !part_.identity()) {
    // Deltas come back in permuted ids like λ; hand them to the caller in
    // original ids so the splice contract composes with any partition.
    for (auto& delta : *spec.batch_deltas) {
      if (!delta.empty()) delta = part_.unpermute(delta);
    }
  }
  const double imb_ops = run_ops_.ops_imbalance(sim_.nranks());
  telemetry::gauge("dist.imbalance.ops", imb_ops);
  telemetry::gauge("dist.imbalance.nnz", imb_nnz_);
  telemetry::gauge(prefix_ + ".home_cache_bytes",
                   static_cast<double>(cache_bytes_));
  if (stats != nullptr) {
    stats->batch_retries += driver_stats.batch_retries;
    stats->resumed_batches += driver_stats.resumed_batches;
    stats->spare_rehomes += driver_stats.spare_rehomes;
    stats->grid_shrinks += driver_stats.grid_shrinks;
    stats->imbalance_nnz = imb_nnz_;
    stats->imbalance_ops = imb_ops;
  }
  return part_.unpermute(lambda);
}

dist::Plan DistEngine::plan_for(Sweep sweep, const Step& step,
                                double frontier_nnz) const {
  const ShellRun& spec = *run_;
  if (spec.fixed_plan) return *spec.fixed_plan;
  double b_nnz = static_cast<double>(
      (sweep == Sweep::kForward ? adj_ : adj_t()).nnz());
  // Version-stable planning (docs/serving.md): quantize the stationary
  // operand's nnz to its power-of-two band representative so plan choice —
  // and with it the summation grid of every unaffected batch — cannot drift
  // with small mutations. Crossing a band boundary is the serving layer's
  // cue to fall back to a full recompute.
  if (spec.stable_plans && b_nnz > 0) {
    b_nnz = std::exp2(std::floor(std::log2(b_nnz)));
  }
  const auto stats = dist::MultiplyStats::estimated(
      /*m=*/spec.batch_size, /*k=*/g_.n(), /*n=*/g_.n(), frontier_nnz, b_nnz,
      /*words_a=*/spec.frontier_words,
      /*words_b=*/sim::sparse_entry_words<Weight>(), step.out_words);
  dist::TuneOptions topts = spec.tune;
  // The engine knows its data's actual placement: the distribution axis of
  // every enumerated plan matches the partition this instance was built on.
  topts.partition =
      part_.identity() ? dist::Dist::kBlock : dist::Dist::kBalanced;
  // Memory-pressure re-planning: the per-rank budget the tuner may spend is
  // what the machine has minus the high-water mark of long-lived residents
  // (the adjacency copies noted at construction). The floor keeps a machine
  // configured with a tiny memory_words from pruning every candidate. Under
  // stable_plans the high-water mark — which tracks the exact adjacency
  // nnz — must not steer plan selection either; the serving layer sizes its
  // machines so the untightened budget is safe.
  const double resident =
      spec.stable_plans ? 0.0 : sim_.resident_highwater_words();
  if (resident > 0) {
    // Heterogeneous fleets budget against the tightest rank's memory
    // (min_memory_words == memory_words bitwise when homogeneous).
    const double machine_words = sim_.model().min_memory_words();
    const double floor = machine_words * 0.01;
    const double avail = std::max(machine_words - resident, floor);
    topts.memory_words_limit = std::min(topts.memory_words_limit, avail);
  }
  if (spec.tuner == nullptr) {
    return dist::autotune(sim_.nranks(), stats, sim_.model(), topts);
  }
  tune::PlanRequest req;
  req.stream = step.stream;
  req.monoid = step.monoid;
  req.ranks = sim_.nranks();
  req.stats = stats;
  req.machine = sim_.model();
  req.opts = topts;
  // A grid shrink is a topology-change event: plans cached for the old
  // placement stop being addressable under the bumped epoch.
  req.topology = sim_.faults() != nullptr ? sim_.faults()->shrinks() : 0;
  // The graph version keys the plan cache the same way the topology epoch
  // does: a mutated adjacency retires the old version's plans.
  req.graph_sig = spec.plan_cache_sig;
  // A seed plan is the stream's hysteresis reference, so a tuned run only
  // departs from it for a modelled win that clears the re-homing cost.
  if (spec.seed_plan) spec.tuner->seed_stream(step.stream, *spec.seed_plan);
  return spec.tuner->plan(req);
}

void DistEngine::note_plan(const dist::Plan& plan) {
  if (stats_ == nullptr) return;
  std::vector<std::string>& used = stats_->plans_used;
  const std::string name = plan.to_string();
  if (std::find(used.begin(), used.end(), name) == used.end()) {
    used.push_back(name);
  }
}

DistEngine::Phase::Phase(DistEngine& shell, Sweep sweep)
    : shell_(shell),
      sweep_(sweep),
      name_(shell.prefix_ +
            (sweep == Sweep::kForward ? ".forward" : ".backward")),
      start_(shell.sim_.ledger().critical()),
      span_(name_) {}

void DistEngine::Phase::book() {
  const sim::Cost delta = shell_.sim_.ledger().critical() - start_;
  if (span_.active()) {
    span_.attr("crit_words_delta", delta.words);
    span_.attr("crit_msgs_delta", delta.msgs);
    span_.attr("crit_seconds_delta", delta.total_seconds());
  }
  span_.end();
  telemetry::count(name_ + ".words", delta.words);
  telemetry::count(name_ + ".msgs", delta.msgs);
  telemetry::count(name_ + ".seconds", delta.total_seconds());
  if (shell_.stats_ != nullptr) {
    (sweep_ == Sweep::kForward ? shell_.stats_->forward_cost
                               : shell_.stats_->backward_cost) += delta;
  }
}

}  // namespace mfbc::core
