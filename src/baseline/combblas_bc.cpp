#include "baseline/combblas_bc.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "algebra/tropical.hpp"
#include "core/batch_driver.hpp"
#include "dist/batch_state.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::baseline {

namespace {

using algebra::SumMonoid;
using algebra::TropicalMinMonoid;
using dist::DistMatrix;
using dist::Layout;
using dist::Range;
using graph::vid_t;
using sparse::Coo;
using sparse::Csr;
using sparse::nnz_t;

template <typename T>
using Keep = dist::detail::KeepFirst<T>;

/// Count-semiring bridge: extending a path count along an (unweighted) edge
/// keeps the count; the SumMonoid ⊕ then adds counts over predecessors.
struct CountAction {
  double operator()(double count, Weight) const { return count; }
};

/// Dependency-propagation bridge for the backward sweep.
struct DepAction {
  double operator()(double w, Weight) const { return w; }
};

/// The per-block dense fields of the baseline's BFS state.
struct BfsFields {
  std::vector<vid_t> level;   ///< -1 = unvisited
  std::vector<double> sigma;
  std::vector<double> delta;

  void resize(std::size_t sz) {
    level.assign(sz, -1);
    sigma.assign(sz, 0.0);
    delta.assign(sz, 0.0);
  }
};

}  // namespace

/// Per-batch dense BFS state on the (square) state grid.
struct CombBlasBc::Batch : dist::BatchState<BfsFields> {
  using dist::BatchState<BfsFields>::BatchState;
};

CombBlasBc::CombBlasBc(sim::Sim& sim, const graph::Graph& g)
    : CombBlasBc(sim, g, dist::Partition{}) {}

CombBlasBc::CombBlasBc(sim::Sim& sim, const graph::Graph& g,
                       dist::Partition part)
    : sim_(sim),
      part_(std::move(part)),
      gp_(part_.identity() ? graph::Graph{} : part_.apply(g)),
      g_(part_.identity() ? g : gp_) {
  MFBC_CHECK(!g.weighted(),
             "CombBLAS-style BC supports unweighted graphs only");
  const int p = sim.nranks();
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
  MFBC_CHECK(s * s == p, "CombBLAS-style BC requires a square processor grid");
  plan_ = dist::Plan{1, s, s, dist::Variant1D::kA, dist::Variant2D::kAB};
  // Stamp the distribution on the fixed plan so plan names, the tuner's
  // hysteresis seed, and cache entries all carry the partition dimension.
  if (!part_.identity()) plan_.dist = dist::Dist::kBalanced;
  base_ = Layout{0, s, s, Range{0, g_.n()}, Range{0, g_.n()}, false};
  adj_ = DistMatrix<Weight>::scatter<TropicalMinMonoid>(sim, g_.adj(), base_);
  adj_t_ = DistMatrix<Weight>::scatter<TropicalMinMonoid>(
      sim, sparse::transpose(g_.adj()), base_);
  // Long-lived adjacency residency, for memory-pressure-aware planning
  // (mirrors DistMfbc; the tuner subtracts the high-water mark below), plus
  // the per-rank resident-nnz balance gauge.
  std::vector<double> rank_nnz(static_cast<std::size_t>(p), 0.0);
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < s; ++j) {
      const double entries = static_cast<double>(adj_.block(i, j).nnz()) +
                             static_cast<double>(adj_t_.block(i, j).nnz());
      sim.note_resident(base_.rank_at(i, j),
                        entries * sim::sparse_entry_words<Weight>());
      rank_nnz[static_cast<std::size_t>(base_.rank_at(i, j))] += entries;
    }
  }
  imb_nnz_ = dist::max_mean_imbalance(rank_nnz);
  telemetry::gauge("dist.imbalance.nnz", imb_nnz_);
}

dist::Plan CombBlasBc::plan_for(const CombBlasOptions& opts,
                                const char* stream, const char* monoid,
                                double frontier_nnz, double b_nnz) const {
  if (opts.tuner == nullptr) return plan_;
  const auto stats = dist::MultiplyStats::estimated(
      /*m=*/opts.batch_size, /*k=*/g_.n(), /*n=*/g_.n(), frontier_nnz, b_nnz,
      /*words_a=*/sim::sparse_entry_words<double>(),
      /*words_b=*/sim::sparse_entry_words<Weight>(),
      /*words_c=*/sim::sparse_entry_words<double>());
  tune::PlanRequest req;
  req.stream = stream;
  req.monoid = monoid;
  req.ranks = sim_.nranks();
  req.stats = stats;
  req.machine = sim_.model();
  req.opts = opts.tune;
  req.opts.partition =
      part_.identity() ? dist::Dist::kBlock : dist::Dist::kBalanced;
  // Memory-pressure re-planning (as in DistMfbc::plan_for): plan inside the
  // budget the resident adjacency copies leave over. Under heterogeneous
  // profiles the binding budget is the smallest rank's.
  const double resident = sim_.resident_highwater_words();
  if (resident > 0) {
    const double mem_words = sim_.model().min_memory_words();
    const double mem_floor = mem_words * 0.01;
    req.opts.memory_words_limit =
        std::min(req.opts.memory_words_limit,
                 std::max(mem_words - resident, mem_floor));
  }
  // The CombBLAS constraint (§7.1): candidates stay square-grid 2D SUMMA,
  // whatever the caller's options say — this engine cannot run other shapes.
  req.opts.allow_1d = false;
  req.opts.allow_3d = false;
  req.opts.square_2d_only = true;
  // Topology epoch: a grid shrink retires plans cached for the old
  // placement (tune/plan_cache.hpp).
  req.topology = sim_.faults() != nullptr ? sim_.faults()->shrinks() : 0;
  // The fixed SUMMA plan is what runs without a tuner; seeding it as the
  // stream's current plan makes it the hysteresis reference, so a tuned run
  // only ever departs from the untuned behavior for a modelled win that
  // clears the modelled re-homing cost.
  opts.tuner->seed_stream(stream, plan_);
  return opts.tuner->plan(req);
}

std::vector<double> CombBlasBc::run(const CombBlasOptions& opts,
                                    CombBlasStats* stats) {
  // With a tuner attached, install its observer for the whole run, so every
  // distributed multiply records (plan, prediction, measured cost) — the
  // feedback the per-multiply re-planning runs on.
  std::optional<tune::ScopedObserver> observe;
  if (opts.tuner != nullptr) observe.emplace(&opts.tuner->observer());

  core::BatchHooks hooks;
  hooks.run_batch = [&](const std::vector<vid_t>& batch_sources,
                        std::vector<double>& lambda,
                        std::span<const int> all_ranks, int batch_index) {
    run_batch(opts, batch_sources, lambda, stats, all_ranks, batch_index);
  };
  hooks.lost_block_words = [&](int i, int j) {
    return (static_cast<double>(adj_.block(i, j).nnz()) +
            static_cast<double>(adj_t_.block(i, j).nnz())) *
           sim::sparse_entry_words<Weight>();
  };
  int seen_shrinks = 0;
  hooks.invalidate_caches = [&, seen_shrinks]() mutable {
    adj_cache_.clear();
    adj_t_cache_.clear();
    // A grid shrink obsoletes the tuner's per-stream hysteresis state
    // (see DistMfbc::run): reset it so the next plan is a fresh decision.
    const sim::FaultInjector* fi = sim_.faults();
    if (fi != nullptr && fi->shrinks() > seen_shrinks) {
      seen_shrinks = fi->shrinks();
      if (opts.tuner != nullptr) opts.tuner->reset_stream_state();
    }
  };
  run_ops_ = dist::DistSpgemmStats{};
  // Resolve-then-map keeps batch composition and λ accumulation order pinned
  // to the caller's source order, whatever the labels are.
  const std::vector<vid_t> sources =
      part_.map_sources(core::resolve_sources(g_.n(), opts.sources));
  core::BatchDriverStats driver_stats;
  core::BatchRunOptions run_opts;
  run_opts.checkpoint_dir = opts.checkpoint_dir;
  run_opts.resume = opts.resume;
  if (opts.on_batch) {
    if (part_.identity()) {
      run_opts.on_batch = opts.on_batch;
    } else {
      // Observers see deltas in the caller's original ids, exactly like the
      // returned λ; resume-replayed empty deltas pass through unpermuted.
      run_opts.on_batch = [&opts, this](int batch_index,
                                        std::size_t batch_source_count,
                                        const std::vector<double>& delta) {
        if (delta.empty()) {
          return opts.on_batch(batch_index, batch_source_count, delta);
        }
        return opts.on_batch(batch_index, batch_source_count,
                             part_.unpermute(delta));
      };
    }
  }
  auto bc = core::run_batched_bc(sim_, base_, g_.n(), sources,
                                 opts.batch_size, hooks, &driver_stats,
                                 run_opts);
  const double imb_ops = run_ops_.ops_imbalance(sim_.nranks());
  telemetry::gauge("dist.imbalance.ops", imb_ops);
  telemetry::gauge("dist.imbalance.nnz", imb_nnz_);
  if (stats != nullptr) {
    stats->batch_retries += driver_stats.batch_retries;
    stats->resumed_batches += driver_stats.resumed_batches;
    stats->spare_rehomes += driver_stats.spare_rehomes;
    stats->grid_shrinks += driver_stats.grid_shrinks;
    stats->imbalance_nnz = imb_nnz_;
    stats->imbalance_ops = imb_ops;
  }
  return part_.unpermute(bc);
}

void CombBlasBc::run_batch(const CombBlasOptions& opts,
                           const std::vector<vid_t>& batch_sources,
                           std::vector<double>& lambda, CombBlasStats* stats,
                           std::span<const int> all_ranks, int batch_index) {
  const vid_t n = g_.n();
  const int p = sim_.nranks();

  auto note_plan = [&](const dist::Plan& plan) {
    if (stats == nullptr) return;
    const std::string name = plan.to_string();
    if (std::find(stats->plans_used.begin(), stats->plans_used.end(), name) ==
        stats->plans_used.end()) {
      stats->plans_used.push_back(name);
    }
  };

  Batch batch(batch_sources, n, p);
  const Layout& sl = batch.layout();
  const auto nblocks = static_cast<std::size_t>(sl.nranks());

  telemetry::Span batch_span("baseline.batch");
  batch_span.attr("index", static_cast<std::int64_t>(batch_index));
  batch_span.attr("nb", static_cast<std::int64_t>(batch.nb()));

  const sim::Cost before_forward = sim_.ledger().critical();
  telemetry::Span forward_span("baseline.forward");

  // ---- forward BFS with path counting ----
  DistMatrix<double> frontier;
  {
    auto bins = dist::empty_bins<double>(sl, n);
    for (vid_t s = 0; s < batch.nb(); ++s) {
      const vid_t src = batch.source(s);
      auto [bi, bj] = sl.owner(s, src);
      bins[static_cast<std::size_t>(bi * sl.pc + bj)].push(
          s - sl.block_rows(bi, bj).lo, src, 1.0);
      auto& blk = batch.at(bi, bj);
      blk.level[blk.at(s, src)] = 0;
      blk.sigma[blk.at(s, src)] = 1.0;
    }
    sim_.charge_alltoall(all_ranks,
                         static_cast<double>(batch.nb()) *
                             sim::sparse_entry_words<double>());
    frontier = dist::from_blocks<Keep<double>>(batch.nb(), n, sl, std::move(bins));
  }

  vid_t level = 0;
  vid_t max_level = 0;
  while (frontier.nnz() > 0) {
    ++level;
    telemetry::count("baseline.forward.iterations");
    telemetry::observe("baseline.forward.frontier_nnz",
                       static_cast<double>(frontier.nnz()));
    const dist::Plan plan =
        plan_for(opts, "baseline.forward", "count",
                 static_cast<double>(frontier.nnz()),
                 static_cast<double>(adj_.nnz()));
    note_plan(plan);
    dist::DistSpgemmStats dst;
    DistMatrix<double> reached = dist::spgemm<SumMonoid>(
        sim_, plan, frontier, adj_, CountAction{}, sl, &dst, &adj_cache_);
    run_ops_.merge(dst);
    if (stats != nullptr) {
      stats->forward.frontier_nnz.push_back(frontier.nnz());
      stats->forward.product_nnz.push_back(reached.nnz());
      stats->forward.total_ops += static_cast<nnz_t>(dst.total_ops);
    }
    // Visited-mask filtering: each (i,j) task touches only its own batch
    // block and bin; compute charges depend only on the product block sizes,
    // so they are issued serially after the barrier in the (i,j) order.
    auto bins = dist::empty_bins<double>(sl, n);
    support::parallel_for_replay(
        nblocks,
        [&](std::size_t t) {
          const auto [i, j] = sl.grid_pos(t);
          auto& blk = batch.at(i, j);
          const auto& rb = reached.block(i, j);
          auto& bin = bins[t];
          for (vid_t lr = 0; lr < rb.nrows(); ++lr) {
            const vid_t s = blk.rows.lo + lr;
            auto cols = rb.row_cols(lr);
            auto vals = rb.row_vals(lr);
            for (std::size_t x = 0; x < cols.size(); ++x) {
              const std::size_t at = blk.at(s, cols[x]);
              if (blk.level[at] != -1) continue;  // visited mask
              blk.level[at] = level;
              blk.sigma[at] = vals[x];
              bin.push(lr, cols[x], vals[x]);
            }
          }
        },
        [&](std::size_t t) {
          const auto [i, j] = sl.grid_pos(t);
          sim_.charge_compute(sl.rank_at(i, j),
                              static_cast<double>(reached.block(i, j).nnz()));
        });
    frontier = dist::from_blocks<Keep<double>>(batch.nb(), n, sl, std::move(bins));
    if (frontier.nnz() > 0) max_level = level;
    sim_.charge_allreduce(all_ranks, 1.0);
  }

  const sim::Cost after_forward = sim_.ledger().critical();
  const sim::Cost fwd_delta = after_forward - before_forward;
  if (forward_span.active()) {
    forward_span.attr("crit_words_delta", fwd_delta.words);
    forward_span.attr("crit_msgs_delta", fwd_delta.msgs);
    forward_span.attr("crit_seconds_delta", fwd_delta.total_seconds());
  }
  forward_span.end();
  telemetry::count("baseline.forward.words", fwd_delta.words);
  telemetry::count("baseline.forward.msgs", fwd_delta.msgs);
  telemetry::count("baseline.forward.seconds", fwd_delta.total_seconds());
  if (stats != nullptr) {
    stats->forward_cost += fwd_delta;
  }
  telemetry::Span backward_span("baseline.backward");

  // ---- backward dependency accumulation, level-synchronized ----
  for (vid_t lvl = max_level; lvl >= 1; --lvl) {
    telemetry::count("baseline.backward.iterations");
    auto bins = dist::empty_bins<double>(sl, n);
    support::parallel_for_replay(
        nblocks,
        [&](std::size_t t) {
          const auto [i, j] = sl.grid_pos(t);
          auto& blk = batch.at(i, j);
          auto& bin = bins[t];
          for (vid_t s = blk.rows.lo; s < blk.rows.hi; ++s) {
            for (vid_t v = blk.cols.lo; v < blk.cols.hi; ++v) {
              const std::size_t at = blk.at(s, v);
              if (blk.level[at] == lvl) {
                bin.push(s - blk.rows.lo, v,
                         (1.0 + blk.delta[at]) / blk.sigma[at]);
              }
            }
          }
        },
        [&](std::size_t t) {
          const auto [i, j] = sl.grid_pos(t);
          const auto& blk = batch.at(i, j);
          sim_.charge_compute(sl.rank_at(i, j),
                              static_cast<double>(blk.rows.size()) *
                                  static_cast<double>(blk.cols.size()));
        });
    DistMatrix<double> w = dist::from_blocks<Keep<double>>(batch.nb(), n, sl, std::move(bins));
    telemetry::observe("baseline.backward.frontier_nnz",
                       static_cast<double>(w.nnz()));
    const dist::Plan plan =
        plan_for(opts, "baseline.backward", "dep",
                 static_cast<double>(w.nnz()),
                 static_cast<double>(adj_t_.nnz()));
    note_plan(plan);
    dist::DistSpgemmStats dst;
    DistMatrix<double> u = dist::spgemm<SumMonoid>(
        sim_, plan, w, adj_t_, DepAction{}, sl, &dst, &adj_t_cache_);
    run_ops_.merge(dst);
    if (stats != nullptr) {
      stats->backward.frontier_nnz.push_back(w.nnz());
      stats->backward.product_nnz.push_back(u.nnz());
      stats->backward.total_ops += static_cast<nnz_t>(dst.total_ops);
    }
    support::parallel_for_replay(
        nblocks,
        [&](std::size_t t) {
          const auto [i, j] = sl.grid_pos(t);
          auto& blk = batch.at(i, j);
          const auto& ub = u.block(i, j);
          for (vid_t lr = 0; lr < ub.nrows(); ++lr) {
            const vid_t s = blk.rows.lo + lr;
            auto cols = ub.row_cols(lr);
            auto vals = ub.row_vals(lr);
            for (std::size_t x = 0; x < cols.size(); ++x) {
              const std::size_t at = blk.at(s, cols[x]);
              if (blk.level[at] == lvl - 1) {
                blk.delta[at] += vals[x] * blk.sigma[at];
              }
            }
          }
        },
        [&](std::size_t t) {
          const auto [i, j] = sl.grid_pos(t);
          sim_.charge_compute(sl.rank_at(i, j),
                              static_cast<double>(u.block(i, j).nnz()));
        });
  }

  // Accumulate BC (sources excluded, as in Brandes). Grid columns own
  // disjoint λ ranges, so the parallel axis is j only; the inner i loop
  // stays serial and ascending so each λ(v) accumulates its contributions
  // in the serial floating-point order.
  support::parallel_for(static_cast<std::size_t>(sl.pc), [&](std::size_t jt) {
    const int j = static_cast<int>(jt);
    for (int i = 0; i < sl.pr; ++i) {
      auto& blk = batch.at(i, j);
      for (vid_t s = blk.rows.lo; s < blk.rows.hi; ++s) {
        const vid_t src = batch.source(s);
        for (vid_t v = blk.cols.lo; v < blk.cols.hi; ++v) {
          if (v == src) continue;
          lambda[static_cast<std::size_t>(v)] += blk.delta[blk.at(s, v)];
        }
      }
    }
  });
  for (int i = 0; i < sl.pr; ++i) {
    for (int j = 0; j < sl.pc; ++j) {
      auto& blk = batch.at(i, j);
      sim_.charge_compute(sl.rank_at(i, j),
                          static_cast<double>(blk.rows.size()) *
                              static_cast<double>(blk.cols.size()));
    }
  }
  const sim::Cost bwd_delta = sim_.ledger().critical() - after_forward;
  if (backward_span.active()) {
    backward_span.attr("crit_words_delta", bwd_delta.words);
    backward_span.attr("crit_msgs_delta", bwd_delta.msgs);
    backward_span.attr("crit_seconds_delta", bwd_delta.total_seconds());
  }
  backward_span.end();
  telemetry::count("baseline.backward.words", bwd_delta.words);
  telemetry::count("baseline.backward.msgs", bwd_delta.msgs);
  telemetry::count("baseline.backward.seconds", bwd_delta.total_seconds());
  telemetry::count("baseline.batches");
  if (stats != nullptr) {
    stats->backward_cost += bwd_delta;
    ++stats->batches;
  }
}

}  // namespace mfbc::baseline
