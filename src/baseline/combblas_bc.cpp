#include "baseline/combblas_bc.hpp"

#include <cmath>

#include "algebra/tropical.hpp"
#include "dist/batch_state.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"

namespace mfbc::baseline {

namespace {

using algebra::SumMonoid;
using dist::DistMatrix;
using dist::Layout;
using graph::vid_t;
using sparse::KeepFirst;

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

/// The fixed 2D SUMMA plan on the √p×√p grid. Throws for what CombBLAS
/// cannot run: weighted graphs and non-square rank counts.
dist::Plan summa_plan(const sim::Sim& sim, const graph::Graph& g,
                      const dist::Partition& part) {
  MFBC_CHECK(!g.weighted(),
             "CombBLAS-style BC supports unweighted graphs only");
  const int p = sim.nranks();
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
  MFBC_CHECK(s * s == p, "CombBLAS-style BC requires a square processor grid");
  dist::Plan plan{1, s, s, dist::Variant1D::kA, dist::Variant2D::kAB};
  // Stamp the distribution on the fixed plan so plan names, the tuner's
  // hysteresis seed, and cache entries all carry the partition dimension.
  if (!part.identity()) plan.dist = dist::Dist::kBalanced;
  return plan;
}

}  // namespace

/// Per-batch dense BFS state on the (square) state grid.
struct CombBlasBc::Batch : dist::BatchState<BfsFields> {
  using dist::BatchState<BfsFields>::BatchState;
};

CombBlasBc::CombBlasBc(sim::Sim& sim, const graph::Graph& g)
    : CombBlasBc(sim, g, dist::Partition{}) {}

CombBlasBc::CombBlasBc(sim::Sim& sim, const graph::Graph& g,
                       dist::Partition part)
    : plan_(summa_plan(sim, g, part)),
      shell_(sim, g, std::move(part), "baseline") {}

std::vector<double> CombBlasBc::run(const CombBlasOptions& opts,
                                    CombBlasStats* stats) {
  core::ShellRun spec{.batch_size = opts.batch_size,
                      .sources = opts.sources,
                      .checkpoint_dir = opts.checkpoint_dir,
                      .resume = opts.resume,
                      .on_batch = opts.on_batch,
                      .tuner = opts.tuner,
                      .tune = opts.tune,
                      .frontier_words = sim::sparse_entry_words<double>()};
  // The fixed SUMMA plan is what runs without a tuner. With one, it is each
  // stream's hysteresis reference, so a tuned run only ever departs from
  // the untuned behavior for a modelled win that clears the modelled
  // re-homing cost.
  if (opts.tuner == nullptr) {
    spec.fixed_plan = plan_;
  } else {
    spec.seed_plan = plan_;
  }
  // The CombBLAS constraint (§7.1): candidates stay square-grid 2D SUMMA,
  // whatever the caller's options say — this engine cannot run other shapes.
  spec.tune.allow_1d = false;
  spec.tune.allow_3d = false;
  spec.tune.square_2d_only = true;
  return shell_.run(spec, stats,
                    [this](const std::vector<vid_t>& batch_sources,
                           std::vector<double>& lambda,
                           std::span<const int> all_ranks) {
                      run_batch(batch_sources, lambda, all_ranks);
                    });
}

void CombBlasBc::run_batch(const std::vector<vid_t>& batch_sources,
                           std::vector<double>& lambda,
                           std::span<const int> all_ranks) {
  using core::Sweep;
  sim::Sim& sim = shell_.sim();
  const vid_t n = shell_.graph().n();

  Batch batch(batch_sources, n, sim.nranks());
  const Layout& sl = batch.layout();
  const auto nblocks = static_cast<std::size_t>(sl.nranks());

  core::DistEngine::Phase forward = shell_.phase(Sweep::kForward);

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
    sim.charge_alltoall(all_ranks,
                        static_cast<double>(batch.nb()) *
                            sim::sparse_entry_words<double>());
    frontier = dist::from_blocks<KeepFirst<double>>(batch.nb(), n, sl,
                                                    std::move(bins));
  }

  vid_t level = 0;
  vid_t max_level = 0;
  while (frontier.nnz() > 0) {
    ++level;
    telemetry::count("baseline.forward.iterations");
    telemetry::observe("baseline.forward.frontier_nnz",
                       static_cast<double>(frontier.nnz()));
    DistMatrix<double> reached = shell_.multiply<SumMonoid>(
        Sweep::kForward,
        {"baseline.forward", "count", sim::sparse_entry_words<double>()},
        std::move(frontier), CountAction{}, sl);
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
          sim.charge_compute(sl.rank_at(i, j),
                             static_cast<double>(reached.block(i, j).nnz()));
        });
    frontier = dist::from_blocks<KeepFirst<double>>(batch.nb(), n, sl,
                                                    std::move(bins));
    if (frontier.nnz() > 0) max_level = level;
    sim.charge_allreduce(all_ranks, 1.0);
  }
  forward.book();

  core::DistEngine::Phase backward = shell_.phase(Sweep::kBackward);

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
          sim.charge_compute(sl.rank_at(i, j),
                             static_cast<double>(blk.rows.size()) *
                                 static_cast<double>(blk.cols.size()));
        });
    DistMatrix<double> w = dist::from_blocks<KeepFirst<double>>(
        batch.nb(), n, sl, std::move(bins));
    telemetry::observe("baseline.backward.frontier_nnz",
                       static_cast<double>(w.nnz()));
    DistMatrix<double> u = shell_.multiply<SumMonoid>(
        Sweep::kBackward,
        {"baseline.backward", "dep", sim::sparse_entry_words<double>()},
        std::move(w), DepAction{}, sl);
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
          sim.charge_compute(sl.rank_at(i, j),
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
      sim.charge_compute(sl.rank_at(i, j),
                         static_cast<double>(blk.rows.size()) *
                             static_cast<double>(blk.cols.size()));
    }
  }
  backward.book();
}

}  // namespace mfbc::baseline
