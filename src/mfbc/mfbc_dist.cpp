#include "mfbc/mfbc_dist.hpp"

#include <algorithm>
#include <cmath>

#include "dist/batch_state.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"

namespace mfbc::core {

namespace {

using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::kInfWeight;
using algebra::Multpath;
using algebra::MultpathMonoid;
using dist::DistMatrix;
using dist::Layout;
using sparse::KeepFirst;

/// The per-block dense fields of the MFBC batch state: accumulated T
/// (distances, multiplicities), the centrality factors ζ, the Algorithm 2
/// counters, and the done flags.
struct MfbcFields {
  std::vector<Weight> dist;
  std::vector<algebra::Multiplicity> mult;
  std::vector<double> zeta;
  std::vector<double> counter;
  std::vector<unsigned char> done;

  void resize(std::size_t sz) {
    dist.assign(sz, kInfWeight);
    mult.assign(sz, 0.0);
    zeta.assign(sz, 0.0);
    counter.assign(sz, 0.0);
    done.assign(sz, 0);
  }
};

}  // namespace

dist::Plan ca_plan(int p, int c) {
  MFBC_CHECK(c >= 1 && p % c == 0, "replication factor must divide p");
  const int rest = p / c;
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(rest))));
  MFBC_CHECK(s * s == rest, "CA-MFBC requires p/c to be a perfect square");
  dist::Plan plan;
  plan.p1 = c;
  plan.p2 = s;
  plan.p3 = s;
  // Theorem 5.1's grid, translated to frontier-first operand order: the
  // adjacency (our second operand, B) is replicated c-fold by the 1D level
  // and is *stationary* inside each layer's 2D algorithm (variant AC, which
  // communicates the frontier and the output). This is what makes the
  // adjacency movement a one-time cost "amortized over (up to d) sparse
  // matrix multiplications" while per-multiply traffic is the frontier and
  // output at O(nnz/√(cp)).
  plan.v1 = dist::Variant1D::kB;
  plan.v2 = dist::Variant2D::kAC;
  return plan;
}

/// Per-batch dense state tiled on the near-square state grid (shared
/// machinery in dist/batch_state.hpp; fields above).
struct DistMfbc::Batch : dist::BatchState<MfbcFields> {
  using dist::BatchState<MfbcFields>::BatchState;
};

DistMfbc::DistMfbc(sim::Sim& sim, const graph::Graph& g)
    : DistMfbc(sim, g, dist::Partition{}) {}

DistMfbc::DistMfbc(sim::Sim& sim, const graph::Graph& g, dist::Partition part)
    : shell_(sim, g, std::move(part), "mfbc") {}

std::vector<double> DistMfbc::run(const DistMfbcOptions& opts,
                                  DistMfbcStats* stats) {
  ShellRun spec{.batch_size = opts.batch_size,
                .sources = opts.sources,
                .checkpoint_dir = opts.checkpoint_dir,
                .resume = opts.resume,
                .batch_deltas = opts.batch_deltas,
                .on_batch = opts.on_batch,
                .tuner = opts.tuner,
                .tune = opts.tune,
                .stable_plans = opts.stable_plans,
                .plan_cache_sig = opts.graph_signature,
                .frontier_words = sim::sparse_entry_words<Multpath>()};
  if (opts.plan_mode == PlanMode::kFixedCa) {
    spec.fixed_plan = ca_plan(shell_.sim().nranks(), opts.replication_c);
  }
  return shell_.run(spec, stats,
                    [this](const std::vector<vid_t>& batch_sources,
                           std::vector<double>& lambda,
                           std::span<const int> all_ranks) {
                      run_batch(batch_sources, lambda, all_ranks);
                    });
}

void DistMfbc::run_batch(const std::vector<vid_t>& batch_sources,
                         std::vector<double>& lambda,
                         std::span<const int> all_ranks) {
  sim::Sim& sim = shell_.sim();
  const graph::Graph& g = shell_.graph();
  const vid_t n = g.n();

  {
    Batch batch(batch_sources, n, sim.nranks());
    const Layout& sl = batch.layout();
    const auto nblocks = static_cast<std::size_t>(sl.nranks());

    DistEngine::Phase forward = shell_.phase(Sweep::kForward);

    // ---- MFBF (Algorithm 1) ----
    // Initial frontier: row s of T is row sources[s] of A. The entries move
    // from the adjacency owners to the state-grid owners: one all-to-all.
    DistMatrix<Multpath> frontier;
    {
      auto bins = dist::empty_bins<Multpath>(sl, n);
      double max_words = 0;
      for (vid_t s = 0; s < batch.nb(); ++s) {
        const vid_t src = batch.source(s);
        auto cols = g.adj().row_cols(src);
        auto vals = g.adj().row_vals(src);
        for (std::size_t x = 0; x < cols.size(); ++x) {
          auto [bi, bj] = sl.owner(s, cols[x]);
          bins[static_cast<std::size_t>(bi * sl.pc + bj)].push(
              s - sl.block_rows(bi, bj).lo, cols[x],
              Multpath{vals[x], 1.0});
          auto& blk = batch.at(bi, bj);
          const std::size_t at = blk.at(s, cols[x]);
          blk.dist[at] = vals[x];
          blk.mult[at] = 1.0;
        }
      }
      for (const auto& bin : bins) {
        max_words = std::max(max_words,
                             static_cast<double>(bin.nnz()) *
                                 sim::sparse_entry_words<Multpath>());
      }
      sim.charge_alltoall(all_ranks, max_words);
      frontier = dist::from_blocks<KeepFirst<Multpath>>(batch.nb(), n, sl,
                                                        std::move(bins));
    }

    while (frontier.nnz() > 0) {
      telemetry::count("mfbc.forward.iterations");
      telemetry::observe("mfbc.forward.frontier_nnz",
                         static_cast<double>(frontier.nnz()));
      DistMatrix<Multpath> product = shell_.multiply<MultpathMonoid>(
          Sweep::kForward,
          {"forward", "multpath", sim::sparse_entry_words<Multpath>()},
          std::move(frontier), BellmanFordAction{}, sl);
      // Local accumulate-and-filter (lines 5–6): T ⊕= G, next frontier keeps
      // entries whose path information improved or tied with new paths.
      // Each (i,j) task touches only its own batch block and bin; compute
      // charges depend only on the product block sizes, so they are issued
      // serially after the barrier in the serial (i,j) order.
      auto bins = dist::empty_bins<Multpath>(sl, n);
      support::parallel_for_replay(
          nblocks,
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            auto& blk = batch.at(i, j);
            const auto& gb = product.block(i, j);
            auto& bin = bins[t];
            for (vid_t lr = 0; lr < gb.nrows(); ++lr) {
              const vid_t s = blk.rows.lo + lr;
              const vid_t src = batch.source(s);
              auto cols = gb.row_cols(lr);
              auto vals = gb.row_vals(lr);
              for (std::size_t x = 0; x < cols.size(); ++x) {
                const vid_t v = cols[x];
                if (v == src) continue;
                const Multpath& mp = vals[x];
                const std::size_t at = blk.at(s, v);
                if (mp.w < blk.dist[at]) {
                  blk.dist[at] = mp.w;
                  blk.mult[at] = mp.m;
                  bin.push(lr, v, mp);
                } else if (mp.w == blk.dist[at]) {
                  blk.mult[at] += mp.m;
                  bin.push(lr, v, Multpath{mp.w, mp.m});
                }
              }
            }
          },
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            sim.charge_compute(sl.rank_at(i, j),
                               static_cast<double>(product.block(i, j).nnz()));
          });
      frontier = dist::from_blocks<KeepFirst<Multpath>>(batch.nb(), n, sl,
                                                        std::move(bins));
      // Line 3's termination test is a global predicate: one allreduce.
      sim.charge_allreduce(all_ranks, 1.0);
    }
    forward.book();

    DistEngine::Phase backward = shell_.phase(Sweep::kBackward);

    // ---- MFBr (Algorithm 2) ----
    // Lines 1–2: successor counting via Z ⊗ (Z •⟨⊗,g⟩ Aᵀ) with
    // Z(s,v) = (τ(s,v), 0, 1) on every reachable pair.
    {
      auto bins = dist::empty_bins<Centpath>(sl, n);
      support::parallel_for_replay(
          nblocks,
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            auto& blk = batch.at(i, j);
            auto& bin = bins[t];
            for (vid_t s = blk.rows.lo; s < blk.rows.hi; ++s) {
              for (vid_t v = blk.cols.lo; v < blk.cols.hi; ++v) {
                const std::size_t at = blk.at(s, v);
                if (blk.dist[at] == kInfWeight) continue;
                bin.push(s - blk.rows.lo, v, Centpath{blk.dist[at], 0.0, 1.0});
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
      DistMatrix<Centpath> z0 =
          dist::from_blocks<KeepFirst<Centpath>>(batch.nb(), n, sl,
                                                 std::move(bins));
      // Successor counting is not a frontier iteration: it adds only its
      // ops to the backward trace.
      DistMatrix<Centpath> pred = shell_.multiply<CentpathMonoid>(
          Sweep::kBackward,
          {"backward.count", "centpath", sim::sparse_entry_words<Centpath>(),
           /*iteration=*/false},
          std::move(z0), BrandesAction{}, sl);
      support::parallel_for_replay(
          nblocks,
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            auto& blk = batch.at(i, j);
            const auto& pb = pred.block(i, j);
            for (vid_t lr = 0; lr < pb.nrows(); ++lr) {
              const vid_t s = blk.rows.lo + lr;
              auto cols = pb.row_cols(lr);
              auto vals = pb.row_vals(lr);
              for (std::size_t x = 0; x < cols.size(); ++x) {
                const std::size_t at = blk.at(s, cols[x]);
                if (blk.dist[at] != kInfWeight && vals[x].w == blk.dist[at]) {
                  blk.counter[at] = vals[x].c;
                }
              }
            }
          },
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            sim.charge_compute(sl.rank_at(i, j),
                               static_cast<double>(pred.block(i, j).nnz()));
          });
    }

    // Lines 3–4: initial frontier = the shortest-path-tree leaves.
    DistMatrix<Centpath> cfrontier;
    {
      auto bins = dist::empty_bins<Centpath>(sl, n);
      support::parallel_for(
          nblocks,
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            auto& blk = batch.at(i, j);
            auto& bin = bins[t];
            for (vid_t s = blk.rows.lo; s < blk.rows.hi; ++s) {
              const vid_t src = batch.source(s);
              for (vid_t v = blk.cols.lo; v < blk.cols.hi; ++v) {
                const std::size_t at = blk.at(s, v);
                if (v == src) {
                  blk.done[at] = 1;  // the root never joins a frontier
                  continue;
                }
                if (blk.dist[at] == kInfWeight) continue;
                if (blk.counter[at] == 0.0) {
                  blk.done[at] = 1;
                  bin.push(s - blk.rows.lo, v,
                           Centpath{blk.dist[at], 1.0 / blk.mult[at], -1.0});
                }
              }
            }
          });
      cfrontier = dist::from_blocks<KeepFirst<Centpath>>(batch.nb(), n, sl,
                                                         std::move(bins));
    }

    // Lines 5–12: back-propagation loop.
    while (cfrontier.nnz() > 0) {
      telemetry::count("mfbc.backward.iterations");
      telemetry::observe("mfbc.backward.frontier_nnz",
                         static_cast<double>(cfrontier.nnz()));
      DistMatrix<Centpath> product = shell_.multiply<CentpathMonoid>(
          Sweep::kBackward,
          {"backward", "centpath", sim::sparse_entry_words<Centpath>()},
          std::move(cfrontier), BrandesAction{}, sl);
      auto bins = dist::empty_bins<Centpath>(sl, n);
      support::parallel_for_replay(
          nblocks,
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            auto& blk = batch.at(i, j);
            const auto& ub = product.block(i, j);
            auto& bin = bins[t];
            for (vid_t lr = 0; lr < ub.nrows(); ++lr) {
              const vid_t s = blk.rows.lo + lr;
              const vid_t src = batch.source(s);
              auto cols = ub.row_cols(lr);
              auto vals = ub.row_vals(lr);
              for (std::size_t x = 0; x < cols.size(); ++x) {
                const vid_t v = cols[x];
                const Centpath& cp = vals[x];
                const std::size_t at = blk.at(s, v);
                if (blk.dist[at] == kInfWeight || cp.w != blk.dist[at]) continue;
                blk.zeta[at] += cp.p;
                blk.counter[at] += cp.c;
                if (!blk.done[at] && blk.counter[at] == 0.0) {
                  blk.done[at] = 1;
                  if (v != src) {
                    bin.push(lr, v,
                             Centpath{blk.dist[at],
                                      1.0 / blk.mult[at] + blk.zeta[at], -1.0});
                  }
                }
              }
            }
          },
          [&](std::size_t t) {
            const auto [i, j] = sl.grid_pos(t);
            sim.charge_compute(sl.rank_at(i, j),
                               static_cast<double>(product.block(i, j).nnz()));
          });
      cfrontier = dist::from_blocks<KeepFirst<Centpath>>(batch.nb(), n, sl,
                                                         std::move(bins));
      sim.charge_allreduce(all_ranks, 1.0);
    }

    // Line 5 of Algorithm 3: λ(v) += Σ_s ζ(s,v)·σ̄(s,v), local partials.
    // Grid columns own disjoint λ ranges, so the parallel axis is j only;
    // the inner i loop stays serial and ascending so each λ(v) accumulates
    // its contributions in the serial floating-point order.
    support::parallel_for(
        static_cast<std::size_t>(sl.pc), [&](std::size_t jt) {
          const int j = static_cast<int>(jt);
          for (int i = 0; i < sl.pr; ++i) {
            auto& blk = batch.at(i, j);
            for (vid_t s = blk.rows.lo; s < blk.rows.hi; ++s) {
              const vid_t src = batch.source(s);
              for (vid_t v = blk.cols.lo; v < blk.cols.hi; ++v) {
                if (v == src) continue;
                const std::size_t at = blk.at(s, v);
                if (blk.dist[at] == kInfWeight) continue;
                lambda[static_cast<std::size_t>(v)] +=
                    blk.zeta[at] * blk.mult[at];
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
}

}  // namespace mfbc::core
