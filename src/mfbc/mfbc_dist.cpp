#include "mfbc/mfbc_dist.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/batch_driver.hpp"
#include "dist/batch_state.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::core {

namespace {

using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::kInfWeight;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::TropicalMinMonoid;
using dist::DistMatrix;
using dist::Layout;
using dist::Range;
using sparse::Coo;
using sparse::Csr;

template <typename T>
using Keep = dist::detail::KeepFirst<T>;

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
    : sim_(sim),
      part_(std::move(part)),
      // Non-identity partitions relabel the graph once at ingest; the
      // engine computes entirely in permuted ids and run() inverts the
      // permutation on the centrality output. Identity partitions keep the
      // caller's graph by reference (no copy).
      gp_(part_.identity() ? graph::Graph{} : part_.apply(g)),
      g_(part_.identity() ? g : gp_) {
  auto [pr, pc] = dist::near_square_grid(sim.nranks());
  base_ = Layout{0, pr, pc, Range{0, g_.n()}, Range{0, g_.n()}, false};
  adj_ = DistMatrix<Weight>::scatter<TropicalMinMonoid>(sim, g_.adj(), base_);
  adj_t_ = DistMatrix<Weight>::scatter<TropicalMinMonoid>(
      sim, sparse::transpose(g_.adj()), base_);
  // The adjacency and its transpose stay resident for the whole run; record
  // them with the simulated allocator so plan selection sees the memory that
  // is genuinely spoken for (plan_for subtracts the high-water mark).
  std::vector<double> rank_nnz(static_cast<std::size_t>(sim.nranks()), 0.0);
  for (int i = 0; i < pr; ++i) {
    for (int j = 0; j < pc; ++j) {
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

dist::Plan DistMfbc::plan_for(const DistMfbcOptions& opts, const char* stream,
                              const char* monoid, double frontier_nnz,
                              double b_nnz, double out_words) const {
  if (opts.plan_mode == PlanMode::kFixedCa) {
    return ca_plan(sim_.nranks(), opts.replication_c);
  }
  // Version-stable planning (docs/serving.md): quantize the stationary
  // operand's nnz to its power-of-two band representative so plan choice —
  // and with it the summation grid of every unaffected batch — cannot drift
  // with small mutations. Crossing a band boundary is the serving layer's
  // cue to fall back to a full recompute.
  if (opts.stable_plans && b_nnz > 0) {
    b_nnz = std::exp2(std::floor(std::log2(b_nnz)));
  }
  auto stats = dist::MultiplyStats::estimated(
      /*m=*/opts.batch_size, /*k=*/g_.n(), /*n=*/g_.n(), frontier_nnz, b_nnz,
      /*words_a=*/sim::sparse_entry_words<Multpath>(),
      /*words_b=*/sim::sparse_entry_words<Weight>(), out_words);
  // Memory-pressure re-planning: the per-rank budget the tuner may spend is
  // what the machine has minus the high-water mark of long-lived residents
  // (the adjacency copies noted at construction). The floor keeps a machine
  // configured with a tiny memory_words from pruning every candidate.
  dist::TuneOptions topts = opts.tune;
  // The engine knows its data's actual placement: the distribution axis of
  // every enumerated plan matches the partition this instance was built on.
  topts.partition =
      part_.identity() ? dist::Dist::kBlock : dist::Dist::kBalanced;
  // Under stable_plans the resident high-water mark — which tracks the
  // exact adjacency nnz — must not steer plan selection either; the
  // serving layer sizes its machines so the untightened budget is safe.
  const double resident =
      opts.stable_plans ? 0.0 : sim_.resident_highwater_words();
  if (resident > 0) {
    // Heterogeneous fleets budget against the tightest rank's memory
    // (min_memory_words == memory_words bitwise when homogeneous).
    const double machine_words = sim_.model().min_memory_words();
    const double floor = machine_words * 0.01;
    const double avail = std::max(machine_words - resident, floor);
    topts.memory_words_limit = std::min(topts.memory_words_limit, avail);
  }
  if (opts.tuner != nullptr) {
    tune::PlanRequest req;
    req.stream = stream;
    req.monoid = monoid;
    req.ranks = sim_.nranks();
    req.stats = stats;
    req.machine = sim_.model();
    req.opts = topts;
    // A grid shrink is a topology-change event: plans cached for the old
    // placement stop being addressable under the bumped epoch.
    req.topology =
        sim_.faults() != nullptr ? sim_.faults()->shrinks() : 0;
    // The graph version keys the plan cache the same way the topology
    // epoch does: a mutated adjacency retires the old version's plans.
    req.graph_sig = opts.graph_signature;
    return opts.tuner->plan(req);
  }
  return dist::autotune(sim_.nranks(), stats, sim_.model(), topts);
}

std::vector<double> DistMfbc::run(const DistMfbcOptions& opts,
                                  DistMfbcStats* stats) {
  // With a tuner attached, install its observer for the whole run: every
  // distributed multiply below records (plan, prediction, measured cost),
  // which is what the per-iteration re-planning feeds on.
  std::optional<tune::ScopedObserver> observe;
  if (opts.tuner != nullptr) observe.emplace(&opts.tuner->observer());

  // Batching, λ-checkpoint/rollback, the retry loop, and the final reduce
  // are the shared driver's job (core/batch_driver.hpp); this engine only
  // supplies the per-batch algorithm and the recovery sizing hooks.
  BatchHooks hooks;
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
      if (opts.tuner != nullptr) opts.tuner->reset_stream_state();
    }
  };
  // Sources arrive in the caller's original vertex ids; validate and map
  // them into partition order *positionally* (the batch composition and λ
  // accumulation order must not depend on the labels) before the driver
  // slices batches. λ comes back in permuted ids and is inverted below.
  run_ops_ = dist::DistSpgemmStats{};
  const std::vector<vid_t> sources =
      part_.map_sources(resolve_sources(g_.n(), opts.sources));
  BatchDriverStats driver_stats;
  BatchRunOptions run_opts;
  run_opts.checkpoint_dir = opts.checkpoint_dir;
  run_opts.resume = opts.resume;
  run_opts.graph_sig = opts.graph_signature;
  run_opts.batch_deltas = opts.batch_deltas;
  if (opts.on_batch) {
    if (part_.identity()) {
      run_opts.on_batch = opts.on_batch;
    } else {
      // The driver observes deltas in permuted ids; the caller's observer
      // must see original ids, exactly like the returned λ. Resume-replayed
      // batches carry an empty delta — pass it through unpermuted.
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
  auto lambda = run_batched_bc(sim_, base_, g_.n(), sources,
                               opts.batch_size, hooks, &driver_stats,
                               run_opts);
  if (opts.batch_deltas != nullptr && !part_.identity()) {
    // Deltas come back in permuted ids like λ; hand them to the caller in
    // original ids so the splice contract composes with any partition.
    for (auto& delta : *opts.batch_deltas) {
      if (!delta.empty()) delta = part_.unpermute(delta);
    }
  }
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
  return part_.unpermute(lambda);
}

void DistMfbc::run_batch(const DistMfbcOptions& opts,
                         const std::vector<vid_t>& batch_sources,
                         std::vector<double>& lambda, DistMfbcStats* stats,
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

  {
    Batch batch(batch_sources, n, p);
    const Layout& sl = batch.layout();
    const auto nblocks = static_cast<std::size_t>(sl.nranks());

    telemetry::Span batch_span("mfbc.batch");
    batch_span.attr("index", static_cast<std::int64_t>(batch_index));
    batch_span.attr("nb", static_cast<std::int64_t>(batch.nb()));

    const sim::Cost before_forward = sim_.ledger().critical();
    telemetry::Span forward_span("mfbc.forward");

    // ---- MFBF (Algorithm 1) ----
    // Initial frontier: row s of T is row sources[s] of A. The entries move
    // from the adjacency owners to the state-grid owners: one all-to-all.
    DistMatrix<Multpath> frontier;
    {
      auto bins = dist::empty_bins<Multpath>(sl, n);
      double max_words = 0;
      for (vid_t s = 0; s < batch.nb(); ++s) {
        const vid_t src = batch.source(s);
        auto cols = g_.adj().row_cols(src);
        auto vals = g_.adj().row_vals(src);
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
      sim_.charge_alltoall(all_ranks, max_words);
      frontier = dist::from_blocks<Keep<Multpath>>(batch.nb(), n, sl, std::move(bins));
    }

    while (frontier.nnz() > 0) {
      telemetry::count("mfbc.forward.iterations");
      telemetry::observe("mfbc.forward.frontier_nnz",
                         static_cast<double>(frontier.nnz()));
      const dist::Plan plan =
          plan_for(opts, "forward", "multpath",
                   static_cast<double>(frontier.nnz()),
                   static_cast<double>(adj_.nnz()),
                   sim::sparse_entry_words<Multpath>());
      note_plan(plan);
      dist::DistSpgemmStats dst;
      DistMatrix<Multpath> product = dist::spgemm<MultpathMonoid>(
          sim_, plan, frontier, adj_, BellmanFordAction{}, sl, &dst,
          &adj_cache_);
      run_ops_.merge(dst);
      if (stats != nullptr) {
        stats->forward.frontier_nnz.push_back(frontier.nnz());
        stats->forward.product_nnz.push_back(product.nnz());
        stats->forward.total_ops += static_cast<nnz_t>(dst.total_ops);
      }
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
            sim_.charge_compute(sl.rank_at(i, j),
                                static_cast<double>(product.block(i, j).nnz()));
          });
      frontier = dist::from_blocks<Keep<Multpath>>(batch.nb(), n, sl, std::move(bins));
      // Line 3's termination test is a global predicate: one allreduce.
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
    telemetry::count("mfbc.forward.words", fwd_delta.words);
    telemetry::count("mfbc.forward.msgs", fwd_delta.msgs);
    telemetry::count("mfbc.forward.seconds", fwd_delta.total_seconds());
    if (stats != nullptr) {
      stats->forward_cost += fwd_delta;
    }
    telemetry::Span backward_span("mfbc.backward");

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
            sim_.charge_compute(sl.rank_at(i, j),
                                static_cast<double>(blk.rows.size()) *
                                    static_cast<double>(blk.cols.size()));
          });
      DistMatrix<Centpath> z0 =
          dist::from_blocks<Keep<Centpath>>(batch.nb(), n, sl, std::move(bins));
      const dist::Plan plan =
          plan_for(opts, "backward.count", "centpath",
                   static_cast<double>(z0.nnz()),
                   static_cast<double>(adj_t_.nnz()),
                   sim::sparse_entry_words<Centpath>());
      note_plan(plan);
      dist::DistSpgemmStats dst;
      DistMatrix<Centpath> pred = dist::spgemm<CentpathMonoid>(
          sim_, plan, z0, adj_t_, BrandesAction{}, sl, &dst, &adj_t_cache_);
      run_ops_.merge(dst);
      if (stats != nullptr) {
        stats->backward.total_ops += static_cast<nnz_t>(dst.total_ops);
      }
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
            sim_.charge_compute(sl.rank_at(i, j),
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
      cfrontier = dist::from_blocks<Keep<Centpath>>(batch.nb(), n, sl, std::move(bins));
    }

    // Lines 5–12: back-propagation loop.
    while (cfrontier.nnz() > 0) {
      telemetry::count("mfbc.backward.iterations");
      telemetry::observe("mfbc.backward.frontier_nnz",
                         static_cast<double>(cfrontier.nnz()));
      const dist::Plan plan =
          plan_for(opts, "backward", "centpath",
                   static_cast<double>(cfrontier.nnz()),
                   static_cast<double>(adj_t_.nnz()),
                   sim::sparse_entry_words<Centpath>());
      note_plan(plan);
      dist::DistSpgemmStats dst;
      DistMatrix<Centpath> product = dist::spgemm<CentpathMonoid>(
          sim_, plan, cfrontier, adj_t_, BrandesAction{}, sl, &dst,
          &adj_t_cache_);
      run_ops_.merge(dst);
      if (stats != nullptr) {
        stats->backward.frontier_nnz.push_back(cfrontier.nnz());
        stats->backward.product_nnz.push_back(product.nnz());
        stats->backward.total_ops += static_cast<nnz_t>(dst.total_ops);
      }
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
            sim_.charge_compute(sl.rank_at(i, j),
                                static_cast<double>(product.block(i, j).nnz()));
          });
      cfrontier = dist::from_blocks<Keep<Centpath>>(batch.nb(), n, sl, std::move(bins));
      sim_.charge_allreduce(all_ranks, 1.0);
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
    telemetry::count("mfbc.backward.words", bwd_delta.words);
    telemetry::count("mfbc.backward.msgs", bwd_delta.msgs);
    telemetry::count("mfbc.backward.seconds", bwd_delta.total_seconds());
    telemetry::count("mfbc.batches");
    if (stats != nullptr) {
      stats->backward_cost += bwd_delta;
      ++stats->batches;
    }
  }
}

}  // namespace mfbc::core
