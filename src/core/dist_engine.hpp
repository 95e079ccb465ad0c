// The engine shell: the scaffolding both distributed BC engines share.
//
// core::DistMfbc and baseline::CombBlasBc differ only on algorithm axes
// (DESIGN.md §2): the BFS primitive, the plan space, weighted graphs.
// Everything around their per-batch algorithm is written once, here:
//   * ingest — partition relabeling, A and then Aᵀ scattered onto the
//     near-square base grid (an undirected graph's Aᵀ reads A's blocks and
//     only its scatter is charged), the resident-words notes,
//     dist.imbalance.nnz;
//   * run() wiring — the tuner observer, the recovery hooks and the
//     durable-checkpoint graph signature for the shared batch driver
//     (core/batch_driver.hpp), source mapping and result unpermuting;
//   * planning plumbing — the §5.2 estimate, the partition axis, the
//     resident-memory budget and the tuner's plan request;
//   * the multiply step — plan, dist::spgemm against A or Aᵀ through its
//     plan-home cache, per-rank ops and the frontier trace;
//   * phase accounting — the batch and phase spans, the critical-path cost
//     of each phase, the per-phase counters, and the
//     `<prefix>.home_cache_bytes` gauge.
// Engines hand their choices in as values (ShellRun, the telemetry
// prefix); nothing here asks which engine is calling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batch_driver.hpp"
#include "dist/partition.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/graph.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sim/comm.hpp"
#include "telemetry/span.hpp"
#include "tune/calibrate.hpp"

namespace mfbc::core {

/// Run statistics of a distributed BC engine (DistMfbcStats and
/// CombBlasStats name this struct).
struct DistBcStats {
  FrontierTrace forward;
  FrontierTrace backward;
  int batches = 0;
  int batch_retries = 0;    ///< batches re-run after a rank failure
  int resumed_batches = 0;  ///< batches skipped by a --resume restart
  int spare_rehomes = 0;    ///< recoveries served from the spare pool
  int grid_shrinks = 0;     ///< recoveries that shrank the physical grid
  std::vector<std::string> plans_used;  ///< distinct plan names, in order seen
  /// Critical-path cost deltas per phase (summed over batches): how much of
  /// the run's W/S/time the forward and backward phases each contributed —
  /// the Table 3 breakdown at phase granularity.
  sim::Cost forward_cost;
  sim::Cost backward_cost;
  /// Max/mean per-rank load factors of the run (docs/partitioning.md):
  /// resident adjacency nonzeros per rank and measured multiply ops per
  /// rank. 1.0 is perfectly balanced; also exported as the
  /// dist.imbalance.{nnz,ops} gauges.
  double imbalance_nnz = 1.0;
  double imbalance_ops = 1.0;
};

/// The two sweeps of a batch. A forward sweep multiplies by A, is traced in
/// DistBcStats::forward and booked in forward_cost; a backward sweep
/// multiplies by Aᵀ, is traced in backward and booked in backward_cost.
enum class Sweep { kForward, kBackward };

/// One run() as the shell sees it: the engine's options, translated into
/// values.
struct ShellRun {
  graph::vid_t batch_size = 64;
  const std::vector<graph::vid_t>& sources;  ///< caller's ids; empty = all
  std::string checkpoint_dir;
  bool resume = false;
  std::vector<std::vector<double>>* batch_deltas = nullptr;
  BatchRunOptions::BatchObserver on_batch;
  /// Observes every multiply of the run; plans through it unless
  /// fixed_plan is set. Not owned.
  tune::Tuner* tuner = nullptr;
  /// Run this plan for every multiply, without planning.
  std::optional<dist::Plan> fixed_plan{};
  /// Anchor each tuner stream's hysteresis at this plan before planning.
  std::optional<dist::Plan> seed_plan{};
  /// The candidate space. The shell sets its partition axis and tightens
  /// memory_words_limit to the resident budget.
  dist::TuneOptions tune;
  /// Version-stable planning (DistMfbcOptions::stable_plans).
  bool stable_plans = false;
  /// Keys the tuner's plan cache (DistMfbcOptions::graph_signature).
  std::uint64_t plan_cache_sig = 0;
  /// Wire words per frontier entry in the §5.2 estimate.
  double frontier_words = 0;
};

/// One multiply of a sweep.
struct Step {
  const char* stream;  ///< the tuner's re-planning stream
  const char* monoid;  ///< the tuner's cache-key operation tag
  double out_words;    ///< wire words per product entry
  /// A frontier iteration traces its frontier and product nnz; any other
  /// multiply adds only its ops to the sweep's trace.
  bool iteration = true;
};

class DistEngine {
 public:
  /// The per-batch algorithm: one forward and one backward sweep over
  /// `batch_sources`, accumulating into `lambda` (BatchHooks::run_batch).
  using BatchFn = std::function<void(
      const std::vector<graph::vid_t>& batch_sources,
      std::vector<double>& lambda, std::span<const int> all_ranks)>;

  /// Relabels g by `part` (identity partitions keep g by reference) and
  /// distributes A and Aᵀ over all of sim's ranks on the near-square base
  /// grid. `prefix` names the engine's spans and counters.
  DistEngine(sim::Sim& sim, const graph::Graph& g, dist::Partition part,
             std::string prefix);
  /// g_ may refer to the shell's own relabeled graph.
  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  /// Run batched BC on the shared driver, calling `batch` once per batch
  /// attempt. Sources and the returned λ are in the caller's original ids.
  std::vector<double> run(const ShellRun& spec, DistBcStats* stats,
                          const BatchFn& batch);

  /// Cost accounting of one sweep: opens the `<prefix>.forward` (or
  /// `.backward`) span and snapshots the ledger's critical path. book()
  /// closes the span with the critical-path delta as attributes and adds
  /// the delta to the span's `.{words,msgs,seconds}` counters and to the
  /// sweep's DistBcStats cost. A phase its batch leaves by sim::FaultError
  /// never reaches book() and books nothing.
  class Phase {
   public:
    void book();

   private:
    friend class DistEngine;
    Phase(DistEngine& shell, Sweep sweep);

    DistEngine& shell_;
    Sweep sweep_;
    std::string name_;
    sim::Cost start_;
    telemetry::Span span_;
  };
  Phase phase(Sweep sweep) { return Phase(*this, sweep); }

  /// Plan `step`, multiply `frontier` by the sweep's operand (A or Aᵀ)
  /// through its plan-home cache, deliver on `out`, and record the plan,
  /// the per-rank ops and the sweep's trace. The multiply consumes the
  /// frontier, freeing it as soon as it is mapped. Called from a BatchFn
  /// only.
  template <algebra::Monoid M, typename TA, typename F>
  dist::DistMatrix<typename M::value_type> multiply(
      Sweep sweep, const Step& step, dist::DistMatrix<TA> frontier, F f,
      const dist::Layout& out) {
    const sparse::nnz_t frontier_nnz = frontier.nnz();
    const dist::Plan plan =
        plan_for(sweep, step, static_cast<double>(frontier_nnz));
    note_plan(plan);
    const bool fwd = sweep == Sweep::kForward;
    dist::DistSpgemmStats dst;
    dist::DistMatrix<typename M::value_type> product = dist::spgemm<M>(
        sim_, plan, std::move(frontier), fwd ? adj_ : adj_t(), f, out, &dst,
        fwd ? &adj_cache_ : &adj_t_cache_);
    run_ops_.merge(dst);
    cache_bytes_ = std::max(cache_bytes_,
                            adj_cache_.bytes() + adj_t_cache_.bytes());
    if (stats_ != nullptr) {
      FrontierTrace& trace = fwd ? stats_->forward : stats_->backward;
      if (step.iteration) {
        trace.frontier_nnz.push_back(frontier_nnz);
        trace.product_nnz.push_back(product.nnz());
      }
      trace.total_ops += static_cast<sparse::nnz_t>(dst.total_ops);
    }
    return product;
  }

  /// The graph the engine computes on (relabeled when partitioned).
  const graph::Graph& graph() const { return g_; }
  sim::Sim& sim() { return sim_; }

 private:
  /// The run's plan for one multiply: the fixed plan, else the tuner's or
  /// the static autotuner's choice for the §5.2 estimate within the
  /// resident-memory budget.
  dist::Plan plan_for(Sweep sweep, const Step& step,
                      double frontier_nnz) const;
  void note_plan(const dist::Plan& plan);
  /// Aᵀ; an undirected graph's adjacency is symmetric, so it is A itself.
  const dist::DistMatrix<graph::Weight>& adj_t() const {
    return g_.directed() ? adj_t_ : adj_;
  }

  sim::Sim& sim_;
  std::string prefix_;
  dist::Partition part_;  ///< vertex ordering (identity for plain block)
  graph::Graph gp_;       ///< the relabeled graph (empty when identity)
  const graph::Graph& g_; ///< the graph the engine computes on (gp_ or caller's)
  dist::Layout base_;                  ///< near-square grid over all ranks
  dist::DistMatrix<graph::Weight> adj_;       ///< A
  dist::DistMatrix<graph::Weight> adj_t_;     ///< Aᵀ of a directed graph
  /// Plan-home copies of A and of Aᵀ. Kept apart even when A = Aᵀ: each
  /// re-home is charged on its own.
  dist::HomeCache<graph::Weight> adj_cache_;
  dist::HomeCache<graph::Weight> adj_t_cache_;
  double imb_nnz_ = 1.0;  ///< measured per-rank resident-nnz imbalance
  dist::DistSpgemmStats run_ops_;  ///< per-rank ops across the run's multiplies
  /// The run's most host bytes held by the two plan-home caches together.
  std::size_t cache_bytes_ = 0;
  /// The current run() (null outside one).
  const ShellRun* run_ = nullptr;
  DistBcStats* stats_ = nullptr;
};

}  // namespace mfbc::core
