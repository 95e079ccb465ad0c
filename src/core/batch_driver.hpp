// Shared batched-BC execution driver (docs/fault_tolerance.md).
//
// Both distributed BC engines — core::DistMfbc and baseline::CombBlasBc —
// process sources in batches and accumulate a per-vertex λ vector. Batching,
// λ-checkpointing at batch boundaries, the rank-failure retry/rollback loop,
// the post-batch ABFT repair sweep, and the final λ reduction are identical
// policy; only the per-batch algorithm differs. run_batched_bc owns the
// shared policy and calls back into the engine through BatchHooks, so every
// recovery guarantee (bit-identical λ for every recoverable schedule, at
// every thread count) holds for both engines by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dist/procgrid.hpp"
#include "graph/graph.hpp"
#include "sim/comm.hpp"
#include "support/error.hpp"

namespace mfbc::core {

/// Named rejection of an invalid requested source list (out-of-range or
/// duplicate ids). Thrown by resolve_sources — and therefore by every
/// engine's run() — *before* any distribution work, so a bad list never
/// costs a single simulated charge. A duplicate source would silently
/// double-count its pair dependencies in λ; naming the error lets the
/// serving layer map it to a client-level rejection instead of a crash.
class SourceListError : public mfbc::Error {
 public:
  explicit SourceListError(const std::string& what) : mfbc::Error(what) {}
};

/// Engine-specific callbacks consumed by run_batched_bc. All three must be
/// set; the driver checks and throws mfbc::Error otherwise.
struct BatchHooks {
  /// One full forward + backward pass over `batch_sources`, accumulating
  /// partial centrality into `lambda`. The driver hands in a zeroed
  /// per-batch scratch vector and folds it into the run's λ itself (one add
  /// per vertex per batch), so each batch's contribution is an independent
  /// delta the incremental-recomputation layer can splice
  /// (docs/serving.md). May throw sim::FaultError out of the charging
  /// layer; the driver owns rollback and re-runs the batch.
  std::function<void(const std::vector<graph::vid_t>& batch_sources,
                     std::vector<double>& lambda,
                     std::span<const int> all_ranks, int batch_index)>
      run_batch;
  /// Wire words of the stationary operand data (adjacency + transpose) that
  /// die with base-grid block (i, j) — sizes the post-failure re-fetch.
  std::function<double(int i, int j)> lost_block_words;
  /// Drop plan-home operand caches after a remap: replicas on dead ranks are
  /// gone, the next multiply must re-map (and re-charge) them.
  std::function<void()> invalidate_caches;
};

struct BatchDriverStats {
  int batch_retries = 0;    ///< batches re-run after a rank failure
  int resumed_batches = 0;  ///< batches skipped by a --resume restart
  int spare_rehomes = 0;    ///< recoveries served from the spare pool
  int grid_shrinks = 0;     ///< recoveries that shrank the physical grid
};

/// Durable-checkpoint policy for one driver run (core/checkpoint.hpp).
struct BatchRunOptions {
  /// Directory for `mfbc.ckpt` files; empty disables durable checkpoints.
  /// When set, λ is persisted after every completed batch whether or not a
  /// fault injector is installed — durability guards against fatal
  /// failures, not just recoverable ones.
  std::string checkpoint_dir;
  /// Load checkpoint_dir's file and restart after its last complete batch.
  /// The file is fully verified first; a checkpoint whose shape signature
  /// (graph size, batch size, source list) disagrees with this run is
  /// refused. Requires checkpoint_dir.
  bool resume = false;
  /// Structural signature of the graph this run computes on
  /// (graph/mutate.hpp). When nonzero it is folded into the checkpoint's
  /// shape signature, so a checkpoint written against one graph can never
  /// resume a run on another. Both engines set it whenever checkpoint_dir
  /// is set (core/dist_engine.hpp); 0 leaves the graph out of the
  /// signature.
  std::uint64_t graph_sig = 0;
  /// When set, receives one λ-delta vector per batch (resized to the batch
  /// count; each entry length n): exactly the scratch vector the driver
  /// folded for that batch. Summing the deltas in batch order reproduces
  /// the returned λ bitwise — the splice contract incremental
  /// recomputation is built on. Incompatible with resume (a resumed run
  /// has no deltas for the batches it skipped; the driver throws).
  std::vector<std::vector<double>>* batch_deltas = nullptr;
  /// Per-batch observer with an early-stop vote. Called exactly once per
  /// *committed* batch (λ folded, every fault charge point of the batch
  /// behind us — a retried attempt is never observed), with the batch's
  /// λ-delta: the same scratch vector batch_deltas would receive. Returning
  /// false stops the run after this batch: remaining batches are skipped,
  /// the final λ reduction is still charged, and a durable checkpoint —
  /// written after the observer, so a crash inside the observer costs at
  /// most a re-observation of the same committed statistics — stays valid
  /// for a later --resume continuation of the same full source list.
  ///
  /// Batches skipped by --resume are *replayed* to the observer in order
  /// with an empty delta (the cumulative checkpoint holds their sum, not
  /// the per-batch vectors), so a layered stop rule that persisted its own
  /// state alongside λ (mfbc/adaptive.hpp) can re-evaluate its decision at
  /// the restore point and stop a resumed run before it executes anything.
  using BatchObserver = std::function<bool(
      int batch_index, std::size_t batch_source_count,
      const std::vector<double>& batch_delta)>;
  BatchObserver on_batch;
};

/// Validate a requested source list (ids in [0, n), duplicate-free; throws
/// SourceListError before any distribution work otherwise) or default it to
/// all n vertices when empty.
std::vector<graph::vid_t> resolve_sources(
    graph::vid_t n, const std::vector<graph::vid_t>& requested);

/// Drive batched BC over `sources` on `sim`, calling hooks.run_batch once
/// per batch (re-running it after recoverable rank failures) and charging
/// the final λ reduction over all ranks. `base` is the engine's base grid —
/// the layout whose rows replicate the λ checkpoint. Returns the accumulated
/// λ vector. Unrecoverable schedules throw sim::FaultError.
std::vector<double> run_batched_bc(sim::Sim& sim, const dist::Layout& base,
                                   graph::vid_t n,
                                   const std::vector<graph::vid_t>& sources,
                                   graph::vid_t batch_size,
                                   const BatchHooks& hooks,
                                   BatchDriverStats* stats = nullptr,
                                   const BatchRunOptions& run_opts = {});

}  // namespace mfbc::core
