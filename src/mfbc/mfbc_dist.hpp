// Distributed MFBC (paper §6): Algorithms 1–3 executed on the simulated
// machine with every frontier relaxation performed as a distributed
// generalized SpGEMM from src/dist.
//
// Two operating modes, mirroring the paper's two implementations:
//   * CTF-MFBC  — per-multiply plan autotuning over the full §5.2 space
//     (PlanMode::kAuto), "dynamically selects data layouts without guidance
//     from the developer";
//   * CA-MFBC   — the fixed 3D layout of Theorem 5.1 (PlanMode::kFixedCa):
//     the adjacency matrix is replicated over c layers (the 1D level, our
//     Variant1D::kB since the adjacency is the second operand of F·A) and
//     each layer runs the "BC" 2D variant on a √(p/c)×√(p/c) grid.
//
// The accumulated matrices T/ζ and the frontier bookkeeping live in dense
// per-rank state blocks aligned with a fixed nb×n state grid — O(n·nb/p)
// words per rank, the Theorem 5.1 memory footprint. Everything around the
// MFBF/MFBr state loops — ingest, the batch-driver wiring, planning, the
// multiply step with its cached plan-home adjacency copies (the theorem's
// replication amortization), and phase accounting — is the engine shell's
// (core/dist_engine.hpp), shared with baseline::CombBlasBc.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/batch_driver.hpp"
#include "core/dist_engine.hpp"
#include "dist/partition.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/graph.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sim/comm.hpp"
#include "tune/calibrate.hpp"

namespace mfbc::core {

enum class PlanMode { kAuto, kFixedCa };

struct DistMfbcOptions {
  vid_t batch_size = 64;
  PlanMode plan_mode = PlanMode::kAuto;
  /// Replication factor c for CA-MFBC; p/c must be a perfect square.
  int replication_c = 1;
  dist::TuneOptions tune{};
  /// Optional adaptive tuner (tune/calibrate.hpp). When set and plan_mode is
  /// kAuto, every iteration re-plans through it: the calibrated model, the
  /// stream's measured frontier ratios, the persistent plan cache, and the
  /// switch hysteresis all apply. Plans may change; results never do. Not
  /// owned; must outlive run().
  tune::Tuner* tuner = nullptr;
  /// If non-empty, accumulate partial BC from these sources only. Ids must
  /// be in [0, n) and duplicate-free; run() throws mfbc::Error otherwise,
  /// before any distribution work starts.
  std::vector<vid_t> sources{};
  /// Durable checkpoint directory and resume flag, forwarded to the shared
  /// batch driver (core/batch_driver.hpp BatchRunOptions).
  std::string checkpoint_dir{};
  bool resume = false;
  /// Version-stable planning for the serving layer (docs/serving.md): plan
  /// selection sees the adjacency nnz quantized to its power-of-two band
  /// (the plan-cache band, tune/plan_cache.hpp) instead of the exact count,
  /// and skips the resident-memory tightening — both of which drift with
  /// small mutations. Within a band, every iteration's plan is then a pure
  /// function of the batch shape, so source batches whose BFS DAGs a
  /// mutation cannot touch replay bit-identically across graph versions.
  /// Results are unchanged by this flag (plans never change results); only
  /// which plan runs can differ.
  bool stable_plans = false;
  /// Structural signature of the graph version (graph/mutate.hpp). Keys
  /// the tuner's plan cache; 0 (the batch default) keeps pre-versioning
  /// profiles usable. Durable checkpoints do not read it: they are always
  /// bound to the signature of the graph the engine computes on.
  std::uint64_t graph_signature = 0;
  /// When set, receives one λ-delta per batch in the caller's original
  /// vertex ids (core/batch_driver.hpp batch_deltas, unpermuted the same
  /// way the returned λ is). Summing the deltas in batch order reproduces
  /// run()'s result bitwise.
  std::vector<std::vector<double>>* batch_deltas = nullptr;
  /// Per-committed-batch observer with an early-stop vote (the adaptive
  /// sampler's hook; core/batch_driver.hpp BatchObserver for the full
  /// contract). Non-empty deltas are unpermuted to the caller's original
  /// vertex ids before the call; resume-replayed batches arrive with an
  /// empty delta, pass-through.
  BatchRunOptions::BatchObserver on_batch{};
};

using DistMfbcStats = DistBcStats;

/// The Theorem 5.1 processor grid for p ranks and replication factor c.
dist::Plan ca_plan(int p, int c);

class DistMfbc {
 public:
  /// Distributes g's adjacency matrix (and its transpose, for the backward
  /// phase) over all of sim's ranks on a near-square base grid.
  DistMfbc(sim::Sim& sim, const graph::Graph& g);

  /// Same, with the vertices relabeled by a load-balanced partition
  /// (dist/partition.hpp) before distribution. Sources in
  /// DistMfbcOptions::sources and the returned centrality vector stay in
  /// the caller's original vertex ids: the permutation is applied at ingest
  /// and inverted at output, so results are bit-identical to the
  /// unpermuted run (an identity partition is an exact pass-through).
  DistMfbc(sim::Sim& sim, const graph::Graph& g, dist::Partition part);

  /// Run batched BC; centrality scores are gathered to the caller at the
  /// end (one reduction, charged).
  ///
  /// Under fault injection (sim().enable_faults) the batch loop checkpoints
  /// the accumulated λ at batch boundaries and rolls the current batch back
  /// on rank failure; results stay bit-identical to the fault-free run for
  /// every recoverable schedule (docs/fault_tolerance.md). Unrecoverable
  /// schedules throw sim::FaultError.
  std::vector<double> run(const DistMfbcOptions& opts,
                          DistMfbcStats* stats = nullptr);

  sim::Sim& sim() { return shell_.sim(); }

 private:
  struct Batch;  // per-batch dense state blocks (defined in the .cpp)

  /// One full MFBF + MFBr pass over `batch_sources`, accumulating into
  /// `lambda`. Throws sim::FaultError out of the charging layer on rank
  /// failure; the shared batch driver's retry loop (core/batch_driver.hpp)
  /// owns checkpointing and rollback.
  void run_batch(const std::vector<vid_t>& batch_sources,
                 std::vector<double>& lambda, std::span<const int> all_ranks);

  DistEngine shell_;
};

}  // namespace mfbc::core
