// CombBLAS-style distributed betweenness centrality — the comparison target
// of the paper's evaluation (§7).
//
// The Combinatorial BLAS BC code [11] is a batched, BFS-based algebraic
// Brandes over a *square-only* 2D processor grid using SUMMA sparse matrix
// multiplication, for *unweighted* graphs. This class reproduces those
// design axes on the simulated machine:
//   * frontier × adjacency products over the (+,×) count semiring,
//   * visited-mask filtering after each product (BFS, not Bellman-Ford),
//   * level-synchronized backward dependency accumulation,
//   * a fixed 2D SUMMA plan on a √p×√p grid — constructor rejects non-square
//     rank counts, mirroring "CombBLAS requires square processor grids"
//     (§7.1), and rejects weighted graphs, mirroring that prior algebraic BC
//     codes "have largely been limited to unweighted graphs" (§2.4).
//
// Everything around the BFS and backward loops — ingest, the shared
// batched-BC driver (core/batch_driver.hpp), planning, the multiply step
// and phase accounting — is the engine shell's (core/dist_engine.hpp),
// shared with core::DistMfbc. So the engine has λ-checkpoint/rollback
// recovery under fault injection (bit-identical results for every
// recoverable schedule, at every thread count) and, with a tune::Tuner
// attached, per-multiply calibrated re-planning — restricted to the
// square-grid 2D plan space the CombBLAS design permits, with its own
// plan-cache key space (streams baseline.forward / baseline.backward,
// monoids count / dep).
#pragma once

#include <vector>

#include "core/batch_driver.hpp"
#include "core/dist_engine.hpp"
#include "dist/partition.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/graph.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sim/comm.hpp"
#include "tune/calibrate.hpp"

namespace mfbc::baseline {

using core::FrontierTrace;
using graph::Weight;

struct CombBlasOptions {
  graph::vid_t batch_size = 64;
  std::vector<graph::vid_t> sources{};  ///< empty = all vertices
  dist::TuneOptions tune{};
  /// Optional adaptive tuner (tune/calibrate.hpp). When set, every multiply
  /// re-plans through it over the square-grid 2D plan space; the fixed SUMMA
  /// plan seeds each stream's hysteresis, so the tuned run switches away
  /// only for a modelled win that clears the re-homing cost. Plans may
  /// change; results never do. Not owned; must outlive run().
  tune::Tuner* tuner = nullptr;
  /// Durable checkpoint directory and resume flag, forwarded to the shared
  /// batch driver (core/batch_driver.hpp BatchRunOptions).
  std::string checkpoint_dir{};
  bool resume = false;
  /// Per-committed-batch observer with an early-stop vote (the adaptive
  /// sampler's hook; core/batch_driver.hpp BatchObserver for the full
  /// contract). Non-empty deltas are unpermuted to the caller's original
  /// vertex ids before the call; resume-replayed batches arrive with an
  /// empty delta, pass-through.
  core::BatchRunOptions::BatchObserver on_batch{};
};

using CombBlasStats = core::DistBcStats;

class CombBlasBc {
 public:
  /// Throws unless sim's rank count is a perfect square and g is unweighted.
  CombBlasBc(sim::Sim& sim, const graph::Graph& g);

  /// Same, with the vertices relabeled by a load-balanced partition
  /// (dist/partition.hpp) before distribution. Sources and the returned
  /// centrality vector stay in the caller's original ids: the permutation is
  /// applied at ingest and inverted at output, so results are bit-identical
  /// to the unpermuted run (an identity partition is an exact pass-through).
  CombBlasBc(sim::Sim& sim, const graph::Graph& g, dist::Partition part);

  /// Run batched BC on the shared driver. Under fault injection
  /// (sim().enable_faults) the driver checkpoints λ at batch boundaries and
  /// rolls the current batch back on rank failure; results stay
  /// bit-identical to the fault-free run for every recoverable schedule
  /// (docs/fault_tolerance.md). Unrecoverable schedules throw
  /// sim::FaultError.
  std::vector<double> run(const CombBlasOptions& opts,
                          CombBlasStats* stats = nullptr);

  sim::Sim& sim() { return shell_.sim(); }

 private:
  struct Batch;

  /// One forward BFS + level-synchronized backward pass over
  /// `batch_sources`, accumulating into `lambda`. The shared driver owns
  /// checkpointing and rollback.
  void run_batch(const std::vector<graph::vid_t>& batch_sources,
                 std::vector<double>& lambda, std::span<const int> all_ranks);

  dist::Plan plan_;  ///< fixed 2D SUMMA on the square grid
  core::DistEngine shell_;
};

}  // namespace mfbc::baseline
