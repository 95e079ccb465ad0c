// Analytic communication-cost models for the SpGEMM algorithm space
// (paper §5.2) and the plan type the autotuner selects.
//
// The models are the paper's formulas verbatim:
//   1D variant X ∈ {A,B,C}:
//       W_X(X,p) = O(α·log p + β·nnz(X))
//   2D variant YZ ∈ {AB,AC,BC} on a pr×pc grid:
//       W_YZ(Y,Z,pr,pc) = O(α·max(pr,pc)·log p + β·(nnz(Y)/pr + nnz(Z)/pc))
//   3D variant (X,YZ) on p1×p2×p3 (1D over p1 nested with 2D over p2×p3):
//       W_X,YZ = W_X(X[p2,p3]) + W_YZ with the non-replicated operands
//                blocked by p1 (paper's case split on X ∈ {Y,Z} or not)
// plus CTF-style mapping overhead for redistributing operands and output
// (§6.2), and the optimal-compute term ops(A,B)/p.
#pragma once

#include <string>

#include "sim/machine.hpp"
#include "sparse/types.hpp"

namespace mfbc::dist {

using sparse::nnz_t;

enum class Variant1D { kA, kB, kC };
enum class Variant2D { kAB, kAC, kBC };

/// Communication schedule of a plan's 2D level, a charge policy of the one
/// 2D driver (detail::spgemm_2d in dist/spgemm_dist.hpp): kSync charges the
/// blocking lcm-step broadcast/reduce schedule; kAsync posts step k+1's
/// broadcasts as nonblocking collectives inside step k's overlap window.
/// Charged results differ only by the overlap credit — outputs are
/// bit-identical (sim/async.hpp).
enum class Sched { kSync, kAsync };

/// Data-distribution dimension of a plan (docs/partitioning.md): kBlock is
/// the legacy contiguous index-range placement; kBalanced means the operand
/// was relabeled by a load-balanced partition (dist/partition.hpp) before
/// distribution, so the per-rank compute imbalance factor is the balanced
/// one. The distribution never changes the communication structure — only
/// which imbalance factor scales the max-per-rank compute term.
enum class Dist { kBlock, kBalanced };

/// "block" | "balanced" for tables and JSON.
const char* dist_name(Dist d);

/// A fully specified multiplication plan: the factorization p = p1·p2·p3,
/// which matrix the 1D level replicates/reduces (v1, active when p1 > 1),
/// which pair the 2D level communicates (v2, active when p2·p3 > 1), and
/// the schedule dimension (sync vs async-pipelined with a prefetch tile).
struct Plan {
  int p1 = 1, p2 = 1, p3 = 1;
  Variant1D v1 = Variant1D::kA;
  Variant2D v2 = Variant2D::kAB;
  Sched sched = Sched::kSync;
  /// Async prefetch split factor: of each step's broadcasts, ~1/tile are
  /// posted inside the previous step's overlap window (bounding in-flight
  /// buffer memory to ~1/tile of a step's slices). 0 for sync plans, >= 1
  /// for async.
  int tile = 0;
  /// Distribution dimension: which per-rank load-imbalance factor prices
  /// the compute term (and, under heterogeneous fleets, whether work can be
  /// divided ∝ rank speed). kBlock reproduces the historical cost bitwise.
  Dist dist = Dist::kBlock;

  int total_ranks() const { return p1 * p2 * p3; }
  bool has_1d() const { return p1 > 1; }
  bool has_2d() const { return p2 * p3 > 1; }
  bool is_async() const { return sched == Sched::kAsync; }
  bool is_balanced() const { return dist == Dist::kBalanced; }

  /// The same plan with the schedule dimension stripped. Two plans sharing a
  /// sync shape share operand home layouts, so switching between them is
  /// free (the tuner's hysteresis and HomeCache both key on this).
  Plan sync_shape() const {
    Plan q = *this;
    q.sched = Sched::kSync;
    q.tile = 0;
    return q;
  }

  std::string to_string() const;

  friend bool operator==(const Plan&, const Plan&) = default;
};

/// Human-readable schedule tag for tables and --explain-plan: "sync" or
/// "async(tN)".
std::string schedule_name(const Plan& plan);

/// Problem statistics the model needs. nnz_c and ops may be exact (measured
/// on a previous iteration) or the §5.2 uniform estimates.
struct MultiplyStats {
  sparse::vid_t m = 0, k = 0, n = 0;
  double nnz_a = 0, nnz_b = 0, nnz_c = 0, ops = 0;
  double words_a = 2, words_b = 2, words_c = 2;  ///< wire words per nonzero
  /// Max/mean per-rank ops factors under each distribution (measured from
  /// slot loads or a previous multiply's per-rank ledger). The defaults of
  /// 1.0 are the §5.2 uniform assumption and keep every historical cost
  /// bitwise unchanged; --explain-plan and bench_partition fill them in to
  /// compare the distribution dimension honestly.
  double imb_block = 1.0;
  double imb_balanced = 1.0;

  /// §5.2 uniform-sparsity estimates: ops ≈ nnz(A)·nnz(B)/k and
  /// nnz(C) ≈ min(m·n, ops).
  static MultiplyStats estimated(sparse::vid_t m, sparse::vid_t k,
                                 sparse::vid_t n, double nnz_a, double nnz_b,
                                 double words_a, double words_b,
                                 double words_c);
};

/// Modelled cost decomposition of one plan (seconds).
struct ModelCost {
  double latency = 0;    ///< α terms
  double bandwidth = 0;  ///< β terms
  double compute = 0;    ///< ops/p term
  double remap = 0;      ///< operand/output redistribution overhead
  /// Overlap credit of an async schedule: modelled broadcast time hidden
  /// behind the multiplies, overlap_beta · min(bcast-side bandwidth / tile,
  /// compute). Always 0 for sync plans.
  double overlap = 0;

  double total() const {
    return latency + bandwidth + compute + remap - overlap;
  }
};

/// Per-rank memory footprint in words, M_X,YZ of §5.2.3.
double model_memory_words(const Plan& plan, const MultiplyStats& s);

/// Evaluate the §5.2 cost model for `plan` on machine `mm`.
ModelCost model_cost(const Plan& plan, const MultiplyStats& s,
                     const sim::MachineModel& mm);

}  // namespace mfbc::dist
