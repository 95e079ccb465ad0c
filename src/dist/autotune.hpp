// Plan selection (paper §6.2): "For each operation, CTF seeks an optimal
// processor grid, considering the space of algorithms described in §5.2 as
// well as overheads, such as redistributing the matrices."
//
// enumerate_plans() produces the full 1D/2D/3D variant × factorization
// space; autotune() evaluates the §5.2 model on each and returns the
// cheapest plan that fits the per-rank memory limit.
#pragma once

#include <limits>
#include <vector>

#include "dist/cost_model.hpp"

namespace mfbc::dist {

struct TuneOptions {
  double memory_words_limit = std::numeric_limits<double>::infinity();
  bool allow_1d = true;
  bool allow_2d = true;
  bool allow_3d = true;
  /// Restrict to square 2D grids (the CombBLAS constraint, used by the
  /// baseline to mirror "CombBLAS requires square processor grids", §7.1).
  bool square_2d_only = false;
  /// Schedule axis: when set, every plan with a 2D level additionally
  /// enumerates async-pipelined twins (one per entry of async_tiles), grown
  /// from {variant × grid} to {variant × grid × schedule}. Off by default so
  /// callers that never opted into nonblocking schedules see the historical
  /// plan space unchanged.
  bool allow_async = false;
  /// Prefetch tile menu for the async twins (the async schedule of
  /// detail::spgemm_2d in dist/spgemm_dist.hpp): tile 1 posts every
  /// next-step broadcast inside the window (maximum overlap), larger tiles
  /// post 1/tile of them.
  std::vector<int> async_tiles = {1, 4};
  /// Distribution axis base value: how the request's operands are actually
  /// placed (docs/partitioning.md). Every enumerated plan is stamped with
  /// it so the compute term prices the matching imbalance factor. kBlock is
  /// the historical default; engines built on a load-balanced partition set
  /// kBalanced.
  Dist partition = Dist::kBlock;
  /// When set, every plan additionally enumerates a twin under the *other*
  /// distribution, appended after the async twins — an advisory fourth
  /// dimension {variant × grid × schedule × distribution} for
  /// --explain-plan and bench_partition comparisons. Off by default so the
  /// historical enumeration is unchanged.
  bool allow_partition = false;
};

/// Per-call accounting of a plan search, for the tune telemetry/JSON
/// surfaces: how many candidates were evaluated and how many the per-rank
/// memory limit pruned (including async tile sizes that no longer fit).
struct TuneReport {
  int candidates = 0;
  int pruned_memory = 0;
};

/// Every distinct plan for p ranks under the options. Duplicate degenerate
/// shapes (e.g. 3D with p1 = 1 collapsing to 2D) are canonicalized away.
/// Async twins, when enabled, follow the sync plans so the sync prefix of
/// the enumeration is unchanged.
std::vector<Plan> enumerate_plans(int p, const TuneOptions& opts = {});

/// Cheapest plan under the §5.2 model; throws if no plan fits in memory.
/// Ties go to the earliest candidate, so an async twin wins only when its
/// modelled overlap credit makes it strictly cheaper than its sync shape.
Plan autotune(int p, const MultiplyStats& stats, const sim::MachineModel& mm,
              const TuneOptions& opts = {}, TuneReport* report = nullptr);

}  // namespace mfbc::dist
