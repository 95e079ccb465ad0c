// Persistent cache of winning SpGEMM plans.
//
// Repeated workloads (every MFBC batch multiplies a frontier of a similar
// size against the same adjacency) should not re-enumerate the §5.2 plan
// space on every iteration. The cache keys a chosen plan by the operation
// shape — monoid tag, matrix dims, log2 nnz bands of both operands, rank
// count, and (optionally) pool thread count — and round-trips through the
// versioned JSON profile file (tune/calibrate.hpp), so the plans a run
// learned survive into the next run.
//
// The nnz band quantizes the operand sizes: two frontiers within the same
// power-of-two band share an entry, which is what makes the cache hit at all
// as the frontier breathes between iterations.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "dist/cost_model.hpp"
#include "telemetry/json.hpp"

namespace mfbc::tune {

struct PlanKey {
  std::string monoid;  ///< operation tag ("multpath", "centpath", ...)
  sparse::vid_t m = 0, k = 0, n = 0;
  int band_a = 0;  ///< floor(log2(nnz_a)), -1 for an empty operand
  int band_b = 0;
  int ranks = 0;
  /// Always 0 from the Tuner: plan choices must not depend on pool size, or
  /// results would stop being bit-identical across thread counts
  /// (docs/autotuning.md). Kept in the key and the mfbc.tune.v1 entries.
  int threads = 0;
  /// Schedule axis of the request: 1 when the tuner was allowed to pick
  /// async-pipelined plans, 0 for sync-only. Keying on the request (not the
  /// chosen plan) keeps a sync-only run from adopting an async plan cached
  /// by an async-enabled run, and vice versa: the two searches ran over
  /// different candidate spaces, so their winners are not interchangeable.
  int schedule = 0;
  /// Distribution axis of the request, same keying rule as `schedule`: bit 0
  /// set when the request's data sits on a balanced partition, bit 1 set
  /// when the advisory other-distribution twins were enumerated. 0 (a plain
  /// block request) keeps pre-partition profile entries addressable.
  int partition = 0;
  /// Topology epoch: the number of grid shrinks the machine has survived
  /// (sim/faults.hpp). A shrink consolidates the whole virtual fleet onto
  /// fewer physical hosts, so every plan chosen for the old placement is
  /// stale — bumping the epoch retires those cache entries without touching
  /// them. 0 (the healthy machine) keeps pre-elastic profile entries
  /// addressable.
  int topology = 0;
  /// Structural signature of the graph version the plan was chosen for
  /// (graph/mutate.hpp): the serving layer keys per-version plans the same
  /// way topology keys per-placement plans, so a plan tuned against one
  /// published version is never silently replayed against a mutated
  /// adjacency. 0 (an unversioned run, the batch default) keeps
  /// pre-versioning profile entries addressable. Serialized as a hex
  /// string in the profile JSON — the number form would round through a
  /// double and lose bits.
  std::uint64_t graph = 0;

  /// floor(log2(nnz)) band, -1 for nnz <= 0.
  static int nnz_band(double nnz);

  std::string to_string() const;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    auto tie = [](const PlanKey& x) {
      return std::tie(x.monoid, x.m, x.k, x.n, x.band_a, x.band_b, x.ranks,
                      x.threads, x.schedule, x.partition, x.topology,
                      x.graph);
    };
    return tie(a) < tie(b);
  }
};

/// Serialize a plan as {"p1","p2","p3","v1","v2"} plus, for async plans
/// only, {"sched":"async","tile":N}; from_json throws mfbc::Error on
/// malformed shapes or unknown variant letters, and tolerates profiles
/// written before the schedule dimension existed (missing fields → sync).
telemetry::Json plan_to_json(const dist::Plan& plan);
dist::Plan plan_from_json(const telemetry::Json& j);

class PlanCache {
 public:
  /// Look up a plan; counts a hit or a miss.
  std::optional<dist::Plan> find(const PlanKey& key);

  /// Insert or overwrite the plan for `key`.
  void insert(const PlanKey& key, const dist::Plan& plan);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// hits / (hits + misses), 0 when never queried.
  double hit_rate() const;
  void clear();
  /// Zero the hit/miss counters (entries stay).
  void reset_counters();

  /// Entries as the profile file's "plans" array.
  telemetry::Json to_json() const;
  /// Merge entries from a "plans" array; throws mfbc::Error on malformed
  /// entries (missing fields, bad plan shapes).
  void load_json(const telemetry::Json& plans);

 private:
  mutable std::mutex mu_;
  std::map<PlanKey, dist::Plan> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mfbc::tune
