// Deferred ledger charging for parallel execution of virtual-rank kernels.
//
// CostLedger::collective() synchronizes a group to its componentwise max, so
// the order of charges is part of the model's semantics — two threads
// charging concurrently would need a hot-path lock *and* could interleave
// collectives nondeterministically. Instead, each task of a parallel region
// records its charges into a private ChargeLog (append to a local vector, no
// synchronization), and the calling thread replays the logs in task order at
// the region's barrier. Because the replayed sequence equals the serial
// charge sequence, critical-path totals are bit-identical for every thread
// count.
#pragma once

#include <span>
#include <vector>

#include "sim/comm.hpp"

namespace mfbc::sim {

/// Records the same charge_* calls sim::Sim accepts, for ordered replay.
class ChargeLog {
 public:
  void charge_bcast(std::span<const int> group, double payload_words);
  void charge_reduce(std::span<const int> group, double result_words);
  void charge_allreduce(std::span<const int> group, double result_words);
  void charge_scatter(std::span<const int> group, double max_rank_words);
  void charge_gather(std::span<const int> group, double max_rank_words);
  void charge_allgather(std::span<const int> group, double max_rank_words);
  void charge_alltoall(std::span<const int> group, double max_rank_words);
  void charge_compute(int rank, double ops);

  // Overlap-window records (sim/async.hpp): the 2D SpGEMM driver's async
  // schedule opens its windows here, and replay re-opens them in the Sim.
  // Post order equals record order equals replay order, which is what keeps
  // fault charge points and overlap credits bit-identical for every thread
  // count. Waits are bookkeeping only, so none are recorded: close()
  // completes every posted collective of its window.
  void overlap_open(std::span<const int> group, double beta);
  void post_bcast(std::span<const int> group, double payload_words);
  void overlap_compute(int rank, double ops);
  void overlap_close();

  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Replay every recorded charge, in recording order, into a Sim or into
  /// another ChargeLog (nested regions compose by appending).
  template <typename Charger>
  void replay(Charger& target) const {
    for (const Record& r : records_) {
      switch (r.kind) {
        case Kind::kBcast: target.charge_bcast(r.group, r.value); break;
        case Kind::kReduce: target.charge_reduce(r.group, r.value); break;
        case Kind::kAllreduce: target.charge_allreduce(r.group, r.value); break;
        case Kind::kScatter: target.charge_scatter(r.group, r.value); break;
        case Kind::kGather: target.charge_gather(r.group, r.value); break;
        case Kind::kAllgather: target.charge_allgather(r.group, r.value); break;
        case Kind::kAlltoall: target.charge_alltoall(r.group, r.value); break;
        case Kind::kCompute: target.charge_compute(r.rank, r.value); break;
        case Kind::kOverlapOpen: target.overlap_open(r.group, r.value); break;
        case Kind::kOverlapBcast: target.post_bcast(r.group, r.value); break;
        case Kind::kOverlapCompute:
          target.overlap_compute(r.rank, r.value);
          break;
        case Kind::kOverlapClose: target.overlap_close(); break;
      }
    }
  }

 private:
  enum class Kind {
    kBcast,
    kReduce,
    kAllreduce,
    kScatter,
    kGather,
    kAllgather,
    kAlltoall,
    kCompute,
    kOverlapOpen,
    kOverlapBcast,
    kOverlapCompute,
    kOverlapClose,
  };

  struct Record {
    Kind kind;
    int rank = -1;            ///< compute charges only
    double value = 0;         ///< words or ops
    std::vector<int> group;   ///< collective charges only
  };

  void push(Kind kind, std::span<const int> group, double value);

  std::vector<Record> records_;
};

}  // namespace mfbc::sim
