// Critical-path cost ledger (paper §7.4).
//
// The paper profiles communication by following the communication pattern:
// "for each collective over a set of processors, we maximize the critical
// path costs incurred by those processors so far", and at the end takes the
// maximum over all processors for each cost — yielding the greatest amount
// of data (and, separately, messages) communicated along any dependent
// sequence of collectives. This class implements exactly that bookkeeping,
// plus a modelled wall-clock that interleaves local compute.
#pragma once

#include <span>
#include <vector>

#include "sim/machine.hpp"

namespace mfbc::sim {

/// Cost components tracked along the critical path.
struct Cost {
  double words = 0;      ///< W: words on the critical path
  double msgs = 0;       ///< S: messages on the critical path
  double comm_seconds = 0;
  double compute_seconds = 0;
  double ops = 0;        ///< nonzero elementary products (max over path)

  double total_seconds() const { return comm_seconds + compute_seconds; }

  Cost& operator+=(const Cost& o);
  friend Cost operator+(Cost a, const Cost& b) { return a += b; }
  /// Componentwise difference, e.g. a critical-path delta over a phase.
  friend Cost operator-(const Cost& a, const Cost& b) {
    return {a.words - b.words, a.msgs - b.msgs,
            a.comm_seconds - b.comm_seconds,
            a.compute_seconds - b.compute_seconds, a.ops - b.ops};
  }
};

/// Observer for individual ledger charges. The telemetry subsystem installs
/// one (telemetry::SpanCostSink) so every collective()/compute() charge also
/// lands on the active telemetry span and the ledger.* counters; the ledger
/// itself stays dependency-free. Events are the raw charges, not
/// critical-path maxima.
class CostSink {
 public:
  virtual ~CostSink() = default;
  /// One collective over `nranks` participants charging (words, msgs,
  /// seconds) after group synchronization.
  virtual void on_collective(int nranks, double words, double msgs,
                             double seconds) = 0;
  /// Local computation charge on one rank.
  virtual void on_compute(int rank, double ops, double seconds) = 0;
  /// Overlap credit (sim/async.hpp): `seconds` of already-charged transfer
  /// time on `rank` retroactively hidden behind computation. Default no-op
  /// so existing sinks keep compiling.
  virtual void on_overlap_credit(int rank, double seconds) {
    (void)rank;
    (void)seconds;
  }
};

class CostLedger {
 public:
  explicit CostLedger(int nranks);

  int nranks() const { return static_cast<int>(state_.size()); }

  /// Grow the ledger by `count` fresh ranks with zero accumulated cost.
  /// Spare-rank pools use this: cold spares are provisioned after
  /// construction and must be chargeable once activated. Joining at zero is
  /// correct — a collective that includes a fresh rank synchronizes it up to
  /// the group max before adding, so the critical path is unchanged until
  /// the spare actually carries work.
  void add_ranks(int count);

  /// Charge a collective over `ranks`: every participant first synchronizes
  /// to the componentwise max of the group's accumulated costs, then adds
  /// (words, msgs, seconds).
  void collective(std::span<const int> ranks, double words, double msgs,
                  double seconds);

  /// Charge local computation on one rank.
  void compute(int rank, double ops, double seconds);

  /// Subtract `seconds` of communication time from one rank: the overlap
  /// credit of a closed window (sim/async.hpp). Callers clamp `seconds` to
  /// comm time the rank actually accrued inside the window, so a rank's
  /// state stays componentwise <= its synchronous-schedule state and never
  /// goes negative. W and S (words, msgs) are untouched — overlap hides
  /// transfer *time*, the data still moves.
  void overlap_credit(int rank, double seconds);

  /// One rank's accumulated cost (overlap accounting snapshots these).
  const Cost& rank_cost(int rank) const;

  /// Critical-path cost: componentwise max over all ranks.
  Cost critical() const;

  /// Sum of per-rank compute seconds (total work, for efficiency metrics).
  double total_compute_seconds() const;

  void reset();

  /// Install (or clear, with nullptr) the charge observer; returns the
  /// previously installed sink so scoped installers can restore it. The sink
  /// is not owned and must outlive its installation. reset() leaves the sink
  /// in place.
  CostSink* set_sink(CostSink* sink);
  CostSink* sink() const { return sink_; }

 private:
  std::vector<Cost> state_;
  CostSink* sink_ = nullptr;
};

}  // namespace mfbc::sim
