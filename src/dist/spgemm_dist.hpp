// Distributed generalized SpGEMM over the simulated machine — the paper's
// §5.2 algorithm space, executed faithfully:
//
//   * 1D variants A/B/C: replicate one matrix (or reduce C) across all ranks;
//   * 2D variants AB/AC/BC: lcm(pr,pc)-step broadcast/reduce schedules on a
//     pr×pc grid (the CTF scheme: "CTF uses lcm(pr,pc) broadcasts/reductions");
//   * 3D variants (X,YZ): the nine nestings of a 1D variant over p1 layers
//     with a 2D variant on each layer's p2×p3 grid.
//
// Every variant charges the α–β ledger at each collective with the payload
// it carries, counted from the blocks it executes on, so measured
// critical-path costs come out of execution rather than out of the model.
// Operand mapping builds each home's blocks; the 2D steps' broadcasts and
// the layer replicas of a replicated operand (A of a 3D-A plan, B of a 1D-B
// or 3D-B plan) read the sending rank's blocks in place. The
// §5.2 closed forms live in cost_model.hpp and are used only for *plan
// selection* (§6.2), as in CTF.
//
// All variants compute bit-identical results to sparse::spgemm for the
// commutative monoids used in this library (verified by the test suite).
#pragma once

#include <algorithm>
#include <deque>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "dist/autotune.hpp"
#include "dist/cost_model.hpp"
#include "dist/dmatrix.hpp"
#include "sim/charge_log.hpp"
#include "sim/faults.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "tune/observer.hpp"

namespace mfbc::dist {

/// Measured execution counters for one distributed multiply.
struct DistSpgemmStats {
  double total_ops = 0;     ///< Σ over ranks of nonzero products
  double max_rank_ops = 0;  ///< exact max over ranks (tracked via rank_ops)
  /// Per-virtual-rank nonzero products, indexed by absolute rank id and
  /// sized lazily to the highest rank that charged. The basis of the
  /// dist.imbalance.ops gauge and bench_partition's measured imbalance.
  std::vector<double> rank_ops;

  /// Record `ops` charged against `rank` (the 2D driver's per-multiply
  /// hook).
  void note_rank_ops(int rank, double ops) {
    const auto r = static_cast<std::size_t>(rank);
    if (r >= rank_ops.size()) rank_ops.resize(r + 1, 0.0);
    rank_ops[r] += ops;
    max_rank_ops = std::max(max_rank_ops, rank_ops[r]);
  }

  /// Fold another multiply's (or layer's) counters in. Layer grids own
  /// disjoint absolute rank ranges, so per-rank vectors add elementwise.
  void merge(const DistSpgemmStats& other) {
    total_ops += other.total_ops;
    if (other.rank_ops.size() > rank_ops.size()) {
      rank_ops.resize(other.rank_ops.size(), 0.0);
    }
    for (std::size_t r = 0; r < other.rank_ops.size(); ++r) {
      rank_ops[r] += other.rank_ops[r];
      max_rank_ops = std::max(max_rank_ops, rank_ops[r]);
    }
  }

  /// Max/mean per-rank ops over a fleet of `p` ranks (ranks that never
  /// charged count as zeros in the mean); 1.0 when nothing was charged.
  double ops_imbalance(int p) const {
    if (p <= 0 || total_ops <= 0.0) return 1.0;
    return max_rank_ops / (total_ops / static_cast<double>(p));
  }
};

/// ABFT checksum contribution of one result entry (docs/fault_tolerance.md).
/// The sum of these values over a distributed product is invariant under the
/// communication schedule, so recomputing it after delivery exposes corrupted
/// payloads: multiplicities add on ties for multpath (multiplicity-sum),
/// centrality factors add for centpath (factor-sum); other monoids fall back
/// to counting entries.
template <typename M>
struct AbftChecksum {
  static double value(const typename M::value_type&) { return 1.0; }
};
template <>
struct AbftChecksum<algebra::MultpathMonoid> {
  static double value(const algebra::Multpath& x) { return x.m; }
};
template <>
struct AbftChecksum<algebra::CentpathMonoid> {
  static double value(const algebra::Centpath& x) { return x.p; }
};

/// Repair every transfer the injector has flagged dirty since the last
/// check: re-issue the corrupted collective (a fresh charge point — the
/// repair can itself fault) and redo the dependent merge work, one op per
/// re-sent word spread over the group. All cost books as fault overhead.
inline void abft_repair_pending(sim::Sim& sim) {
  sim::FaultInjector* fi = sim.faults();
  if (fi == nullptr || !fi->corruption_pending()) return;
  auto rs = sim.recovery_scope();
  for (const auto& cor : fi->drain_corruptions()) {
    telemetry::Span fix("recovery.retransfer");
    fi->count_detected(sim::FaultKind::kCorruption);
    sim.charge_retransfer(cor.group, cor.words, cor.msgs);
    const double ops =
        cor.words / static_cast<double>(std::max<std::size_t>(
                        cor.group.size(), 1));
    for (int r : cor.group) sim.charge_compute(r, ops);
    fi->count_recovered(sim::FaultKind::kCorruption);
  }
}

/// ABFT pass over a delivered product: each holding rank folds its block's
/// checksum (charged compute), the per-rank partials combine in a one-word
/// allreduce, and any corruption flagged since the last check is repaired.
/// A no-op unless fault injection is enabled with a spec that can corrupt.
template <algebra::Monoid M, typename T>
void abft_verify(sim::Sim& sim, const DistMatrix<T>& c) {
  sim::FaultInjector* fi = sim.faults();
  if (fi == nullptr || !fi->abft_enabled()) return;
  telemetry::Span span("recovery.abft");
  telemetry::count("faults.abft.checks");
  {
    auto rs = sim.recovery_scope();
    const Layout& l = c.layout();
    double checksum = 0;
    for (int i = 0; i < l.pr; ++i) {
      for (int j = 0; j < l.pc; ++j) {
        const auto& blk = c.block(i, j);
        for (const T& v : blk.val()) checksum += AbftChecksum<M>::value(v);
        sim.charge_compute(l.rank_at(i, j), static_cast<double>(blk.nnz()));
      }
    }
    const std::vector<int> ranks = l.ranks();
    sim.charge_allreduce(ranks, 1.0);
    if (span.active()) span.attr("checksum", checksum);
  }
  abft_repair_pending(sim);
}

namespace detail {

/// Home layouts of the three 2D variants (§5.2.2) for a layer grid at
/// `rank0` with shape p2×p3 and operand regions Rm×Rk (A), Rk×Rn (B).
struct Homes {
  Layout a, b, c;
};

inline Homes homes_2d(Variant2D v2, int rank0, int p2, int p3, Range rm,
                      Range rk, Range rn) {
  Homes h;
  h.c = Layout{rank0, p2, p3, rm, rn, false};
  switch (v2) {
    case Variant2D::kAB:
      h.a = Layout{rank0, p2, p3, rm, rk, false};
      h.b = Layout{rank0, p2, p3, rk, rn, false};
      break;
    case Variant2D::kAC:
      // Stationary B: A lives transposed (m split by p3, k split by p2) so
      // its k-split matches B's row split.
      h.a = Layout{rank0, p2, p3, rm, rk, true};
      h.b = Layout{rank0, p2, p3, rk, rn, false};
      break;
    case Variant2D::kBC:
      // Stationary A: B lives transposed (k split by p3, n split by p2).
      h.a = Layout{rank0, p2, p3, rm, rk, false};
      h.b = Layout{rank0, p2, p3, rk, rn, true};
      break;
  }
  return h;
}

/// Move entries from several source distributions into one target layout
/// with a single all-to-all charge. Sources must tile disjoint regions.
template <algebra::Monoid M, typename T>
DistMatrix<T> merge_to(sim::Sim& sim, vid_t nrows, vid_t ncols,
                       std::vector<DistMatrix<T>> parts, Layout target) {
  // Fast path: a single part already on the target layout.
  if (parts.size() == 1 && parts[0].layout() == target) {
    return std::move(parts[0]);
  }
  std::vector<Source<T>> sources;
  for (const auto& part : parts) add_sources(part, sources);
  return DistMatrix<T>(nrows, ncols, target,
                       move_blocks<M>(sim, sources, tiles_of(target), ncols));
}

/// Split one distribution into several target layouts (disjoint regions)
/// with a single all-to-all charge.
template <algebra::Monoid M, typename T>
std::vector<DistMatrix<T>> split_to(sim::Sim& sim, const DistMatrix<T>& src,
                                    const std::vector<Layout>& targets) {
  std::vector<Source<T>> sources;
  add_sources(src, sources);
  std::vector<Tile> tiles;
  for (const Layout& tl : targets) {
    for (const Tile& t : tiles_of(tl)) tiles.push_back(t);
  }
  std::vector<Csr<T>> blocks = move_blocks<M>(sim, sources, tiles, src.ncols());
  std::vector<DistMatrix<T>> out;
  out.reserve(targets.size());
  auto next = blocks.begin();
  for (const Layout& tl : targets) {
    const auto end = next + tl.nranks();
    out.emplace_back(src.nrows(), src.ncols(), tl,
                     std::vector<Csr<T>>(std::make_move_iterator(next),
                                         std::make_move_iterator(end)));
    next = end;
  }
  return out;
}

/// Charge replicating a layer-resident matrix onto sibling layers: one
/// broadcast per grid position across the p1 same-position ranks (§5.2.3's
/// 1D replication of X given from a p2×p3 distribution).
template <typename T>
void charge_replication(sim::Sim& sim, const DistMatrix<T>& layer0,
                        const std::vector<Layout>& layouts) {
  const Layout& l0 = layer0.layout();
  for (const Layout& lt : layouts) {
    MFBC_CHECK(lt.pr == l0.pr && lt.pc == l0.pc && lt.rows == l0.rows &&
                   lt.cols == l0.cols && lt.transposed == l0.transposed,
               "replica layouts must match layer 0 up to rank offset");
  }
  if (layouts.size() < 2) return;
  for (int i = 0; i < l0.pr; ++i) {
    for (int j = 0; j < l0.pc; ++j) {
      std::vector<int> group;
      group.reserve(layouts.size());
      for (const Layout& lt : layouts) group.push_back(lt.rank_at(i, j));
      sim.charge_bcast(group, static_cast<double>(layer0.block(i, j).nnz()) *
                                  sim::sparse_entry_words<T>());
    }
  }
}

/// Entries of block (i,j) of `m` in global rows `r`.
template <typename T>
nnz_t nnz_in_rows(const DistMatrix<T>& m, int i, int j, Range r) {
  const auto rp = m.block(i, j).rowptr();
  const vid_t lo = m.layout().block_rows(i, j).lo;
  return rp[static_cast<std::size_t>(r.hi - lo)] -
         rp[static_cast<std::size_t>(r.lo - lo)];
}

/// Entries of block (i,j) of `m` in global columns `r`.
template <typename T>
nnz_t nnz_in_cols(const DistMatrix<T>& m, int i, int j, Range r) {
  const Csr<T>& blk = m.block(i, j);
  if (m.layout().block_cols(i, j) == r) return blk.nnz();
  nnz_t n = 0;
  for (vid_t x = 0; x < blk.nrows(); ++x) {
    const auto [first, last] = blk.row_run(x, r.lo, r.hi);
    n += last - first;
  }
  return n;
}

/// One layer's 2D multiply on the p2×p3 grid of ranks starting at `rank0`.
/// The operands must sit on homes_2d layouts of that grid up to their rank
/// offset — the layers of a 3D-A plan all read layer 0's copy of A, and
/// those of a 1D-B or 3D-B plan layer 0's copy of B. Only plan.v2 and the
/// schedule fields of `plan` are read.
///
/// Each variant cuts one dimension into lcm(p2,p3) steps: AB the inner k,
/// AC the rows of A and C, BC the columns of B and C. The driver computes
/// first and charges after. One pool region builds every C block from its
/// chain of block products with sparse::spgemm_fold, in the order the
/// steps fold it — AB: the steps in order; AC: per step's rows, the grid
/// column's i-blocks; BC: per step's columns, the grid row's j-blocks — so
/// no operand slice, partial product or re-union is ever built. Each link's
/// k window is cut to the rows its B block occupies (Csr::occupied_rows),
/// so spgemm_fold's row_run on A skips, row by row, every A entry whose B
/// row is empty. Such an entry makes no product and touches no accumulator
/// slot, so the products and every FoldCount, hence every charge, are those
/// of the uncut window. The step loop then replays the charge sequence of
/// the step-by-step schedule from the recorded counts: per step, its
/// multiplies (elementary products plus the entries each fold touched) and
/// the AC/BC line reduces, then the next step's slice broadcasts, whose
/// payloads are the slices' entry counts.
///
/// The outer 3D driver runs layers concurrently, handing each layer a
/// private ChargeLog that it replays into the real Sim in layer order at the
/// barrier, so ledger state and stats sums are bit-identical to the serial
/// schedule.
///
/// The schedule is a charge policy only: both schedules emit the same
/// charge sequence — every collective and compute, with its group, payload
/// and position — so outputs, fault schedules and ABFT checksums are
/// bit-identical between them. The sync schedule charges every broadcast
/// plainly. The async schedule wraps each step's multiplies in an overlap
/// window (sim/async.hpp), posts the first ceil(bcasts/tile) of the next
/// step's broadcasts inside it as nonblocking collectives, and charges the
/// rest plainly after the window closes; only the windows' overlap credits
/// differ.
template <algebra::Monoid M, typename TA, typename TB, typename F>
DistMatrix<typename M::value_type> spgemm_2d(sim::ChargeLog& log,
                                             const Plan& plan, int rank0,
                                             const DistMatrix<TA>& a,
                                             const DistMatrix<TB>& b, F f,
                                             DistSpgemmStats* st) {
  using TC = typename M::value_type;
  const Variant2D v2 = plan.v2;
  const Layout& al = a.layout();
  const Layout& bl = b.layout();
  const Range rm = al.rows;
  const Range rk = al.cols;
  const Range rn = bl.cols;
  MFBC_CHECK(bl.rows == rk, "2D spgemm inner region mismatch");
  const int p2 = al.pr;
  const int p3 = al.pc;
  MFBC_CHECK(bl.pr == p2 && bl.pc == p3, "operands must share the layer grid");
  const Layout cl = Layout{rank0, p2, p3, rm, rn, false};

  // Multiplies charged while a window is open are tagged as overlapped
  // work; the ledger effect equals charge_compute either way.
  bool in_window = false;
  auto charge_multiply = [&](int rank, nnz_t ops, nnz_t touched) {
    const double charged =
        static_cast<double>(ops) + static_cast<double>(touched);
    if (in_window) {
      log.overlap_compute(rank, charged);
    } else {
      log.charge_compute(rank, charged);
    }
    if (st != nullptr) {
      st->total_ops += static_cast<double>(ops);
      st->note_rank_ops(rank, static_cast<double>(ops));
    }
  };

  if (p2 * p3 == 1) {
    // Degenerate single-rank layer: one local Gustavson multiply.
    sparse::SpgemmStats s;
    DistMatrix<TC> c(a.nrows(), b.ncols(), cl);
    {
      telemetry::Span kernel_span("dist.spgemm.kernel");
      c.block(0, 0) = sparse::spgemm<M>(a.block(0, 0), b.block(0, 0), f, &s,
                                        /*b_row_offset=*/rk.lo);
    }
    telemetry::Span charge_span("dist.spgemm.charge");
    charge_multiply(rank0, s.ops, 0);
    return c;
  }

  // Steps whose range is empty charge nothing and are skipped. A step's
  // A blocks sit in grid column ja (AB: k, AC: m — A being transposed —
  // split p3 ways) and its B blocks in grid row ib (AB: k, BC: n — B being
  // transposed — split p2 ways); AC's C rows and BC's C columns follow the
  // same split.
  const int steps = std::lcm(p2, p3);
  const Range split = v2 == Variant2D::kAB   ? rk
                      : v2 == Variant2D::kAC ? rm
                                             : rn;
  std::vector<int> active;
  for (int step = 0; step < steps; ++step) {
    if (split_range(split, steps, step).size() > 0) active.push_back(step);
  }
  if (active.empty()) return DistMatrix<TC>(a.nrows(), b.ncols(), cl);
  auto step_range = [&](int step) { return split_range(split, steps, step); };
  auto ja_of = [&](int step) { return step / (steps / p3); };
  auto ib_of = [&](int step) { return step / (steps / p2); };
  // Where step active[x]'s links start in the chains it feeds: AB adds one
  // link per step to every C block, AC p2 links to the blocks of C's grid
  // row ib_of(step), BC p3 links to those of C's grid column ja_of(step).
  const int per_step = v2 == Variant2D::kAB ? 1 : v2 == Variant2D::kAC ? p2 : p3;
  std::vector<std::size_t> first_seg(active.size());
  std::vector<std::size_t> links(static_cast<std::size_t>(std::max(p2, p3)), 0);
  for (std::size_t x = 0; x < active.size(); ++x) {
    const int line = v2 == Variant2D::kAB   ? 0
                     : v2 == Variant2D::kAC ? ib_of(active[x])
                                            : ja_of(active[x]);
    first_seg[x] = links[static_cast<std::size_t>(line)];
    links[static_cast<std::size_t>(line)] += static_cast<std::size_t>(per_step);
  }

  // The layer's wall time falls into two child spans: building the C
  // blocks (the local kernel) and replaying the charges.
  telemetry::Span kernel_span("dist.spgemm.kernel");
  using Segment = sparse::FoldSegment<TA, TB>;
  std::vector<Csr<TC>> blocks(static_cast<std::size_t>(p2 * p3));
  std::vector<std::vector<sparse::FoldCounts>> counts(blocks.size());
  support::parallel_for(blocks.size(), [&](std::size_t t) {
    const auto [i, j] = cl.grid_pos(t);
    const Range c_rows = cl.block_rows(i, j);
    const Range c_cols = cl.block_cols(i, j);
    auto link = [&](int ia, int jx, int ibx, int jb, Range rows, Range k,
                    Range cols) {
      // The k window shrinks to the rows the B block occupies (empty when
      // they miss it): an A entry outside them meets an empty B row.
      const Csr<TB>& bb = b.block(ibx, jb);
      const vid_t b_lo = bl.block_rows(ibx, jb).lo;
      const auto [occ_lo, occ_hi] = bb.occupied_rows();
      const vid_t k_lo = std::max(k.lo, b_lo + occ_lo);
      const vid_t k_hi = std::max(k_lo, std::min(k.hi, b_lo + occ_hi));
      return Segment{&a.block(ia, jx),
                     &bb,
                     rows.lo - c_rows.lo,
                     rows.hi - c_rows.lo,
                     al.block_rows(ia, jx).lo - c_rows.lo,
                     k_lo,
                     k_hi,
                     b_lo,
                     cols.lo,
                     cols.hi};
    };
    std::vector<Segment> chain;
    for (int step : active) {
      const Range r = step_range(step);
      switch (v2) {
        case Variant2D::kAB:
          chain.push_back(link(i, ja_of(step), ib_of(step), j, c_rows, r,
                               c_cols));
          break;
        case Variant2D::kAC:
          if (ib_of(step) != i) break;
          for (int x = 0; x < p2; ++x) {
            chain.push_back(link(x, ja_of(step), x, j, r,
                                 al.block_cols(x, ja_of(step)), c_cols));
          }
          break;
        case Variant2D::kBC:
          if (ja_of(step) != j) break;
          for (int x = 0; x < p3; ++x) {
            chain.push_back(link(i, x, ib_of(step), x, c_rows,
                                 al.block_cols(i, x), r));
          }
          break;
      }
    }
    counts[t].resize(chain.size());
    blocks[t] = sparse::spgemm_fold<M>(
        c_rows.size(), b.ncols(), c_cols.lo, c_cols.hi,
        std::span<const Segment>(chain), f, counts[t].data(),
        sparse::tls_spgemm_workspace<TC>());
  });
  kernel_span.end();
  telemetry::Span charge_span("dist.spgemm.charge");

  // Broadcasts [from, to) of step `step`'s slices, A's grid-row slices
  // first, then B's grid-column slices; `post` issues them as nonblocking
  // collectives, which charge identically.
  const int na = v2 != Variant2D::kBC ? p2 : 0;
  const int nbcasts = na + (v2 != Variant2D::kAC ? p3 : 0);
  auto charge_bcasts = [&](int step, int from, int to, bool post) {
    const Range r = step_range(step);
    for (int x = from; x < to; ++x) {
      const bool of_a = x < na;
      const int y = of_a ? x : x - na;
      const nnz_t entries =
          of_a ? (v2 == Variant2D::kAB ? nnz_in_cols(a, y, ja_of(step), r)
                                       : nnz_in_rows(a, y, ja_of(step), r))
               : (v2 == Variant2D::kAB ? nnz_in_rows(b, ib_of(step), y, r)
                                       : nnz_in_cols(b, ib_of(step), y, r));
      const std::vector<int> group = of_a ? cl.row_group(y) : cl.col_group(y);
      const double words =
          static_cast<double>(entries) *
          (of_a ? sim::sparse_entry_words<TA>() : sim::sparse_entry_words<TB>());
      if (post) {
        log.post_bcast(group, words);
      } else {
        log.charge_bcast(group, words);
      }
    }
  };

  // Step x's multiplies, in the step-by-step schedule's order. AB charges
  // each block its products plus its fold's union work; an AC/BC line
  // charges each rank its products plus its partial's entries, then reduces
  // the line's share of the C block.
  DistMatrix<TC> c(a.nrows(), b.ncols(), cl, std::move(blocks));
  auto charge_step = [&](std::size_t x) {
    const int step = active[x];
    const Range r = step_range(step);
    const std::size_t s0 = first_seg[x];
    auto charge_link = [&](std::size_t t, std::size_t s, int rank, bool ab) {
      const sparse::FoldCounts& n = counts[t][s];
      charge_multiply(rank, n.ops,
                      n.partial_nnz + (ab ? n.running_nnz : 0));
    };
    switch (v2) {
      case Variant2D::kAB:
        for (std::size_t t = 0; t < counts.size(); ++t) {
          const auto [i, j] = cl.grid_pos(t);
          charge_link(t, s0, cl.rank_at(i, j), true);
        }
        break;
      case Variant2D::kAC: {
        const int ic = ib_of(step);
        for (int j = 0; j < p3; ++j) {
          const auto t = static_cast<std::size_t>(ic * p3 + j);
          for (int y = 0; y < p2; ++y) {
            charge_link(t, s0 + static_cast<std::size_t>(y), cl.rank_at(y, j),
                        false);
          }
          log.charge_reduce(cl.col_group(j),
                            static_cast<double>(nnz_in_rows(c, ic, j, r)) *
                                sim::sparse_entry_words<TC>());
        }
        break;
      }
      case Variant2D::kBC: {
        const int jc = ja_of(step);
        for (int i = 0; i < p2; ++i) {
          const auto t = static_cast<std::size_t>(i * p3 + jc);
          for (int y = 0; y < p3; ++y) {
            charge_link(t, s0 + static_cast<std::size_t>(y), cl.rank_at(i, y),
                        false);
          }
          log.charge_reduce(cl.row_group(i),
                            static_cast<double>(nnz_in_cols(c, i, jc, r)) *
                                sim::sparse_entry_words<TC>());
        }
        break;
      }
    }
  };

  const bool async = plan.is_async();
  const int tile = std::max(plan.tile, 1);
  const std::vector<int> layer_ranks = cl.ranks();
  // Step 0's broadcasts have nothing to hide behind: they charge plainly.
  charge_bcasts(active[0], 0, nbcasts, /*post=*/false);
  for (std::size_t x = 0; x < active.size(); ++x) {
    const bool last = x + 1 == active.size();
    if (async) {
      log.overlap_open(layer_ranks, -1.0);
      in_window = true;
    }
    charge_step(x);
    int posted = 0;
    if (!last) {
      if (async) posted = (nbcasts + tile - 1) / tile;
      charge_bcasts(active[x + 1], 0, posted, /*post=*/true);
    }
    if (async) {
      log.overlap_close();
      in_window = false;
    }
    // The un-posted rest charges plainly, directly after the window: the
    // same contiguous position the sync schedule charges it at.
    if (!last) charge_bcasts(active[x + 1], posted, nbcasts, /*post=*/false);
  }
  return c;
}

}  // namespace detail

/// Cache of operand copies keyed by home layout.
///
/// CTF amortizes the mapping of a reused operand "over (up to d) sparse
/// matrix multiplications and over the n²/cm batches, since A is always the
/// same adjacency matrix" (proof of Thm 5.1). A HomeCache passed to spgemm
/// realizes that amortization: the first multiply with a given plan pays the
/// redistribution/replication of B, subsequent multiplies reuse the copies
/// for free.
///
/// One host copy serves every home it was inserted under. The layer homes
/// of a replicated B (1D-B and 3D-B plans) differ only in rank offset, so
/// find() returns layer 0's copy for each of them, laid out on layer 0's
/// ranks; detail::spgemm_2d takes its layer's first rank apart from the
/// operands it reads. Copies are never written after insert, so sharing one
/// changes nothing a simulated rank reads. A one-layer multiply whose B
/// already sits on its home reads B in place and stores nothing.
template <typename T>
class HomeCache {
 public:
  /// The copy stored under home `l`, or null.
  const DistMatrix<T>* find(const Layout& l) const {
    for (const auto& [home, copy] : homes_) {
      if (home == l) return &copies_[copy];
    }
    return nullptr;
  }

  /// Store `m` once, under every layout in `homes`. Pointers from find()
  /// stay valid until clear().
  void insert(std::span<const Layout> homes, DistMatrix<T> m) {
    bytes_ += m.bytes();
    copies_.push_back(std::move(m));
    for (const Layout& h : homes) homes_.emplace_back(h, copies_.size() - 1);
  }

  /// Host bytes of the stored blocks, each shared copy counted once.
  std::size_t bytes() const { return bytes_; }

  void clear() {
    homes_.clear();
    copies_.clear();
    bytes_ = 0;
  }

 private:
  std::deque<DistMatrix<T>> copies_;  ///< a deque keeps their addresses
  std::vector<std::pair<Layout, std::size_t>> homes_;  ///< home → copy
  std::size_t bytes_ = 0;
};

namespace detail {

/// dist::spgemm's body. It reads `a` in place; `consumed`, when set, is
/// `a` itself, handed over by the caller and released as soon as nothing
/// reads it.
template <algebra::Monoid M, typename TA, typename TB, typename F>
DistMatrix<typename M::value_type> run_spgemm(
    sim::Sim& sim, const Plan& plan, const DistMatrix<TA>& a,
    DistMatrix<TA>* consumed, const DistMatrix<TB>& b, F f, Layout out_layout,
    DistSpgemmStats* st, HomeCache<TB>* b_cache) {
  using TC = typename M::value_type;
  // Redistribution never merges: operands are rebuilt keep-first.
  using sparse::KeepFirst;
  MFBC_CHECK(a.ncols() == b.nrows(), "spgemm inner dimension mismatch");
  MFBC_CHECK(plan.total_ranks() <= sim.nranks(),
             "plan uses more ranks than the simulated machine has");
  // What telemetry, the observer and delivery need of A, read before a
  // consumed A is released.
  const vid_t a_nrows = a.nrows();
  const vid_t a_ncols = a.ncols();
  const nnz_t a_nnz = a.nnz();

  // One telemetry span per distributed multiply: plan, operand/result nnz,
  // and the ledger's critical-path delta over the multiply. The delta attrs
  // are only computed when a trace is being recorded.
  telemetry::Span tele_span("dist.spgemm");
  telemetry::count("dist.spgemm.calls");
  std::optional<sim::Cost> tele_before;
  if (tele_span.active()) {
    tele_span.attr("plan", plan.to_string());
    tele_span.attr("nnz_a", static_cast<std::int64_t>(a_nnz));
    tele_span.attr("nnz_b", static_cast<std::int64_t>(b.nnz()));
    tele_before = sim.ledger().critical();
  }
  // Observation hook (tune/observer.hpp): while an observer is installed,
  // every multiply records its plan, the §5.2 prediction on the *actual*
  // operand nnz, and the measured critical-path delta. Measured ops need the
  // stats struct even when the caller didn't ask for one.
  tune::Observer* obs = tune::active_observer();
  std::optional<sim::Cost> obs_before;
  DistSpgemmStats obs_stats_storage;
  double obs_ops_before = 0;
  if (obs != nullptr) {
    obs_before = sim.ledger().critical();
    if (st == nullptr) st = &obs_stats_storage;
    obs_ops_before = st->total_ops;
  }
  auto tele_finish = [&](DistMatrix<TC> c) {
    if (tele_before.has_value()) {
      const sim::Cost delta = sim.ledger().critical() - *tele_before;
      tele_span.attr("nnz_c", static_cast<std::int64_t>(c.nnz()));
      tele_span.attr("crit_words_delta", delta.words);
      tele_span.attr("crit_msgs_delta", delta.msgs);
      tele_span.attr("crit_seconds_delta", delta.total_seconds());
    }
    if (obs != nullptr && obs_before.has_value()) {
      tune::Observation o;
      o.plan = plan;
      o.nnz_a = static_cast<double>(a_nnz);
      o.nnz_b = static_cast<double>(b.nnz());
      o.nnz_c = static_cast<double>(c.nnz());
      o.ops = st->total_ops - obs_ops_before;
      const auto est = MultiplyStats::estimated(
          a_nrows, a_ncols, b.ncols(), o.nnz_a, o.nnz_b,
          sim::sparse_entry_words<TA>(), sim::sparse_entry_words<TB>(),
          sim::sparse_entry_words<TC>());
      o.est_ops = est.ops;
      o.est_nnz_c = est.nnz_c;
      o.predicted = model_cost(plan, est, sim.model());
      o.measured = sim.ledger().critical() - *obs_before;
      obs->record(std::move(o));
    }
    return c;
  };
  const Range rm = a.layout().rows;
  const Range rk = a.layout().cols;
  const Range rn = b.layout().cols;
  MFBC_CHECK(b.layout().rows == rk, "operand inner regions must match");

  const int p1 = plan.p1, p2 = plan.p2, p3 = plan.p3;
  const int layer_sz = p2 * p3;

  // The multiply's wall time falls into three child spans: mapping the
  // operands onto their per-layer homes, the layer multiplies, and
  // delivering the product.
  telemetry::Span map_span("dist.spgemm.map");

  // Per-layer operand regions and home layouts.
  std::vector<Layout> a_homes, b_homes;
  a_homes.reserve(static_cast<std::size_t>(p1));
  b_homes.reserve(static_cast<std::size_t>(p1));
  for (int l = 0; l < p1; ++l) {
    Range lrm = rm, lrk = rk, lrn = rn;
    if (p1 > 1) {
      switch (plan.v1) {
        case Variant1D::kA: lrn = split_range(rn, p1, l); break;
        case Variant1D::kB: lrm = split_range(rm, p1, l); break;
        case Variant1D::kC: lrk = split_range(rk, p1, l); break;
      }
    }
    auto h = homes_2d(plan.v2, l * layer_sz, p2, p3, lrm, lrk, lrn);
    a_homes.push_back(h.a);
    b_homes.push_back(h.b);
  }

  // Per-layer operands are read through pointers: into the copies mapped
  // here, into the HomeCache, or at the operand itself when it already sits
  // on layer 0's home. A replicated operand (A of a 3D-A plan, B of a 1D-B or
  // 3D-B plan) has one copy, on layer 0's home, that every layer reads; its
  // replication is charged, not copied.
  std::vector<DistMatrix<TA>> a_fresh;
  std::vector<DistMatrix<TB>> b_fresh;
  std::vector<const DistMatrix<TA>*> as;
  std::vector<const DistMatrix<TB>*> bs;

  // B-side mapping, with optional amortization through the cache: if every
  // per-layer home of B for this plan is cached, read them for free;
  // otherwise map (charging) and move the copies into the cache. A
  // one-layer plan whose B already sits on its home reads it in place and
  // caches nothing: that mapping is free, cached or not.
  const bool b_split = p1 > 1 && plan.v1 != Variant1D::kB;  // kA and kC
  auto map_b = [&]() {
    if (p1 == 1 && b.layout() == b_homes[0]) {
      bs.push_back(&b);
      return;
    }
    if (b_cache != nullptr &&
        std::all_of(b_homes.begin(), b_homes.end(), [&](const Layout& h) {
          return b_cache->find(h) != nullptr;
        })) {
      for (const Layout& h : b_homes) bs.push_back(b_cache->find(h));
      return;
    }
    if (b_split) {
      b_fresh = split_to<KeepFirst<TB>>(sim, b, b_homes);
    } else {
      b_fresh.push_back(redistribute<KeepFirst<TB>>(sim, b, b_homes[0]));
      charge_replication(sim, b_fresh[0], b_homes);
    }
    if (b_cache == nullptr) {
      for (std::size_t l = 0; l < b_homes.size(); ++l) {
        bs.push_back(&b_fresh[b_split ? l : 0]);
      }
      return;
    }
    const std::span<const Layout> homes(b_homes);
    for (std::size_t x = 0; x < b_fresh.size(); ++x) {
      b_cache->insert(b_split ? homes.subspan(x, 1) : homes,
                      std::move(b_fresh[x]));
    }
    b_fresh.clear();
    for (const Layout& h : b_homes) bs.push_back(b_cache->find(h));
  };
  map_b();

  if (p1 > 1 && plan.v1 != Variant1D::kA) {  // kB and kC both split A
    a_fresh = split_to<KeepFirst<TA>>(sim, a, a_homes);
    for (const auto& m : a_fresh) as.push_back(&m);
  } else {
    // Every layer reads layer 0's home in place (a 3D-A plan charges the
    // replication without copying); `a` itself when it already sits there.
    const DistMatrix<TA>* a0 = &a;
    if (a.layout() != a_homes[0]) {
      a0 = &a_fresh.emplace_back(
          redistribute<KeepFirst<TA>>(sim, a, a_homes[0]));
    }
    charge_replication(sim, *a0, a_homes);
    as.assign(static_cast<std::size_t>(p1), a0);
  }
  // A consumed A that the layers do not read in place is done with.
  if (consumed != nullptr && !a_fresh.empty()) *consumed = DistMatrix<TA>{};
  map_span.end();

  // Layers are independent rank groups; run them concurrently, each charging
  // into a private ChargeLog replayed into the Sim in layer order at the
  // barrier (per-layer stats merge in the same order). Nested regions inside
  // spgemm_2d run inline on the layer's worker thread; a single layer is no
  // region, so its own loops reach the pool.
  std::vector<DistMatrix<TC>> cs(static_cast<std::size_t>(p1));
  {
    telemetry::Span layers_span("dist.spgemm.layers");
    std::vector<sim::ChargeLog> layer_logs(static_cast<std::size_t>(p1));
    std::vector<DistSpgemmStats> layer_stats(static_cast<std::size_t>(p1));
    support::parallel_for_replay(
        cs.size(),
        [&](std::size_t l) {
          cs[l] = spgemm_2d<M>(layer_logs[l], plan,
                               static_cast<int>(l) * layer_sz, *as[l], *bs[l],
                               f, st != nullptr ? &layer_stats[l] : nullptr);
        },
        [&](std::size_t l) {
          layer_logs[l].replay(sim);
          // Layers address disjoint absolute rank ranges, so merging their
          // per-rank vectors gives the exact fleet-wide max.
          if (st != nullptr) st->merge(layer_stats[l]);
        });
    // Nothing reads the mapped copies, or a consumed A, past the layers.
    a_fresh.clear();
    b_fresh.clear();
    if (consumed != nullptr) *consumed = DistMatrix<TA>{};
  }

  telemetry::Span deliver_span("dist.spgemm.deliver");
  if (p1 > 1 && plan.v1 == Variant1D::kC) {
    // Sparse-reduce the full-shape partial Cs across layers onto layer 0,
    // then deliver.
    for (int i = 0; i < p2; ++i) {
      for (int j = 0; j < p3; ++j) {
        std::vector<int> group;
        group.reserve(static_cast<std::size_t>(p1));
        for (int l = 0; l < p1; ++l) {
          group.push_back(cs[static_cast<std::size_t>(l)].layout().rank_at(i, j));
        }
        Csr<TC>& c0 = cs[0].block(i, j);
        for (int l = 1; l < p1; ++l) {
          c0 = sparse::ewise_union<M>(
              c0, cs[static_cast<std::size_t>(l)].block(i, j));
        }
        sim.charge_reduce(group, static_cast<double>(c0.nnz()) *
                                     sim::sparse_entry_words<TC>());
      }
    }
    cs.resize(1);
  }
  DistMatrix<TC> c =
      merge_to<M>(sim, a_nrows, b.ncols(), std::move(cs), out_layout);
  abft_verify<M>(sim, c);
  deliver_span.end();
  return tele_finish(std::move(c));
}

}  // namespace detail

/// Distributed C = A •⟨⊕,f⟩ B following `plan`; the result is delivered on
/// `out_layout`. Operands may be on any layout — they are remapped to the
/// plan's home layouts first (CTF's mapping step), with every move charged.
template <algebra::Monoid M, typename TA, typename TB, typename F>
DistMatrix<typename M::value_type> spgemm(sim::Sim& sim, const Plan& plan,
                                          const DistMatrix<TA>& a,
                                          const DistMatrix<TB>& b, F f,
                                          Layout out_layout,
                                          DistSpgemmStats* st = nullptr,
                                          HomeCache<TB>* b_cache = nullptr) {
  return detail::run_spgemm<M>(sim, plan, a,
                               static_cast<DistMatrix<TA>*>(nullptr), b, f,
                               out_layout, st, b_cache);
}

/// As above, consuming A: its blocks are freed as soon as nothing reads
/// them, once its layer homes are built or, when the layers read A in
/// place, once they are done. The product and every charge are the same
/// as the const& overload's.
template <algebra::Monoid M, typename TA, typename TB, typename F>
DistMatrix<typename M::value_type> spgemm(sim::Sim& sim, const Plan& plan,
                                          DistMatrix<TA>&& a,
                                          const DistMatrix<TB>& b, F f,
                                          Layout out_layout,
                                          DistSpgemmStats* st = nullptr,
                                          HomeCache<TB>* b_cache = nullptr) {
  return detail::run_spgemm<M>(sim, plan, a, &a, b, f, out_layout, st,
                               b_cache);
}

}  // namespace mfbc::dist
