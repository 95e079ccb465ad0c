// Distributed sparse matrix over the simulated machine (paper §6.2).
//
// A DistMatrix<T> tiles the region described by its Layout across virtual
// ranks; each block is a Csr with *local* row indices (relative to the
// block's global row range) and *global* column indices. Global columns keep
// the SUMMA-style k-slice loops free of reindexing; local rows keep per-block
// rowptr arrays small.
//
// All collective data movement (scatter, gather, redistribution) goes
// through sim::Sim so that words and messages are charged to the
// critical-path ledger exactly where the bytes move. Every move builds its
// target blocks with one routine, detail::assemble: blocks tile contiguous
// ranges and source rows are already sorted, so each target row is a
// concatenation of column runs cut from the source rows, with no per-entry
// owner lookup and no sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "dist/procgrid.hpp"
#include "sim/comm.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "support/parallel.hpp"

namespace mfbc::dist {

using sparse::Coo;
using sparse::Csr;
using sparse::nnz_t;

namespace detail {

/// Where a block sits: its global rows and columns, and its virtual rank.
struct Tile {
  Range rows;
  Range cols;
  int rank = 0;
};

/// The tiles of `l`'s blocks, in row-major grid order.
inline std::vector<Tile> tiles_of(const Layout& l) {
  std::vector<Tile> out;
  out.reserve(static_cast<std::size_t>(l.nranks()));
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) {
      out.push_back({l.block_rows(i, j), l.block_cols(i, j), l.rank_at(i, j)});
    }
  }
  return out;
}

/// A block a move reads: `csr` holds global rows tile.rows as local rows
/// 0.., each row's global columns sorted and inside tile.cols.
template <typename T>
struct Source {
  Tile tile;
  const Csr<T>* csr = nullptr;
};

template <typename T>
struct Assembled {
  std::vector<Csr<T>> blocks;  ///< one per target tile, in tile order
  /// The most entries any target block received, or any source rank sent to
  /// a block on another rank: the per-rank volume of the move.
  nnz_t max_rank_entries = 0;
};

/// Build every target tile's block from the sources. Sources must tile
/// disjoint regions; entries outside every target tile are left behind.
///
/// A target block walks its global rows in order. For each row it visits
/// the overlapping sources in ascending column order and copies the run of
/// the source row that falls in the tile's columns, found by binary search
/// unless the source's columns lie inside the tile's. Like
/// Csr::from_coo<M>, it drops entries equal to M's identity; the counts
/// include them, as the entries still travel.
///
/// Target blocks are independent: they build in one pool region, each
/// counting what it took from each source, and the counts fold in tile
/// order after the barrier. Counts are integers, so the fold is exact and
/// the result is bit-identical at every thread count.
template <algebra::Monoid M, typename T>
Assembled<T> assemble(const std::vector<Source<T>>& sources,
                      const std::vector<Tile>& targets, vid_t ncols) {
  struct Slot {
    std::vector<std::size_t> from;  ///< overlapping sources, by column
    std::vector<nnz_t> taken;       ///< entries taken from each of them
  };
  auto overlap = [](Range a, Range b) {
    return std::max(a.lo, b.lo) < std::min(a.hi, b.hi);
  };
  Assembled<T> out;
  out.blocks.resize(targets.size());
  std::vector<Slot> slots(targets.size());
  auto build = [&](std::size_t t) {
    const Tile& tt = targets[t];
    Slot& slot = slots[t];
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const Source<T>& src = sources[s];
      if (src.csr->nnz() > 0 && overlap(src.tile.rows, tt.rows) &&
          overlap(src.tile.cols, tt.cols)) {
        slot.from.push_back(s);
      }
    }
    std::sort(slot.from.begin(), slot.from.end(),
              [&](std::size_t x, std::size_t y) {
                const Tile& a = sources[x].tile;
                const Tile& b = sources[y].tile;
                return a.cols.lo != b.cols.lo ? a.cols.lo < b.cols.lo
                                              : a.rows.lo < b.rows.lo;
              });
    slot.taken.assign(slot.from.size(), 0);
    // Calls visit(k, first, last) for each run [first, last) of source
    // from[k]'s entries in global row r that lands in this block, in
    // column order.
    auto row_runs = [&](vid_t r, auto&& visit) {
      for (std::size_t k = 0; k < slot.from.size(); ++k) {
        const Source<T>& src = sources[slot.from[k]];
        if (!src.tile.rows.contains(r)) continue;
        const auto rp = src.csr->rowptr();
        const auto lr = static_cast<std::size_t>(r - src.tile.rows.lo);
        nnz_t first = rp[lr];
        nnz_t last = rp[lr + 1];
        if (first == last) continue;
        if (src.tile.cols.lo < tt.cols.lo || src.tile.cols.hi > tt.cols.hi) {
          const vid_t* col = src.csr->col().data();
          if (col[first] >= tt.cols.hi || col[last - 1] < tt.cols.lo) continue;
          first = std::lower_bound(col + first, col + last, tt.cols.lo) - col;
          last = std::lower_bound(col + first, col + last, tt.cols.hi) - col;
        }
        if (first < last) visit(k, first, last);
      }
    };
    std::vector<nnz_t> rowptr(static_cast<std::size_t>(tt.rows.size()) + 1, 0);
    for (vid_t r = tt.rows.lo; r < tt.rows.hi; ++r) {
      nnz_t& kept = rowptr[static_cast<std::size_t>(r - tt.rows.lo) + 1];
      row_runs(r, [&](std::size_t k, nnz_t first, nnz_t last) {
        slot.taken[k] += last - first;
        const T* val = sources[slot.from[k]].csr->val().data();
        for (nnz_t x = first; x < last; ++x) kept += !M::is_identity(val[x]);
      });
    }
    for (std::size_t r = 1; r < rowptr.size(); ++r) rowptr[r] += rowptr[r - 1];
    std::vector<vid_t> col(static_cast<std::size_t>(rowptr.back()));
    std::vector<T> val(static_cast<std::size_t>(rowptr.back()));
    std::size_t at = 0;
    for (vid_t r = tt.rows.lo; r < tt.rows.hi; ++r) {
      const auto lr = static_cast<std::size_t>(r - tt.rows.lo);
      if (rowptr[lr] == rowptr[lr + 1]) continue;
      row_runs(r, [&](std::size_t k, nnz_t first, nnz_t last) {
        const vid_t* from_col = sources[slot.from[k]].csr->col().data();
        const T* from_val = sources[slot.from[k]].csr->val().data();
        for (nnz_t x = first; x < last; ++x) {
          if (M::is_identity(from_val[x])) continue;
          col[at] = from_col[x];
          val[at] = from_val[x];
          ++at;
        }
      });
    }
    out.blocks[t] = Csr<T>(tt.rows.size(), ncols, std::move(rowptr),
                           std::move(col), std::move(val));
  };
  int top_rank = 0;
  for (const Source<T>& src : sources) {
    top_rank = std::max(top_rank, src.tile.rank);
  }
  std::vector<nnz_t> sent(static_cast<std::size_t>(top_rank) + 1, 0);
  support::parallel_for_replay(targets.size(), build, [&](std::size_t t) {
    const Slot& slot = slots[t];
    nnz_t received = 0;
    for (std::size_t k = 0; k < slot.from.size(); ++k) {
      received += slot.taken[k];
      const int from_rank = sources[slot.from[k]].tile.rank;
      if (from_rank != targets[t].rank) {
        sent[static_cast<std::size_t>(from_rank)] += slot.taken[k];
      }
    }
    out.max_rank_entries = std::max(out.max_rank_entries, received);
  });
  for (nnz_t n : sent) out.max_rank_entries = std::max(out.max_rank_entries, n);
  return out;
}

}  // namespace detail

template <typename T>
class DistMatrix {
 public:
  DistMatrix() = default;

  /// Empty matrix with the given global shape tiled per `layout`.
  DistMatrix(vid_t nrows, vid_t ncols, Layout layout)
      : nrows_(nrows), ncols_(ncols), layout_(layout) {
    MFBC_CHECK(layout.rows.lo >= 0 && layout.rows.hi <= nrows &&
                   layout.cols.lo >= 0 && layout.cols.hi <= ncols,
               "layout region exceeds matrix shape");
    blocks_.reserve(static_cast<std::size_t>(layout.nranks()));
    for (int i = 0; i < layout.pr; ++i) {
      for (int j = 0; j < layout.pc; ++j) {
        blocks_.emplace_back(layout.block_rows(i, j).size(), ncols);
      }
    }
  }

  /// A matrix tiled per `layout` from its blocks, in row-major grid order.
  DistMatrix(vid_t nrows, vid_t ncols, Layout layout,
             std::vector<Csr<T>> blocks)
      : nrows_(nrows), ncols_(ncols), layout_(layout),
        blocks_(std::move(blocks)) {
    MFBC_CHECK(layout.rows.lo >= 0 && layout.rows.hi <= nrows &&
                   layout.cols.lo >= 0 && layout.cols.hi <= ncols,
               "layout region exceeds matrix shape");
    MFBC_CHECK(blocks_.size() == static_cast<std::size_t>(layout.nranks()),
               "one block per grid position required");
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      const auto [i, j] = layout.grid_pos(t);
      MFBC_CHECK(blocks_[t].nrows() == layout.block_rows(i, j).size() &&
                     blocks_[t].ncols() == ncols,
                 "block shape does not match its grid position");
    }
  }

  /// Distribute a sequentially held matrix from a root rank (CTF's bulk
  /// synchronous Tensor::write). Charges a scatter whose payload is the
  /// root's full matrix (§5.1: max words owned at start or end). Entries
  /// outside the layout region are not represented.
  template <algebra::Monoid M>
  static DistMatrix scatter(sim::Sim& sim, const Csr<T>& global,
                            Layout layout) {
    const std::vector<detail::Source<T>> root{
        {{Range{0, global.nrows()}, Range{0, global.ncols()}, layout.rank0},
         &global}};
    DistMatrix out(global.nrows(), global.ncols(), layout,
                   detail::assemble<M>(root, detail::tiles_of(layout),
                                       global.ncols())
                       .blocks);
    sim.charge_scatter(layout.ranks(), static_cast<double>(global.nnz()) *
                                           sim::sparse_entry_words<T>());
    return out;
  }

  /// Collect the matrix onto one rank (CTF's Tensor::read). Charges a gather
  /// with the full matrix as payload.
  Csr<T> gather(sim::Sim& sim) const;

  vid_t nrows() const { return nrows_; }
  vid_t ncols() const { return ncols_; }
  const Layout& layout() const { return layout_; }

  Csr<T>& block(int i, int j) {
    return blocks_[static_cast<std::size_t>(i * layout_.pc + j)];
  }
  const Csr<T>& block(int i, int j) const {
    return blocks_[static_cast<std::size_t>(i * layout_.pc + j)];
  }

  nnz_t nnz() const {
    nnz_t total = 0;
    for (const auto& b : blocks_) total += b.nnz();
    return total;
  }

  /// Host bytes of the blocks' row pointers, column indices and values.
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& b : blocks_) {
      total += b.rowptr().size_bytes() + b.col().size_bytes() +
               b.val().size_bytes();
    }
    return total;
  }

  nnz_t max_block_nnz() const {
    nnz_t mx = 0;
    for (const auto& b : blocks_) mx = std::max(mx, b.nnz());
    return mx;
  }

  friend bool operator==(const DistMatrix& a, const DistMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.layout_ == b.layout_ && a.blocks_ == b.blocks_;
  }

 private:
  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  Layout layout_;
  std::vector<Csr<T>> blocks_;
};

/// Assemble a DistMatrix from per-block COO bins (one per grid position, in
/// row-major grid order). Purely local: used by the frontier algorithms to
/// build each iteration's frontier from their rank-local state updates.
template <algebra::Monoid M, typename T>
DistMatrix<T> from_blocks(vid_t nrows, vid_t ncols, const Layout& l,
                          std::vector<Coo<T>> blocks) {
  std::vector<Csr<T>> built;
  built.reserve(blocks.size());
  for (auto& bin : blocks) {
    built.push_back(Csr<T>::template from_coo<M>(std::move(bin)));
  }
  return DistMatrix<T>(nrows, ncols, l, std::move(built));
}

/// Empty per-block COO bins matching a layout (the counterpart builder).
template <typename T>
std::vector<Coo<T>> empty_bins(const Layout& l, vid_t ncols) {
  std::vector<Coo<T>> bins;
  bins.reserve(static_cast<std::size_t>(l.nranks()));
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) {
      bins.emplace_back(l.block_rows(i, j).size(), ncols);
    }
  }
  return bins;
}

namespace detail {

/// Append `m`'s blocks to `out` as move sources, in row-major grid order.
template <typename T>
void add_sources(const DistMatrix<T>& m, std::vector<Source<T>>& out) {
  const Layout& l = m.layout();
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) {
      out.push_back({{l.block_rows(i, j), l.block_cols(i, j), l.rank_at(i, j)},
                     &m.block(i, j)});
    }
  }
}

/// Move the sources' entries onto the target tiles with one personalized
/// all-to-all over the union of both rank sets (§6.2's sparse-to-sparse
/// redistribution kernel), charged at the max per-rank send or receive
/// volume. Receives count the entries a rank already held, which cannot be
/// told apart here — a slight, conservative over-count.
template <algebra::Monoid M, typename T>
std::vector<Csr<T>> move_blocks(sim::Sim& sim,
                                const std::vector<Source<T>>& sources,
                                const std::vector<Tile>& targets,
                                vid_t ncols) {
  Assembled<T> moved = assemble<M>(sources, targets, ncols);
  std::vector<int> group;
  group.reserve(sources.size() + targets.size());
  for (const Source<T>& src : sources) group.push_back(src.tile.rank);
  for (const Tile& t : targets) group.push_back(t.rank);
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  sim.charge_alltoall(group, static_cast<double>(moved.max_rank_entries) *
                                 sim::sparse_entry_words<T>());
  return std::move(moved.blocks);
}

}  // namespace detail

template <typename T>
Csr<T> DistMatrix<T>::gather(sim::Sim& sim) const {
  std::vector<detail::Source<T>> blocks;
  detail::add_sources(*this, blocks);
  // Blocks tile the region disjointly, so nothing merges.
  auto root = detail::assemble<sparse::KeepFirst<T>>(
      blocks, {{Range{0, nrows_}, Range{0, ncols_}, layout_.rank0}}, ncols_);
  sim.charge_gather(layout_.ranks(),
                    static_cast<double>(nnz()) * sim::sparse_entry_words<T>());
  return std::move(root.blocks[0]);
}

/// Move a matrix (or a row/col sub-region of it) onto a new layout with one
/// personalized all-to-all.
template <algebra::Monoid M, typename T>
DistMatrix<T> redistribute(sim::Sim& sim, const DistMatrix<T>& src,
                           Layout target) {
  if (src.layout() == target) return src;  // already in place: free
  std::vector<detail::Source<T>> sources;
  detail::add_sources(src, sources);
  return DistMatrix<T>(src.nrows(), src.ncols(), target,
                       detail::move_blocks<M>(sim, sources,
                                              detail::tiles_of(target),
                                              src.ncols()));
}

/// Elementwise a ⊕ b for identically laid out matrices: purely local.
template <algebra::Monoid M>
DistMatrix<typename M::value_type> ewise_union(
    sim::Sim& sim, const DistMatrix<typename M::value_type>& a,
    const DistMatrix<typename M::value_type>& b) {
  using T = typename M::value_type;
  MFBC_CHECK(a.layout() == b.layout(), "ewise_union layouts must match");
  MFBC_CHECK(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
             "ewise_union shape mismatch");
  DistMatrix<T> out(a.nrows(), a.ncols(), a.layout());
  for (int i = 0; i < a.layout().pr; ++i) {
    for (int j = 0; j < a.layout().pc; ++j) {
      out.block(i, j) = sparse::ewise_union<M>(a.block(i, j), b.block(i, j));
      sim.charge_compute(
          a.layout().rank_at(i, j),
          static_cast<double>(a.block(i, j).nnz() + b.block(i, j).nnz()));
    }
  }
  return out;
}

/// Blockwise filter (CTF's sparsify); purely local.
template <typename T, typename Pred>
DistMatrix<T> filter(sim::Sim& sim, const DistMatrix<T>& a, Pred pred) {
  DistMatrix<T> out(a.nrows(), a.ncols(), a.layout());
  for (int i = 0; i < a.layout().pr; ++i) {
    for (int j = 0; j < a.layout().pc; ++j) {
      const Range rr = a.layout().block_rows(i, j);
      out.block(i, j) = sparse::filter(
          a.block(i, j),
          [&](vid_t r, vid_t c, const T& v) { return pred(rr.lo + r, c, v); });
      sim.charge_compute(a.layout().rank_at(i, j),
                         static_cast<double>(a.block(i, j).nnz()));
    }
  }
  return out;
}

}  // namespace mfbc::dist
