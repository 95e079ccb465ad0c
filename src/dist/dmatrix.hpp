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
// critical-path ledger exactly where the bytes move.
#pragma once

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

  /// Distribute a sequentially held matrix from a root rank (CTF's bulk
  /// synchronous Tensor::write). Charges a scatter whose payload is the
  /// root's full matrix (§5.1: max words owned at start or end).
  template <algebra::Monoid M>
  static DistMatrix scatter(sim::Sim& sim, const Csr<T>& global,
                            Layout layout) {
    DistMatrix out(global.nrows(), global.ncols(), layout);
    std::vector<Coo<T>> parts(static_cast<std::size_t>(layout.nranks()));
    for (int i = 0; i < layout.pr; ++i) {
      for (int j = 0; j < layout.pc; ++j) {
        auto& part = parts[static_cast<std::size_t>(i * layout.pc + j)];
        part = Coo<T>(layout.block_rows(i, j).size(), global.ncols());
      }
    }
    // Bin the entries per owner block. A row stripe's entries land only in
    // that stripe's bins, so the stripes pack in parallel without sharing a
    // bin; within each bin the (row asc, col asc) push order matches the
    // serial pass exactly — bit-identical at every thread count.
    const int stripes = layout.row_splits();
    const bool serial = support::ThreadPool::in_parallel_region() ||
                        support::num_threads() <= 1 || stripes <= 1 ||
                        static_cast<std::size_t>(global.nnz()) < (1u << 15);
    auto pack_stripe = [&](std::size_t s) {
      const Range sr = split_range(layout.rows, stripes, static_cast<int>(s));
      for (vid_t r = sr.lo; r < sr.hi; ++r) {
        auto cols = global.row_cols(r);
        auto vals = global.row_vals(r);
        for (std::size_t x = 0; x < cols.size(); ++x) {
          if (!layout.cols.contains(cols[x])) {
            continue;  // entries outside the layout region are not represented
          }
          auto [bi, bj] = layout.owner(r, cols[x]);
          const Range rr = layout.block_rows(bi, bj);
          parts[static_cast<std::size_t>(bi * layout.pc + bj)].push(
              r - rr.lo, cols[x], vals[x]);
        }
      }
    };
    if (serial) {
      for (std::size_t s = 0; s < static_cast<std::size_t>(stripes); ++s) {
        pack_stripe(s);
      }
    } else {
      support::parallel_for(static_cast<std::size_t>(stripes), pack_stripe);
    }
    auto build_block = [&](std::size_t b) {
      out.blocks_[b] =
          Csr<T>::template from_coo<M>(std::move(parts[b]));
    };
    if (serial) {
      for (std::size_t b = 0; b < parts.size(); ++b) build_block(b);
    } else {
      support::parallel_for(parts.size(), build_block);
    }
    sim.charge_scatter(layout.ranks(), static_cast<double>(global.nnz()) *
                                           sim::sparse_entry_words<T>());
    return out;
  }

  /// Collect the matrix onto one rank (CTF's Tensor::read). Charges a gather
  /// with the full matrix as payload.
  Csr<T> gather(sim::Sim& sim) const {
    Coo<T> coo(nrows_, ncols_);
    // Unpack the blocks into one COO in block-major order. Per-block prefix
    // offsets pre-size the entry vector, so blocks fill disjoint slices in
    // parallel and land exactly where the serial append would put them.
    std::vector<std::size_t> offset(blocks_.size() + 1, 0);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      offset[b + 1] = offset[b] + static_cast<std::size_t>(blocks_[b].nnz());
    }
    coo.entries().resize(offset.back());
    auto fill_block = [&](std::size_t t) {
      const auto [i, j] = layout_.grid_pos(t);
      const Range rr = layout_.block_rows(i, j);
      const auto& b = block(i, j);
      std::size_t at = offset[t];
      for (vid_t r = 0; r < b.nrows(); ++r) {
        auto cols = b.row_cols(r);
        auto vals = b.row_vals(r);
        for (std::size_t x = 0; x < cols.size(); ++x) {
          coo.entries()[at++] = {rr.lo + r, cols[x], vals[x]};
        }
      }
    };
    if (support::ThreadPool::in_parallel_region() ||
        support::num_threads() <= 1 || blocks_.size() <= 1 ||
        offset.back() < (1u << 15)) {
      for (std::size_t t = 0; t < blocks_.size(); ++t) fill_block(t);
    } else {
      support::parallel_for(blocks_.size(), fill_block);
    }
    sim.charge_gather(layout_.ranks(),
                      static_cast<double>(nnz()) * sim::sparse_entry_words<T>());
    // Blocks tile the region disjointly, so no monoid merging is needed.
    return Csr<T>::template from_coo<sparse::KeepFirst<T>>(std::move(coo));
  }

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
  MFBC_CHECK(blocks.size() == static_cast<std::size_t>(l.nranks()),
             "one COO bin per grid position required");
  DistMatrix<T> out(nrows, ncols, l);
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) {
      out.block(i, j) = Csr<T>::template from_coo<M>(
          std::move(blocks[static_cast<std::size_t>(i * l.pc + j)]));
    }
  }
  return out;
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

/// Move a matrix (or a row/col sub-region of it) onto a new layout with one
/// personalized all-to-all: max per-rank send/receive volume is charged
/// (§6.2's sparse-to-sparse redistribution kernel).
template <algebra::Monoid M, typename T>
DistMatrix<T> redistribute(sim::Sim& sim, const DistMatrix<T>& src,
                           Layout target) {
  if (src.layout() == target) return src;  // already in place: free
  DistMatrix<T> out(src.nrows(), src.ncols(), target);
  const Layout& sl = src.layout();
  std::vector<Coo<T>> parts;
  parts.reserve(static_cast<std::size_t>(target.nranks()));
  for (int i = 0; i < target.pr; ++i) {
    for (int j = 0; j < target.pc; ++j) {
      parts.emplace_back(target.block_rows(i, j).size(), src.ncols());
    }
  }
  std::vector<double> send_words(static_cast<std::size_t>(sim.nranks()), 0.0);
  for (int i = 0; i < sl.pr; ++i) {
    for (int j = 0; j < sl.pc; ++j) {
      const Range rr = sl.block_rows(i, j);
      const auto& b = src.block(i, j);
      const int src_rank = sl.rank_at(i, j);
      for (vid_t r = 0; r < b.nrows(); ++r) {
        const vid_t gr = rr.lo + r;
        if (!target.rows.contains(gr)) continue;
        auto cols = b.row_cols(r);
        auto vals = b.row_vals(r);
        for (std::size_t x = 0; x < cols.size(); ++x) {
          if (!target.cols.contains(cols[x])) continue;
          auto [ti, tj] = target.owner(gr, cols[x]);
          const Range trr = target.block_rows(ti, tj);
          parts[static_cast<std::size_t>(ti * target.pc + tj)].push(
              gr - trr.lo, cols[x], vals[x]);
          if (target.rank_at(ti, tj) != src_rank) {
            send_words[static_cast<std::size_t>(src_rank)] +=
                sim::sparse_entry_words<T>();
          }
        }
      }
    }
  }
  double max_words = 0;
  for (int b = 0; b < target.nranks(); ++b) {
    // Receive volume per target rank; entries it already held are not
    // separable here, so this slightly over-counts receives — conservative.
    max_words = std::max(
        max_words, static_cast<double>(parts[static_cast<std::size_t>(b)].nnz()) *
                       sim::sparse_entry_words<T>());
  }
  for (double w : send_words) max_words = std::max(max_words, w);

  // The collective spans both old and new rank sets.
  std::vector<int> group = sl.ranks();
  for (int r : target.ranks()) group.push_back(r);
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  sim.charge_alltoall(group, max_words);

  for (int i = 0; i < target.pr; ++i) {
    for (int j = 0; j < target.pc; ++j) {
      out.block(i, j) = Csr<T>::template from_coo<M>(
          std::move(parts[static_cast<std::size_t>(i * target.pc + j)]));
    }
  }
  return out;
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
