// Generalized sparse matrix–matrix multiplication  C = A •⟨⊕,f⟩ B
// (paper §3): output element C(i,j) = ⊕_k f(A(i,k), B(k,j)) over a
// commutative monoid (D_C, ⊕) and bridge function f : D_A × D_B → D_C.
//
// The kernel is Gustavson's row-wise algorithm with a sparse accumulator:
// optimal O(ops(A,B)) work, which is what the paper's cost model assumes for
// the local block multiplies (§5.1: "all the considered algorithms have an
// optimal computation cost"). Every output row accumulates once and emits
// once, in column order: by scanning the dense occupancy array over the
// row's column span when that span is small next to the row's count, and by
// sorting the touched columns otherwise. Both give the same bytes.
//
// The `b_row_offset` parameter lets a caller multiply against a row *slice*
// of a conceptually larger B without materializing a huge rowptr: row k of
// the conceptual matrix lives at row (k - b_row_offset) of the passed slice,
// and k outside the slice contributes nothing.
//
// spgemm_fold builds one output block from an ordered chain of block
// products — the distributed 2D driver's steps (§5.2.2) — without slicing
// an operand or materializing a partial: each link accumulates in the dense
// accumulator and folds into a running row exactly as ewise_union(running,
// partial) would.
//
// Callers that multiply many blocks with the same output width (the
// distributed variants run O(p^1.5) block multiplies per SpGEMM) pass a
// SpgemmWorkspace so the dense accumulator arrays are allocated once per
// thread instead of once per call.
#pragma once

#include <algorithm>
#include <span>
#include <typeinfo>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/csr.hpp"

namespace mfbc::sparse {

/// Work counters for one multiplication; ops matches the paper's
/// ops(A,B) = number of nonzero elementary products.
struct SpgemmStats {
  nnz_t ops = 0;
};

/// Reusable dense-accumulator scratch for spgemm over value type TC.
///
/// The kernel's invariant is that the scratch is clean (identity / 0) on
/// exit from every call, so reuse across calls only requires growing to the
/// widest output seen. Two different monoids can share TC with *different*
/// identity values (SumMonoid and TropicalMinMonoid are both double), so the
/// workspace remembers which monoid last filled it and refills when the
/// monoid changes.
///
/// Next to the accumulator of one product row, spgemm_fold keeps a running
/// row sized to its output block's column window (`run_*`): run_flag is 1
/// for a live entry and 2 for one a fold cancelled to the identity, which
/// stays in run_touched so a later fold can bring it back.
template <typename TC>
class SpgemmWorkspace {
 public:
  /// Grow (and, on monoid change, refill) the scratch for outputs of width
  /// `ncols` and, for spgemm_fold, a running row of `window` columns,
  /// accumulated under monoid M.
  template <algebra::Monoid M>
  void prepare(vid_t ncols, vid_t window = 0) {
    static_assert(std::is_same_v<typename M::value_type, TC>,
                  "workspace value type must match the monoid's");
    const std::type_info* tag = &typeid(M);
    const auto n = static_cast<std::size_t>(ncols);
    const auto w = static_cast<std::size_t>(window);
    if (monoid_ != tag) {
      acc_.assign(std::max(n, acc_.size()), M::identity());
      occupied_.assign(acc_.size(), 0);
      run_acc_.assign(std::max(w, run_acc_.size()), M::identity());
      run_flag_.assign(run_acc_.size(), 0);
      monoid_ = tag;
    } else {
      if (acc_.size() < n) {
        acc_.resize(n, M::identity());
        occupied_.resize(n, 0);
      }
      if (run_acc_.size() < w) {
        run_acc_.resize(w, M::identity());
        run_flag_.resize(w, 0);
      }
    }
    touched_.clear();
    run_touched_.clear();
  }

  /// Mark the scratch dirty so the next prepare() refills it. The kernels
  /// call this when an exception unwinds mid-row (the clean-on-exit
  /// invariant no longer holds).
  void invalidate() { monoid_ = nullptr; }

  std::vector<TC>& acc() { return acc_; }
  std::vector<unsigned char>& occupied() { return occupied_; }
  std::vector<vid_t>& touched() { return touched_; }
  std::vector<TC>& run_acc() { return run_acc_; }
  std::vector<unsigned char>& run_flag() { return run_flag_; }
  std::vector<vid_t>& run_touched() { return run_touched_; }

 private:
  std::vector<TC> acc_;
  std::vector<unsigned char> occupied_;
  std::vector<vid_t> touched_;
  std::vector<TC> run_acc_;
  std::vector<unsigned char> run_flag_;
  std::vector<vid_t> run_touched_;
  const std::type_info* monoid_ = nullptr;  ///< monoid that filled the scratch
};

/// The calling thread's workspace for value type TC (one per pool thread —
/// safe because parallel regions never migrate a task between threads).
template <typename TC>
SpgemmWorkspace<TC>& tls_spgemm_workspace() {
  thread_local SpgemmWorkspace<TC> ws;
  return ws;
}

/// Upper bound on nnz(C) for reserving the output arrays: per output row,
/// the row's elementary-product count capped at the output width. One cheap
/// O(nnz(A)) pass — no accumulation.
template <typename TA, typename TB>
nnz_t spgemm_capacity_hint(const Csr<TA>& a, const Csr<TB>& b,
                           vid_t b_row_offset = 0) {
  const nnz_t width = static_cast<nnz_t>(b.ncols());
  nnz_t total = 0;
  for (vid_t i = 0; i < a.nrows(); ++i) {
    nnz_t row_ops = 0;
    for (vid_t k : a.row_cols(i)) {
      const vid_t kb = k - b_row_offset;
      if (kb >= 0 && kb < b.nrows()) row_ops += b.row_nnz(kb);
    }
    total += std::min(row_ops, width);
  }
  return total;
}

namespace detail {

/// Append one accumulated row to out_col/out_val in column order and clean
/// its scratch. Column j sits at slot j - base of acc/flag; an entry is
/// emitted when its flag is 1 and its value is not M's identity. When the
/// touched columns span a window [lo, hi] with hi − lo < 8·|touched|, the
/// window is scanned in place; otherwise `touched` is sorted.
template <algebra::Monoid M>
void emit_row(std::vector<vid_t>& touched, vid_t base,
              std::vector<typename M::value_type>& acc,
              std::vector<unsigned char>& flag, std::vector<vid_t>& out_col,
              std::vector<typename M::value_type>& out_val) {
  if (touched.empty()) return;
  auto take = [&](vid_t j) {
    const auto s = static_cast<std::size_t>(j - base);
    if (flag[s] == 1 && !M::is_identity(acc[s])) {
      out_col.push_back(j);
      out_val.push_back(std::move(acc[s]));
    }
    flag[s] = 0;
    acc[s] = M::identity();
  };
  const auto [lo, hi] = std::minmax_element(touched.begin(), touched.end());
  if (*hi - *lo < 8 * static_cast<vid_t>(touched.size())) {
    for (vid_t j = *lo, end = *hi; j <= end; ++j) {
      if (flag[static_cast<std::size_t>(j - base)] != 0) take(j);
    }
  } else {
    std::sort(touched.begin(), touched.end());
    for (vid_t j : touched) take(j);
  }
  touched.clear();
}

/// Accumulate A's entries [first, last) of one row against B into the
/// scratch: entry (k, a) meets B row k − b_row_offset, restricted to
/// columns [col_lo, col_hi), and k outside B contributes nothing. A
/// column's first product is assigned, later ones combine into it.
/// Returns the elementary products.
template <algebra::Monoid M, typename TA, typename TB, typename F>
nnz_t accumulate_row(const Csr<TA>& a, nnz_t first, nnz_t last,
                     const Csr<TB>& b, vid_t b_row_offset, vid_t col_lo,
                     vid_t col_hi, F& f,
                     std::vector<typename M::value_type>& acc,
                     std::vector<unsigned char>& occupied,
                     std::vector<vid_t>& touched) {
  const vid_t* acol = a.col().data();
  const TA* aval = a.val().data();
  const vid_t* bcol = b.col().data();
  const TB* bval = b.val().data();
  nnz_t ops = 0;
  for (nnz_t t = first; t < last; ++t) {
    const vid_t k = acol[t] - b_row_offset;
    if (k < 0 || k >= b.nrows()) continue;
    const auto [bf, bl] = b.row_run(k, col_lo, col_hi);
    ops += bl - bf;
    for (nnz_t u = bf; u < bl; ++u) {
      const auto ju = static_cast<std::size_t>(bcol[u]);
      typename M::value_type prod = f(aval[t], bval[u]);
      if (!occupied[ju]) {
        occupied[ju] = 1;
        touched.push_back(bcol[u]);
        acc[ju] = std::move(prod);
      } else {
        acc[ju] = M::combine(acc[ju], prod);
      }
    }
  }
  return ops;
}

/// Gustavson core over caller-provided scratch. acc/occupied must be clean
/// (identity / 0) on entry and are clean again on normal exit.
template <algebra::Monoid M, typename TA, typename TB, typename F>
Csr<typename M::value_type> spgemm_core(const Csr<TA>& a, const Csr<TB>& b,
                                        F& f, vid_t b_row_offset, nnz_t& ops,
                                        std::vector<typename M::value_type>& acc,
                                        std::vector<unsigned char>& occupied,
                                        std::vector<vid_t>& touched) {
  using TC = typename M::value_type;
  const vid_t ncols = b.ncols();

  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  std::vector<vid_t> out_col;
  std::vector<TC> out_val;
  {
    const nnz_t hint = spgemm_capacity_hint(a, b, b_row_offset);
    out_col.reserve(static_cast<std::size_t>(hint));
    out_val.reserve(static_cast<std::size_t>(hint));
  }

  for (vid_t i = 0; i < a.nrows(); ++i) {
    ops += accumulate_row<M>(a, a.rowptr()[static_cast<std::size_t>(i)],
                             a.rowptr()[static_cast<std::size_t>(i) + 1], b,
                             b_row_offset, 0, ncols, f, acc, occupied,
                             touched);
    emit_row<M>(touched, 0, acc, occupied, out_col, out_val);
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<nnz_t>(out_col.size());
  }
  return Csr<TC>(a.nrows(), ncols, std::move(rowptr), std::move(out_col),
                 std::move(out_val));
}

}  // namespace detail

template <algebra::Monoid M, typename TA, typename TB, typename F>
Csr<typename M::value_type> spgemm(const Csr<TA>& a, const Csr<TB>& b, F f,
                                   SpgemmStats* stats = nullptr,
                                   vid_t b_row_offset = 0,
                                   SpgemmWorkspace<typename M::value_type>* ws =
                                       nullptr) {
  using TC = typename M::value_type;
  // B may be a row slice of the conceptual inner dimension (possibly the
  // whole of it); slices must lie inside [0, a.ncols()).
  MFBC_CHECK(b_row_offset >= 0 && b_row_offset + b.nrows() <= a.ncols(),
             "spgemm B slice out of the inner-dimension range");

  const vid_t ncols = b.ncols();
  nnz_t ops = 0;
  Csr<TC> c;
  if (ws != nullptr) {
    ws->template prepare<M>(ncols);
    try {
      c = detail::spgemm_core<M>(a, b, f, b_row_offset, ops, ws->acc(),
                                 ws->occupied(), ws->touched());
    } catch (...) {
      ws->invalidate();
      throw;
    }
  } else {
    std::vector<TC> acc(static_cast<std::size_t>(ncols), M::identity());
    std::vector<unsigned char> occupied(static_cast<std::size_t>(ncols), 0);
    std::vector<vid_t> touched;
    c = detail::spgemm_core<M>(a, b, f, b_row_offset, ops, acc, occupied,
                               touched);
  }
  if (stats != nullptr) stats->ops += ops;
  return c;
}

/// One link of a spgemm_fold chain: output rows [row_lo, row_hi) receive
/// the product of A's columns [k_lo, k_hi) with B's columns [col_lo,
/// col_hi). Output row x reads A row x − a_row_offset, and A column k reads
/// B row k − b_row_offset (k outside B contributes nothing, as in spgemm).
template <typename TA, typename TB>
struct FoldSegment {
  const Csr<TA>* a = nullptr;
  const Csr<TB>* b = nullptr;
  vid_t row_lo = 0, row_hi = 0;
  vid_t a_row_offset = 0;
  vid_t k_lo = 0, k_hi = 0;
  vid_t b_row_offset = 0;
  vid_t col_lo = 0, col_hi = 0;
};

/// What one link of a fold chain did, summed over its rows.
struct FoldCounts {
  nnz_t ops = 0;          ///< elementary products
  nnz_t partial_nnz = 0;  ///< entries of its partial product
  nnz_t running_nnz = 0;  ///< running entries before its fold
};

/// The output block (nrows × ncols, columns inside [col_lo, col_hi)) of an
/// ordered chain of products, folded left to right: row by row, each
/// segment's partial accumulates in the workspace's dense accumulator, then
/// folds into the running row as ewise_union(running, partial) would —
/// M::combine(running, partial) where both hold a column, an entry that
/// combines to the identity dropped (a later segment may add the column
/// again), identity partials dropped before the fold. The bits therefore
/// equal the chain slice → spgemm → ewise_union, without the slices or the
/// intermediate matrices. counts[s] receives segment s's FoldCounts.
template <algebra::Monoid M, typename TA, typename TB, typename F>
Csr<typename M::value_type> spgemm_fold(
    vid_t nrows, vid_t ncols, vid_t col_lo, vid_t col_hi,
    std::span<const FoldSegment<TA, TB>> segs, F f, FoldCounts* counts,
    SpgemmWorkspace<typename M::value_type>& ws) {
  using TC = typename M::value_type;
  MFBC_CHECK(0 <= col_lo && col_lo <= col_hi && col_hi <= ncols,
             "spgemm_fold column window out of range");
  for (const auto& sg : segs) {
    MFBC_CHECK(0 <= sg.row_lo && sg.row_lo <= sg.row_hi &&
                   sg.row_hi <= nrows &&
                   (sg.row_lo == sg.row_hi ||
                    (sg.row_lo - sg.a_row_offset >= 0 &&
                     sg.row_hi - sg.a_row_offset <= sg.a->nrows())),
               "spgemm_fold segment rows out of range");
    MFBC_CHECK(sg.b->ncols() == ncols && col_lo <= sg.col_lo &&
                   sg.col_lo <= sg.col_hi && sg.col_hi <= col_hi,
               "spgemm_fold segment columns outside the window");
  }
  for (std::size_t s = 0; s < segs.size(); ++s) counts[s] = {};

  ws.template prepare<M>(ncols, col_hi - col_lo);
  auto& acc = ws.acc();
  auto& occupied = ws.occupied();
  auto& touched = ws.touched();
  auto& run = ws.run_acc();
  auto& run_flag = ws.run_flag();
  auto& run_touched = ws.run_touched();

  // Reserve per row the chain's products capped at the window width, as
  // spgemm_capacity_hint does for one product.
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<vid_t> out_col;
  std::vector<TC> out_val;
  {
    nnz_t hint = 0;
    for (vid_t x = 0; x < nrows; ++x) {
      nnz_t row_ops = 0;
      for (const auto& sg : segs) {
        if (x < sg.row_lo || x >= sg.row_hi) continue;
        const auto [first, last] =
            sg.a->row_run(x - sg.a_row_offset, sg.k_lo, sg.k_hi);
        const vid_t* acol = sg.a->col().data();
        for (nnz_t t = first; t < last; ++t) {
          const vid_t kb = acol[t] - sg.b_row_offset;
          if (kb >= 0 && kb < sg.b->nrows()) row_ops += sg.b->row_nnz(kb);
        }
      }
      hint += std::min(row_ops, static_cast<nnz_t>(col_hi - col_lo));
    }
    out_col.reserve(static_cast<std::size_t>(hint));
    out_val.reserve(static_cast<std::size_t>(hint));
  }

  try {
    for (vid_t x = 0; x < nrows; ++x) {
      nnz_t running = 0;
      for (std::size_t s = 0; s < segs.size(); ++s) {
        const FoldSegment<TA, TB>& sg = segs[s];
        if (x < sg.row_lo || x >= sg.row_hi) continue;
        FoldCounts& n = counts[s];
        n.running_nnz += running;
        const auto [first, last] =
            sg.a->row_run(x - sg.a_row_offset, sg.k_lo, sg.k_hi);
        n.ops += detail::accumulate_row<M>(*sg.a, first, last, *sg.b,
                                           sg.b_row_offset, sg.col_lo,
                                           sg.col_hi, f, acc, occupied,
                                           touched);
        // Fold the partial into the running row, column by column.
        for (vid_t j : touched) {
          const auto ju = static_cast<std::size_t>(j);
          TC v = std::move(acc[ju]);
          acc[ju] = M::identity();
          occupied[ju] = 0;
          if (M::is_identity(v)) continue;
          ++n.partial_nnz;
          const auto rj = static_cast<std::size_t>(j - col_lo);
          switch (run_flag[rj]) {
            case 0:
              run_touched.push_back(j);
              [[fallthrough]];
            case 2:
              run_flag[rj] = 1;
              run[rj] = std::move(v);
              ++running;
              break;
            default: {
              TC r = M::combine(run[rj], v);
              if (M::is_identity(r)) {
                run_flag[rj] = 2;
                run[rj] = M::identity();
                --running;
              } else {
                run[rj] = std::move(r);
              }
            }
          }
        }
        touched.clear();
      }
      detail::emit_row<M>(run_touched, col_lo, run, run_flag, out_col,
                          out_val);
      rowptr[static_cast<std::size_t>(x) + 1] =
          static_cast<nnz_t>(out_col.size());
    }
  } catch (...) {
    ws.invalidate();
    throw;
  }
  // The reservation can exceed the block several times over (products
  // that land on one column); give a mostly unused one back, since the
  // block may outlive the multiply.
  if (out_col.capacity() > 2 * out_col.size()) {
    out_col.shrink_to_fit();
    out_val.shrink_to_fit();
  }
  return Csr<TC>(nrows, ncols, std::move(rowptr), std::move(out_col),
                 std::move(out_val));
}

/// Count ops(A,B) without computing the product (used by cost models and by
/// the load-balance assertions in tests).
template <typename TA, typename TB>
nnz_t spgemm_ops(const Csr<TA>& a, const Csr<TB>& b, vid_t b_row_offset = 0) {
  nnz_t ops = 0;
  for (vid_t i = 0; i < a.nrows(); ++i) {
    for (vid_t k : a.row_cols(i)) {
      const vid_t kb = k - b_row_offset;
      if (kb >= 0 && kb < b.nrows()) ops += b.row_nnz(kb);
    }
  }
  return ops;
}

}  // namespace mfbc::sparse
