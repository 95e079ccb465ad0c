// Generalized sparse matrix–matrix multiplication  C = A •⟨⊕,f⟩ B
// (paper §3): output element C(i,j) = ⊕_k f(A(i,k), B(k,j)) over a
// commutative monoid (D_C, ⊕) and bridge function f : D_A × D_B → D_C.
//
// The kernel is Gustavson's row-wise algorithm with a sparse accumulator:
// optimal O(ops(A,B)) work, which is what the paper's cost model assumes for
// the local block multiplies (§5.1: "all the considered algorithms have an
// optimal computation cost"). Every output row accumulates once and emits
// once, in column order: a column's first product also sets its bit in an
// occupancy bitmap, and the row is emitted by walking the set bits between
// the lowest and highest touched words, cleaning the scratch as it goes.
// Rows collect in the workspace's output buffers, and the result is copied
// out of them at its exact size.
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
// The scratch lives in a SpgemmWorkspace. The distributed variants run
// O(p^1.5) block multiplies per SpGEMM, so a workspace is allocated once per
// thread (tls_spgemm_workspace, which spgemm also uses when given none)
// instead of once per call.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <typeinfo>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/csr.hpp"

namespace mfbc::sparse {

/// Work counters for one multiplication; ops matches the paper's
/// ops(A,B) = number of nonzero elementary products.
struct SpgemmStats {
  nnz_t ops = 0;
};

namespace detail {

/// Occupancy bitmap of one dense row: bit s is set while slot s holds an
/// entry, and every set bit lies in words [lo, hi).
struct RowBits {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::vector<std::uint64_t> words;
  std::size_t lo = kNone, hi = 0;

  /// Room for `slots` slots; new words are clear.
  void grow(std::size_t slots) {
    words.resize(std::max(words.size(), (slots + 63) / 64), 0);
  }
  /// Clear every bit (after a row was left dirty).
  void clear() {
    std::fill(words.begin(), words.end(), 0);
    lo = kNone;
    hi = 0;
  }
  bool test(std::size_t s) const { return (words[s / 64] >> (s % 64)) & 1; }
  void set(std::size_t s) {
    words[s / 64] |= std::uint64_t{1} << (s % 64);
    lo = std::min(lo, s / 64);
    hi = std::max(hi, s / 64 + 1);
  }
  /// Call fn(s) for every set slot s in increasing order, clearing the bits.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::size_t w = lo; w < hi; ++w) {
      for (std::uint64_t m = std::exchange(words[w], 0); m != 0; m &= m - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
    lo = kNone;
    hi = 0;
  }
};

}  // namespace detail

/// Reusable scratch for spgemm and spgemm_fold over value type TC.
///
/// The product row is a dense accumulator with a byte flag per column (the
/// inner loop's test) and an occupancy bitmap (the emit walk). spgemm_fold
/// adds a running row sized to its output block's column window (`run_*`):
/// its bit marks a column some link reached, and its entry is live exactly
/// when it is not the identity, so a column a fold cancelled can come back.
/// Rows collect in the output buffers.
///
/// The kernels leave the scratch clean (identity / 0) on exit from every
/// call, so reuse across calls only requires growing to the widest output
/// seen. Two different monoids can share TC with *different* identity
/// values (SumMonoid and TropicalMinMonoid are both double), so the
/// workspace remembers which monoid last filled it and refills when the
/// monoid changes.
template <typename TC>
class SpgemmWorkspace {
 public:
  /// Grow (and, on monoid change, refill) the scratch for outputs of width
  /// `ncols` and, for spgemm_fold, a running row of `window` columns,
  /// accumulated under monoid M; empty the output buffers.
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
      bits_.clear();
      run_acc_.assign(std::max(w, run_acc_.size()), M::identity());
      run_bits_.clear();
      monoid_ = tag;
    } else {
      if (acc_.size() < n) {
        acc_.resize(n, M::identity());
        occupied_.resize(n, 0);
      }
      if (run_acc_.size() < w) run_acc_.resize(w, M::identity());
    }
    bits_.grow(acc_.size());
    run_bits_.grow(run_acc_.size());
    out_col_.clear();
    out_val_.clear();
  }

  /// Mark the scratch dirty so the next prepare() refills it. The kernels
  /// call this when an exception unwinds mid-row (the clean-on-exit
  /// invariant no longer holds).
  void invalidate() { monoid_ = nullptr; }

  std::vector<TC>& acc() { return acc_; }
  std::vector<unsigned char>& occupied() { return occupied_; }
  detail::RowBits& bits() { return bits_; }
  std::vector<TC>& run_acc() { return run_acc_; }
  detail::RowBits& run_bits() { return run_bits_; }
  std::vector<vid_t>& out_col() { return out_col_; }
  std::vector<TC>& out_val() { return out_val_; }

 private:
  std::vector<TC> acc_;
  std::vector<unsigned char> occupied_;
  detail::RowBits bits_;
  std::vector<TC> run_acc_;
  detail::RowBits run_bits_;
  std::vector<vid_t> out_col_;
  std::vector<TC> out_val_;
  const std::type_info* monoid_ = nullptr;  ///< monoid that filled the scratch
};

/// The calling thread's workspace for value type TC (one per pool thread —
/// safe because parallel regions never migrate a task between threads).
template <typename TC>
SpgemmWorkspace<TC>& tls_spgemm_workspace() {
  thread_local SpgemmWorkspace<TC> ws;
  return ws;
}

namespace detail {

/// Append the row held in acc (slot s is column base + s) to the
/// workspace's output buffers in column order, skipping identities, and
/// clean acc, its bitmap and, when given, its byte flags.
template <algebra::Monoid M>
void emit_row(RowBits& bits, vid_t base,
              std::vector<typename M::value_type>& acc,
              unsigned char* occupied,
              SpgemmWorkspace<typename M::value_type>& ws) {
  auto& out_col = ws.out_col();
  auto& out_val = ws.out_val();
  bits.drain([&](std::size_t s) {
    if (occupied != nullptr) occupied[s] = 0;
    if (!M::is_identity(acc[s])) {
      out_col.push_back(base + static_cast<vid_t>(s));
      out_val.push_back(std::move(acc[s]));
    }
    acc[s] = M::identity();
  });
}

/// Accumulate A's entries [first, last) of one row against B into the
/// product row of `ws`: entry (k, a) meets B row k − b_row_offset,
/// restricted to columns [col_lo, col_hi), and k outside B contributes
/// nothing. A column's first product is assigned and sets its bit, later
/// ones combine into it. Returns the elementary products.
template <algebra::Monoid M, typename TA, typename TB, typename F>
nnz_t accumulate_row(const Csr<TA>& a, nnz_t first, nnz_t last,
                     const Csr<TB>& b, vid_t b_row_offset, vid_t col_lo,
                     vid_t col_hi, F& f,
                     SpgemmWorkspace<typename M::value_type>& ws) {
  const vid_t* acol = a.col().data();
  const TA* aval = a.val().data();
  const vid_t* bcol = b.col().data();
  const TB* bval = b.val().data();
  typename M::value_type* acc = ws.acc().data();
  unsigned char* occupied = ws.occupied().data();
  // The word bounds stay in registers; the bitmap's stores could alias them.
  RowBits& bits = ws.bits();
  std::uint64_t* words = bits.words.data();
  std::size_t lo = bits.lo, hi = bits.hi;
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
        words[ju / 64] |= std::uint64_t{1} << (ju % 64);
        lo = std::min(lo, ju / 64);
        hi = std::max(hi, ju / 64 + 1);
        acc[ju] = std::move(prod);
      } else {
        acc[ju] = M::combine(acc[ju], prod);
      }
    }
  }
  bits.lo = lo;
  bits.hi = hi;
  return ops;
}

/// The nrows × ncols matrix whose rows were collected in ws's output
/// buffers, copied out at its exact size.
template <typename TC>
Csr<TC> take_output(vid_t nrows, vid_t ncols, std::vector<nnz_t> rowptr,
                    SpgemmWorkspace<TC>& ws) {
  return Csr<TC>(nrows, ncols, std::move(rowptr),
                 std::vector<vid_t>(ws.out_col().begin(), ws.out_col().end()),
                 std::vector<TC>(ws.out_val().begin(), ws.out_val().end()));
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
  if (ws == nullptr) ws = &tls_spgemm_workspace<TC>();

  const vid_t ncols = b.ncols();
  ws->template prepare<M>(ncols);
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  nnz_t ops = 0;
  try {
    for (vid_t i = 0; i < a.nrows(); ++i) {
      const auto r = static_cast<std::size_t>(i);
      ops += detail::accumulate_row<M>(a, a.rowptr()[r], a.rowptr()[r + 1], b,
                                       b_row_offset, 0, ncols, f, *ws);
      detail::emit_row<M>(ws->bits(), 0, ws->acc(), ws->occupied().data(),
                          *ws);
      rowptr[r + 1] = static_cast<nnz_t>(ws->out_col().size());
    }
  } catch (...) {
    ws->invalidate();
    throw;
  }
  if (stats != nullptr) stats->ops += ops;
  return detail::take_output(a.nrows(), ncols, std::move(rowptr), *ws);
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
  auto& run = ws.run_acc();
  detail::RowBits& run_bits = ws.run_bits();
  const auto base = static_cast<std::size_t>(col_lo);
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(nrows) + 1, 0);
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
                                           sg.col_hi, f, ws);
        // Fold the partial into the running row, column by column. A column
        // no link reached yet, or one a fold cancelled, takes the partial.
        ws.bits().drain([&](std::size_t j) {
          TC v = std::move(acc[j]);
          acc[j] = M::identity();
          occupied[j] = 0;
          if (M::is_identity(v)) return;
          ++n.partial_nnz;
          const std::size_t rj = j - base;
          if (!run_bits.test(rj)) {
            run_bits.set(rj);
          } else if (!M::is_identity(run[rj])) {
            run[rj] = M::combine(run[rj], v);
            if (M::is_identity(run[rj])) --running;
            return;
          }
          run[rj] = std::move(v);
          ++running;
        });
      }
      detail::emit_row<M>(run_bits, col_lo, run, nullptr, ws);
      rowptr[static_cast<std::size_t>(x) + 1] =
          static_cast<nnz_t>(ws.out_col().size());
    }
  } catch (...) {
    ws.invalidate();
    throw;
  }
  return detail::take_output(nrows, ncols, std::move(rowptr), ws);
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
