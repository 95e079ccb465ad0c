// Elementwise and structural operations on CSR matrices.
//
// These back CTF-style primitives the MFBC code needs (paper §6.1):
//   Tensor::sparsify()  -> filter()
//   elementwise monoid application A ⊕ B -> ewise_union()
//   transposition for the back-propagation step -> transpose()
//   Tensor::slice() -> slice_rows()/slice_cols()
#pragma once

#include <cstddef>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/csr.hpp"
#include "support/parallel.hpp"

namespace mfbc::sparse {

/// C = A ⊕ B elementwise over the union of sparsity patterns, combining
/// overlapping entries through monoid M. Entries combining to the identity
/// are dropped.
template <algebra::Monoid M>
Csr<typename M::value_type> ewise_union(const Csr<typename M::value_type>& a,
                                        const Csr<typename M::value_type>& b) {
  using T = typename M::value_type;
  MFBC_CHECK(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
             "ewise_union shape mismatch");
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  std::vector<vid_t> col;
  std::vector<T> val;
  col.reserve(static_cast<std::size_t>(a.nnz() + b.nnz()));
  val.reserve(static_cast<std::size_t>(a.nnz() + b.nnz()));
  for (vid_t r = 0; r < a.nrows(); ++r) {
    auto ac = a.row_cols(r), bc = b.row_cols(r);
    auto av = a.row_vals(r), bv = b.row_vals(r);
    std::size_t i = 0, j = 0;
    auto emit = [&](vid_t c, T v) {
      if (!M::is_identity(v)) {
        col.push_back(c);
        val.push_back(std::move(v));
      }
    };
    while (i < ac.size() && j < bc.size()) {
      if (ac[i] < bc[j]) {
        emit(ac[i], av[i]);
        ++i;
      } else if (ac[i] > bc[j]) {
        emit(bc[j], bv[j]);
        ++j;
      } else {
        emit(ac[i], M::combine(av[i], bv[j]));
        ++i;
        ++j;
      }
    }
    for (; i < ac.size(); ++i) emit(ac[i], av[i]);
    for (; j < bc.size(); ++j) emit(bc[j], bv[j]);
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(col.size());
  }
  return Csr<T>(a.nrows(), a.ncols(), std::move(rowptr), std::move(col),
                std::move(val));
}

/// Keep only entries satisfying pred(row, col, value). Shape is preserved.
template <typename T, typename Pred>
Csr<T> filter(const Csr<T>& a, Pred pred) {
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  std::vector<vid_t> col;
  std::vector<T> val;
  for (vid_t r = 0; r < a.nrows(); ++r) {
    auto ac = a.row_cols(r);
    auto av = a.row_vals(r);
    for (std::size_t i = 0; i < ac.size(); ++i) {
      if (pred(r, ac[i], av[i])) {
        col.push_back(ac[i]);
        val.push_back(av[i]);
      }
    }
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(col.size());
  }
  return Csr<T>(a.nrows(), a.ncols(), std::move(rowptr), std::move(col),
                std::move(val));
}

/// Apply fn to every stored value, producing a possibly different value type
/// (CTF's Transform / Function on a single operand).
template <typename U, typename T, typename Fn>
Csr<U> map_values(const Csr<T>& a, Fn fn) {
  std::vector<nnz_t> rowptr(a.rowptr().begin(), a.rowptr().end());
  std::vector<vid_t> col(a.col().begin(), a.col().end());
  std::vector<U> val;
  val.reserve(static_cast<std::size_t>(a.nnz()));
  for (vid_t r = 0; r < a.nrows(); ++r) {
    auto ac = a.row_cols(r);
    auto av = a.row_vals(r);
    for (std::size_t i = 0; i < ac.size(); ++i) {
      val.push_back(fn(r, ac[i], av[i]));
    }
  }
  return Csr<U>(a.nrows(), a.ncols(), std::move(rowptr), std::move(col),
                std::move(val));
}

/// Aᵀ. Column indices of the result are sorted (bucket pass by column).
///
/// Large inputs run the bucket pass chunk-parallel over source-row stripes:
/// per-stripe column counts plus a serial prefix give every (stripe, column)
/// a disjoint output range in serial row order, so the parallel writes land
/// exactly where the serial pass would put them — bit-identical output at
/// every thread count.
template <typename T>
Csr<T> transpose(const Csr<T>& a) {
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  std::vector<vid_t> col(static_cast<std::size_t>(a.nnz()));
  std::vector<T> val(static_cast<std::size_t>(a.nnz()));
  const int nt = support::num_threads();
  if (support::ThreadPool::in_parallel_region() || nt <= 1 ||
      static_cast<std::size_t>(a.nnz()) < (1u << 15)) {
    for (vid_t c : a.col()) rowptr[static_cast<std::size_t>(c) + 1]++;
    for (std::size_t i = 1; i < rowptr.size(); ++i) rowptr[i] += rowptr[i - 1];
    std::vector<nnz_t> cursor(rowptr.begin(), rowptr.end() - 1);
    for (vid_t r = 0; r < a.nrows(); ++r) {
      auto ac = a.row_cols(r);
      auto av = a.row_vals(r);
      for (std::size_t i = 0; i < ac.size(); ++i) {
        nnz_t at = cursor[static_cast<std::size_t>(ac[i])]++;
        col[static_cast<std::size_t>(at)] = r;
        val[static_cast<std::size_t>(at)] = av[i];
      }
    }
    return Csr<T>(a.ncols(), a.nrows(), std::move(rowptr), std::move(col),
                  std::move(val));
  }
  const std::size_t chunks = static_cast<std::size_t>(nt);
  const std::size_t nr = static_cast<std::size_t>(a.nrows());
  std::vector<vid_t> bounds(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) {
    bounds[c] = static_cast<vid_t>(nr * c / chunks);
  }
  std::vector<std::vector<nnz_t>> cursor(chunks);
  support::parallel_for(chunks, [&](std::size_t c) {
    std::vector<nnz_t> local(static_cast<std::size_t>(a.ncols()), 0);
    for (vid_t r = bounds[c]; r < bounds[c + 1]; ++r) {
      for (vid_t cc : a.row_cols(r)) local[static_cast<std::size_t>(cc)]++;
    }
    cursor[c] = std::move(local);
  });
  // Serial prefix in (column, stripe) order: turns the per-stripe counts
  // into each stripe's starting write position per column and fills rowptr.
  nnz_t base = 0;
  for (std::size_t j = 0; j < static_cast<std::size_t>(a.ncols()); ++j) {
    rowptr[j] = base;
    for (std::size_t c = 0; c < chunks; ++c) {
      const nnz_t count = cursor[c][j];
      cursor[c][j] = base;
      base += count;
    }
  }
  rowptr[static_cast<std::size_t>(a.ncols())] = base;
  support::parallel_for(chunks, [&](std::size_t c) {
    auto& cur = cursor[c];
    for (vid_t r = bounds[c]; r < bounds[c + 1]; ++r) {
      auto ac = a.row_cols(r);
      auto av = a.row_vals(r);
      for (std::size_t i = 0; i < ac.size(); ++i) {
        nnz_t at = cur[static_cast<std::size_t>(ac[i])]++;
        col[static_cast<std::size_t>(at)] = r;
        val[static_cast<std::size_t>(at)] = av[i];
      }
    }
  });
  return Csr<T>(a.ncols(), a.nrows(), std::move(rowptr), std::move(col),
                std::move(val));
}

/// Entries with row index in [begin, end), re-indexed so the slice's row 0 is
/// global row `begin`. Columns are untouched.
template <typename T>
Csr<T> slice_rows(const Csr<T>& a, vid_t begin, vid_t end) {
  MFBC_CHECK(0 <= begin && begin <= end && end <= a.nrows(),
             "row slice out of range");
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(end - begin) + 1, 0);
  const nnz_t base = a.rowptr()[static_cast<std::size_t>(begin)];
  for (vid_t r = begin; r <= end; ++r) {
    if (r > begin) {
      rowptr[static_cast<std::size_t>(r - begin)] =
          a.rowptr()[static_cast<std::size_t>(r)] - base;
    }
  }
  auto cb = a.col().begin() + static_cast<std::ptrdiff_t>(base);
  auto vb = a.val().begin() + static_cast<std::ptrdiff_t>(base);
  nnz_t count = a.rowptr()[static_cast<std::size_t>(end)] - base;
  std::vector<vid_t> col(cb, cb + count);
  std::vector<T> val(vb, vb + count);
  return Csr<T>(end - begin, a.ncols(), std::move(rowptr), std::move(col),
                std::move(val));
}

/// Entries with column index in [begin, end). Column indices and matrix
/// shape are preserved (the slice lives in the original index space).
template <typename T>
Csr<T> slice_cols(const Csr<T>& a, vid_t begin, vid_t end) {
  MFBC_CHECK(0 <= begin && begin <= end && end <= a.ncols(),
             "col slice out of range");
  return filter(a, [begin, end](vid_t, vid_t c, const T&) {
    return c >= begin && c < end;
  });
}

}  // namespace mfbc::sparse
