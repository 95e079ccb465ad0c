// Compressed-sparse-row matrix, the compute format of the library.
//
// A Csr<T> is immutable once built (kernels return fresh matrices); this
// keeps the distributed layer's block bookkeeping simple and makes sharing
// blocks across simulated ranks safe.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/coo.hpp"
#include "sparse/types.hpp"
#include "support/error.hpp"

namespace mfbc::sparse {

/// "Keep first" pseudo-monoid for Csr::from_coo on entries known to be
/// duplicate-free (a rebuild from disjoint blocks, a redistribution, a
/// transposition): nothing is merged and no entry is dropped as identity.
template <typename T>
struct KeepFirst {
  using value_type = T;
  static value_type identity() { return value_type{}; }
  static value_type combine(const value_type& a, const value_type&) {
    return a;
  }
  static bool is_identity(const value_type&) { return false; }
};

template <typename T>
class Csr {
 public:
  Csr() : rowptr_(1, 0) {}

  /// Empty matrix of the given shape.
  Csr(vid_t nrows, vid_t ncols)
      : nrows_(nrows), ncols_(ncols),
        rowptr_(static_cast<std::size_t>(nrows) + 1, 0) {
    MFBC_CHECK(nrows >= 0 && ncols >= 0, "matrix dims must be non-negative");
  }

  /// Build from raw arrays (must already be a valid CSR structure with
  /// column indices sorted within each row).
  Csr(vid_t nrows, vid_t ncols, std::vector<nnz_t> rowptr,
      std::vector<vid_t> col, std::vector<T> val)
      : nrows_(nrows), ncols_(ncols), rowptr_(std::move(rowptr)),
        col_(std::move(col)), val_(std::move(val)) {
    MFBC_CHECK(rowptr_.size() == static_cast<std::size_t>(nrows_) + 1,
               "rowptr size mismatch");
    MFBC_CHECK(col_.size() == val_.size(), "col/val size mismatch");
    MFBC_CHECK(rowptr_.back() == static_cast<nnz_t>(col_.size()),
               "rowptr/nnz mismatch");
  }

  /// Build from COO; duplicates are merged through monoid M and identity
  /// entries dropped.
  template <algebra::Monoid M>
  static Csr from_coo(Coo<T> coo) {
    coo.template sort_and_combine<M>();
    Csr out(coo.nrows(), coo.ncols());
    out.col_.reserve(coo.entries().size());
    out.val_.reserve(coo.entries().size());
    for (auto& e : coo.entries()) {
      out.rowptr_[static_cast<std::size_t>(e.row) + 1]++;
      out.col_.push_back(e.col);
      out.val_.push_back(std::move(e.val));
    }
    for (std::size_t i = 1; i < out.rowptr_.size(); ++i) {
      out.rowptr_[i] += out.rowptr_[i - 1];
    }
    return out;
  }

  vid_t nrows() const { return nrows_; }
  vid_t ncols() const { return ncols_; }
  nnz_t nnz() const { return rowptr_.back(); }
  bool empty() const { return nnz() == 0; }

  std::span<const nnz_t> rowptr() const { return rowptr_; }
  std::span<const vid_t> col() const { return col_; }
  std::span<const T> val() const { return val_; }
  std::span<T> val_mut() { return val_; }

  /// Column indices of row r.
  std::span<const vid_t> row_cols(vid_t r) const {
    return std::span<const vid_t>(col_).subspan(
        static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(r)]),
        static_cast<std::size_t>(row_nnz(r)));
  }

  /// Values of row r.
  std::span<const T> row_vals(vid_t r) const {
    return std::span<const T>(val_).subspan(
        static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(r)]),
        static_cast<std::size_t>(row_nnz(r)));
  }

  /// Offsets [first, last) of row r's entries whose columns lie in
  /// [lo, hi): no search when the whole row is inside or outside.
  std::pair<nnz_t, nnz_t> row_run(vid_t r, vid_t lo, vid_t hi) const {
    nnz_t first = rowptr_[static_cast<std::size_t>(r)];
    nnz_t last = rowptr_[static_cast<std::size_t>(r) + 1];
    if (first == last) return {first, last};
    const vid_t* c = col_.data();
    if (c[first] >= lo && c[last - 1] < hi) return {first, last};
    if (c[first] >= hi || c[last - 1] < lo) return {first, first};
    first = std::lower_bound(c + first, c + last, lo) - c;
    last = std::lower_bound(c + first, c + last, hi) - c;
    return {first, last};
  }

  /// Rows [first, last) from the first row that holds an entry to one past
  /// the last, by two binary searches on the row pointers; {0, 0} when the
  /// matrix holds no entry. Rows inside the span may be empty.
  std::pair<vid_t, vid_t> occupied_rows() const {
    if (empty()) return {0, 0};
    const auto first =
        std::upper_bound(rowptr_.begin(), rowptr_.end(), rowptr_.front());
    const auto last = std::lower_bound(first, rowptr_.end(), rowptr_.back());
    return {static_cast<vid_t>(first - rowptr_.begin()) - 1,
            static_cast<vid_t>(last - rowptr_.begin())};
  }

  nnz_t row_nnz(vid_t r) const {
    MFBC_DCHECK(r >= 0 && r < nrows_, "row out of range");
    return rowptr_[static_cast<std::size_t>(r) + 1] -
           rowptr_[static_cast<std::size_t>(r)];
  }

  /// Convert back to COO.
  Coo<T> to_coo() const {
    Coo<T> out(nrows_, ncols_);
    out.reserve(nnz());
    for (vid_t r = 0; r < nrows_; ++r) {
      auto cols = row_cols(r);
      auto vals = row_vals(r);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        out.push(r, cols[i], vals[i]);
      }
    }
    return out;
  }

  friend bool operator==(const Csr& a, const Csr& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.rowptr_ == b.rowptr_ && a.col_ == b.col_ && a.val_ == b.val_;
  }

 private:
  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  std::vector<nnz_t> rowptr_;
  std::vector<vid_t> col_;
  std::vector<T> val_;
};

}  // namespace mfbc::sparse
