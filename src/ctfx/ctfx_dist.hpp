// Distributed execution for the CTF facade (paper §6.1).
//
// In CTF, "an n×n CTF matrix is distributed across a World (an MPI
// communicator)". Here a World wraps the simulated machine: DMatrix<T>
// carries a dist::DistMatrix on a near-square default grid, expressions are
// the same index-label forms as the sequential facade, and contraction
// evaluation dispatches to the autotuned distributed SpGEMM — so the
// paper's `Z["ij"] = BF(A["ik"], Z["kj"])` line runs with §5.2 algorithm
// selection and §7.4 cost accounting underneath, unchanged at the surface.
#pragma once

#include <utility>

#include "algebra/tropical.hpp"
#include "ctfx/ctfx.hpp"
#include "dist/spgemm_dist.hpp"

namespace mfbc::ctfx {

/// The simulated communicator all DMatrix objects live on (CTF's World).
class World {
 public:
  explicit World(sim::Sim& sim) : sim_(&sim) {}

  sim::Sim& sim() const { return *sim_; }
  int nranks() const { return sim_->nranks(); }

  /// Near-square default grid for an r×c matrix region (CTF: "block
  /// dimensions owned by each processor as close to a square as possible").
  dist::Layout default_layout(sparse::vid_t nrows, sparse::vid_t ncols) const {
    int pr = 1;
    const int p = sim_->nranks();
    for (int d = 1; d * d <= p; ++d) {
      if (p % d == 0) pr = d;
    }
    return dist::Layout{0,        pr,
                        p / pr,   dist::Range{0, nrows},
                        dist::Range{0, ncols}, false};
  }

 private:
  sim::Sim* sim_;
};

template <typename T>
class DMatrix;

template <typename T>
struct DIndexed {
  const DMatrix<T>* matrix;
  detail::Labels labels;
};

template <typename T>
class DIndexedMut : public DIndexed<T> {
 public:
  DIndexedMut(DMatrix<T>* m, detail::Labels l)
      : DIndexed<T>{m, l}, mutable_(m) {}

  template <typename Expr>
  DIndexedMut& operator=(const Expr& expr) {
    mutable_->assign(expr.eval_dist(this->labels, mutable_->world()));
    return *this;
  }

 private:
  DMatrix<T>* mutable_;
};

/// A distributed CTF-style matrix handle.
template <typename T>
class DMatrix {
 public:
  /// Empty matrix on the world's default grid.
  DMatrix(World world, sparse::vid_t nrows, sparse::vid_t ncols)
      : world_(world),
        data_(nrows, ncols, world.default_layout(nrows, ncols)) {}

  /// Distribute sequential data (charges the input scatter, CTF's
  /// Tensor::write).
  template <algebra::Monoid M>
  static DMatrix write(World world, const Csr<T>& global) {
    DMatrix out(world, global.nrows(), global.ncols());
    out.data_ = dist::DistMatrix<T>::template scatter<M>(
        world.sim(), global, out.data_.layout());
    return out;
  }

  World world() const { return world_; }
  sparse::vid_t nrows() const { return data_.nrows(); }
  sparse::vid_t ncols() const { return data_.ncols(); }
  const dist::DistMatrix<T>& dist() const { return data_; }

  /// Collect to sequential storage (CTF's Tensor::read; charges a gather).
  Csr<T> read() const { return data_.gather(world_.sim()); }

  DIndexed<T> operator[](const char* labels) const {
    return {this, detail::parse_labels(labels)};
  }
  DIndexedMut<T> operator[](const char* labels) {
    return {this, detail::parse_labels(labels)};
  }

  void assign(dist::DistMatrix<T> data) { data_ = std::move(data); }

 private:
  World world_;
  dist::DistMatrix<T> data_;
};

namespace detail {

/// Orient a distributed operand to (want_row, want_col) label order. A
/// transposition is a real data-reordering: performed via gather-free
/// blockwise transpose + redistribution, charged as an all-to-all (§1:
/// "aside from the need for transposition (data-reordering), sparse tensor
/// contractions are equivalent to sparse matrix multiplication").
template <typename T>
dist::DistMatrix<T> oriented_dist(const DIndexed<T>& x, char want_row,
                                  char want_col, World world) {
  if (x.labels.row == want_row && x.labels.col == want_col) {
    return x.matrix->dist();
  }
  MFBC_CHECK(x.labels.row == want_col && x.labels.col == want_row,
             "operand labels do not match the expression");
  // Transpose block-locally into a COO of the transposed global matrix,
  // then place on the default layout for the transposed shape.
  const auto& src = x.matrix->dist();
  dist::Layout target =
      world.default_layout(src.ncols(), src.nrows());
  dist::DistMatrix<T> out(src.ncols(), src.nrows(), target);
  sparse::Coo<T> all(src.ncols(), src.nrows());
  const dist::Layout& sl = src.layout();
  double moved_words = 0;
  for (int i = 0; i < sl.pr; ++i) {
    for (int j = 0; j < sl.pc; ++j) {
      const dist::Range rr = sl.block_rows(i, j);
      const auto& blk = src.block(i, j);
      for (sparse::vid_t r = 0; r < blk.nrows(); ++r) {
        auto cols = blk.row_cols(r);
        auto vals = blk.row_vals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          all.push(cols[k], rr.lo + r, vals[k]);
          moved_words += sim::sparse_entry_words<T>();
        }
      }
    }
  }
  world.sim().charge_alltoall(
      target.ranks(),
      moved_words / std::max(1, target.nranks()));
  auto whole =
      Csr<T>::template from_coo<sparse::KeepFirst<T>>(std::move(all));
  // Rebuild blocks without a second charge (the all-to-all above covered
  // the reordering).
  for (int i = 0; i < target.pr; ++i) {
    for (int j = 0; j < target.pc; ++j) {
      const dist::Range rr = target.block_rows(i, j);
      const dist::Range cr = target.block_cols(i, j);
      auto rows = sparse::slice_rows(whole, rr.lo, rr.hi);
      out.block(i, j) = sparse::filter(
          rows, [&](sparse::vid_t, sparse::vid_t c, const T&) {
            return cr.contains(c);
          });
    }
  }
  return out;
}

/// Deferred distributed contraction with autotuned plan selection.
template <algebra::Monoid M, typename F, typename TA, typename TB>
struct DContractionExpr {
  DIndexed<TA> a;
  DIndexed<TB> b;
  F f;

  dist::DistMatrix<typename M::value_type> eval_dist(Labels out,
                                                     World world) const {
    char k = 0;
    for (char ca : {a.labels.row, a.labels.col}) {
      for (char cb : {b.labels.row, b.labels.col}) {
        if (ca == cb) k = ca;
      }
    }
    MFBC_CHECK(k != 0, "operands share no index to contract over");
    MFBC_CHECK(k != out.row && k != out.col,
               "contracted index may not appear in the output");
    const char m = a.labels.row == k ? a.labels.col : a.labels.row;
    const char n = b.labels.row == k ? b.labels.col : b.labels.row;
    MFBC_CHECK((out == Labels{m, n}) || (out == Labels{n, m}),
               "output labels must be the operands' two free indices");
    auto ad = oriented_dist(a, m, k, world);
    auto bd = oriented_dist(b, k, n, world);
    dist::Layout out_layout = world.default_layout(ad.nrows(), bd.ncols());
    auto c = dist::spgemm_auto<M>(world.sim(), ad, bd, f, out_layout);
    if (out == Labels{n, m}) {
      // Transposed output: reorder through one more all-to-all.
      DMatrix<typename M::value_type> tmp(world, c.nrows(), c.ncols());
      tmp.assign(std::move(c));
      DIndexed<typename M::value_type> view{&tmp, Labels{m, n}};
      return oriented_dist(view, n, m, world);
    }
    return c;
  }
};

/// Deferred distributed elementwise combine (layout-aligned; the second
/// operand is redistributed to the first's layout if needed).
template <algebra::Monoid M>
struct DEwiseExpr {
  DIndexed<typename M::value_type> a;
  DIndexed<typename M::value_type> b;

  dist::DistMatrix<typename M::value_type> eval_dist(Labels out,
                                                     World world) const {
    auto ad = oriented_dist(a, out.row, out.col, world);
    auto bd = oriented_dist(b, out.row, out.col, world);
    if (!(bd.layout() == ad.layout())) {
      bd = dist::redistribute<M>(world.sim(), bd, ad.layout());
    }
    return dist::ewise_union<M>(world.sim(), ad, bd);
  }
};

}  // namespace detail

/// Distributed contraction kernel: same construction syntax as the
/// sequential Kernel, applied to DMatrix operands.
template <algebra::Monoid M, typename F>
class DKernel {
 public:
  explicit DKernel(F f = F{}) : f_(std::move(f)) {}

  template <typename TA, typename TB>
  auto operator()(DIndexed<TA> a, DIndexed<TB> b) const {
    return detail::DContractionExpr<M, F, TA, TB>{a, b, f_};
  }

 private:
  F f_;
};

template <algebra::Monoid M>
auto ewise(DIndexed<typename M::value_type> a,
           DIndexed<typename M::value_type> b) {
  return detail::DEwiseExpr<M>{a, b};
}

namespace detail {

/// Deferred distributed elementwise map (blockwise local; transposes charge
/// a reordering all-to-all through oriented_dist).
template <typename R, typename TA, typename Fn>
struct DMapExpr {
  DIndexed<TA> a;
  Fn fn;

  dist::DistMatrix<R> eval_dist(Labels out, World world) const {
    auto ad = oriented_dist(a, out.row, out.col, world);
    dist::DistMatrix<R> outm(ad.nrows(), ad.ncols(), ad.layout());
    for (int i = 0; i < ad.layout().pr; ++i) {
      for (int j = 0; j < ad.layout().pc; ++j) {
        outm.block(i, j) = sparse::map_values<R>(
            ad.block(i, j),
            [&](sparse::vid_t, sparse::vid_t, const TA& v) { return fn(v); });
        world.sim().charge_compute(ad.layout().rank_at(i, j),
                                   static_cast<double>(ad.block(i, j).nnz()));
      }
    }
    return outm;
  }
};

}  // namespace detail

/// Distributed elementwise unary function (the §6.1 Function, distributed).
template <typename R, typename TA, typename Fn>
class DFunction {
 public:
  explicit DFunction(Fn fn) : fn_(std::move(fn)) {}

  auto operator()(DIndexed<TA> a) const {
    return detail::DMapExpr<R, TA, Fn>{a, fn_};
  }

 private:
  Fn fn_;
};

template <typename R, typename TA, typename Fn>
DFunction<R, TA, Fn> make_dfunction(Fn fn) {
  return DFunction<R, TA, Fn>(std::move(fn));
}

}  // namespace mfbc::ctfx
