// Tests for the sequential sparse kernels: construction, elementwise and
// structural ops, and the generalized SpGEMM against a dense reference.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/rng.hpp"

namespace mfbc::sparse {
namespace {

using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::kInfWeight;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using algebra::TropicalMinMonoid;

Csr<double> random_csr(vid_t m, vid_t n, double density, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j, static_cast<double>(1 + rng.bounded(9)));
      }
    }
  }
  return Csr<double>::from_coo<SumMonoid>(std::move(coo));
}

/// Dense reference of the generalized product over (SumMonoid, multiply).
std::vector<double> dense_matmul(const Csr<double>& a, const Csr<double>& b) {
  std::vector<double> c(static_cast<std::size_t>(a.nrows()) *
                            static_cast<std::size_t>(b.ncols()),
                        0.0);
  for (vid_t i = 0; i < a.nrows(); ++i) {
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    for (std::size_t x = 0; x < cols.size(); ++x) {
      auto bc = b.row_cols(cols[x]);
      auto bv = b.row_vals(cols[x]);
      for (std::size_t y = 0; y < bc.size(); ++y) {
        c[static_cast<std::size_t>(i) * static_cast<std::size_t>(b.ncols()) +
          static_cast<std::size_t>(bc[y])] += vals[x] * bv[y];
      }
    }
  }
  return c;
}

struct Times {
  double operator()(double a, double b) const { return a * b; }
};

TEST(Coo, SortAndCombineMergesDuplicates) {
  Coo<double> coo(3, 3);
  coo.push(1, 2, 1.0);
  coo.push(0, 0, 2.0);
  coo.push(1, 2, 3.0);
  coo.push(2, 1, -1.0);
  coo.push(2, 1, 1.0);  // cancels to the SumMonoid identity -> dropped
  coo.sort_and_combine<SumMonoid>();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (CooEntry<double>{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (CooEntry<double>{1, 2, 4.0}));
}

TEST(Coo, BoundsChecked) {
  Coo<double> coo(2, 2);
  EXPECT_NO_THROW(coo.push(1, 1, 1.0));
#ifndef NDEBUG
  EXPECT_THROW(coo.push(2, 0, 1.0), Error);
#endif
}

TEST(Csr, FromCooAndRoundTrip) {
  Coo<double> coo(4, 5);
  coo.push(0, 1, 1.0);
  coo.push(2, 0, 2.0);
  coo.push(2, 4, 3.0);
  coo.push(3, 3, 4.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.nrows(), 4);
  EXPECT_EQ(a.ncols(), 5);
  EXPECT_EQ(a.nnz(), 4);
  EXPECT_EQ(a.row_nnz(2), 2);
  EXPECT_EQ(a.row_cols(2)[0], 0);
  EXPECT_EQ(a.row_cols(2)[1], 4);
  auto back = Csr<double>::from_coo<SumMonoid>(a.to_coo());
  EXPECT_EQ(a, back);
}

TEST(Csr, FromSortedCooStillDropsIdentity) {
  Coo<double> coo(3, 4);
  coo.push(0, 1, 1.0);
  coo.push(1, 0, 0.0);  // the SumMonoid identity, already in row-major order
  coo.push(1, 3, 2.0);
  coo.push(2, 2, 3.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.nnz(), 3);
  ASSERT_EQ(a.row_nnz(1), 1);
  EXPECT_EQ(a.row_cols(1)[0], 3);
  EXPECT_EQ(a.row_vals(1)[0], 2.0);
}

TEST(Csr, FromSortedCooStillMergesDuplicates) {
  Coo<double> coo(3, 4);
  coo.push(0, 1, 1.0);
  coo.push(1, 2, 2.0);
  coo.push(1, 2, 3.0);  // sorted, but not strictly: merges with the entry above
  coo.push(2, 0, 4.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.nnz(), 3);
  ASSERT_EQ(a.row_nnz(1), 1);
  EXPECT_EQ(a.row_cols(1)[0], 2);
  EXPECT_EQ(a.row_vals(1)[0], 5.0);
}

TEST(Csr, EmptyMatrix) {
  Csr<double> a(3, 7);
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.row_nnz(2), 0);
}

using RowSpan = std::pair<vid_t, vid_t>;

TEST(Csr, OccupiedRowsOfAZeroRowMatrixAreEmpty) {
  EXPECT_EQ(Csr<double>().occupied_rows(), RowSpan(0, 0));
  EXPECT_EQ(Csr<double>(0, 5).occupied_rows(), RowSpan(0, 0));
}

TEST(Csr, OccupiedRowsOfAnAllEmptyMatrixAreEmpty) {
  EXPECT_EQ(Csr<double>(6, 4).occupied_rows(), RowSpan(0, 0));
}

TEST(Csr, OccupiedRowsWhenOnlyTheFirstRowHoldsEntries) {
  Coo<double> coo(5, 4);
  coo.push(0, 1, 1.0);
  coo.push(0, 3, 2.0);
  const auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.occupied_rows(), RowSpan(0, 1));
}

TEST(Csr, OccupiedRowsWhenOnlyTheLastRowHoldsEntries) {
  Coo<double> coo(5, 4);
  coo.push(4, 0, 1.0);
  const auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.occupied_rows(), RowSpan(4, 5));
}

TEST(Csr, OccupiedRowsSpanEmptyRowsInside) {
  // Rows 0-1 and 7-8 are empty, and so are rows 3 and 5 inside the span.
  Coo<double> coo(9, 3);
  coo.push(2, 0, 1.0);
  coo.push(4, 1, 2.0);
  coo.push(4, 2, 3.0);
  coo.push(6, 2, 4.0);
  const auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.occupied_rows(), RowSpan(2, 7));
}

TEST(Csr, InvalidConstructionThrows) {
  EXPECT_THROW(Csr<double>(2, 2, {0, 1}, {0}, {1.0}), Error);       // rowptr len
  EXPECT_THROW(Csr<double>(1, 2, {0, 2}, {0}, {1.0}), Error);       // nnz
  EXPECT_THROW(Csr<double>(1, 1, {0, 1}, {0}, {1.0, 2.0}), Error);  // col/val
}

TEST(Ops, EwiseUnionDisjointAndOverlap) {
  Coo<double> ca(2, 3), cb(2, 3);
  ca.push(0, 0, 1.0);
  ca.push(1, 2, 2.0);
  cb.push(0, 1, 3.0);
  cb.push(1, 2, 5.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(ca));
  auto b = Csr<double>::from_coo<SumMonoid>(std::move(cb));
  auto c = ewise_union<SumMonoid>(a, b);
  EXPECT_EQ(c.nnz(), 3);
  EXPECT_EQ(c.row_vals(0)[0], 1.0);
  EXPECT_EQ(c.row_vals(0)[1], 3.0);
  EXPECT_EQ(c.row_vals(1)[0], 7.0);
}

TEST(Ops, EwiseUnionDropsIdentity) {
  Coo<double> ca(1, 2), cb(1, 2);
  ca.push(0, 0, 4.0);
  cb.push(0, 0, -4.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(ca));
  auto b = Csr<double>::from_coo<SumMonoid>(std::move(cb));
  EXPECT_EQ(ewise_union<SumMonoid>(a, b).nnz(), 0);
}

TEST(Ops, EwiseUnionShapeMismatchThrows) {
  Csr<double> a(2, 2), b(2, 3);
  EXPECT_THROW(ewise_union<SumMonoid>(a, b), Error);
}

TEST(Ops, FilterByPredicate) {
  auto a = random_csr(6, 6, 0.5, 42);
  auto odd_cols = filter(a, [](vid_t, vid_t c, double) { return c % 2 == 1; });
  EXPECT_EQ(odd_cols.nrows(), a.nrows());
  nnz_t count = 0;
  for (vid_t r = 0; r < a.nrows(); ++r) {
    for (vid_t c : a.row_cols(r)) count += c % 2;
  }
  EXPECT_EQ(odd_cols.nnz(), count);
}

TEST(Ops, MapValuesChangesType) {
  auto a = random_csr(4, 4, 0.6, 3);
  auto m = map_values<Multpath>(
      a, [](vid_t, vid_t, double w) { return Multpath{w, 1.0}; });
  EXPECT_EQ(m.nnz(), a.nnz());
  for (vid_t r = 0; r < m.nrows(); ++r) {
    auto vals = m.row_vals(r);
    auto orig = a.row_vals(r);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_EQ(vals[i].w, orig[i]);
      EXPECT_EQ(vals[i].m, 1.0);
    }
  }
}

TEST(Ops, TransposeInvolution) {
  auto a = random_csr(7, 5, 0.4, 11);
  auto t = transpose(a);
  EXPECT_EQ(t.nrows(), 5);
  EXPECT_EQ(t.ncols(), 7);
  EXPECT_EQ(transpose(t), a);
}

TEST(Ops, TransposeEntryCorrespondence) {
  auto a = random_csr(6, 6, 0.5, 13);
  auto t = transpose(a);
  for (vid_t r = 0; r < a.nrows(); ++r) {
    auto cols = a.row_cols(r);
    auto vals = a.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      auto tc = t.row_cols(cols[i]);
      auto tv = t.row_vals(cols[i]);
      bool found = false;
      for (std::size_t j = 0; j < tc.size(); ++j) {
        if (tc[j] == r) {
          EXPECT_EQ(tv[j], vals[i]);
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(Ops, SliceRowsMatchesFilter) {
  auto a = random_csr(10, 6, 0.4, 17);
  auto s = slice_rows(a, 3, 7);
  EXPECT_EQ(s.nrows(), 4);
  EXPECT_EQ(s.ncols(), 6);
  for (vid_t r = 0; r < 4; ++r) {
    ASSERT_EQ(s.row_nnz(r), a.row_nnz(r + 3));
    auto sc = s.row_cols(r);
    auto ac = a.row_cols(r + 3);
    for (std::size_t i = 0; i < sc.size(); ++i) EXPECT_EQ(sc[i], ac[i]);
  }
}

TEST(Ops, SliceColsKeepsShapeAndIndexSpace) {
  auto a = random_csr(8, 10, 0.4, 19);
  auto s = slice_cols(a, 2, 6);
  EXPECT_EQ(s.nrows(), a.nrows());
  EXPECT_EQ(s.ncols(), a.ncols());
  for (vid_t r = 0; r < s.nrows(); ++r) {
    for (vid_t c : s.row_cols(r)) {
      EXPECT_GE(c, 2);
      EXPECT_LT(c, 6);
    }
  }
}

class SpgemmRandom
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SpgemmRandom, MatchesDenseReference) {
  auto [m, k, n] = std::tuple{std::get<0>(GetParam()), std::get<1>(GetParam()),
                              std::get<2>(GetParam())};
  const double density = std::get<3>(GetParam());
  auto a = random_csr(m, k, density, 101 + static_cast<std::uint64_t>(m));
  auto b = random_csr(k, n, density, 202 + static_cast<std::uint64_t>(n));
  SpgemmStats st;
  auto c = spgemm<SumMonoid>(a, b, Times{}, &st);
  EXPECT_EQ(st.ops, spgemm_ops(a, b));
  auto ref = dense_matmul(a, b);
  for (vid_t i = 0; i < c.nrows(); ++i) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    auto cols = c.row_cols(i);
    auto vals = c.row_vals(i);
    for (std::size_t x = 0; x < cols.size(); ++x) {
      row[static_cast<std::size_t>(cols[x])] = vals[x];
    }
    for (vid_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(
          row[static_cast<std::size_t>(j)],
          ref[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(j)])
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpgemmRandom,
    ::testing::Values(std::tuple{1, 1, 1, 1.0}, std::tuple{4, 4, 4, 0.5},
                      std::tuple{8, 3, 5, 0.4}, std::tuple{16, 16, 16, 0.2},
                      std::tuple{5, 20, 7, 0.3}, std::tuple{32, 8, 32, 0.1},
                      std::tuple{10, 10, 10, 0.0},
                      std::tuple{24, 24, 24, 0.9}));

TEST(Spgemm, RowOffsetSliceEquivalence) {
  // Multiplying against a row slice of B with b_row_offset must equal the
  // slice-extended product: contributions from k outside the slice vanish.
  auto a = random_csr(6, 12, 0.5, 31);
  auto b = random_csr(12, 6, 0.5, 37);
  auto full = spgemm<SumMonoid>(a, b, Times{});
  // Sum of the products against each of three k-slices == full product.
  Csr<double> acc(6, 6);
  for (vid_t lo = 0; lo < 12; lo += 4) {
    auto bs = slice_rows(b, lo, lo + 4);
    auto part = spgemm<SumMonoid>(a, bs, Times{}, nullptr, lo);
    acc = ewise_union<SumMonoid>(acc, part);
  }
  EXPECT_EQ(acc, full);
}

TEST(Spgemm, MultpathShortestPathSemantics) {
  // Two-hop relaxation on a diamond: s->a (1), s->b (1), a->t (1), b->t (1):
  // the product must find t at distance 2 with multiplicity 2.
  Coo<Multpath> fc(1, 4);
  fc.push(0, 1, Multpath{1.0, 1.0});  // a
  fc.push(0, 2, Multpath{1.0, 1.0});  // b
  auto f = Csr<Multpath>::from_coo<MultpathMonoid>(std::move(fc));
  Coo<double> ac(4, 4);
  ac.push(1, 3, 1.0);
  ac.push(2, 3, 1.0);
  auto adj = Csr<double>::from_coo<SumMonoid>(std::move(ac));
  auto g = spgemm<MultpathMonoid>(f, adj, algebra::BellmanFordAction{});
  ASSERT_EQ(g.nnz(), 1);
  EXPECT_EQ(g.row_cols(0)[0], 3);
  EXPECT_EQ(g.row_vals(0)[0], (Multpath{2.0, 2.0}));
}

TEST(Spgemm, InnerDimensionMismatchThrows) {
  Csr<double> a(2, 3), b(4, 2);
  EXPECT_THROW(spgemm<SumMonoid>(a, b, Times{}), Error);
}

// ---------------------------------------------------------------------------
// Row emission walks the occupancy bitmap word by word. Each monoid's case
// multiplies A (values of the monoid) by B (double weights) through a
// bridge that applies the weight, into rows that cross word boundaries.

struct SumCase {
  using M = SumMonoid;
  static double value(int x) { return (x + 1) * 0.1; }
  static double cancel(bool first) { return first ? 0.3 : -0.3; }
  double operator()(double a, double w) const { return a * w; }
};
struct TropicalCase {
  using M = TropicalMinMonoid;
  static double value(int x) { return 1.0 + x * 0.1; }
  // min never reaches +inf from finite values: the cancelling row's
  // products are +inf themselves.
  static double cancel(bool) { return kInfWeight; }
  double operator()(double a, double w) const { return a + w; }
};
struct MultpathCase {
  using M = MultpathMonoid;
  static Multpath value(int x) { return {static_cast<double>(x % 3), 1.0 + x}; }
  static Multpath cancel(bool first) {
    return {kInfWeight, first ? 1.0 : -1.0};
  }
  Multpath operator()(const Multpath& a, double w) const {
    return algebra::BellmanFordAction{}(a, w);
  }
};
struct CentpathCase {
  using M = CentpathMonoid;
  static Centpath value(int x) {
    return {static_cast<double>(x % 3), 0.1 * (1 + x), 1.0};
  }
  static Centpath cancel(bool first) {
    return {-kInfWeight, first ? 0.7 : -0.7, first ? 1.0 : -1.0};
  }
  Centpath operator()(const Centpath& a, double w) const {
    return algebra::BrandesAction{}(a, w);
  }
};

/// The product accumulated per row in a std::map, in the kernel's product
/// order, emitted in key order: the sort-emit reference.
template <typename C, typename TA>
Csr<typename C::M::value_type> map_reference(const Csr<TA>& a,
                                             const Csr<double>& b) {
  using M = typename C::M;
  using TC = typename M::value_type;
  Coo<TC> coo(a.nrows(), b.ncols());
  for (vid_t i = 0; i < a.nrows(); ++i) {
    std::map<vid_t, TC> row;
    for (std::size_t t = 0; t < a.row_cols(i).size(); ++t) {
      const vid_t k = a.row_cols(i)[t];
      for (std::size_t u = 0; u < b.row_cols(k).size(); ++u) {
        TC prod = C{}(a.row_vals(i)[t], b.row_vals(k)[u]);
        auto [it, fresh] = row.try_emplace(b.row_cols(k)[u], prod);
        if (!fresh) it->second = M::combine(it->second, prod);
      }
    }
    for (const auto& [j, v] : row) {
      if (!M::is_identity(v)) coo.push(i, j, v);
    }
  }
  return Csr<TC>::template from_coo<KeepFirst<TC>>(std::move(coo));
}

template <typename C>
void check_bitmap_emit() {
  using TC = typename C::M::value_type;
  const vid_t n = 16384, k = 10;
  // Row 0 touches the columns either side of the first word boundaries and
  // the last column; row 1 every column of [0, 200); row 2 cancels its only
  // column; row 3 cancels column 63 and keeps 64 and n−1; row 4 is empty;
  // row 5 touches the last and first columns only.
  Coo<TC> ac(6, k);
  ac.push(0, 0, C::value(0));
  ac.push(0, 1, C::value(1));
  ac.push(1, 2, C::value(2));
  ac.push(1, 3, C::value(3));
  ac.push(2, 4, C::cancel(true));
  ac.push(2, 5, C::cancel(false));
  ac.push(3, 6, C::cancel(true));
  ac.push(3, 7, C::cancel(false));
  ac.push(3, 8, C::value(8));
  ac.push(5, 9, C::value(9));
  Coo<double> bc(k, n);
  for (vid_t j : {vid_t{0}, vid_t{63}, vid_t{64}, vid_t{127}, vid_t{128},
                  n - 1}) {
    bc.push(0, j, 1.0 + static_cast<double>(j % 5));
  }
  for (vid_t j : {vid_t{63}, vid_t{64}, n - 1}) bc.push(1, j, 2.0);
  for (vid_t j = 0; j < 200; ++j) {
    bc.push(2 + j % 2, j, 1.0 + static_cast<double>(j % 3));
  }
  bc.push(4, 64, 1.0);
  bc.push(5, 64, 1.0);
  bc.push(6, 63, 1.0);
  bc.push(7, 63, 1.0);
  bc.push(8, 64, 2.0);
  bc.push(8, n - 1, 3.0);
  bc.push(9, n - 1, 1.5);
  bc.push(9, 0, 2.5);
  // KeepFirst stores the identity-valued operands the cancelling rows use.
  const auto a = Csr<TC>::template from_coo<KeepFirst<TC>>(std::move(ac));
  const auto b = Csr<double>::from_coo<SumMonoid>(std::move(bc));
  SpgemmWorkspace<TC> ws;
  const auto c = spgemm<typename C::M>(a, b, C{}, nullptr, 0, &ws);
  EXPECT_EQ(c, (map_reference<C>(a, b)));
  EXPECT_EQ(c.row_nnz(0), 6);
  EXPECT_EQ(c.row_nnz(1), 200);
  EXPECT_EQ(c.row_nnz(2), 0);
  EXPECT_EQ(c.row_nnz(3), 2);
  EXPECT_EQ(c.row_nnz(4), 0);
  EXPECT_EQ(c.row_nnz(5), 2);
  // The emit left the workspace clean: a second call gives the same bytes.
  EXPECT_EQ(spgemm<typename C::M>(a, b, C{}, nullptr, 0, &ws), c);
}

TEST(Spgemm, BitmapEmitMatchesTheMapReferenceForEveryMonoid) {
  check_bitmap_emit<SumCase>();
  check_bitmap_emit<TropicalCase>();
  check_bitmap_emit<MultpathCase>();
  check_bitmap_emit<CentpathCase>();
}

// ---------------------------------------------------------------------------
// spgemm_fold against the explicit chain it replaces

/// Non-dyadic values, so a changed ⊕ order changes bits.
Csr<double> nondyadic_csr(vid_t m, vid_t n, double density,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j, (1 + static_cast<double>(rng.bounded(999))) / 1000.0 *
                           (rng.bounded(2) == 0 ? 1.0 : -1.0));
      }
    }
  }
  return Csr<double>::from_coo<SumMonoid>(std::move(coo));
}

/// The chain by slices: per segment, slice A's rows and k window and B's
/// column window, multiply, shift the partial to the segment's rows, and
/// ewise_union it into the running matrix; counts as the 2D driver took
/// them from the intermediate matrices.
template <typename M, typename TA, typename TB, typename F>
Csr<typename M::value_type> chain_reference(
    vid_t nrows, vid_t ncols, const std::vector<FoldSegment<TA, TB>>& segs,
    F f, std::vector<FoldCounts>& counts) {
  using TC = typename M::value_type;
  Csr<TC> running(nrows, ncols);
  counts.assign(segs.size(), {});
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const auto& sg = segs[s];
    const auto a = slice_cols(slice_rows(*sg.a, sg.row_lo - sg.a_row_offset,
                                         sg.row_hi - sg.a_row_offset),
                              sg.k_lo, sg.k_hi);
    const auto b = slice_cols(*sg.b, sg.col_lo, sg.col_hi);
    SpgemmStats st;
    const auto part = spgemm<M>(a, b, f, &st, sg.b_row_offset);
    Coo<TC> shifted(nrows, ncols);
    for (vid_t r = 0; r < part.nrows(); ++r) {
      for (std::size_t x = 0; x < part.row_cols(r).size(); ++x) {
        shifted.push(r + sg.row_lo, part.row_cols(r)[x], part.row_vals(r)[x]);
      }
    }
    counts[s].ops = st.ops;
    counts[s].partial_nnz = part.nnz();
    counts[s].running_nnz =
        running.rowptr()[static_cast<std::size_t>(sg.row_hi)] -
        running.rowptr()[static_cast<std::size_t>(sg.row_lo)];
    running = ewise_union<M>(
        running, Csr<TC>::template from_coo<KeepFirst<TC>>(std::move(shifted)));
  }
  return running;
}

template <typename M, typename TA, typename TB, typename F>
void expect_fold_matches_chain(vid_t nrows, vid_t ncols, vid_t col_lo,
                               vid_t col_hi,
                               const std::vector<FoldSegment<TA, TB>>& segs,
                               F f, SpgemmWorkspace<typename M::value_type>& ws) {
  std::vector<FoldCounts> want;
  const auto expected = chain_reference<M>(nrows, ncols, segs, f, want);
  std::vector<FoldCounts> got(segs.size());
  const auto c = spgemm_fold<M>(nrows, ncols, col_lo, col_hi,
                                std::span<const FoldSegment<TA, TB>>(segs), f,
                                got.data(), ws);
  EXPECT_EQ(c, expected);
  for (std::size_t s = 0; s < segs.size(); ++s) {
    EXPECT_EQ(got[s].ops, want[s].ops) << "segment " << s;
    EXPECT_EQ(got[s].partial_nnz, want[s].partial_nnz) << "segment " << s;
    EXPECT_EQ(got[s].running_nnz, want[s].running_nnz) << "segment " << s;
  }
}

TEST(SpgemmFold, MatchesTheSliceMultiplyUnionChain) {
  // A 12×30 against B's rows split in three blocks of 10 (B row offsets 0,
  // 10, 20); output columns [6, 30).
  const vid_t m = 12, k = 30, n = 34;
  const auto a = nondyadic_csr(m, k, 0.35, 61);
  const auto b = nondyadic_csr(k, n, 0.35, 62);
  const Csr<double> b0 = slice_rows(b, 0, 10), b1 = slice_rows(b, 10, 20),
                    b2 = slice_rows(b, 20, 30);
  using Seg = FoldSegment<double, double>;
  SpgemmWorkspace<double> ws;
  // AB-shaped: every row, k windows finer than B's blocks.
  expect_fold_matches_chain<SumMonoid>(
      m, n, 6, 30,
      std::vector<Seg>{{&a, &b0, 0, m, 0, 0, 5, 0, 6, 30},
                       {&a, &b0, 0, m, 0, 5, 10, 0, 6, 30},
                       {&a, &b1, 0, m, 0, 10, 20, 10, 6, 30},
                       {&a, &b2, 0, m, 0, 20, 25, 20, 6, 30},
                       {&a, &b2, 0, m, 0, 25, 30, 20, 6, 30}},
      Times{}, ws);
  // AC-shaped: row windows reading A at an offset (output row x reads A row
  // x + 2), each window folding all three k blocks.
  const Csr<double> a_tall = nondyadic_csr(m + 4, k, 0.35, 63);
  std::vector<Seg> ac;
  for (const auto& [lo, hi] : {std::pair<vid_t, vid_t>{0, 5}, {5, 12}}) {
    ac.push_back({&a_tall, &b0, lo, hi, -2, 0, 10, 0, 6, 30});
    ac.push_back({&a_tall, &b1, lo, hi, -2, 10, 20, 10, 6, 30});
    ac.push_back({&a_tall, &b2, lo, hi, -2, 20, 30, 20, 6, 30});
  }
  expect_fold_matches_chain<SumMonoid>(m, n, 6, 30, ac, Times{}, ws);
  // BC-shaped: column windows, each folding all three k blocks.
  std::vector<Seg> bc;
  for (const auto& [lo, hi] : {std::pair<vid_t, vid_t>{6, 17}, {17, 30}}) {
    bc.push_back({&a, &b0, 0, m, 0, 0, 10, 0, lo, hi});
    bc.push_back({&a, &b1, 0, m, 0, 10, 20, 10, lo, hi});
    bc.push_back({&a, &b2, 0, m, 0, 20, 30, 20, lo, hi});
  }
  expect_fold_matches_chain<SumMonoid>(m, n, 6, 30, bc, Times{}, ws);
}

TEST(SpgemmFold, CancelledEntriesAreDroppedAndMayReturn) {
  // Row 0 meets column 3 through k = 0, 1, 2, 3 with products 1, −1, 0.25
  // and −0.25 in four segments: the fold cancels the entry after the
  // second, adds it back in the third and cancels it again in the fourth.
  Coo<double> ac(2, 4), bc(4, 8);
  const double vs[] = {1.0, -1.0, 0.25, -0.25};
  for (vid_t x = 0; x < 4; ++x) {
    ac.push(0, x, vs[x]);
    ac.push(1, x, 0.5);
    bc.push(x, 3, 1.0);
    bc.push(x, 5, 0.1 * static_cast<double>(x + 1));
  }
  const auto a = Csr<double>::from_coo<SumMonoid>(std::move(ac));
  const auto b = Csr<double>::from_coo<SumMonoid>(std::move(bc));
  using Seg = FoldSegment<double, double>;
  std::vector<Seg> segs;
  for (vid_t x = 0; x < 4; ++x) segs.push_back({&a, &b, 0, 2, 0, x, x + 1, 0, 0, 8});
  SpgemmWorkspace<double> ws;
  expect_fold_matches_chain<SumMonoid>(2, 8, 0, 8, segs, Times{}, ws);
  std::vector<FoldCounts> counts(segs.size());
  const auto c = spgemm_fold<SumMonoid>(2, 8, 0, 8,
                                        std::span<const Seg>(segs), Times{},
                                        counts.data(), ws);
  EXPECT_EQ(c.row_nnz(0), 1);  // only column 5 survives in row 0
  EXPECT_EQ(counts[2].running_nnz, 3);  // row 0: {5}; row 1: {3, 5}
  EXPECT_EQ(counts[3].running_nnz, 4);
}

TEST(SpgemmFold, CentpathChainMatchesTheSliceMultiplyUnionChain) {
  Xoshiro256 rng(71);
  Coo<Centpath> fc(10, 24);
  for (vid_t i = 0; i < 10; ++i) {
    for (vid_t j = 0; j < 24; ++j) {
      if (rng.uniform01() < 0.4) {
        fc.push(i, j, Centpath{static_cast<double>(4 + rng.bounded(3)),
                               0.001 * static_cast<double>(1 + rng.bounded(999)),
                               1.0});
      }
    }
  }
  const auto f = Csr<Centpath>::from_coo<CentpathMonoid>(std::move(fc));
  Coo<double> wc(24, 20);
  for (vid_t i = 0; i < 24; ++i) {
    for (vid_t j = 0; j < 20; ++j) {
      if (rng.uniform01() < 0.4) wc.push(i, j, 1.0 + static_cast<double>(rng.bounded(2)));
    }
  }
  const auto w = Csr<double>::from_coo<SumMonoid>(std::move(wc));
  using Seg = FoldSegment<Centpath, double>;
  std::vector<Seg> segs;
  for (vid_t lo = 0; lo < 24; lo += 6) segs.push_back({&f, &w, 0, 10, 0, lo, lo + 6, 0, 0, 20});
  SpgemmWorkspace<Centpath> ws;
  expect_fold_matches_chain<CentpathMonoid>(10, 20, 0, 20, segs,
                                            algebra::BrandesAction{}, ws);
}

TEST(SpgemmFold, ThrowingBridgeLeavesTheNextCallClean) {
  const auto a = nondyadic_csr(10, 15, 0.5, 81);
  const auto b = nondyadic_csr(15, 15, 0.5, 82);
  using Seg = FoldSegment<double, double>;
  const std::vector<Seg> segs{{&a, &b, 0, 10, 0, 0, 8, 0, 0, 15},
                              {&a, &b, 0, 10, 0, 8, 15, 0, 0, 15}};
  SpgemmWorkspace<double> ws;
  std::vector<FoldCounts> counts(segs.size());
  int calls = 0;
  auto throwing = [&](double x, double y) -> double {
    if (++calls == 40) throw std::runtime_error("bridge");
    return x * y;
  };
  // The throw lands mid-row with both the product and the running
  // accumulator dirty.
  EXPECT_THROW(spgemm_fold<SumMonoid>(10, 15, 0, 15, std::span<const Seg>(segs),
                                      throwing, counts.data(), ws),
               std::runtime_error);
  expect_fold_matches_chain<SumMonoid>(10, 15, 0, 15, segs, Times{}, ws);
  // A monoid with another identity over the same value type refills it too.
  SpgemmWorkspace<double> fresh;
  std::vector<FoldCounts> c1(segs.size()), c2(segs.size());
  EXPECT_EQ(spgemm_fold<TropicalMinMonoid>(10, 15, 0, 15,
                                           std::span<const Seg>(segs),
                                           std::plus<>{}, c1.data(), ws),
            spgemm_fold<TropicalMinMonoid>(10, 15, 0, 15,
                                           std::span<const Seg>(segs),
                                           std::plus<>{}, c2.data(), fresh));
}

TEST(SpgemmFold, WindowOffTheWordGridMatchesTheChain) {
  // Output columns [37, 261) of a 300-wide block: running slot j − 37 and
  // product slot j sit in words that do not line up.
  const vid_t m = 9, k = 24, n = 300;
  const auto a = nondyadic_csr(m, k, 0.4, 91);
  const auto b = nondyadic_csr(k, n, 0.3, 92);
  const Csr<double> b0 = slice_rows(b, 0, 12), b1 = slice_rows(b, 12, 24);
  using Seg = FoldSegment<double, double>;
  SpgemmWorkspace<double> ws;
  expect_fold_matches_chain<SumMonoid>(
      m, n, 37, 261,
      std::vector<Seg>{{&a, &b0, 0, m, 0, 0, 12, 0, 37, 261},
                       {&a, &b1, 0, m, 0, 12, 24, 12, 37, 261}},
      Times{}, ws);
  std::vector<Seg> bc;
  for (const auto& [lo, hi] :
       {std::pair<vid_t, vid_t>{37, 101}, {101, 165}, {165, 261}}) {
    bc.push_back({&a, &b0, 0, m, 0, 0, 12, 0, lo, hi});
    bc.push_back({&a, &b1, 0, m, 0, 12, 24, 12, lo, hi});
  }
  expect_fold_matches_chain<SumMonoid>(m, n, 37, 261, bc, Times{}, ws);
  expect_fold_matches_chain<TropicalMinMonoid>(m, n, 37, 261, bc,
                                               std::plus<>{}, ws);
}

TEST(SpgemmFold, CancelledColumnRevivesAcrossAWordBoundary) {
  // Window [5, 200): columns 68 and 69 sit in running slots 63 and 64, and
  // column 64 starts the product row's second word. Row 0's products per
  // link, at columns (64, 68, 69):
  //   link 0: ( 2,     1,    1  )
  //   link 1: (−2,    −1,    0.5)  64 and 68 cancel
  //   link 2: ( –,     0.25, –  )  68 comes back
  //   link 3: ( 0.125, –,   −1.5)  64 comes back, 69 cancels
  // Row 1 meets column 68 through link 2 only.
  const vid_t n = 200;
  Coo<double> ac(2, 4), bc(4, n);
  for (vid_t x = 0; x < 4; ++x) ac.push(0, x, 1.0);
  ac.push(1, 2, 1.0);
  bc.push(0, 64, 2.0);
  bc.push(0, 68, 1.0);
  bc.push(0, 69, 1.0);
  bc.push(1, 64, -2.0);
  bc.push(1, 68, -1.0);
  bc.push(1, 69, 0.5);
  bc.push(2, 68, 0.25);
  bc.push(3, 64, 0.125);
  bc.push(3, 69, -1.5);
  const auto a = Csr<double>::from_coo<SumMonoid>(std::move(ac));
  const auto b = Csr<double>::from_coo<SumMonoid>(std::move(bc));
  using Seg = FoldSegment<double, double>;
  std::vector<Seg> segs;
  for (vid_t x = 0; x < 4; ++x) {
    segs.push_back({&a, &b, 0, 2, 0, x, x + 1, 0, 5, n});
  }
  SpgemmWorkspace<double> ws;
  expect_fold_matches_chain<SumMonoid>(2, n, 5, n, segs, Times{}, ws);
  std::vector<FoldCounts> counts(segs.size());
  const auto c = spgemm_fold<SumMonoid>(2, n, 5, n, std::span<const Seg>(segs),
                                        Times{}, counts.data(), ws);
  ASSERT_EQ(c.row_nnz(0), 2);
  EXPECT_EQ(c.row_cols(0)[0], 64);
  EXPECT_EQ(c.row_vals(0)[0], 0.125);
  EXPECT_EQ(c.row_cols(0)[1], 68);
  EXPECT_EQ(c.row_vals(0)[1], 0.25);
  EXPECT_EQ(c.row_nnz(1), 1);
  EXPECT_EQ(counts[1].running_nnz, 3);
  EXPECT_EQ(counts[2].running_nnz, 1);
  EXPECT_EQ(counts[3].running_nnz, 2 + 1);  // row 1 holds column 68 by then
}

}  // namespace
}  // namespace mfbc::sparse
