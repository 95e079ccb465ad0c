// Tests for the sequential sparse kernels: construction, elementwise and
// structural ops, and the generalized SpGEMM against a dense reference.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/rng.hpp"

namespace mfbc::sparse {
namespace {

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

TEST(Ops, EmbedRowsRoundTripsWithSlice) {
  auto a = random_csr(4, 5, 0.5, 23);
  auto e = embed_rows(a, 10, 3);
  EXPECT_EQ(e.nrows(), 10);
  EXPECT_EQ(e.nnz(), a.nnz());
  EXPECT_EQ(slice_rows(e, 3, 7), a);
  EXPECT_EQ(e.row_nnz(0), 0);
  EXPECT_EQ(e.row_nnz(9), 0);
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

}  // namespace
}  // namespace mfbc::sparse
