// Tests for the distributed matrix container: scatter/gather round trips,
// redistribution across layouts (including transposed homes), elementwise
// ops, and the cost charges that accompany the data movement.
#include <gtest/gtest.h>

#include "algebra/tropical.hpp"
#include "dist/dmatrix.hpp"
#include "support/rng.hpp"

namespace mfbc::dist {
namespace {

using algebra::SumMonoid;
using sparse::Coo;
using sparse::Csr;

Csr<double> random_csr(vid_t m, vid_t n, double density, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j, static_cast<double>(1 + rng.bounded(99)));
      }
    }
  }
  return Csr<double>::from_coo<SumMonoid>(std::move(coo));
}

TEST(DistMatrix, ScatterGatherRoundTrip) {
  sim::Sim sim(6);
  auto a = random_csr(20, 15, 0.3, 1);
  Layout l{0, 2, 3, Range{0, 20}, Range{0, 15}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  EXPECT_EQ(d.nnz(), a.nnz());
  EXPECT_EQ(d.gather(sim), a);
}

TEST(DistMatrix, ScatterChargesFullPayload) {
  sim::Sim sim(4);
  auto a = random_csr(16, 16, 0.25, 2);
  Layout l{0, 2, 2, Range{0, 16}, Range{0, 16}, false};
  DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  // Scatter of nnz entries at 2 words each (double value + index).
  EXPECT_DOUBLE_EQ(sim.ledger().critical().words,
                   static_cast<double>(a.nnz()) * 2.0);
}

TEST(DistMatrix, BlocksHoldLocalRowsGlobalCols) {
  sim::Sim sim(4);
  auto a = random_csr(8, 8, 0.5, 3);
  Layout l{0, 2, 2, Range{0, 8}, Range{0, 8}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  // Block (1,1): global rows 4..8, global cols 4..8; stored rows 0..4.
  const auto& blk = d.block(1, 1);
  EXPECT_EQ(blk.nrows(), 4);
  EXPECT_EQ(blk.ncols(), 8);
  for (vid_t r = 0; r < blk.nrows(); ++r) {
    for (vid_t c : blk.row_cols(r)) {
      EXPECT_GE(c, 4);
      EXPECT_LT(c, 8);
    }
  }
}

class RedistributeTest : public ::testing::TestWithParam<Layout> {};

TEST_P(RedistributeTest, PreservesContent) {
  sim::Sim sim(12);
  auto a = random_csr(24, 18, 0.3, 4);
  Layout src{0, 2, 2, Range{0, 24}, Range{0, 18}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, src);
  auto r = redistribute<SumMonoid>(sim, d, GetParam());
  EXPECT_EQ(r.gather(sim), a);
  // And back again.
  auto back = redistribute<SumMonoid>(sim, r, src);
  EXPECT_EQ(back.gather(sim), a);
}

// gtest shows each Layout as its raw bytes, and ctest puts that text in the
// test name. A static table zero-fills the padding bytes, so the names are the
// same in every build instead of carrying stack contents.
constexpr Layout kRedistributeTargets[] = {
    Layout{0, 1, 1, Range{0, 24}, Range{0, 18}, false},
    Layout{0, 4, 3, Range{0, 24}, Range{0, 18}, false},
    Layout{0, 3, 4, Range{0, 24}, Range{0, 18}, true},
    Layout{4, 2, 4, Range{0, 24}, Range{0, 18}, false},
    Layout{0, 12, 1, Range{0, 24}, Range{0, 18}, false},
    Layout{0, 1, 12, Range{0, 24}, Range{0, 18}, true}};

INSTANTIATE_TEST_SUITE_P(Targets, RedistributeTest,
                         ::testing::ValuesIn(kRedistributeTargets));

TEST(DistMatrix, RedistributeToSubRegionFilters) {
  sim::Sim sim(4);
  auto a = random_csr(10, 10, 0.5, 5);
  Layout src{0, 2, 2, Range{0, 10}, Range{0, 10}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, src);
  Layout sub{0, 2, 2, Range{0, 10}, Range{3, 8}, false};
  auto r = redistribute<SumMonoid>(sim, d, sub);
  EXPECT_EQ(r.gather(sim), sparse::slice_cols(a, 3, 8));
}

TEST(DistMatrix, RedistributeSameLayoutIsFree) {
  sim::Sim sim(4);
  auto a = random_csr(12, 12, 0.4, 6);
  Layout l{0, 2, 2, Range{0, 12}, Range{0, 12}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  sim.ledger().reset();
  auto r = redistribute<SumMonoid>(sim, d, l);
  EXPECT_DOUBLE_EQ(sim.ledger().critical().words, 0.0);
  EXPECT_EQ(r.gather(sim), a);
}

TEST(DistMatrix, EwiseUnionMatchesSequential) {
  sim::Sim sim(6);
  auto a = random_csr(15, 15, 0.3, 7);
  auto b = random_csr(15, 15, 0.3, 8);
  Layout l{0, 3, 2, Range{0, 15}, Range{0, 15}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  auto db = DistMatrix<double>::scatter<SumMonoid>(sim, b, l);
  auto dc = ewise_union<SumMonoid>(sim, da, db);
  EXPECT_EQ(dc.gather(sim), sparse::ewise_union<SumMonoid>(a, b));
}

TEST(DistMatrix, EwiseUnionLayoutMismatchThrows) {
  sim::Sim sim(4);
  auto a = random_csr(8, 8, 0.3, 9);
  Layout l1{0, 2, 2, Range{0, 8}, Range{0, 8}, false};
  Layout l2{0, 4, 1, Range{0, 8}, Range{0, 8}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, l1);
  auto db = DistMatrix<double>::scatter<SumMonoid>(sim, a, l2);
  EXPECT_THROW(ewise_union<SumMonoid>(sim, da, db), Error);
}

TEST(DistMatrix, FilterMatchesSequential) {
  sim::Sim sim(6);
  auto a = random_csr(12, 9, 0.4, 10);
  Layout l{0, 2, 3, Range{0, 12}, Range{0, 9}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  auto pred = [](vid_t r, vid_t c, double v) {
    return (r + c) % 2 == 0 && v > 20;
  };
  auto f = filter(sim, d, pred);
  EXPECT_EQ(f.gather(sim), sparse::filter(a, pred));
}

TEST(DistMatrix, EmptyBlocksWhenMoreRanksThanRows) {
  sim::Sim sim(8);
  auto a = random_csr(3, 3, 0.8, 11);
  Layout l{0, 8, 1, Range{0, 3}, Range{0, 3}, false};
  auto d = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  EXPECT_EQ(d.gather(sim), a);
  // With 3 rows over 8 ranks, 5 ranks own empty row ranges (floor split
  // places them first).
  int empty = 0;
  for (int i = 0; i < 8; ++i) empty += d.block(i, 0).nrows() == 0;
  EXPECT_EQ(empty, 5);
  EXPECT_EQ(d.block(0, 0).nrows(), 0);
}

}  // namespace
}  // namespace mfbc::dist
