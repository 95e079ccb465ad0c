// Tests for the distributed matrix container: scatter/gather round trips,
// redistribution across layouts (including transposed homes), elementwise
// ops, and the cost charges that accompany the data movement.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "algebra/tropical.hpp"
#include "dist/dmatrix.hpp"
#include "dist/spgemm_dist.hpp"
#include "support/parallel.hpp"
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

// ---- Pinned data movement ----
//
// Every move below is checked twice over: each block it delivers must hold
// exactly the moved content restricted to that block's rows and columns, and
// the ledger's critical path over the move must equal the constants in the
// table, which were generated when the moves still binned entries per owner
// and sorted each block. Both hold at pool sizes 1 and 4.

/// `a` restricted to the entries inside rows × cols; shape kept.
Csr<double> region_of(const Csr<double>& a, Range rows, Range cols) {
  return sparse::filter(a, [&](vid_t r, vid_t c, double) {
    return rows.contains(r) && cols.contains(c);
  });
}

/// What a move delivered, next to the content its sources held (global
/// indices). Every delivered block must equal that content restricted to
/// the block's rows and columns.
struct Moved {
  Csr<double> content;
  std::vector<DistMatrix<double>> targets;
};

struct MoveCase {
  const char* name;
  Moved (*run)(sim::Sim&);  ///< places the sources, resets the ledger, moves
  double words, msgs, comm_seconds;
};

Layout full(int rank0, int pr, int pc, const Csr<double>& a, bool tr = false) {
  return Layout{rank0, pr, pc, Range{0, a.nrows()}, Range{0, a.ncols()}, tr};
}

DistMatrix<double> place(sim::Sim& sim, const Csr<double>& a, Layout l) {
  return DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
}

/// A gathered matrix as the single block of a one-rank layout.
DistMatrix<double> as_block(Csr<double> a) {
  DistMatrix<double> d(a.nrows(), a.ncols(),
                       Layout{0, 1, 1, Range{0, a.nrows()},
                              Range{0, a.ncols()}, false});
  d.block(0, 0) = std::move(a);
  return d;
}

const Csr<double>& mat24() {
  static const Csr<double> a = random_csr(24, 18, 0.3, 4);
  return a;
}
/// Columns 0..9 empty, so the left blocks of most grids hold nothing.
const Csr<double>& right_half() {
  static const Csr<double> a =
      sparse::slice_cols(random_csr(24, 18, 0.4, 12), 9, 18);
  return a;
}
const Csr<double>& tiny() {
  static const Csr<double> a = random_csr(3, 3, 0.8, 11);
  return a;
}
/// Past the size at which scatter and gather used to split across threads.
const Csr<double>& big() {
  static const Csr<double> a = random_csr(300, 300, 0.4, 13);
  return a;
}

Moved scatter_onto(sim::Sim& sim, const Csr<double>& a, Layout l) {
  sim.ledger().reset();
  return {a, {place(sim, a, l)}};
}

Moved gather_from(sim::Sim& sim, const Csr<double>& a, Layout l) {
  auto d = place(sim, a, l);
  sim.ledger().reset();
  return {region_of(a, l.rows, l.cols), {as_block(d.gather(sim))}};
}

Moved redistribute_to(sim::Sim& sim, const Csr<double>& a, Layout from,
                      Layout to) {
  auto d = place(sim, a, from);
  sim.ledger().reset();
  return {region_of(a, from.rows, from.cols),
          {redistribute<SumMonoid>(sim, d, to)}};
}

/// redistribute_to on 4-byte values, whose entries are 1.5 words on the wire.
Moved redistribute_floats(sim::Sim& sim, const Csr<double>& a, Layout from,
                          Layout to) {
  using sparse::KeepFirst;
  auto d = DistMatrix<float>::scatter<KeepFirst<float>>(
      sim, sparse::map_values<float>(
          a, [](vid_t, vid_t, double v) { return float(v); }),
      from);
  sim.ledger().reset();
  auto r = redistribute<KeepFirst<float>>(sim, d, to);
  DistMatrix<double> back(r.nrows(), r.ncols(), to);
  for (int i = 0; i < to.pr; ++i) {
    for (int j = 0; j < to.pc; ++j) {
      back.block(i, j) = sparse::map_values<double>(
          r.block(i, j), [](vid_t, vid_t, float v) { return double(v); });
    }
  }
  return {region_of(a, from.rows, from.cols), {std::move(back)}};
}

Moved split_into(sim::Sim& sim, const Csr<double>& a, Layout from,
                 const std::vector<Layout>& to) {
  auto d = place(sim, a, from);
  sim.ledger().reset();
  return {region_of(a, from.rows, from.cols),
          detail::split_to<SumMonoid>(sim, d, to)};
}

Moved merge_onto(sim::Sim& sim, const Csr<double>& a,
                 const std::vector<Layout>& from, Layout to) {
  std::vector<DistMatrix<double>> parts;
  Csr<double> content(a.nrows(), a.ncols());
  for (const Layout& l : from) {
    parts.push_back(place(sim, a, l));
    content = sparse::ewise_union<SumMonoid>(content,
                                             region_of(a, l.rows, l.cols));
  }
  sim.ledger().reset();
  return {std::move(content),
          {detail::merge_to<SumMonoid>(sim, a.nrows(), a.ncols(), parts, to)}};
}

const MoveCase kMoveCases[] = {
    {"scatter onto a 2x3 grid",
     +[](sim::Sim& s) { return scatter_onto(s, mat24(), full(0, 2, 3, mat24())); },
     0x1.28p+8, 0x1.8p+1, 0x1.ad23896c4a256p-18},
    {"scatter onto a transposed grid at rank 4",
     +[](sim::Sim& s) {
       return scatter_onto(s, mat24(), full(4, 3, 4, mat24(), true));
     },
     0x1.28p+8, 0x1p+2, 0x1.19ada338fcc8ep-17},
    {"scatter onto a sub-region",
     +[](sim::Sim& s) {
       return scatter_onto(
           s, mat24(), Layout{2, 2, 2, Range{5, 20}, Range{3, 15}, false});
     },
     0x1.28p+8, 0x1p+1, 0x1.26ebcc669ab8fp-18},
    {"scatter onto more ranks than rows",
     +[](sim::Sim& s) { return scatter_onto(s, tiny(), full(0, 8, 1, tiny())); },
     0x1.cp+3, 0x1.8p+1, 0x1.93e7e7ef511a4p-18},
    {"scatter a large matrix",
     +[](sim::Sim& s) { return scatter_onto(s, big(), full(0, 4, 4, big())); },
     0x1.17dep+16, 0x1p+2, 0x1.b23a57f339a6ap-14},
    {"gather from a 2x3 grid",
     +[](sim::Sim& s) { return gather_from(s, mat24(), full(0, 2, 3, mat24())); },
     0x1.28p+8, 0x1.8p+1, 0x1.ad23896c4a256p-18},
    {"gather from a transposed grid at rank 4",
     +[](sim::Sim& s) {
       return gather_from(s, mat24(), full(4, 3, 4, mat24(), true));
     },
     0x1.28p+8, 0x1p+2, 0x1.19ada338fcc8ep-17},
    {"gather from a sub-region",
     +[](sim::Sim& s) {
       return gather_from(
           s, mat24(), Layout{0, 2, 2, Range{5, 20}, Range{3, 15}, false});
     },
     0x1.fp+6, 0x1p+1, 0x1.1787e1bbf7ee1p-18},
    {"gather from more ranks than rows",
     +[](sim::Sim& s) { return gather_from(s, tiny(), full(0, 8, 1, tiny())); },
     0x1.cp+3, 0x1.8p+1, 0x1.93e7e7ef511a4p-18},
    {"gather a large matrix",
     +[](sim::Sim& s) { return gather_from(s, big(), full(0, 4, 4, big())); },
     0x1.17dep+16, 0x1p+2, 0x1.b23a57f339a6ap-14},
    {"redistribute normal to transposed at rank 4",
     +[](sim::Sim& s) {
       return redistribute_to(s, mat24(), full(0, 2, 2, mat24()),
                              full(4, 3, 4, mat24(), true));
     },
     0x1.4p+6, 0x1p+3, 0x1.0e399b48e2e48p-16},
    {"redistribute transposed to normal on shared ranks",
     +[](sim::Sim& s) {
       return redistribute_to(s, mat24(), full(0, 3, 4, mat24(), true),
                              full(2, 4, 3, mat24()));
     },
     0x1p+5, 0x1p+3, 0x1.0d26ba8a60771p-16},
    {"redistribute onto a sub-region",
     +[](sim::Sim& s) {
       return redistribute_to(
           s, mat24(), full(0, 2, 2, mat24()),
           Layout{1, 2, 2, Range{5, 20}, Range{3, 15}, false});
     },
     0x1.3p+5, 0x1.8p+2, 0x1.945a703eb21d2p-17},
    {"redistribute onto its own layout",
     +[](sim::Sim& s) {
       return redistribute_to(s, mat24(), full(0, 2, 2, mat24()),
                              full(0, 2, 2, mat24()));
     },
     0x0p+0, 0x0p+0, 0x0p+0},
    {"redistribute row stripes to column stripes",
     +[](sim::Sim& s) {
       return redistribute_to(s, mat24(), full(0, 12, 1, mat24()),
                              full(0, 1, 12, mat24()));
     },
     0x1.4p+5, 0x1p+3, 0x1.0d548aaa20deap-16},
    {"redistribute from more ranks than rows",
     +[](sim::Sim& s) {
       return redistribute_to(s, tiny(), full(0, 8, 1, tiny()),
                              full(2, 2, 3, tiny(), true));
     },
     0x1.8p+2, 0x1.8p+2, 0x1.92ebef40aee0ap-17},
    {"redistribute from empty source blocks",
     +[](sim::Sim& s) {
       return redistribute_to(s, right_half(), full(0, 2, 2, right_half()),
                              full(0, 3, 2, right_half(), true));
     },
     0x1.8p+6, 0x1.8p+2, 0x1.96f2ba0b17faep-17},
    {"redistribute a large matrix",
     +[](sim::Sim& s) {
       return redistribute_to(s, big(), full(0, 4, 4, big()),
                              full(0, 2, 8, big(), true));
     },
     0x1.248p+12, 0x1p+3, 0x1.7520129a0b846p-16},
    {"redistribute 4-byte values",
     +[](sim::Sim& s) {
       return redistribute_floats(s, mat24(), full(0, 2, 3, mat24()),
                                  full(3, 4, 3, mat24(), true));
     },
     0x1.44p+5, 0x1p+3, 0x1.0d5767ac1ce52p-16},
    {"split into two column halves",
     +[](sim::Sim& s) {
       return split_into(
           s, mat24(), full(0, 2, 2, mat24()),
           {Layout{0, 2, 2, Range{0, 24}, Range{0, 9}, false},
            Layout{4, 2, 2, Range{0, 24}, Range{9, 18}, true}});
     },
     0x1.4p+6, 0x1.8p+2, 0x1.963b798c165cap-17},
    {"split into three row thirds",
     +[](sim::Sim& s) {
       return split_into(
           s, mat24(), full(0, 3, 2, mat24(), true),
           {Layout{0, 1, 2, Range{0, 8}, Range{0, 18}, false},
            Layout{2, 1, 2, Range{8, 16}, Range{0, 18}, false},
            Layout{4, 2, 1, Range{16, 24}, Range{0, 18}, false}});
     },
     0x1.bp+5, 0x1.8p+2, 0x1.9511b0bdb3bb7p-17},
    {"split into targets that leave entries behind",
     +[](sim::Sim& s) {
       return split_into(
           s, mat24(), full(0, 2, 2, mat24()),
           {Layout{0, 2, 2, Range{0, 12}, Range{3, 15}, false},
            Layout{4, 1, 1, Range{12, 24}, Range{3, 15}, false}});
     },
     0x1.9p+6, 0x1.8p+2, 0x1.97208a2ad8627p-17},
    {"split from more ranks than rows",
     +[](sim::Sim& s) {
       return split_into(s, tiny(), full(0, 8, 1, tiny()),
                         {Layout{0, 4, 1, Range{0, 3}, Range{0, 2}, false},
                          Layout{4, 1, 4, Range{0, 3}, Range{2, 3}, true}});
     },
     0x1.8p+2, 0x1.8p+2, 0x1.92ebef40aee0ap-17},
    {"split from empty source blocks",
     +[](sim::Sim& s) {
       return split_into(
           s, right_half(), full(0, 2, 2, right_half()),
           {Layout{0, 2, 2, Range{0, 24}, Range{0, 12}, true},
            Layout{4, 2, 1, Range{0, 24}, Range{12, 18}, false}});
     },
     0x1.8p+6, 0x1.8p+2, 0x1.96f2ba0b17faep-17},
    {"merge three row thirds onto one grid",
     +[](sim::Sim& s) {
       return merge_onto(s, mat24(),
                         {Layout{0, 1, 2, Range{0, 8}, Range{0, 18}, false},
                          Layout{2, 1, 2, Range{8, 16}, Range{0, 18}, false},
                          Layout{4, 2, 1, Range{16, 24}, Range{0, 18}, false}},
                         full(0, 3, 2, mat24()));
     },
     0x1.ep+5, 0x1.8p+2, 0x1.955668ed5456cp-17},
    {"merge transposed halves onto a grid at rank 8",
     +[](sim::Sim& s) {
       return merge_onto(s, mat24(),
                         {Layout{0, 2, 2, Range{0, 24}, Range{0, 9}, true},
                          Layout{4, 2, 2, Range{0, 24}, Range{9, 18}, true}},
                         full(8, 2, 3, mat24()));
     },
     0x1.bp+5, 0x1p+3, 0x1.0da4b6e1b193ep-16},
    {"merge one part already in place",
     +[](sim::Sim& s) {
       return merge_onto(s, mat24(), {full(0, 2, 2, mat24())},
                         full(0, 2, 2, mat24()));
     },
     0x0p+0, 0x0p+0, 0x0p+0},
    {"merge one part onto a transposed grid",
     +[](sim::Sim& s) {
       return merge_onto(s, mat24(), {full(0, 2, 2, mat24())},
                         full(4, 3, 4, mat24(), true));
     },
     0x1.4p+6, 0x1p+3, 0x1.0e399b48e2e48p-16},
    {"merge parts onto a sub-region",
     +[](sim::Sim& s) {
       return merge_onto(s, mat24(),
                         {Layout{0, 1, 2, Range{0, 12}, Range{0, 18}, false},
                          Layout{2, 2, 1, Range{12, 24}, Range{0, 18}, true}},
                         Layout{0, 2, 2, Range{5, 20}, Range{3, 15}, false});
     },
     0x1.3p+5, 0x1p+2, 0x1.0e22b33902b0bp-17},
    {"merge parts onto more ranks than rows",
     +[](sim::Sim& s) {
       return merge_onto(s, tiny(),
                         {Layout{0, 4, 1, Range{0, 3}, Range{0, 2}, false},
                          Layout{4, 1, 4, Range{0, 3}, Range{2, 3}, true}},
                         full(0, 8, 1, tiny()));
     },
     0x1.8p+2, 0x1.8p+2, 0x1.92ebef40aee0ap-17},
    {"merge large halves",
     +[](sim::Sim& s) {
       return merge_onto(s, big(),
                         {Layout{0, 2, 2, Range{0, 150}, Range{0, 300}, false},
                          Layout{4, 2, 2, Range{150, 300}, Range{0, 300}, true}},
                         full(0, 4, 4, big()));
     },
     0x1.1c6p+13, 0x1p+3, 0x1.d7ffbf20cb0ap-16},
};

/// A measured move in the syntax of the table above.
std::string move_row(const char* name, const sim::Cost& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "\"%s\"  %a, %a, %a", name, c.words, c.msgs,
                c.comm_seconds);
  return buf;
}

TEST(DistMatrix, MovesDeliverRestrictedBlocksAndPinnedCharges) {
  struct PoolSizeGuard {
    int saved = support::num_threads();
    ~PoolSizeGuard() { support::set_threads(saved); }
  } guard;
  for (int threads : {1, 4}) {
    support::set_threads(threads);
    for (const MoveCase& mc : kMoveCases) {
      sim::Sim sim(16);
      const Moved moved = mc.run(sim);
      const sim::Cost crit = sim.ledger().critical();
      const std::string at =
          std::string(mc.name) + " at " + std::to_string(threads) + " threads";
      for (const auto& t : moved.targets) {
        const Layout& l = t.layout();
        for (int i = 0; i < l.pr; ++i) {
          for (int j = 0; j < l.pc; ++j) {
            const Range rr = l.block_rows(i, j);
            const Range cr = l.block_cols(i, j);
            EXPECT_EQ(t.block(i, j),
                      sparse::slice_cols(
                          sparse::slice_rows(moved.content, rr.lo, rr.hi),
                          cr.lo, cr.hi))
                << at << ", block (" << i << "," << j << ")";
          }
        }
      }
      EXPECT_TRUE(crit.words == mc.words && crit.msgs == mc.msgs &&
                  crit.comm_seconds == mc.comm_seconds &&
                  crit.compute_seconds == 0.0)
          << at << " measured\n" << move_row(mc.name, crit);
    }
  }
}

}  // namespace
}  // namespace mfbc::dist
