// The distributed-SpGEMM correctness sweep: every plan in the §5.2 algorithm
// space (all 1D/2D/3D variants across all factorizations of several rank
// counts) must produce exactly the sequential Gustavson result — for the
// plain count semiring and for the multpath monoid with the Bellman-Ford
// action.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "dist/spgemm_dist.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace mfbc::dist {
namespace {

using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using sparse::Coo;
using sparse::Csr;

struct Times {
  double operator()(double a, double b) const { return a * b; }
};

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

Csr<Multpath> random_frontier(vid_t m, vid_t n, double density,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<Multpath> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j,
                 Multpath{static_cast<double>(1 + rng.bounded(5)),
                          static_cast<double>(1 + rng.bounded(3))});
      }
    }
  }
  return Csr<Multpath>::from_coo<MultpathMonoid>(std::move(coo));
}

struct PlanCase {
  int p;
  Plan plan;
};

std::vector<PlanCase> all_plan_cases() {
  std::vector<PlanCase> cases;
  for (int p : {1, 2, 3, 4, 6, 8, 12, 16}) {
    for (const Plan& plan : enumerate_plans(p)) {
      cases.push_back({p, plan});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PlanCase>& info) {
  std::string s = "p" + std::to_string(info.param.p) + "_" +
                  info.param.plan.to_string();
  for (char& c : s) {
    if (c == '-' || c == '[' || c == ']' || c == 'x' || c == ',') c = '_';
  }
  return s;
}

class DistSpgemmAllPlans : public ::testing::TestWithParam<PlanCase> {};

TEST_P(DistSpgemmAllPlans, CountSemiringMatchesSequential) {
  const auto& [p, plan] = GetParam();
  sim::Sim sim(p);
  // Rectangular shapes exercise the m/k/n slicing independently.
  const vid_t m = 21, k = 17, n = 25;
  auto a = random_csr(m, k, 0.35, 1000 + static_cast<std::uint64_t>(p));
  auto b = random_csr(k, n, 0.35, 2000 + static_cast<std::uint64_t>(p));
  Layout la{0, 1, std::max(1, p / 1), Range{0, m}, Range{0, k}, false};
  la = Layout{0, 1, p, Range{0, m}, Range{0, k}, false};
  Layout lb{0, p, 1, Range{0, k}, Range{0, n}, false};
  Layout lc{0, 1, p, Range{0, m}, Range{0, n}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, la);
  auto db = DistMatrix<double>::scatter<SumMonoid>(sim, b, lb);
  auto dc = spgemm<SumMonoid>(sim, plan, da, db, Times{}, lc);
  EXPECT_EQ(dc.gather(sim), sparse::spgemm<SumMonoid>(a, b, Times{}));
}

TEST_P(DistSpgemmAllPlans, MultpathMonoidMatchesSequential) {
  const auto& [p, plan] = GetParam();
  sim::Sim sim(p);
  const vid_t nb = 9, n = 23;
  auto f = random_frontier(nb, n, 0.3, 3000 + static_cast<std::uint64_t>(p));
  auto adj = random_csr(n, n, 0.2, 4000 + static_cast<std::uint64_t>(p));
  Layout lf{0, 1, p, Range{0, nb}, Range{0, n}, false};
  Layout la{0, p, 1, Range{0, n}, Range{0, n}, false};
  Layout lc{0, 1, p, Range{0, nb}, Range{0, n}, false};
  auto df = DistMatrix<Multpath>::scatter<MultpathMonoid>(sim, f, lf);
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, adj, la);
  auto dc =
      spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lc);
  EXPECT_EQ(dc.gather(sim),
            sparse::spgemm<MultpathMonoid>(f, adj, BellmanFordAction{}));
}

INSTANTIATE_TEST_SUITE_P(FullSpace, DistSpgemmAllPlans,
                         ::testing::ValuesIn(all_plan_cases()), case_name);

TEST(DistSpgemm, CommunicationIsChargedForMultiRankPlans) {
  sim::Sim sim(4);
  auto a = random_csr(16, 16, 0.4, 51);
  auto b = random_csr(16, 16, 0.4, 52);
  Layout l{0, 2, 2, Range{0, 16}, Range{0, 16}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  auto db = DistMatrix<double>::scatter<SumMonoid>(sim, b, l);
  sim.ledger().reset();
  Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kAB};
  spgemm<SumMonoid>(sim, plan, da, db, Times{}, l);
  EXPECT_GT(sim.ledger().critical().words, 0.0);
  EXPECT_GT(sim.ledger().critical().msgs, 0.0);
}

TEST(DistSpgemm, HomeCacheAmortizesOperandMapping) {
  // First multiply pays for mapping B to its home; the second with the same
  // plan and cache must charge strictly less.
  sim::Sim sim1(4), sim2(4);
  auto a = random_csr(12, 40, 0.4, 61);
  auto b = random_csr(40, 40, 0.2, 62);
  Layout la{0, 1, 4, Range{0, 12}, Range{0, 40}, false};
  Layout lb{0, 2, 2, Range{0, 40}, Range{0, 40}, false};
  Plan plan{2, 2, 1, Variant1D::kB, Variant2D::kAB};

  auto run = [&](sim::Sim& sim, int times, HomeCache<double>* cache) {
    auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, la);
    auto db = DistMatrix<double>::scatter<SumMonoid>(sim, b, lb);
    sim.ledger().reset();
    for (int i = 0; i < times; ++i) {
      spgemm<SumMonoid>(sim, plan, da, db, Times{}, la, nullptr, cache);
    }
    return sim.ledger().critical().words;
  };
  HomeCache<double> cache;
  const double cached2 = run(sim1, 2, &cache);
  const double uncached2 = run(sim2, 2, nullptr);
  EXPECT_LT(cached2, uncached2);
}

TEST(DistSpgemm, RanksExceedingMachineThrow) {
  sim::Sim sim(2);
  auto a = random_csr(4, 4, 0.5, 71);
  Layout l{0, 1, 2, Range{0, 4}, Range{0, 4}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kAB};
  EXPECT_THROW(spgemm<SumMonoid>(sim, plan, da, da, Times{}, l), Error);
}

TEST(DistSpgemm, EmptyOperandsYieldEmptyResult) {
  sim::Sim sim(4);
  Csr<double> a(8, 8), b(8, 8);
  Layout l{0, 2, 2, Range{0, 8}, Range{0, 8}, false};
  auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, l);
  auto db = DistMatrix<double>::scatter<SumMonoid>(sim, b, l);
  Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kBC};
  auto dc = spgemm<SumMonoid>(sim, plan, da, db, Times{}, l);
  EXPECT_EQ(dc.nnz(), 0);
}

// ---------------------------------------------------------------------------
// Bit pins of the 2D layer multiply
//
// The sweep above multiplies integer-valued inputs, where every ⊕ order gives
// the same bits. These pins use values whose sums do depend on the order of
// the ⊕ folds: non-dyadic SumMonoid products, centpath ties whose factor
// sums are non-dyadic, and a row whose k-steps cancel an entry to exactly 0
// and then add the column back. A banded B leaves whole rows of its layer
// blocks empty, at either end and throughout. Each row pins the gathered
// product's bits, the per-rank ops, and the critical-path charges of one
// multiply.

enum class PinInput { kSum, kCancel, kCentpath, kBanded };

/// Non-dyadic values in (-1, 1) \ {0}.
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

constexpr vid_t kPinM = 29, kPinK = 31, kPinN = 27;

/// A non-dyadic kPinK × kPinN B with entries only where |i − j| ≤ 2: each
/// layer block holds a diagonal strip, so many of its rows are empty, and
/// blocks off the diagonal hold nothing.
Csr<double> banded_operand() {
  return sparse::filter(nondyadic_csr(kPinK, kPinN, 1.0, 61),
                        [](vid_t i, vid_t j, double) {
                          return std::abs(i - j) <= 2;
                        });
}

/// The cancelling input: A's row 0 meets column 5 of B through k = 1, 9, 17
/// and 26 only, with products 1, -1, 0.3 and 0.7. Wherever the first two
/// land in different folds, the running entry cancels to 0 and is dropped,
/// and a later fold adds column 5 back.
std::pair<Csr<double>, Csr<double>> cancel_operands() {
  const Csr<double> a0 = nondyadic_csr(kPinM, kPinK, 0.3, 41);
  const Csr<double> b0 = nondyadic_csr(kPinK, kPinN, 0.3, 43);
  const vid_t ks[] = {1, 9, 17, 26};
  const double vs[] = {1.0, -1.0, 0.3, 0.7};
  Coo<double> a(kPinM, kPinK), b(kPinK, kPinN);
  for (vid_t r = 0; r < kPinM; ++r) {
    if (r == 0) continue;
    for (std::size_t x = 0; x < a0.row_cols(r).size(); ++x) {
      a.push(r, a0.row_cols(r)[x], a0.row_vals(r)[x]);
    }
  }
  for (int x = 0; x < 4; ++x) a.push(0, ks[x], vs[x]);
  for (vid_t r = 0; r < kPinK; ++r) {
    if (r == 1 || r == 9 || r == 17 || r == 26) {
      b.push(r, 5, 1.0);
      continue;
    }
    for (std::size_t x = 0; x < b0.row_cols(r).size(); ++x) {
      b.push(r, b0.row_cols(r)[x], b0.row_vals(r)[x]);
    }
  }
  return {Csr<double>::from_coo<SumMonoid>(std::move(a)),
          Csr<double>::from_coo<SumMonoid>(std::move(b))};
}

/// Centpaths with integer weights (so ⊗ ties often) and non-dyadic factors.
Csr<Centpath> centpath_frontier(vid_t m, vid_t n, double density,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<Centpath> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j,
                 Centpath{static_cast<double>(4 + rng.bounded(3)),
                          (1 + static_cast<double>(rng.bounded(999))) / 1000.0,
                          static_cast<double>(1 + rng.bounded(3))});
      }
    }
  }
  return Csr<Centpath>::from_coo<CentpathMonoid>(std::move(coo));
}

Csr<double> small_weights(vid_t m, vid_t n, double density,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j, static_cast<double>(1 + rng.bounded(2)));
      }
    }
  }
  return Csr<double>::from_coo<SumMonoid>(std::move(coo));
}

template <typename T>
std::uint64_t csr_digest(const Csr<T>& c) {
  std::uint64_t h = support::fnv1a_value(c.nrows());
  h = support::fnv1a_value(c.ncols(), h);
  h = support::fnv1a(c.rowptr().data(), c.rowptr().size() * sizeof(nnz_t), h);
  h = support::fnv1a(c.col().data(), c.col().size() * sizeof(vid_t), h);
  return support::fnv1a(c.val().data(), c.val().size() * sizeof(T), h);
}

struct BitPin {
  int p1, p2, p3;
  Variant1D v1;
  Variant2D v2;
  PinInput input;
  std::uint64_t product;    ///< FNV-1a of the gathered product's bits
  std::uint64_t rank_ops;   ///< FNV-1a of the per-rank products and charges
  double words, msgs, comm_seconds, compute_seconds;
};

/// The compute each rank is charged, summed per rank as the charges come:
/// the ledger's own per-rank state is a critical-path clock, which a later
/// collective raises to the group's maximum.
struct ChargedOps : sim::CostSink {
  std::vector<double> ops;
  void on_collective(int, double, double, double) override {}
  void on_compute(int rank, double o, double) override {
    const auto r = static_cast<std::size_t>(rank);
    if (r >= ops.size()) ops.resize(r + 1, 0.0);
    ops[r] += o;
  }
};

struct BitMeasure {
  std::uint64_t product = 0, rank_ops = 0;
  sim::Cost crit;
  bool matches_sequential = false;
};

/// One multiply on a fresh machine: A scattered over a 1×p row of ranks, B
/// over a p×1 column, C delivered on A's layout; the ledger is reset after
/// the scatters.
template <typename M, typename TA, typename TB, typename F>
BitMeasure measure_bits(const Plan& plan, const Csr<TA>& a, const Csr<TB>& b,
                        F f) {
  const int p = plan.total_ranks();
  sim::Sim sim(p);
  const vid_t m = a.nrows(), k = a.ncols(), n = b.ncols();
  const Layout la{0, 1, p, Range{0, m}, Range{0, k}, false};
  const Layout lb{0, p, 1, Range{0, k}, Range{0, n}, false};
  const Layout lc{0, 1, p, Range{0, m}, Range{0, n}, false};
  auto da = DistMatrix<TA>::template scatter<sparse::KeepFirst<TA>>(sim, a, la);
  auto db = DistMatrix<TB>::template scatter<sparse::KeepFirst<TB>>(sim, b, lb);
  sim.ledger().reset();
  ChargedOps charged;
  sim::CostSink* const prev = sim.ledger().set_sink(&charged);
  DistSpgemmStats st;
  auto dc = spgemm<M>(sim, plan, da, db, f, lc, &st);
  sim.ledger().set_sink(prev);
  BitMeasure out;
  out.crit = sim.ledger().critical();
  const auto c = dc.gather(sim);
  out.product = csr_digest(c);
  // Per rank: the products it computed, then the compute it was charged
  // (products plus the entries its unions touched).
  out.rank_ops = support::fnv1a(st.rank_ops.data(),
                                st.rank_ops.size() * sizeof(double));
  out.rank_ops = support::fnv1a(charged.ops.data(),
                                charged.ops.size() * sizeof(double),
                                out.rank_ops);
  // Only the ⊕ order may differ from the sequential kernel: the structure
  // must match exactly.
  const auto seq = sparse::spgemm<M>(a, b, f);
  out.matches_sequential = c.nrows() == seq.nrows() &&
                           std::equal(c.rowptr().begin(), c.rowptr().end(),
                                      seq.rowptr().begin(), seq.rowptr().end()) &&
                           std::equal(c.col().begin(), c.col().end(),
                                      seq.col().begin(), seq.col().end());
  return out;
}

BitMeasure measure_pin(const BitPin& pin) {
  Plan plan{pin.p1, pin.p2, pin.p3, pin.v1, pin.v2};
  switch (pin.input) {
    case PinInput::kSum:
      return measure_bits<SumMonoid>(plan, nondyadic_csr(kPinM, kPinK, 0.3, 31),
                                     nondyadic_csr(kPinK, kPinN, 0.3, 37),
                                     Times{});
    case PinInput::kCancel: {
      const auto [a, b] = cancel_operands();
      return measure_bits<SumMonoid>(plan, a, b, Times{});
    }
    case PinInput::kCentpath:
      return measure_bits<CentpathMonoid>(
          plan, centpath_frontier(kPinM, kPinK, 0.3, 53),
          small_weights(kPinK, kPinN, 0.3, 59), BrandesAction{});
    case PinInput::kBanded:
      return measure_bits<SumMonoid>(plan, nondyadic_csr(kPinM, kPinK, 0.3, 31),
                                     banded_operand(), Times{});
  }
  return {};
}

/// A measured pin in the syntax of the table below.
std::string bit_pin_row(const BitPin& pin, const BitMeasure& got) {
  const char* v1 = pin.v1 == Variant1D::kA   ? "kA"
                   : pin.v1 == Variant1D::kB ? "kB"
                                             : "kC";
  const char* v2 = pin.v2 == Variant2D::kAB   ? "kAB"
                   : pin.v2 == Variant2D::kAC ? "kAC"
                                              : "kBC";
  const char* in = pin.input == PinInput::kSum        ? "kSum"
                   : pin.input == PinInput::kCancel   ? "kCancel"
                   : pin.input == PinInput::kCentpath ? "kCentpath"
                                                      : "kBanded";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%d, %d, %d, Variant1D::%s, Variant2D::%s, PinInput::%s, "
                "0x%016llxull, 0x%016llxull, %a, %a, %a, %a},",
                pin.p1, pin.p2, pin.p3, v1, v2, in,
                static_cast<unsigned long long>(got.product),
                static_cast<unsigned long long>(got.rank_ops), got.crit.words,
                got.crit.msgs, got.crit.comm_seconds,
                got.crit.compute_seconds);
  return buf;
}

// Measured with the step-by-step 2D driver (operand slices per step, C
// re-unioned after every step), so a change to the driver's ⊕ order, its
// dropped entries or its charges shows here. The kBanded rows were measured
// with the fold driver, before each link's k window was cut to the rows its
// B block occupies.
const BitPin kBitPins[] = {
    {1, 2, 2, Variant1D::kA, Variant2D::kAB, PinInput::kSum, 0x0b6c38d05afb480bull, 0x3e5056b986926416ull, 0x1.bb8p+10, 0x1.4p+4, 0x1.6362dc4eab6a3p-15, 0x1.1eb066b2081cdp-19},
    {1, 2, 2, Variant1D::kA, Variant2D::kAB, PinInput::kCancel, 0xa1edf5da1b9c8bb9ull, 0xfe903af40894b847ull, 0x1.b48p+10, 0x1.4p+4, 0x1.6312b0171ab4ep-15, 0x1.22fbe9ac11d28p-19},
    {1, 2, 2, Variant1D::kA, Variant2D::kAB, PinInput::kCentpath, 0xec0a944a9008008aull, 0x3a656eb8e4b44856ull, 0x1.73cp+11, 0x1.4p+4, 0x1.70ced59c09c1dp-15, 0x1.3c7c4358ab79p-19},
    {1, 2, 3, Variant1D::kA, Variant2D::kAB, PinInput::kSum, 0x274377a8b3da4cd9ull, 0x7fbd9c07d0fddb77ull, 0x1.5e8p+10, 0x1.bp+5, 0x1.ccd34c624dc78p-14, 0x1.534d6b28ff0ep-19},
    {1, 2, 3, Variant1D::kA, Variant2D::kAB, PinInput::kCancel, 0xebe278ae2e4cc0aaull, 0xb361908fc6f1ed74ull, 0x1.6bp+10, 0x1.bp+5, 0x1.cd1ae193ea694p-14, 0x1.6210fd64806e7p-19},
    {1, 2, 3, Variant1D::kA, Variant2D::kAB, PinInput::kCentpath, 0x9d8724e73b35d3b1ull, 0x26185f64d3076922ull, 0x1.37cp+11, 0x1.bp+5, 0x1.d2eeaa9dd395bp-14, 0x1.733f094ca745p-19},
    {1, 3, 2, Variant1D::kA, Variant2D::kAB, PinInput::kSum, 0x274377a8b3da4cd9ull, 0x6c23ffc0b613e230ull, 0x1.6ep+10, 0x1.bp+5, 0x1.cd2c0f9fd2902p-14, 0x1.73c879abe87bbp-19},
    {1, 3, 2, Variant1D::kA, Variant2D::kAB, PinInput::kCancel, 0xebe278ae2e4cc0aaull, 0xea36fe9a6077c14bull, 0x1.64p+10, 0x1.bp+5, 0x1.ccf2cb78220ebp-14, 0x1.54a504172216dp-19},
    {1, 3, 2, Variant1D::kA, Variant2D::kAB, PinInput::kCentpath, 0x9d8724e73b35d3b1ull, 0x1c014d095808e2c5ull, 0x1.27p+11, 0x1.bp+5, 0x1.d22ed318dde41p-14, 0x1.81bde358880a1p-19},
    {1, 4, 4, Variant1D::kA, Variant2D::kAB, PinInput::kSum, 0x723cf6fd56c09223ull, 0x4eb09ead6fcaf226ull, 0x1.9cp+9, 0x1.cp+5, 0x1.da5ec4c580665p-14, 0x1.e21c2e22c1e5cp-21},
    {1, 4, 4, Variant1D::kA, Variant2D::kAB, PinInput::kCancel, 0xa7b4051b02a77a87ull, 0xe223e09d13c0b949ull, 0x1.91p+9, 0x1.cp+5, 0x1.da3f45afac1f2p-14, 0x1.e554d05e492dep-21},
    {1, 4, 4, Variant1D::kA, Variant2D::kAB, PinInput::kCentpath, 0x1259258c98882fbdull, 0x37c89af53a4758f9ull, 0x1.598p+10, 0x1.cp+5, 0x1.dd7da1ef2b745p-14, 0x1.0574c5350f11bp-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kAC, PinInput::kSum, 0x0b6c38d05afb480bull, 0x33e45616b6834837ull, 0x1.57cp+11, 0x1.4p+4, 0x1.6e4d73df8417ep-15, 0x1.ebc614d557be6p-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kAC, PinInput::kCancel, 0xa1edf5da1b9c8bb9ull, 0x67f5a52eeba6761eull, 0x1.524p+11, 0x1.4p+4, 0x1.6dcf778832fbp-15, 0x1.f1ade8ed25183p-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kAC, PinInput::kCentpath, 0xec0a944a9008008aull, 0xaa46c92eb8f19a04ull, 0x1.59ep+12, 0x1.4p+4, 0x1.8d70e9744a7cdp-15, 0x1.1f7e8f40e9eeep-19},
    {1, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kSum, 0x0b6c38d05afb480bull, 0xb9523f90dfa6e564ull, 0x1.044p+11, 0x1.bp+5, 0x1.d0a0d30506606p-14, 0x1.6b762be775abdp-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kCancel, 0xa1edf5da1b9c8bb9ull, 0x70b28953130c3fdbull, 0x1.ff8p+10, 0x1.bp+5, 0x1.d06d48e14debep-14, 0x1.52c3fac9bdd74p-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kCentpath, 0xec0a944a9008008aull, 0x606218d4fac47c0eull, 0x1.00ap+12, 0x1.bp+5, 0x1.dbf27edd4ff7p-14, 0x1.80664a6a65015p-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kAC, PinInput::kSum, 0x128525e43ff6d49full, 0x676a12bf79ba46deull, 0x1.2cp+11, 0x1.bp+5, 0x1.d26817408e658p-14, 0x1.8a99a17c3c10bp-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kAC, PinInput::kCancel, 0xdde07b2d394a5ca5ull, 0x7bf252a04d446684ull, 0x1.25cp+11, 0x1.bp+5, 0x1.d220820ef1c3bp-14, 0x1.9f89bfff2b663p-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kAC, PinInput::kCentpath, 0x447ab4e59fd8d701ull, 0x70ffa3c083624c82ull, 0x1.2fp+12, 0x1.bp+5, 0x1.e018c8bd8d589p-14, 0x1.b729105e60cd4p-20},
    {1, 4, 4, Variant1D::kA, Variant2D::kAC, PinInput::kSum, 0x723cf6fd56c09223ull, 0x411ad051c34c7f0aull, 0x1.45p+10, 0x1.cp+5, 0x1.dd083c9dce6afp-14, 0x1.85c4ae22f1245p-21},
    {1, 4, 4, Variant1D::kA, Variant2D::kAC, PinInput::kCancel, 0xa7b4051b02a77a87ull, 0xdc3c12453acdcde7ull, 0x1.3d8p+10, 0x1.cp+5, 0x1.dcdd49800a09dp-14, 0x1.68c6fa0b2f9a4p-21},
    {1, 4, 4, Variant1D::kA, Variant2D::kAC, PinInput::kCentpath, 0x1259258c98882fbdull, 0x6df8f5a1f6f2019eull, 0x1.4a4p+11, 0x1.cp+5, 0x1.e48984d163624p-14, 0x1.b1caaca5d4aa3p-21},
    {1, 2, 2, Variant1D::kA, Variant2D::kBC, PinInput::kSum, 0x0b6c38d05afb480bull, 0x24219cd559e7ce06ull, 0x1.52p+11, 0x1.4p+4, 0x1.6dc9bd843aee2p-15, 0x1.d6d5f6526868ep-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kBC, PinInput::kCancel, 0xa1edf5da1b9c8bb9ull, 0x556880573912297bull, 0x1.56cp+11, 0x1.4p+4, 0x1.6e368bcfa3e41p-15, 0x1.f3d3aa6a29f3p-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kBC, PinInput::kCentpath, 0xec0a944a9008008aull, 0x5f52d3db50e144eeull, 0x1.2fep+12, 0x1.4p+4, 0x1.85ecc43eb97efp-15, 0x1.06cc5e23321a7p-19},
    {1, 2, 3, Variant1D::kA, Variant2D::kBC, PinInput::kSum, 0x128525e43ff6d49full, 0x139b4c3f30272a2bull, 0x1.29p+11, 0x1.bp+5, 0x1.d245bb28be17cp-14, 0x1.9330a7704f7cp-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kBC, PinInput::kCancel, 0xdde07b2d394a5ca5ull, 0x459d44e6a4c17544ull, 0x1.2c4p+11, 0x1.bp+5, 0x1.d26af4428a6cp-14, 0x1.919456528bd7ep-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kBC, PinInput::kCentpath, 0x447ab4e59fd8d701ull, 0xddece7f4fb05b7fbull, 0x1.11p+12, 0x1.bp+5, 0x1.dd6996e14747p-14, 0x1.b2541d0515e0ep-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kBC, PinInput::kSum, 0x0b6c38d05afb480bull, 0x9d61ad012530e656ull, 0x1.058p+11, 0x1.bp+5, 0x1.d0af240ef280ap-14, 0x1.66a1388e2abf6p-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kBC, PinInput::kCancel, 0xa1edf5da1b9c8bb9ull, 0xb51839711fd6665bull, 0x1.fc8p+10, 0x1.bp+5, 0x1.d05c1ad565c4fp-14, 0x1.602ff4171c2efp-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kBC, PinInput::kCentpath, 0xec0a944a9008008aull, 0xccdb08146c33f311ull, 0x1.b8cp+11, 0x1.bp+5, 0x1.d8b4229dd0a1dp-14, 0x1.80664a6a65015p-20},
    {1, 4, 4, Variant1D::kA, Variant2D::kBC, PinInput::kSum, 0x723cf6fd56c09223ull, 0x5ce6678d0dbf74b8ull, 0x1.48p+10, 0x1.cp+5, 0x1.dd196aa9b691dp-14, 0x1.79f505f35670ep-21},
    {1, 4, 4, Variant1D::kA, Variant2D::kBC, PinInput::kCancel, 0xa7b4051b02a77a87ull, 0x18a53fcf457cf610ull, 0x1.4bp+10, 0x1.cp+5, 0x1.dd2a98b59eb89p-14, 0x1.6aecbb883475p-21},
    {1, 4, 4, Variant1D::kA, Variant2D::kBC, PinInput::kCentpath, 0x1259258c98882fbdull, 0x04472e947cf66eecull, 0x1.234p+11, 0x1.cp+5, 0x1.e2cad79bcf707p-14, 0x1.b6162f9fde5fdp-21},
    {2, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kSum, 0x0b6c38d05afb480bull, 0x4d17a599a0958b89ull, 0x1.a7p+10, 0x1.fp+5, 0x1.08c72c8272942p-13, 0x1.96f2ba0b17fafp-21},
    {2, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kCancel, 0xa1edf5da1b9c8bb9ull, 0x31f187e7cc3a5b73ull, 0x1.a88p+10, 0x1.fp+5, 0x1.08cb78056c9ddp-13, 0x1.a1af817c30411p-21},
    {2, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kCentpath, 0xec0a944a9008008aull, 0xf2eb0620f2493b3aull, 0x1.ap+11, 0x1.fp+5, 0x1.0d5a44ae18ebap-13, 0x1.cec860bd96346p-21},
    {2, 3, 2, Variant1D::kB, Variant2D::kAB, PinInput::kSum, 0x274377a8b3da4cd9ull, 0x7e73a54efa58a2abull, 0x1.488p+10, 0x1.fp+5, 0x1.07b89746ea307p-13, 0x1.864e1e82325bp-20},
    {2, 3, 2, Variant1D::kB, Variant2D::kAB, PinInput::kCancel, 0xebe278ae2e4cc0aaull, 0xe19bfacbf667502cull, 0x1.43p+10, 0x1.fp+5, 0x1.07a8d7bc000cdp-13, 0x1.7858b4d592cccp-20},
    {2, 3, 2, Variant1D::kB, Variant2D::kAB, PinInput::kCentpath, 0x9d8724e73b35d3b1ull, 0xab1a0249840a3735ull, 0x1.d8p+10, 0x1.fp+5, 0x1.095379e3afd15p-13, 0x1.98059ac99a685p-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kAB, PinInput::kBanded, 0x423b82902237aa0full, 0x8d52e92e4f3b58c4ull, 0x1.9cp+10, 0x1.4p+4, 0x1.61fa1554a03aap-15, 0x1.df6cfc467bd43p-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kAB, PinInput::kBanded, 0x8a55439ce82f203aull, 0x2388c679ddacd4b4ull, 0x1.67p+10, 0x1.bp+5, 0x1.cd03f9840a358p-14, 0x1.2ecb91dbac86p-19},
    {1, 3, 2, Variant1D::kA, Variant2D::kAB, PinInput::kBanded, 0x8a55439ce82f203aull, 0xd1ac833345d20793ull, 0x1.51p+10, 0x1.bp+5, 0x1.cc85fd2cb918bp-14, 0x1.0f1eabe7a4ea6p-19},
    {1, 4, 4, Variant1D::kA, Variant2D::kAB, PinInput::kBanded, 0xc91f3b5e355ab203ull, 0x5c23cb91a4958191ull, 0x1.c9p+9, 0x1.cp+5, 0x1.dadf9e1ecd89ap-14, 0x1.01b2b29a4692cp-20},
    {1, 2, 2, Variant1D::kA, Variant2D::kAC, PinInput::kBanded, 0x423b82902237aa0full, 0xe8108463875ef0d8ull, 0x1.39p+11, 0x1.4p+4, 0x1.6b8d13f755df8p-15, 0x1.d0ee223a9b0f2p-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kBanded, 0x423b82902237aa0full, 0xe33b105720a48e8dull, 0x1.ebp+10, 0x1.bp+5, 0x1.cff7e38ff0e26p-14, 0x1.5127a9abfa333p-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kAC, PinInput::kBanded, 0x8c5fe40344abd660ull, 0xb3075e501e13724aull, 0x1.158p+11, 0x1.bp+5, 0x1.d166648df41efp-14, 0x1.570f7dc3c78cfp-20},
    {1, 4, 4, Variant1D::kA, Variant2D::kAC, PinInput::kBanded, 0xc91f3b5e355ab203ull, 0x87425cec13eb3a57ull, 0x1.3d8p+10, 0x1.cp+5, 0x1.dcdd49800a09ep-14, 0x1.da9808ed30e7ep-21},
    {1, 2, 2, Variant1D::kA, Variant2D::kBC, PinInput::kBanded, 0x423b82902237aa0full, 0x0d9f2bddc4592cf5ull, 0x1.2bp+11, 0x1.4p+4, 0x1.6a4c6319130a8p-15, 0x1.d0ee223a9b0f2p-20},
    {1, 2, 3, Variant1D::kA, Variant2D::kBC, PinInput::kBanded, 0x8c5fe40344abd660ull, 0x3d809965f6190371ull, 0x1.118p+11, 0x1.bp+5, 0x1.d138946e33b75p-14, 0x1.b83bf11ce33abp-20},
    {1, 3, 2, Variant1D::kA, Variant2D::kBC, PinInput::kBanded, 0x423b82902237aa0full, 0x8ddb03a3c5bb2112ull, 0x1.d2p+10, 0x1.bp+5, 0x1.cf68b92cb79ebp-14, 0x1.5ad1905e900bep-20},
    {1, 4, 4, Variant1D::kA, Variant2D::kBC, PinInput::kBanded, 0xc91f3b5e355ab203ull, 0xcd213278ee33b2d0ull, 0x1.498p+10, 0x1.cp+5, 0x1.dd2201afaaa53p-14, 0x1.d426c47622576p-21},
    {2, 2, 3, Variant1D::kA, Variant2D::kAC, PinInput::kBanded, 0x423b82902237aa0full, 0x74a91ae66eb8bdd1ull, 0x1.978p+10, 0x1.fp+5, 0x1.089acae3b02fcp-13, 0x1.7c1ac7705b4bap-21},
    {2, 3, 2, Variant1D::kB, Variant2D::kAB, PinInput::kBanded, 0x8a55439ce82f203aull, 0x58e5433f1f57d3e2ull, 0x1.2cp+10, 0x1.fp+5, 0x1.0766fc8e5b77fp-13, 0x1.2d2f40bde8e1ep-20},
};

TEST(DistSpgemmBits, ProductsAndChargesHoldPerShape) {
  struct PoolSizeGuard {
    int saved = support::num_threads();
    ~PoolSizeGuard() { support::set_threads(saved); }
  } guard;
  for (int threads : {1, 4}) {
    support::set_threads(threads);
    for (const BitPin& pin : kBitPins) {
      const BitMeasure got = measure_pin(pin);
      EXPECT_TRUE(got.matches_sequential) << bit_pin_row(pin, got);
      EXPECT_TRUE(got.product == pin.product && got.rank_ops == pin.rank_ops &&
                  got.crit.words == pin.words && got.crit.msgs == pin.msgs &&
                  got.crit.comm_seconds == pin.comm_seconds &&
                  got.crit.compute_seconds == pin.compute_seconds)
          << "at " << threads << " threads, measured\n"
          << bit_pin_row(pin, got);
    }
  }
}

// ---------------------------------------------------------------------------
// One host copy per operand

/// Every charge the ledger sees, in order: kind, rank (or group size),
/// ops (or words), msgs and seconds.
struct ChargeTape : sim::CostSink {
  std::vector<std::array<double, 5>> events;
  void on_collective(int nranks, double words, double msgs,
                     double seconds) override {
    events.push_back({0, static_cast<double>(nranks), words, msgs, seconds});
  }
  void on_compute(int rank, double ops, double seconds) override {
    events.push_back({1, static_cast<double>(rank), ops, 0, seconds});
  }
  void on_overlap_credit(int rank, double seconds) override {
    events.push_back({2, static_cast<double>(rank), 0, 0, seconds});
  }
};

TEST(DistSpgemm, ReplicatedHomesShareOneCopy) {
  // A 1D-B or 3D-B plan maps B onto layer 0's home once and charges its
  // replication. The cache keeps that one copy under every layer's home,
  // and the product and charges are the uncached multiply's.
  const Csr<double> a = nondyadic_csr(kPinM, kPinK, 0.3, 31);
  const Csr<double> b = nondyadic_csr(kPinK, kPinN, 0.3, 37);
  const Range rm{0, kPinM}, rk{0, kPinK}, rn{0, kPinN};
  const std::pair<Plan, const char*> cases[] = {
      {{4, 1, 1, Variant1D::kB, Variant2D::kAB}, "1D-B[4]"},
      {{2, 2, 2, Variant1D::kB, Variant2D::kAC}, "3D-B,AC[2x2x2]"},
      {{2, 2, 2, Variant1D::kB, Variant2D::kAB}, "3D-B,AB[2x2x2]"}};
  for (const auto& [plan, name] : cases) {
    ASSERT_EQ(plan.to_string(), name);
    const int p = plan.total_ranks();
    auto run = [&](HomeCache<double>* cache) {
      sim::Sim sim(p);
      const Layout la{0, 1, p, rm, rk, false};
      auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, la);
      auto db = DistMatrix<double>::scatter<SumMonoid>(
          sim, b, Layout{0, p, 1, rk, rn, false});
      sim.ledger().reset();
      auto dc = spgemm<SumMonoid>(sim, plan, da, db, Times{},
                                  Layout{0, 1, p, rm, rn, false}, nullptr,
                                  cache);
      const sim::Cost crit = sim.ledger().critical();
      return std::pair{csr_digest(dc.gather(sim)), crit};
    };
    HomeCache<double> cache;
    const auto [plain, plain_crit] = run(nullptr);
    const auto [cached, cached_crit] = run(&cache);
    EXPECT_EQ(cached, plain) << name;
    EXPECT_EQ(cached_crit.words, plain_crit.words) << name;
    EXPECT_EQ(cached_crit.msgs, plain_crit.msgs) << name;
    EXPECT_EQ(cached_crit.total_seconds(), plain_crit.total_seconds()) << name;

    const DistMatrix<double>* copy = nullptr;
    for (int l = 0; l < plan.p1; ++l) {
      const Layout home = detail::homes_2d(plan.v2, l * plan.p2 * plan.p3,
                                           plan.p2, plan.p3, rm, rk, rn)
                              .b;
      const DistMatrix<double>* found = cache.find(home);
      ASSERT_NE(found, nullptr) << name << " layer " << l;
      if (l == 0) {
        copy = found;
        EXPECT_EQ(copy->layout(), home) << name;
      }
      EXPECT_EQ(found, copy) << name << " layer " << l;
    }
    EXPECT_EQ(cache.bytes(), copy->bytes()) << name;
    // Multiplies that hit the cache read the shared copy on every layer.
    EXPECT_EQ(run(&cache).first, plain) << name;
    EXPECT_EQ(cache.bytes(), copy->bytes()) << name;
  }
}

TEST(DistSpgemm, OperandsOnTheirHomesAreNotCopied) {
  // Operands already on a one-layer plan's homes are read in place: the
  // cache stays empty, and product and charges are the uncached run's.
  const Csr<double> a = nondyadic_csr(kPinM, kPinK, 0.3, 31);
  const Csr<double> b = nondyadic_csr(kPinK, kPinN, 0.3, 37);
  const Range rm{0, kPinM}, rk{0, kPinK}, rn{0, kPinN};
  const Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kAB};
  const detail::Homes homes = detail::homes_2d(plan.v2, 0, 2, 2, rm, rk, rn);
  auto run = [&](HomeCache<double>* cache) {
    sim::Sim sim(4);
    auto da = DistMatrix<double>::scatter<SumMonoid>(sim, a, homes.a);
    auto db = DistMatrix<double>::scatter<SumMonoid>(sim, b, homes.b);
    sim.ledger().reset();
    auto dc =
        spgemm<SumMonoid>(sim, plan, da, db, Times{}, homes.c, nullptr, cache);
    const sim::Cost crit = sim.ledger().critical();
    return std::pair{csr_digest(dc.gather(sim)), crit};
  };
  HomeCache<double> cache;
  const auto [plain, plain_crit] = run(nullptr);
  for (int i = 0; i < 2; ++i) {
    const auto [cached, cached_crit] = run(&cache);
    EXPECT_EQ(cached, plain);
    EXPECT_EQ(cached_crit.words, plain_crit.words);
    EXPECT_EQ(cached_crit.msgs, plain_crit.msgs);
    EXPECT_EQ(cached_crit.total_seconds(), plain_crit.total_seconds());
  }
  EXPECT_EQ(cache.find(homes.b), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(DistSpgemm, MovedOperandMatchesKeptOperand) {
  // The rvalue overload frees A once nothing reads it; the product, the
  // stats and every charge are the const& overload's. A starts on a row of
  // ranks, or already on layer 0's home where a 1D-A, 2D or 3D-A plan's
  // layers read it in place; B is mapped with and without a cache.
  const Csr<Centpath> a = centpath_frontier(kPinM, kPinK, 0.3, 53);
  const Csr<double> b = small_weights(kPinK, kPinN, 0.3, 59);
  const Range rm{0, kPinM}, rk{0, kPinK}, rn{0, kPinN};
  const Plan plans[] = {
      {4, 1, 1, Variant1D::kA, Variant2D::kAB},
      {4, 1, 1, Variant1D::kB, Variant2D::kAB},
      {4, 1, 1, Variant1D::kC, Variant2D::kAB},
      {1, 2, 2, Variant1D::kA, Variant2D::kAB},
      {1, 2, 3, Variant1D::kA, Variant2D::kAC},
      {1, 3, 2, Variant1D::kA, Variant2D::kBC},
      {2, 2, 2, Variant1D::kA, Variant2D::kAB},
      {2, 2, 2, Variant1D::kB, Variant2D::kAC},
      {2, 2, 2, Variant1D::kC, Variant2D::kBC}};
  struct Outcome {
    std::uint64_t product = 0;
    DistSpgemmStats st;
    std::vector<std::array<double, 5>> charges;
    sim::Cost crit;
  };
  for (const Plan& plan : plans) {
    const int p = plan.total_ranks();
    std::vector<Layout> starts{Layout{0, 1, p, rm, rk, false}};
    if (plan.p1 == 1 || plan.v1 == Variant1D::kA) {
      starts.push_back(
          detail::homes_2d(plan.v2, 0, plan.p2, plan.p3, rm, rk, rn).a);
    }
    for (const Layout& start : starts) {
      for (const bool cached : {false, true}) {
        auto run = [&](bool move) {
          sim::Sim sim(p);
          auto da = DistMatrix<Centpath>::scatter<sparse::KeepFirst<Centpath>>(
              sim, a, start);
          auto db = DistMatrix<double>::scatter<SumMonoid>(
              sim, b, Layout{0, p, 1, rk, rn, false});
          sim.ledger().reset();
          ChargeTape tape;
          sim::CostSink* const prev = sim.ledger().set_sink(&tape);
          HomeCache<double> cache;
          HomeCache<double>* const c = cached ? &cache : nullptr;
          const Layout lc{0, 1, p, rm, rn, false};
          Outcome out;
          auto dc = move ? spgemm<CentpathMonoid>(sim, plan, std::move(da), db,
                                                  BrandesAction{}, lc,
                                                  &out.st, c)
                         : spgemm<CentpathMonoid>(sim, plan, da, db,
                                                  BrandesAction{}, lc,
                                                  &out.st, c);
          sim.ledger().set_sink(prev);
          EXPECT_EQ(da.bytes() == 0, move) << plan.to_string();
          out.crit = sim.ledger().critical();
          out.charges = std::move(tape.events);
          out.product = csr_digest(dc.gather(sim));
          return out;
        };
        const Outcome kept = run(false);
        const Outcome moved = run(true);
        const std::string where = plan.to_string() +
                                  (start.pr == 1 && start.pc == p ? " from a row"
                                                                  : " from home") +
                                  (cached ? ", cached" : "");
        EXPECT_EQ(moved.product, kept.product) << where;
        EXPECT_EQ(moved.st.total_ops, kept.st.total_ops) << where;
        EXPECT_EQ(moved.st.max_rank_ops, kept.st.max_rank_ops) << where;
        EXPECT_EQ(moved.st.rank_ops, kept.st.rank_ops) << where;
        EXPECT_EQ(moved.charges, kept.charges) << where;
        EXPECT_EQ(moved.crit.words, kept.crit.words) << where;
        EXPECT_EQ(moved.crit.msgs, kept.crit.msgs) << where;
        EXPECT_EQ(moved.crit.comm_seconds, kept.crit.comm_seconds) << where;
        EXPECT_EQ(moved.crit.compute_seconds, kept.crit.compute_seconds)
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace mfbc::dist
