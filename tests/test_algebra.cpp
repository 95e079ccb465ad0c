// Property tests for the algebraic structures of §2.2/§4: the multpath and
// centpath monoids (commutativity, associativity, identity) and the
// Bellman-Ford / Brandes actions (action laws w.r.t. (W,+)).
#include <gtest/gtest.h>

#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/concepts.hpp"
#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "support/rng.hpp"

namespace mfbc::algebra {
namespace {

static_assert(Monoid<MultpathMonoid>);
static_assert(Monoid<CentpathMonoid>);
static_assert(Monoid<TropicalMinMonoid>);
static_assert(Monoid<SumMonoid>);

Multpath random_multpath(Xoshiro256& rng) {
  // Mix finite and infinite weights; weights drawn from a small integer set
  // so ties (the interesting case) occur often.
  const double r = rng.uniform01();
  if (r < 0.15) return MultpathMonoid::identity();
  if (r < 0.25) return {kInfWeight, static_cast<double>(rng.bounded(4))};
  return {static_cast<double>(1 + rng.bounded(6)),
          static_cast<double>(rng.bounded(10))};
}

Centpath random_centpath(Xoshiro256& rng) {
  const double r = rng.uniform01();
  if (r < 0.15) return CentpathMonoid::identity();
  return {static_cast<double>(1 + rng.bounded(6)),
          static_cast<double>(rng.bounded(8)) / 4.0,
          static_cast<double>(rng.bounded(5)) - 2.0};
}

class MultpathProperty : public ::testing::TestWithParam<std::uint64_t> {};
class CentpathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultpathProperty, Commutative) {
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Multpath x = random_multpath(rng), y = random_multpath(rng);
    EXPECT_EQ(MultpathMonoid::combine(x, y), MultpathMonoid::combine(y, x));
  }
}

TEST_P(MultpathProperty, Associative) {
  Xoshiro256 rng(GetParam() ^ 0xabcd);
  for (int i = 0; i < 200; ++i) {
    const Multpath x = random_multpath(rng), y = random_multpath(rng),
                   z = random_multpath(rng);
    EXPECT_EQ(MultpathMonoid::combine(MultpathMonoid::combine(x, y), z),
              MultpathMonoid::combine(x, MultpathMonoid::combine(y, z)));
  }
}

TEST_P(MultpathProperty, Identity) {
  Xoshiro256 rng(GetParam() ^ 0x1234);
  const Multpath e = MultpathMonoid::identity();
  EXPECT_TRUE(MultpathMonoid::is_identity(e));
  for (int i = 0; i < 100; ++i) {
    const Multpath x = random_multpath(rng);
    EXPECT_EQ(MultpathMonoid::combine(x, e), x);
    EXPECT_EQ(MultpathMonoid::combine(e, x), x);
  }
}

TEST_P(MultpathProperty, BellmanFordActionIsMonoidAction) {
  // f(f(a, w1), w2) == f(a, w1 + w2) — f is an action of (W,+) on M.
  Xoshiro256 rng(GetParam() ^ 0x77);
  BellmanFordAction f;
  for (int i = 0; i < 200; ++i) {
    const Multpath a = random_multpath(rng);
    const Weight w1 = static_cast<Weight>(1 + rng.bounded(9));
    const Weight w2 = static_cast<Weight>(1 + rng.bounded(9));
    EXPECT_EQ(f(f(a, w1), w2), f(a, w1 + w2));
    EXPECT_EQ(f(a, 0.0), a);  // identity of (W,+) acts trivially
  }
}

TEST_P(CentpathProperty, Commutative) {
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Centpath x = random_centpath(rng), y = random_centpath(rng);
    EXPECT_EQ(CentpathMonoid::combine(x, y), CentpathMonoid::combine(y, x));
  }
}

TEST_P(CentpathProperty, Associative) {
  Xoshiro256 rng(GetParam() ^ 0xabcd);
  for (int i = 0; i < 200; ++i) {
    const Centpath x = random_centpath(rng), y = random_centpath(rng),
                   z = random_centpath(rng);
    EXPECT_EQ(CentpathMonoid::combine(CentpathMonoid::combine(x, y), z),
              CentpathMonoid::combine(x, CentpathMonoid::combine(y, z)));
  }
}

TEST_P(CentpathProperty, Identity) {
  Xoshiro256 rng(GetParam() ^ 0x1234);
  const Centpath e = CentpathMonoid::identity();
  EXPECT_TRUE(CentpathMonoid::is_identity(e));
  for (int i = 0; i < 100; ++i) {
    const Centpath x = random_centpath(rng);
    EXPECT_EQ(CentpathMonoid::combine(x, e), x);
    EXPECT_EQ(CentpathMonoid::combine(e, x), x);
  }
}

TEST_P(CentpathProperty, BrandesActionIsMonoidAction) {
  // g(g(a, w1), w2) == g(a, w1 + w2).
  Xoshiro256 rng(GetParam() ^ 0x99);
  BrandesAction g;
  for (int i = 0; i < 200; ++i) {
    const Centpath a = random_centpath(rng);
    const Weight w1 = static_cast<Weight>(1 + rng.bounded(9));
    const Weight w2 = static_cast<Weight>(1 + rng.bounded(9));
    EXPECT_EQ(g(g(a, w1), w2), g(a, w1 + w2));
    EXPECT_EQ(g(a, 0.0), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultpathProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));
INSTANTIATE_TEST_SUITE_P(Seeds, CentpathProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Multpath, CombineSemantics) {
  // ⊕ keeps the lighter path set, merging multiplicities on ties (§4.1.1).
  const Multpath light{2.0, 3.0}, heavy{5.0, 7.0}, tie{2.0, 4.0};
  EXPECT_EQ(MultpathMonoid::combine(light, heavy), light);
  EXPECT_EQ(MultpathMonoid::combine(heavy, light), light);
  EXPECT_EQ(MultpathMonoid::combine(light, tie), (Multpath{2.0, 7.0}));
}

TEST(Centpath, CombineSemantics) {
  // ⊗ keeps the *heavier* weight (the valid back-propagation contributions
  // have the maximal weight τ(s,v)), summing p and c on ties (§4.2.1).
  const Centpath hi{5.0, 0.5, 1.0}, lo{2.0, 9.0, 9.0}, tie{5.0, 0.25, -1.0};
  EXPECT_EQ(CentpathMonoid::combine(hi, lo), hi);
  EXPECT_EQ(CentpathMonoid::combine(lo, hi), hi);
  EXPECT_EQ(CentpathMonoid::combine(hi, tie), (Centpath{5.0, 0.75, 0.0}));
}

TEST(Tropical, MinMonoidAndFold) {
  const std::vector<Weight> ws = {5.0, 2.0, kInfWeight, 7.0};
  EXPECT_EQ((fold<TropicalMinMonoid>(ws.begin(), ws.end())), 2.0);
  EXPECT_TRUE(TropicalMinMonoid::is_identity(kInfWeight));
}

TEST(Tropical, SumMonoid) {
  EXPECT_EQ(SumMonoid::identity(), 0.0);
  EXPECT_EQ(SumMonoid::combine(2.5, 0.5), 3.0);
  EXPECT_TRUE(SumMonoid::is_identity(0.0));
}

}  // namespace
}  // namespace mfbc::algebra
