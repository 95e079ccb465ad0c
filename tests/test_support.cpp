// Tests for src/support: error macros, deterministic RNG, string helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"

namespace mfbc {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    MFBC_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(MFBC_CHECK(2 + 2 == 4, "arithmetic"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, WeightsAreIntegersInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 500; ++i) {
    const double w = rng.weight(1, 100);
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 100.0);
    EXPECT_EQ(w, static_cast<double>(static_cast<long long>(w)));
  }
}

TEST(Rng, WeightRejectsZeroLow) {
  Xoshiro256 rng(9);
  EXPECT_THROW(rng.weight(0, 5), Error);
}

TEST(Strutil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
}

TEST(Strutil, HumanCount) {
  EXPECT_EQ(human_count(737), "737");
  EXPECT_EQ(human_count(65.6e6), "65.6M");
  EXPECT_EQ(human_count(1.8e9), "1.8B");
}

TEST(Strutil, Fixed) { EXPECT_EQ(fixed(3.14159, 2), "3.14"); }

TEST(Strutil, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("300,900", ','), (std::vector<std::string>{"300", "900"}));
  EXPECT_EQ(split("0.3,", ','), (std::vector<std::string>{"0.3", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strutil, ParsesWholeNumbersOnly) {
  EXPECT_EQ(parse_int<int>("--ranks", "16"), 16);
  EXPECT_EQ(parse_int<int>("--ranks", "0"), 0);
  EXPECT_EQ(parse_int<std::uint64_t>("--seed", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_double("--eps", "0.3"), 0.3);
  EXPECT_EQ(parse_double("--eps", "1e-3"), 1e-3);
  EXPECT_EQ(parse_double("--threshold", "-1"), -1.0);
  EXPECT_EQ(parse_rate("--beta", "1"), 1.0);
  for (const char* bad : {"banana", "16x", "", " 5", "+5", "1.5", "-2",
                          "2147483648"}) {
    EXPECT_THROW(parse_int<int>("--ranks", bad), Error) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_int<std::uint64_t>("--seed", "-1"), Error);
  for (const char* bad : {"abc", "0.5x", "", "inf", "nan", "1e999"}) {
    EXPECT_THROW(parse_double("--eps", bad), Error) << "'" << bad << "'";
  }
  for (const char* bad : {"-0.1", "1.5", "abc"}) {
    EXPECT_THROW(parse_rate("--beta", bad), Error) << "'" << bad << "'";
  }
  // The message names the flag and the text that failed.
  try {
    parse_int<int>("--batch", "16x");
    FAIL() << "expected mfbc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--batch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'16x'"), std::string::npos);
  }
}

}  // namespace
}  // namespace mfbc
