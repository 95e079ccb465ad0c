// The tropical (min,+) structures used for plain shortest paths (paper §2.3)
// and as building blocks for tests and the CombBLAS-style baseline.
#pragma once

#include <algorithm>
#include <limits>

namespace mfbc::algebra {

/// Weight domain W ⊂ R ∪ {∞}. The library represents absent edges and
/// unreached vertices by +infinity.
using Weight = double;

inline constexpr Weight kInfWeight = std::numeric_limits<Weight>::infinity();

/// Commutative monoid (W, min) with identity ∞ — the additive monoid of the
/// tropical semiring.
struct TropicalMinMonoid {
  using value_type = Weight;
  static constexpr value_type identity() { return kInfWeight; }
  static value_type combine(value_type a, value_type b) {
    return std::min(a, b);
  }
  static bool is_identity(value_type a) { return a == kInfWeight; }
};

/// Plain addition monoid on reals, identity 0 (used for accumulating
/// centrality contributions and path counts in the baseline).
struct SumMonoid {
  using value_type = double;
  static constexpr value_type identity() { return 0.0; }
  static value_type combine(value_type a, value_type b) { return a + b; }
  static bool is_identity(value_type a) { return a == 0.0; }
};

}  // namespace mfbc::algebra
