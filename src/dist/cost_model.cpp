#include "dist/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "support/error.hpp"

namespace mfbc::dist {

namespace {

const char* name_of(Variant1D v) {
  switch (v) {
    case Variant1D::kA: return "A";
    case Variant1D::kB: return "B";
    case Variant1D::kC: return "C";
  }
  return "?";
}

const char* name_of(Variant2D v) {
  switch (v) {
    case Variant2D::kAB: return "AB";
    case Variant2D::kAC: return "AC";
    case Variant2D::kBC: return "BC";
  }
  return "?";
}

}  // namespace

const char* dist_name(Dist d) {
  return d == Dist::kBalanced ? "balanced" : "block";
}

std::string Plan::to_string() const {
  std::ostringstream os;
  if (!has_1d() && !has_2d()) {
    os << "local";
  } else if (!has_1d()) {
    os << "2D-" << name_of(v2) << "[" << p2 << "x" << p3 << "]";
  } else if (!has_2d()) {
    os << "1D-" << name_of(v1) << "[" << p1 << "]";
  } else {
    os << "3D-" << name_of(v1) << "," << name_of(v2) << "[" << p1 << "x" << p2
       << "x" << p3 << "]";
  }
  // Sync plans keep their historical names (profile files and test pins
  // depend on them); the schedule dimension only shows when it is active.
  if (is_async()) os << "+" << schedule_name(*this);
  // Same pinning rule for the distribution dimension: block plans keep
  // their historical names.
  if (is_balanced()) os << "+bal";
  return os.str();
}

std::string schedule_name(const Plan& plan) {
  if (!plan.is_async()) return "sync";
  return "async(t" + std::to_string(std::max(plan.tile, 1)) + ")";
}

MultiplyStats MultiplyStats::estimated(sparse::vid_t m, sparse::vid_t k,
                                       sparse::vid_t n, double nnz_a,
                                       double nnz_b, double words_a,
                                       double words_b, double words_c) {
  MultiplyStats s;
  s.m = m;
  s.k = k;
  s.n = n;
  s.nnz_a = nnz_a;
  s.nnz_b = nnz_b;
  s.words_a = words_a;
  s.words_b = words_b;
  s.words_c = words_c;
  s.ops = k > 0 ? nnz_a * nnz_b / static_cast<double>(k) : 0.0;
  s.nnz_c = std::min(static_cast<double>(m) * static_cast<double>(n), s.ops);
  return s;
}

namespace {

/// Wire words of the operand a 1D/2D variant letter refers to.
double nnz_words(Variant1D v, const MultiplyStats& s) {
  switch (v) {
    case Variant1D::kA: return s.nnz_a * s.words_a;
    case Variant1D::kB: return s.nnz_b * s.words_b;
    case Variant1D::kC: return s.nnz_c * s.words_c;
  }
  return 0;
}

struct Pair2D {
  Variant1D y, z;
};

Pair2D operands_of(Variant2D v) {
  switch (v) {
    case Variant2D::kAB: return {Variant1D::kA, Variant1D::kB};
    case Variant2D::kAC: return {Variant1D::kA, Variant1D::kC};
    case Variant2D::kBC: return {Variant1D::kB, Variant1D::kC};
  }
  return {Variant1D::kA, Variant1D::kB};
}

}  // namespace

double model_memory_words(const Plan& plan, const MultiplyStats& s) {
  // M_X,YZ = O(nnz(X)·p1/p + (nnz(Y)+nnz(Z))/p); for pure 2D, p1 = 1 makes
  // the replicated term the X share, i.e. everything is ~ nnz/p.
  const double p = plan.total_ranks();
  const double replicated = plan.has_1d() ? nnz_words(plan.v1, s) : 0.0;
  const double all = s.nnz_a * s.words_a + s.nnz_b * s.words_b +
                     s.nnz_c * s.words_c;
  double mem = replicated * plan.p1 / p + all / p;
  if (plan.is_async() && plan.has_2d()) {
    // On the modelled machine, step k+1's posted broadcasts land in receive
    // buffers while step k's multiplies run; the tile knob posts ~1/tile of
    // a step's broadcasts early, so in-flight buffers add ~1/tile of one
    // step's slice words.
    auto [y, z] = operands_of(plan.v2);
    double y_words = nnz_words(y, s);
    double z_words = plan.v2 == Variant2D::kAB ? nnz_words(z, s) : 0.0;
    if (plan.has_1d()) {
      if (plan.v1 != y) y_words /= plan.p1;
      if (plan.v2 == Variant2D::kAB && plan.v1 != z) z_words /= plan.p1;
    }
    const double steps = static_cast<double>(std::lcm(plan.p2, plan.p3));
    const int tile = std::max(plan.tile, 1);
    mem += (y_words / plan.p2 + z_words / plan.p3) / (steps * tile);
  }
  return mem;
}

ModelCost model_cost(const Plan& plan, const MultiplyStats& s,
                     const sim::MachineModel& mm) {
  ModelCost c;
  const double p = plan.total_ranks();
  // Max-per-rank compute: the §5.2 ops/p term scaled by the distribution's
  // measured load factor (1.0 = the uniform assumption, bitwise-legacy). On
  // a heterogeneous fleet a block distribution is gated by the slowest
  // rank's flop rate; a balanced one divides work ∝ rank speed, so its
  // effective rate is the harmonic mean over the fleet.
  const double imb = plan.is_balanced() ? s.imb_balanced : s.imb_block;
  const double spo = mm.heterogeneous()
                         ? (plan.is_balanced() ? mm.harmonic_seconds_per_op()
                                               : mm.max_seconds_per_op())
                         : mm.seconds_per_op;
  c.compute = (s.ops / p) * imb * spo;

  // Communication prices at the fleet's max α/β (scalars when homogeneous):
  // a collective completes when its slowest member does.
  const double alpha = mm.max_alpha();
  const double beta = mm.max_beta();

  // CTF-style mapping overhead: operands and output are shuffled to/from
  // the variant's home layouts — one all-to-all each way, ~nnz/p per rank.
  const double total_words =
      s.nnz_a * s.words_a + s.nnz_b * s.words_b + s.nnz_c * s.words_c;
  if (p > 1) {
    c.remap = (total_words / p) * beta + 2.0 * sim::log2_ceil(plan.total_ranks()) * alpha;
  }

  const double p2d = static_cast<double>(plan.p2) * plan.p3;

  // 1D level (over p1): replicate or reduce X across layers; X's blocks are
  // already spread over the p2·p3 layer grid.
  if (plan.has_1d()) {
    const double x_words = nnz_words(plan.v1, s) / std::max(p2d, 1.0);
    c.bandwidth += 2.0 * x_words * beta;
    c.latency += 2.0 * sim::log2_ceil(plan.p1) * alpha;
  }

  // 2D level (over p2×p3): Y along grid rows, Z along grid columns, with the
  // paper's case split when the 1D level already blocked an operand by p1.
  if (plan.has_2d()) {
    auto [y, z] = operands_of(plan.v2);
    double y_words = nnz_words(y, s);
    double z_words = nnz_words(z, s);
    if (plan.has_1d()) {
      // Operands other than the replicated X are partitioned p1-ways.
      if (plan.v1 != y) y_words /= plan.p1;
      if (plan.v1 != z) z_words /= plan.p1;
    }
    c.bandwidth += 2.0 * (y_words / plan.p2 + z_words / plan.p3) * beta;
    c.latency += 2.0 *
                 static_cast<double>(std::max(plan.p2, plan.p3)) *
                 sim::log2_ceil(std::max(plan.p2, plan.p3)) * alpha;

    if (plan.is_async()) {
      // Async schedule: posted broadcasts hide the broadcast side of
      // the 2D level (Y always; Z too for kAB — for kAC/kBC, Z = C moves in
      // *reductions*, which depend on the step's multiplies and cannot be
      // prefetched) behind the multiplies. The tile knob posts 1/tile of
      // each step's broadcasts inside the overlap window, so only that
      // fraction is eligible, scaled by the machine's overlap efficiency.
      double bcast_bw = 2.0 * (y_words / plan.p2) * beta;
      if (plan.v2 == Variant2D::kAB) {
        bcast_bw += 2.0 * (z_words / plan.p3) * beta;
      }
      const int tile = std::max(plan.tile, 1);
      c.overlap = mm.overlap_beta * std::min(bcast_bw / tile, c.compute);
    }
  }
  // Pure 1D needs no extra term: with p2·p3 = 1 the 1D-level charge above is
  // already the full 2·nnz(X)·β of W_X = α·log p + β·nnz(X).

  return c;
}

}  // namespace mfbc::dist
