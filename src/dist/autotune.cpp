#include "dist/autotune.hpp"

#include "dist/procgrid.hpp"
#include "support/error.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::dist {

std::vector<Plan> enumerate_plans(int p, const TuneOptions& opts) {
  MFBC_CHECK(p >= 1, "p must be positive");
  std::vector<Plan> out;
  if (p == 1) {
    out.push_back(Plan{});  // local multiply
    out.back().dist = opts.partition;
    return out;
  }
  for (const GridDims& d : factorizations(p)) {
    const bool is_1d = d.p1 > 1 && d.p2 == 1 && d.p3 == 1;
    const bool is_2d = d.p1 == 1 && d.p2 * d.p3 > 1;
    const bool is_3d = d.p1 > 1 && d.p2 * d.p3 > 1;
    if (is_1d) {
      if (!opts.allow_1d) continue;
      for (Variant1D v1 : {Variant1D::kA, Variant1D::kB, Variant1D::kC}) {
        out.push_back(Plan{d.p1, 1, 1, v1, Variant2D::kAB});
      }
    } else if (is_2d) {
      if (!opts.allow_2d) continue;
      if (opts.square_2d_only && d.p2 != d.p3) continue;
      for (Variant2D v2 : {Variant2D::kAB, Variant2D::kAC, Variant2D::kBC}) {
        out.push_back(Plan{1, d.p2, d.p3, Variant1D::kA, v2});
      }
    } else if (is_3d) {
      if (!opts.allow_3d) continue;
      for (Variant1D v1 : {Variant1D::kA, Variant1D::kB, Variant1D::kC}) {
        for (Variant2D v2 : {Variant2D::kAB, Variant2D::kAC, Variant2D::kBC}) {
          out.push_back(Plan{d.p1, d.p2, d.p3, v1, v2});
        }
      }
    }
  }
  // Distribution base value: plans describe the data placement the request
  // actually has, so the cost model prices the matching imbalance factor.
  if (opts.partition != Dist::kBlock) {
    for (Plan& plan : out) plan.dist = opts.partition;
  }
  if (opts.allow_async) {
    // Schedule axis: an async-pipelined twin per tile size for every plan
    // with a 2D level (the async schedule overlaps the lcm-step broadcast
    // schedule; pure-1D plans have no stepwise loop to pipeline). Appended
    // after the sync plans so the historical enumeration is a prefix.
    const std::size_t sync_count = out.size();
    for (std::size_t i = 0; i < sync_count; ++i) {
      if (!out[i].has_2d()) continue;
      for (int tile : opts.async_tiles) {
        if (tile < 1) continue;
        Plan twin = out[i];
        twin.sched = Sched::kAsync;
        twin.tile = tile;
        out.push_back(twin);
      }
    }
  }
  if (opts.allow_partition) {
    // Distribution axis: a twin of every plan under the other distribution,
    // appended after the async twins so both historical prefixes survive.
    // Ties go to the earlier (base-distribution) candidate.
    const Dist other =
        opts.partition == Dist::kBlock ? Dist::kBalanced : Dist::kBlock;
    const std::size_t base_count = out.size();
    for (std::size_t i = 0; i < base_count; ++i) {
      Plan twin = out[i];
      twin.dist = other;
      out.push_back(twin);
    }
  }
  return out;
}

Plan autotune(int p, const MultiplyStats& stats, const sim::MachineModel& mm,
              const TuneOptions& opts, TuneReport* report) {
  const auto plans = enumerate_plans(p, opts);
  MFBC_CHECK(!plans.empty(), "no plan shapes permitted by TuneOptions");
  telemetry::Span span("dist.autotune");
  span.attr("p", static_cast<std::int64_t>(p));
  span.attr("candidates", static_cast<std::int64_t>(plans.size()));
  const Plan* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  int pruned = 0;
  for (const Plan& plan : plans) {
    const double mem = model_memory_words(plan, stats);
    const bool fits = mem <= opts.memory_words_limit;
    const double cost = model_cost(plan, stats, mm).total();
    if (span.active()) {
      // One attribute per candidate keeps the whole evaluated space in the
      // trace, so a surprising plan choice can be audited after the run.
      const std::string key = "candidate." + plan.to_string();
      span.attr(key + ".cost_sec", cost);
      span.attr(key + ".mem_words", mem);
      if (!fits) span.attr(key + ".rejected", std::string("memory"));
    }
    if (!fits) {
      ++pruned;
      continue;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = &plan;
    }
  }
  if (report != nullptr) {
    report->candidates = static_cast<int>(plans.size());
    report->pruned_memory = pruned;
  }
  if (pruned > 0) {
    telemetry::count("tune.pruned.memory", static_cast<double>(pruned));
    span.attr("pruned.memory", static_cast<std::int64_t>(pruned));
  }
  MFBC_CHECK(best != nullptr, "no plan fits in the per-rank memory limit");
  span.attr("chosen", best->to_string());
  span.attr("chosen.cost_sec", best_cost);
  return *best;
}

}  // namespace mfbc::dist
