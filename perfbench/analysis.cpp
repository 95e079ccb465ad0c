#include "analysis.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "baseline/brandes.hpp"

namespace perfbench {

using mfbc::telemetry::SpanRecord;

namespace {

bool is_chunk(const SpanRecord& s) { return s.name == "parallel.chunk"; }

/// Length of the union of [lo, hi) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace

std::map<std::string, LayerTime> aggregate_layers(
    const std::vector<SpanRecord>& spans, std::int64_t root_id) {
  std::unordered_map<std::int64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id.emplace(s.id, &s);
  auto find_span = [&](std::int64_t id) -> const SpanRecord* {
    auto it = by_id.find(id);
    return it == by_id.end() ? nullptr : it->second;
  };
  auto in_subtree = [&](const SpanRecord& s) {
    for (const SpanRecord* p = &s; p != nullptr; p = find_span(p->parent)) {
      if (p->id == root_id) return true;
    }
    return false;
  };
  // The span a child's interval is subtracted from: its nearest ancestor
  // that is not a dissolved pool chunk.
  auto owner_of = [&](const SpanRecord& s) -> const SpanRecord* {
    const SpanRecord* p = find_span(s.parent);
    while (p != nullptr && is_chunk(*p)) p = find_span(p->parent);
    return p;
  };
  auto nested_in_same_name = [&](const SpanRecord& s) {
    for (const SpanRecord* p = find_span(s.parent); p != nullptr;
         p = find_span(p->parent)) {
      if (p->name == s.name) return true;
    }
    return false;
  };

  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
      children;
  std::vector<const SpanRecord*> members;
  for (const SpanRecord& s : spans) {
    if (is_chunk(s) || !in_subtree(s)) continue;
    members.push_back(&s);
    if (const SpanRecord* o = owner_of(s); o != nullptr) {
      children[o->id].emplace_back(s.start_us, s.start_us + s.dur_us);
    }
  }

  std::map<std::string, LayerTime> out;
  for (const SpanRecord* s : members) {
    LayerTime& lt = out[s->name];
    ++lt.calls;
    if (!nested_in_same_name(*s)) lt.total_us += s->dur_us;
    const double lo = s->start_us;
    const double hi = s->start_us + s->dur_us;
    std::vector<std::pair<double, double>> clipped;
    if (auto it = children.find(s->id); it != children.end()) {
      for (const auto& [a, b] : it->second) {
        const double ca = std::max(a, lo);
        const double cb = std::min(b, hi);
        if (ca < cb) clipped.emplace_back(ca, cb);
      }
    }
    lt.self_us += s->dur_us - union_length(std::move(clipped));
  }
  return out;
}

bool delta_matches(const std::vector<double>& got,
                   const std::vector<double>& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    // Written so a NaN on either side fails the comparison.
    if (!(std::fabs(got[v] - ref[v]) <= 1e-9 * (1.0 + std::fabs(ref[v])))) {
      return false;
    }
  }
  return true;
}

Gate check_batches(const mfbc::graph::Graph& g,
                   std::span<const mfbc::graph::vid_t> sources,
                   mfbc::graph::vid_t batch,
                   const std::vector<std::vector<double>>& deltas) {
  using Clock = std::chrono::steady_clock;
  Gate gate;
  const auto step = static_cast<std::size_t>(batch);
  for (std::size_t lo = 0; lo < sources.size(); lo += step) {
    const std::size_t b = lo / step;
    ++gate.attempted;
    const auto t0 = Clock::now();
    const std::vector<double> ref = mfbc::baseline::brandes_partial(
        g, sources.subspan(lo, std::min(step, sources.size() - lo)));
    gate.brandes_s += std::chrono::duration<double>(Clock::now() - t0).count();
    if (b >= deltas.size() || !delta_matches(deltas[b], ref)) ++gate.failed;
  }
  return gate;
}

std::string lambda_digest(const std::vector<double>& lambda) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : lambda) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
