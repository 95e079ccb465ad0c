// Checks and aggregation of the benchmark harness, kept apart from main.cpp
// so the self-tests can exercise them on hand-built inputs:
//   * span self-time aggregation for the traced per-layer report;
//   * the per-batch λ correctness gate against Brandes;
//   * the λ bit digest that must repeat across runs and thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "telemetry/span.hpp"

namespace perfbench {

/// Time per span name inside one subtree of a trace.
struct LayerTime {
  std::int64_t calls = 0;
  double total_us = 0;  ///< summed durations of the outermost spans of the name
  double self_us = 0;   ///< summed self times of every span of the name
};

/// Aggregate the spans that descend from span `root_id` (the root itself
/// included) by name.
///
/// A span's self time is its duration minus the union of its children's
/// intervals, clipped to the span; children on other threads count like any
/// other. `parallel.chunk` spans (one per pool chunk of a parallel region)
/// are dissolved: their time stays with the span that opened the region and
/// their own children count as that span's children. They do not appear in
/// the result.
std::map<std::string, LayerTime> aggregate_layers(
    const std::vector<mfbc::telemetry::SpanRecord>& spans,
    std::int64_t root_id);

/// Compare one batch's λ delta against the Brandes reference at the tie
/// tolerance of the differential tests: |got − ref| ≤ 1e-9 · (1 + |ref|)
/// for every vertex, and equal lengths.
bool delta_matches(const std::vector<double>& got,
                   const std::vector<double>& ref);

struct Gate {
  int attempted = 0;  ///< batches checked
  int failed = 0;     ///< batches whose delta disagrees or is missing
  double brandes_s = 0;  ///< time spent in baseline::brandes_partial
};

/// The correctness gate: checks `deltas[b]`, the λ delta the engine
/// reported for batch b, against baseline::brandes_partial over that
/// batch's sources, sources[b·batch, (b+1)·batch).
Gate check_batches(const mfbc::graph::Graph& g,
                   std::span<const mfbc::graph::vid_t> sources,
                   mfbc::graph::vid_t batch,
                   const std::vector<std::vector<double>>& deltas);

/// FNV-1a over the bytes of λ, as 16 hex digits.
std::string lambda_digest(const std::vector<double>& lambda);

}  // namespace perfbench
