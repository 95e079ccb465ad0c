// Seeded workload inputs. The generators are the benchmark's own (they use
// no library code), so a change to the library cannot change what it is
// measured on: the same seed always yields the same edge-list bytes and
// source list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Inputs {
  /// Undirected "u v [w]" lines for graph::read_edge_list. The text opens
  /// with one self-loop line "v v" per vertex in label order: the reader
  /// numbers vertices by first appearance and drops self-loops, so these
  /// lines pin the library's vertex ids to the generator's labels.
  std::string edge_list;
  bool weighted = false;
  std::int64_t n = 0;  ///< vertices, labelled 0..n-1
  std::int64_t m = 0;  ///< undirected edges
  std::vector<std::int64_t> sources;  ///< in batch order
};

/// R-MAT graph with quadrant probabilities (0.57, 0.19, 0.19): exactly
/// edge_factor·2^scale distinct undirected edges without self-loops,
/// isolated vertices dropped and the rest relabelled by a seeded
/// permutation. Sources are a seeded sample of `nsources` distinct vertices.
Inputs rmat_inputs(int scale, int edge_factor, std::int64_t nsources,
                   std::uint64_t seed);

/// side×side grid with 4-neighbour edges and weights drawn from U{1..100},
/// vertex (r, c) labelled r·side + c. Each batch of sources takes one random
/// vertex near the centre of every tile×tile block of the grid, so every
/// batch covers the whole grid and its multiply count (set by its
/// farthest-reaching source) barely moves with the seed.
Inputs mesh_inputs(int side, int tile, int batches, std::uint64_t seed);

}  // namespace perfbench
