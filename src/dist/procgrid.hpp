// Processor grids and index-range splitting (paper §5.2, §6.2).
//
// CTF distributes every matrix over a processor grid and, per operation,
// searches the space of grid factorizations. We mirror that: a Layout places
// a matrix region on a pr×pc grid of virtual ranks; GridDims enumerates the
// p1×p2×p3 factorizations the SpGEMM planner searches (p1 = the replication /
// 1D dimension, p2×p3 = the 2D grid).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sparse/types.hpp"

namespace mfbc::dist {

using sparse::vid_t;

/// Half-open index range [lo, hi).
struct Range {
  vid_t lo = 0;
  vid_t hi = 0;

  vid_t size() const { return hi - lo; }
  bool contains(vid_t i) const { return i >= lo && i < hi; }
  friend bool operator==(const Range&, const Range&) = default;
};

/// Balanced split of `r` into `parts` pieces; piece i.
Range split_range(Range r, int parts, int i);

/// Which piece of split_range(r, parts, ·) contains index `idx`.
int split_owner(Range r, int parts, vid_t idx);

/// A 3D factorization p = p1·p2·p3.
struct GridDims {
  int p1 = 1;  ///< replication / 1D-algorithm dimension
  int p2 = 1;  ///< 2D grid rows
  int p3 = 1;  ///< 2D grid columns

  int total() const { return p1 * p2 * p3; }
  friend bool operator==(const GridDims&, const GridDims&) = default;
};

/// All ordered factorizations p = p1·p2·p3 (includes pure 1D and 2D shapes
/// as factorizations with 1s). Paper §5.2's minimization runs over these.
std::vector<GridDims> factorizations(int p);

/// All ordered pairs p = pr·pc (the 2D sub-search).
std::vector<std::pair<int, int>> factorizations2(int p);

/// Placement of a matrix region on a pr×pc grid of the virtual ranks
/// [rank0, rank0 + pr·pc).
///
/// In the normal orientation, grid position (i,j) owns rows
/// split_range(rows, pr, i) and columns split_range(cols, pc, j). The
/// transposed orientation swaps the roles — (i,j) owns rows
/// split_range(rows, pc, j) and columns split_range(cols, pr, i) — which the
/// stationary-B and stationary-A 2D algorithms need for their operand homes
/// (§5.2.2).
struct Layout {
  int rank0 = 0;
  int pr = 1;
  int pc = 1;
  Range rows;
  Range cols;
  bool transposed = false;

  int nranks() const { return pr * pc; }
  int rank_at(int i, int j) const { return rank0 + i * pc + j; }
  /// Grid position (i,j) of the t-th block in row-major grid order.
  std::pair<int, int> grid_pos(std::size_t t) const {
    return {static_cast<int>(t) / pc, static_cast<int>(t) % pc};
  }

  int row_splits() const { return transposed ? pc : pr; }
  int col_splits() const { return transposed ? pr : pc; }

  /// Global row range owned by grid position (i,j).
  Range block_rows(int i, int j) const {
    return split_range(rows, row_splits(), transposed ? j : i);
  }
  /// Global column range owned by grid position (i,j).
  Range block_cols(int i, int j) const {
    return split_range(cols, col_splits(), transposed ? i : j);
  }

  /// Grid position owning global entry (r, c).
  std::pair<int, int> owner(vid_t r, vid_t c) const;

  /// All ranks of this layout, in grid order.
  std::vector<int> ranks() const;
  /// Ranks of grid row i / grid column j (collective groups).
  std::vector<int> row_group(int i) const;
  std::vector<int> col_group(int j) const;

  friend bool operator==(const Layout&, const Layout&) = default;
};

}  // namespace mfbc::dist
