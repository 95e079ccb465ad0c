// Sequential MFBC: Algorithms 1–3 of the paper executed on one rank.
//
// This is both the reference implementation the distributed code is verified
// against and a usable single-node BC solver. The structure mirrors the
// paper exactly — frontier relaxations are generalized sparse matrix
// products over the multpath/centpath monoids — with two implementation
// notes:
//
//   * The accumulated matrices T and Z are held densely per batch
//     (nb×n entries), matching the paper's memory bound O(n·nb/p) per batch;
//     only the frontiers are sparse.
//   * Entries (s, source(s)) are dropped from T and the frontiers. The paper
//     leaves T(s,s) at its (∞,1) initialization conceptually, but relaxation
//     over a graph with cycles would write closed-walk weights into it; such
//     walks never affect other vertices' shortest paths (all weights are
//     positive), and δ(s,s) is excluded from λ by definition, so dropping
//     the diagonal is the faithful-and-safe reading of Algorithm 3.
#pragma once

#include <span>
#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "graph/graph.hpp"

namespace mfbc::core {

using algebra::Multiplicity;
using algebra::Weight;
using graph::Graph;
using graph::vid_t;
using sparse::nnz_t;

/// The result matrix T of MFBF for one batch: distances and shortest-path
/// multiplicities from each of the nb sources, stored densely row-major
/// (s·n + v). Unreached pairs hold (∞, 0).
struct PathMatrix {
  vid_t nb = 0;
  vid_t n = 0;
  std::vector<vid_t> sources;
  std::vector<Weight> dist;
  std::vector<Multiplicity> mult;

  Weight d(vid_t s, vid_t v) const {
    return dist[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
  Multiplicity m(vid_t s, vid_t v) const {
    return mult[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
};

/// Partial centrality factors ζ(s,v) for one batch, dense row-major.
struct FactorMatrix {
  vid_t nb = 0;
  vid_t n = 0;
  std::vector<double> zeta;

  double z(vid_t s, vid_t v) const {
    return zeta[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
};

/// Per-phase frontier statistics (drives the §5.3 cost discussion and the
/// weighted-graph slowdown analysis of §7.2).
struct FrontierTrace {
  std::vector<nnz_t> frontier_nnz;  ///< nnz(F_i) per iteration
  std::vector<nnz_t> product_nnz;   ///< nnz(G_i) per iteration
  nnz_t total_ops = 0;              ///< Σ ops of the generalized products
  int iterations() const { return static_cast<int>(frontier_nnz.size()); }
};

/// Algorithm 1 (MFBF): shortest distances and multiplicities from `sources`.
PathMatrix mfbf(const Graph& g, std::span<const vid_t> sources,
                FrontierTrace* trace = nullptr);

/// Algorithm 2 (MFBr): partial centrality factors for a completed T.
/// `at` must be the transpose of g's adjacency matrix (callers typically
/// compute it once per graph and reuse it across batches).
FactorMatrix mfbr(const Graph& g, const sparse::Csr<Weight>& at,
                  const PathMatrix& t, FrontierTrace* trace = nullptr);

struct MfbcOptions {
  vid_t batch_size = 64;
  /// If non-empty, compute partial (approximate) BC from these sources only;
  /// otherwise all n vertices are sources (exact BC).
  std::vector<vid_t> sources{};
};

struct MfbcStats {
  FrontierTrace forward;   ///< accumulated over batches
  FrontierTrace backward;
  int batches = 0;
};

/// Algorithm 3 (MFBC): betweenness centrality λ for the whole graph,
/// processed in batches of `batch_size` sources.
std::vector<double> mfbc(const Graph& g, const MfbcOptions& opts = {},
                         MfbcStats* stats = nullptr);

}  // namespace mfbc::core
