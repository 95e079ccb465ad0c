#include "apps/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/spgemm.hpp"
#include "support/error.hpp"

namespace mfbc::apps {

namespace {

using graph::vid_t;
using sparse::Coo;
using sparse::Csr;

/// BFS label: hop count + predecessor vertex. The monoid keeps the fewer
/// hops; ties prefer the smaller predecessor id (deterministic paths).
struct HopPred {
  double hops = std::numeric_limits<double>::infinity();
  vid_t pred = -1;

  friend bool operator==(const HopPred&, const HopPred&) = default;
};

struct HopMonoid {
  using value_type = HopPred;
  static value_type identity() { return {}; }
  static value_type combine(const value_type& a, const value_type& b) {
    if (a.hops != b.hops) return a.hops < b.hops ? a : b;
    return a.pred <= b.pred ? a : b;
  }
  static bool is_identity(const value_type& a) { return a.pred == -1; }
};

/// Extending the search by one residual arc keeps the *origin* vertex as
/// predecessor; the frontier value carries it, so no k-argument is needed.
struct StepAction {
  HopPred operator()(const HopPred& a, double /*capacity*/) const {
    return {a.hops + 1.0, a.pred};
  }
};

/// Residual capacities as an adjacency map (rebuilt into CSR per search).
class Residual {
 public:
  Residual(const graph::Graph& g) : n_(g.n()) {
    const auto& adj = g.adj();
    for (vid_t u = 0; u < n_; ++u) {
      auto cols = adj.row_cols(u);
      auto vals = adj.row_vals(u);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        cap_[key(u, cols[i])] += vals[i];
      }
    }
  }

  double capacity(vid_t u, vid_t v) const {
    auto it = cap_.find(key(u, v));
    return it == cap_.end() ? 0.0 : it->second;
  }

  void push_flow(vid_t u, vid_t v, double f) {
    cap_[key(u, v)] -= f;
    cap_[key(v, u)] += f;
  }

  Csr<double> to_csr() const {
    Coo<double> coo(n_, n_);
    for (const auto& [k, c] : cap_) {
      if (c > 0) {
        coo.push(static_cast<vid_t>(k >> 32),
                 static_cast<vid_t>(k & 0xffffffffu), c);
      }
    }
    return Csr<double>::from_coo<sparse::KeepFirst<double>>(std::move(coo));
  }

 private:
  static std::uint64_t key(vid_t u, vid_t v) {
    return (static_cast<std::uint64_t>(u) << 32) |
           static_cast<std::uint32_t>(v);
  }

  vid_t n_;
  std::unordered_map<std::uint64_t, double> cap_;
};

}  // namespace

double max_flow(const graph::Graph& g, graph::vid_t s, graph::vid_t t,
                MaxFlowStats* stats) {
  const vid_t n = g.n();
  MFBC_CHECK(s >= 0 && s < n && t >= 0 && t < n, "endpoint out of range");
  MFBC_CHECK(s != t, "source and sink must differ");
  MFBC_CHECK(n < (vid_t{1} << 32), "max_flow limit: n < 2^32");

  Residual residual(g);
  double total = 0;

  while (true) {
    // Algebraic BFS over the residual graph: frontier is a 1×n row of
    // HopPred values; one product per level.
    const Csr<double> rcsr = residual.to_csr();
    std::vector<vid_t> pred(static_cast<std::size_t>(n), -1);
    pred[static_cast<std::size_t>(s)] = s;
    std::vector<sparse::nnz_t> rowptr{0, 1};
    std::vector<vid_t> col{s};
    std::vector<HopPred> val{{0.0, s}};
    Csr<HopPred> frontier(1, n, std::move(rowptr), std::move(col),
                          std::move(val));
    bool reached = false;
    while (frontier.nnz() > 0 && !reached) {
      auto product = sparse::spgemm<HopMonoid>(frontier, rcsr, StepAction{});
      if (stats != nullptr) ++stats->bfs_products;
      std::vector<vid_t> ncol;
      std::vector<HopPred> nval;
      auto cols = product.row_cols(0);
      auto vals = product.row_vals(0);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const vid_t v = cols[i];
        if (pred[static_cast<std::size_t>(v)] != -1) continue;
        pred[static_cast<std::size_t>(v)] = vals[i].pred;
        if (v == t) {
          reached = true;
          break;
        }
        ncol.push_back(v);
        nval.push_back({vals[i].hops, v});  // re-encode: next hop's pred is v
      }
      std::vector<sparse::nnz_t> nrowptr{0,
                                         static_cast<sparse::nnz_t>(ncol.size())};
      frontier = Csr<HopPred>(1, n, std::move(nrowptr), std::move(ncol),
                              std::move(nval));
    }
    if (!reached) break;

    // Walk the predecessor chain, find the bottleneck, push the flow.
    double bottleneck = std::numeric_limits<double>::infinity();
    for (vid_t v = t; v != s; v = pred[static_cast<std::size_t>(v)]) {
      bottleneck = std::min(
          bottleneck, residual.capacity(pred[static_cast<std::size_t>(v)], v));
    }
    MFBC_CHECK(bottleneck > 0, "augmenting path without residual capacity");
    for (vid_t v = t; v != s; v = pred[static_cast<std::size_t>(v)]) {
      residual.push_flow(pred[static_cast<std::size_t>(v)], v, bottleneck);
    }
    total += bottleneck;
    if (stats != nullptr) ++stats->augmenting_paths;
  }
  return total;
}

}  // namespace mfbc::apps
