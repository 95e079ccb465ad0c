#include "inputs.hpp"

#include <charconv>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace perfbench {

namespace {

/// splitmix64: small, portable, and fully specified, so inputs do not
/// depend on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

struct Edge {
  std::int64_t u, v, w;
};

std::string edge_list_text(std::int64_t n, const std::vector<Edge>& edges,
                           bool weighted) {
  std::string out;
  out.reserve((static_cast<std::size_t>(n) + edges.size()) * 16);
  auto line = [&](std::int64_t u, std::int64_t v, std::int64_t w) {
    append_int(out, u);
    out.push_back(' ');
    append_int(out, v);
    if (weighted) {
      out.push_back(' ');
      append_int(out, w);
    }
    out.push_back('\n');
  };
  for (std::int64_t v = 0; v < n; ++v) line(v, v, 1);
  for (const Edge& e : edges) line(e.u, e.v, e.w);
  return out;
}

}  // namespace

Inputs rmat_inputs(int scale, int edge_factor, std::int64_t nsources,
                   std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t target = static_cast<std::int64_t>(edge_factor) << scale;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target) * 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(target));
  for (std::int64_t attempt = 0;
       static_cast<std::int64_t>(edges.size()) < target; ++attempt) {
    if (attempt > 16 * target) {
      throw std::runtime_error("rmat: too few distinct edges");
    }
    std::int64_t u = 0, v = 0;
    for (int bit = scale - 1; bit >= 0; --bit) {
      const double r = rng.uniform();
      if (r >= 0.57 && r < 0.76) {
        v |= std::int64_t{1} << bit;
      } else if (r >= 0.76 && r < 0.95) {
        u |= std::int64_t{1} << bit;
      } else if (r >= 0.95) {
        u |= std::int64_t{1} << bit;
        v |= std::int64_t{1} << bit;
      }
    }
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (seen.insert(static_cast<std::uint64_t>(u) << 32 |
                    static_cast<std::uint64_t>(v))
            .second) {
      edges.push_back({u, v, 1});
    }
  }

  // Drop isolated vertices, then give the rest seeded random labels.
  std::vector<std::int64_t> label(std::size_t{1} << scale, -1);
  std::int64_t n = 0;
  for (const Edge& e : edges) {
    for (const std::int64_t x : {e.u, e.v}) {
      std::int64_t& l = label[static_cast<std::size_t>(x)];
      if (l < 0) l = n++;
    }
  }
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (std::int64_t i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  auto relabel = [&](std::int64_t x) {
    return perm[static_cast<std::size_t>(label[static_cast<std::size_t>(x)])];
  };
  for (Edge& e : edges) {
    e.u = relabel(e.u);
    e.v = relabel(e.v);
  }

  if (nsources > n) {
    throw std::runtime_error("rmat: more sources than vertices");
  }
  // Partial Fisher–Yates over the labels: a uniform sample, in draw order.
  for (std::int64_t i = 0; i < nsources; ++i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(i + rng.below(n - i))]);
  }

  Inputs in;
  in.n = n;
  in.m = static_cast<std::int64_t>(edges.size());
  in.sources.assign(perm.begin(), perm.begin() + nsources);
  in.edge_list = edge_list_text(n, edges, /*weighted=*/false);
  return in;
}

Inputs mesh_inputs(int side, int tile, int batches, std::uint64_t seed) {
  // Sources lie within kJitter of each tile's centre, so every batch's
  // farthest reach, and with it the multiply count, barely moves with the
  // seed, while the seed still moves every source.
  constexpr std::int64_t kJitter = 2;
  constexpr std::int64_t kWindow = 2 * kJitter + 1;
  if (side % tile != 0 || tile <= kWindow || batches > kWindow * kWindow) {
    throw std::runtime_error("mesh: bad tile or too many batches");
  }
  Rng rng(seed);
  auto id = [side](std::int64_t r, std::int64_t c) { return r * side + c; };
  std::vector<Edge> edges;
  edges.reserve(2 * static_cast<std::size_t>(side) * side);
  for (std::int64_t r = 0; r < side; ++r) {
    for (std::int64_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        edges.push_back({id(r, c), id(r, c + 1), 1 + rng.below(100)});
      }
      if (r + 1 < side) {
        edges.push_back({id(r, c), id(r + 1, c), 1 + rng.below(100)});
      }
    }
  }

  Inputs in;
  in.weighted = true;
  in.n = static_cast<std::int64_t>(side) * side;
  in.m = static_cast<std::int64_t>(edges.size());
  std::unordered_set<std::int64_t> taken;
  for (int b = 0; b < batches; ++b) {
    for (std::int64_t tr = 0; tr < side; tr += tile) {
      for (std::int64_t tc = 0; tc < side; tc += tile) {
        std::int64_t v = 0;
        do {
          v = id(tr + tile / 2 - kJitter + rng.below(kWindow),
                 tc + tile / 2 - kJitter + rng.below(kWindow));
        } while (!taken.insert(v).second);
        in.sources.push_back(v);
      }
    }
  }
  in.edge_list = edge_list_text(in.n, edges, /*weighted=*/true);
  return in;
}

}  // namespace perfbench
