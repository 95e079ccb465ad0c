#include "graph/io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace mfbc::graph {

namespace {

/// Where a parse error happened; every diagnostic leads with source:line.
struct LineCtx {
  const std::string& source;
  std::size_t line = 0;  ///< 1-based

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(source + ":" + std::to_string(line) + ": " + msg);
  }
};

/// Parse one vertex id token: rejects non-numeric text, trailing garbage,
/// and values that overflow vid_t (int64).
vid_t parse_vid(const std::string& tok, const LineCtx& ctx,
                const char* what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') {
    ctx.fail(std::string("non-numeric ") + what + " '" + tok + "'");
  }
  if (errno == ERANGE) {
    ctx.fail(std::string("overflowing ") + what + " '" + tok + "'");
  }
  return static_cast<vid_t>(v);
}

/// Parse one edge weight token: must be a finite, non-negative number
/// (negative or NaN/inf weights would silently break the min-plus algebra).
double parse_weight(const std::string& tok, const LineCtx& ctx) {
  errno = 0;
  char* end = nullptr;
  const double w = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    ctx.fail("non-numeric edge weight '" + tok + "'");
  }
  if (!std::isfinite(w)) ctx.fail("non-finite edge weight '" + tok + "'");
  if (w < 0) ctx.fail("negative edge weight '" + tok + "'");
  return w;
}

struct RawEdges {
  std::vector<Edge> edges;
  vid_t n = 0;
};

/// Whitespace as operator>> skips it in the classic locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Copy the next whitespace-delimited token of `line` at or after `pos`
/// into `tok` and move `pos` past it; false when no token is left.
bool next_token(const std::string& line, std::size_t& pos, std::string& tok) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
  if (pos == line.size()) return false;
  const std::size_t start = pos;
  while (pos < line.size() && !is_space(line[pos])) ++pos;
  tok.assign(line, start, pos - start);
  return true;
}

RawEdges parse_lines(std::istream& in, bool weighted, bool one_indexed,
                     const std::string& source) {
  RawEdges out;
  std::unordered_map<vid_t, vid_t> remap;
  auto intern = [&](vid_t raw) {
    auto [it, inserted] = remap.emplace(raw, out.n);
    if (inserted) ++out.n;
    return it->second;
  };
  std::string line, ut, vt, wt;
  LineCtx ctx{source, 0};
  while (std::getline(in, line)) {
    ++ctx.line;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::size_t pos = 0;
    if (!next_token(line, pos, ut) || !next_token(line, pos, vt)) {
      ctx.fail("truncated edge (expected 'u v" +
               std::string(weighted ? " w" : "") + "'): '" + line + "'");
    }
    vid_t u = parse_vid(ut, ctx, "vertex id");
    vid_t v = parse_vid(vt, ctx, "vertex id");
    double w = 1.0;
    if (weighted) {
      if (!next_token(line, pos, wt)) {
        ctx.fail("missing edge weight: '" + line + "'");
      }
      w = parse_weight(wt, ctx);
    }
    if (one_indexed) {
      --u;
      --v;
    }
    if (u < 0 || v < 0) {
      ctx.fail("negative vertex id " + std::to_string(std::min(u, v)) +
               (one_indexed ? " (ids are 1-based here)" : ""));
    }
    out.edges.push_back({intern(u), intern(v), w});
  }
  return out;
}

}  // namespace

Graph read_edge_list(std::istream& in, const EdgeListOptions& opts,
                     const std::string& source) {
  RawEdges raw = parse_lines(in, opts.weighted, opts.one_indexed, source);
  return Graph::from_edges(raw.n, raw.edges, opts.directed, opts.weighted);
}

Graph read_edge_list_file(const std::string& path,
                          const EdgeListOptions& opts) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open graph file: " + path);
  return read_edge_list(in, opts, path);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  const auto& adj = g.adj();
  for (vid_t r = 0; r < adj.nrows(); ++r) {
    auto cols = adj.row_cols(r);
    auto vals = adj.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (!g.directed() && cols[i] < r) continue;  // one direction only
      out << r << ' ' << cols[i] << ' ' << vals[i] << '\n';
    }
  }
}

Graph read_matrix_market(std::istream& in, const std::string& source) {
  std::string line;
  LineCtx ctx{source, 0};
  if (!std::getline(in, line)) {
    ctx.line = 1;
    ctx.fail("empty MatrixMarket file");
  }
  ++ctx.line;
  if (line.rfind("%%MatrixMarket", 0) != 0) {
    ctx.fail("missing MatrixMarket banner");
  }
  const bool symmetric = line.find("symmetric") != std::string::npos;
  const bool pattern = line.find("pattern") != std::string::npos;
  // Skip comments; first data line is "nrows ncols nnz".
  bool have_size = false;
  while (std::getline(in, line)) {
    ++ctx.line;
    if (!line.empty() && line[0] != '%') {
      have_size = true;
      break;
    }
  }
  if (!have_size) ctx.fail("truncated MatrixMarket file: no size line");
  std::istringstream hs(line);
  std::string rt, ct, zt;
  if (!(hs >> rt >> ct >> zt)) {
    ctx.fail("malformed MatrixMarket size line: '" + line + "'");
  }
  const vid_t nrows = parse_vid(rt, ctx, "row count");
  const vid_t ncols = parse_vid(ct, ctx, "column count");
  const nnz_t nz = parse_vid(zt, ctx, "entry count");
  if (nrows < 0 || ncols < 0 || nz < 0) {
    ctx.fail("negative MatrixMarket dimensions");
  }
  if (nrows != ncols) ctx.fail("adjacency matrix must be square");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(nz));
  for (nnz_t i = 0; i < nz; ++i) {
    if (!std::getline(in, line)) {
      ctx.line += 1;
      ctx.fail("MatrixMarket file truncated: expected " + std::to_string(nz) +
               " entries, got " + std::to_string(i));
    }
    ++ctx.line;
    std::istringstream ls(line);
    std::string ut, vt, wt;
    if (!(ls >> ut >> vt)) {
      ctx.fail("truncated MatrixMarket entry: '" + line + "'");
    }
    const vid_t u = parse_vid(ut, ctx, "vertex id");
    const vid_t v = parse_vid(vt, ctx, "vertex id");
    if (u < 1 || u > nrows || v < 1 || v > nrows) {
      ctx.fail("vertex id out of range [1, " + std::to_string(nrows) +
               "]: '" + line + "'");
    }
    double w = 1.0;
    if (!pattern && (ls >> wt)) w = parse_weight(wt, ctx);
    edges.push_back({u - 1, v - 1, w});
  }
  return Graph::from_edges(nrows, edges, /*directed=*/!symmetric, !pattern);
}

void write_matrix_market(std::ostream& out, const Graph& g) {
  out << "%%MatrixMarket matrix coordinate "
      << (g.weighted() ? "real" : "pattern") << ' '
      << (g.directed() ? "general" : "symmetric") << '\n';
  // Count emitted entries first (undirected: lower triangle only).
  nnz_t count = 0;
  const auto& adj = g.adj();
  for (vid_t r = 0; r < adj.nrows(); ++r) {
    for (vid_t c : adj.row_cols(r)) {
      if (g.directed() || c <= r) ++count;
    }
  }
  out << g.n() << ' ' << g.n() << ' ' << count << '\n';
  for (vid_t r = 0; r < adj.nrows(); ++r) {
    auto cols = adj.row_cols(r);
    auto vals = adj.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (!g.directed() && cols[i] > r) continue;
      out << (r + 1) << ' ' << (cols[i] + 1);
      if (g.weighted()) out << ' ' << vals[i];
      out << '\n';
    }
  }
}

}  // namespace mfbc::graph
