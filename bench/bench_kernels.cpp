// Microbenchmarks of the sequential kernels (google-benchmark): generalized
// SpGEMM over every monoid the library uses, elementwise ops, structural
// ops, and format conversion. These calibrate the simulator's
// seconds_per_op constant (see sim::tune_machine) and document the
// single-rank performance baseline the distributed results build on.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "benchsupport/harness.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "graph/more_generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"
#include "support/strutil.hpp"

namespace {

using namespace mfbc;
using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using algebra::TropicalMinMonoid;
using sparse::Csr;

graph::Graph make_graph(int scale, double degree) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = degree;
  return graph::rmat(p, /*seed=*/11);
}

Csr<Multpath> make_multpath_frontier(const graph::Graph& g, sparse::vid_t nb) {
  sparse::Coo<Multpath> coo(nb, g.n());
  for (sparse::vid_t s = 0; s < nb; ++s) {
    auto cols = g.adj().row_cols(s);
    auto vals = g.adj().row_vals(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coo.push(s, cols[i], Multpath{vals[i], 1.0});
    }
  }
  return Csr<Multpath>::from_coo<MultpathMonoid>(std::move(coo));
}

Csr<Centpath> make_centpath_frontier(const graph::Graph& g, sparse::vid_t nb) {
  sparse::Coo<Centpath> coo(nb, g.n());
  for (sparse::vid_t s = 0; s < nb; ++s) {
    auto cols = g.adj().row_cols(s);
    auto vals = g.adj().row_vals(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coo.push(s, cols[i], Centpath{vals[i], 0.5, -1.0});
    }
  }
  return Csr<Centpath>::from_coo<CentpathMonoid>(std::move(coo));
}

void set_ops_rate(benchmark::State& state, sparse::nnz_t ops) {
  state.counters["ops"] = static_cast<double>(ops);
  state.counters["ns_per_op"] = benchmark::Counter(
      static_cast<double>(ops) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SpgemmMultpath(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = make_multpath_frontier(g, std::min<sparse::vid_t>(64, g.n()));
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<MultpathMonoid>(f, g.adj(), BellmanFordAction{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmMultpath)->Arg(10)->Arg(12)->Arg(14);

void BM_SpgemmCentpath(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto at = sparse::transpose(g.adj());
  const auto f = make_centpath_frontier(g, std::min<sparse::vid_t>(64, g.n()));
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<CentpathMonoid>(f, at, BrandesAction{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmCentpath)->Arg(10)->Arg(12)->Arg(14);

void BM_SpgemmCountSemiring(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = sparse::slice_rows(g.adj(), 0,
                                    std::min<sparse::vid_t>(64, g.n()));
  struct Times {
    double operator()(double a, double b) const { return a * b; }
  };
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<SumMonoid>(f, g.adj(), Times{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmCountSemiring)->Arg(10)->Arg(12)->Arg(14);

void BM_SpgemmTropical(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = sparse::slice_rows(g.adj(), 0,
                                    std::min<sparse::vid_t>(64, g.n()));
  struct Extend {
    double operator()(double a, double b) const { return a + b; }
  };
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<TropicalMinMonoid>(f, g.adj(), Extend{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmTropical)->Arg(12);

/// The multpath frontier of a mesh-shaped sweep after `steps` Bellman–Ford
/// steps: 64 sources at the tile centres of a side×side grid, each step
/// keeping the product entries that improve or tie the path weight found
/// so far (the MFBF filter).
Csr<Multpath> grid_frontier(const graph::Graph& g, sparse::vid_t side,
                            int steps) {
  const sparse::vid_t tile = side / 8, n = g.n(), nb = 64;
  std::vector<sparse::vid_t> src(static_cast<std::size_t>(nb));
  std::vector<double> dist(static_cast<std::size_t>(nb * n),
                           algebra::kInfWeight);
  auto best = [&](sparse::vid_t s, sparse::vid_t v) -> double& {
    return dist[static_cast<std::size_t>(s * n + v)];
  };
  sparse::Coo<Multpath> coo(nb, n);
  for (sparse::vid_t s = 0; s < nb; ++s) {
    src[static_cast<std::size_t>(s)] =
        (s / 8 * tile + tile / 2) * side + s % 8 * tile + tile / 2;
    auto cols = g.adj().row_cols(src[static_cast<std::size_t>(s)]);
    auto vals = g.adj().row_vals(src[static_cast<std::size_t>(s)]);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      best(s, cols[i]) = vals[i];
      coo.push(s, cols[i], Multpath{vals[i], 1.0});
    }
  }
  auto frontier = Csr<Multpath>::from_coo<MultpathMonoid>(std::move(coo));
  for (int step = 1; step < steps; ++step) {
    const auto product = sparse::spgemm<MultpathMonoid>(frontier, g.adj(),
                                                        BellmanFordAction{});
    sparse::Coo<Multpath> next(nb, n);
    for (sparse::vid_t s = 0; s < nb; ++s) {
      auto cols = product.row_cols(s);
      auto vals = product.row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] == src[static_cast<std::size_t>(s)] ||
            vals[i].w > best(s, cols[i])) {
          continue;
        }
        best(s, cols[i]) = vals[i].w;
        next.push(s, cols[i], vals[i]);
      }
    }
    frontier = Csr<Multpath>::from_coo<MultpathMonoid>(std::move(next));
  }
  return frontier;
}

// One multpath step of the weighted 128×128 grid's sweep, from the
// frontier after range(0) steps. After 48 steps a product row holds about
// 610 entries spread over about 10,000 columns, the row shape of the
// perfbench mesh-w-p64 workload. row_nnz and row_span are the product
// rows' mean entry count and mean first-to-last column distance.
void BM_SpgemmGridFrontier(benchmark::State& state) {
  const sparse::vid_t side = 128;
  const auto g = graph::grid_2d(side, /*torus=*/false,
                                graph::WeightSpec{true, 1, 100}, /*seed=*/11);
  const auto f = grid_frontier(g, side, static_cast<int>(state.range(0)));
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<MultpathMonoid>(f, g.adj(), BellmanFordAction{},
                                            &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  const auto c =
      sparse::spgemm<MultpathMonoid>(f, g.adj(), BellmanFordAction{});
  double span = 0;
  for (sparse::vid_t s = 0; s < c.nrows(); ++s) {
    auto cols = c.row_cols(s);
    if (!cols.empty()) span += static_cast<double>(cols.back() - cols.front());
  }
  state.counters["row_nnz"] =
      static_cast<double>(c.nnz()) / static_cast<double>(c.nrows());
  state.counters["row_span"] = span / static_cast<double>(c.nrows());
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmGridFrontier)->Arg(48);

// The same multpath step as one distributed multiply on 64 ranks, at one
// pool thread, with B's homes read from a warm HomeCache: two layer shapes
// the mesh-w-p64 workload runs. Arg 0 runs 3D-A,BC[16x2x2], whose layers
// each take a sixteenth of B's columns, so most rows of a B block of the
// banded grid adjacency are empty; Arg 1 runs 3D-B,AC[8x2x4].
void BM_DistSpgemmGridLayer(benchmark::State& state) {
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;
  const sparse::vid_t side = 128;
  const auto g = graph::grid_2d(side, /*torus=*/false,
                                graph::WeightSpec{true, 1, 100}, /*seed=*/11);
  const auto f = grid_frontier(g, side, 48);
  const dist::Plan plan =
      state.range(0) == 0
          ? dist::Plan{16, 2, 2, dist::Variant1D::kA, dist::Variant2D::kBC}
          : dist::Plan{8, 2, 4, dist::Variant1D::kB, dist::Variant2D::kAC};
  const int threads = support::num_threads();
  support::set_threads(1);
  const int p = 64;
  sim::Sim sim(p);
  const Layout lf{0, 8, 8, Range{0, f.nrows()}, Range{0, g.n()}, false};
  const Layout la{0, 8, 8, Range{0, g.n()}, Range{0, g.n()}, false};
  const auto df = DistMatrix<Multpath>::scatter<MultpathMonoid>(sim, f, lf);
  const auto da =
      DistMatrix<double>::scatter<TropicalMinMonoid>(sim, g.adj(), la);
  dist::HomeCache<double> cache;
  auto multiply = [&](dist::DistSpgemmStats* st) {
    return dist::spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{},
                                        lf, st, &cache);
  };
  benchmark::DoNotOptimize(multiply(nullptr));  // maps B into the cache
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    dist::DistSpgemmStats dst;
    auto c = multiply(&dst);
    benchmark::DoNotOptimize(c);
    ops = static_cast<sparse::nnz_t>(dst.total_ops);
  }
  state.SetLabel(plan.to_string());
  set_ops_rate(state, ops);
  support::set_threads(threads);
}
BENCHMARK(BM_DistSpgemmGridLayer)->Arg(0)->Arg(1);

// Distributed 2D multiply (16 virtual ranks) with the execution pool at
// 1/2/4/8 threads: the per-rank block multiplies run concurrently, so
// ns_per_op should drop with the thread count while the result (and every
// ledger total) stays bit-identical.
void BM_DistSpgemmThreads(benchmark::State& state) {
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;
  const auto g = make_graph(12, 8);
  const auto f = make_multpath_frontier(g, std::min<sparse::vid_t>(64, g.n()));
  support::set_threads(static_cast<int>(state.range(0)));
  const int p = 16;
  dist::Plan plan;
  plan.p2 = 4;
  plan.p3 = 4;
  plan.v2 = dist::Variant2D::kAC;
  sim::Sim sim(p);
  const Layout lf{0, 1, p, Range{0, f.nrows()}, Range{0, g.n()}, false};
  const Layout la{0, 4, 4, Range{0, g.n()}, Range{0, g.n()}, false};
  const auto df = DistMatrix<Multpath>::scatter<MultpathMonoid>(sim, f, lf);
  const auto da = DistMatrix<double>::scatter<SumMonoid>(sim, g.adj(), la);
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    dist::DistSpgemmStats dst;
    auto c = dist::spgemm<MultpathMonoid>(sim, plan, df, da,
                                          BellmanFordAction{}, lf, &dst);
    benchmark::DoNotOptimize(c);
    ops = static_cast<sparse::nnz_t>(dst.total_ops);
  }
  state.counters["threads"] = static_cast<double>(support::num_threads());
  set_ops_rate(state, ops);
  support::set_threads(1);
}
BENCHMARK(BM_DistSpgemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EwiseUnion(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = make_multpath_frontier(g, std::min<sparse::vid_t>(256, g.n()));
  for (auto _ : state) {
    auto c = sparse::ewise_union<MultpathMonoid>(f, f);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_EwiseUnion)->Arg(12)->Arg(14);

void BM_Transpose(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto t = sparse::transpose(g.adj());
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_Transpose)->Arg(12)->Arg(14);

void BM_CooToCsr(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto coo = g.adj().to_coo();
  for (auto _ : state) {
    auto copy = coo;
    auto c = Csr<double>::from_coo<SumMonoid>(std::move(copy));
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CooToCsr)->Arg(12)->Arg(14);

void BM_FilterSparsify(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto c = sparse::filter(g.adj(), [](sparse::vid_t, sparse::vid_t c2,
                                        double) { return c2 % 2 == 0; });
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FilterSparsify)->Arg(12)->Arg(14);

void BM_SliceCols(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const sparse::vid_t quarter = g.n() / 4;
  for (auto _ : state) {
    auto c = sparse::slice_cols(g.adj(), quarter, 2 * quarter);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SliceCols)->Arg(12)->Arg(14);

/// Console output as usual, plus one table row per reported run: its time
/// per iteration, and the ops and ns_per_op counters where it sets them.
class TableReporter : public benchmark::ConsoleReporter {
 public:
  TableReporter()
      : ConsoleReporter(OO_None),
        table_({"benchmark", "iterations", "real_ns", "ops", "ns_per_op"}) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      auto counter = [&](const char* name, double scale) {
        const auto it = r.counters.find(name);
        return it == r.counters.end() ? std::string()
                                      : compact(it->second.value * scale, 6);
      };
      table_.add_row(
          {r.benchmark_name(), std::to_string(r.iterations),
           compact(r.GetAdjustedRealTime() * 1e9 /
                       benchmark::GetTimeUnitMultiplier(r.time_unit),
                   6),
           counter("ops", 1), counter("ns_per_op", 1e9)});
    }
  }

  const bench::Table& table() const { return table_; }

 private:
  bench::Table table_;
};

}  // namespace

// Expanded BENCHMARK_MAIN(): the shared bench flags (--json, --chrome-trace)
// are peeled off argv before google-benchmark parses the rest, and run
// artifacts, with the runs' table, are written once the benchmarks finish.
int main(int argc, char** argv) {
  const mfbc::bench::BenchArgs args =
      mfbc::bench::extract_bench_args(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TableReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mfbc::bench::maybe_write_artifacts(args, "kernels",
                                     {{"kernels", &reporter.table()}});
  return 0;
}
