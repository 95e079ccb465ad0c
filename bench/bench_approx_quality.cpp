// Approximation-quality sweep: pivot-sampled BC versus exact, as a function
// of the pivot count. Not a paper artifact per se — the paper's batches are
// exact-BC building blocks — but the standard large-graph practice both
// CombBLAS and MFBC target is pivot approximation [4], and this quantifies
// the cost/quality frontier the batch machinery offers: K pivots cost K/n
// of the exact sweep. Both tables run the one uniform-source sampler
// (mfbc/adaptive.hpp) on the distributed engine: the pivot rows with a fixed
// budget of K sources and no stop rule (eps = 0), the adaptive rows with
// their (eps, delta) stop rule.
#include <cmath>
#include <cstdio>
#include <string>

#include "baseline/brandes.hpp"
#include "benchsupport/harness.hpp"
#include "benchsupport/table.hpp"
#include "graph/generators.hpp"
#include "graph/prep.hpp"
#include "mfbc/adaptive.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "mfbc/ranking.hpp"
#include "support/strutil.hpp"

int main(int argc, char** argv) {
  using namespace mfbc;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool small = args.small;

  graph::RmatParams params;
  params.scale = small ? 9 : 11;
  params.edge_factor = 10;
  graph::Graph g = graph::random_relabel(
      graph::remove_isolated(graph::rmat(params, 404)), 9);
  std::fprintf(stderr, "[approx] graph n=%lld m=%lld\n",
               static_cast<long long>(g.n()), static_cast<long long>(g.m()));

  const auto exact = baseline::brandes(g);

  auto pearson = [&](const std::vector<double>& a,
                     const std::vector<double>& b) {
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    const auto n = static_cast<double>(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      sx += a[i];
      sy += b[i];
      sxx += a[i] * a[i];
      syy += b[i] * b[i];
      sxy += a[i] * b[i];
    }
    return (n * sxy - sx * sy) /
           std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  };

  // One sampled run on a 4-rank DistMfbc: a budget of 0 means up to n
  // sources. λ is scaled by n/k to exact-λ units.
  constexpr double kDelta = 0.2;
  auto sample = [&](double eps, graph::vid_t budget) {
    sim::Sim sim(4, sim::MachineModel::blue_waters());
    core::DistMfbc engine(sim, g);
    core::AdaptiveSamplerOptions aopts;
    aopts.eps = eps;
    aopts.delta = kDelta;
    aopts.seed = 2027;
    aopts.batch_size = 64;
    aopts.max_samples = budget;
    return core::run_adaptive_bc(
        g.n(), aopts,
        [&](const std::vector<graph::vid_t>& srcs,
            const core::BatchRunOptions::BatchObserver& ob, bool resume) {
          core::DistMfbcOptions opts;
          opts.batch_size = aopts.batch_size;
          opts.sources = srcs;
          opts.on_batch = ob;
          opts.resume = resume;
          return engine.run(opts);
        });
  };

  bench::Table tab({"pivots", "work vs exact", "top-10 overlap",
                    "top-50 overlap", "correlation"});
  for (graph::vid_t k : {16, 32, 64, 128, 256, 512}) {
    if (k > g.n()) break;
    const core::AdaptiveSampleResult r = sample(/*eps=*/0.0, k);
    tab.add_row({std::to_string(k),
                 fixed(100.0 * static_cast<double>(k) /
                           static_cast<double>(g.n()),
                       1) + "%",
                 fixed(100.0 * core::top_k_overlap(r.lambda, exact, 10), 0) + "%",
                 fixed(100.0 * core::top_k_overlap(r.lambda, exact, 50), 0) + "%",
                 fixed(pearson(r.lambda, exact), 4)});
  }
  std::fputs(tab.render("Pivot-sampling quality on an R-MAT graph (n=" +
                        std::to_string(g.n()) + ")")
                 .c_str(),
             stdout);
  std::puts("\nExpected: strong top-k agreement and correlation well before "
            "10% of the\nexact work — the regime where a single MFBC batch "
            "already gives a usable ranking.");

  // Adaptive rows: instead of a fixed pivot budget, the (ε,δ) sampler
  // (docs/approximation.md) runs on the distributed engine and chooses its
  // own sample count — tighter ε buys more samples and narrower bands.
  bench::Table atab({"eps", "delta", "samples", "work vs exact", "stop",
                     "top-10 overlap", "correlation"});
  for (double eps : {0.4, 0.3, 0.2, 0.1}) {
    const core::AdaptiveSampleResult r = sample(eps, /*budget=*/0);
    atab.add_row(
        {fixed(eps, 2), fixed(kDelta, 2), std::to_string(r.samples_used),
         fixed(100.0 * static_cast<double>(r.samples_used) /
                   static_cast<double>(g.n()),
               1) + "%",
         core::adaptive_stop_name(r.stop_reason),
         fixed(100.0 * core::top_k_overlap(r.lambda, exact, 10), 0) + "%",
         fixed(pearson(r.lambda, exact), 4)});
  }
  std::fputs(
      atab.render("Adaptive (eps,delta)-sampling quality on the same graph")
          .c_str(),
      stdout);
  std::puts("\nExpected: the sampler converges well short of the full sweep "
            "at loose eps\nand spends its extra samples on quality as eps "
            "tightens.");
  bench::maybe_write_csv(args, "approx_quality", tab);
  bench::maybe_write_csv(args, "approx_adaptive", atab);
  bench::maybe_write_artifacts(
      args, "approx_quality",
      {{"approx_quality", &tab}, {"approx_adaptive", &atab}});
  return 0;
}
