// Reproduces the §4.4 scale-up *variant*: the database size and the global
// transaction rate stay fixed while the number of sites grows, so each site
// owns a shrinking share (locTPS = TPS/#sites, IPS = |DB|/#sites). The paper
// reports results "similar to the vsN study" and omits the plots; this bench
// regenerates the same series so the claim can be checked.
//
// Usage: bench_study_vsn_fixed [--txns=N] [--points=N] [--quick] [--jobs=N]

#include <cstdio>

#include "bench/paper/figures.h"
#include "core/config.h"
#include "core/study.h"

using namespace lazyrep;
using namespace lazyrep::bench;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  constexpr double kTps = 300;
  constexpr int kTotalItems = 2000;
  core::StudyRunner runner("vsN-fixed", [&](double sites) {
    core::SystemConfig c = core::SystemConfig::VsNFixed(
        static_cast<int>(sites), kTps, kTotalItems);
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    return c;
  });
  runner.set_protocols(opt.protocols);
  runner.set_jobs(opt.jobs);
  if (!opt.trace.empty()) runner.set_trace_path(opt.trace);

  std::vector<double> sites = {4, 10, 20, 40, 60, 80, 100};
  std::printf("vsN fixed-TPS/|DB| variant (§4.4) — TPS=%.0f, |DB|=%d, "
              "%llu transactions per point\n",
              kTps, kTotalItems, (unsigned long long)opt.txns);
  std::vector<core::StudyPoint> points = runner.Sweep(opt.Thin(sites));

  std::vector<FigureSpec> figures = {
      {15, "Completed transactions, fixed-TPS/|DB| scale-up", "#sites",
       "completed transactions per second", CompletedTps()},
      {16, "Abort rate, fixed-TPS/|DB| scale-up", "#sites", "abort rate",
       AbortRate()},
  };
  PrintFigures(points, figures, 0);
  return core::EmptyWindowStatus(points);
}
