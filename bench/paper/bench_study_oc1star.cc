// Reproduces the OC-1* reduced-sites study of §4.3 (Figures 11, 13, 14):
// 20 sites, 400 items, OC-1 network; the highest-contention scenario of the
// paper. Load swept 100-2400 TPS.
//
// Usage: bench_study_oc1star [--txns=N] [--points=N] [--figure=N] [--quick] [--jobs=N]

#include <cstdio>

#include "bench/paper/figures.h"
#include "core/config.h"
#include "core/study.h"

using namespace lazyrep;
using namespace lazyrep::bench;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  core::StudyRunner runner("OC-1*", [&](double tps) {
    core::SystemConfig c = core::SystemConfig::Oc1Star();
    c.tps = tps;
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    opt.Apply(&c);
    return c;
  });
  runner.set_protocols(opt.protocols);
  runner.set_jobs(opt.jobs);
  if (!opt.trace.empty()) runner.set_trace_path(opt.trace);

  std::vector<double> tps = {100, 200, 400, 800, 1400, 2000, 2400};
  std::printf("OC-1* study (Table 1, §4.3) — %llu transactions per point\n",
              (unsigned long long)opt.txns);
  std::vector<core::StudyPoint> points = runner.Sweep(opt.Thin(tps));

  std::vector<FigureSpec> figures = {
      {11, "Number of completed transactions, OC-1* study", "TPS",
       "completed transactions per second", CompletedTps()},
      {13, "Graph site CPU utilization, OC-1* study", "TPS",
       "replication graph CPU utilization", GraphCpu(),
       {core::ProtocolKind::kPessimistic, core::ProtocolKind::kOptimistic}},
      {14, "Fraction of transactions that were aborted, OC-1* study", "TPS",
       "abort rate", AbortRate()},
  };
  PrintFigures(points, figures, opt.figure);
  if (opt.figure == 0) PrintUtilizationAppendix(points);
  return core::EmptyWindowStatus(points);
}
