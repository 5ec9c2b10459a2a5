// Reproduces the OC-3 metropolitan-area study of §4.1 (Figures 2-7):
// 100 sites, 2000 items, 155 Mb/s / 4 ms ATM, submitted load swept from
// 200 to 2600 TPS.
//
// Usage: bench_study_oc3 [--txns=N] [--points=N] [--figure=N] [--quick]
//                        [--protocols=lpo] [--seed=N] [--jobs=N]
//                        [--sites=N]
//
// --sites overrides the preset's 100-site fleet (items scale with it: 20 per
// site), the fleet-scale entry point: --sites=1024 runs the paper's study at
// an order of magnitude beyond its largest configuration.

#include <cstdio>

#include "bench/paper/figures.h"
#include "core/config.h"
#include "core/study.h"

using namespace lazyrep;
using namespace lazyrep::bench;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  core::StudyRunner runner("OC-3", [&](double tps) {
    core::SystemConfig c = core::SystemConfig::Oc3();
    c.tps = tps;
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    opt.Apply(&c);
    return c;
  });
  runner.set_protocols(opt.protocols);
  runner.set_jobs(opt.jobs);
  if (!opt.trace.empty()) runner.set_trace_path(opt.trace);

  std::vector<double> tps = {200,  600,  1000, 1400, 1800,
                             2200, 2400, 2600};
  std::printf("OC-3 study (Table 1, §4.1) — %d sites, %llu transactions per "
              "point\n",
              opt.sites > 0 ? opt.sites : 100, (unsigned long long)opt.txns);
  std::vector<core::StudyPoint> points = runner.Sweep(opt.Thin(tps));

  std::vector<FigureSpec> figures = {
      {2, "Number of completed transactions, OC-3 study", "TPS",
       "completed transactions per second", CompletedTps()},
      {3, "Graph site CPU utilization, OC-3 study", "TPS",
       "replication graph CPU utilization", GraphCpu(),
       {core::ProtocolKind::kPessimistic, core::ProtocolKind::kOptimistic}},
      {4, "Fraction of transactions that were aborted, OC-3 study", "TPS",
       "abort rate", AbortRate()},
      {5, "Response time for read-only transactions, OC-3 study", "TPS",
       "read-only start to commit time (seconds)", ReadOnlyResponse()},
      {6, "Response time for update transactions, OC-3 study", "TPS",
       "update start to commit time (seconds)", UpdateResponse()},
      {7, "Time from commit to complete for update transactions, OC-3 study",
       "TPS", "commit to complete time (seconds)", CommitToComplete()},
  };
  PrintFigures(points, figures, opt.figure);
  if (opt.figure == 0) PrintUtilizationAppendix(points);
  return core::EmptyWindowStatus(points);
}
