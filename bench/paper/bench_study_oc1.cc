// Reproduces the OC-1 continental-network study of §4.2 (Figures 8-10, 12):
// as OC-3 but 55 Mb/s bandwidth and 100 ms latency; load swept 200-2400 TPS.
//
// Usage: bench_study_oc1 [--txns=N] [--points=N] [--figure=N] [--quick] [--jobs=N]

#include <cstdio>

#include "bench/paper/figures.h"
#include "core/config.h"
#include "core/study.h"

using namespace lazyrep;
using namespace lazyrep::bench;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  core::StudyRunner runner("OC-1", [&](double tps) {
    core::SystemConfig c = core::SystemConfig::Oc1();
    c.tps = tps;
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    opt.Apply(&c);
    return c;
  });
  runner.set_protocols(opt.protocols);
  runner.set_jobs(opt.jobs);
  if (!opt.trace.empty()) runner.set_trace_path(opt.trace);

  std::vector<double> tps = {200, 600, 1000, 1400, 1600, 2000, 2400};
  std::printf("OC-1 study (Table 1, §4.2) — %llu transactions per point\n",
              (unsigned long long)opt.txns);
  std::vector<core::StudyPoint> points = runner.Sweep(opt.Thin(tps));

  std::vector<FigureSpec> figures = {
      {8, "Number of completed transactions, OC-1 study", "TPS",
       "completed transactions per second", CompletedTps()},
      {9, "Response time for read-only transactions, OC-1 study", "TPS",
       "read-only start to commit time (seconds)", ReadOnlyResponse()},
      {10, "Response time for update transactions, OC-1 study", "TPS",
       "update start to commit time (seconds)", UpdateResponse()},
      {12, "Graph site CPU utilization, OC-1 study", "TPS",
       "replication graph CPU utilization", GraphCpu(),
       {core::ProtocolKind::kPessimistic, core::ProtocolKind::kOptimistic}},
  };
  PrintFigures(points, figures, opt.figure);
  if (opt.figure == 0) PrintUtilizationAppendix(points);
  return core::EmptyWindowStatus(points);
}
