// Ablation A1 (§4.1.2): sensitivity to the graph-site queue bound.
//
// The paper found that without a bound the pessimistic protocol became
// unstable near saturation, settled on a bound of 300, and reported that
// "overall performance is not highly sensitive to the specific choice of
// bound" while the majority of pessimistic aborts at high load are queue
// rejections. This bench sweeps the bound at a saturating OC-3 load.
//
// Usage: bench_ablate_queue_bound [--txns=N] [--jobs=N]

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  const double kTps = 2400;  // near pessimistic saturation on OC-3
  std::printf("A1: graph-site queue bound sweep, OC-3 at %.0f TPS, %llu "
              "transactions per point\n\n",
              kTps, (unsigned long long)opt.txns);
  std::printf("%-12s %-8s %12s %10s %14s %14s %12s\n", "protocol", "bound",
              "completed", "aborts", "rejections", "wait-timeouts",
              "graph cpu");
  std::vector<core::RunSpec> specs;
  std::vector<size_t> bounds;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kPessimistic, core::ProtocolKind::kOptimistic}) {
    for (size_t bound : {30ul, 100ul, 300ul, 1000ul, 100000ul}) {
      core::SystemConfig c = core::SystemConfig::Oc3();
      c.tps = kTps;
      c.total_txns = opt.txns;
      c.seed = opt.seed;
      c.graph.queue_bound = bound;
      specs.push_back({c, kind});
      bounds.push_back(bound);
    }
  }
  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = ms[i];
    char bound_str[16];
    std::snprintf(bound_str, sizeof(bound_str),
                  bounds[i] >= 100000 ? "inf" : "%zu", bounds[i]);
    std::printf("%-12s %-8s %12.1f %9.2f%% %14llu %14llu %12.3f\n",
                core::ProtocolKindName(specs[i].protocol), bound_str,
                m.completed_tps, 100 * m.abort_rate,
                (unsigned long long)m.graph_rejections,
                (unsigned long long)m.graph_wait_timeouts,
                m.graph_cpu_utilization);
  }
  std::printf(
      "\nExpected: large/infinite bounds let the pessimistic queue grow and\n"
      "waits time out instead (wait-timeouts replace rejections); tiny\n"
      "bounds abort early. Throughput is flat across sane bounds (§4.1.2).\n");
  return core::EmptyWindowStatus(specs, ms);
}
