// Ablation A4 (§4.3, future work): a read-only gatekeeper that "bounds the
// number of read-only transactions submitted", directing a greater share of
// the aborts away from update transactions — motivated by stock-trading
// workloads where prices must post promptly regardless of contention.
//
// Usage: bench_ablate_gatekeeper [--txns=N] [--jobs=N]

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  const double kTps = 1400;
  std::printf("A4: read-only gatekeeper sweep, OC-1* at %.0f TPS, %llu "
              "transactions per point\n\n",
              kTps, (unsigned long long)opt.txns);
  std::printf("%-12s %-8s %10s %12s %12s %14s %16s\n", "protocol", "gate",
              "completed", "upd aborts", "ro aborts", "upd response",
              "ro response");
  std::vector<core::RunSpec> specs;
  std::vector<int> gates;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kPessimistic, core::ProtocolKind::kOptimistic}) {
    for (int gate : {0, 16, 8, 4}) {  // 0 = no gatekeeper (paper baseline)
      core::SystemConfig c = core::SystemConfig::Oc1Star();
      c.tps = kTps;
      c.total_txns = opt.txns;
      c.seed = opt.seed;
      c.read_gatekeeper = gate;
      specs.push_back({c, kind});
      gates.push_back(gate);
    }
  }
  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = ms[i];
    char g[8];
    std::snprintf(g, sizeof(g), gates[i] == 0 ? "off" : "%d", gates[i]);
    double upd = m.submitted_update
                     ? 100.0 * m.aborted_update / m.submitted_update
                     : 0;
    double ro = m.submitted_read_only
                    ? 100.0 * m.aborted_read_only / m.submitted_read_only
                    : 0;
    std::printf("%-12s %-8s %10.1f %11.2f%% %11.2f%% %11.3f s %13.3f s\n",
                core::ProtocolKindName(specs[i].protocol), g, m.completed_tps,
                upd, ro, m.update_response.Mean(),
                m.read_only_response.Mean());
  }
  std::printf(
      "\nExpected (§4.3): tightening the gate lowers the update abort share\n"
      "(updates see less read contention) at the cost of queued read-only\n"
      "response time.\n");
  return core::EmptyWindowStatus(specs, ms);
}
