// Ablation A6 (modeling choice, DESIGN.md): pipelined vs sequential dispatch
// of the per-operation control round trips (global read-lock requests under
// locking; per-operation RGtests under the pessimistic protocol).
//
// Pipelined dispatch issues every operation's control request at transaction
// start and executes operations in order as their grants/verdicts arrive;
// sequential dispatch performs one full round trip per operation. The
// paper's OC-1 response-time ratios (optimistic better by 7.7x/6.1x, §4.2)
// are only attainable with overlapped round trips; this bench quantifies the
// difference.
//
// Usage: bench_ablate_dispatch [--txns=N] [--jobs=N]

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  std::printf("A6: control-dispatch mode, OC-1 at 600 TPS, %llu "
              "transactions per point\n\n",
              (unsigned long long)opt.txns);
  std::printf("%-12s %-12s %12s %16s %16s %10s\n", "protocol", "dispatch",
              "completed", "ro response", "upd response", "aborts");
  std::vector<core::RunSpec> specs;
  std::vector<bool> pipelined_modes;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
        core::ProtocolKind::kOptimistic}) {
    for (bool pipelined : {true, false}) {
      core::SystemConfig c = core::SystemConfig::Oc1();
      c.tps = 600;
      c.total_txns = opt.txns;
      c.seed = opt.seed;
      c.pipelined_dispatch = pipelined;
      specs.push_back({c, kind});
      pipelined_modes.push_back(pipelined);
    }
  }
  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = ms[i];
    std::printf("%-12s %-12s %12.1f %13.3f s %13.3f s %9.2f%%\n",
                core::ProtocolKindName(specs[i].protocol),
                pipelined_modes[i] ? "pipelined" : "sequential",
                m.completed_tps, m.read_only_response.Mean(),
                m.update_response.Mean(), 100 * m.abort_rate);
  }
  std::printf(
      "\nExpected: sequential dispatch multiplies locking/pessimistic\n"
      "response times by roughly the operation count on a 100 ms network\n"
      "(10 x 0.2 s round trips); the optimistic protocol, which has no\n"
      "per-operation control traffic, is unaffected.\n");
  return core::EmptyWindowStatus(specs, ms);
}
