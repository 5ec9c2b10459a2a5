// Ablation A3 (§5, future work): partial replication.
//
// "We have restricted our consideration here to the case of full
// replication... For lower degrees of replication, update throughput should
// be significantly higher." Each item is replicated at its primary site and
// the next k-1 sites; reads draw from locally replicated items; update
// propagation fans out only to the replica holders.
//
// Usage: bench_ablate_replication_degree [--txns=N] [--jobs=N]

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  const double kTps = 1200;
  std::printf("A3: replication degree sweep, 20 sites at %.0f TPS, %llu "
              "transactions per point\n\n",
              kTps, (unsigned long long)opt.txns);
  std::printf("%-12s %-8s %12s %10s %16s %14s %12s\n", "protocol", "k",
              "completed", "aborts", "upd commit->cmpl", "net util",
              "graph cpu");
  std::vector<core::RunSpec> specs;
  std::vector<int> degrees;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
        core::ProtocolKind::kOptimistic}) {
    for (int degree : {0, 10, 5, 2}) {  // 0 = full replication (paper)
      core::SystemConfig c = core::SystemConfig::Oc1Star();
      c.tps = kTps;
      c.total_txns = opt.txns;
      c.seed = opt.seed;
      c.replication_degree = degree;
      c.Normalize();
      specs.push_back({c, kind});
      degrees.push_back(degree);
    }
  }
  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = ms[i];
    char k[8];
    std::snprintf(k, sizeof(k), degrees[i] == 0 ? "full" : "%d", degrees[i]);
    std::printf("%-12s %-8s %12.1f %9.2f%% %13.3f s %14.3f %12.3f\n",
                core::ProtocolKindName(specs[i].protocol), k, m.completed_tps,
                100 * m.abort_rate, m.commit_to_complete.Mean(),
                m.mean_network_utilization, m.graph_cpu_utilization);
  }
  std::printf(
      "\nReading (§5): the paper conjectures higher update throughput at\n"
      "lower degrees. Two forces compete here: propagation fan-out shrinks\n"
      "(see net util), but reads are confined to the k*IPS locally held\n"
      "items, concentrating contention as k drops. Which force wins depends\n"
      "on k and the hot-spot size — at small k the read concentration\n"
      "dominates in this workload.\n");
  return core::EmptyWindowStatus(specs, ms);
}
