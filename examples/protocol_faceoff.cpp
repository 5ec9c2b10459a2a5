// Protocol face-off: run all three protocols on one configurable scenario
// and print a side-by-side verdict, including the analytic contention
// prediction of the paper's Appendix.
//
// Run: ./build/examples/protocol_faceoff [--sites=N] [--tps=X] [--items=N]
//                                        [--latency=SEC] [--txns=N]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "analysis/contention_model.h"
#include "core/config.h"
#include "core/flag_parse.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::SystemConfig c;
  c.num_sites = 20;
  c.workload.items_per_site = 20;
  c.network.latency = 0.01;
  c.network.bandwidth_bps = 155e6;
  c.tps = 400;
  c.total_txns = 12000;
  // Each flag is parsed whole and range-checked: a bad value exits 2
  // naming it.
  using core::ParseOrDie;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--sites=", 8) == 0) {
      ParseOrDie(a, a + 8, &c.num_sites, 1, core::SystemConfig::kMaxSites);
    } else if (std::strncmp(a, "--tps=", 6) == 0) {
      ParseOrDie(a, a + 6, &c.tps, 0.0, core::kNoMax, core::kAboveZero);
    } else if (std::strncmp(a, "--items=", 8) == 0) {
      ParseOrDie(a, a + 8, &c.workload.items_per_site, 1);
    } else if (std::strncmp(a, "--latency=", 10) == 0) {
      ParseOrDie(a, a + 10, &c.network.latency, 0.0);
    } else if (std::strncmp(a, "--txns=", 7) == 0) {
      ParseOrDie(a, a + 7, &c.total_txns, uint64_t{1},
                 core::SystemConfig::kMaxTxns);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return 2;
    }
  }
  // SystemConfig::total_items() is an int product.
  if (int64_t{c.workload.items_per_site} * c.num_sites >
      std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "--items=%d x --sites=%d is too many items\n",
                 c.workload.items_per_site, c.num_sites);
    return 2;
  }
  c.Normalize();

  std::printf("Face-off: %d sites, %d items, %.0f TPS, %.0f ms latency\n\n",
              c.num_sites, c.total_items(), c.tps, 1e3 * c.network.latency);

  struct Row {
    const char* name;
    core::MetricsSnapshot m;
  };
  Row rows[3];
  int i = 0;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
        core::ProtocolKind::kOptimistic}) {
    core::System system(c, kind);
    rows[i++] = Row{core::ProtocolKindName(kind), system.Run()};
  }

  std::printf("%-22s %14s %14s %14s\n", "", rows[0].name, rows[1].name,
              rows[2].name);
  auto line = [&](const char* label, auto fn, const char* unit) {
    std::printf("%-22s %14.3f %14.3f %14.3f  %s\n", label, fn(rows[0].m),
                fn(rows[1].m), fn(rows[2].m), unit);
  };
  line("completed", [](const core::MetricsSnapshot& m) {
    return m.completed_tps; }, "txn/s");
  line("abort rate", [](const core::MetricsSnapshot& m) {
    return m.abort_rate; }, "");
  line("read-only response", [](const core::MetricsSnapshot& m) {
    return m.read_only_response.Mean(); }, "s");
  line("update response", [](const core::MetricsSnapshot& m) {
    return m.update_response.Mean(); }, "s");
  line("commit->complete", [](const core::MetricsSnapshot& m) {
    return m.commit_to_complete.Mean(); }, "s");
  line("graph CPU", [](const core::MetricsSnapshot& m) {
    return m.graph_cpu_utilization; }, "");
  line("disk util (mean)", [](const core::MetricsSnapshot& m) {
    return m.mean_disk_utilization; }, "");
  line("network util (mean)", [](const core::MetricsSnapshot& m) {
    return m.mean_network_utilization; }, "");

  // The Appendix's analytic expectation for this operating point.
  analysis::ContentionParams p;
  p.p_update = 1.0 - c.workload.read_only_fraction;
  p.p_write = c.workload.write_op_fraction;
  p.num_ops = (c.workload.min_ops + c.workload.max_ops) / 2.0;
  p.update_lifetime = rows[2].m.update_response.Mean();
  p.read_only_lifetime = rows[2].m.read_only_response.Mean();
  std::printf("\nAppendix Theorem 1: E[C] = %.4f conflicts/transaction "
              "(beta=%.4f, TPS/|DB|=%.4f)\n",
              analysis::ExpectedContention(p, c.tps, c.total_items()),
              analysis::ContentionBeta(p), c.tps / c.total_items());

  // A one-line verdict in the paper's spirit.
  int best = 0;
  for (int k = 1; k < 3; ++k) {
    if (rows[k].m.completed_tps > rows[best].m.completed_tps) best = k;
  }
  std::printf("\nVerdict: %s completes the most transactions here.\n",
              rows[best].name);
  return 0;
}
