// Ablation A8: availability under faults — eager collapse vs lazy
// degradation.
//
// Eager replication needs every replica reachable for every update, so a
// lost message or a crashed site stalls or kills the whole transaction (and
// a crashed coordinator leaves participants blocked in doubt holding X
// locks). The lazy protocols only need the origin site up at commit time and
// absorb the same faults as background retransmission. This bench sweeps
// per-leg loss probability and site MTBF over all four protocols and
// reports, besides the usual robustness counters, the eager blocking-window
// tally (in-doubt time) that the lazy protocols by construction do not have.
//
// One JSON object per line per (protocol, point), for scripted plotting.
//
// Usage: bench_ablate_eager_fault_rate [--txns=N] [--seed=N] [--jobs=N]

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"
#include "txn/transaction.h"

using namespace lazyrep;

namespace {

core::SystemConfig BaseConfig(uint64_t txns, uint64_t seed) {
  core::SystemConfig c = core::SystemConfig::Oc1Star();
  c.tps = 400;
  c.total_txns = txns;
  c.seed = seed;
  return c;
}

void PrintPoint(const char* sweep, double x, const core::MetricsSnapshot& m,
                core::ProtocolKind kind) {
  uint64_t unavailable = m.aborted_by_cause[static_cast<size_t>(
      txn::AbortCause::kUnavailable)];
  std::printf(
      "{\"sweep\":\"%s\",\"x\":%g,\"protocol\":\"%s\","
      "\"completed_tps\":%.3f,\"abort_rate\":%.5f,"
      "\"aborted_unavailable\":%llu,\"retransmissions\":%llu,"
      "\"send_failures\":%llu,\"faults_loss\":%llu,\"site_crashes\":%llu,"
      "\"mean_site_availability\":%.5f,\"min_site_availability\":%.5f,"
      "\"upd_response_mean\":%.6f,\"eager_prepares\":%llu,"
      "\"eager_vote_timeouts\":%llu,\"eager_in_doubt_mean\":%.6f,"
      "\"eager_in_doubt_max\":%.6f}\n",
      sweep, x, core::ProtocolKindName(kind), m.completed_tps, m.abort_rate,
      (unsigned long long)unavailable,
      (unsigned long long)m.retransmissions,
      (unsigned long long)m.msg_send_failures,
      (unsigned long long)m.faults_injected_loss,
      (unsigned long long)m.site_crashes, m.mean_site_availability,
      m.min_site_availability, m.update_response.Mean(),
      (unsigned long long)m.eager_prepares,
      (unsigned long long)m.eager_vote_timeouts, m.eager_in_doubt.Mean(),
      m.eager_in_doubt.Max());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  core::BenchOptions opt = core::BenchOptions::Parse(argc, argv);
  if (!opt.protocols_set) {
    opt.protocols = {core::ProtocolKind::kLocking,
                     core::ProtocolKind::kPessimistic,
                     core::ProtocolKind::kOptimistic,
                     core::ProtocolKind::kEager};
  }

  std::vector<core::RunSpec> specs;
  std::vector<const char*> sweeps;
  std::vector<double> xs;

  // Sweep 1: per-leg message-loss probability, sites always up.
  for (core::ProtocolKind kind : opt.protocols) {
    for (double loss : {0.0, 0.001, 0.01, 0.05, 0.1}) {
      core::SystemConfig c = BaseConfig(opt.txns, opt.seed);
      c.fault.loss_prob = loss;
      specs.push_back({c, kind});
      sweeps.push_back("loss");
      xs.push_back(loss);
    }
  }

  // Sweep 2: site MTBF (exponential crash/recovery, 1 s mean outage),
  // perfect links. Each outage freezes eager updates fleet-wide — every
  // update needs the crashed replica — while lazy updates from healthy
  // origins keep committing.
  for (core::ProtocolKind kind : opt.protocols) {
    for (double mtbf : {0.0, 120.0, 60.0, 30.0, 15.0}) {
      core::SystemConfig c = BaseConfig(opt.txns, opt.seed);
      c.fault.site_mtbf = mtbf;
      c.fault.site_mttr = 1.0;
      specs.push_back({c, kind});
      sweeps.push_back("mtbf");
      xs.push_back(mtbf);
    }
  }

  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    PrintPoint(sweeps[i], xs[i], ms[i], specs[i].protocol);
  }
  return core::EmptyWindowStatus(specs, ms);
}
