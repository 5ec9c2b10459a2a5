// Determinism regression tests (satellite of the fault-injection PR): the
// simulation is a pure function of (config, seed) — with fault injection
// both OFF and ON. Runs the same seed twice and requires bit-identical
// snapshots, including the full rendered metrics block, and additionally
// requires that all-zero fault knobs reproduce the exact fault-free run
// (the zero-knob gating guarantee).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/metrics.h"
#include "core/study.h"
#include "core/system.h"

namespace lazyrep::core {
namespace {

SystemConfig BaseConfig(uint64_t seed) {
  SystemConfig c;
  c.num_sites = 4;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.tps = 60;
  c.total_txns = 300;
  c.warmup_per_site = 2;
  c.seed = seed;
  c.Normalize();
  return c;
}

// Runs the config and returns the full human-readable metrics block — a
// rendering of every headline counter and timing aggregate, so string
// equality is a strong identity check.
std::string RunToString(const SystemConfig& c, ProtocolKind kind) {
  System system(c, kind);
  MetricsSnapshot m = system.Run();
  return m.ToString();
}

class Determinism : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(Determinism, FaultFreeRunsAreIdentical) {
  SystemConfig c = BaseConfig(909);
  EXPECT_EQ(RunToString(c, GetParam()), RunToString(c, GetParam()));
}

TEST_P(Determinism, FaultyRunsAreIdentical) {
  SystemConfig c = BaseConfig(909);
  c.fault.loss_prob = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.site_mtbf = 4.0;
  c.fault.site_mttr = 0.5;
  std::string first = RunToString(c, GetParam());
  std::string second = RunToString(c, GetParam());
  EXPECT_EQ(first, second);
  // The faults actually fired (otherwise this test proves nothing).
  EXPECT_NE(first.find("faults:"), std::string::npos) << first;
}

TEST_P(Determinism, ScriptedCrashRunsAreIdentical) {
  SystemConfig c = BaseConfig(909);
  c.fault.crashes.push_back({/*endpoint=*/1, /*at=*/1.0, /*duration=*/0.5});
  EXPECT_EQ(RunToString(c, GetParam()), RunToString(c, GetParam()));
}

TEST_P(Determinism, ZeroFaultKnobsReproduceTheFaultFreeRun) {
  // All-default fault knobs must leave the run bit-identical to a config
  // that never heard of fault injection: no injector, no extra RNG draws,
  // no metrics lines.
  SystemConfig plain = BaseConfig(4242);
  SystemConfig zeroed = BaseConfig(4242);
  zeroed.fault = fault::FaultParams{};  // explicit, all defaults
  ASSERT_FALSE(zeroed.fault.enabled());
  std::string a = RunToString(plain, GetParam());
  std::string b = RunToString(zeroed, GetParam());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("faults:"), std::string::npos) << a;
}

/// FNV-1a 64 over a byte string — the golden-fingerprint hash.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TraceDeterminism, GoldenTraceFingerprint) {
  // Byte-identity regression for the --trace capture itself: a small
  // OC-3-flavored sweep (all four protocols, two loads) must produce this
  // exact trace file, down to the last record. Any change to event emission
  // order, record layout, or the shard merge shows up here. If a deliberate
  // semantic change invalidates the constant, regenerate it with this test's
  // own failure output (it prints the new fingerprint).
  std::vector<core::RunSpec> specs;
  for (ProtocolKind k :
       {ProtocolKind::kLocking, ProtocolKind::kPessimistic,
        ProtocolKind::kOptimistic, ProtocolKind::kEager}) {
    for (double tps : {40.0, 90.0}) {
      SystemConfig c;
      c.num_sites = 4;
      c.workload.items_per_site = 12;
      c.tps = tps;
      c.total_txns = 300;
      c.warmup_per_site = 2;
      c.seed = DerivePointSeed("trace-golden", k, tps, 17);
      c.Normalize();
      core::RunSpec spec{c, k};
      spec.x = tps;
      specs.push_back(spec);
    }
  }
  std::string path = ::testing::TempDir() + "determinism_golden.trace";
  core::RunAll(specs, /*jobs=*/2, /*check_serializability=*/true, {},
               /*post_run_audit=*/false, path);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  ASSERT_GT(bytes.size(), 0u);

  char got[32];
  std::snprintf(got, sizeof(got), "%016llx",
                (unsigned long long)Fnv1a(bytes));
  // Regenerated for format v2: every kSubmit is now followed by its
  // kSubmitOp access-set records (the replayable workload script).
  EXPECT_STREQ(got, "719e7347bb1e3344");
  std::remove(path.c_str());
}

// Kernel accounting golden: the number of events each fixed run takes
// through the executive, drain included. The constants were measured at
// commit cb0acd7 as events_fired(), when every resume went through the
// queue; since same-instant continuations may skip the queue, the same
// total is events_fired() + continuations_inlined(). A change in it means
// the schedule itself changed.
// One star OC-3-flavoured run per protocol, plus one 3-DC geo run with
// loss, duplication, amnesia crashes and a dc0 partition, so the freeze,
// drain and crash-recovery paths all count.
uint64_t KernelEvents(const SystemConfig& c, ProtocolKind kind,
                      MetricsSnapshot* snap) {
  System system(c, kind);
  *snap = system.Run();
  return system.sim().events_fired() + system.sim().continuations_inlined();
}

SystemConfig AccountingOc3(uint64_t seed) {
  SystemConfig c = SystemConfig::Oc3();
  c.num_sites = 20;
  c.tps = 400;
  c.total_txns = 600;
  c.seed = seed;
  c.Normalize();
  return c;
}

SystemConfig AccountingGeo(uint64_t seed) {
  SystemConfig c;
  c.num_sites = 24;
  c.workload.items_per_site = 20;
  c.tps = 300;
  c.total_txns = 900;
  c.topology.kind = net::TopologySpec::Kind::kGeo;
  c.topology.datacenters = 3;
  c.topology.metros_per_dc = 2;
  c.topology.backbone_latency = 0.03;
  c.fault.loss_prob = 0.01;
  c.fault.dup_prob = 0.005;
  c.fault.site_mtbf = 10;
  c.fault.site_mttr = 1;
  c.fault.amnesia = true;
  fault::ScheduledPartition part;
  part.groups = {"dc0"};
  part.at = 1.0;
  part.duration = 1.0;
  c.fault.partitions.push_back(std::move(part));
  c.seed = seed;
  c.Normalize();
  return c;
}

TEST(KernelAccounting, StarRunsTakeTheGoldenEventCount) {
  const std::pair<ProtocolKind, uint64_t> kGolden[] = {
      {ProtocolKind::kLocking, 235048},
      {ProtocolKind::kPessimistic, 160075},
      {ProtocolKind::kOptimistic, 63243},
      {ProtocolKind::kEager, 183290},
  };
  for (const auto& [kind, golden] : kGolden) {
    MetricsSnapshot snap;
    EXPECT_EQ(KernelEvents(AccountingOc3(31), kind, &snap), golden)
        << ProtocolKindName(kind);
    EXPECT_GT(snap.completed, 0u) << ProtocolKindName(kind);
  }
}

TEST(KernelAccounting, GeoFaultRunsTakeTheGoldenEventCount) {
  const std::pair<ProtocolKind, uint64_t> kGolden[] = {
      {ProtocolKind::kLocking, 1407485},
      {ProtocolKind::kEager, 1050466},
  };
  for (const auto& [kind, golden] : kGolden) {
    MetricsSnapshot snap;
    EXPECT_EQ(KernelEvents(AccountingGeo(37), kind, &snap), golden)
        << ProtocolKindName(kind);
    // Every fault path the count is meant to cover actually ran.
    EXPECT_GT(snap.faults_injected_loss, 0u) << ProtocolKindName(kind);
    EXPECT_GT(snap.faults_injected_dup, 0u) << ProtocolKindName(kind);
    EXPECT_GT(snap.site_recoveries, 0u) << ProtocolKindName(kind);
    EXPECT_GT(snap.faults_injected_partition, 0u) << ProtocolKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, Determinism,
                         ::testing::Values(ProtocolKind::kLocking,
                                           ProtocolKind::kPessimistic,
                                           ProtocolKind::kOptimistic,
                                           ProtocolKind::kEager),
                         [](const auto& info) {
                           return std::string(
                               ProtocolKindName(info.param));
                         });

}  // namespace
}  // namespace lazyrep::core
