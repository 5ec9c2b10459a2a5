// Allocation budget of a whole run. With half the OC-3 transactions
// updating, every update installs at the 99 other sites, and each install
// takes local locks, applies writes and reports conflict edges; on the 3-DC
// geo fleet with faults on, every message also goes through the reliable
// channel, and amnesia crashes reset its flows. Per-transaction state is
// recycled and short-lived containers draw from the frame pool, so a run
// stays far below one heap allocation per install. This binary counts every
// operator new during System::Run; it has its own executable because the
// override is global.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/system.h"
#include "sim/frame_pool.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

// Sanitizer builds keep their own allocator: the pool is off there anyway.
// The replacements stay out of line: inlined into gtest's registration code,
// their malloc and free would trip -Wmismatched-new-delete.
#ifndef LAZYREP_FRAME_POOL_DISABLED
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  std::abort();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace lazyrep::core {
namespace {

/// 600 transactions of OC-3 at 50% updates.
SystemConfig Oc3Writes() {
  SystemConfig c = SystemConfig::Oc3();
  c.workload.read_only_fraction = 0.5;
  c.tps = 400;
  return c;
}

/// 600 transactions on 24 sites in a 3-DC geo tree with message loss and
/// duplication and amnesia crashes.
SystemConfig GeoFaults() {
  SystemConfig c;
  c.num_sites = 24;
  c.workload.items_per_site = 20;
  c.tps = 300;
  c.topology.kind = net::TopologySpec::Kind::kGeo;
  c.topology.datacenters = 3;
  c.topology.metros_per_dc = 2;
  c.topology.backbone_latency = 0.03;
  c.fault.loss_prob = 0.01;
  c.fault.dup_prob = 0.005;
  c.fault.site_mtbf = 5;
  c.fault.site_mttr = 0.5;
  c.fault.amnesia = true;
  return c;
}

/// Runs 600 transactions of `c` under `protocol` and checks the allocations
/// per transaction against the budget.
void ExpectUnderBudget(SystemConfig c, ProtocolKind protocol) {
  // A cold process (ctest runs each case alone in one) fills its lock
  // tables, frame pool and recycled protocol state during these 600
  // transactions: 14-56 allocations per transaction, most of them that
  // warm-up. Unpooled lock tables and install scratch cost ~750.
  constexpr double kBudget = 60;
  c.total_txns = 600;
  c.warmup_per_site = 0;  // a few per site: measure them all
  c.seed = 1;
  c.Normalize();
  System system(c, protocol);

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  MetricsSnapshot m = system.Run();
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  ASSERT_GT(m.completed, 0u) << m.ToString();
  if (c.fault.enabled()) {
    // The faults fired: the channel retransmitted and sites crashed.
    EXPECT_GT(m.retransmissions, 0u) << m.ToString();
    EXPECT_GT(m.site_crashes, 0u) << m.ToString();
  }
  const double per_txn = static_cast<double>(allocs) / c.total_txns;
  EXPECT_LT(per_txn, kBudget) << allocs << " allocations for "
                              << c.total_txns << " transactions";
  ::testing::Test::RecordProperty("allocs_per_txn", std::to_string(per_txn));
}

std::string ProtocolName(const ::testing::TestParamInfo<ProtocolKind>& info) {
  return ProtocolKindName(info.param);
}

class AllocBudget : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllocBudget, FewAllocationsPerSubmittedTransaction) {
#ifdef LAZYREP_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds: the frame pool is disabled";
#endif
  ExpectUnderBudget(Oc3Writes(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(LazyProtocols, AllocBudget,
                         ::testing::Values(ProtocolKind::kLocking,
                                           ProtocolKind::kPessimistic,
                                           ProtocolKind::kOptimistic),
                         ProtocolName);
INSTANTIATE_TEST_SUITE_P(EagerProtocol, AllocBudget,
                         ::testing::Values(ProtocolKind::kEager),
                         ProtocolName);

class GeoFaultsAllocBudget : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(GeoFaultsAllocBudget, FewAllocationsPerSubmittedTransaction) {
#ifdef LAZYREP_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds: the frame pool is disabled";
#endif
  ExpectUnderBudget(GeoFaults(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, GeoFaultsAllocBudget,
                         ::testing::Values(ProtocolKind::kLocking,
                                           ProtocolKind::kPessimistic,
                                           ProtocolKind::kOptimistic,
                                           ProtocolKind::kEager),
                         ProtocolName);

}  // namespace
}  // namespace lazyrep::core
