// Allocation budget of the replica-install path. With half the OC-3
// transactions updating, every update installs at the 99 other sites, and
// each install takes local locks, applies writes and reports conflict edges.
// Those containers draw from the frame pool, so a run stays far below one
// heap allocation per install. This binary counts every operator new during
// System::Run; it has its own executable because the override is global.

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

class AllocBudget : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllocBudget, FewAllocationsPerSubmittedTransaction) {
#ifdef LAZYREP_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds: the frame pool is disabled";
#endif
  // Unpooled lock tables and install scratch cost ~750 allocations per
  // transaction; a cold pool (this test runs alone in its process) needs
  // 33-55.
  constexpr double kBudget = 150;
  SystemConfig c = SystemConfig::Oc3();
  c.workload.read_only_fraction = 0.5;
  c.tps = 400;
  c.total_txns = 600;
  c.warmup_per_site = 0;  // 600 txns is 6 per site: measure them all
  c.seed = 1;
  c.Normalize();
  System system(c, GetParam());

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  MetricsSnapshot m = system.Run();
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  ASSERT_GT(m.completed, 0u) << m.ToString();
  const double per_txn = static_cast<double>(allocs) / c.total_txns;
  EXPECT_LT(per_txn, kBudget) << allocs << " allocations for "
                              << c.total_txns << " transactions";
  RecordProperty("allocs_per_txn", std::to_string(per_txn));
}

INSTANTIATE_TEST_SUITE_P(
    LazyProtocols, AllocBudget,
    ::testing::Values(ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                      ProtocolKind::kOptimistic),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

}  // namespace
}  // namespace lazyrep::core
