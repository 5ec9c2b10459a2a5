// Memory regression at fleet scale: full replication puts every item at
// every site, so per-site replica and routing state is multiplied by the
// fleet. A 1024-site OC-3 system (20,480 items at each site) must build and
// run within a fixed peak-RSS budget. This test has its own binary so no
// other test's allocations move the process's high-water mark.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/system.h"
#include "sim/frame_pool.h"

namespace lazyrep::core {
namespace {

/// Peak resident set of this process in MB, from VmHWM.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb / 1024.0;
}

TEST(FleetMemory, Oc3At1024SitesFitsTheBudget) {
#ifdef LAZYREP_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds: shadow memory makes RSS meaningless";
#endif
  // Compact replica state costs about 20 B per item per site (420 MB here);
  // a 40-byte replica record alone would be 800 MB.
  constexpr double kBudgetMb = 600;
  const double before = PeakRssMb();
  if (before < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";

  SystemConfig c = SystemConfig::Oc3();
  c.num_sites = 1024;
  c.total_txns = 500;
  c.warmup_per_site = 0;  // 500 txns is under one per site: measure them all
  c.seed = 1;
  System system(c, ProtocolKind::kPessimistic);
  MetricsSnapshot m = system.Run();
  const double growth = PeakRssMb() - before;

  EXPECT_GT(m.completed, 0u) << m.ToString();
  EXPECT_EQ(system.LiveTxns(), 0u) << m.ToString();
  std::string why;
  EXPECT_TRUE(system.ReplicasConverged(&why)) << why;
  EXPECT_LT(growth, kBudgetMb);
  RecordProperty("vmhwm_growth_mb", std::to_string(growth));
}

}  // namespace
}  // namespace lazyrep::core
