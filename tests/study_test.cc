// Tests for the study/sweep harness (src/core/study).

#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/study.h"
#include "core/system.h"

namespace lazyrep::core {
namespace {

SystemConfig TinyConfig(double tps) {
  SystemConfig c;
  c.num_sites = 3;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.tps = tps;
  c.total_txns = 200;
  c.warmup_per_site = 2;
  c.seed = 5;
  c.Normalize();
  return c;
}

TEST(StudyRunnerTest, SweepCoversProtocolCrossProduct) {
  StudyRunner runner("tiny", [](double tps) { return TinyConfig(tps); });
  std::vector<StudyPoint> points = runner.Sweep({30, 60}, /*verbose=*/false);
  ASSERT_EQ(points.size(), 6u);  // 3 protocols x 2 loads
  int per_protocol[3] = {0, 0, 0};
  for (const StudyPoint& p : points) {
    per_protocol[static_cast<int>(p.protocol)]++;
    EXPECT_TRUE(p.x == 30 || p.x == 60);
    EXPECT_GT(p.snap.submitted, 0u);
  }
  for (int n : per_protocol) EXPECT_EQ(n, 2);
}

TEST(StudyRunnerTest, ProtocolFilterRespected) {
  StudyRunner runner("tiny", [](double tps) { return TinyConfig(tps); });
  runner.set_protocols({ProtocolKind::kOptimistic});
  std::vector<StudyPoint> points = runner.Sweep({40}, false);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].protocol, ProtocolKind::kOptimistic);
}

TEST(StudyRunnerTest, HigherLoadCompletesMore) {
  StudyRunner runner("tiny", [](double tps) { return TinyConfig(tps); });
  runner.set_protocols({ProtocolKind::kOptimistic});
  std::vector<StudyPoint> points = runner.Sweep({30, 90}, false);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[1].snap.completed_tps, points[0].snap.completed_tps);
}

TEST(PrintFigureTest, RendersWithoutCrashing) {
  std::vector<StudyPoint> points;
  for (ProtocolKind kind :
       {ProtocolKind::kLocking, ProtocolKind::kOptimistic}) {
    for (double x : {1.0, 2.0}) {
      StudyPoint p;
      p.x = x;
      p.protocol = kind;
      p.snap.completed_tps = x * 10;
      points.push_back(p);
    }
  }
  // Missing-protocol column (pessimistic absent) must render dashes, not
  // crash.
  PrintFigure(points, "Test figure", "x", "y",
              [](const MetricsSnapshot& m) { return m.completed_tps; });
  SUCCEED();
}

BenchOptions ParseArgs(std::vector<std::string> args,
                       std::initializer_list<std::string_view> own = {}) {
  std::vector<char*> argv;
  static char prog[] = "bench";
  argv.push_back(prog);
  for (std::string& a : args) argv.push_back(a.data());
  return BenchOptions::Parse(static_cast<int>(argv.size()), argv.data(), own);
}

TEST(BenchOptionsTest, ParsesEveryNumericFlagWhole) {
  BenchOptions opt =
      ParseArgs({"--txns=500", "--points=2", "--figure=3", "--seed=9",
                 "--jobs=0", "--sites=65534"});
  EXPECT_EQ(opt.txns, 500u);
  EXPECT_EQ(opt.max_points, 2);
  EXPECT_EQ(opt.figure, 3);
  EXPECT_EQ(opt.seed, 9u);
  EXPECT_EQ(opt.jobs, 0);
  EXPECT_EQ(opt.sites, 65534);
}

TEST(BenchOptionsTest, OwnFlagsAreLeftToTheBench) {
  BenchOptions opt = ParseArgs({"--report", "--tmp=/x", "--txns=7"},
                               {"--report", "--tmp="});
  EXPECT_EQ(opt.txns, 7u);
}

TEST(BenchOptionsDeathTest, BadFlagExitsTwoNamingIt) {
  EXPECT_EXIT(ParseArgs({"--points=-1"}), ::testing::ExitedWithCode(2),
              "bad --points=-1");
  EXPECT_EXIT(ParseArgs({"--figure=2x"}), ::testing::ExitedWithCode(2),
              "bad --figure=2x");
  EXPECT_EXIT(ParseArgs({"--seed="}), ::testing::ExitedWithCode(2),
              "bad --seed=");
  EXPECT_EXIT(ParseArgs({"--sites=65535"}), ::testing::ExitedWithCode(2),
              "bad --sites=65535");
  EXPECT_EXIT(ParseArgs({"--bogus=1"}), ::testing::ExitedWithCode(2),
              "unknown flag --bogus=1");
  // A bench's own flag without '=' must match whole.
  EXPECT_EXIT(ParseArgs({"--reporting"}, {"--report"}),
              ::testing::ExitedWithCode(2), "unknown flag --reporting");
}

TEST(BenchOptionsDeathTest, BadEnvironmentValueExitsTwoNamingIt) {
  // The death-test child sets the variable; the parent never sees it.
  EXPECT_EXIT(
      {
        setenv("LAZYREP_TXNS", "abc", 1);
        ParseArgs({});
      },
      ::testing::ExitedWithCode(2), "bad LAZYREP_TXNS=abc");
  EXPECT_EXIT(
      {
        setenv("LAZYREP_JOBS", "zz", 1);
        ParseArgs({});
      },
      ::testing::ExitedWithCode(2), "bad LAZYREP_JOBS=zz");
}

}  // namespace
}  // namespace lazyrep::core
