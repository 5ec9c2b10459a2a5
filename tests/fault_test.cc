// Unit tests for the fault-injection subsystem: parameter validation,
// deterministic injector draws, crash/recovery windows, scheduled
// partitions, the Network faulty-delivery hook, and the reliable
// channel's retry/backoff/dedup behaviour across endpoint crashes.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "fault/reliable_channel.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::fault {
namespace {

using db::SiteId;
using sim::Process;
using sim::Simulation;

TEST(FaultParamsTest, DefaultsValidateAndDisableEverything) {
  FaultParams p;
  std::string err;
  EXPECT_TRUE(p.Validate(&err)) << err;
  EXPECT_FALSE(p.enabled());
}

TEST(FaultParamsTest, MtbfWithoutMttrIsRejected) {
  FaultParams p;
  p.site_mtbf = 5.0;
  p.site_mttr = 0;  // the rotation would draw recovery times from Exp(0)
  std::string err;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("site_mttr"), std::string::npos) << err;
}

TEST(FaultParamsTest, OverlappingCrashWindowsOnOneEndpointAreRejected) {
  FaultParams p;
  p.crashes.push_back({/*endpoint=*/1, /*at=*/1.0, /*duration=*/1.0});
  p.crashes.push_back({/*endpoint=*/1, /*at=*/1.5, /*duration=*/1.0});
  std::string err;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
  // The same windows on different endpoints are fine.
  p.crashes[1].endpoint = 2;
  EXPECT_TRUE(p.Validate(&err)) << err;
  // Back-to-back windows on one endpoint (touching, not overlapping) too.
  p.crashes[1] = {/*endpoint=*/1, /*at=*/2.0, /*duration=*/0.5};
  EXPECT_TRUE(p.Validate(&err)) << err;
}

TEST(FaultParamsTest, MalformedPartitionAndRetryPolicyAreRejected) {
  FaultParams p;
  p.partitions.push_back(
      {/*group=*/{}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  std::string err;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("empty group"), std::string::npos) << err;
  p.partitions.clear();

  p.rto_max = p.rto_initial / 2;  // cap below the initial timeout
  EXPECT_FALSE(p.Validate(&err));
  p = FaultParams{};

  p.amnesia = true;
  p.checkpoint_interval = 0;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("checkpoint_interval"), std::string::npos) << err;
}

TEST(FaultInjectorTest, SameSeedSameDrawSequence) {
  Simulation sim_a, sim_b;
  FaultParams p;
  p.loss_prob = 0.3;
  p.dup_prob = 0.2;
  FaultInjector a(&sim_a, 4, p, 42);
  FaultInjector b(&sim_b, 4, p, 42);
  for (int i = 0; i < 500; ++i) {
    SiteId src = static_cast<SiteId>(i % 4);
    SiteId dst = static_cast<SiteId>((i + 1) % 4);
    EXPECT_EQ(a.OnDelivery(src, dst), b.OnDelivery(src, dst)) << i;
  }
  EXPECT_EQ(a.messages_dropped(), b.messages_dropped());
  EXPECT_EQ(a.messages_duplicated(), b.messages_duplicated());
  EXPECT_GT(a.messages_dropped(), 0u);
  EXPECT_GT(a.messages_duplicated(), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  Simulation sim_a, sim_b;
  FaultParams p;
  p.loss_prob = 0.5;
  FaultInjector a(&sim_a, 2, p, 1);
  FaultInjector b(&sim_b, 2, p, 2);
  int diff = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.OnDelivery(0, 1) != b.OnDelivery(0, 1)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(FaultInjectorTest, DownEndpointDropsBothDirections) {
  Simulation sim;
  FaultParams p;
  FaultInjector inj(&sim, 3, p, 7);
  inj.Crash(1);
  EXPECT_FALSE(inj.IsUp(1));
  EXPECT_EQ(inj.OnDelivery(0, 1), 0);  // into the crashed endpoint
  EXPECT_EQ(inj.OnDelivery(1, 0), 0);  // out of the crashed endpoint
  EXPECT_EQ(inj.OnDelivery(0, 2), 1);  // unaffected pair
  inj.Recover(1);
  EXPECT_TRUE(inj.IsUp(1));
  EXPECT_EQ(inj.OnDelivery(0, 1), 1);
}

TEST(FaultInjectorTest, ScheduledCrashWindowAndDowntime) {
  Simulation sim;
  FaultParams p;
  p.crashes.push_back({/*endpoint=*/0, /*at=*/1.0, /*duration=*/0.5});
  FaultInjector inj(&sim, 2, p, 7);
  bool up_before = false, up_during = true, up_after = false;
  double downtime_during = -1;
  sim.ScheduleCallbackAt(0.9, [&] { up_before = inj.IsUp(0); });
  sim.ScheduleCallbackAt(1.2, [&] {
    up_during = inj.IsUp(0);
    downtime_during = inj.Downtime(0);
  });
  sim.ScheduleCallbackAt(2.0, [&] { up_after = inj.IsUp(0); });
  inj.Start();
  sim.Run();
  EXPECT_TRUE(up_before);
  EXPECT_FALSE(up_during);
  EXPECT_NEAR(downtime_during, 0.2, 1e-12);  // open window counts
  EXPECT_TRUE(up_after);
  EXPECT_NEAR(inj.Downtime(0), 0.5, 1e-12);
  EXPECT_EQ(inj.crashes(), 1u);
}

TEST(FaultInjectorTest, MtbfRotationCrashesAndRecovers) {
  Simulation sim;
  FaultParams p;
  p.site_mtbf = 0.5;
  p.site_mttr = 0.1;
  FaultInjector inj(&sim, 3, p, 11);  // endpoint 2 is the "graph site"
  inj.Start();
  sim.Run(20.0);
  EXPECT_GT(inj.crashes(), 0u);
  EXPECT_GT(inj.Downtime(0) + inj.Downtime(1), 0.0);
  // crash_graph_site defaults off: the last endpoint never crashes.
  EXPECT_NEAR(inj.Downtime(2), 0.0, 1e-12);
  inj.Stop();
  EXPECT_TRUE(inj.IsUp(0));
  EXPECT_TRUE(inj.IsUp(1));
  // After Stop, everything delivers (drain mode) and time can pass with no
  // further transitions.
  EXPECT_EQ(inj.OnDelivery(0, 1), 1);
  double downtime = inj.Downtime(0);
  sim.Run(40.0);
  EXPECT_EQ(inj.Downtime(0), downtime);
}

TEST(FaultParamsTest, TopologyValidationChecksGroupNamesAndRanges) {
  net::TopologySpec spec;
  spec.kind = net::TopologySpec::Kind::kGeo;
  spec.datacenters = 2;
  spec.metros_per_dc = 1;
  net::Topology topo = net::BuildTopology(spec, 6, net::NetworkParams{});

  FaultParams p;
  std::string err;
  p.partitions.push_back(
      {/*group=*/{}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  p.partitions.back().groups = {"dc0"};
  EXPECT_TRUE(p.Validate(topo, &err)) << err;

  // Unknown group names are hard errors.
  p.partitions.back().groups = {"dc7"};
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("unknown topology group"), std::string::npos) << err;

  // Overlapping halves: dc0 and its own metro claim the same endpoints.
  p.partitions.back().groups = {"dc0", "dc0.m0"};
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("overlapping halves"), std::string::npos) << err;

  // Mixing the endpoint-list and named-group spellings is rejected.
  p.partitions.back().groups = {"dc0"};
  p.partitions.back().group = {0};
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("one spelling"), std::string::npos) << err;

  // Endpoint ranges for legacy partitions and crashes come from the
  // topology (6 sites -> endpoints 0..5).
  p.partitions.clear();
  p.partitions.push_back(
      {/*group=*/{0, 6}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("outside topology"), std::string::npos) << err;
  p.partitions.clear();
  p.crashes.push_back({/*endpoint=*/6, /*at=*/1.0, /*duration=*/1.0});
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("outside topology"), std::string::npos) << err;
}

TEST(FaultInjectorTest, NamedGroupPartitionIsolatesSubtree) {
  Simulation sim;
  net::TopologySpec spec;
  spec.kind = net::TopologySpec::Kind::kGeo;
  spec.datacenters = 2;
  spec.metros_per_dc = 1;
  net::Topology topo = net::BuildTopology(spec, 4, net::NetworkParams{});
  FaultParams p;
  p.partitions.push_back(
      {/*group=*/{}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  p.partitions.back().groups = {"dc0"};  // endpoints {0, 1} vs {2, 3}
  FaultInjector inj(&sim, 4, p, 7, &topo);
  inj.Start();
  int in_island = -1, cross_out = -1, cross_in = -1, other_island = -1;
  sim.ScheduleCallbackAt(1.5, [&] {
    in_island = inj.OnDelivery(0, 1);
    cross_out = inj.OnDelivery(0, 2);
    cross_in = inj.OnDelivery(3, 1);
    other_island = inj.OnDelivery(2, 3);
  });
  int healed = -1;
  sim.ScheduleCallbackAt(2.5, [&] { healed = inj.OnDelivery(0, 2); });
  sim.Run();
  EXPECT_EQ(in_island, 1);
  EXPECT_EQ(cross_out, 0);
  EXPECT_EQ(cross_in, 0);
  EXPECT_EQ(other_island, 1);
  EXPECT_EQ(healed, 1);
}

TEST(FaultInjectorTest, PartitionDropsOnlyCrossGroupLegs) {
  Simulation sim;
  FaultParams p;
  p.partitions.push_back(
      {/*group=*/{0, 1}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  FaultInjector inj(&sim, 4, p, 7);
  int in_group = -1, cross_out = -1, cross_in = -1, outsiders = -1;
  sim.ScheduleCallbackAt(0.5, [&] { EXPECT_EQ(inj.OnDelivery(0, 2), 1); });
  sim.ScheduleCallbackAt(1.5, [&] {
    in_group = inj.OnDelivery(0, 1);
    cross_out = inj.OnDelivery(0, 2);
    cross_in = inj.OnDelivery(3, 1);
    outsiders = inj.OnDelivery(2, 3);
  });
  sim.ScheduleCallbackAt(2.5, [&] { EXPECT_EQ(inj.OnDelivery(0, 2), 1); });
  inj.Start();
  sim.Run();
  // Members talk among themselves, outsiders among themselves; every leg
  // crossing the boundary is dropped at the switch. Endpoints stay up.
  EXPECT_EQ(in_group, 1);
  EXPECT_EQ(cross_out, 0);
  EXPECT_EQ(cross_in, 0);
  EXPECT_EQ(outsiders, 1);
  EXPECT_EQ(inj.partition_drops(), 2u);
  EXPECT_EQ(inj.partitions_activated(), 1u);
  EXPECT_EQ(inj.crashes(), 0u);
  EXPECT_TRUE(inj.IsUp(0));
}

TEST(FaultInjectorTest, StopCancelsRotationRestartedByScriptedOutage) {
  // Regression: a scripted outage on an endpoint that is also in the MTBF
  // rotation restarts the rotation via FinishRecovery while the rotation's
  // original draw is still scheduled. The superseded event must be
  // cancelled, not orphaned — an orphan survives Stop() and fires a crash
  // into the post-measurement drain, permanently downing the endpoint.
  Simulation sim;
  FaultParams p;
  p.site_mtbf = 50.0;  // first rotation draw lands far in the future
  p.site_mttr = 0.1;
  p.crashes.push_back({/*endpoint=*/0, /*at=*/0.5, /*duration=*/0.2});
  FaultInjector inj(&sim, 2, p, 3);
  // Mimic the System's amnesia recovery flow: Recover() parks the endpoint
  // in the recovering state and the replay completes one callback later.
  inj.set_recovery_hook([&](int e) {
    sim.ScheduleCallbackAt(sim.Now(), [&inj, e] { inj.FinishRecovery(e); });
  });
  inj.Start();
  sim.Run(2.0);  // scripted window done; rotation restarted by the recovery
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_TRUE(inj.IsUp(0));
  inj.Stop();
  sim.Run(500.0);  // several rotation means past Stop: nothing may fire
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_TRUE(inj.IsUp(0));
  EXPECT_FALSE(inj.Recovering(0));
}

Process DoTransfer(Simulation* sim, net::Network* net, SiteId src,
                   SiteId dst, size_t bytes, bool* arrived, double* done_at) {
  *arrived = co_await net->Transfer(src, dst, bytes);
  *done_at = sim->Now();
}

TEST(NetworkFaultHookTest, DroppedTransferReturnsFalse) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.1, 1e6});
  net.set_fault_hook([](SiteId, SiteId) { return 0; });
  bool arrived = true;
  double done = -1;
  sim.Spawn(DoTransfer(&sim, &net, 0, 1, 12500, &arrived, &done));
  sim.Run();
  EXPECT_FALSE(arrived);
  // Loss happens at the switch: send tx (0.1) + latency (0.1), no receive.
  EXPECT_NEAR(done, 0.2, 1e-12);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST(NetworkFaultHookTest, DuplicateOccupiesIncomingLinkTwice) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e6});
  net.set_fault_hook([](SiteId, SiteId) { return 2; });
  bool arrived = false;
  double done = -1;
  sim.Spawn(DoTransfer(&sim, &net, 0, 1, 12500, &arrived, &done));
  sim.Run();
  EXPECT_TRUE(arrived);
  // send 0.1 + two receive transmissions of 0.1 each.
  EXPECT_NEAR(done, 0.3, 1e-12);
  EXPECT_EQ(net.copies_duplicated(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);  // payload counted once
}

Process DoSend(Simulation* sim, ReliableChannel* ch, SiteId src, SiteId dst,
               size_t bytes, int retries, bool* ok, double* done_at) {
  *ok = co_await ch->Send(src, dst, bytes, retries);
  *done_at = sim->Now();
}

FaultParams ChannelParams() {
  FaultParams p;
  p.rto_initial = 0.05;
  p.rto_backoff = 2.0;
  p.rto_max = 1.0;
  return p;
}

TEST(ReliableChannelTest, RetransmitsUntilDeliveredWithBackoff) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int drops_left = 2;  // first two payload legs into site 1 are lost
  net.set_fault_hook([&](SiteId, SiteId dst) {
    if (dst == 1 && drops_left > 0) {
      --drops_left;
      return 0;
    }
    return 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch.retransmissions(), 2u);
  EXPECT_EQ(ch.delivered(), 1u);
  // Two timer expiries before success: 0.05 + 0.10 (exponential backoff).
  EXPECT_GE(done, 0.15);
  EXPECT_LT(done, 0.2);
}

TEST(ReliableChannelTest, CappedRetriesGiveUp) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  net.set_fault_hook([](SiteId, SiteId) { return 0; });  // black hole
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok = true;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, /*retries=*/3, &ok, &done));
  sim.Run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(ch.send_failures(), 1u);
  EXPECT_EQ(ch.retransmissions(), 3u);
  EXPECT_EQ(ch.delivered(), 0u);
}

TEST(ReliableChannelTest, RtoCapBoundsExponentialBackoff) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int drops_left = 6;  // six payload legs lost, the seventh delivers
  net.set_fault_hook([&](SiteId, SiteId dst) {
    if (dst == 1 && drops_left > 0) {
      --drops_left;
      return 0;
    }
    return 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch.retransmissions(), 6u);
  // Timeouts 0.05 + 0.1 + 0.2 + 0.4 + 0.8, then capped at 1.0 (not 1.6):
  // the 7th attempt leaves at 2.55. Uncapped it would leave at 3.15.
  EXPECT_GE(done, 2.55);
  EXPECT_LT(done, 2.6);
}

TEST(ReliableChannelTest, SenderCrashRestartsSequencesWithoutFalseDuplicates) {
  // An amnesia crash wipes the sender's per-flow sequence counters, so its
  // restarted numbering begins at zero again. The bumped incarnation must
  // keep the receiver from mistaking those fresh messages for duplicates of
  // pre-crash traffic — a false duplicate would be acked but never handed
  // to the protocol, silently losing the payload.
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok1 = false, ok2 = false;
  double t1 = -1, t2 = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok1, &t1));
  sim.Run();
  ASSERT_TRUE(ok1);
  ch.OnEndpointCrash(0);  // sender reboots: counters restart at seq 0
  EXPECT_EQ(ch.incarnation(0), 1u);
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok2, &t2));
  sim.Run();
  EXPECT_TRUE(ok2);
  EXPECT_EQ(ch.delivered(), 2u);
  EXPECT_EQ(ch.dup_deliveries(), 0u);
  EXPECT_EQ(ch.retransmissions(), 0u);
}

TEST(ReliableChannelTest, ReceiverCrashWipesDedupStateCoherently) {
  // The receiver's delivered-seq sets are volatile. After its amnesia crash
  // wipes them, ongoing flows from surviving senders must keep delivering:
  // the rebuilt flow state may not misclassify fresh (never-seen) sequence
  // numbers as duplicates.
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  for (int round = 0; round < 3; ++round) {
    bool ok = false;
    double t = -1;
    sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &t));
    sim.Run();
    ASSERT_TRUE(ok) << "round " << round;
    ch.OnEndpointCrash(1);  // receiver reboots between every message
  }
  EXPECT_EQ(ch.delivered(), 3u);
  EXPECT_EQ(ch.dup_deliveries(), 0u);
}

TEST(ReliableChannelTest, GiveUpThenFreshSendSucceedsAfterRecovery) {
  // A capped send into a dead receiver exhausts its budget and resolves
  // false; once the receiver is reachable again a fresh send must go
  // through untainted by the abandoned attempt's sequence state.
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  bool receiver_down = true;
  net.set_fault_hook(
      [&](SiteId, SiteId dst) { return (dst == 1 && receiver_down) ? 0 : 1; });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok1 = true, ok2 = false;
  double t1 = -1, t2 = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, /*retries=*/3, &ok1, &t1));
  sim.Run();
  EXPECT_FALSE(ok1);
  EXPECT_EQ(ch.send_failures(), 1u);
  receiver_down = false;
  ch.OnEndpointCrash(1);  // the outage was an amnesia crash: state wiped
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, /*retries=*/3, &ok2, &t2));
  sim.Run();
  EXPECT_TRUE(ok2);
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_EQ(ch.send_failures(), 1u);
}

TEST(ReliableChannelTest, LostAckTriggersDedupedRetransmission) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int ack_drops = 1;  // payload arrives; the first ack (into site 0) is lost
  net.set_fault_hook([&](SiteId, SiteId dst) {
    if (dst == 0 && ack_drops > 0) {
      --ack_drops;
      return 0;
    }
    return 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  std::vector<SiteId> charged;
  ch.set_charge([&](SiteId e) -> sim::Task<void> {
    charged.push_back(e);
    co_return;
  });
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch.retransmissions(), 1u);
  EXPECT_EQ(ch.delivered(), 1u);  // handed to the receiver exactly once
  // Dedup cost at the receiver (1) and re-send cost at the sender (0).
  ASSERT_EQ(charged.size(), 2u);
  EXPECT_EQ(charged[0], 1);
  EXPECT_EQ(charged[1], 0);
}


// -- dedup: when a delivered copy counts as a duplicate ---------------------

/// Drops the first `n` acks (legs into site 0) and delivers everything else.
net::Network::FaultHook DropFirstAcks(int* n) {
  return [n](SiteId, SiteId dst) {
    if (dst == 0 && *n > 0) {
      --*n;
      return 0;
    }
    return 1;
  };
}

TEST(ReliableChannelTest, EachLostAckMakesTheNextCopyExactlyOneDuplicate) {
  for (int lost = 1; lost <= 3; ++lost) {
    Simulation sim;
    net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
    int acks_to_drop = lost;
    net.set_fault_hook(DropFirstAcks(&acks_to_drop));
    ReliableChannel ch(&sim, &net, ChannelParams(), 64);
    bool ok = false;
    double done = -1;
    sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
    sim.Run();
    EXPECT_TRUE(ok) << lost;
    EXPECT_EQ(ch.retransmissions(), static_cast<uint64_t>(lost));
    EXPECT_EQ(ch.dup_deliveries(), static_cast<uint64_t>(lost));
    EXPECT_EQ(ch.delivered(), 1u);
  }
}

TEST(ReliableChannelTest, ReceiverCrashBetweenCopiesMakesTheNextCopyFresh) {
  // The first copy lands and its ack is lost. The receiver's amnesia crash
  // then wipes its dedup state before the retransmission arrives, so that
  // copy is new to the rebooted receiver: fresh, not a duplicate.
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int acks_to_drop = 2;
  net.set_fault_hook(DropFirstAcks(&acks_to_drop));
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  sim.ScheduleCallbackAt(0.02, [&ch] { ch.OnEndpointCrash(1); });
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  // Copies at 0 (fresh), 0.05 (fresh after the wipe; its ack lost too) and
  // 0.15 (a duplicate of the 0.05 copy).
  EXPECT_EQ(ch.retransmissions(), 2u);
  EXPECT_EQ(ch.dup_deliveries(), 1u);
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_EQ(ch.incarnation(1), 1u);
}

TEST(ReliableChannelTest, SenderIncarnationFlapResetsDedupUntilTheFlowSettles) {
  // Send A starts before the sender's amnesia crash and keeps retrying
  // after it under the old incarnation; send B starts after it under the
  // new one. While their copies alternate, each copy finds the flow last
  // set by the other incarnation, which resets the receiver's dedup state:
  // every copy is fresh. Once B is done, A's next two copies meet a settled
  // flow and the second is a duplicate.
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  // Acks in order: A@0, B@0.02 and A@0.05 are lost, B@0.07 lands, A@0.15
  // is lost, A@0.35 lands.
  std::vector<int> ack_verdicts = {0, 0, 0, 1, 0, 1};
  size_t next_ack = 0;
  net.set_fault_hook([&](SiteId, SiteId dst) {
    return dst == 0 ? ack_verdicts.at(next_ack++) : 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok_a = false, ok_b = false;
  double done_a = -1, done_b = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok_a, &done_a));
  sim.ScheduleCallbackAt(0.01, [&ch] { ch.OnEndpointCrash(0); });
  sim.ScheduleCallbackAt(0.02, [&] {
    sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok_b, &done_b));
  });
  sim.Run();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_NEAR(done_b, 0.07, 1e-3);
  EXPECT_NEAR(done_a, 0.35, 1e-3);
  EXPECT_EQ(ch.retransmissions(), 4u);  // A three times, B once
  EXPECT_EQ(ch.dup_deliveries(), 1u);   // A@0.35, after A@0.15
  EXPECT_EQ(ch.delivered(), 2u);
}

/// The channel's original receiver dedup, kept as a reference model: each
/// flow remembers the set of sequence numbers it has delivered, qualified by
/// the sender's incarnation, and each sender numbers its messages per flow.
/// Send's timing is the channel's, step for step. It also counts the copies
/// that were fresh only because a reset had cleared a flow's set: by a
/// receiver crash or by a sender incarnation flap.
class SeqSetChannel {
 public:
  using ChargeFn = ReliableChannel::ChargeFn;

  SeqSetChannel(Simulation* sim, net::Network* net, const FaultParams& params,
                size_t ack_bytes)
      : sim_(sim),
        net_(net),
        ack_bytes_(ack_bytes),
        params_(params),
        incarnation_(net->num_sites(), 0) {}

  void set_charge(ChargeFn fn) { charge_ = std::move(fn); }

  sim::Task<bool> Send(SiteId from, SiteId to, size_t bytes,
                       int max_retries) {
    uint64_t key = FlowKey(from, to);
    uint64_t seq = next_seq_[key]++;
    uint32_t sent_inc = incarnation_[from];
    double rto = params_.rto_initial;
    for (int attempt = 0;; ++attempt) {
      sim::SimTime attempt_start = sim_->Now();
      if (attempt > 0) {
        ++retransmissions_;
        co_await Charge(from);
      }
      bool arrived = co_await net_->Transfer(from, to, bytes);
      if (arrived) {
        RecordDelivery(key, seq, sent_inc);
        bool acked = co_await net_->Transfer(to, from, ack_bytes_);
        if (acked) {
          ++delivered_;
          co_return true;
        }
        co_await Charge(to);
      }
      if (max_retries >= 0 && attempt >= max_retries) {
        ++send_failures_;
        co_return false;
      }
      double elapsed = sim_->Now() - attempt_start;
      if (elapsed < rto) co_await sim_->Delay(rto - elapsed);
      rto = std::min(rto * params_.rto_backoff, params_.rto_max);
    }
  }

  void OnEndpointCrash(SiteId endpoint) {
    size_t n = incarnation_.size();
    std::erase_if(recv_, [endpoint, n](const auto& kv) {
      return kv.first % n == static_cast<uint64_t>(endpoint);
    });
    std::erase_if(next_seq_, [endpoint, n](const auto& kv) {
      return kv.first / n == static_cast<uint64_t>(endpoint);
    });
    ++incarnation_[endpoint];
  }

  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t send_failures() const { return send_failures_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t dup_deliveries() const { return dup_deliveries_; }
  uint64_t fresh_after_crash() const { return fresh_after_crash_; }
  uint64_t fresh_after_flap() const { return fresh_after_flap_; }

 private:
  struct RecvFlow {
    bool init = false;
    bool flapped = false;  // the last reset was an incarnation change
    uint32_t sender_inc = 0;
    std::unordered_set<uint64_t> seen;
  };

  sim::Task<void> Charge(SiteId endpoint) {
    if (charge_) co_await charge_(endpoint);
  }
  uint64_t FlowKey(SiteId from, SiteId to) const {
    return static_cast<uint64_t>(from) * incarnation_.size() + to;
  }
  void RecordDelivery(uint64_t key, uint64_t seq, uint32_t sent_inc) {
    RecvFlow& rf = recv_[key];
    if (!rf.init || rf.sender_inc != sent_inc) {
      rf.flapped = rf.init;
      rf.init = true;
      rf.sender_inc = sent_inc;
      rf.seen.clear();
    }
    bool fresh = rf.seen.insert(seq).second;
    bool before = !ever_.insert({key, seq, sent_inc}).second;
    if (!fresh) {
      ++dup_deliveries_;
    } else if (before) {
      ++(rf.flapped ? fresh_after_flap_ : fresh_after_crash_);
    }
  }

  Simulation* sim_;
  net::Network* net_;
  ChargeFn charge_;
  size_t ack_bytes_;
  FaultParams params_;
  std::vector<uint32_t> incarnation_;
  std::unordered_map<uint64_t, uint64_t> next_seq_;
  std::unordered_map<uint64_t, RecvFlow> recv_;
  std::set<std::tuple<uint64_t, uint64_t, uint32_t>> ever_;
  uint64_t retransmissions_ = 0;
  uint64_t send_failures_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dup_deliveries_ = 0;
  uint64_t fresh_after_crash_ = 0;
  uint64_t fresh_after_flap_ = 0;
};

/// A random schedule of sends and amnesia crashes on a lossy, duplicating
/// network of a few endpoints.
struct DedupScenario {
  struct Message {
    double at;
    SiteId from;
    SiteId to;
    int max_retries;
  };
  static constexpr int kEndpoints = 4;
  uint64_t seed;
  std::vector<Message> messages;
  std::vector<std::pair<double, SiteId>> crashes;

  explicit DedupScenario(uint64_t s) : seed(s) {
    sim::RandomStream rng(s);
    const int retry_choices[] = {kRetryForever, 0, 2, 5};
    for (int i = 0; i < 150; ++i) {
      SiteId from = static_cast<SiteId>(rng.UniformInt(0, kEndpoints - 1));
      SiteId to = static_cast<SiteId>(
          (from + rng.UniformInt(1, kEndpoints - 1)) % kEndpoints);
      messages.push_back({rng.Uniform(0, 5), from, to,
                          retry_choices[rng.UniformInt(0, 3)]});
    }
    for (int i = 0; i < 10; ++i) {
      double at = rng.Uniform(0, 5);
      crashes.emplace_back(
          at, static_cast<SiteId>(rng.UniformInt(0, kEndpoints - 1)));
    }
  }
};

template <typename Channel>
Process DoSendOn(Simulation* sim, Channel* ch, SiteId src, SiteId dst,
                 int retries, char* ok, double* done_at) {
  *ok = co_await ch->Send(src, dst, 128, retries);
  *done_at = sim->Now();
}

/// Everything a run of a scenario shows from outside the channel, plus the
/// model's reset counts.
struct DedupOutcome {
  uint64_t delivered = 0;
  uint64_t dups = 0;
  uint64_t retransmissions = 0;
  uint64_t send_failures = 0;
  std::vector<char> ok;
  std::vector<double> done;
  uint64_t fresh_after_crash = 0;
  uint64_t fresh_after_flap = 0;
};

/// Runs `sc` on a fresh Channel. Both channels see the same network draws:
/// the hook's stream is seeded alike and their Send coroutines await the
/// same steps in the same order.
template <typename Channel>
DedupOutcome RunDedupScenario(const DedupScenario& sc) {
  Simulation sim;
  net::Network net(&sim, DedupScenario::kEndpoints,
                   net::NetworkParams{0.004, 1e6});
  sim::RandomStream draws(sc.seed * 31 + 7);
  net.set_fault_hook([&draws](SiteId, SiteId) {
    if (draws.Chance(0.3)) return 0;
    return draws.Chance(0.1) ? 2 : 1;
  });
  Channel ch(&sim, &net, ChannelParams(), 64);
  // A small dedup / re-send charge, so copies also queue behind charges.
  ch.set_charge([&sim](SiteId) -> sim::Task<void> {
    co_await sim.Delay(0.003);
  });
  DedupOutcome o;
  o.ok.assign(sc.messages.size(), 0);
  o.done.assign(sc.messages.size(), -1);
  for (size_t i = 0; i < sc.messages.size(); ++i) {
    const DedupScenario::Message* m = &sc.messages[i];
    char* ok = &o.ok[i];
    double* done = &o.done[i];
    sim.ScheduleCallbackAt(m->at, [&sim, &ch, m, ok, done] {
      sim.Spawn(DoSendOn(&sim, &ch, m->from, m->to, m->max_retries, ok, done));
    });
  }
  for (const auto& [at, e] : sc.crashes) {
    SiteId endpoint = e;
    sim.ScheduleCallbackAt(at,
                           [&ch, endpoint] { ch.OnEndpointCrash(endpoint); });
  }
  sim.Run();
  o.delivered = ch.delivered();
  o.dups = ch.dup_deliveries();
  o.retransmissions = ch.retransmissions();
  o.send_failures = ch.send_failures();
  if constexpr (std::is_same_v<Channel, SeqSetChannel>) {
    o.fresh_after_crash = ch.fresh_after_crash();
    o.fresh_after_flap = ch.fresh_after_flap();
  }
  return o;
}

TEST(ReliableChannelTest, DedupMatchesPerFlowSequenceSetModel) {
  uint64_t dups = 0, after_crash = 0, after_flap = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    DedupScenario sc(seed);
    DedupOutcome want = RunDedupScenario<SeqSetChannel>(sc);
    DedupOutcome got = RunDedupScenario<ReliableChannel>(sc);
    ASSERT_EQ(got.dups, want.dups) << "seed " << seed;
    ASSERT_EQ(got.delivered, want.delivered) << "seed " << seed;
    ASSERT_EQ(got.retransmissions, want.retransmissions) << "seed " << seed;
    ASSERT_EQ(got.send_failures, want.send_failures) << "seed " << seed;
    ASSERT_EQ(got.ok, want.ok) << "seed " << seed;
    ASSERT_EQ(got.done, want.done) << "seed " << seed;
    dups += want.dups;
    after_crash += want.fresh_after_crash;
    after_flap += want.fresh_after_flap;
  }
  // The schedules reach every dedup case: duplicates, copies made fresh by
  // a receiver crash, and copies made fresh by an incarnation flap.
  EXPECT_GT(dups, 0u);
  EXPECT_GT(after_crash, 0u);
  EXPECT_GT(after_flap, 0u);
}

}  // namespace
}  // namespace lazyrep::fault
