// Unit tests for the local-DBMS substrate (src/db): lock manager, item store
// with the Thomas Write Rule, and the completion tracker.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "db/completion_tracker.h"
#include "db/item_store.h"
#include "db/lock_manager.h"
#include "db/types.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace lazyrep::db {
namespace {

using sim::Process;
using sim::Simulation;
using sim::WaitStatus;

Process AcquireLock(Simulation* sim, LockManager* lm, TxnId txn, ItemId item,
                    LockMode mode, sim::SimTime timeout, WaitStatus* status,
                    double* when) {
  *status = co_await lm->Acquire(txn, item, mode, timeout);
  *when = sim->Now();
}

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

TEST(LockManagerTest, SharedLocksCoexist) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 1.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 1.0, &s2, &t2));
  sim.Run();
  EXPECT_EQ(s1, WaitStatus::kSignaled);
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_EQ(lm.HolderCount(5), 2u);
}

TEST(LockManagerTest, UpdateLocksCoexistBecauseOfTwr) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 1.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 1.0, &s2, &t2));
  sim.Run();
  EXPECT_EQ(s1, WaitStatus::kSignaled);
  EXPECT_EQ(s2, WaitStatus::kSignaled);  // ww never blocks
  EXPECT_DOUBLE_EQ(t2, 0.0);
}

TEST(LockManagerTest, SharedBlocksUpdateUntilRelease) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 10.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 10.0, &s2, &t2));
  sim.ScheduleCallbackAt(3.0, [&] { lm.Release(1, 5); });
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(t2, 3.0);
}

TEST(LockManagerTest, UpdateBlocksShared) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 10.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 10.0, &s2, &t2));
  sim.ScheduleCallbackAt(2.0, [&] { lm.ReleaseAll(1); });
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(t2, 2.0);
}

TEST(LockManagerTest, WaiterTimesOut) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 10.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 0.5, &s2, &t2));
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kTimeout);
  EXPECT_DOUBLE_EQ(t2, 0.5);
  EXPECT_EQ(lm.timeouts(), 1u);
  EXPECT_EQ(lm.WaiterCount(5), 0u);  // the timed-out waiter left the queue
}

TEST(LockManagerTest, FifoOrderAmongWaiters) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 99.0, &s2, &t2));
  // Txn 3's shared request queues behind txn 2's update (FIFO, no starvation
  // of writers).
  sim.Spawn(AcquireLock(&sim, &lm, 3, 5, LockMode::kShared, 99.0, &s3, &t3));
  sim.ScheduleCallbackAt(1.0, [&] { lm.ReleaseAll(1); });
  sim.ScheduleCallbackAt(2.0, [&] { lm.ReleaseAll(2); });
  sim.Run();
  EXPECT_DOUBLE_EQ(t2, 1.0);
  EXPECT_DOUBLE_EQ(t3, 2.0);
}

TEST(LockManagerTest, ReacquisitionIsImmediate) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 1.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 1.0, &s2, &t2));
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 1.0, &s3, &t3));
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_EQ(s3, WaitStatus::kSignaled);
  EXPECT_EQ(lm.HolderCount(5), 1u);
}

TEST(LockManagerTest, UpgradeWaitsForOtherReaders) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 99.0, &s2, &t2));
  // Txn 1 upgrades; must wait for txn 2's shared lock to go away.
  sim.ScheduleCallbackAt(1.0, [&] {
    sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 99.0, &s3, &t3));
  });
  sim.ScheduleCallbackAt(2.0, [&] { lm.ReleaseAll(2); });
  sim.Run();
  EXPECT_EQ(s3, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(t3, 2.0);
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kUpdate));
}

TEST(LockManagerTest, UpgradeJumpsQueueAheadOfNewRequests) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s_up, s_new;
  double t_up, t_new;
  // Txn 1 holds S. Txn 2 queues an update. Txn 1 then upgrades: its request
  // goes to the queue front, so after txn 1 releases... actually txn 1's
  // upgrade is only blocked by other S holders (none besides itself), so it
  // is granted immediately even though txn 2 queued first.
  WaitStatus s1;
  double t1;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  sim.ScheduleCallbackAt(1.0, [&] {
    sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 99.0, &s_new,
                          &t_new));
  });
  // Txn 2's shared request coexists with txn 1's shared lock.
  sim.ScheduleCallbackAt(2.0, [&] {
    sim.Spawn(
        AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 99.0, &s_up, &t_up));
  });
  sim.ScheduleCallbackAt(3.0, [&] { lm.ReleaseAll(2); });
  sim.Run();
  EXPECT_EQ(s_up, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(t_up, 3.0);  // blocked only by txn 2's shared hold
}

TEST(LockManagerTest, ExclusiveExcludesEveryMode) {
  // The eager baseline's strict-2PL mode: X conflicts with S, U, and X.
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus sx, ss, su, sx2;
  double tx, ts, tu, tx2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kExclusive, 99.0, &sx,
                        &tx));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 1.0, &ss, &ts));
  sim.Spawn(AcquireLock(&sim, &lm, 3, 5, LockMode::kUpdate, 1.0, &su, &tu));
  sim.Spawn(AcquireLock(&sim, &lm, 4, 5, LockMode::kExclusive, 1.0, &sx2,
                        &tx2));
  sim.Run();
  EXPECT_EQ(sx, WaitStatus::kSignaled);
  EXPECT_EQ(ss, WaitStatus::kTimeout);
  EXPECT_EQ(su, WaitStatus::kTimeout);
  EXPECT_EQ(sx2, WaitStatus::kTimeout);
  EXPECT_EQ(lm.HolderCount(5), 1u);
}

TEST(LockManagerTest, ExclusiveCoversWeakerReacquisition) {
  // Strength lattice S < U < X: a held X satisfies any same-txn request.
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus sx, ss, su;
  double tx, ts, tu;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kExclusive, 1.0, &sx,
                        &tx));
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 1.0, &ss, &ts));
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 1.0, &su, &tu));
  sim.Run();
  EXPECT_EQ(ss, WaitStatus::kSignaled);
  EXPECT_EQ(su, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(tu, 0.0);
  EXPECT_EQ(lm.HolderCount(5), 1u);
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kUpdate));
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kExclusive));
}

TEST(LockManagerTest, UpdateUpgradesToExclusiveAfterRivalReleases) {
  // Two TWR writers coexist under U; one then needs X (eager discipline)
  // and must wait for the other's U to go away.
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, sx;
  double t1, t2, tx;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 99.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 99.0, &s2, &t2));
  sim.ScheduleCallbackAt(1.0, [&] {
    sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kExclusive, 99.0, &sx,
                          &tx));
  });
  sim.ScheduleCallbackAt(2.0, [&] { lm.ReleaseAll(2); });
  sim.Run();
  EXPECT_EQ(sx, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(tx, 2.0);
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kExclusive));
  EXPECT_FALSE(lm.Holds(2, 5, LockMode::kUpdate));
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s;
  double t;
  for (ItemId i = 0; i < 5; ++i) {
    sim.Spawn(AcquireLock(&sim, &lm, 7, i, LockMode::kUpdate, 1.0, &s, &t));
  }
  sim.Run();
  EXPECT_EQ(lm.HeldItems(7).size(), 5u);
  lm.ReleaseAll(7);
  EXPECT_EQ(lm.HeldItems(7).size(), 0u);
  for (ItemId i = 0; i < 5; ++i) EXPECT_EQ(lm.HolderCount(i), 0u);
}

TEST(LockManagerTest, TimeoutOfMiddleWaiterUnblocksOthers) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  // Txn 2 queues an update with a short timeout; txn 3's shared queues after.
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 0.5, &s2, &t2));
  sim.Spawn(AcquireLock(&sim, &lm, 3, 5, LockMode::kShared, 99.0, &s3, &t3));
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kTimeout);
  EXPECT_EQ(s3, WaitStatus::kSignaled);
  // Txn 3 granted right when txn 2 left the queue (compatible with holder 1).
  EXPECT_DOUBLE_EQ(t3, 0.5);
}

TEST(LockManagerTest, CrashResetKeepsSurvivorsAndCancelsWaiters) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  // Txn 1 holds item 5 exclusively (via update, sole holder semantics rely
  // on the queue); txn 2 waits behind it; txn 3 holds item 6.
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 99.0, &s2, &t2));
  sim.Spawn(AcquireLock(&sim, &lm, 3, 6, LockMode::kUpdate, 99.0, &s3, &t3));
  sim.Run(1.0);  // bounded: txn 2 must still be queued, not timed out
  ASSERT_EQ(s1, WaitStatus::kSignaled);
  ASSERT_EQ(s3, WaitStatus::kSignaled);

  // The crash keeps txn 3 (in-doubt survivor) and wipes everything else.
  lm.CrashReset([](TxnId id) { return id == 3; });
  sim.Run(2.0);

  EXPECT_EQ(s2, WaitStatus::kCancelled);  // waiter woken, not granted
  EXPECT_EQ(lm.HeldItems(1).size(), 0u);
  EXPECT_EQ(lm.HolderCount(5), 0u);
  EXPECT_TRUE(lm.Holds(3, 6, LockMode::kUpdate));
  ASSERT_EQ(lm.HeldItems(3).size(), 1u);
  EXPECT_EQ(lm.HeldItems(3)[0], 6u);

  // The wiped item is immediately grantable to a new transaction.
  WaitStatus s4;
  double t4;
  sim.Spawn(AcquireLock(&sim, &lm, 4, 5, LockMode::kUpdate, 1.0, &s4, &t4));
  sim.Run(3.0);
  EXPECT_EQ(s4, WaitStatus::kSignaled);
}

/// Holder half of one lock cycle: takes update locks on items 1 and 2,
/// releases item 1 at t+0.1 and everything at t+0.2.
Process CycleHolder(Simulation* sim, LockManager* lm, TxnId txn,
                    WaitStatus* status) {
  *status = co_await lm->Acquire(txn, 1, LockMode::kUpdate, 1.0);
  co_await lm->Acquire(txn, 2, LockMode::kUpdate, 1.0);
  co_await sim->Delay(0.1);
  lm->Release(txn, 1);
  co_await sim->Delay(0.1);
  lm->ReleaseAll(txn);
}

/// Reader half: queues behind the holder on item 1, then on item 2.
Process CycleReader(Simulation* sim, LockManager* lm, TxnId txn,
                    WaitStatus* status) {
  co_await sim->Delay(0.05);
  co_await lm->Acquire(txn, 1, LockMode::kShared, 1.0);
  *status = co_await lm->Acquire(txn, 2, LockMode::kShared, 1.0);
  lm->ReleaseAll(txn);
}

TEST(LockManagerTest, SteadyStateCyclesTakeNothingFreshFromThePool) {
  // The lock table, the held index, holder lists and the Acquire frames all
  // draw from the frame pool: once one cycle has sized it, further
  // acquire / wait / Release / ReleaseAll cycles recycle its blocks.
  // (Sanitizer builds disable the pool; the counters then stay 0.)
  Simulation sim;
  LockManager lm(&sim);
  int bad_cycles = 0;
  auto cycle = [&](TxnId txn) {
    WaitStatus held = WaitStatus::kCancelled;
    WaitStatus read = WaitStatus::kCancelled;
    sim.Spawn(CycleHolder(&sim, &lm, txn, &held));
    sim.Spawn(CycleReader(&sim, &lm, txn + 1, &read));
    sim.Run();
    if (held != WaitStatus::kSignaled || read != WaitStatus::kSignaled ||
        lm.HolderCount(1) + lm.HolderCount(2) != 0) {
      ++bad_cycles;
    }
  };
  cycle(1);  // warm-up
  const uint64_t fresh = sim::FramePoolThreadStats().fresh_allocs;
  for (TxnId i = 1; i <= 10000; ++i) cycle(2 * i + 1);
  EXPECT_EQ(bad_cycles, 0);
  EXPECT_EQ(sim::FramePoolThreadStats().fresh_allocs, fresh);
  EXPECT_EQ(lm.waits(), 2u * 10001);
}

// ---------------------------------------------------------------------------
// ItemStore / Thomas Write Rule
// ---------------------------------------------------------------------------

TEST(ItemStoreTest, NewerWriteInstalls) {
  ItemStore store(10);
  Timestamp ts{1.0, 42};
  auto r = store.ApplyWrite(3, ts);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(store.VersionOf(3), ts);
  EXPECT_EQ(r.other_writer, kNoTxn);  // replaced the initial version
}

TEST(ItemStoreTest, ThomasWriteRuleIgnoresStaleWrite) {
  ItemStore store(10);
  store.ApplyWrite(3, Timestamp{2.0, 50});
  auto r = store.ApplyWrite(3, Timestamp{1.0, 42});  // older timestamp
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.other_writer, 50u);  // the ignored writer precedes txn 50
  EXPECT_EQ(store.VersionOf(3).txn, 50u);
  EXPECT_EQ(store.writes_ignored(), 1u);
}

TEST(ItemStoreTest, TieBreakByTxnId) {
  ItemStore store(10);
  store.ApplyWrite(3, Timestamp{1.0, 50});
  // Same time, higher txn id: counts as newer.
  auto r = store.ApplyWrite(3, Timestamp{1.0, 51});
  EXPECT_TRUE(r.applied);
  // Same time, lower txn id: ignored.
  auto r2 = store.ApplyWrite(3, Timestamp{1.0, 49});
  EXPECT_FALSE(r2.applied);
}

TEST(ItemStoreTest, WriteCollectsPriorReaders) {
  ItemStore store(10);
  store.Read(3, 100);
  store.Read(3, 101);
  store.Read(3, 100);  // duplicate registration collapses
  auto r = store.ApplyWrite(3, Timestamp{1.0, 42});
  EXPECT_TRUE(r.applied);
  ASSERT_EQ(r.prior_readers.size(), 2u);
  EXPECT_EQ(store.ReadersOf(3).size(), 0u);  // cleared by the write
}

TEST(ItemStoreTest, ReadReturnsVersionAndRegisters) {
  ItemStore store(10);
  store.ApplyWrite(3, Timestamp{1.0, 42});
  Timestamp v = store.Read(3, 100);
  EXPECT_EQ(v.txn, 42u);
  EXPECT_EQ(store.ReadersOf(3).size(), 1u);
  store.RemoveReader(100, {3});
  EXPECT_EQ(store.ReadersOf(3).size(), 0u);
}

TEST(ItemStoreTest, PriorReadersKeepRegistrationOrderAfterMidListRemove) {
  ItemStore store(10);
  for (TxnId reader : {100, 101, 102, 103}) store.Read(3, reader);
  store.RemoveReader(101, {3});
  EXPECT_EQ(store.ReadersOf(3), (std::vector<TxnId>{100, 102, 103}));
  store.Read(3, 104);  // reuses 101's node, still appended at the tail
  auto r = store.ApplyWrite(3, Timestamp{1.0, 42});
  ASSERT_TRUE(r.applied);
  EXPECT_EQ(std::vector<TxnId>(r.prior_readers.begin(), r.prior_readers.end()),
            (std::vector<TxnId>{100, 102, 103, 104}));
}

TEST(ItemStoreTest, IgnoredWriteLeavesReadersRegistered) {
  ItemStore store(10);
  store.ApplyWrite(3, Timestamp{2.0, 50});
  store.Read(3, 100);
  store.Read(3, 101);
  auto r = store.ApplyWrite(3, Timestamp{1.0, 42});  // TWR-ignored
  EXPECT_FALSE(r.applied);
  EXPECT_TRUE(r.prior_readers.empty());
  EXPECT_EQ(store.ReadersOf(3), (std::vector<TxnId>{100, 101}));
  // The next installed write still sees them as its prior readers.
  r = store.ApplyWrite(3, Timestamp{3.0, 60});
  EXPECT_EQ(r.prior_readers.size(), 2u);
}

TEST(ItemStoreTest, DuplicateRegistrationsCollapse) {
  ItemStore store(10);
  store.Read(3, 100);
  store.Read(3, 101);
  store.Read(3, 100);
  store.Read(3, 101);
  EXPECT_EQ(store.ReadersOf(3), (std::vector<TxnId>{100, 101}));
  EXPECT_EQ(store.reader_pool_size(), 2u);
  store.RemoveReader(100, {3});
  EXPECT_EQ(store.ReadersOf(3), (std::vector<TxnId>{101}));
}

TEST(ItemStoreTest, ReaderPoolStaysAtPeakLiveRegistrations) {
  // Each cycle: three readers register on overlapping items (at most six
  // live registrations), a write takes one item's readers, the rest are
  // removed. Freed nodes must be reused, not leaked.
  constexpr size_t kPeakLive = 6;
  ItemStore store(8);
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const ItemId a = cycle % 8;
    const ItemId b = (cycle + 3) % 8;
    const TxnId base = 1 + 3 * static_cast<TxnId>(cycle);
    for (TxnId reader = base; reader < base + 3; ++reader) {
      store.Read(a, reader);
      store.Read(b, reader);
    }
    auto r = store.ApplyWrite(a, Timestamp{static_cast<double>(cycle), base});
    ASSERT_TRUE(r.applied);
    ASSERT_EQ(r.prior_readers.size(), 3u);
    for (TxnId reader = base; reader < base + 3; ++reader) {
      store.RemoveReader(reader, {a, b});
    }
    ASSERT_TRUE(store.ReadersOf(a).empty());
    ASSERT_TRUE(store.ReadersOf(b).empty());
  }
  EXPECT_EQ(store.reader_pool_size(), kPeakLive);
}

TEST(ItemStoreTest, StoresSharingCommitTimesAgreeOnVersions) {
  CommitTimes times(8);
  ItemStore a(10, &times);
  ItemStore b(10, &times);
  a.ApplyWrite(3, Timestamp{1.5, 7});
  b.ApplyWrite(4, Timestamp{1.5, 7});
  EXPECT_EQ(a.VersionOf(3), (Timestamp{1.5, 7}));
  EXPECT_EQ(b.VersionOf(4), (Timestamp{1.5, 7}));
  EXPECT_EQ(b.VersionOf(3), kZeroTimestamp);
  // An id past the reserved size grows the table.
  b.ApplyWrite(3, Timestamp{2.0, 1000});
  EXPECT_EQ(b.VersionOf(3), (Timestamp{2.0, 1000}));
  EXPECT_EQ(a.VersionOf(3), (Timestamp{1.5, 7}));
}

TEST(ItemStoreDeathTest, OneTransactionWritingTwoTimesFailsTheCheck) {
  CommitTimes times(8);
  ItemStore a(10, &times);
  ItemStore b(10, &times);
  a.ApplyWrite(3, Timestamp{1.0, 7});
  a.ApplyWrite(4, Timestamp{1.0, 7});  // the same time again is fine
  EXPECT_DEATH(b.ApplyWrite(3, Timestamp{2.0, 7}), "two different timestamps");
  // A TWR-ignored write is checked too.
  a.ApplyWrite(5, Timestamp{9.0, 8});
  EXPECT_DEATH(a.ApplyWrite(5, Timestamp{0.5, 7}), "two different timestamps");
}

TEST(ItemStoreTest, DifferentialFuzzAgainstNaiveModel) {
  // A naive model (a Timestamp and a reader vector per item) against the
  // store, over 4096 items with hundreds of items holding readers at once:
  // the reader-head table grows past its initial 256 slots, wraps, and
  // deletes by backward shift throughout.
  constexpr ItemId kItems = 4096;
  constexpr int kReaders = 600;
  ItemStore store(kItems);
  std::vector<Timestamp> model_version(kItems);
  std::vector<std::vector<TxnId>> model_readers(kItems);
  // Reader r (id kReaderBase + r) and the items it registered on.
  constexpr TxnId kReaderBase = 1000000;
  std::vector<std::vector<ItemId>> read_items(kReaders);
  std::vector<double> writer_time = {0};  // index = writer id
  sim::RandomStream rng(20260);
  size_t live = 0;
  size_t peak_live = 0;

  auto registered = [&](ItemId item, TxnId reader) {
    const std::vector<TxnId>& rs = model_readers[item];
    return std::find(rs.begin(), rs.end(), reader) != rs.end();
  };
  for (int op = 0; op < 200000; ++op) {
    // Reads dominate early so registrations build up, then the mix settles.
    const double read_share = op < 20000 ? 0.9 : 0.45;
    const double u = rng.Uniform01();
    // Half the traffic hits a 512-item hot range so lists grow long.
    const ItemId item = static_cast<ItemId>(rng.Chance(0.5)
                                                ? rng.UniformInt(0, 511)
                                                : rng.UniformInt(0, kItems - 1));
    if (u < read_share) {
      const int r = static_cast<int>(rng.UniformInt(0, kReaders - 1));
      const TxnId reader = kReaderBase + r;
      if (!registered(item, reader)) {
        model_readers[item].push_back(reader);
        read_items[r].push_back(item);
        ++live;
      }
      ASSERT_EQ(store.Read(item, reader), model_version[item]) << "op " << op;
    } else if (u < read_share + 0.35) {
      // A new writer, or one that has written before (same time again).
      TxnId writer;
      if (writer_time.size() > 1 && rng.Chance(0.3)) {
        writer = static_cast<TxnId>(
            rng.UniformInt(1, static_cast<int64_t>(writer_time.size()) - 1));
      } else {
        writer = writer_time.size();
        writer_time.push_back(rng.Uniform(0, 1000));
      }
      const Timestamp ts{writer_time[writer], writer};
      const ItemStore::WriteResult r = store.ApplyWrite(item, ts);
      ASSERT_EQ(r.other_writer, model_version[item].txn) << "op " << op;
      if (ts > model_version[item]) {
        ASSERT_TRUE(r.applied) << "op " << op;
        ASSERT_EQ(std::vector<TxnId>(r.prior_readers.begin(),
                                     r.prior_readers.end()),
                  model_readers[item])
            << "op " << op;
        live -= model_readers[item].size();
        model_readers[item].clear();
        model_version[item] = ts;
      } else {
        ASSERT_FALSE(r.applied) << "op " << op;
        ASSERT_TRUE(r.prior_readers.empty()) << "op " << op;
      }
    } else if (u < read_share + 0.5) {
      // A reader finishes: drop every registration it made (some may have
      // been taken by writes already).
      const int r = static_cast<int>(rng.UniformInt(0, kReaders - 1));
      const TxnId reader = kReaderBase + r;
      for (ItemId i : read_items[r]) {
        std::vector<TxnId>& rs = model_readers[i];
        auto at = std::find(rs.begin(), rs.end(), reader);
        if (at != rs.end()) {
          rs.erase(at);
          --live;
        }
      }
      store.RemoveReader(reader, read_items[r]);
      read_items[r].clear();
    } else {
      ASSERT_EQ(store.ReadersOf(item), model_readers[item]) << "op " << op;
    }
    peak_live = std::max(peak_live, live);
  }
  for (ItemId i = 0; i < kItems; ++i) {
    ASSERT_EQ(store.VersionOf(i), model_version[i]) << "item " << i;
    ASSERT_EQ(store.ReadersOf(i), model_readers[i]) << "item " << i;
  }
  EXPECT_GT(peak_live, 256u);
  EXPECT_GT(store.reader_table_capacity(), 256u);
  EXPECT_LE(store.reader_pool_size(), peak_live);
}

TEST(ItemStoreTest, ReaderTableCapacityStaysFixedAtSteadyState) {
  // Each cycle registers readers on 300 distinct items (past the initial
  // table's load limit), writes a third of them and removes the rest.
  // After the warm-up cycle has grown the table, deletions must leave no
  // residue that makes later cycles grow it again.
  constexpr ItemId kItems = 4096;
  ItemStore store(kItems);
  sim::RandomStream rng(11);
  TxnId next = 1;
  auto cycle = [&] {
    std::vector<ItemId> items;
    const ItemId start = static_cast<ItemId>(rng.UniformInt(0, kItems - 1));
    for (ItemId k = 0; k < 300; ++k) items.push_back((start + 7 * k) % kItems);
    const TxnId reader = next++;
    for (ItemId item : items) store.Read(item, reader);
    const TxnId writer = next++;
    for (size_t k = 0; k < items.size(); k += 3) {
      store.ApplyWrite(items[k],
                       Timestamp{static_cast<double>(writer), writer});
    }
    store.RemoveReader(reader, items);
  };
  cycle();  // warm-up
  const size_t capacity = store.reader_table_capacity();
  const size_t pool = store.reader_pool_size();
  for (int i = 0; i < 10000; ++i) cycle();
  EXPECT_EQ(store.reader_table_capacity(), capacity);
  EXPECT_EQ(store.reader_pool_size(), pool);
  for (ItemId i = 0; i < kItems; ++i) ASSERT_TRUE(store.ReadersOf(i).empty());
}

// ---------------------------------------------------------------------------
// CompletionTracker
// ---------------------------------------------------------------------------

TEST(CompletionTrackerTest, CompletesWhenCommitsAndNoPreds) {
  CompletionTracker tracker;
  std::vector<TxnId> completed;
  tracker.set_on_completed([&](TxnId t) { completed.push_back(t); });
  tracker.Register(1, 0);
  tracker.SetRemainingCommits(1, 3);
  tracker.OnSubtxnCommitted(1);
  tracker.OnSubtxnCommitted(1);
  EXPECT_TRUE(completed.empty());
  tracker.OnSubtxnCommitted(1);
  EXPECT_EQ(completed, (std::vector<TxnId>{1}));
  EXPECT_TRUE(tracker.IsCompleted(1));
}

TEST(CompletionTrackerTest, PredecessorDelaysCompletion) {
  CompletionTracker tracker;
  std::vector<TxnId> completed;
  tracker.set_on_completed([&](TxnId t) { completed.push_back(t); });
  tracker.Register(1, 0);
  tracker.Register(2, 1);
  tracker.AddPredecessor(2, 1);
  tracker.SetRemainingCommits(2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_TRUE(completed.empty());  // waiting on txn 1
  tracker.SetRemainingCommits(1, 1);
  tracker.OnSubtxnCommitted(1);
  // Central cascade: 1 completes, then 2.
  EXPECT_EQ(completed, (std::vector<TxnId>{1, 2}));
}

TEST(CompletionTrackerTest, CascadeThroughChain) {
  CompletionTracker tracker;
  std::vector<TxnId> completed;
  tracker.set_on_completed([&](TxnId t) { completed.push_back(t); });
  for (TxnId t = 1; t <= 4; ++t) {
    tracker.Register(t, 0);
    tracker.SetRemainingCommits(t, 1);
  }
  tracker.AddPredecessor(2, 1);
  tracker.AddPredecessor(3, 2);
  tracker.AddPredecessor(4, 3);
  tracker.OnSubtxnCommitted(4);
  tracker.OnSubtxnCommitted(3);
  tracker.OnSubtxnCommitted(2);
  EXPECT_TRUE(completed.empty());
  tracker.OnSubtxnCommitted(1);
  EXPECT_EQ(completed, (std::vector<TxnId>{1, 2, 3, 4}));
}

TEST(CompletionTrackerTest, AbortReleasesDependents) {
  CompletionTracker tracker;
  std::vector<TxnId> completed;
  tracker.set_on_completed([&](TxnId t) { completed.push_back(t); });
  tracker.Register(1, 0);
  tracker.Register(2, 0);
  tracker.AddPredecessor(2, 1);
  tracker.SetRemainingCommits(2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_TRUE(completed.empty());
  tracker.OnAborted(1);
  EXPECT_EQ(completed, (std::vector<TxnId>{2}));
  EXPECT_TRUE(tracker.IsAborted(1));
  EXPECT_FALSE(tracker.IsCompleted(1));
}

TEST(CompletionTrackerTest, TerminalPredecessorIgnored) {
  CompletionTracker tracker;
  std::vector<TxnId> completed;
  tracker.set_on_completed([&](TxnId t) { completed.push_back(t); });
  tracker.Register(1, 0);
  tracker.SetRemainingCommits(1, 1);
  tracker.OnSubtxnCommitted(1);  // completed immediately
  tracker.Register(2, 0);
  tracker.AddPredecessor(2, 1);    // terminal: no edge
  tracker.AddPredecessor(2, 999);  // unknown: no edge
  tracker.SetRemainingCommits(2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_EQ(completed, (std::vector<TxnId>{1, 2}));
}

TEST(CompletionTrackerTest, SelfPredecessorIgnored) {
  CompletionTracker tracker;
  tracker.Register(1, 0);
  tracker.AddPredecessor(1, 1);
  tracker.SetRemainingCommits(1, 1);
  tracker.OnSubtxnCommitted(1);
  EXPECT_TRUE(tracker.IsCompleted(1));
}

TEST(CompletionTrackerTest, DeferredCascadeWaitsForPerSiteNotice) {
  CompletionTracker tracker;
  tracker.set_deferred_cascade(true);
  std::vector<TxnId> completed;
  tracker.set_on_completed([&](TxnId t) { completed.push_back(t); });
  tracker.Register(1, 0);
  tracker.Register(2, 3);  // dependent originates at site 3
  tracker.Register(3, 4);  // dependent originates at site 4
  tracker.AddPredecessor(2, 1);
  tracker.AddPredecessor(3, 1);
  for (TxnId t : {TxnId{1}, TxnId{2}, TxnId{3}}) {
    tracker.SetRemainingCommits(t, 1);
    tracker.OnSubtxnCommitted(t);
  }
  // Txn 1 completed, but 2 and 3 wait for the notice to reach their sites.
  EXPECT_EQ(completed, (std::vector<TxnId>{1}));
  tracker.NotifyCompletionAtSite(1, 3);
  EXPECT_EQ(completed, (std::vector<TxnId>{1, 2}));
  tracker.NotifyCompletionAtSite(1, 4);
  EXPECT_EQ(completed, (std::vector<TxnId>{1, 2, 3}));
}

TEST(CompletionTrackerTest, LiveCountTracksStates) {
  CompletionTracker tracker;
  tracker.Register(1, 0);
  tracker.Register(2, 0);
  EXPECT_EQ(tracker.live_count(), 2u);
  tracker.OnAborted(1);
  EXPECT_EQ(tracker.live_count(), 1u);
  tracker.SetRemainingCommits(2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_EQ(tracker.live_count(), 0u);
  EXPECT_TRUE(tracker.IsLive(2) == false && tracker.IsTerminal(2));
}

}  // namespace
}  // namespace lazyrep::db
