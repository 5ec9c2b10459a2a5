#include "protocols/eager/eager_protocol.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace lazyrep::proto {

using core::System;
using db::LockMode;
using sim::WaitStatus;

namespace {

/// Distributed-deadlock resolution: after a replica-lock round times out,
/// the denied sites are retried up to this many more times before aborting.
constexpr int kLockRetries = 2;
/// Base of the randomized exponential backoff between lock-round retries:
/// the k-th retry sleeps Uniform(0, kBackoffBase * 2^k) seconds.
constexpr double kBackoffBase = 0.05;

}  // namespace

sim::Process EagerProtocol::LockLeg(txn::Transaction* t, db::SiteId dst,
                                    db::ItemId item, StatePtr st,
                                    RoundState* round) {
  const bool reached = co_await Reached(t->origin, dst, Retry::kBounded);
  if (!reached) {
    ++round->unavailable;
    round->done.Arrive();
    co_return;
  }
  WaitStatus s = co_await sys_->site(dst).locks.Acquire(
      t->id, item, LockMode::kExclusive, sys_->config().timeout);
  if (s == WaitStatus::kSignaled) {
    // Record the grant before the reply leg: if the grant message never
    // arrives, the abort path still knows to release this lock.
    st->granted_remote.emplace_back(dst, item);
    if (!co_await sys_->SendCtrlReliable(dst, t->origin)) {
      // The coordinator never learned of the grant: treat the site as
      // unreachable (the recorded grant is released on abort).
      ++round->unavailable;
    }
  } else {
    ++round->denied;
    co_await sys_->SendCtrlReliable(dst, t->origin);  // deny, best effort
  }
  round->done.Arrive();
}

sim::Task<bool> EagerProtocol::AcquireReplicaLocks(txn::Transaction* t,
                                                   db::ItemId item,
                                                   StatePtr st) {
  const core::SystemConfig& cfg = sys_->config();
  for (int attempt = 0;; ++attempt) {
    // Sites still missing the X lock (earlier rounds' grants are kept across
    // retries — only the denied sites are re-requested).
    std::vector<db::SiteId> targets;
    for (int s = 0; s < cfg.num_sites; ++s) {
      db::SiteId dst = static_cast<db::SiteId>(s);
      if (dst == t->origin || !cfg.HasReplica(item, dst)) continue;
      if (std::find(st->granted_remote.begin(), st->granted_remote.end(),
                    std::pair{dst, item}) == st->granted_remote.end()) {
        targets.push_back(dst);
      }
    }
    if (targets.empty()) co_return true;
    sys_->metrics().OnEagerLockRound(t->measured, attempt > 0);

    RoundState round(&sys_->sim(), static_cast<int>(targets.size()));
    auto start_leg = [this, t, item, st, &round](db::SiteId dst) {
      sys_->sim().Spawn(LockLeg(t, dst, item, st, &round));
    };
    co_await FanOutCtrl(t->origin, targets, start_leg);
    // Every leg is bounded (lock waits and reliable sends time out), so the
    // round wait needs no deadline and `round` can live on this frame.
    co_await round.done.Wait();

    if (round.unavailable > 0) {
      // Eager needs *all* replicas: an unreachable one is fatal, not
      // retryable — availability is the price of synchronous replication.
      st->fail_cause = txn::AbortCause::kUnavailable;
      co_return false;
    }
    if (round.denied == 0) co_return true;
    if (attempt >= kLockRetries) {
      st->fail_cause = txn::AbortCause::kLockTimeout;
      co_return false;
    }
    // Randomized exponential backoff breaks the symmetry of a distributed
    // deadlock: whichever rival backs off longer re-requests into queues the
    // other has already drained.
    co_await sys_->sim().Delay(st->rng.Uniform01() * kBackoffBase *
                               (1 << attempt));
  }
}

sim::Process EagerProtocol::Participant(txn::Transaction* t, db::SiteId dst,
                                        TwoPCPtr pc) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& site = sys_->site(dst);
  co_await site.cpu.Execute(cfg.message_instr);  // receive the PREPARE payload
  int idx = pc->IndexOf(dst);
  LAZYREP_CHECK(idx >= 0);
  const bool amnesia = sys_->amnesia();
  uint32_t epoch = amnesia ? sys_->SiteEpoch(dst) : 0;
  if (amnesia) {
    // The replica X locks granted during execution are volatile: a crash at
    // this site since the grant wiped them, and a rival may hold them now.
    // Voting YES without the locks would certify a serialization order this
    // site no longer enforces — vote NO by silence instead (never Arrive);
    // the coordinator's vote timeout presumes abort. Crashes after this
    // check are caught by the epoch comparison below.
    for (db::ItemId item : t->write_set) {
      if (cfg.HasReplica(item, dst) &&
          !site.locks.Holds(t->id, item, LockMode::kExclusive)) {
        site.locks.ReleaseAll(t->id);
        co_return;
      }
    }
  }
  // Process the write set into the prepare log record and force it: the YES
  // vote must survive a crash.
  size_t prepare_pages = 0;
  for (db::ItemId item : t->write_set) {
    if (cfg.HasReplica(item, dst)) {
      co_await site.cpu.Execute(cfg.op_instr);
      ++prepare_pages;
    }
  }
  if (amnesia) {
    fault::SiteWal* w = sys_->wal(dst);
    w->Append(fault::WalRecordType::kPrepare,
              prepare_pages * cfg.item_bytes);
    if (!co_await w->Force() || sys_->SiteEpoch(dst) != epoch) {
      // Crashed before the prepare record was durable: never voted, not in
      // doubt. The coordinator's vote timeout presumes abort.
      co_return;
    }
    w->MarkPrepared(t->id);  // in doubt: X locks now survive a crash
  } else {
    co_await site.disk.ForceLog(cfg.log_bytes);
  }

  // Vote YES. From here the participant is in doubt: it no longer has the
  // right to abort unilaterally and blocks holding its X locks.
  sim::SimTime vote_at = sys_->sim().Now();
  sys_->TraceEvent(trace::EventType::kVote, *t, dst, 0, 1);
  if (co_await sys_->SendCtrlReliable(dst, t->origin)) {
    pc->votes.Arrive();  // only a *delivered* YES counts
  }
  co_await pc->outcome[idx]->Wait();
  sys_->metrics().OnEagerInDoubt(t->measured, sys_->sim().Now() - vote_at);
  // A crash during the doubt window lost everything volatile *except* this
  // transaction: the prepare record re-established it during replay, and
  // the outcome now in hand is exactly the log-inspection resolution.
  const bool crashed_in_doubt = amnesia && sys_->SiteEpoch(dst) != epoch;
  if (crashed_in_doubt) sys_->NoteInDoubtResolved(pc->commit);

  if (pc->commit) {
    System::ConflictEdges edges = co_await sys_->ApplyWrites(dst, *t);
    if (amnesia) {
      fault::SiteWal* w = sys_->wal(dst);
      // The outcome must reach the log before the locks fall; a crash
      // mid-force re-enters the doubt window (the outcome is already known,
      // so just force again after the wipe).
      for (;;) {
        for (db::ItemId item : t->write_set) {
          if (cfg.HasReplica(item, dst)) {
            w->Append(fault::WalRecordType::kItemWrite, cfg.item_bytes);
          }
        }
        w->Append(fault::WalRecordType::kOutcome, 0);
        if (co_await w->Force()) break;
      }
      w->MarkDecided(t->id);
    } else {
      co_await site.disk.ForceLog(cfg.log_bytes);
    }
    site.locks.ReleaseAll(t->id);
    // COMMIT-ACK, carrying this site's conflict predecessors; the tracker
    // learns the subtransaction commit when the ack lands at the origin.
    co_await sys_->SendCtrlAssured(dst, t->origin);
    sys_->DeliverEdges(edges);
    sys_->tracker().OnSubtxnCommitted(t->id);
  } else {
    // Presumed abort: release and forget, no ack. The abort outcome is not
    // forced (presumed abort never needs it on disk).
    if (amnesia) sys_->wal(dst)->MarkDecided(t->id);
    site.locks.ReleaseAll(t->id);
  }
}

sim::Process EagerProtocol::BroadcastOutcome(db::SiteId origin, TwoPCPtr pc) {
  auto start_leg = [this, origin, pc](db::SiteId dst) {
    int idx = pc->IndexOf(dst);
    if (pc->prepared[idx]) sys_->sim().Spawn(OutcomeLeg(origin, pc, idx));
  };
  co_await FanOutCtrl(origin, pc->targets, start_leg);
}

sim::Process EagerProtocol::OutcomeLeg(db::SiteId origin, TwoPCPtr pc,
                                       int idx) {
  co_await Reached(origin, pc->targets[idx], Retry::kForever);
  pc->outcome[idx]->Fire(WaitStatus::kSignaled);
}

void EagerProtocol::AbortNow(txn::Transaction* t, StatePtr st,
                             txn::AbortCause cause) {
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  if (!st->granted_remote.empty()) {
    sys_->sim().Spawn(
        ReleaseRemote(t->origin, t->id, std::move(st->granted_remote)));
    st->granted_remote.clear();
  }
  sys_->NoteAborted(t, cause);
}

sim::Process EagerProtocol::ReleaseRemote(
    db::SiteId origin, db::TxnId id,
    std::vector<std::pair<db::SiteId, db::ItemId>> granted) {
  // One assured notice per distinct site; ReleaseAll there drops every X
  // lock the transaction holds. The release must eventually arrive or the
  // locks are stuck: retry forever.
  std::vector<db::SiteId> sites;
  for (const auto& [s, item] : granted) {
    if (std::find(sites.begin(), sites.end(), s) == sites.end()) {
      sites.push_back(s);
    }
  }
  for (db::SiteId s : sites) {
    co_await sys_->SendCtrlAssured(origin, s);
    sys_->site(s).locks.ReleaseAll(id);
  }
}

sim::Process EagerProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  auto st = std::make_shared<ExecState>(
      sim::RandomStream(cfg.seed ^ (0x9e3779b97f4a7c15ULL * t->id)));

  // Operations execute strictly in order; a write's replica X locks are
  // acquired synchronously before the next operation starts (the textbook
  // eager discipline — no pipelined dispatch).
  for (int i = 0; i < t->num_ops(); ++i) {
    const db::Operation& op = t->ops[i];
    LockMode mode = op.type == db::OpType::kWrite ? LockMode::kExclusive
                                                  : LockMode::kShared;
    WaitStatus s =
        co_await origin.locks.Acquire(t->id, op.item, mode, cfg.timeout);
    if (s != WaitStatus::kSignaled) {
      AbortNow(t, st, txn::AbortCause::kLockTimeout);
      co_return;
    }
    co_await sys_->ExecuteOpCost(t->origin);
    if (op.type == db::OpType::kWrite) {
      if (!co_await AcquireReplicaLocks(t, op.item, st)) {
        AbortNow(t, st, st->fail_cause);
        co_return;
      }
    } else {
      ReadAtOrigin(t, op.item, &st->edges);
    }
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state — it must not commit (or coordinate a 2PC) on what
  // did not survive.
  if (sys_->LostToCrash(*t)) {
    AbortNow(t, st, txn::AbortCause::kSiteFailure);
    co_return;
  }

  std::vector<db::SiteId> targets;
  if (t->is_update) targets = sys_->ReplicaTargets(*t, t->origin);
  if (targets.empty()) {
    // Entirely local — read-only, or an update whose items have no other
    // replica: commit, release (strict 2PL holds to commit, not to
    // completion — the tracker's wr edges order completions instead).
    if (t->is_update) {
      sys_->StampCommitTimestamp(t);
      if (!co_await ApplyAtOrigin(t)) {
        AbortNow(t, st, txn::AbortCause::kSiteFailure);
        co_return;
      }
    }
    sys_->NoteCommitted(t);
    origin.locks.ReleaseAll(t->id);
    sys_->DeliverEdges(st->edges);
    sys_->tracker().OnSubtxnCommitted(t->id);
    co_return;
  }

  // -- 2PC: PREPARE / VOTE ---------------------------------------------------
  auto pc = std::make_shared<TwoPC>(&sys_->sim(), std::move(targets));
  sys_->metrics().OnEagerPrepare(t->measured);
  sys_->TraceEvent(trace::EventType::kPrepare, *t, t->origin, 0,
                   pc->targets.size());
  size_t bytes =
      cfg.propagation_overhead_bytes + t->write_set.size() * cfg.item_bytes;
  // A target is prepared once its PREPARE is certain to land: all at once
  // when faults are off, else as each copy lands. A copy that exhausts its
  // retries leaves its target unprepared, voteless; the vote timeout then
  // presumes abort.
  auto on_prepare = [this, t, pc](db::SiteId dst) {
    int idx = pc->IndexOf(dst);
    // Landed after the coordinator presumed abort (a commit cannot be
    // decided while a PREPARE is outstanding — it needs every vote), so the
    // decision-time broadcast missed this target: send its outcome now.
    const bool late = pc->decided && !pc->prepared[idx];
    pc->prepared[idx] = 1;
    sys_->sim().Spawn(Participant(t, dst, pc));
    if (late) sys_->sim().Spawn(OutcomeLeg(t->origin, pc, idx));
  };
  if (co_await FanOutPayload(t->origin, pc->targets, bytes, Retry::kBounded,
                             on_prepare)) {
    std::fill(pc->prepared.begin(), pc->prepared.end(), 1);
  }
  WaitStatus vs = co_await pc->votes.Wait(cfg.EagerVoteTimeout());

  // Coordinator crash during the vote collection: the transaction's state
  // (and any unforced commit record) is gone, so the decision falls to
  // presumed abort — exactly what a recovering coordinator's log inspection
  // would conclude, since no commit record survives.
  if (sys_->LostToCrash(*t)) {
    PresumeAbort(t, st, pc, txn::AbortCause::kSiteFailure);
    co_return;
  }

  if (vs == WaitStatus::kSignaled) {
    // Unanimous YES: commit. All writers of these items serialized behind
    // this transaction's X locks, so TWR timestamps are monotone here — no
    // stale-write certification is needed.
    sys_->StampCommitTimestamp(t);
    // Commit decision record (redo images + commit + outcome) must be
    // durable before the store mutates; losing the force to a crash means
    // no commit record survives — presumed abort, like the crash above.
    if (sys_->amnesia()) {
      sys_->wal(t->origin)->Append(fault::WalRecordType::kOutcome, 0);
    }
    if (!co_await ApplyAtOrigin(t)) {
      PresumeAbort(t, st, pc, txn::AbortCause::kSiteFailure);
      co_return;
    }
    sys_->NoteCommitted(t);
    origin.locks.ReleaseAll(t->id);
    sys_->DeliverEdges(st->edges);
    pc->commit = true;
    pc->decided = true;
    sys_->sim().Spawn(BroadcastOutcome(t->origin, pc));
    sys_->tracker().OnSubtxnCommitted(t->id);
    co_return;
  }

  // Vote collection timed out (lost votes, a crashed or overloaded
  // participant): presumed abort.
  sys_->metrics().OnEagerVoteTimeout(t->measured);
  PresumeAbort(t, st, pc, txn::AbortCause::kUnavailable);
}

void EagerProtocol::PresumeAbort(txn::Transaction* t, const StatePtr& st,
                                 const TwoPCPtr& pc, txn::AbortCause cause) {
  pc->decided = true;
  pc->commit = false;
  sys_->sim().Spawn(BroadcastOutcome(t->origin, pc));
  // Prepared participants release through their abort outcome (they hold
  // the right to the locks until then); only unprepared sites' grants are
  // released directly.
  std::erase_if(st->granted_remote,
                [&](const std::pair<db::SiteId, db::ItemId>& p) {
                  int idx = pc->IndexOf(p.first);
                  return idx >= 0 && pc->prepared[idx];
                });
  AbortNow(t, st, cause);
}

}  // namespace lazyrep::proto
