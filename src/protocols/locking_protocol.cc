#include "protocols/locking_protocol.h"

#include <utility>

namespace lazyrep::proto {

using core::System;
using db::LockMode;
using sim::WaitStatus;

void LockingProtocol::OnRegister(txn::Transaction* t) {
  // The origination site coordinates its own transaction's completion; the
  // remote installs are gathered through acks before the single
  // OnSubtxnCommitted, so one commit unit suffices.
  sys_->tracker().SetRemainingCommits(t->id, 1);
}

sim::Process LockingProtocol::FetchLock(txn::Transaction* t, int index,
                                        StatePtr st) {
  const db::Operation op = t->ops[index];
  db::SiteId origin = t->origin;
  db::SiteId primary = sys_->config().PrimarySite(op.item);
  WaitStatus status;
  if (op.type == db::OpType::kWrite || primary == origin) {
    // A write's primary-copy update lock is at the origin (ownership rule),
    // as is the read lock of an item the origin owns.
    LockMode mode = op.type == db::OpType::kWrite ? LockMode::kUpdate
                                                  : LockMode::kShared;
    status = co_await sys_->site(origin).locks.Acquire(t->id, op.item, mode,
                                                       sys_->config().timeout);
    if (status == WaitStatus::kSignaled && st->aborted) {
      // Granted after the transaction aborted (AbortNow already released
      // everything else): give the lock back immediately.
      sys_->site(origin).locks.Release(t->id, op.item);
      status = WaitStatus::kCancelled;
    }
  } else {
    // Relay the read-lock request to the primary site (§2.2).
    sys_->TraceEvent(trace::EventType::kRemoteRead, *t, primary, op.item,
                     origin);
    if (!co_await sys_->SendCtrlReliable(origin, primary)) {
      st->fail_cause = txn::AbortCause::kUnavailable;
      status = WaitStatus::kCancelled;
    } else {
      status = co_await sys_->site(primary).locks.Acquire(
          t->id, op.item, LockMode::kShared, sys_->config().timeout);
      if (status == WaitStatus::kSignaled) {
        if (st->aborted) {
          // The transaction died while we were acquiring: give it back.
          sys_->site(primary).locks.Release(t->id, op.item);
          status = WaitStatus::kCancelled;
        } else {
          // Record the grant before the reply leg: if the grant message
          // never arrives, ReleaseRemoteReads still knows to clean it up.
          st->granted_remote_reads.emplace_back(primary, op.item);
          if (!co_await sys_->SendCtrlReliable(primary, origin)) {
            st->fail_cause = txn::AbortCause::kUnavailable;
            status = WaitStatus::kCancelled;
          }
        }
      }
    }
  }
  st->statuses[index] = status;
  st->grants[index]->Fire(status == WaitStatus::kSignaled
                              ? WaitStatus::kSignaled
                              : WaitStatus::kCancelled);
}

void LockingProtocol::AbortNow(txn::Transaction* t, StatePtr st,
                               txn::AbortCause cause) {
  st->aborted = true;
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  if (!st->granted_remote_reads.empty()) {
    sys_->sim().Spawn(ReleaseRemoteReads(
        t->origin, t->id, std::move(st->granted_remote_reads)));
    st->granted_remote_reads.clear();
  }
  sys_->NoteAborted(t, cause);
}

sim::Process LockingProtocol::ReleaseRemoteReads(
    db::SiteId origin, db::TxnId id,
    std::vector<std::pair<db::SiteId, db::ItemId>> granted) {
  // Group per site would batch messages; individual releases are rare enough
  // (abort path only) that one control message per lock is acceptable. The
  // release must eventually arrive or the lock is stuck: retry forever.
  for (const auto& [primary, item] : granted) {
    co_await sys_->SendCtrlAssured(origin, primary);
    sys_->site(primary).locks.Release(id, item);
  }
}

sim::Process LockingProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  auto st = std::make_shared<ExecState>(t->num_ops());
  // §4.3 exploration: two-version readers skip read locks entirely. Unlike
  // the replication-graph protocols (whose RGtests still guard the reads),
  // the locking protocol then has no global serializability guard for
  // read-only transactions — the paper conjectures the replication-graph
  // approach benefits more from multiversioning, and this is why.
  const bool lock_free_reads = cfg.two_version_reads && !t->is_update;
  System::ReadVersions read_versions;
  st->grants.reserve(t->num_ops());
  for (int i = 0; i < t->num_ops(); ++i) {
    st->grants.push_back(std::make_unique<sim::OneShot>(&sys_->sim()));
  }
  if (cfg.pipelined_dispatch && !lock_free_reads) {
    for (int i = 0; i < t->num_ops(); ++i) {
      sys_->sim().Spawn(FetchLock(t, i, st));
    }
  }

  for (int i = 0; i < t->num_ops(); ++i) {
    if (lock_free_reads) {
      st->statuses[i] = WaitStatus::kSignaled;
      st->grants[i]->Fire(WaitStatus::kSignaled);
    } else if (!cfg.pipelined_dispatch) {
      sys_->sim().Spawn(FetchLock(t, i, st));
    }
    co_await st->grants[i]->Wait();
    if (st->statuses[i] != WaitStatus::kSignaled) {
      AbortNow(t, st, st->fail_cause);
      co_return;
    }
    const db::Operation& op = t->ops[i];
    if (op.type == db::OpType::kRead && !lock_free_reads &&
        cfg.PrimarySite(op.item) != t->origin) {
      // Local DBMS read lock at the origination site (serializes against
      // incoming replica installations).
      WaitStatus ls = co_await origin.locks.Acquire(
          t->id, op.item, LockMode::kShared, cfg.timeout);
      if (ls != WaitStatus::kSignaled) {
        AbortNow(t, st, txn::AbortCause::kLockTimeout);
        co_return;
      }
    }
    co_await sys_->ExecuteOpCost(t->origin);
    if (op.type == db::OpType::kRead) {
      // Lock-free readers stay out of the completion dependency graph: with
      // no global guard their stale reads can close a dependency cycle
      // (reader waits on a read-from writer whose ww-predecessor waits on
      // the reader) and deadlock the completion fixpoint. They read the
      // version unregistered and record no wr edge — the MVSG recorder
      // still sees the read, so the lost guarantee stays measurable.
      db::Timestamp version =
          ReadAtOrigin(t, op.item, lock_free_reads ? nullptr : &st->edges);
      if (lock_free_reads) read_versions.emplace_back(op.item, version);
    }
  }

  // Two-version read validation (§4.3 exploration): abort on torn reads.
  // Note this guards only single-writer tears; without the replication
  // graph, multi-writer read anomalies remain possible — the reason the
  // paper expects multiversioning to favor the graph protocols.
  if (lock_free_reads && sys_->HasTornReads(read_versions)) {
    AbortNow(t, st, txn::AbortCause::kTornRead);
    co_return;
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state — it must not commit on what did not survive.
  if (sys_->LostToCrash(*t)) {
    AbortNow(t, st, txn::AbortCause::kSiteFailure);
    co_return;
  }

  sys_->StampCommitTimestamp(t);
  // Commit at the origination site. A write masked by a *terminal* newer
  // writer cannot serialize anywhere (its timestamp is too old): abort.
  if (t->is_update) {
    if (sys_->HasStaleWriteVsTerminal(*t)) {
      AbortNow(t, st, txn::AbortCause::kStaleWrite);
      co_return;
    }
    // Apply under the held update locks.
    if (!co_await ApplyAtOrigin(t)) {
      AbortNow(t, st, txn::AbortCause::kSiteFailure);
      co_return;
    }
  }
  sys_->NoteCommitted(t);
  sys_->DeliverEdges(st->edges);

  if (t->is_update) {
    co_await PropagateWrites(t, AckTo::kOrigin);
    // All replicas updated: the primary-copy update locks may fall (§2.2).
    for (db::ItemId item : t->write_set) {
      origin.locks.Release(t->id, item);
    }
  }

  // Create the completion shot before reporting the commit: with no pending
  // predecessors the tracker completes the transaction synchronously, and
  // the pre-fired shot then falls straight through the wait.
  sim::OneShot* completed = sys_->CompletionShotFor(t->id);
  sys_->tracker().OnSubtxnCommitted(t->id);
  // Read locks are retained until the transaction completes [6]; completion
  // fires the shot, and OnCompleted releases the locks.
  co_await completed->Wait();
}

}  // namespace lazyrep::proto
