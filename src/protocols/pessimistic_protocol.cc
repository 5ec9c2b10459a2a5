#include "protocols/pessimistic_protocol.h"

#include <utility>

#include "sim/check.h"

namespace lazyrep::proto {

using core::System;
using db::LockMode;
using sim::WaitStatus;

void PessimisticProtocol::OnRegister(txn::Transaction* t) {
  // A global (update) transaction commits at its origin plus every replica
  // target; a read-only transaction only at its origin.
  int remaining = 1;
  if (t->is_update) {
    remaining += static_cast<int>(sys_->ReplicaTargets(*t, t->origin).size());
  }
  sys_->tracker().SetRemainingCommits(t->id, remaining);
}

sim::Process PessimisticProtocol::OpTester(txn::Transaction* t, int index,
                                           StatePtr st) {
  if (!co_await sys_->SendCtrlReliable(t->origin, sys_->graph_endpoint())) {
    st->verdicts[index] = rg::Verdict::kUnavailable;
    sys_->TraceEvent(trace::EventType::kGraphTest, *t, sys_->graph_endpoint(),
                     t->ops[index].item,
                     static_cast<uint64_t>(rg::Verdict::kUnavailable));
    st->slots[index]->Fire(WaitStatus::kCancelled);
    co_return;
  }
  rg::Verdict v = co_await sys_->graph_site()->TestOperation(
      t->id, t->origin, t->is_update, t->ops[index]);
  if (!co_await sys_->SendCtrlReliable(sys_->graph_endpoint(), t->origin)) {
    v = rg::Verdict::kUnavailable;  // verdict reply never reached the origin
  }
  sys_->TraceEvent(trace::EventType::kGraphTest, *t, sys_->graph_endpoint(),
                   t->ops[index].item, static_cast<uint64_t>(v));
  st->verdicts[index] = v;
  st->slots[index]->Fire(v == rg::Verdict::kOk ? WaitStatus::kSignaled
                                               : WaitStatus::kCancelled);
}

void PessimisticProtocol::AbortLocal(txn::Transaction* t, StatePtr st,
                                     bool notify_graph,
                                     txn::AbortCause cause) {
  st->aborted = true;
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  sys_->NoteAborted(t, cause);
  if (notify_graph) {
    sys_->sim().Spawn(AbortNotice(t->id, t->origin));
  }
}

sim::Process PessimisticProtocol::AbortNotice(db::TxnId id,
                                              db::SiteId origin) {
  co_await sys_->SendCtrlAssured(origin, sys_->graph_endpoint());
  co_await sys_->graph_site()->HandleRemove(id);
}

sim::Process PessimisticProtocol::CommitNotice(txn::Transaction* t,
                                               StatePtr st) {
  co_await sys_->SendCtrlAssured(t->origin, sys_->graph_endpoint());
  co_await sys_->graph_site()->HandleCommitted(t->id);
  sys_->DeliverEdges(st->edges);
  sys_->tracker().OnSubtxnCommitted(t->id);
}

sim::Process PessimisticProtocol::Installer(txn::Transaction* t,
                                            db::SiteId dst) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& site = sys_->site(dst);
  co_await site.cpu.Execute(cfg.message_instr);

  const bool amnesia = sys_->amnesia();
  uint32_t epoch = amnesia ? sys_->SiteEpoch(dst) : 0;
  System::ConflictEdges edges;
  for (;;) {
    if (amnesia && sys_->SiteEpoch(dst) != epoch) {
      // dst crashed since the payload arrived (see LockingProtocol's
      // installer): wait out the replay, re-ship, re-install.
      co_await sys_->AwaitServing(dst);
      co_await sys_->SendCtrlAssured(dst, t->origin);  // catch-up request
      size_t bytes = cfg.propagation_overhead_bytes +
                     t->write_set.size() * cfg.item_bytes;
      co_await sys_->SendPayloadAssured(t->origin, dst, bytes);
      co_await site.cpu.Execute(cfg.message_instr);  // receive again
      epoch = sys_->SiteEpoch(dst);
      sys_->NoteCatchupInstall();
      continue;
    }

    // Locks held: update locks on the replica items of write_set[0, next).
    size_t next = 0;
    bool locked = true;
    while (next < t->write_set.size()) {
      db::ItemId item = t->write_set[next];
      if (!cfg.HasReplica(item, dst)) {
        ++next;
        continue;
      }
      WaitStatus s = co_await site.locks.Acquire(t->id, item,
                                                 LockMode::kUpdate,
                                                 cfg.timeout);
      if (s == WaitStatus::kSignaled) {
        ++next;
        continue;
      }
      sys_->ReleaseInstallLocks(dst, *t, next);
      if (amnesia && sys_->SiteEpoch(dst) != epoch) {
        locked = false;  // crash mid-acquisition: back to catch-up
        break;
      }
      next = 0;  // local deadlock: restart the subtransaction
    }
    if (!locked) continue;

    for (db::ItemId item : t->write_set) {
      if (cfg.HasReplica(item, dst)) co_await site.cpu.Execute(cfg.op_instr);
    }
    edges = co_await sys_->ApplyWrites(dst, *t);
    if (amnesia) {
      fault::SiteWal* w = sys_->wal(dst);
      for (db::ItemId item : t->write_set) {
        if (cfg.HasReplica(item, dst)) {
          w->Append(fault::WalRecordType::kItemWrite, cfg.item_bytes);
        }
      }
      w->Append(fault::WalRecordType::kReceipt, 0);
      bool durable = co_await w->Force();
      sys_->ReleaseInstallLocks(dst, *t, next);
      if (!durable || sys_->SiteEpoch(dst) != epoch) continue;
    } else {
      co_await site.disk.ForceLog(cfg.log_bytes);
      sys_->ReleaseInstallLocks(dst, *t, next);
    }
    break;
  }

  // Ack to the graph site: carries this site's conflict predecessors and the
  // subtransaction commit.
  co_await sys_->SendCtrlAssured(dst, sys_->graph_endpoint());
  co_await sys_->graph_site()->ChargeMessages(1);
  sys_->DeliverEdges(edges);
  sys_->tracker().OnSubtxnCommitted(t->id);
}

sim::Process PessimisticProtocol::PropagateAndInstall(txn::Transaction* t,
                                                      db::SiteId dst,
                                                      size_t bytes) {
  co_await sys_->SendPayloadAssured(t->origin, dst, bytes);
  sys_->sim().Spawn(Installer(t, dst));
}

sim::Process PessimisticProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  auto st = std::make_shared<ExecState>(t->num_ops());
  System::ReadVersions read_versions;
  const bool lock_free_reads = cfg.two_version_reads && !t->is_update;
  st->slots.reserve(t->num_ops());
  for (int i = 0; i < t->num_ops(); ++i) {
    st->slots.push_back(std::make_unique<sim::OneShot>(&sys_->sim()));
  }
  if (cfg.pipelined_dispatch) {
    for (int i = 0; i < t->num_ops(); ++i) {
      sys_->sim().Spawn(OpTester(t, i, st));
    }
  }

  for (int i = 0; i < t->num_ops(); ++i) {
    if (!cfg.pipelined_dispatch) sys_->sim().Spawn(OpTester(t, i, st));
    co_await st->slots[i]->Wait();
    if (st->verdicts[i] != rg::Verdict::kOk) {
      // kUnavailable: the graph site may still carry us (the request or its
      // reply was lost), so send an assured remove. Every other verdict
      // means the graph site already removed us: local cleanup only.
      bool unavailable = st->verdicts[i] == rg::Verdict::kUnavailable;
      txn::AbortCause cause =
          unavailable ? txn::AbortCause::kUnavailable
          : st->verdicts[i] == rg::Verdict::kRejected
              ? txn::AbortCause::kGraphRejected
              : txn::AbortCause::kGraphAbort;
      AbortLocal(t, st, /*notify_graph=*/unavailable, cause);
      co_return;
    }
    const db::Operation& op = t->ops[i];
    LockMode mode = op.type == db::OpType::kRead ? LockMode::kShared
                                                 : LockMode::kUpdate;
    WaitStatus ls = lock_free_reads
                        ? WaitStatus::kSignaled  // two-version readers
                        : co_await origin.locks.Acquire(t->id, op.item, mode,
                                                        cfg.timeout);
    if (ls != WaitStatus::kSignaled) {
      AbortLocal(t, st, /*notify_graph=*/true, txn::AbortCause::kLockTimeout);
      co_return;
    }
    co_await sys_->ExecuteOpCost(t->origin);
    if (op.type == db::OpType::kRead) {
      db::Timestamp version = origin.store.Read(op.item, t->id);
      if (sys_->history() != nullptr) {
        sys_->history()->RecordRead(t->id, op.item, version);
      }
      sys_->TraceRead(*t, op.item, version);
      if (version.txn != db::kNoTxn) {
        st->edges.emplace_back(t->id, version.txn);
      }
      if (lock_free_reads) read_versions.emplace_back(op.item, version);
    }
  }

  // Two-version read validation (§4.3 exploration): commit-point
  // revalidation — every version read must still be current here, else the
  // unpinned view may mix writers into an inconsistent cut.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    AbortLocal(t, st, /*notify_graph=*/true, txn::AbortCause::kTornRead);
    co_return;
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state — abort and let the graph site GC its node.
  if (sys_->LostToCrash(*t)) {
    AbortLocal(t, st, /*notify_graph=*/true, txn::AbortCause::kSiteFailure);
    co_return;
  }

  sys_->StampCommitTimestamp(t);
  // Commit at the origination site. A write masked by a terminal newer
  // writer cannot serialize anywhere: abort ("timestamp too old").
  if (t->is_update) {
    if (sys_->HasStaleWriteVsTerminal(*t)) {
      AbortLocal(t, st, /*notify_graph=*/true, txn::AbortCause::kStaleWrite);
      co_return;
    }
    if (sys_->amnesia()) {
      // WAL discipline: redo + commit records durable before the store
      // mutates; a crash mid-force aborts with nothing applied.
      if (!co_await sys_->ForceCommitRecord(t)) {
        AbortLocal(t, st, /*notify_graph=*/true,
                   txn::AbortCause::kSiteFailure);
        co_return;
      }
      co_await sys_->ApplyWrites(t->origin, *t, /*at_origin=*/true);
    } else {
      // Conflict edges from the origin apply deliver instantly: every party
      // (co-owners by the ownership rule, local readers) executes here.
      co_await sys_->ApplyWrites(t->origin, *t, /*at_origin=*/true);
      co_await origin.disk.ForceLog(cfg.log_bytes);  // read-only commits
    }                                                // write no redo records
  }
  sys_->NoteCommitted(t);

  // Strict 2PL at the local DBMS: locks fall at local commit (the
  // replication graph, not retained locks, guards global serializability).
  origin.locks.ReleaseAll(t->id);

  sys_->sim().Spawn(CommitNotice(t, st));

  if (t->is_update) {
    std::vector<db::SiteId> targets = sys_->ReplicaTargets(*t, t->origin);
    if (!targets.empty()) {
      size_t bytes = cfg.propagation_overhead_bytes +
                     t->write_set.size() * cfg.item_bytes;
      if (sys_->fault_enabled()) {
        // Per-target reliable delivery: a lost multicast leg must be
        // retransmitted point-to-point anyway, so fault mode sends each
        // target its own assured payload.
        for (db::SiteId dst : targets) {
          sys_->sim().Spawn(PropagateAndInstall(t, dst, bytes));
        }
      } else {
        co_await origin.cpu.Execute(cfg.message_instr);
        co_await sys_->network().Multicast(
            t->origin, targets, bytes, [this, t](db::SiteId dst) {
              sys_->sim().Spawn(Installer(t, dst));
            });
      }
    }
  }
  // Completion is detected at the graph site (tracker); nothing to hold here.
}

void PessimisticProtocol::OnCompleted(txn::Transaction* t) {
  // Split rule + retests at the graph site, then a completion notice to the
  // origination site.
  struct Remover {
    static sim::Process Run(core::System* sys, db::TxnId id) {
      co_await sys->graph_site()->HandleRemove(id);
    }
  };
  sys_->sim().Spawn(Remover::Run(sys_, t->id));
  sys_->sim().Spawn(CompletionNotice(t->origin));
}

sim::Process PessimisticProtocol::CompletionNotice(db::SiteId origin) {
  co_await sys_->SendCtrlAssured(sys_->graph_endpoint(), origin);
}

}  // namespace lazyrep::proto
