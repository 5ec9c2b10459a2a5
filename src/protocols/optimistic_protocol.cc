#include "protocols/optimistic_protocol.h"

#include <utility>
#include <vector>

#include "sim/check.h"

namespace lazyrep::proto {

using core::System;
using db::LockMode;
using sim::WaitStatus;

void OptimisticProtocol::OnRegister(txn::Transaction* t) {
  int remaining = 1;
  if (t->is_update) {
    remaining += static_cast<int>(sys_->ReplicaTargets(*t, t->origin).size());
  }
  sys_->tracker().SetRemainingCommits(t->id, remaining);
}

sim::Process OptimisticProtocol::Installer(txn::Transaction* t,
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

  co_await sys_->SendCtrlAssured(dst, sys_->graph_endpoint());
  co_await sys_->graph_site()->ChargeMessages(1);
  sys_->DeliverEdges(edges);
  sys_->tracker().OnSubtxnCommitted(t->id);
}

sim::Process OptimisticProtocol::PropagateAndInstall(txn::Transaction* t,
                                                     db::SiteId dst,
                                                     size_t bytes) {
  co_await sys_->SendPayloadAssured(t->origin, dst, bytes);
  sys_->sim().Spawn(Installer(t, dst));
}

sim::Process OptimisticProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  System::ConflictEdges edges;

  // Phase 1: execute every operation locally, under local strict 2PL,
  // maintaining the access set (§2.5 step 2).
  const bool lock_free_reads = cfg.two_version_reads && !t->is_update;
  System::ReadVersions read_versions;
  for (const db::Operation& op : t->ops) {
    LockMode mode = op.type == db::OpType::kRead ? LockMode::kShared
                                                 : LockMode::kUpdate;
    WaitStatus ls = lock_free_reads
                        ? WaitStatus::kSignaled  // two-version: readers
                                                 // never block (§4.3)
                        : co_await origin.locks.Acquire(t->id, op.item, mode,
                                                        cfg.timeout);
    if (ls != WaitStatus::kSignaled) {
      // Local deadlock timeout: abort. The graph site was never contacted.
      origin.locks.ReleaseAll(t->id);
      sys_->NoteAborted(t, txn::AbortCause::kLockTimeout);
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
        edges.emplace_back(t->id, version.txn);
      }
      if (lock_free_reads) read_versions.emplace_back(op.item, version);
    }
  }

  // Two-version read validation: abort an already-inconsistent read set
  // before paying the graph round trip (the check the forsaken read locks
  // used to provide); rechecked at the commit point below.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    origin.locks.ReleaseAll(t->id);
    sys_->NoteAborted(t, txn::AbortCause::kTornRead);
    co_return;
  }

  // The instant the transaction is ready to commit locally (all operations
  // done): reference point for the read-only response convention below.
  sim::SimTime local_ready = sys_->sim().Now();

  // Phase 2: the only graph-site coordination — RGtest at commit (step 4).
  rg::Verdict v;
  if (!co_await sys_->SendCtrlReliable(t->origin, sys_->graph_endpoint())) {
    v = rg::Verdict::kUnavailable;  // request never reached the graph site
  } else {
    v = co_await sys_->graph_site()->TestCommit(t->id, t->origin, t->is_update,
                                                t->ops);
    if (!co_await sys_->SendCtrlReliable(sys_->graph_endpoint(), t->origin)) {
      v = rg::Verdict::kUnavailable;  // verdict reply lost: must abort
    }
  }
  sys_->TraceEvent(trace::EventType::kGraphTest, *t, sys_->graph_endpoint(),
                   0, static_cast<uint64_t>(v));

  if (v != rg::Verdict::kOk) {
    origin.locks.ReleaseAll(t->id);
    txn::AbortCause cause =
        v == rg::Verdict::kUnavailable ? txn::AbortCause::kUnavailable
        : v == rg::Verdict::kRejected  ? txn::AbortCause::kGraphRejected
                                       : txn::AbortCause::kGraphAbort;
    sys_->NoteAborted(t, cause);
    if (v == rg::Verdict::kUnavailable) {
      // The graph site may still carry the transaction (a lost reply after
      // an OK verdict): make sure it is removed once reachable again.
      struct Remover {
        static sim::Process Run(core::System* sys, db::SiteId origin,
                                db::TxnId id) {
          co_await sys->SendCtrlAssured(origin, sys->graph_endpoint());
          co_await sys->graph_site()->HandleRemove(id);
        }
      };
      sys_->sim().Spawn(Remover::Run(sys_, t->origin, t->id));
    }
    co_return;
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state. The graph site may still carry the node (the OK
  // verdict landed), so ask it to drop us once reachable.
  if (sys_->LostToCrash(*t)) {
    origin.locks.ReleaseAll(t->id);
    sys_->NoteAborted(t, txn::AbortCause::kSiteFailure);
    struct Remover {
      static sim::Process Run(core::System* sys, db::SiteId from,
                              db::TxnId id) {
        co_await sys->SendCtrlAssured(from, sys->graph_endpoint());
        co_await sys->graph_site()->HandleRemove(id);
      }
    };
    sys_->sim().Spawn(Remover::Run(sys_, t->origin, t->id));
    co_return;
  }

  sys_->StampCommitTimestamp(t);
  // A write masked by a terminal newer writer cannot serialize: abort
  // ("timestamp too old") and tell the graph site to drop us.
  if (t->is_update && sys_->HasStaleWriteVsTerminal(*t)) {
    origin.locks.ReleaseAll(t->id);
    sys_->NoteAborted(t, txn::AbortCause::kStaleWrite);
    struct Remover {
      static sim::Process Run(core::System* sys, db::TxnId id) {
        co_await sys->SendCtrlAssured(sys->FindTxn(id)->origin,
                                      sys->graph_endpoint());
        co_await sys->graph_site()->HandleRemove(id);
      }
    };
    sys_->sim().Spawn(Remover::Run(sys_, t->id));
    co_return;
  }
  // Two-version commit-point revalidation: the graph round trip left the
  // reader's versions unpinned (no read locks), so an install landing
  // meanwhile can turn the view into an inconsistent multi-writer cut the
  // RGtest never saw. Abort and tell the graph site to drop us.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    origin.locks.ReleaseAll(t->id);
    sys_->NoteAborted(t, txn::AbortCause::kTornRead);
    struct Remover {
      static sim::Process Run(core::System* sys, db::SiteId origin,
                              db::TxnId id) {
        co_await sys->SendCtrlAssured(origin, sys->graph_endpoint());
        co_await sys->graph_site()->HandleRemove(id);
      }
    };
    sys_->sim().Spawn(Remover::Run(sys_, t->origin, t->id));
    co_return;
  }
  if (t->is_update) {
    if (sys_->amnesia()) {
      // WAL discipline: redo + commit records durable before the store
      // mutates; a crash mid-force aborts with nothing applied.
      if (!co_await sys_->ForceCommitRecord(t)) {
        origin.locks.ReleaseAll(t->id);
        sys_->NoteAborted(t, txn::AbortCause::kSiteFailure);
        struct Remover {
          static sim::Process Run(core::System* sys, db::SiteId from,
                                  db::TxnId id) {
            co_await sys->SendCtrlAssured(from, sys->graph_endpoint());
            co_await sys->graph_site()->HandleRemove(id);
          }
        };
        sys_->sim().Spawn(Remover::Run(sys_, t->origin, t->id));
        co_return;
      }
      // Origin apply: conflict edges deliver instantly (co-located parties).
      co_await sys_->ApplyWrites(t->origin, *t, /*at_origin=*/true);
    } else {
      // Origin apply: conflict edges deliver instantly (co-located parties).
      co_await sys_->ApplyWrites(t->origin, *t, /*at_origin=*/true);
      co_await origin.disk.ForceLog(cfg.log_bytes);  // read-only commits
    }                                                // write no redo records
  }
  // Response-time convention for read-only transactions (see DESIGN.md):
  // the paper's Fig 9 ratios (optimistic better than locking/pessimistic by
  // 7.7x/6.1x on OC-1) imply read-only response was measured up to the
  // local commit point, not including the graph-site round trip. The
  // semantics are unchanged — the transaction still commits only after the
  // verdict — only the recorded response reference moves.
  if (!t->is_update && cfg.measure_ro_response_at_local_commit &&
      local_ready >= 0) {
    sys_->NoteCommitted(t, local_ready);
  } else {
    sys_->NoteCommitted(t);
  }
  origin.locks.ReleaseAll(t->id);

  // The OK reply doubles as the graph site's record of the origin commit:
  // nothing can fail after the verdict, so no extra message is needed
  // ("the only coordination required is at commit", §2.5). The bookkeeping
  // is applied once the origin-side commit is durable.
  if (t->is_update && sys_->graph_site()->graph()->Contains(t->id)) {
    sys_->graph_site()->graph()->MarkCommitted(t->id);
  }
  sys_->DeliverEdges(edges);
  sys_->tracker().OnSubtxnCommitted(t->id);

  if (t->is_update) {
    std::vector<db::SiteId> targets = sys_->ReplicaTargets(*t, t->origin);
    if (!targets.empty()) {
      size_t bytes = cfg.propagation_overhead_bytes +
                     t->write_set.size() * cfg.item_bytes;
      if (sys_->fault_enabled()) {
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
}

void OptimisticProtocol::OnCompleted(txn::Transaction* t) {
  struct Remover {
    static sim::Process Run(core::System* sys, db::TxnId id) {
      co_await sys->graph_site()->HandleRemove(id);
    }
  };
  sys_->sim().Spawn(Remover::Run(sys_, t->id));
  sys_->sim().Spawn(CompletionNotice(t->origin));
}

sim::Process OptimisticProtocol::CompletionNotice(db::SiteId origin) {
  co_await sys_->SendCtrlAssured(sys_->graph_endpoint(), origin);
}

}  // namespace lazyrep::proto
