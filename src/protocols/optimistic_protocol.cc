#include "protocols/optimistic_protocol.h"

namespace lazyrep::proto {

using core::System;
using db::LockMode;
using sim::WaitStatus;

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
      AbortGraphTxn(t, txn::AbortCause::kLockTimeout, /*notify_graph=*/false);
      co_return;
    }
    co_await sys_->ExecuteOpCost(t->origin);
    if (op.type == db::OpType::kRead) {
      db::Timestamp version = ReadAtOrigin(t, op.item, &edges);
      if (lock_free_reads) read_versions.emplace_back(op.item, version);
    }
  }

  // Two-version read validation: abort an already-inconsistent read set
  // before paying the graph round trip (the check the forsaken read locks
  // used to provide); rechecked at the commit point below.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    AbortGraphTxn(t, txn::AbortCause::kTornRead, /*notify_graph=*/false);
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
    txn::AbortCause cause =
        v == rg::Verdict::kUnavailable ? txn::AbortCause::kUnavailable
        : v == rg::Verdict::kRejected  ? txn::AbortCause::kGraphRejected
                                       : txn::AbortCause::kGraphAbort;
    // After kUnavailable the graph site may still carry the transaction (a
    // lost reply after an OK verdict): make sure it is removed once
    // reachable again.
    AbortGraphTxn(t, cause,
                  /*notify_graph=*/v == rg::Verdict::kUnavailable);
    co_return;
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state. The graph site may still carry the node (the OK
  // verdict landed), so ask it to drop us once reachable.
  if (sys_->LostToCrash(*t)) {
    AbortGraphTxn(t, txn::AbortCause::kSiteFailure, /*notify_graph=*/true);
    co_return;
  }

  sys_->StampCommitTimestamp(t);
  // A write masked by a terminal newer writer cannot serialize: abort
  // ("timestamp too old") and tell the graph site to drop us.
  if (t->is_update && sys_->HasStaleWriteVsTerminal(*t)) {
    AbortGraphTxn(t, txn::AbortCause::kStaleWrite, /*notify_graph=*/true);
    co_return;
  }
  // Two-version commit-point revalidation: the graph round trip left the
  // reader's versions unpinned (no read locks), so an install landing
  // meanwhile can turn the view into an inconsistent multi-writer cut the
  // RGtest never saw. Abort and tell the graph site to drop us.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    AbortGraphTxn(t, txn::AbortCause::kTornRead, /*notify_graph=*/true);
    co_return;
  }
  if (t->is_update) {
    if (!co_await ApplyAtOrigin(t)) {
      AbortGraphTxn(t, txn::AbortCause::kSiteFailure, /*notify_graph=*/true);
      co_return;
    }
  }
  // Response-time convention for read-only transactions (see DESIGN.md):
  // the paper's Fig 9 ratios (optimistic better than locking/pessimistic by
  // 7.7x/6.1x on OC-1) imply read-only response was measured up to the
  // local commit point, not including the graph-site round trip. The
  // semantics are unchanged — the transaction still commits only after the
  // verdict — only the recorded response reference moves.
  if (!t->is_update) {
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

  if (t->is_update) co_await PropagateWrites(t, AckTo::kGraphSite);
}

}  // namespace lazyrep::proto
