#include "protocols/pessimistic_protocol.h"

namespace lazyrep::proto {

using core::System;
using db::LockMode;
using sim::WaitStatus;

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

sim::Process PessimisticProtocol::CommitNotice(txn::Transaction* t,
                                               StatePtr st) {
  co_await sys_->SendCtrlAssured(t->origin, sys_->graph_endpoint());
  co_await sys_->graph_site()->HandleCommitted(t->id);
  sys_->DeliverEdges(st->edges);
  sys_->tracker().OnSubtxnCommitted(t->id);
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
      AbortGraphTxn(t, cause, /*notify_graph=*/unavailable);
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
      AbortGraphTxn(t, txn::AbortCause::kLockTimeout, /*notify_graph=*/true);
      co_return;
    }
    co_await sys_->ExecuteOpCost(t->origin);
    if (op.type == db::OpType::kRead) {
      db::Timestamp version = ReadAtOrigin(t, op.item, &st->edges);
      if (lock_free_reads) read_versions.emplace_back(op.item, version);
    }
  }

  // Two-version read validation (§4.3 exploration): commit-point
  // revalidation — every version read must still be current here, else the
  // unpinned view may mix writers into an inconsistent cut.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    AbortGraphTxn(t, txn::AbortCause::kTornRead, /*notify_graph=*/true);
    co_return;
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state — abort and let the graph site GC its node.
  if (sys_->LostToCrash(*t)) {
    AbortGraphTxn(t, txn::AbortCause::kSiteFailure, /*notify_graph=*/true);
    co_return;
  }

  sys_->StampCommitTimestamp(t);
  // Commit at the origination site. A write masked by a terminal newer
  // writer cannot serialize anywhere: abort ("timestamp too old").
  if (t->is_update) {
    if (sys_->HasStaleWriteVsTerminal(*t)) {
      AbortGraphTxn(t, txn::AbortCause::kStaleWrite, /*notify_graph=*/true);
      co_return;
    }
    if (!co_await ApplyAtOrigin(t)) {
      AbortGraphTxn(t, txn::AbortCause::kSiteFailure, /*notify_graph=*/true);
      co_return;
    }
  }
  sys_->NoteCommitted(t);

  // Strict 2PL at the local DBMS: locks fall at local commit (the
  // replication graph, not retained locks, guards global serializability).
  origin.locks.ReleaseAll(t->id);

  sys_->sim().Spawn(CommitNotice(t, st));

  if (t->is_update) co_await PropagateWrites(t, AckTo::kGraphSite);
  // Completion is detected at the graph site (tracker); nothing to hold here.
}

}  // namespace lazyrep::proto
