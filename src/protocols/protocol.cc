#include "protocols/protocol.h"

#include <algorithm>
#include <vector>

namespace lazyrep::proto {

void Protocol::ResetShots(sim::Simulation* sim,
                          std::vector<sim::OneShot>* shots, size_t n) {
  size_t reused = std::min(n, shots->size());
  for (size_t i = 0; i < reused; ++i) (*shots)[i].Reset();
  if (n > shots->size()) {
    shots->reserve(n);  // a state's shots are unarmed here: moving is safe
    while (shots->size() < n) shots->emplace_back(sim);
  }
}

void Protocol::CountReplicaCommits(txn::Transaction* t) {
  int remaining = 1;
  if (t->is_update) {
    Recycler<SiteList>::Ref targets = site_lists_.Acquire();
    sys_->ReplicaTargets(*t, t->origin, &targets->sites);
    remaining += static_cast<int>(targets->sites.size());
  }
  sys_->tracker().SetRemainingCommits(t->id, remaining);
}

sim::Task<bool> Protocol::ApplyAtOrigin(txn::Transaction* t) {
  if (sys_->amnesia()) {
    // WAL discipline: the redo + commit records must be durable *before*
    // the store mutates — a crash mid-force aborts with nothing applied.
    // Kept out of the if condition: GCC 12.2 miscompiles `if (!co_await
    // ...) co_return false;` in a Task<bool> (SIGILL on the first resume).
    bool forced = co_await sys_->ForceCommitRecord(t);
    if (!forced) co_return false;
    co_await sys_->ApplyWrites(t->origin, *t, /*at_origin=*/true);
  } else {
    // Conflict edges from the origin apply deliver instantly: every party
    // (co-owners by the ownership rule, local readers) executes here.
    co_await sys_->ApplyWrites(t->origin, *t, /*at_origin=*/true);
    co_await sys_->site(t->origin).disk.ForceLog(sys_->config().log_bytes);
  }
  co_return true;
}

db::Timestamp Protocol::ReadAtOrigin(txn::Transaction* t, db::ItemId item,
                                     core::System::ConflictEdges* edges) {
  db::ItemStore& store = sys_->site(t->origin).store;
  db::Timestamp version =
      edges != nullptr ? store.Read(item, t->id) : store.VersionOf(item);
  if (sys_->history() != nullptr) {
    sys_->history()->RecordRead(t->id, item, version);
  }
  sys_->TraceRead(*t, item, version);
  if (edges != nullptr && version.txn != db::kNoTxn) {
    edges->emplace_back(t->id, version.txn);  // wr: writer precedes us
  }
  return version;
}

Protocol::Reach Protocol::Reached(db::SiteId from, db::SiteId dst,
                                  Retry retry) {
  if (!sys_->fault_enabled()) {
    return Reach(sys_->site(dst).cpu.Execute(sys_->config().message_instr));
  }
  if (retry == Retry::kBounded) return Reach(sys_->SendCtrlReliable(from, dst));
  return Reach(sys_->SendCtrlAssured(from, dst));
}

sim::Task<void> Protocol::PropagateWrites(txn::Transaction* t, AckTo ack) {
  const core::SystemConfig& cfg = sys_->config();
  Recycler<SiteList>::Ref list = site_lists_.Acquire();
  std::vector<db::SiteId>& targets = list->sites;
  sys_->ReplicaTargets(*t, t->origin, &targets);
  if (targets.empty()) co_return;
  sim::Countdown acks(&sys_->sim(), static_cast<int>(targets.size()));
  sim::Countdown* origin_acks = ack == AckTo::kOrigin ? &acks : nullptr;
  size_t bytes =
      cfg.propagation_overhead_bytes + t->write_set.size() * cfg.item_bytes;
  // Every copy must eventually install, or an origin's ack countdown would
  // never resolve: retry forever.
  auto install = [this, t, origin_acks](db::SiteId dst) {
    sys_->sim().Spawn(InstallAt(t, dst, origin_acks));
  };
  co_await FanOutPayload(t->origin, targets, bytes, Retry::kForever, install);
  if (origin_acks != nullptr) co_await acks.Wait();
}

sim::Process Protocol::InstallAt(txn::Transaction* t, db::SiteId dst,
                                 sim::Countdown* origin_acks) {
  core::System::ConflictEdges edges = co_await sys_->InstallReplica(*t, dst);
  if (origin_acks != nullptr) {
    // Ack to the origin, carrying this site's conflict predecessors. The
    // origin blocks on the ack countdown, so the ack must get through.
    co_await sys_->SendCtrlAssured(dst, t->origin);
    sys_->DeliverEdges(edges);
    origin_acks->Arrive();
  } else {
    // Ack to the graph site: carries this site's conflict predecessors and
    // the subtransaction commit.
    co_await sys_->SendCtrlAssured(dst, sys_->graph_endpoint());
    co_await sys_->graph_site()->ChargeMessages(1);
    sys_->DeliverEdges(edges);
    sys_->tracker().OnSubtxnCommitted(t->id);
  }
}

void Protocol::CompleteEverywhere(txn::Transaction* t) {
  // Release locally held locks: locking's retained read locks and any
  // stragglers (eager's are normally gone by now).
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  sys_->tracker().NotifyCompletionAtSite(t->id, t->origin);
  sys_->sim().Spawn(AnnounceCompletion(t->id, t->origin));
}

sim::Process Protocol::AnnounceCompletion(db::TxnId id, db::SiteId origin) {
  const core::SystemConfig& cfg = sys_->config();
  Recycler<SiteList>::Ref others = site_lists_.Acquire();
  for (int s = 0; s < cfg.num_sites; ++s) {
    if (s != origin) others->sites.push_back(static_cast<db::SiteId>(s));
  }
  auto start_leg = [this, id, origin](db::SiteId dst) {
    sys_->sim().Spawn(CompletionLeg(id, origin, dst));
  };
  co_await FanOutCtrl(origin, others->sites, start_leg);
}

sim::Process Protocol::CompletionLeg(db::TxnId id, db::SiteId origin,
                                     db::SiteId dst) {
  // Retried forever: a lost notice would strand the transaction's relayed
  // read locks and its dependents' fixpoints.
  co_await Reached(origin, dst, Retry::kForever);
  sys_->site(dst).locks.ReleaseAll(id);
  sys_->tracker().NotifyCompletionAtSite(id, dst);
}

void Protocol::CompleteAtGraphSite(txn::Transaction* t) {
  sys_->sim().Spawn(RemoveFromGraph(t->id, sys_->graph_endpoint()));
  sys_->sim().Spawn(NotifyOrigin(t->origin));
}

sim::Process Protocol::NotifyOrigin(db::SiteId origin) {
  co_await sys_->SendCtrlAssured(sys_->graph_endpoint(), origin);
}

void Protocol::AbortGraphTxn(txn::Transaction* t, txn::AbortCause cause,
                             bool notify_graph) {
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  sys_->NoteAborted(t, cause);
  if (notify_graph) sys_->sim().Spawn(RemoveFromGraph(t->id, t->origin));
}

sim::Process Protocol::RemoveFromGraph(db::TxnId id, db::SiteId from) {
  if (from != sys_->graph_endpoint()) {
    co_await sys_->SendCtrlAssured(from, sys_->graph_endpoint());
  }
  co_await sys_->graph_site()->HandleRemove(id);
}

}  // namespace lazyrep::proto
