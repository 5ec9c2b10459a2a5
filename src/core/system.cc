#include "core/system.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "protocols/eager/eager_protocol.h"
#include "protocols/locking_protocol.h"
#include "protocols/optimistic_protocol.h"
#include "protocols/pessimistic_protocol.h"
#include "sim/check.h"

namespace lazyrep::core {

System::System(const SystemConfig& config, ProtocolKind kind)
    : config_(config), kind_(kind), commit_times_(config.total_txns) {
  config_.Normalize();
  workload_ =
      std::make_unique<GeneratedWorkload>(config_.workload, config_.loc_tps());
  sim::RandomStream seeder(config_.seed);
  sites_.reserve(config_.num_sites);
  for (int s = 0; s < config_.num_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(
        &sim_, static_cast<db::SiteId>(s), config_,
        config_.seed * 1000003 + s, &commit_times_));
  }
  // The graph site's endpoint is allocated explicitly from the topology
  // (an auxiliary leaf at the root switch), replacing the historical
  // "endpoint num_sites" convention.
  net::Topology topology = config_.BuildTopology();
  graph_endpoint_ = topology.AddAuxEndpoint(net::AccessEdge(config_.network));
  network_ = std::make_unique<net::Network>(&sim_, std::move(topology),
                                            config_.network);
  if (kind_ == ProtocolKind::kPessimistic ||
      kind_ == ProtocolKind::kOptimistic) {
    graph_cpu_ = std::make_unique<hw::Cpu>(&sim_, "graph_cpu",
                                           config_.cpu_mips);
    rgraph_ = std::make_unique<rg::ReplicationGraph>(
        config_.num_sites, config_.full_replication());
    if (!config_.full_replication()) {
      rgraph_->set_replica_fn([this](db::ItemId item, db::SiteId site) {
        return config_.HasReplica(item, site);
      });
    }
    graph_site_ = std::make_unique<rg::GraphSite>(&sim_, graph_cpu_.get(),
                                                  rgraph_.get(), config_.graph);
  }
  tracker_.set_deferred_cascade(kind_ == ProtocolKind::kLocking ||
                                kind_ == ProtocolKind::kEager);
  tracker_.set_on_completed([this](db::TxnId id) { OnTrackerCompleted(id); });

  if (config_.fault.enabled()) {
    // Dedicated stream: the injector's draws never perturb the workload or
    // disk streams, so fault-free structure is preserved point for point.
    injector_ = std::make_unique<fault::FaultInjector>(
        &sim_, network_->num_endpoints(), config_.fault,
        config_.seed * 7919 + 13, &network_->topology());
    network_->set_fault_hook([this](db::SiteId src, db::SiteId dst) {
      return injector_->OnDelivery(src, dst);
    });
    channel_ = std::make_unique<fault::ReliableChannel>(
        &sim_, network_.get(), config_.fault, config_.ctrl_msg_bytes);
    channel_->set_charge([this](db::SiteId e) -> sim::Task<void> {
      if (e != graph_endpoint()) {
        co_await site(e).cpu.Execute(config_.message_instr);
      }
    });
    downtime_at_window_.assign(config_.num_sites + 1, 0.0);
    if (config_.fault.amnesia) {
      site_epochs_.assign(config_.num_sites, 0);
      serving_waiters_.resize(config_.num_sites + 1);
      wals_.reserve(config_.num_sites);
      for (int s = 0; s < config_.num_sites; ++s) {
        wals_.push_back(std::make_unique<fault::SiteWal>(&sites_[s]->disk,
                                                         config_.fault));
      }
      injector_->set_crash_hook([this](int e) { OnSiteCrash(e); });
      injector_->set_recovery_hook([this](int e) {
        // Defer through a zero-delay callback: FinishRecovery must not run
        // synchronously inside Recover() — the MTBF rotation inspects the
        // recovering flag right after Recover returns and would double-
        // schedule itself (a replay with nothing to scan completes without
        // suspending, and the graph endpoint's is always free).
        sim_.ScheduleCallbackAt(sim_.Now(), [this, e] {
          if (e == graph_endpoint()) {
            // The graph site holds no durable state: recovery is instant.
            injector_->FinishRecovery(e);
            FireServingWaiters(e);
          } else {
            sim_.Spawn(RecoverSiteProcess(e));
          }
        });
      });
    }
  }

  switch (kind_) {
    case ProtocolKind::kLocking:
      protocol_ = std::make_unique<proto::LockingProtocol>(this);
      break;
    case ProtocolKind::kPessimistic:
      protocol_ = std::make_unique<proto::PessimisticProtocol>(this);
      break;
    case ProtocolKind::kOptimistic:
      protocol_ = std::make_unique<proto::OptimisticProtocol>(this);
      break;
    case ProtocolKind::kEager:
      protocol_ = std::make_unique<proto::EagerProtocol>(this);
      break;
  }

  gate_running_.assign(config_.num_sites, 0);
  gate_queue_.resize(config_.num_sites);
  site_submitted_.assign(config_.num_sites, 0);
}

System::~System() = default;

const char* System::protocol_name() const { return ProtocolKindName(kind_); }

txn::Transaction* System::FindTxn(db::TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

std::vector<db::SiteId> System::ReplicaTargets(const txn::Transaction& t,
                                               db::SiteId except) const {
  std::vector<db::SiteId> targets;
  if (config_.full_replication()) {
    targets.reserve(config_.num_sites - 1);
    for (int s = 0; s < config_.num_sites; ++s) {
      if (s != except) targets.push_back(static_cast<db::SiteId>(s));
    }
    return targets;
  }
  std::vector<bool> seen(config_.num_sites, false);
  for (db::ItemId item : t.write_set) {
    for (int s = 0; s < config_.num_sites; ++s) {
      if (!seen[s] && s != except &&
          config_.HasReplica(item, static_cast<db::SiteId>(s))) {
        seen[s] = true;
        targets.push_back(static_cast<db::SiteId>(s));
      }
    }
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

void System::NoteCommitted(txn::Transaction* t,
                           sim::SimTime response_reference) {
  LAZYREP_CHECK(t->state == txn::TxnState::kActive);
  t->state = txn::TxnState::kCommitted;
  t->commit_time =
      response_reference >= 0 ? response_reference : sim_.Now();
  metrics_.OnCommit(*t);
  sim::SimTime response_used = t->commit_time;
  t->commit_time = sim_.Now();  // commit->complete measures from the real
                                // commit instant
  if (history_ != nullptr) {
    history_->RecordCommit(t->id, t->ts, t->write_set);
  }
  if (trace_ != nullptr) {
    // The response-reference instant rides along bit-cast so the analyzer
    // reproduces the exact response-time samples Metrics took; the TWR
    // timestamp's time goes in aux_time (ts.txn always equals t->id).
    TraceEvent(trace::EventType::kCommit, *t, t->origin, 0,
               trace::BitsFromDouble(response_used), t->ts.time);
    for (db::ItemId item : t->write_set) {
      TraceEvent(trace::EventType::kCommitItem, *t, t->origin, item, 0,
                 t->ts.time);
    }
  }
}

void System::NoteAborted(txn::Transaction* t, txn::AbortCause cause) {
  if (t->state == txn::TxnState::kAborted) return;
  LAZYREP_CHECK(t->state == txn::TxnState::kActive);
  t->state = txn::TxnState::kAborted;
  t->abort_cause = cause;
  t->terminal_time = sim_.Now();
  ++terminal_;
  metrics_.OnAbort(*t);
  TraceEvent(trace::EventType::kAbort, *t, t->origin, 0,
             static_cast<uint64_t>(cause));
  tracker_.OnAborted(t->id);
  site(t->origin).store.RemoveReader(t->id, t->read_set);
  GateRelease(*t);
}

void System::set_trace(trace::TraceSink* sink) {
  trace_ = sink;
  for (auto& s : sites_) {
    s->locks.set_trace(sink, static_cast<uint16_t>(s->id));
  }
}

sim::OneShot* System::CompletionShotFor(db::TxnId id) {
  auto& shot = completion_shots_[id];
  if (!shot) shot = std::make_unique<sim::OneShot>(&sim_);
  return shot.get();
}

void System::OnTrackerCompleted(db::TxnId id) {
  txn::Transaction* t = FindTxn(id);
  LAZYREP_CHECK(t != nullptr);
  LAZYREP_CHECK(t->state == txn::TxnState::kCommitted);
  t->state = txn::TxnState::kCompleted;
  t->terminal_time = sim_.Now();
  ++terminal_;
  metrics_.OnComplete(*t);
  TraceEvent(trace::EventType::kComplete, *t, t->origin);
  site(t->origin).store.RemoveReader(t->id, t->read_set);
  protocol_->OnCompleted(t);
  auto it = completion_shots_.find(id);
  if (it != completion_shots_.end()) {
    it->second->Fire(sim::WaitStatus::kSignaled);
  }
  GateRelease(*t);
}

void System::GateRelease(const txn::Transaction& t) {
  if (config_.read_gatekeeper <= 0 || t.is_update) return;
  int s = t.origin;
  if (gate_running_[s] > 0) --gate_running_[s];
  if (!gate_queue_[s].empty() &&
      gate_running_[s] < config_.read_gatekeeper) {
    sim::OneShot* next = gate_queue_[s].front();
    gate_queue_[s].pop_front();
    ++gate_running_[s];
    next->Fire(sim::WaitStatus::kSignaled);
  }
}

sim::Process System::GatedExecute(txn::Transaction* t) {
  // §4.3 gatekeeper: bound concurrently executing read-only transactions.
  int s = t->origin;
  if (gate_running_[s] >= config_.read_gatekeeper) {
    sim::OneShot shot(&sim_);
    gate_queue_[s].push_back(&shot);
    co_await shot.Wait();
  } else {
    ++gate_running_[s];
  }
  sim_.Spawn(protocol_->Execute(t));
}

sim::Task<bool> System::SendCtrlWithin(db::SiteId from, db::SiteId to,
                                       int max_retries) {
  if (from != graph_endpoint()) {
    co_await site(from).cpu.Execute(config_.message_instr);
  }
  bool delivered = true;
  if (channel_ == nullptr) {
    co_await network_->Transfer(from, to, config_.ctrl_msg_bytes);
  } else {
    delivered = co_await channel_->Send(from, to, config_.ctrl_msg_bytes,
                                        max_retries);
  }
  if (delivered && to != graph_endpoint()) {
    co_await site(to).cpu.Execute(config_.message_instr);
  }
  co_return delivered;
}

sim::Task<void> System::SendPayloadAssured(db::SiteId from, db::SiteId to,
                                           size_t bytes) {
  LAZYREP_CHECK(channel_ != nullptr);  // fault-mode-only path
  co_await site(from).cpu.Execute(config_.message_instr);
  co_await channel_->Send(from, to, bytes, fault::kRetryForever);
}

sim::Task<bool> System::SendPayloadReliable(db::SiteId from, db::SiteId to,
                                            size_t bytes) {
  LAZYREP_CHECK(channel_ != nullptr);  // fault-mode-only path
  co_await site(from).cpu.Execute(config_.message_instr);
  co_return co_await channel_->Send(from, to, bytes,
                                    config_.fault.max_retries);
}

sim::Task<void> System::AwaitServing(int e) {
  if (!amnesia()) co_return;
  while (!injector_->IsUp(e) || injector_->Recovering(e)) {
    sim::OneShot shot(&sim_);
    serving_waiters_[e].push_back(&shot);
    co_await shot.Wait();
  }
}

sim::Task<bool> System::ForceCommitRecord(txn::Transaction* t) {
  Site& origin = site(t->origin);
  if (!amnesia()) {
    co_await origin.disk.ForceLog(config_.log_bytes);
    co_return true;
  }
  if (LostToCrash(*t)) co_return false;  // already wiped: nothing to commit
  fault::SiteWal* w = wals_[t->origin].get();
  for (db::ItemId item : t->write_set) {
    if (config_.HasReplica(item, t->origin)) {
      w->Append(fault::WalRecordType::kItemWrite, config_.item_bytes);
    }
  }
  w->Append(fault::WalRecordType::kCommit, 0);
  bool forced = co_await w->Force();
  // A crash between the append and the force's completion loses the commit
  // record even if the platter write finished in some interleaving: only a
  // force completed within the transaction's birth epoch commits.
  bool ok = forced && !LostToCrash(*t);
  if (ok) t->commit_durable = true;
  co_return ok;
}

void System::OnSiteCrash(int e) {
  if (e == graph_endpoint()) {
    // The graph site keeps no replicas and no locks; its crash stays
    // fail-silent (RGtest requests simply go unanswered until recovery).
    return;
  }
  ++site_epochs_[e];
  fault::SiteWal* w = wals_[e].get();
  w->OnCrash();
  channel_->OnEndpointCrash(static_cast<db::SiteId>(e));
  site(static_cast<db::SiteId>(e))
      .locks.CrashReset([this, e, w](db::TxnId id) {
        // Survivors of the wipe: 2PC participants with a durable prepare
        // record (their X locks are re-acquired from the log — the in-doubt
        // protocol forbids releasing them unilaterally), and transactions
        // that committed here with a durable commit record (their strict-2PL
        // holds are part of the logged state recovery re-establishes).
        if (w->InDoubt(id)) return true;
        txn::Transaction* t = FindTxn(id);
        return t != nullptr && t->origin == e &&
               (t->commit_durable || t->state == txn::TxnState::kCommitted);
      });
}

sim::Process System::RecoverSiteProcess(int e) {
  if (!injector_->Recovering(e)) co_return;  // re-crashed before we started
  uint32_t epoch = site_epochs_[e];
  sim::SimTime start = sim_.Now();
  Site& st = site(static_cast<db::SiteId>(e));
  fault::SiteWal* w = wals_[e].get();
  size_t bytes = w->replay_bytes();
  uint64_t records = w->replay_records();
  // Analysis + redo: sequentially scan the log back to the last durable
  // checkpoint, then re-apply each redo record's CPU work. The in-doubt set
  // and store state need no explicit reconstruction — the simulation kept
  // them (they model exactly what the log would rebuild).
  if (bytes > 0) co_await st.disk.ReadLog(bytes);
  double replay_instr = config_.fault.replay_instr_per_record *
                        static_cast<double>(records);
  if (replay_instr > 0) co_await st.cpu.Execute(replay_instr);
  if (site_epochs_[e] != epoch || !injector_->Recovering(e)) {
    co_return;  // re-crashed mid-replay (or the run ended): abandon
  }
  w->OnReplayComplete();
  ++site_recoveries_;
  recovery_replay_.Add(sim_.Now() - start);
  injector_->FinishRecovery(e);
  FireServingWaiters(e);
}

sim::Process System::CheckpointProcess(db::SiteId s) {
  // Phase-offset the fleet so the checkpoints of different sites do not
  // synchronize into one disk-force convoy.
  double interval = config_.fault.checkpoint_interval;
  co_await sim_.Delay(interval * (s + 1) / (config_.num_sites + 1.0));
  while (!done_) {
    co_await sim_.Delay(interval);
    if (done_) break;
    if (!injector_->IsUp(s) || injector_->Recovering(s)) continue;
    fault::SiteWal* w = wals_[s].get();
    w->Append(fault::WalRecordType::kCheckpoint, 0);
    // Only a force that completed crash-free moves the replay horizon.
    if (co_await w->Force()) w->OnCheckpointDurable();
  }
}

void System::FireServingWaiters(int e) {
  if (serving_waiters_.empty()) return;
  std::vector<sim::OneShot*> waiters;
  waiters.swap(serving_waiters_[e]);
  for (sim::OneShot* shot : waiters) shot->Fire(sim::WaitStatus::kSignaled);
}

bool System::ReplicasConverged(std::string* why) {
  for (int item = 0; item < config_.total_items(); ++item) {
    db::ItemId id = static_cast<db::ItemId>(item);
    bool have = false;
    db::Timestamp ref{};
    int ref_site = -1;
    for (int s = 0; s < config_.num_sites; ++s) {
      if (!config_.HasReplica(id, static_cast<db::SiteId>(s))) continue;
      db::Timestamp v = site(static_cast<db::SiteId>(s)).store.VersionOf(id);
      if (!have) {
        have = true;
        ref = v;
        ref_site = s;
        continue;
      }
      if (v != ref) {
        if (why != nullptr) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "item %d: site %d holds txn %llu @%.6f but site %d "
                        "holds txn %llu @%.6f",
                        item, ref_site, (unsigned long long)ref.txn, ref.time,
                        s, (unsigned long long)v.txn, v.time);
          *why = buf;
        }
        return false;
      }
    }
  }
  return true;
}

void System::DebugDumpLive(std::FILE* out) {
  static const char* kStateNames[] = {"active", "committed", "aborted",
                                      "completed"};
  for (const auto& [id, t] : txns_) {
    if (t->state == txn::TxnState::kAborted ||
        t->state == txn::TxnState::kCompleted) {
      continue;
    }
    std::fprintf(out,
                 "  live txn %llu: origin=%d state=%s update=%d epoch=%u/%u "
                 "writes=%zu origin_locks=%zu\n",
                 (unsigned long long)id, t->origin,
                 kStateNames[static_cast<int>(t->state)], t->is_update ? 1 : 0,
                 t->born_epoch, SiteEpoch(t->origin), t->write_set.size(),
                 site(t->origin).locks.HeldItems(id).size());
  }
  for (int s = 0; s < config_.num_sites; ++s) {
    for (const auto& [id, t] : txns_) {
      std::vector<db::ItemId> held =
          site(static_cast<db::SiteId>(s)).locks.HeldItems(id);
      if (held.empty()) continue;
      std::fprintf(out, "  site %d: txn %llu holds", s,
                   (unsigned long long)id);
      for (db::ItemId item : held) std::fprintf(out, " %u", item);
      std::fprintf(out, "\n");
    }
  }
}

void System::DeliverEdges(const ConflictEdges& edges) {
  for (const auto& [dep, pred] : edges) {
    if (tracker_.IsLive(dep)) tracker_.AddPredecessor(dep, pred);
  }
}

sim::Task<void> System::ExecuteOpCost(db::SiteId s) {
  co_await site(s).cpu.Execute(config_.op_instr);
  co_await site(s).disk.ReadPage(config_.item_bytes);
}

bool System::HasStaleWriteVsTerminal(const txn::Transaction& t) {
  const db::ItemStore& store = site(t.origin).store;
  for (db::ItemId item : t.write_set) {
    db::Timestamp current = store.VersionOf(item);
    if (current <= t.ts) continue;
    // Relaxed ownership (footnote 2): writers no longer co-originate, so
    // the reverse-edge fix for a masked write cannot reach the completion
    // fixpoint race-free; abort on any masking instead ("timestamp too
    // old", as a classic timestamp-ordering scheduler would).
    if (config_.workload.relaxed_ownership) return true;
    if (tracker_.IsTerminal(current.txn)) return true;
  }
  return false;
}

bool System::HasTornReads(const ReadVersions& reads) {
  for (const auto& [item2, v2] : reads) {
    if (v2.txn == db::kNoTxn) continue;
    const txn::Transaction* w = FindTxn(v2.txn);
    if (w == nullptr) continue;
    for (const auto& [item, v] : reads) {
      if (v >= w->ts) continue;  // read at or past W's version: consistent
      for (db::ItemId wi : w->write_set) {
        if (wi == item) return true;  // read pre-W `item`, post-W `item2`
      }
    }
  }
  return false;
}

bool System::HasInvalidatedReads(db::SiteId origin,
                                 const ReadVersions& reads) {
  const db::ItemStore& store = site(origin).store;
  for (const auto& [item, v] : reads) {
    if (store.VersionOf(item) != v) return true;  // overwritten since read
  }
  return false;
}

sim::Task<System::ConflictEdges> System::ApplyWrites(db::SiteId s,
                                                     const txn::Transaction& t,
                                                     bool at_origin) {
  // Mutate the store synchronously: no awaits between item applies, so no
  // concurrent apply at this site can interleave with the version checks.
  ConflictEdges edges;
  Site& st = site(s);
  int pages = 0;
  for (db::ItemId item : t.write_set) {
    if (!config_.HasReplica(item, s)) continue;
    db::ItemStore::WriteResult r = st.store.ApplyWrite(item, t.ts);
    ++pages;
    if (r.applied) {
      if (r.other_writer != db::kNoTxn) {
        edges.emplace_back(t.id, r.other_writer);  // ww: prior writer first
      }
      for (db::TxnId reader : r.prior_readers) {
        edges.emplace_back(t.id, reader);  // rw: prior readers first
      }
    } else {
      // TWR-ignored: t logically precedes the newer writer, so that writer
      // must not complete before t does.
      edges.emplace_back(r.other_writer, t.id);
    }
  }
  if (at_origin) {
    // All conflicting transactions on these edges executed at the
    // origination site itself (writers by the ownership rule, readers
    // because reads happen only at the origin), so the tracker learns them
    // without any message latency.
    DeliverEdges(edges);
    edges.clear();
  }
  for (int i = 0; i < pages; ++i) {
    co_await st.disk.WritePage(config_.item_bytes);
  }
  co_return edges;
}

sim::Task<System::ConflictEdges> System::InstallReplica(
    const txn::Transaction& t, db::SiteId dst) {
  Site& st = site(dst);
  co_await st.cpu.Execute(config_.message_instr);  // receive the propagation

  // Crash epochs stay 0 without amnesia, so the epoch checks below only
  // ever fire under amnesia crashes.
  uint32_t epoch = SiteEpoch(dst);
  for (;;) {
    if (SiteEpoch(dst) != epoch) {
      // dst crashed since the payload arrived: the staged subtransaction is
      // gone. Log-shipping catch-up — wait for the replay to finish, let
      // the recovered site request the missed propagation, re-ship it, and
      // install from scratch (ApplyWrites is TWR-idempotent).
      co_await AwaitServing(dst);
      co_await SendCtrlAssured(dst, t.origin);  // catch-up request
      size_t bytes = config_.propagation_overhead_bytes +
                     t.write_set.size() * config_.item_bytes;
      co_await SendPayloadAssured(t.origin, dst, bytes);
      co_await st.cpu.Execute(config_.message_instr);  // receive again
      epoch = SiteEpoch(dst);
      ++catchup_installs_;
      continue;
    }

    // Local update locks for the installed items; a local deadlock aborts
    // and restarts the subtransaction (§2.1).
    // Locks held: update locks on the replica items of write_set[0, next).
    size_t next = 0;
    bool locked = true;
    while (next < t.write_set.size()) {
      db::ItemId item = t.write_set[next];
      if (!config_.HasReplica(item, dst)) {
        ++next;
        continue;
      }
      sim::WaitStatus s = co_await st.locks.Acquire(
          t.id, item, db::LockMode::kUpdate, config_.timeout);
      if (s == sim::WaitStatus::kSignaled) {
        ++next;
        continue;
      }
      // Timeout (or cancelled by a crash wipe): restart from scratch.
      ReleaseInstallLocks(dst, t, next);
      if (SiteEpoch(dst) != epoch) {
        locked = false;  // crash mid-acquisition: back to catch-up
        break;
      }
      next = 0;
    }
    if (!locked) continue;

    for (db::ItemId item : t.write_set) {
      if (config_.HasReplica(item, dst)) {
        co_await st.cpu.Execute(config_.op_instr);
      }
    }
    ConflictEdges edges = co_await ApplyWrites(dst, t);
    if (amnesia()) {
      fault::SiteWal* w = wals_[dst].get();
      for (db::ItemId item : t.write_set) {
        if (config_.HasReplica(item, dst)) {
          w->Append(fault::WalRecordType::kItemWrite, config_.item_bytes);
        }
      }
      w->Append(fault::WalRecordType::kReceipt, 0);
      bool durable = co_await w->Force();
      ReleaseInstallLocks(dst, t, next);
      // A crash mid-force lost the receipt: the install must re-run after
      // recovery so the redo records make it into the log.
      if (!durable || SiteEpoch(dst) != epoch) continue;
    } else {
      co_await st.disk.ForceLog(config_.log_bytes);
      ReleaseInstallLocks(dst, t, next);
    }
    co_return edges;
  }
}

void System::ReleaseInstallLocks(db::SiteId s, const txn::Transaction& t,
                                 size_t end) {
  for (size_t i = 0; i < end; ++i) {
    db::ItemId item = t.write_set[i];
    if (config_.HasReplica(item, s)) site(s).locks.Release(t.id, item);
  }
}

void System::Submit(db::SiteId s, sim::RandomStream* rng) {
  db::TxnId id = ++txn_counter_;
  txn::Transaction t = workload_->NextTxn(id, s, rng);
  t.submit_time = sim_.Now();
  t.ts = db::Timestamp{sim_.Now(), id};
  t.born_epoch = amnesia() ? site_epochs_[s] : 0;
  ++submitted_;
  ++site_submitted_[s];
  if (submitted_ >= config_.total_txns) {
    // Run stops between Steps once done_ is set. End this Step with the
    // current handler so no inlined continuation runs past the last
    // submission: the snapshot freezes where it would with every resume
    // queued.
    done_ = true;
    sim_.EndStep();
  }
  if (!window_open_ &&
      submitted_ >=
          static_cast<uint64_t>(config_.warmup_per_site) * config_.num_sites) {
    window_open_ = true;
    window_start_ = sim_.Now();
    ResetAllStats();
  }
  t.measured = window_open_ && site_submitted_[s] > config_.warmup_per_site;

  auto owned = std::make_unique<txn::Transaction>(std::move(t));
  txn::Transaction* ptr = owned.get();
  txns_.emplace(id, std::move(owned));

  tracker_.Register(id, s);
  protocol_->OnRegister(ptr);
  metrics_.OnSubmit(*ptr);
  TraceEvent(trace::EventType::kSubmit, *ptr, s, 0, ptr->ops.size());
  if (trace_ != nullptr) {
    // The op-level access set (v2): what makes the trace replayable.
    for (const db::Operation& op : ptr->ops) {
      TraceEvent(trace::EventType::kSubmitOp, *ptr, s, op.item,
                 op.type == db::OpType::kWrite ? 1 : 0);
    }
  }

  if (injector_ && !injector_->IsUp(s)) {
    // The origination site is down: the client's request never reaches a
    // server, so the transaction fails immediately as unavailable. Balance
    // the gate slot NoteAborted's GateRelease will return.
    if (config_.read_gatekeeper > 0 && !ptr->is_update) ++gate_running_[s];
    NoteAborted(ptr, txn::AbortCause::kUnavailable);
    return;
  }

  bool gated = config_.read_gatekeeper > 0 && !ptr->is_update;
  if (gated) {
    sim_.Spawn(GatedExecute(ptr));
  } else {
    sim_.Spawn(protocol_->Execute(ptr));
  }
}

sim::Process System::GeneratorProcess(db::SiteId s, sim::RandomStream rng) {
  while (!done_) {
    WorkloadSource::Arrival next = workload_->NextArrival(s, &rng);
    if (!next.has) break;
    if (next.absolute) {
      co_await sim_.DelayUntil(next.at);
    } else {
      co_await sim_.Delay(next.at);
    }
    if (done_) break;
    Submit(s, &rng);
  }
}

void System::ResetAllStats() {
  for (auto& s : sites_) {
    s->cpu.ResetStats();
    s->disk.ResetStats();
    s->locks.ResetStats();
  }
  network_->ResetStats();
  if (graph_cpu_) graph_cpu_->ResetStats();
  if (injector_) {
    injector_->ResetStats();
    for (int e = 0; e <= config_.num_sites; ++e) {
      downtime_at_window_[e] = injector_->Downtime(e);
    }
  }
  if (channel_) channel_->ResetStats();
  for (auto& w : wals_) w->ResetStats();
  site_recoveries_ = 0;
  recovery_replay_.Clear();
  catchup_installs_ = 0;
  indoubt_commit_ = 0;
  indoubt_abort_ = 0;
}

void System::Freeze(MetricsSnapshot* snap) {
  snap->duration = sim_.Now() - window_start_;
  if (snap->duration <= 0) snap->duration = 1e-9;
  snap->completed_tps = snap->completed / snap->duration;
  snap->abort_rate =
      snap->submitted > 0
          ? static_cast<double>(snap->aborted) / snap->submitted
          : 0;
  double cpu_sum = 0, cpu_max = 0, disk_sum = 0, disk_max = 0;
  uint64_t lock_waits = 0, lock_timeouts = 0, twr_ignored = 0;
  for (auto& s : sites_) {
    double cu = s->cpu.Utilization();
    double du = s->disk.Utilization();
    cpu_sum += cu;
    disk_sum += du;
    cpu_max = std::max(cpu_max, cu);
    disk_max = std::max(disk_max, du);
    lock_waits += s->locks.waits();
    lock_timeouts += s->locks.timeouts();
    twr_ignored += s->store.writes_ignored();
  }
  snap->mean_site_cpu_utilization = cpu_sum / sites_.size();
  snap->max_site_cpu_utilization = cpu_max;
  snap->mean_disk_utilization = disk_sum / sites_.size();
  snap->max_disk_utilization = disk_max;
  snap->mean_network_utilization = network_->MeanUtilization();
  snap->max_network_utilization = network_->MaxUtilization();
  snap->lock_waits = lock_waits;
  snap->lock_timeouts = lock_timeouts;
  snap->writes_ignored_twr = twr_ignored;
  if (graph_site_) {
    snap->graph_cpu_utilization = graph_cpu_->Utilization();
    snap->graph_cpu_queue = graph_cpu_->MeanQueueLength();
    snap->graph_tests = graph_site_->tests_run();
    snap->graph_waits = graph_site_->waits();
    snap->graph_wait_timeouts = graph_site_->wait_timeouts();
    snap->graph_rejections = graph_site_->rejections();
    snap->graph_cycle_aborts = graph_site_->cycle_aborts();
  }
  snap->in_flight_at_end = submitted_ - terminal_;
  if (injector_) {
    snap->faults_injected_loss = injector_->messages_dropped();
    snap->faults_injected_dup = injector_->messages_duplicated();
    snap->site_crashes = injector_->crashes();
    double avail_sum = 0, avail_min = 1.0;
    for (int e = 0; e < config_.num_sites; ++e) {
      double down = injector_->Downtime(e) - downtime_at_window_[e];
      double avail = 1.0 - std::min(1.0, std::max(0.0, down) / snap->duration);
      avail_sum += avail;
      avail_min = std::min(avail_min, avail);
    }
    snap->mean_site_availability = avail_sum / config_.num_sites;
    snap->min_site_availability = avail_min;
    double gdown = injector_->Downtime(config_.num_sites) -
                   downtime_at_window_[config_.num_sites];
    snap->graph_availability =
        1.0 - std::min(1.0, std::max(0.0, gdown) / snap->duration);
    snap->partitions_injected = injector_->partitions_activated();
    snap->faults_injected_partition = injector_->partition_drops();
  }
  if (channel_) {
    snap->retransmissions = channel_->retransmissions();
    snap->msg_send_failures = channel_->send_failures();
  }
  if (amnesia()) {
    snap->site_recoveries = site_recoveries_;
    snap->recovery_replay = recovery_replay_;
    snap->catchup_installs = catchup_installs_;
    snap->indoubt_resolved_commit = indoubt_commit_;
    snap->indoubt_resolved_abort = indoubt_abort_;
    for (auto& w : wals_) {
      snap->wal_forces += w->forces();
      snap->wal_bytes_forced += w->bytes_forced();
      snap->wal_checkpoints += w->checkpoints();
      snap->wal_records_replayed += w->records_replayed();
      snap->wal_bytes_replayed += w->bytes_replayed();
    }
  }
}

MetricsSnapshot System::Run() {
  if (injector_) injector_->Start();
  if (amnesia()) {
    for (int s = 0; s < config_.num_sites; ++s) {
      sim_.Spawn(CheckpointProcess(static_cast<db::SiteId>(s)));
    }
  }
  sim::RandomStream seeder(config_.seed);
  for (int s = 0; s < config_.num_sites; ++s) {
    sim_.Spawn(GeneratorProcess(static_cast<db::SiteId>(s), seeder.Fork()));
  }
  // The paper takes final measurements when the last transaction is
  // submitted, avoiding wind-down effects.
  while (!done_ && sim_.Step()) {
  }
  MetricsSnapshot snap = metrics_.snapshot();
  Freeze(&snap);
  // Records emitted from here on (the drain) belong to the execution
  // history but to no MetricsSnapshot counter; mark them so the offline
  // analyzer replicates the freeze-at-last-submission accounting.
  if (trace_ != nullptr) trace_->set_frozen(true);
  // Cease fault activity before draining: pending retransmissions must be
  // able to land so every waiter resolves before the System is torn down.
  if (injector_) injector_->Stop();
  // Stop() force-revived every endpoint; release any catch-up coroutines
  // still parked on a serving wait so the drain can complete them.
  for (size_t e = 0; e < serving_waiters_.size(); ++e) {
    FireServingWaiters(static_cast<int>(e));
  }
  // Drain in-flight work (uncounted — the snapshot is frozen) so coroutine
  // frames and waiters resolve before the System is torn down. A generous
  // horizon guards against pathological non-termination.
  sim_.Run(sim_.Now() + 120.0);
  return snap;
}

}  // namespace lazyrep::core
