#ifndef LAZYREP_CORE_SYSTEM_H_
#define LAZYREP_CORE_SYSTEM_H_

#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/history.h"
#include "core/metrics.h"
#include "db/completion_tracker.h"
#include "db/lock_manager.h"
#include "db/item_store.h"
#include "fault/fault_injector.h"
#include "fault/reliable_channel.h"
#include "fault/wal.h"
#include "hw/cpu.h"
#include "hw/disk.h"
#include "net/network.h"
#include "rg/graph_site.h"
#include "rg/replication_graph.h"
#include "sim/condition.h"
#include "sim/pool_allocator.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "core/workload_source.h"
#include "trace/trace_sink.h"
#include "txn/transaction.h"

namespace lazyrep::proto {
class Protocol;
}  // namespace lazyrep::proto

namespace lazyrep::core {

/// One physical database site: CPU, disk array + buffer, local 2PL lock
/// manager, and its replica set.
struct Site {
  Site(sim::Simulation* sim, db::SiteId id, const SystemConfig& config,
       uint64_t disk_seed, db::CommitTimes* commit_times)
      : id(id),
        cpu(sim, "cpu_" + std::to_string(id), config.cpu_mips),
        disk(sim, "disk_" + std::to_string(id), config.disk, disk_seed),
        locks(sim),
        store(static_cast<uint32_t>(config.total_items()), commit_times) {}

  db::SiteId id;
  hw::Cpu cpu;
  hw::DiskSubsystem disk;
  db::LockManager locks;
  db::ItemStore store;
};

/// The complete simulated system of §3: database sites joined by an ATM star
/// network, a dedicated replication-graph site (unused by the locking and
/// eager protocols), per-site open-loop transaction generators, and one of
/// the protocols. One System instance runs one study point.
class System {
 public:
  System(const SystemConfig& config, ProtocolKind kind);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs the experiment: submits config.total_txns transactions, discards
  /// warm-up transients, freezes measurements at the last submission (§4).
  MetricsSnapshot Run();

  // -- component access (protocol implementations) ----------------------------

  sim::Simulation& sim() { return sim_; }
  const SystemConfig& config() const { return config_; }
  Site& site(db::SiteId s) { return *sites_[s]; }
  int num_sites() const { return config_.num_sites; }
  net::Network& network() { return *network_; }
  /// The topology the network routes over (star by default).
  const net::Topology& topology() const { return network_->topology(); }
  db::CompletionTracker& tracker() { return tracker_; }
  /// Null when running the locking or eager protocol.
  rg::GraphSite* graph_site() { return graph_site_.get(); }
  /// The graph site's network endpoint, allocated explicitly from the
  /// topology at construction (sites occupy 0..num_sites-1, auxiliary
  /// endpoints follow).
  db::SiteId graph_endpoint() const { return graph_endpoint_; }
  Metrics& metrics() { return metrics_; }
  txn::Transaction* FindTxn(db::TxnId id);

  /// Sites other than `except` that hold replicas of the transaction's write
  /// set (full replication: all other sites).
  std::vector<db::SiteId> ReplicaTargets(const txn::Transaction& t,
                                         db::SiteId except) const;

  // -- lifecycle hooks ----------------------------------------------------------

  /// Assigns `t`'s Thomas-Write-Rule timestamp at the commit decision point.
  ///
  /// Deliberate deviation from §2.4/§2.5 step 1 (which stamps at the first
  /// operation): with start-time stamping, a local rw conflict can invert
  /// timestamp order relative to the local serialization order (the later
  /// transaction holds the older timestamp), and TWR then orders the
  /// versions against the only serialization order the schedule admits —
  /// breaking one-copy serializability while the replication graph stays
  /// acyclic. Commit-time stamping is consistent with every local strict-2PL
  /// serialization order. See DESIGN.md.
  void StampCommitTimestamp(txn::Transaction* t) {
    t->ts = db::Timestamp{sim_.Now(), t->id};
  }

  /// Marks `t` committed at its origination site (state, metrics, history).
  /// `response_reference` (simulated seconds), when non-negative, overrides
  /// the commit instant used for the response-time sample (measurement
  /// convention only; the state transition happens now).
  void NoteCommitted(txn::Transaction* t, sim::SimTime response_reference = -1);

  /// Marks `t` aborted (state, metrics, tracker) and drops its reader
  /// registrations at the origin. Idempotent; the first call's `cause` wins.
  void NoteAborted(txn::Transaction* t, txn::AbortCause cause);

  /// One-shot fired when the tracker completes the transaction (used by the
  /// locking protocol to hold read locks until completion).
  sim::OneShot* CompletionShotFor(db::TxnId id);

  // -- shared mechanics -----------------------------------------------------------

  // -- fault-aware messaging --------------------------------------------------

  /// True when fault injection is active for this run.
  bool fault_enabled() const { return injector_ != nullptr; }
  /// Null unless fault injection is active.
  fault::FaultInjector* injector() { return injector_.get(); }
  fault::ReliableChannel* channel() { return channel_.get(); }

  // -- amnesia crash semantics (all no-ops unless fault.amnesia) --------------

  /// True when crashes wipe volatile state and recovery replays the log.
  bool amnesia() const { return injector_ != nullptr && config_.fault.amnesia; }

  /// Crash epoch of site `s`: bumped on every amnesia crash. A transaction
  /// whose origin epoch moved past its birth epoch was lost with the crash.
  uint32_t SiteEpoch(int s) const {
    return site_epochs_.empty() ? 0 : site_epochs_[s];
  }

  /// True when `t`'s origin site crashed since `t` was submitted: its locks,
  /// in-flight state and any unforced log records are gone, so the executing
  /// coroutine must abort with AbortCause::kSiteFailure at its next commit
  /// point (never commit on state that did not survive).
  bool LostToCrash(const txn::Transaction& t) const {
    return amnesia() && site_epochs_[t.origin] != t.born_epoch;
  }

  /// Per-site write-ahead log; null unless amnesia mode.
  fault::SiteWal* wal(db::SiteId s) {
    return s < static_cast<db::SiteId>(wals_.size()) ? wals_[s].get() : nullptr;
  }

  /// Commit-point durability at `t`'s origin. Amnesia mode: stages one redo
  /// record per write-set page plus the commit record and forces the WAL —
  /// resolves true only if the force completed in `t`'s birth epoch (a crash
  /// mid-force loses the commit record; the caller must abort with
  /// kSiteFailure). Legacy mode: the classic log force, always true.
  sim::Task<bool> ForceCommitRecord(txn::Transaction* t);

  /// Recovery-metric hook for the eager protocol's 2PC participants.
  void NoteInDoubtResolved(bool committed) {
    if (committed) {
      ++indoubt_commit_;
    } else {
      ++indoubt_abort_;
    }
  }

  /// Post-drain audit: true when every replica-holding site stores the same
  /// version of every item. On divergence fills `why` with the first
  /// offending (item, site-pair) and returns false.
  bool ReplicasConverged(std::string* why);

  /// Transactions submitted but not yet terminal (measured or not). Zero
  /// after a clean post-run drain; nonzero means a coroutine is stranded on
  /// a wait that never resolved (the chaos harness's liveness audit).
  uint64_t LiveTxns() const { return submitted_ - terminal_; }

  /// Chaos-triage diagnostic: prints every live (non-terminal) transaction —
  /// id, origin, state, birth epoch vs the origin's current epoch, and the
  /// locks it still holds at its origin — to `out`.
  void DebugDumpLive(std::FILE* out);

  /// Sends a control message: sender CPU, network transfer, receiver CPU.
  /// Endpoints equal to graph_endpoint() skip the CPU charge there — the
  /// GraphSite accounts for its own message handling. Under faults the
  /// transfer goes over the reliable channel with ack + capped
  /// retransmission: resolves true once the message (and its ack) got
  /// through; false when the retry budget ran out — the caller must abort
  /// the transaction with AbortCause::kUnavailable. Always true on a perfect
  /// network.
  sim::Task<bool> SendCtrlReliable(db::SiteId from, db::SiteId to) {
    return SendCtrlWithin(from, to, config_.fault.max_retries);
  }

  /// SendCtrlReliable retried without bound (post-commit / cleanup traffic:
  /// commit, abort and completion notices, installer acks, remote lock
  /// releases). Resolves only on delivery, so always to true.
  sim::Task<bool> SendCtrlAssured(db::SiteId from, db::SiteId to) {
    return SendCtrlWithin(from, to, fault::kRetryForever);
  }

  /// Bulk payload (update propagation) retried without bound. Charges send
  /// CPU here; the receiver's handling cost is the installer's business.
  sim::Task<void> SendPayloadAssured(db::SiteId from, db::SiteId to,
                                     size_t bytes);

  /// Bulk payload with the capped retry budget (eager PREPARE): resolves
  /// true exactly when the receiver got the payload, false when the budget
  /// ran out. Fault-mode only; charges send CPU, receiver handling is the
  /// caller's business (symmetric with SendPayloadAssured).
  sim::Task<bool> SendPayloadReliable(db::SiteId from, db::SiteId to,
                                      size_t bytes);

  /// Conflict edges (dependent, predecessor) discovered at a site, delivered
  /// to the completion tracker when the carrying message arrives.
  using ConflictEdges = sim::PoolVector<std::pair<db::TxnId, db::TxnId>>;
  void DeliverEdges(const ConflictEdges& edges);

  /// Executes one operation's local cost at `s`: CPU plus a buffered page
  /// read.
  sim::Task<void> ExecuteOpCost(db::SiteId s);

  /// True when committing `t` would install a write already masked by a
  /// *terminal* newer writer: t would have to serialize before a transaction
  /// whose position is final, so t must abort ("timestamp too old"). Since
  /// every writer of an item originates at the item's primary site
  /// (ownership rule), this check is purely local to the origination site.
  bool HasStaleWriteVsTerminal(const txn::Transaction& t);

  /// Read-version records of a lock-free (two-version) reader.
  using ReadVersions = sim::PoolVector<std::pair<db::ItemId, db::Timestamp>>;

  /// Two-version read validation: a lock-free reader must not observe both
  /// a pre-W and a post-W version across one writer W's atomically installed
  /// write set (a "torn" read — the tear the read locks used to prevent).
  /// Returns true when the read set is torn and the reader must abort.
  bool HasTornReads(const ReadVersions& reads);

  /// Commit-point revalidation for lock-free readers under the graph
  /// protocols: every version read must still be the *current* version at
  /// `origin`. The view then equals the origin's store state at one instant
  /// — a consistent cut of everything installed there — which closes the
  /// multi-writer anomalies HasTornReads cannot see (reader observes
  /// post-W2 of one item and pre-W1 of another with W1 serialized before
  /// W2). Read locks used to pin such writers live until the reader
  /// committed so the RGtest saw the cycle; without them, revalidate.
  /// Strictly subsumes HasTornReads when checked at the same instant.
  bool HasInvalidatedReads(db::SiteId origin, const ReadVersions& reads);

  /// Applies `t`'s write set to `s`'s store under the Thomas Write Rule,
  /// charging disk writes, and collects the conflict edges the applies
  /// produce. Locks are the caller's responsibility.
  ///
  /// With `at_origin` true the conflict edges are delivered to the tracker
  /// immediately (the conflicting transactions are co-located with the
  /// origination site, so no network transfer is involved) and the returned
  /// list is empty; the store mutation happens synchronously before any
  /// disk await so no concurrent apply can interleave.
  sim::Task<ConflictEdges> ApplyWrites(db::SiteId s, const txn::Transaction& t,
                                       bool at_origin = false);

  /// Installs `t`'s propagated write set at replica site `dst` as one local
  /// subtransaction, from receiving the payload to the durable log record,
  /// and returns the conflict edges the apply produced (the caller's ack
  /// carries them). The subtransaction takes local update locks on the
  /// replica items in write_set order; a local deadlock (lock timeout)
  /// releases them and restarts it (§2.1). Under amnesia crashes, a crash
  /// of `dst` after the payload arrived wipes the staged subtransaction:
  /// the install waits out recovery, has the payload re-shipped and starts
  /// over (log-shipping catch-up; ApplyWrites is TWR-idempotent).
  sim::Task<ConflictEdges> InstallReplica(const txn::Transaction& t,
                                          db::SiteId dst);

  /// Test-only hook: record reads/commits for serializability checking.
  void set_history(HistoryRecorder* history) { history_ = history; }
  HistoryRecorder* history() { return history_; }

  /// Replaces the workload source (default: the Poisson GeneratedWorkload
  /// built from config.workload). The trace-replay path installs a
  /// replay::ScriptWorkload here. Must be called before Run(); `source`
  /// must be non-null.
  void set_workload_source(std::unique_ptr<WorkloadSource> source) {
    workload_ = std::move(source);
  }

  // -- event tracing (all no-ops until set_trace; see DESIGN.md §4.8) ---------

  /// Attaches a trace sink and propagates it to every site's lock manager.
  /// Null (the default) keeps the run byte-identical to an untraced one:
  /// every emission site guards on the pointer and touches nothing else.
  void set_trace(trace::TraceSink* sink);
  trace::TraceSink* trace() { return trace_; }

  /// Record.flags of a lifecycle event of `t` (the sink ORs in kFlagFrozen
  /// by itself once the measurement window is frozen).
  static uint8_t TraceFlags(const txn::Transaction& t) {
    return (t.measured ? trace::kFlagMeasured : 0) |
           (t.is_update ? trace::kFlagUpdate : 0);
  }

  /// Emits one lifecycle record for `t` at `site`; no-op when not tracing.
  void TraceEvent(trace::EventType type, const txn::Transaction& t,
                  db::SiteId site, db::ItemId item = 0, uint64_t aux = 0,
                  double aux_time = 0) {
    if (trace_ == nullptr) return;
    trace_->Emit(type, sim_.Now(), t.id, site, TraceFlags(t), item, aux,
                 aux_time);
  }

  /// Emits the version-read record the protocols pair with
  /// HistoryRecorder::RecordRead (the offline MVSG audit's wr/rw input).
  void TraceRead(const txn::Transaction& t, db::ItemId item,
                 db::Timestamp version) {
    TraceEvent(trace::EventType::kRead, t, t.origin, item, version.txn,
               version.time);
  }

  const char* protocol_name() const;

 private:
  /// The one control-message coroutine behind SendCtrlReliable and
  /// SendCtrlAssured (a single frame per message, faults on or off).
  sim::Task<bool> SendCtrlWithin(db::SiteId from, db::SiteId to,
                                 int max_retries);

  friend class proto::Protocol;

  sim::Process GeneratorProcess(db::SiteId s, sim::RandomStream rng);
  sim::Process GatedExecute(txn::Transaction* t);
  void Submit(db::SiteId s, sim::RandomStream* rng);
  void OnTrackerCompleted(db::TxnId id);
  void ResetAllStats();
  void Freeze(MetricsSnapshot* snap);

  // -- amnesia crash plumbing -------------------------------------------------

  /// Injector crash hook: bumps the site's epoch, wipes its volatile state
  /// (WAL append buffer, channel dedup state, lock manager) keeping only
  /// logged survivors (in-doubt participants, committed-at-origin holders).
  void OnSiteCrash(int e);
  /// Costed replay (ARIES-style analysis+redo from the last checkpoint).
  /// Abandons silently if the site re-crashes mid-replay.
  sim::Process RecoverSiteProcess(int e);
  /// Periodic fuzzy checkpoints: stage a checkpoint record, force, and only
  /// a completed force truncates the replay window.
  sim::Process CheckpointProcess(db::SiteId s);
  /// Releases every AwaitServing waiter parked on `e`.
  void FireServingWaiters(int e);
  /// Resolves once `e` is up and not mid-replay. Resolves immediately when
  /// fault injection is off or the endpoint is already serving.
  sim::Task<void> AwaitServing(int e);

  /// Releases `t`'s locks at `s` on the replica items of write_set[0, end),
  /// in write_set order: the update locks InstallReplica holds once it has
  /// acquired its way to write_set[end].
  void ReleaseInstallLocks(db::SiteId s, const txn::Transaction& t,
                           size_t end);

  SystemConfig config_;
  ProtocolKind kind_;
  sim::Simulation sim_;
  std::unique_ptr<WorkloadSource> workload_;
  /// Every writer's commit time, shared by the sites' stores.
  db::CommitTimes commit_times_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<net::Network> network_;
  db::SiteId graph_endpoint_ = 0;
  std::unique_ptr<hw::Cpu> graph_cpu_;
  std::unique_ptr<rg::ReplicationGraph> rgraph_;
  std::unique_ptr<rg::GraphSite> graph_site_;
  db::CompletionTracker tracker_;
  Metrics metrics_;
  /// Both null unless config_.fault.enabled().
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::ReliableChannel> channel_;
  /// Per-endpoint downtime at measurement-window start (availability base).
  std::vector<double> downtime_at_window_;
  // Amnesia-mode state; empty/zero otherwise.
  std::vector<uint32_t> site_epochs_;
  std::vector<std::unique_ptr<fault::SiteWal>> wals_;
  std::vector<std::vector<sim::OneShot*>> serving_waiters_;
  uint64_t site_recoveries_ = 0;
  sim::TallyStat recovery_replay_;
  uint64_t catchup_installs_ = 0;
  uint64_t indoubt_commit_ = 0;
  uint64_t indoubt_abort_ = 0;
  std::unique_ptr<proto::Protocol> protocol_;
  std::unordered_map<db::TxnId, std::unique_ptr<txn::Transaction>> txns_;
  std::unordered_map<db::TxnId, std::unique_ptr<sim::OneShot>>
      completion_shots_;
  HistoryRecorder* history_ = nullptr;
  trace::TraceSink* trace_ = nullptr;

  // Read-only gatekeeper (§4.3 extension): per-site running count + queue.
  std::vector<int> gate_running_;
  std::vector<std::deque<sim::OneShot*>> gate_queue_;
  void GateRelease(const txn::Transaction& t);

  uint64_t txn_counter_ = 0;
  uint64_t submitted_ = 0;
  uint64_t terminal_ = 0;  // aborted + completed, measured or not
  std::vector<int> site_submitted_;
  bool window_open_ = false;
  bool done_ = false;
  sim::SimTime window_start_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_SYSTEM_H_
