#ifndef LAZYREP_PROTOCOLS_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_PROTOCOL_H_

#include <coroutine>
#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "core/system.h"
#include "db/types.h"
#include "sim/condition.h"
#include "sim/process.h"
#include "txn/transaction.h"

namespace lazyrep::proto {

/// A replication-management protocol: drives a transaction's whole lifecycle
/// (execution at the origination site, commit, lazy replica propagation,
/// completion) against the shared System substrate.
///
/// The protocols differ only in how they control concurrency. What they
/// share — reading and committing at the origin, fanning a message out to
/// many sites, propagating the write set to the replicas, and completion —
/// is written once here, as protected helpers each protocol calls at its own
/// decision points.
class Protocol {
 public:
  explicit Protocol(core::System* system) : sys_(system) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// The transaction's top-level process, spawned at submission time.
  virtual sim::Process Execute(txn::Transaction* t) = 0;

  /// Called at submission, before Execute: protocol-specific registration
  /// (e.g. how many site-level commits completion requires).
  virtual void OnRegister(txn::Transaction* t) = 0;

  /// Called the instant the completion tracker declares `t` completed:
  /// protocol-specific teardown (lock releases, completion notices,
  /// replication-graph removal).
  virtual void OnCompleted(txn::Transaction* t) = 0;

  virtual const char* name() const = 0;

 protected:
  /// Where a replica site sends the ack for its install.
  enum class AckTo {
    /// To the origin, which waits for every replica before its primary-copy
    /// update locks fall (locking, §2.2).
    kOrigin,
    /// To the graph site, carrying the site's subtransaction commit to the
    /// completion fixpoint (pessimistic §2.4, optimistic §2.5).
    kGraphSite,
  };

  /// How hard a fan-out leg's own copy tries when faults are on: kBounded
  /// may give up (SendCtrlReliable, SendPayloadReliable), kForever never
  /// does (SendCtrlAssured, SendPayloadAssured).
  enum class Retry { kBounded, kForever };

  /// What Reached returns: the receive charge (faults off) or the leg's own
  /// send (faults on), awaited in place. Resolves true once the message is
  /// in hand at the leg's site.
  class Reach {
   public:
    template <typename T>
    explicit Reach(sim::Task<T> step) : step_(std::move(step)) {}
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> leg) {
      return std::visit([leg](auto& step) { return step.await_suspend(leg); },
                        step_);
    }
    bool await_resume() {
      auto* sent = std::get_if<sim::Task<bool>>(&step_);
      return sent == nullptr || sent->await_resume();
    }

   private:
    std::variant<sim::Task<sim::WaitStatus>, sim::Task<bool>> step_;
  };

  /// OnRegister for protocols whose every replica target reports its own
  /// subtransaction commit: an update commits at its origin plus every
  /// replica target, a read-only transaction only at its origin.
  void CountReplicaCommits(txn::Transaction* t);

  /// Makes `t`'s update durable at its origin and applies it to the origin's
  /// store (updates only: read-only commits write no redo records). False,
  /// with nothing applied, when a crash mid-force lost the commit record:
  /// the caller must abort with AbortCause::kSiteFailure.
  sim::Task<bool> ApplyAtOrigin(txn::Transaction* t);

  /// The origin read step: reads `item` at `t`'s origin and records the read
  /// for the serializability checker and the trace. With `edges`, the read
  /// registers with the store and its wr edge joins `edges`; without, it is
  /// an unregistered read (locking's lock-free two-version readers).
  db::Timestamp ReadAtOrigin(txn::Transaction* t, db::ItemId item,
                             core::System::ConflictEdges* edges);

  // -- fan-out: the one place that chooses how a message reaches many sites.
  // Faults off, one send charge and one multicast carry every copy; faults
  // on, each target gets its own copy over the reliable channel. Pass the
  // per-target callable as a named lvalue: see net::Network::Multicast for
  // the toolchain bug a prvalue lambda hits.

  /// Control fan-out: start_leg(dst) spawns (or, to skip dst, does not
  /// spawn) the leg at each target, a process that opens with `co_await
  /// Reached(from, dst, retry)` and carries on there. It runs as each
  /// multicast copy lands, or at once when each leg sends its own copy.
  template <typename StartLeg>
  sim::Task<void> FanOutCtrl(db::SiteId from,
                             const std::vector<db::SiteId>& dsts,
                             const StartLeg& start_leg);

  /// A control leg's opening step: the receive charge (true) when the
  /// multicast carried the message, else the leg's own SendCtrlReliable or
  /// SendCtrlAssured. Not a coroutine: a leg parked on retries across an
  /// outage holds no frame beyond the send's.
  Reach Reached(db::SiteId from, db::SiteId dst, Retry retry);

  /// Payload fan-out: calls arrive(dst) as each copy lands, to hand off to a
  /// fresh process. A kBounded copy that gives up skips its target.
  /// Resolves true when every copy is certain to land (faults off).
  template <typename Arrive>
  sim::Task<bool> FanOutPayload(db::SiteId from,
                                const std::vector<db::SiteId>& dsts,
                                size_t bytes, Retry retry,
                                const Arrive& arrive);

  /// Lazy propagation of a committed update: ships the write set to every
  /// replica target, where System::InstallReplica installs it and the site
  /// acks as `ack` says. With AckTo::kOrigin, resolves once every replica
  /// has acked; with AckTo::kGraphSite, once the write set is on its way.
  sim::Task<void> PropagateWrites(txn::Transaction* t, AckTo ack);

  /// OnCompleted under deferred-cascade tracking (locking, eager): releases
  /// the origin's locks, advances its completion fixpoint, and tells every
  /// other site, whose relayed read locks then fall and whose fixpoints
  /// advance in turn.
  void CompleteEverywhere(txn::Transaction* t);

  /// OnCompleted under the graph protocols: the graph site applies the
  /// split rule and retests, and notifies the origination site.
  void CompleteAtGraphSite(txn::Transaction* t);

  /// Aborts `t` at its origin under a graph protocol: drops its local
  /// locks and records the abort. With `notify_graph` the graph site may
  /// still carry `t`, so an assured notice asks it to remove `t` once
  /// reachable.
  void AbortGraphTxn(txn::Transaction* t, txn::AbortCause cause,
                     bool notify_graph);

  core::System* sys_;

 private:
  /// One target's copy of a payload fan-out, faults on.
  template <typename Arrive>
  sim::Process PayloadLeg(db::SiteId from, db::SiteId dst, size_t bytes,
                          Retry retry, Arrive arrive);

  /// Installs the write set at `dst`, then acks: to `origin_acks` when
  /// non-null, else to the graph site.
  sim::Process InstallAt(txn::Transaction* t, db::SiteId dst,
                         sim::Countdown* origin_acks);

  /// Fans CompleteEverywhere's notice out to every other site.
  sim::Process AnnounceCompletion(db::TxnId id, db::SiteId origin);

  /// The completion notice at `dst`: its relayed read locks fall and its
  /// completion fixpoint advances.
  sim::Process CompletionLeg(db::TxnId id, db::SiteId origin, db::SiteId dst);

  /// Removes `id` from the replication graph. A removal the origin asks for
  /// first reaches the graph site over an assured control message from
  /// `from`; pass graph_endpoint() when the graph site decided it itself.
  sim::Process RemoveFromGraph(db::TxnId id, db::SiteId from);

  /// The graph site's completion notice to the origination site (metrics
  /// and bookkeeping ride on the tracker; this models the message cost).
  sim::Process NotifyOrigin(db::SiteId origin);
};

template <typename StartLeg>
sim::Task<void> Protocol::FanOutCtrl(db::SiteId from,
                                     const std::vector<db::SiteId>& dsts,
                                     const StartLeg& start_leg) {
  if (sys_->fault_enabled()) {
    for (db::SiteId dst : dsts) start_leg(dst);
    co_return;
  }
  co_await sys_->site(from).cpu.Execute(sys_->config().message_instr);
  net::Network::DeliveryFn deliver = start_leg;
  co_await sys_->network().Multicast(from, dsts, sys_->config().ctrl_msg_bytes,
                                     std::move(deliver));
}

template <typename Arrive>
sim::Task<bool> Protocol::FanOutPayload(db::SiteId from,
                                        const std::vector<db::SiteId>& dsts,
                                        size_t bytes, Retry retry,
                                        const Arrive& arrive) {
  if (sys_->fault_enabled()) {
    for (db::SiteId dst : dsts) {
      sys_->sim().Spawn(PayloadLeg(from, dst, bytes, retry, arrive));
    }
    co_return false;
  }
  co_await sys_->site(from).cpu.Execute(sys_->config().message_instr);
  net::Network::DeliveryFn deliver = arrive;
  co_await sys_->network().Multicast(from, dsts, bytes, std::move(deliver));
  co_return true;
}

template <typename Arrive>
sim::Process Protocol::PayloadLeg(db::SiteId from, db::SiteId dst,
                                  size_t bytes, Retry retry, Arrive arrive) {
  // No co_await in a condition here: see DESIGN.md on GCC 12.2.
  bool landed = true;
  if (retry == Retry::kForever) {
    co_await sys_->SendPayloadAssured(from, dst, bytes);
  } else {
    landed = co_await sys_->SendPayloadReliable(from, dst, bytes);
  }
  if (landed) arrive(dst);
}

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_PROTOCOL_H_
