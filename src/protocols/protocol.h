#ifndef LAZYREP_PROTOCOLS_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_PROTOCOL_H_

#include <cstddef>

#include "db/types.h"
#include "sim/condition.h"
#include "sim/process.h"
#include "txn/transaction.h"

namespace lazyrep::core {
class System;
}  // namespace lazyrep::core

namespace lazyrep::proto {

/// A replication-management protocol: drives a transaction's whole lifecycle
/// (execution at the origination site, commit, lazy replica propagation,
/// completion) against the shared System substrate.
///
/// The lazy protocols differ only in how they control concurrency at the
/// origin. What they share — committing at the origin, propagating the write
/// set to the replicas, and completion — is written once here, as protected
/// helpers each protocol calls at its own decision points.
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

  /// OnRegister for protocols whose every replica target reports its own
  /// subtransaction commit: an update commits at its origin plus every
  /// replica target, a read-only transaction only at its origin.
  void CountReplicaCommits(txn::Transaction* t);

  /// Makes `t`'s update durable at its origin and applies it to the origin's
  /// store (updates only: read-only commits write no redo records). False,
  /// with nothing applied, when a crash mid-force lost the commit record:
  /// the caller must abort with AbortCause::kSiteFailure.
  sim::Task<bool> ApplyAtOrigin(txn::Transaction* t);

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
  /// Fault-mode propagation to one target: a reliably delivered payload,
  /// then the install.
  sim::Process ShipWrites(txn::Transaction* t, db::SiteId dst, size_t bytes,
                          sim::Countdown* origin_acks);

  /// Installs the write set at `dst`, then acks: to `origin_acks` when
  /// non-null, else to the graph site.
  sim::Process InstallAt(txn::Transaction* t, db::SiteId dst,
                         sim::Countdown* origin_acks);

  /// Multicasts the completion notice of CompleteEverywhere.
  sim::Process AnnounceCompletion(db::TxnId id, db::SiteId origin);

  /// Fault-mode completion notice to one site (replaces a multicast leg).
  sim::Process CompletionLeg(db::TxnId id, db::SiteId origin, db::SiteId dst);

  /// Removes `id` from the replication graph. A removal the origin asks for
  /// first reaches the graph site over an assured control message from
  /// `from`; pass graph_endpoint() when the graph site decided it itself.
  sim::Process RemoveFromGraph(db::TxnId id, db::SiteId from);

  /// The graph site's completion notice to the origination site (metrics
  /// and bookkeeping ride on the tracker; this models the message cost).
  sim::Process NotifyOrigin(db::SiteId origin);
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_PROTOCOL_H_
