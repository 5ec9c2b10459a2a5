#ifndef LAZYREP_PROTOCOLS_EAGER_EAGER_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_EAGER_EAGER_PROTOCOL_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/system.h"
#include "protocols/protocol.h"
#include "sim/condition.h"
#include "sim/random.h"

namespace lazyrep::proto {

/// The eager replication baseline the paper argues against (§1): synchronous
/// strict 2PL at every replica plus a two-phase commit.
///
/// * Reads take local shared locks at the origination site (reads happen only
///   there); writes take exclusive locks at the origination site *and*, over
///   the network, at every replica site — all before the transaction commits.
/// * Distributed deadlocks resolve by lock-wait timeout: a denied replica
///   lock round is retried after a randomized exponential backoff, up to
///   twice, then the transaction aborts.
/// * Commit is a presumed-abort 2PC. The coordinator (the origination site)
///   multicasts PREPARE carrying the write set; participants force a prepare
///   log record, vote YES, and are then *in doubt* — blocked holding their
///   exclusive locks — until the outcome arrives (the blocked time is
///   recorded as the eager_in_doubt metric). The coordinator commits on
///   unanimous YES within EagerVoteTimeout(), else presumes abort; aborts are
///   never acked (presumed abort), commits are acked so completion timing
///   covers the full COMMIT + ACK round.
/// * Under fault injection a PREPARE that exhausts its retry budget simply
///   never reaches the participant: the coordinator's vote collection times
///   out and the presumed-abort path unwinds the prepared minority. A
///   coordinator crash after PREPARE leaves participants blocked holding
///   locks until the (retried-forever) outcome message lands after recovery
///   — the classic 2PC blocking window, measured rather than patched.
/// * The dedicated graph site is unused; completion notices are multicast
///   (deferred-cascade tracking), exactly as in the locking protocol.
///
/// Deviations from a textbook 2PC are catalogued in DESIGN.md §4.5.
class EagerProtocol : public Protocol {
 public:
  explicit EagerProtocol(core::System* system) : Protocol(system) {}

  sim::Process Execute(txn::Transaction* t) override;
  /// Updates commit at the origin and at every replica target (each
  /// participant reports its subtransaction after the COMMIT-ACK lands at the
  /// origin, so completion timing covers the full ack round). Read-only
  /// transactions are entirely local.
  void OnRegister(txn::Transaction* t) override { CountReplicaCommits(t); }
  void OnCompleted(txn::Transaction* t) override { CompleteEverywhere(t); }
  const char* name() const override { return "Eager"; }

 private:
  struct ExecState {
    explicit ExecState(sim::RandomStream rng) : rng(rng) {}
    /// Replica X locks granted so far, for release on abort; participants
    /// that reached the prepared state release via the outcome instead.
    std::vector<std::pair<db::SiteId, db::ItemId>> granted_remote;
    /// Conflict edges discovered at the origination site.
    core::System::ConflictEdges edges;
    /// Why the replica lock phase failed.
    txn::AbortCause fail_cause = txn::AbortCause::kLockTimeout;
    /// Per-transaction stream for the retry backoff (seeded from the config
    /// seed and the transaction id: deterministic at any --jobs level).
    sim::RandomStream rng;
  };
  using StatePtr = std::shared_ptr<ExecState>;

  /// One replica-lock round in flight. Lives on the coordinator's frame:
  /// every leg is bounded (lock waits and reliable sends both time out) and
  /// the round wait has no deadline, so the frame outlives all legs.
  struct RoundState {
    RoundState(sim::Simulation* sim, int n) : done(sim, n) {}
    sim::Countdown done;
    int denied = 0;
    int unavailable = 0;
  };

  /// Shared 2PC state; shared_ptr because the vote wait has a timeout, so
  /// participant and outcome processes can outlive the coordinator's frame.
  struct TwoPC {
    TwoPC(sim::Simulation* sim, std::vector<db::SiteId> tgts)
        : targets(std::move(tgts)),
          votes(sim, static_cast<int>(targets.size())) {
      outcome.reserve(targets.size());
      for (size_t i = 0; i < targets.size(); ++i) {
        outcome.push_back(std::make_unique<sim::OneShot>(sim));
      }
      prepared.assign(targets.size(), 0);
    }
    std::vector<db::SiteId> targets;
    sim::Countdown votes;  ///< counts delivered YES votes
    /// Per-target outcome signal; participants block on theirs in doubt.
    std::vector<std::unique_ptr<sim::OneShot>> outcome;
    /// Targets whose PREPARE has landed or is certain to (every target when
    /// faults are off).
    std::vector<char> prepared;
    bool decided = false;
    bool commit = false;
    int IndexOf(db::SiteId dst) const {
      for (size_t i = 0; i < targets.size(); ++i) {
        if (targets[i] == dst) return static_cast<int>(i);
      }
      return -1;
    }
  };
  using TwoPCPtr = std::shared_ptr<TwoPC>;

  /// Acquires X on `item` at every replica site, with backoff-retry rounds.
  /// False on failure; st->fail_cause says why.
  sim::Task<bool> AcquireReplicaLocks(txn::Transaction* t, db::ItemId item,
                                      StatePtr st);

  /// One remote lock request/grant leg of a round.
  sim::Process LockLeg(txn::Transaction* t, db::SiteId dst, db::ItemId item,
                       StatePtr st, RoundState* round);

  /// Participant state machine at `dst`, from the PREPARE's arrival: force
  /// prepare record, vote YES, block in doubt, then apply + ack (commit) or
  /// release (presumed abort).
  sim::Process Participant(txn::Transaction* t, db::SiteId dst, TwoPCPtr pc);

  /// Delivers the decided outcome to the prepared targets.
  sim::Process BroadcastOutcome(db::SiteId origin, TwoPCPtr pc);

  /// The outcome at target `idx`, which unblocks its participant. Retried
  /// forever: a crashed coordinator stalls the retries until recovery, which
  /// is precisely the 2PC blocking window the in-doubt metric measures.
  sim::Process OutcomeLeg(db::SiteId origin, TwoPCPtr pc, int idx);

  /// Abort path: release origin locks, queue remote releases, notify.
  void AbortNow(txn::Transaction* t, StatePtr st, txn::AbortCause cause);

  /// Coordinator-side presumed abort: decides abort, sends the outcome to
  /// the prepared targets, and aborts with `cause`.
  void PresumeAbort(txn::Transaction* t, const StatePtr& st,
                    const TwoPCPtr& pc, txn::AbortCause cause);

  /// Sends assured release notices for unprepared remote X locks.
  sim::Process ReleaseRemote(
      db::SiteId origin, db::TxnId id,
      std::vector<std::pair<db::SiteId, db::ItemId>> granted);
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_EAGER_EAGER_PROTOCOL_H_
