#ifndef LAZYREP_FAULT_RELIABLE_CHANNEL_H_
#define LAZYREP_FAULT_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "db/types.h"
#include "fault/fault_params.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::fault {

/// Retries without bound (post-commit / cleanup traffic that must eventually
/// be delivered).
inline constexpr int kRetryForever = -1;

/// Positive-acknowledgement reliable messaging over the lossy star network:
/// every payload is answered by an ack; a lost payload or lost ack triggers
/// retransmission after an exponentially backed-off timeout. The payload is
/// handed to the caller exactly once (when Send resolves true) while every
/// delivered copy still pays link occupancy and receive-CPU cost.
///
/// Receivers dedup retransmitted copies. Every copy of a message comes from
/// one Send, so the message's identity is its Send frame: the frame holds
/// the flow epoch in which the receiver last took the message, and a copy is
/// a duplicate exactly when that is the flow's current epoch. A flow's epoch
/// advances whenever its receiver forgets what it has seen: on first contact
/// after the receiver's amnesia crash (OnEndpointCrash), and whenever a copy
/// arrives from a sender incarnation other than the last one heard. The
/// channel keeps no per-message state. DESIGN.md §4.3 shows this counts the
/// same duplicates as a per-flow set of delivered (incarnation-qualified)
/// sequence numbers.
///
/// Two retry regimes:
///  * capped (`max_retries` >= 0): pre-commit control traffic. Exhausting the
///    budget resolves false and the caller aborts the transaction with an
///    unavailability cause instead of hanging.
///  * kRetryForever: post-commit traffic (replica propagation, completion and
///    abort notices). Idempotent, so the sender retransmits until delivery.
class ReliableChannel {
 public:
  /// Charges message-handling CPU at `endpoint` (the System supplies this and
  /// skips the graph endpoint, which accounts its own message costs).
  using ChargeFn = std::function<sim::Task<void>(db::SiteId endpoint)>;

  ReliableChannel(sim::Simulation* sim, net::Network* net,
                  const FaultParams& params, size_t ack_bytes);
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_charge(ChargeFn fn) { charge_ = std::move(fn); }

  /// Sends `bytes` from -> to and waits for the ack. Resolves true once
  /// acked; false when a capped retry budget is exhausted. The caller charges
  /// send/receive CPU for the successful attempt (exactly as the unreliable
  /// path does); the channel charges the overhead of retransmissions —
  /// re-send CPU at the sender, dedup CPU for redundantly delivered copies.
  sim::Task<bool> Send(db::SiteId from, db::SiteId to, size_t bytes,
                       int max_retries);

  /// Amnesia-crash hook: wipes the crashed endpoint's volatile receiver
  /// dedup state (its flows start over at their next copy) and bumps its
  /// incarnation, so its receivers reset their flows from it too. Pure
  /// bookkeeping: schedules no events, draws no randomness, so legacy
  /// (non-amnesia) runs are unaffected.
  void OnEndpointCrash(db::SiteId endpoint);

  /// Current incarnation of `endpoint` (number of amnesia crashes).
  uint32_t incarnation(db::SiteId endpoint) const;

  // -- statistics ------------------------------------------------------------

  /// Payload retransmissions (attempts beyond each message's first).
  uint64_t retransmissions() const { return retransmissions_; }
  /// Sends that exhausted a capped retry budget.
  uint64_t send_failures() const { return send_failures_; }
  /// Sends that resolved true.
  uint64_t delivered() const { return delivered_; }
  /// Copies the receiver recognized as duplicates of a message it had
  /// already taken since its flow last reset — retransmissions whose
  /// original got through.
  uint64_t dup_deliveries() const { return dup_deliveries_; }
  void ResetStats();

 private:
  /// Receiver-side dedup state of one (from -> to) flow, owned by `to`.
  struct RecvFlow {
    bool init = false;  ///< heard from since `to`'s last crash
    uint32_t sender_inc = 0;  ///< incarnation of the last copy heard
    /// Advances whenever the receiver forgets what it has taken; never
    /// reset, so an epoch a Send remembers is never reused.
    uint64_t epoch = 0;
  };

  sim::Task<void> Charge(db::SiteId endpoint);
  uint64_t FlowKey(db::SiteId from, db::SiteId to) const;
  /// Receiver bookkeeping for one arrived copy of the message whose Send
  /// holds `taken_epoch` (0: never taken); true when fresh.
  bool RecordDelivery(uint64_t key, uint32_t sent_inc, uint64_t* taken_epoch);

  sim::Simulation* sim_;
  net::Network* net_;
  ChargeFn charge_;
  size_t ack_bytes_;
  double rto_initial_;
  double rto_backoff_;
  double rto_max_;

  std::vector<uint32_t> incarnation_;
  std::unordered_map<uint64_t, RecvFlow> recv_;  // per flow, from first contact

  uint64_t retransmissions_ = 0;
  uint64_t send_failures_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dup_deliveries_ = 0;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_RELIABLE_CHANNEL_H_
