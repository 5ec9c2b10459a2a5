#include "txn/transaction.h"

#include <utility>

#include "sim/check.h"

namespace lazyrep::txn {

const char* TxnStateName(TxnState state) {
  switch (state) {
    case TxnState::kActive:
      return "active";
    case TxnState::kCommitted:
      return "committed";
    case TxnState::kAborted:
      return "aborted";
    case TxnState::kCompleted:
      return "completed";
  }
  return "unknown";
}

const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kLockTimeout:
      return "lock_timeout";
    case AbortCause::kGraphAbort:
      return "graph_abort";
    case AbortCause::kGraphRejected:
      return "graph_rejected";
    case AbortCause::kStaleWrite:
      return "stale_write";
    case AbortCause::kTornRead:
      return "torn_read";
    case AbortCause::kUnavailable:
      return "unavailable";
    case AbortCause::kSiteFailure:
      return "site_failure";
    case AbortCause::kCount:
      break;
  }
  return "unknown";
}

void Transaction::RebuildAccessSets() {
  read_set.clear();
  write_set.clear();
  // Exact reservations: one allocation per non-empty set, no regrowth.
  size_t writes = 0;
  for (const db::Operation& op : ops) {
    if (op.type != db::OpType::kRead) ++writes;
  }
  read_set.reserve(ops.size() - writes);
  write_set.reserve(writes);
  for (const db::Operation& op : ops) {
    if (op.type == db::OpType::kRead) {
      read_set.push_back(op.item);
    } else {
      write_set.push_back(op.item);
    }
  }
}

Transaction* TransactionArena::Add(Transaction&& t) {
  LAZYREP_CHECK(t.id == size_ + 1);
  if (size_ % kChunk == 0) {
    chunks_.push_back(std::make_unique<Transaction[]>(kChunk));
  }
  Transaction* slot = &chunks_[size_ / kChunk][size_ % kChunk];
  *slot = std::move(t);
  ++size_;
  return slot;
}

}  // namespace lazyrep::txn
