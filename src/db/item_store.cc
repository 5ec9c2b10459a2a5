#include "db/item_store.h"

#include <algorithm>
#include <bit>

#include "sim/check.h"

namespace lazyrep::db {

namespace {

/// Reader-head slots allocated at construction: enough that no benchmark
/// workload grows the table inside a run, where growth would add
/// allocations per transaction.
constexpr size_t kInitialHeadSlots = 256;

/// Commit-time entries allocated up front at most (8 MiB); a longer run
/// grows the table by doubling.
constexpr TxnId kMaxReserved = TxnId{1} << 20;

}  // namespace

CommitTimes::CommitTimes(TxnId max_txn) {
  times_.assign(std::min(max_txn, kMaxReserved) + 1, kUnset);
  times_[kNoTxn] = 0;  // the initial version: older than any write
}

void CommitTimes::Grow(TxnId txn) {
  // Versions keep a 32-bit writer id.
  LAZYREP_CHECK(txn <= UINT32_MAX);
  times_.resize(std::max<size_t>(txn + 1, 2 * times_.size()), kUnset);
}

void CommitTimes::CheckFirstRecord(sim::SimTime recorded) {
  LAZYREP_CHECK_MSG(recorded == kUnset,
                    "a transaction wrote with two different timestamps");
}

ItemStore::ItemStore(uint32_t num_items, CommitTimes* times)
    : times_(times), writers_(num_items), heads_(kInitialHeadSlots) {
  if (times_ == nullptr) {
    own_times_ = std::make_unique<CommitTimes>();
    times_ = own_times_.get();
  }
  head_shift_ = 32 - std::countr_zero(heads_.size());
}

uint32_t ItemStore::AcquireNode(TxnId reader) {
  uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
    nodes_[node] = ReaderNode{reader, kNil};
  } else {
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(ReaderNode{reader, kNil});
  }
  return node;
}

void ItemStore::ReleaseNode(uint32_t node) {
  nodes_[node].next = free_;
  free_ = node;
}

ItemStore::HeadSlot* ItemStore::FindHead(ItemId item) {
  const size_t mask = heads_.size() - 1;
  for (size_t i = HomeOf(item);; i = (i + 1) & mask) {
    if (heads_[i].item == item) return &heads_[i];
    if (heads_[i].item == kNil) return nullptr;
  }
}

void ItemStore::InsertHead(ItemId item, uint32_t head) {
  if (4 * (heads_used_ + 1) > 3 * heads_.size()) {
    // Past a 3/4 load: double and reinsert.
    std::vector<HeadSlot> old(2 * heads_.size());
    old.swap(heads_);
    --head_shift_;
    heads_used_ = 0;
    for (const HeadSlot& slot : old) {
      if (slot.item != kNil) InsertHead(slot.item, slot.head);
    }
  }
  const size_t mask = heads_.size() - 1;
  size_t i = HomeOf(item);
  while (heads_[i].item != kNil) i = (i + 1) & mask;
  heads_[i] = HeadSlot{item, head};
  ++heads_used_;
}

void ItemStore::EraseHead(HeadSlot* slot) {
  const size_t mask = heads_.size() - 1;
  size_t hole = static_cast<size_t>(slot - heads_.data());
  for (size_t j = (hole + 1) & mask; heads_[j].item != kNil;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies cyclically in
    // (hole, j]: moving it before its home would hide it from lookups.
    const size_t home = HomeOf(heads_[j].item);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      heads_[hole] = heads_[j];
      hole = j;
    }
  }
  heads_[hole] = HeadSlot{};
  --heads_used_;
}

ItemStore::WriteResult ItemStore::ApplyWrite(ItemId item, Timestamp ts) {
  times_->Record(ts.txn, ts.time);
  const Timestamp version = VersionOf(item);
  WriteResult result;
  result.other_writer = version.txn;
  if (ts > version) {
    result.applied = true;
    // Readers register only at origin sites, so most installs find none and
    // leave the buffer (and the result's empty view) alone.
    HeadSlot* slot = heads_used_ == 0 ? nullptr : FindHead(item);
    if (slot != nullptr) {
      prior_readers_.clear();
      uint32_t node = slot->head;
      while (node != kNil) {
        const uint32_t next = nodes_[node].next;
        prior_readers_.push_back(nodes_[node].reader);
        ReleaseNode(node);
        node = next;
      }
      EraseHead(slot);
      result.prior_readers = prior_readers_;
    }
    writers_[item] = static_cast<uint32_t>(ts.txn);
    ++writes_applied_;
  } else {
    // Thomas Write Rule: the write is ignored; logically it precedes the
    // installed (newer) version, so its writer must precede version.txn.
    ++writes_ignored_;
  }
  return result;
}

Timestamp ItemStore::Read(ItemId item, TxnId reader) {
  HeadSlot* slot = FindHead(item);
  if (slot == nullptr) {
    InsertHead(item, AcquireNode(reader));
    return VersionOf(item);
  }
  // Walk to the tail, collapsing a duplicate registration; appending keeps
  // the list in registration order.
  uint32_t tail = kNil;
  for (uint32_t node = slot->head; node != kNil; node = nodes_[node].next) {
    if (nodes_[node].reader == reader) return VersionOf(item);
    tail = node;
  }
  const uint32_t added = AcquireNode(reader);
  nodes_[tail].next = added;
  return VersionOf(item);
}

void ItemStore::RemoveReader(TxnId reader, const std::vector<ItemId>& items) {
  for (ItemId item : items) {
    HeadSlot* slot = FindHead(item);
    if (slot == nullptr) continue;
    uint32_t* link = &slot->head;
    while (*link != kNil) {
      const uint32_t node = *link;
      if (nodes_[node].reader == reader) {
        *link = nodes_[node].next;
        ReleaseNode(node);
        break;  // registrations are unique per item
      }
      link = &nodes_[node].next;
    }
    if (slot->head == kNil) EraseHead(slot);
  }
}

std::vector<TxnId> ItemStore::ReadersOf(ItemId item) const {
  std::vector<TxnId> readers;
  const HeadSlot* slot = FindHead(item);
  if (slot == nullptr) return readers;
  for (uint32_t node = slot->head; node != kNil; node = nodes_[node].next) {
    readers.push_back(nodes_[node].reader);
  }
  return readers;
}

}  // namespace lazyrep::db
