#include "db/item_store.h"

namespace lazyrep::db {

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

ItemStore::WriteResult ItemStore::ApplyWrite(ItemId item, Timestamp ts) {
  Timestamp& version = versions_[item];
  WriteResult result;
  result.other_writer = version.txn;
  if (ts > version) {
    result.applied = true;
    // Readers register only at origin sites, so most installs find none and
    // leave the buffer (and the result's empty view) alone.
    if (reader_head_[item] != kNil) {
      prior_readers_.clear();
      uint32_t node = reader_head_[item];
      while (node != kNil) {
        const uint32_t next = nodes_[node].next;
        prior_readers_.push_back(nodes_[node].reader);
        ReleaseNode(node);
        node = next;
      }
      reader_head_[item] = kNil;
      result.prior_readers = prior_readers_;
    }
    version = ts;
    ++writes_applied_;
  } else {
    // Thomas Write Rule: the write is ignored; logically it precedes the
    // installed (newer) version, so its writer must precede version.txn.
    ++writes_ignored_;
  }
  return result;
}

Timestamp ItemStore::Read(ItemId item, TxnId reader) {
  // Walk to the tail, collapsing a duplicate registration; appending keeps
  // the list in registration order.
  uint32_t tail = kNil;
  for (uint32_t node = reader_head_[item]; node != kNil;
       node = nodes_[node].next) {
    if (nodes_[node].reader == reader) return versions_[item];
    tail = node;
  }
  const uint32_t added = AcquireNode(reader);
  if (tail == kNil) {
    reader_head_[item] = added;
  } else {
    nodes_[tail].next = added;
  }
  return versions_[item];
}

void ItemStore::RemoveReader(TxnId reader, const std::vector<ItemId>& items) {
  for (ItemId item : items) {
    uint32_t* link = &reader_head_[item];
    while (*link != kNil) {
      const uint32_t node = *link;
      if (nodes_[node].reader == reader) {
        *link = nodes_[node].next;
        ReleaseNode(node);
        break;  // registrations are unique per item
      }
      link = &nodes_[node].next;
    }
  }
}

std::vector<TxnId> ItemStore::ReadersOf(ItemId item) const {
  std::vector<TxnId> readers;
  for (uint32_t node = reader_head_[item]; node != kNil;
       node = nodes_[node].next) {
    readers.push_back(nodes_[node].reader);
  }
  return readers;
}

}  // namespace lazyrep::db
