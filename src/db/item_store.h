#ifndef LAZYREP_DB_ITEM_STORE_H_
#define LAZYREP_DB_ITEM_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "db/types.h"

namespace lazyrep::db {

/// One physical site's replica set: for every data item, the write timestamp
/// of the locally installed version plus the readers of that version.
///
/// Writes follow the Thomas Write Rule (§2.1): a write whose transaction
/// timestamp is older than the installed version's timestamp is ignored —
/// the writer continues as if it had succeeded. Reader lists feed the
/// local-serialization-order predecessor edges used by completion tracking.
///
/// Layout: full replication puts every item at every site, so per-item cost
/// is what bounds fleet size. Each item holds a 16-byte version and a 4-byte
/// reader-list head. Readers exist only at origin sites and only for live
/// transactions, so their registrations live in one per-store pool of
/// singly linked nodes, recycled through a free list.
class ItemStore {
 public:
  explicit ItemStore(uint32_t num_items)
      : versions_(num_items), reader_head_(num_items, kNil) {}

  /// Outcome of a TWR write.
  struct WriteResult {
    /// False when the Thomas Write Rule ignored the write.
    bool applied = false;
    /// Transactions that read the version this write replaced (conflict
    /// predecessors of the writer), in registration order. Empty for an
    /// ignored write. Views a buffer the store reuses: valid until the next
    /// ApplyWrite on this store.
    std::span<const TxnId> prior_readers;
    /// Writer of the version this write replaced (ww predecessor), or the
    /// newer writer that masked an ignored write (the ignored writer then
    /// precedes `other_writer` in the serialization order).
    TxnId other_writer = kNoTxn;
  };

  /// Applies (or ignores, per TWR) a write of `item` stamped `ts`.
  WriteResult ApplyWrite(ItemId item, Timestamp ts);

  /// Reads the installed version; registers `reader` against it. Returns the
  /// version's write timestamp (ts.txn identifies the writer).
  Timestamp Read(ItemId item, TxnId reader);

  /// Current version timestamp without registering a reader.
  Timestamp VersionOf(ItemId item) const { return versions_[item]; }

  /// Removes `reader`'s registrations (on abort or completion).
  void RemoveReader(TxnId reader, const std::vector<ItemId>& items);

  /// Readers registered against the current version of `item`, in
  /// registration order. Copies: for tests and diagnostics.
  std::vector<TxnId> ReadersOf(ItemId item) const;

  uint32_t num_items() const { return static_cast<uint32_t>(versions_.size()); }

  /// Reader nodes ever allocated: the peak number of live registrations.
  size_t reader_pool_size() const { return nodes_.size(); }

  uint64_t writes_applied() const { return writes_applied_; }
  uint64_t writes_ignored() const { return writes_ignored_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct ReaderNode {
    TxnId reader = kNoTxn;
    uint32_t next = kNil;
  };

  /// A node holding `reader`, from the free list when one is available.
  uint32_t AcquireNode(TxnId reader);
  void ReleaseNode(uint32_t node);

  std::vector<Timestamp> versions_;  // zero: the initial database state
  std::vector<uint32_t> reader_head_;
  std::vector<ReaderNode> nodes_;
  uint32_t free_ = kNil;
  /// ApplyWrite's prior-reader buffer, reused across calls.
  std::vector<TxnId> prior_readers_;
  uint64_t writes_applied_ = 0;
  uint64_t writes_ignored_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_ITEM_STORE_H_
