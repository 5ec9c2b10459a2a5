#ifndef LAZYREP_DB_ITEM_STORE_H_
#define LAZYREP_DB_ITEM_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "db/types.h"

namespace lazyrep::db {

/// The commit time of every transaction that has written, indexed by TxnId.
///
/// A version's timestamp is (writer's commit time, writer id), and every
/// protocol stamps a transaction once, before its first apply, so one
/// transaction writes with one timestamp at every site. The time is kept
/// once here instead of once per item per site. Record() checks that
/// invariant: a second, different time for the same transaction aborts.
class CommitTimes {
 public:
  /// Sized for ids 0..max_txn up front (up to 2^20); a larger id grows the
  /// table.
  explicit CommitTimes(TxnId max_txn = 0);

  /// Records `txn`'s write time (a no-op when it is already recorded).
  void Record(TxnId txn, sim::SimTime time) {
    if (txn >= times_.size()) Grow(txn);
    sim::SimTime& slot = times_[txn];
    if (slot != time) CheckFirstRecord(slot);
    slot = time;
  }

  /// The recorded time of `writer` (0 for kNoTxn, the initial state).
  sim::SimTime TimeOf(uint32_t writer) const { return times_[writer]; }

 private:
  /// Marks a transaction that has not written yet.
  static constexpr sim::SimTime kUnset = -1;

  void Grow(TxnId txn);
  static void CheckFirstRecord(sim::SimTime recorded);

  std::vector<sim::SimTime> times_;
};

/// One physical site's replica set: for every data item, the writer of the
/// locally installed version plus the readers of that version.
///
/// Writes follow the Thomas Write Rule (§2.1): a write whose transaction
/// timestamp is older than the installed version's timestamp is ignored —
/// the writer continues as if it had succeeded. Reader lists feed the
/// local-serialization-order predecessor edges used by completion tracking.
///
/// Layout: full replication puts every item at every site, so per-item cost
/// is what bounds fleet size. Each item holds only a 4-byte writer id; the
/// version's time comes from the shared CommitTimes table. Readers exist
/// only at origin sites and only for live transactions, so their
/// registrations live in one per-store pool of singly linked nodes,
/// recycled through a free list, and the list heads live in a small
/// open-addressing table (item → head) holding only non-empty lists.
class ItemStore {
 public:
  /// `times` is the commit-time table shared by every store of one system;
  /// null gives the store a table of its own.
  explicit ItemStore(uint32_t num_items, CommitTimes* times = nullptr);

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

  /// Applies (or ignores, per TWR) a write of `item` stamped `ts`. Records
  /// ts.time as ts.txn's commit time either way.
  WriteResult ApplyWrite(ItemId item, Timestamp ts);

  /// Reads the installed version; registers `reader` against it. Returns the
  /// version's write timestamp (ts.txn identifies the writer).
  Timestamp Read(ItemId item, TxnId reader);

  /// Current version timestamp without registering a reader.
  Timestamp VersionOf(ItemId item) const {
    const uint32_t writer = writers_[item];
    return Timestamp{times_->TimeOf(writer), writer};
  }

  /// Removes `reader`'s registrations (on abort or completion).
  void RemoveReader(TxnId reader, const std::vector<ItemId>& items);

  /// Readers registered against the current version of `item`, in
  /// registration order. Copies: for tests and diagnostics.
  std::vector<TxnId> ReadersOf(ItemId item) const;

  uint32_t num_items() const { return static_cast<uint32_t>(writers_.size()); }

  /// Reader nodes ever allocated: the peak number of live registrations.
  size_t reader_pool_size() const { return nodes_.size(); }

  /// Slots in the reader-head table (grows only past its load limit).
  size_t reader_table_capacity() const { return heads_.size(); }

  uint64_t writes_applied() const { return writes_applied_; }
  uint64_t writes_ignored() const { return writes_ignored_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct ReaderNode {
    TxnId reader = kNoTxn;
    uint32_t next = kNil;
  };

  /// One reader-head table slot; item == kNil marks it empty.
  struct HeadSlot {
    ItemId item = kNil;
    uint32_t head = kNil;
  };

  /// A node holding `reader`, from the free list when one is available.
  uint32_t AcquireNode(TxnId reader);
  void ReleaseNode(uint32_t node);

  /// The slot `item` hashes to.
  size_t HomeOf(ItemId item) const {
    return (item * uint32_t{0x9E3779B9}) >> head_shift_;
  }
  /// `item`'s slot, or null when it has no readers.
  HeadSlot* FindHead(ItemId item);
  const HeadSlot* FindHead(ItemId item) const {
    return const_cast<ItemStore*>(this)->FindHead(item);
  }
  /// Adds `item` (absent) with list head `head`.
  void InsertHead(ItemId item, uint32_t head);
  /// Empties `slot`, shifting its probe run back over the hole.
  void EraseHead(HeadSlot* slot);

  std::unique_ptr<CommitTimes> own_times_;  // set when none was passed in
  CommitTimes* times_;
  std::vector<uint32_t> writers_;  // zero: the initial database state
  std::vector<HeadSlot> heads_;    // power-of-two size, linear probing
  uint32_t head_shift_ = 0;        // 32 - log2(heads_.size())
  uint32_t heads_used_ = 0;
  std::vector<ReaderNode> nodes_;
  uint32_t free_ = kNil;
  /// ApplyWrite's prior-reader buffer, reused across calls.
  std::vector<TxnId> prior_readers_;
  uint64_t writes_applied_ = 0;
  uint64_t writes_ignored_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_ITEM_STORE_H_
