#include "txn/workload.h"

#include "sim/check.h"

namespace lazyrep::txn {

Transaction WorkloadGenerator::Generate(db::TxnId id, db::SiteId origin,
                                        sim::RandomStream* rng) const {
  LAZYREP_CHECK(origin < params_.num_sites);
  Transaction t;
  t.id = id;
  t.origin = origin;
  t.is_update = !rng->Chance(params_.read_only_fraction);

  int num_ops =
      static_cast<int>(rng->UniformInt(params_.min_ops, params_.max_ops));

  const int total = params_.total_items();
  // Items are distinct within a transaction, so a tiny database bounds the
  // operation count: reads draw only from the items replicated at the origin
  // (the whole database under full replication). Without the clamp the
  // distinct-item rejection loops below cannot terminate.
  const int reachable =
      params_.full_replication()
          ? total
          : params_.replication_degree * params_.items_per_site;
  if (num_ops > reachable) num_ops = reachable;
  t.ops.reserve(num_ops);
  // The primary-item range owned by the origination site.
  const int own_lo = origin * params_.items_per_site;
  const int own_hi = own_lo + params_.items_per_site - 1;

  // The items drawn so far are those of t.ops, tens at most: a linear scan
  // costs less than building a hash set for every transaction.
  auto used = [&t](db::ItemId item) {
    for (const db::Operation& o : t.ops) {
      if (o.item == item) return true;
    }
    return false;
  };

  for (int i = 0; i < num_ops; ++i) {
    db::Operation op;
    op.type = (t.is_update && rng->Chance(params_.write_op_fraction))
                  ? db::OpType::kWrite
                  : db::OpType::kRead;
    // Writes draw from the origin's primary items (ownership rule, §2.1)
    // unless relaxed; reads draw from the whole database. Items are distinct
    // within the transaction (Appendix assumption), found by rejection.
    int lo = 0;
    int hi = total - 1;
    if (op.type == db::OpType::kWrite && !params_.relaxed_ownership) {
      lo = own_lo;
      hi = own_hi;
    }
    // A write pool of items_per_site bounds the distinct writes available;
    // fall back to a read when the pool is exhausted.
    if (op.type == db::OpType::kWrite &&
        static_cast<int>(t.ops.size()) >= hi - lo + 1) {
      bool pool_full = true;
      for (int d = lo; d <= hi; ++d) {
        if (!used(static_cast<db::ItemId>(d))) {
          pool_full = false;
          break;
        }
      }
      if (pool_full) {
        op.type = db::OpType::kRead;
        lo = 0;
        hi = total - 1;
      }
    }
    db::ItemId item;
    if (op.type == db::OpType::kRead && !params_.full_replication()) {
      // Reads must hit a replica at the origination site: the k consecutive
      // primary blocks ending at `origin` hold exactly the locally
      // replicated items.
      int k = params_.replication_degree;
      do {
        int block =
            (origin - static_cast<int>(rng->UniformInt(0, k - 1)) +
             params_.num_sites) %
            params_.num_sites;
        item = static_cast<db::ItemId>(
            block * params_.items_per_site +
            rng->UniformInt(0, params_.items_per_site - 1));
      } while (used(item));
    } else {
      do {
        item = static_cast<db::ItemId>(rng->UniformInt(lo, hi));
      } while (used(item));
    }
    op.item = item;
    t.ops.push_back(op);
  }

  t.RebuildAccessSets();
  // A transaction that drew the update class but no write operations behaves
  // as (and is classified as) read-only.
  if (t.write_set.empty()) t.is_update = false;
  return t;
}

}  // namespace lazyrep::txn
