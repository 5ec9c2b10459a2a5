#include "net/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/check.h"

namespace lazyrep::net {

Network::Network(sim::Simulation* sim, Topology topology,
                 const NetworkParams& params)
    : sim_(sim), topology_(std::move(topology)), params_(params) {
  LAZYREP_CHECK(topology_.num_endpoints() >= 1);
  BuildLinks();
}

Network::Network(sim::Simulation* sim, int num_endpoints,
                 const NetworkParams& params)
    : Network(sim, Topology::Star(num_endpoints, params), params) {}

void Network::BuildLinks() {
  const int endpoints = topology_.num_endpoints();
  leaf_edges_.resize(endpoints);
  for (int i = 0; i < endpoints; ++i) {
    const EdgeParams& ep = topology_.endpoint(i).uplink;
    leaf_edges_[i].up.facility = std::make_unique<sim::Facility>(
        sim_, "out_link_" + std::to_string(i));
    leaf_edges_[i].up.bps = ep.up_bps;
    leaf_edges_[i].up.propagation = ep.latency;
    leaf_edges_[i].down.facility = std::make_unique<sim::Facility>(
        sim_, "in_link_" + std::to_string(i));
    leaf_edges_[i].down.bps = ep.down_bps;
    leaf_edges_[i].down.propagation = ep.latency;
  }
  group_edges_.resize(topology_.num_groups());
  for (int g = 1; g < topology_.num_groups(); ++g) {
    const EdgeParams& ep = topology_.group(g).uplink;
    const std::string& name = topology_.group(g).name;
    group_edges_[g].up.facility =
        std::make_unique<sim::Facility>(sim_, "up_" + name);
    group_edges_[g].up.bps = ep.up_bps;
    group_edges_[g].up.propagation = ep.latency;
    group_edges_[g].down.facility =
        std::make_unique<sim::Facility>(sim_, "down_" + name);
    group_edges_[g].down.bps = ep.down_bps;
    group_edges_[g].down.propagation = ep.latency;
  }
}

sim::Facility* Network::FacilityOf(const Route::Hop& hop) const {
  const Edge& edge = hop.group == Topology::kNoGroup
                         ? leaf_edges_[hop.endpoint]
                         : group_edges_[hop.group];
  return (hop.up ? edge.up : edge.down).facility.get();
}

int Network::FateOf(db::SiteId src, db::SiteId dst) {
  if (!fault_hook_) return 1;
  int copies = fault_hook_(src, dst);
  if (copies == 0) {
    ++messages_dropped_;
  } else if (copies > 1) {
    copies_duplicated_ += copies - 1;
  }
  return copies;
}

sim::Task<bool> Network::Transfer(db::SiteId src, db::SiteId dst,
                                  size_t bytes) {
  // Every hop after the first pays its switch latency as a delay, always
  // scheduled (even when zero) to keep the flat star's event sequence.
  const Route route(topology_, src, dst);
  const int n = route.size();
  const double bits = static_cast<double>(bytes) * 8.0;
  Route::Hop hop = route[0];
  co_await FacilityOf(hop)->Use(bits / hop.bps);
  if (hop.propagation > 0) co_await sim_->Delay(hop.propagation);
  for (int k = 1; k + 1 < n; ++k) {
    hop = route[k];
    co_await sim_->Delay(hop.pre_delay);
    co_await FacilityOf(hop)->Use(bits / hop.bps);
    if (hop.propagation > 0) co_await sim_->Delay(hop.propagation);
  }
  hop = route[n - 1];
  co_await sim_->Delay(hop.pre_delay);
  int copies = FateOf(src, dst);
  if (copies == 0) co_return false;  // lost at the final switch
  for (int i = 0; i < copies; ++i) {
    co_await FacilityOf(hop)->Use(bits / hop.bps);
  }
  if (hop.propagation > 0) co_await sim_->Delay(hop.propagation);
  ++messages_delivered_;
  co_return true;
}

Network::MulticastNode* Network::AcquireNode(DeliveryFn on_delivered,
                                             int legs) {
  MulticastNode* node = free_nodes_;
  if (node != nullptr) {
    free_nodes_ = node->next_free;
    node->next_free = nullptr;
  } else {
    node_arena_.push_back(std::make_unique<MulticastNode>());
    node = node_arena_.back().get();
  }
  node->on_delivered = std::move(on_delivered);
  node->legs_in_flight = legs;
  return node;
}

void Network::FinishLeg(MulticastNode* node) {
  if (--node->legs_in_flight == 0) {
    node->on_delivered.Reset();
    node->next_free = free_nodes_;
    free_nodes_ = node;
  }
}

void Network::ArrangeRecips(db::SiteId src, MulticastNode* node) {
  std::vector<db::SiteId>& recips = node->recips;
  const size_t n = recips.size();
  if (n <= 1) return;
  if (scratch_.size() < n) scratch_.resize(n);
  const int src_switch = topology_.endpoint(src).parent;
  const int src_depth = topology_.group(src_switch).depth;
  bool multilevel = false;
  for (size_t i = 0; i < n && !multilevel; ++i) {
    multilevel = LcaOf(src, recips[i]) != src_switch;
  }
  if (multilevel) {
    // Stable-group by branch level, ascending: the climb spawns fan-outs in
    // that order. In the flat star every recipient branches at level 0, so
    // this pass (and the reorder it implies) never runs there.
    size_t out = 0;
    for (int depth = src_depth; out < n; --depth) {
      LAZYREP_CHECK(depth >= 0);
      for (size_t i = 0; i < n; ++i) {
        if (topology_.group(LcaOf(src, recips[i])).depth == depth) {
          scratch_[out++] = recips[i];
        }
      }
    }
    std::copy(scratch_.begin(), scratch_.begin() + n, recips.begin());
  }
  size_t begin = 0;
  while (begin < n) {
    const int lca = LcaOf(src, recips[begin]);
    size_t end = begin;
    while (end < n && LcaOf(src, recips[end]) == lca) ++end;
    GroupByChild(lca, begin, end, node);
    begin = end;
  }
}

void Network::GroupByChild(int group, size_t begin, size_t end,
                           MulticastNode* node) {
  if (end - begin <= 1) return;
  std::vector<db::SiteId>& recips = node->recips;
  const int child_depth = topology_.group(group).depth + 1;
  // Stable first-appearance grouping into the scratch buffer. Endpoints
  // hanging directly off this switch (AncestorAt == kNoGroup) are their own
  // singleton legs and keep their relative order — exactly the star's
  // per-recipient spawn order when the tree is one level deep.
  size_t out = 0;
  for (size_t i = begin; i < end; ++i) {
    const int child = topology_.AncestorAt(recips[i], child_depth);
    if (child == Topology::kNoGroup) {
      scratch_[out++] = recips[i];
      continue;
    }
    bool seen = false;
    for (size_t j = begin; j < i && !seen; ++j) {
      seen = topology_.AncestorAt(recips[j], child_depth) == child;
    }
    if (seen) continue;
    for (size_t j = i; j < end; ++j) {
      if (topology_.AncestorAt(recips[j], child_depth) == child) {
        scratch_[out++] = recips[j];
      }
    }
  }
  LAZYREP_CHECK(out == end - begin);
  std::copy(scratch_.begin(), scratch_.begin() + out, recips.begin() + begin);
  // Recurse into every interior run to group the next level down.
  size_t i = begin;
  while (i < end) {
    const int child = topology_.AncestorAt(recips[i], child_depth);
    if (child == Topology::kNoGroup) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < end &&
           topology_.AncestorAt(recips[j], child_depth) == child) {
      ++j;
    }
    GroupByChild(child, i, j, node);
    i = j;
  }
}

void Network::SpawnRuns(int group, size_t begin, size_t end, size_t bytes,
                        db::SiteId src, MulticastNode* node) {
  const int child_depth = topology_.group(group).depth + 1;
  size_t i = begin;
  while (i < end) {
    const db::SiteId r = node->recips[i];
    const int child = topology_.AncestorAt(r, child_depth);
    if (child == Topology::kNoGroup) {
      sim_->Spawn(LeafLeg(group, r, bytes, src, node));
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < end &&
           topology_.AncestorAt(node->recips[j], child_depth) == child) {
      ++j;
    }
    sim_->Spawn(DescendBranch(child, i, j, bytes, src, node));
    i = j;
  }
}

sim::Task<void> Network::MulticastSend(db::SiteId src, size_t bytes,
                                       MulticastNode* node) {
  // The switch tree replicates the packet: the sender's access link carries
  // the message exactly once, then every edge toward a receiving subtree
  // carries it once.
  const Link& up = leaf_edges_[src].up;
  co_await up.facility->Use(static_cast<double>(bytes) * 8.0 / up.bps);
  if (node == nullptr) co_return;
  if (up.propagation > 0) co_await sim_->Delay(up.propagation);
  const int src_switch = topology_.endpoint(src).parent;
  const size_t n = node->recips.size();
  size_t level0 = 0;
  while (level0 < n && LcaOf(src, node->recips[level0]) == src_switch) {
    ++level0;
  }
  SpawnRuns(src_switch, 0, level0, bytes, src, node);
  if (level0 < n) {
    ++node->legs_in_flight;  // the climb keeps the node alive
    sim_->Spawn(Climb(src, bytes, node, level0));
  }
}

sim::Process Network::Climb(db::SiteId src, size_t bytes, MulticastNode* node,
                            size_t next) {
  int group = topology_.endpoint(src).parent;
  const size_t n = node->recips.size();
  size_t i = next;
  while (i < n) {
    LAZYREP_CHECK(topology_.group(group).parent != Topology::kNoGroup);
    const Link& up = group_edges_[group].up;
    co_await sim_->Delay(topology_.group(group).switch_latency);
    co_await up.facility->Use(static_cast<double>(bytes) * 8.0 / up.bps);
    if (up.propagation > 0) co_await sim_->Delay(up.propagation);
    group = topology_.group(group).parent;
    size_t end = i;
    while (end < n && LcaOf(src, node->recips[end]) == group) ++end;
    SpawnRuns(group, i, end, bytes, src, node);
    i = end;
  }
  FinishLeg(node);
}

sim::Process Network::DescendBranch(int child, size_t begin, size_t end,
                                    size_t bytes, db::SiteId src,
                                    MulticastNode* node) {
  co_await sim_->Delay(
      topology_.group(topology_.group(child).parent).switch_latency);
  const Link& down = group_edges_[child].down;
  co_await down.facility->Use(static_cast<double>(bytes) * 8.0 / down.bps);
  if (down.propagation > 0) co_await sim_->Delay(down.propagation);
  SpawnRuns(child, begin, end, bytes, src, node);
}

sim::Process Network::LeafLeg(int parent_group, db::SiteId dst, size_t bytes,
                              db::SiteId src, MulticastNode* node) {
  co_await sim_->Delay(topology_.group(parent_group).switch_latency);
  int copies = FateOf(src, dst);
  if (copies > 0) {
    const Link& down = leaf_edges_[dst].down;
    const double tx = static_cast<double>(bytes) * 8.0 / down.bps;
    for (int i = 0; i < copies; ++i) {
      co_await down.facility->Use(tx);
    }
    if (down.propagation > 0) co_await sim_->Delay(down.propagation);
    ++messages_delivered_;
    if (node->on_delivered) node->on_delivered(dst);
  }
  FinishLeg(node);
}

sim::Task<void> Network::Multicast(db::SiteId src,
                                   const std::vector<db::SiteId>& dsts,
                                   size_t bytes, DeliveryFn on_delivered) {
  MulticastNode* node = nullptr;
  if (!dsts.empty()) {
    node = AcquireNode(std::move(on_delivered), static_cast<int>(dsts.size()));
    node->recips.assign(dsts.begin(), dsts.end());
    ArrangeRecips(src, node);
  }
  return MulticastSend(src, bytes, node);
}

double Network::MeanUtilization() const {
  // Leaf up-links first, then leaf down-links, then interior edges: the same
  // summation order (hence the same floating-point sum) as the historical
  // flat star, which had no interior edges.
  double sum = 0;
  int links = 0;
  for (const Edge& e : leaf_edges_) {
    sum += e.up.facility->Utilization();
    ++links;
  }
  for (const Edge& e : leaf_edges_) {
    sum += e.down.facility->Utilization();
    ++links;
  }
  for (const Edge& e : group_edges_) {
    if (e.up.facility == nullptr) continue;  // root has no uplink
    sum += e.up.facility->Utilization();
    sum += e.down.facility->Utilization();
    links += 2;
  }
  return sum / static_cast<double>(links);
}

double Network::GroupUpUtilization(const std::string& name) const {
  const int g = topology_.FindGroup(name);
  LAZYREP_CHECK_MSG(g > 0, "unknown or root topology group");
  return group_edges_[g].up.facility->Utilization();
}

double Network::GroupDownUtilization(const std::string& name) const {
  const int g = topology_.FindGroup(name);
  LAZYREP_CHECK_MSG(g > 0, "unknown or root topology group");
  return group_edges_[g].down.facility->Utilization();
}

double Network::MaxUtilization() const {
  double mx = 0;
  for (const Edge& e : leaf_edges_) {
    mx = std::max(mx, e.up.facility->Utilization());
  }
  for (const Edge& e : leaf_edges_) {
    mx = std::max(mx, e.down.facility->Utilization());
  }
  for (const Edge& e : group_edges_) {
    if (e.up.facility == nullptr) continue;
    mx = std::max(mx, e.up.facility->Utilization());
    mx = std::max(mx, e.down.facility->Utilization());
  }
  return mx;
}

void Network::ResetStats() {
  for (Edge& e : leaf_edges_) {
    e.up.facility->ResetStats();
    e.down.facility->ResetStats();
  }
  for (Edge& e : group_edges_) {
    if (e.up.facility == nullptr) continue;
    e.up.facility->ResetStats();
    e.down.facility->ResetStats();
  }
  messages_delivered_ = 0;
  messages_dropped_ = 0;
  copies_duplicated_ = 0;
}

}  // namespace lazyrep::net
