#include "core/config.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "sim/check.h"

namespace lazyrep::core {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kLocking:
      return "Locking";
    case ProtocolKind::kPessimistic:
      return "Pessimistic";
    case ProtocolKind::kOptimistic:
      return "Optimistic";
    case ProtocolKind::kEager:
      return "Eager";
  }
  return "unknown";
}

bool SystemConfig::HasReplica(db::ItemId item, db::SiteId site) const {
  if (full_replication()) return true;
  db::SiteId primary = PrimarySite(item);
  int k = replicas_per_item();
  int offset = (site - primary + num_sites) % num_sites;
  return offset < k;
}

void SystemConfig::Normalize() {
  workload.num_sites = num_sites;
  workload.replication_degree = full_replication() ? 0 : replicas_per_item();
  LAZYREP_CHECK(num_sites >= 1 && num_sites <= kMaxSites);
  LAZYREP_CHECK(tps > 0);
  LAZYREP_CHECK(total_txns <= kMaxTxns);
  LAZYREP_CHECK(workload.items_per_site >= 1);
  std::string topo_error;
  LAZYREP_CHECK_MSG(topology.Validate(&topo_error), topo_error.c_str());
  // Fault specs are checked against the same topology System will build
  // (sites plus the auxiliary graph endpoint), so an unknown partition group
  // or an out-of-range endpoint is a hard error at every entry point.
  net::Topology topo = BuildTopology();
  topo.AddAuxEndpoint(net::AccessEdge(network));
  std::string fault_error;
  LAZYREP_CHECK_MSG(fault.Validate(topo, &fault_error), fault_error.c_str());
}

SystemConfig SystemConfig::Oc3() {
  SystemConfig c;
  c.num_sites = 100;
  c.network.latency = 0.004;
  c.network.bandwidth_bps = 155e6;
  c.workload.items_per_site = 20;
  c.Normalize();
  return c;
}

SystemConfig SystemConfig::Oc1() {
  SystemConfig c = Oc3();
  c.network.latency = 0.1;
  c.network.bandwidth_bps = 55e6;
  c.Normalize();
  return c;
}

SystemConfig SystemConfig::Oc1Star() {
  SystemConfig c = Oc1();
  c.num_sites = 20;  // 400 items total
  c.Normalize();
  return c;
}

SystemConfig SystemConfig::VsN(int num_sites) {
  SystemConfig c = Oc1();
  c.num_sites = num_sites;
  c.tps = 15.0 * num_sites;  // locTPS fixed at 15
  c.Normalize();
  return c;
}

SystemConfig SystemConfig::VsNFixed(int num_sites, double tps,
                                    int total_items) {
  SystemConfig c = Oc1();
  c.num_sites = num_sites;
  c.tps = tps;
  c.workload.items_per_site = std::max(1, total_items / num_sites);
  c.Normalize();
  return c;
}

std::string FormatConfigTable(const SystemConfig& c) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "General parameters\n"
      "  Database sites (#sites)          %d\n"
      "  Timeout interval                 %.3g sec\n"
      "  CPU speed                        %.0f MIPS\n"
      "Transaction parameters\n"
      "  Read-only transactions           %.0f%%\n"
      "  Update transactions              %.0f%%\n"
      "  Writes in an update transaction  %.0f%%\n"
      "  Operations per transaction       %d-%d (%.1f average)\n"
      "  Global transactions per second   %.0f\n"
      "  Local transactions per second    %.2f\n"
      "Data item parameters\n"
      "  Data item size                   %zu bytes\n"
      "  Primary items per site (IPS)     %d\n"
      "  Total number of items (|DB|)     %d\n"
      "  Degree of replication            %s\n"
      "Network parameters\n"
      "  Latency                          %.3g sec\n"
      "  Bandwidth                        %.0f Mb/sec\n"
      "Disk parameters\n"
      "  Latency                          %.4f sec\n"
      "  Transfer rate                    %.0f MB/sec\n"
      "  Disks per machine                %d\n"
      "  Buffer miss ratio                %.0f%%\n"
      "Replication graph parameters\n"
      "  Cost to add operation to graph   %.0f instructions\n"
      "  Cost per edge in cycle checking  %.0f instructions\n"
      "  Queue bound at graph site        %zu\n",
      c.num_sites, c.timeout, c.cpu_mips,
      c.workload.read_only_fraction * 100,
      (1 - c.workload.read_only_fraction) * 100,
      c.workload.write_op_fraction * 100, c.workload.min_ops,
      c.workload.max_ops, (c.workload.min_ops + c.workload.max_ops) / 2.0,
      c.tps, c.loc_tps(), c.item_bytes, c.workload.items_per_site,
      c.total_items(),
      c.full_replication() ? "full (all sites)" : "partial",
      c.network.latency, c.network.bandwidth_bps / 1e6, c.disk.latency,
      c.disk.transfer_rate / 1e6, c.disk.disks_per_site,
      c.disk.buffer_miss_ratio * 100, c.graph.add_instr,
      c.graph.check_instr_per_edge, c.graph.queue_bound);
  std::string out = buf;
  // The historical star table is reproduced byte-for-byte above; geo layouts
  // append their extra knobs so study headers stay self-describing.
  if (c.topology.kind == net::TopologySpec::Kind::kGeo) {
    char tbuf[512];
    std::snprintf(tbuf, sizeof(tbuf),
                  "Topology parameters\n"
                  "  Layout                           %s\n"
                  "  Backbone link                    %.0f Mb/sec, %.3g sec\n"
                  "  Metro uplink                     %.0f Mb/sec, %.3g sec\n",
                  c.topology.ToString().c_str(), c.topology.backbone_bps / 1e6,
                  c.topology.backbone_latency, c.topology.uplink_bps / 1e6,
                  c.topology.uplink_latency);
    out += tbuf;
  }
  return out;
}

}  // namespace lazyrep::core
