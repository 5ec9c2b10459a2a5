#ifndef LAZYREP_CORE_CONFIG_H_
#define LAZYREP_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "fault/fault_params.h"
#include "hw/disk.h"
#include "net/network.h"
#include "rg/graph_site.h"
#include "txn/workload.h"

namespace lazyrep::core {

/// Which replication protocol a System instance runs.
enum class ProtocolKind : uint8_t {
  kLocking,      ///< global locking [Gray et al. 96 / §2.2]
  kPessimistic,  ///< replication graph, per-operation RGtest [§2.4]
  kOptimistic,   ///< replication graph, commit-time RGtest [§2.5]
  kEager,        ///< eager baseline: strict 2PL at all replicas + 2PC [§1]
};

const char* ProtocolKindName(ProtocolKind kind);

/// Full simulation configuration — Table 1 of the paper plus the
/// implementation constants the paper leaves unspecified (documented in
/// DESIGN.md, Substitutions).
struct SystemConfig {
  /// Largest num_sites: site ids are db::SiteId (uint16_t), and the graph
  /// site's endpoint takes the id after the last site.
  static constexpr int kMaxSites = 65534;
  /// Largest total_txns: transaction ids run 1..total_txns, and a replica
  /// keeps its version's writer as a 32-bit id (db::ItemStore).
  static constexpr uint64_t kMaxTxns = UINT32_MAX;

  // -- general ---------------------------------------------------------------
  int num_sites = 100;
  /// Deadlock-timeout interval (lock waits and graph-site waits), seconds.
  double timeout = 0.5;
  /// Site CPU speed (also the graph site's CPU).
  double cpu_mips = 300.0;

  // -- transactions ----------------------------------------------------------
  txn::WorkloadParams workload;
  /// Global submitted transaction rate (TPS); each site generates TPS/#sites.
  double tps = 1000.0;

  // -- data items ------------------------------------------------------------
  size_t item_bytes = 1024;

  // -- network / disks / graph site -------------------------------------------
  net::NetworkParams network;
  /// Shape of the network: the paper's flat star (default) or a composed
  /// geo-hierarchical tree (backbone -> datacenters -> metro stars). Site
  /// access links and metro switches always take their parameters from
  /// `network`; the spec adds the backbone/uplink edges on top.
  net::TopologySpec topology;
  hw::DiskParams disk;
  rg::GraphSiteParams graph;

  /// Fault injection (message loss/duplication, site crashes) and the
  /// reliable-messaging retry policy. All knobs default to zero/off: with
  /// fault.enabled() false the injector and ack layer are never constructed
  /// and every run is bit-identical to a build without them.
  fault::FaultParams fault;

  // -- implementation cost constants (not published in the paper) -------------
  /// CPU instructions to process one database operation at a site.
  double op_instr = 50000;
  /// CPU instructions to send or receive one message at a database site.
  double message_instr = 5000;
  /// Control-message size (lock requests/grants, RGtest requests, acks) —
  /// ATM-cell-scale payloads; large enough values would make the graph
  /// site's *link*, not its CPU, the first bottleneck, contradicting §4.1.
  size_t ctrl_msg_bytes = 128;
  /// Header bytes on an update-propagation message (plus item_bytes/item).
  size_t propagation_overhead_bytes = 64;
  /// Log-force payload at commit.
  size_t log_bytes = 512;

  /// Read-only transactions read without acquiring local read locks
  /// (§4.3 future work, "two-version approach"): reads never block behind
  /// replica installations and installations never wait for readers.
  bool two_version_reads = false;

  /// Dispatch the per-operation control round trips (global read locks,
  /// pessimistic RGtests) for all operations at transaction start, overlapping
  /// their latency; operations still execute strictly in order, each after
  /// its own control response. False = fully sequential round trips.
  bool pipelined_dispatch = true;

  /// How long the eager 2PC coordinator waits for unanimous YES votes
  /// before presuming abort: the lock timeout plus two round trips.
  double EagerVoteTimeout() const { return timeout + 4 * network.latency; }

  // -- run control -------------------------------------------------------------
  /// Transactions submitted per run (the paper used 100,000).
  uint64_t total_txns = 10000;
  /// Transactions discarded per site as warm-up transients (paper: 5).
  int warmup_per_site = 5;
  uint64_t seed = 1;

  // -- extensions / ablations ---------------------------------------------------
  /// 0 = full replication (paper). k >= 1: each item is replicated at its
  /// primary site plus the next k-1 sites (§5 future work).
  int replication_degree = 0;
  /// 0 = off. Otherwise the maximum concurrently executing read-only
  /// transactions per site; excess submissions wait (§4.3 gatekeeper).
  int read_gatekeeper = 0;

  double loc_tps() const { return tps / num_sites; }
  int total_items() const { return workload.items_per_site * num_sites; }
  db::SiteId PrimarySite(db::ItemId item) const {
    return static_cast<db::SiteId>(item / workload.items_per_site);
  }
  bool full_replication() const { return replication_degree == 0; }
  /// Number of replicas each item has.
  int replicas_per_item() const {
    return full_replication() ? num_sites
                              : std::min(replication_degree, num_sites);
  }
  /// True when `site` holds a replica of `item`.
  bool HasReplica(db::ItemId item, db::SiteId site) const;

  /// Validates internal consistency (e.g. workload.num_sites == num_sites).
  void Normalize();

  /// Builds the topology tree for the configured site count — sites only;
  /// auxiliary endpoints (the graph site) are allocated by core::System on
  /// top of the returned tree.
  net::Topology BuildTopology() const {
    return net::BuildTopology(topology, num_sites, network);
  }

  // -- the paper's study presets -------------------------------------------------
  static SystemConfig Oc3();                 ///< §4.1: 100 sites, metro ATM
  static SystemConfig Oc1();                 ///< §4.2: 100 sites, continental
  static SystemConfig Oc1Star();             ///< §4.3: 20 sites, 400 items
  static SystemConfig VsN(int num_sites);    ///< §4.4: locTPS=15, IPS=20
  /// §4.4 variant: fixed global TPS and |DB| split across `num_sites`.
  static SystemConfig VsNFixed(int num_sites, double tps, int total_items);
};

/// Renders the Table 1 parameter block for a configuration.
std::string FormatConfigTable(const SystemConfig& config);

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_CONFIG_H_
