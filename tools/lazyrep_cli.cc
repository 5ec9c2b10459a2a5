// lazyrep_cli — run one replication experiment from the command line.
//
// A downstream-user front-end over the library: every Table-1 parameter and
// extension flag is reachable without writing C++. Prints the human-readable
// metrics block and, with --csv, appends one machine-readable row (with a
// header when the file is new) for scripting and plotting.
//
// Examples:
//   lazyrep_cli --protocol=optimistic --preset=oc3 --tps=1800 --txns=20000
//   lazyrep_cli --protocol=all --sites=12 --items=20 --latency=0.02
//               --tps=400 --csv=sweep.csv          (one command)
//   lazyrep_cli --help

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <sys/stat.h>
#include <vector>

#include "core/config.h"
#include "core/flag_parse.h"
#include "core/study.h"
#include "core/system.h"
#include "replay/workload_script.h"
#include "trace/trace_reader.h"

using namespace lazyrep;
using core::kAboveZero;
using core::kNoMax;
using core::ParseOrDie;
using core::ParseWhole;

namespace {

void PrintHelp() {
  std::printf(
      "lazyrep_cli — run one lazy-replication experiment\n\n"
      "protocol / scenario\n"
      "  --protocol=locking|pessimistic|optimistic|eager|all\n"
      "                                  (default optimistic)\n"
      "  --preset=oc3|oc1|oc1star        start from a paper study config\n"
      "workload & system (override preset)\n"
      "  --sites=N --items=N             sites, primary items per site\n"
      "  --tps=X                         offered global load\n"
      "  --txns=N                        transactions to submit\n"
      "  --read-fraction=F --write-fraction=F --ops=MIN,MAX\n"
      "  --latency=SEC --bandwidth=BPS   network\n"
      "  --topology=star|geo[:KEY=VAL,..] network shape: flat star (default)\n"
      "                                  or a geo hierarchy (keys: dc, metros,\n"
      "                                  bb_bps, bb_lat, up_bps, up_lat)\n"
      "  --timeout=SEC --seed=N\n"
      "extensions\n"
      "  --replication-degree=K --gatekeeper=N --two-version\n"
      "  --relaxed-ownership --sequential-dispatch\n"
      "fault injection\n"
      "  --loss=P --dup=P                per-leg message loss/dup probability\n"
      "  --site-mtbf=SEC --site-mttr=SEC exponential crash/recovery rotation\n"
      "  --crash-graph-site              include the graph site in the rotation\n"
      "  --crash=ENDPOINT,AT,DUR         scripted outage (repeatable;\n"
      "                                  endpoint <sites> = graph site)\n"
      "  --partition=E1+E2+..@AT:DUR     scripted group partition: the listed\n"
      "                                  endpoints are cut off from the rest\n"
      "                                  during [AT, AT+DUR) (repeatable)\n"
      "  --partition=dc0|dc1.m0@AT:DUR   same, but by named topology group:\n"
      "                                  each name becomes its own island,\n"
      "                                  remaining endpoints form the last\n"
      "                                  (requires --topology=geo...)\n"
      "  --amnesia                       crashes wipe volatile state; sites\n"
      "                                  replay their WAL on recovery\n"
      "  --checkpoint-interval=SEC       fuzzy checkpoint period (amnesia)\n"
      "  --retries=N --rto=SEC           reliable-messaging retry policy\n"
      "replay (what-if re-execution of a captured workload)\n"
      "  --replay=FILE                   re-run the exact workload recorded in\n"
      "                                  a --trace capture: same submission\n"
      "                                  instants, op lists, and per-site\n"
      "                                  order. sites/txns/seed come from the\n"
      "                                  recording; --protocol, --topology,\n"
      "                                  faults etc. still apply (defaults:\n"
      "                                  the recorded protocol; --seed keeps\n"
      "                                  an explicit seed override)\n"
      "  --replay-point=N                which point block of FILE (default 0)\n"
      "output\n"
      "  --csv=FILE                      append a machine-readable row\n"
      "  --trace=FILE                    record per-transaction event traces\n"
      "                                  (analyze with lazyrep_trace)\n"
      "  --check-serializability         run the MVSG checker (slower)\n"
      "  --jobs=N                        run --protocol=all runs on N worker\n"
      "                                  threads (0 = all cores; default 1)\n"
      "  --quiet                         suppress the human-readable block\n");
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

/// Parses --ops=MIN,MAX: two integers with 1 <= MIN <= MAX.
bool ParseOpsRange(std::string_view text, int* lo, int* hi) {
  size_t comma = text.find(',');
  return comma != std::string_view::npos &&
         ParseWhole(text.substr(0, comma), lo) &&
         ParseWhole(text.substr(comma + 1), hi) && 1 <= *lo && *lo <= *hi;
}

void AppendCsv(const std::string& path, const char* protocol,
               const core::SystemConfig& c, const core::MetricsSnapshot& m,
               int serializable) {
  struct stat st;
  bool fresh = stat(path.c_str(), &st) != 0 || st.st_size == 0;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  if (fresh) {
    std::fprintf(
        f,
        "protocol,sites,items,tps,txns,seed,completed_tps,abort_rate,"
        "ro_mean,ro_ci95,ro_p95,upd_mean,upd_ci95,upd_p95,commit_complete,"
        "graph_cpu,disk_mean,net_mean,lock_timeouts,graph_rejections,"
        "serializable\n");
  }
  std::fprintf(f,
               "%s,%d,%d,%.0f,%llu,%llu,%.3f,%.5f,%.6f,%.6f,%.6f,%.6f,%.6f,"
               "%.6f,%.6f,%.4f,%.4f,%.4f,%llu,%llu,%d\n",
               protocol, c.num_sites, c.total_items(), c.tps,
               (unsigned long long)c.total_txns, (unsigned long long)c.seed,
               m.completed_tps, m.abort_rate, m.read_only_response.Mean(),
               m.read_only_response.HalfWidth95(),
               m.read_only_quantiles.P95(), m.update_response.Mean(),
               m.update_response.HalfWidth95(), m.update_quantiles.P95(),
               m.commit_to_complete.Mean(), m.graph_cpu_utilization,
               m.mean_disk_utilization, m.mean_network_utilization,
               (unsigned long long)m.lock_timeouts,
               (unsigned long long)m.graph_rejections, serializable);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  core::SystemConfig config;
  config.num_sites = 10;
  config.tps = 200;
  config.total_txns = 10000;
  std::vector<core::ProtocolKind> protocols = {
      core::ProtocolKind::kOptimistic};
  std::string csv_path;
  std::string trace_path;
  std::string replay_path;
  int replay_point = 0;
  bool protocol_set = false;  // replay defaults to the recorded protocol
  bool seed_set = false;      // replay keeps an explicit --seed override
  bool check_serializability = false;
  bool quiet = false;
  int jobs = 1;  // serial by default; --jobs=0 means all cores

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      PrintHelp();
      return 0;
    } else if (FlagValue(a, "--protocol", &v)) {
      protocol_set = true;
      protocols.clear();
      if (std::strcmp(v, "locking") == 0) {
        protocols.push_back(core::ProtocolKind::kLocking);
      } else if (std::strcmp(v, "pessimistic") == 0) {
        protocols.push_back(core::ProtocolKind::kPessimistic);
      } else if (std::strcmp(v, "optimistic") == 0) {
        protocols.push_back(core::ProtocolKind::kOptimistic);
      } else if (std::strcmp(v, "eager") == 0) {
        protocols.push_back(core::ProtocolKind::kEager);
      } else if (std::strcmp(v, "all") == 0) {
        protocols = {core::ProtocolKind::kLocking,
                     core::ProtocolKind::kPessimistic,
                     core::ProtocolKind::kOptimistic,
                     core::ProtocolKind::kEager};
      } else {
        std::fprintf(stderr, "unknown protocol %s\n", v);
        return 1;
      }
    } else if (FlagValue(a, "--preset", &v)) {
      double tps = config.tps;
      uint64_t txns = config.total_txns;
      if (std::strcmp(v, "oc3") == 0) {
        config = core::SystemConfig::Oc3();
      } else if (std::strcmp(v, "oc1") == 0) {
        config = core::SystemConfig::Oc1();
      } else if (std::strcmp(v, "oc1star") == 0) {
        config = core::SystemConfig::Oc1Star();
      } else {
        std::fprintf(stderr, "unknown preset %s\n", v);
        return 1;
      }
      config.tps = tps;
      config.total_txns = txns;
    } else if (FlagValue(a, "--sites", &v)) {
      ParseOrDie(a, v, &config.num_sites, 1, core::SystemConfig::kMaxSites);
    } else if (FlagValue(a, "--items", &v)) {
      ParseOrDie(a, v, &config.workload.items_per_site, 1);
    } else if (FlagValue(a, "--tps", &v)) {
      ParseOrDie(a, v, &config.tps, 0.0, kNoMax, kAboveZero);
    } else if (FlagValue(a, "--txns", &v)) {
      ParseOrDie(a, v, &config.total_txns, uint64_t{1},
                 core::SystemConfig::kMaxTxns);
    } else if (FlagValue(a, "--read-fraction", &v)) {
      ParseOrDie(a, v, &config.workload.read_only_fraction, 0.0, 1.0);
    } else if (FlagValue(a, "--write-fraction", &v)) {
      ParseOrDie(a, v, &config.workload.write_op_fraction, 0.0, 1.0);
    } else if (FlagValue(a, "--ops", &v)) {
      if (!ParseOpsRange(v, &config.workload.min_ops,
                         &config.workload.max_ops)) {
        std::fprintf(stderr, "bad --ops=%s: want MIN,MAX integers with "
                     "1 <= MIN <= MAX\n", v);
        return 2;
      }
    } else if (FlagValue(a, "--latency", &v)) {
      ParseOrDie(a, v, &config.network.latency, 0.0);
    } else if (FlagValue(a, "--bandwidth", &v)) {
      ParseOrDie(a, v, &config.network.bandwidth_bps, 0.0, kNoMax, kAboveZero);
    } else if (FlagValue(a, "--topology", &v)) {
      std::string err;
      if (!config.topology.Parse(v, &err)) {
        std::fprintf(stderr, "bad --topology: %s\n", err.c_str());
        return 1;
      }
    } else if (FlagValue(a, "--timeout", &v)) {
      ParseOrDie(a, v, &config.timeout, 0.0, kNoMax, kAboveZero);
      config.graph.wait_timeout = config.timeout;
    } else if (FlagValue(a, "--seed", &v)) {
      ParseOrDie(a, v, &config.seed, uint64_t{0});
      seed_set = true;
    } else if (FlagValue(a, "--replication-degree", &v)) {
      ParseOrDie(a, v, &config.replication_degree, 0);
    } else if (FlagValue(a, "--gatekeeper", &v)) {
      ParseOrDie(a, v, &config.read_gatekeeper, 0);
    } else if (std::strcmp(a, "--two-version") == 0) {
      config.two_version_reads = true;
    } else if (std::strcmp(a, "--relaxed-ownership") == 0) {
      config.workload.relaxed_ownership = true;
    } else if (std::strcmp(a, "--sequential-dispatch") == 0) {
      config.pipelined_dispatch = false;
    } else if (FlagValue(a, "--loss", &v)) {
      ParseOrDie(a, v, &config.fault.loss_prob, 0.0, 1.0);
    } else if (FlagValue(a, "--dup", &v)) {
      ParseOrDie(a, v, &config.fault.dup_prob, 0.0, 1.0);
    } else if (FlagValue(a, "--site-mtbf", &v)) {
      ParseOrDie(a, v, &config.fault.site_mtbf, 0.0);
    } else if (FlagValue(a, "--site-mttr", &v)) {
      ParseOrDie(a, v, &config.fault.site_mttr, 0.0);
    } else if (std::strcmp(a, "--crash-graph-site") == 0) {
      config.fault.crash_graph_site = true;
    } else if (FlagValue(a, "--crash", &v)) {
      fault::ScheduledCrash c;
      double at = 0, dur = 0;
      if (std::sscanf(v, "%d,%lf,%lf", &c.endpoint, &at, &dur) != 3) {
        std::fprintf(stderr, "--crash wants ENDPOINT,AT,DURATION\n");
        return 1;
      }
      c.at = at;
      c.duration = dur;
      config.fault.crashes.push_back(c);
    } else if (FlagValue(a, "--partition", &v)) {
      // Two spellings, both ending in @AT:DUR. Legacy: endpoints separated
      // by '+'. Named: topology group names separated by '|', each becoming
      // its own island (validated against the topology in Normalize()).
      fault::ScheduledPartition part;
      std::string spec(v);
      size_t at_pos = spec.rfind('@');
      bool ok =
          at_pos != std::string::npos &&
          std::sscanf(spec.c_str() + at_pos + 1, "%lf:%lf", &part.at,
                      &part.duration) == 2;
      if (ok) {
        std::string members = spec.substr(0, at_pos);
        if (members.find_first_not_of("0123456789+") == std::string::npos) {
          size_t pos = 0;
          while (ok && pos <= members.size()) {
            size_t plus = members.find('+', pos);
            if (plus == std::string::npos) plus = members.size();
            std::string tok = members.substr(pos, plus - pos);
            char* end = nullptr;
            long e = std::strtol(tok.c_str(), &end, 10);
            ok = !tok.empty() && *end == '\0';
            if (ok) part.group.push_back(static_cast<int>(e));
            pos = plus + 1;
          }
        } else {
          size_t pos = 0;
          while (ok && pos <= members.size()) {
            size_t bar = members.find('|', pos);
            if (bar == std::string::npos) bar = members.size();
            std::string name = members.substr(pos, bar - pos);
            ok = !name.empty();
            if (ok) part.groups.push_back(std::move(name));
            pos = bar + 1;
          }
        }
      }
      if (!ok || (part.group.empty() && part.groups.empty())) {
        std::fprintf(stderr,
                     "--partition wants E1+E2+..@AT:DUR or NAME|NAME@AT:DUR\n");
        return 1;
      }
      config.fault.partitions.push_back(std::move(part));
    } else if (std::strcmp(a, "--amnesia") == 0) {
      config.fault.amnesia = true;
    } else if (FlagValue(a, "--checkpoint-interval", &v)) {
      ParseOrDie(a, v, &config.fault.checkpoint_interval, 0.0, kNoMax,
                 kAboveZero);
    } else if (FlagValue(a, "--retries", &v)) {
      ParseOrDie(a, v, &config.fault.max_retries, 0);
    } else if (FlagValue(a, "--rto", &v)) {
      ParseOrDie(a, v, &config.fault.rto_initial, 0.0, kNoMax, kAboveZero);
    } else if (FlagValue(a, "--csv", &v)) {
      csv_path = v;
    } else if (FlagValue(a, "--trace", &v)) {
      trace_path = v;
    } else if (FlagValue(a, "--replay", &v)) {
      replay_path = v;
    } else if (FlagValue(a, "--replay-point", &v)) {
      ParseOrDie(a, v, &replay_point, 0);
    } else if (FlagValue(a, "--jobs", &v)) {
      ParseOrDie(a, v, &jobs, 0);  // 0 = hardware_concurrency
    } else if (std::strcmp(a, "--check-serializability") == 0) {
      check_serializability = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      return 1;
    }
  }
  std::shared_ptr<const replay::WorkloadScript> script;
  if (!replay_path.empty()) {
    trace::TraceFile file;
    std::string error;
    if (!trace::ReadTraceFile(replay_path, &file, &error)) {
      std::fprintf(stderr, "cannot replay %s: %s\n", replay_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (replay_point < 0 ||
        static_cast<size_t>(replay_point) >= file.points.size()) {
      std::fprintf(stderr, "--replay-point=%d out of range: %s holds %zu "
                   "point block(s)\n", replay_point, replay_path.c_str(),
                   file.points.size());
      return 1;
    }
    auto parsed = std::make_shared<replay::WorkloadScript>();
    if (!replay::WorkloadScript::FromPoint(file.points[replay_point],
                                           file.header.version, parsed.get(),
                                           &error)) {
      std::fprintf(stderr, "cannot replay %s point %d: %s\n",
                   replay_path.c_str(), replay_point, error.c_str());
      return 1;
    }
    script = parsed;
    if (!protocol_set) {
      if (script->protocol() >= 4) {
        std::fprintf(stderr, "recorded protocol id %u is unknown; pick one "
                     "with --protocol\n", script->protocol());
        return 1;
      }
      protocols = {static_cast<core::ProtocolKind>(script->protocol())};
    }
    config = replay::MakeReplayConfig(*script, config, /*keep_seed=*/seed_set);
  }
  // Site ids are 16-bit, and every later step builds per-site state: check
  // the count before anything is sized by it.
  if (config.num_sites < 1 ||
      config.num_sites > core::SystemConfig::kMaxSites) {
    std::fprintf(stderr, "--sites=%d out of range: want 1 to %d\n",
                 config.num_sites, core::SystemConfig::kMaxSites);
    return 2;
  }
  // SystemConfig::total_items() is an int product.
  if (int64_t{config.workload.items_per_site} * config.num_sites >
      std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "--items=%d x --sites=%d is too many items\n",
                 config.workload.items_per_site, config.num_sites);
    return 2;
  }
  // Validate fault specs against the topology System will build (sites plus
  // the auxiliary graph endpoint) for a friendly error instead of the
  // hard-check inside Normalize().
  {
    net::Topology topo = config.BuildTopology();
    topo.AddAuxEndpoint(net::AccessEdge(config.network));
    if (std::string err; !config.fault.Validate(topo, &err)) {
      std::fprintf(stderr, "invalid fault parameters: %s\n", err.c_str());
      return 1;
    }
  }
  config.Normalize();

  std::vector<core::RunSpec> specs;
  specs.reserve(protocols.size());
  for (core::ProtocolKind kind : protocols) {
    if (script != nullptr) {
      specs.push_back(replay::MakeReplaySpec(script, config, kind,
                                             script->x(), seed_set));
    } else {
      specs.push_back({config, kind});
    }
  }
  std::vector<core::MetricsSnapshot> snaps =
      core::RunAll(specs, jobs, check_serializability, {},
                   /*post_run_audit=*/false, trace_path);

  int exit_code = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    core::ProtocolKind kind = specs[i].protocol;
    const core::MetricsSnapshot& m = snaps[i];
    int serializable = m.serializable;  // -1 = not checked
    const std::string& why = m.serializability_why;
    if (!quiet) {
      std::printf("=== %s | %d sites | %d items | %.0f TPS offered ===\n",
                  core::ProtocolKindName(kind), config.num_sites,
                  config.total_items(), config.tps);
      std::printf("%s\n", m.ToString().c_str());
      std::printf("ro p50/p95/p99: %.4f/%.4f/%.4f s   "
                  "upd p50/p95/p99: %.4f/%.4f/%.4f s\n",
                  m.read_only_quantiles.P50(), m.read_only_quantiles.P95(),
                  m.read_only_quantiles.P99(), m.update_quantiles.P50(),
                  m.update_quantiles.P95(), m.update_quantiles.P99());
      // The serializability verdict, when checked, is part of ToString().
      if (serializable == 0) {
        std::printf("SERIALIZABILITY VIOLATION: %s\n", why.c_str());
      }
      std::printf("\n");
    }
    if (!csv_path.empty()) {
      AppendCsv(csv_path, core::ProtocolKindName(kind), config, m,
                serializable);
    }
    if (serializable == 0) exit_code = 2;
  }
  return exit_code;
}
