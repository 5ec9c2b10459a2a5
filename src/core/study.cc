#include "core/study.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include <unistd.h>

#include "core/flag_parse.h"
#include "core/history.h"
#include "core/parallel.h"
#include "core/system.h"
#include "net/topology.h"
#include "sim/check.h"
#include "sim/random.h"
#include "trace/trace_sink.h"

namespace lazyrep::core {

namespace {

/// Datacenter ordinal of every site for the trace block's site map: the
/// depth-1 topology group (the "dc<i>" tier of geo topologies), densified
/// in site order. A flat star has no depth-1 groups — every site maps to
/// datacenter 0.
trace::PointMeta MakePointMeta(const RunSpec& spec, size_t index) {
  trace::PointMeta meta;
  meta.point_index = static_cast<uint32_t>(index);
  meta.protocol = static_cast<uint32_t>(spec.protocol);
  meta.x = spec.x;
  meta.seed = spec.config.seed;
  net::Topology topo = spec.config.BuildTopology();
  meta.dc_of_site = net::DatacenterOrdinals(topo, spec.config.num_sites);
  return meta;
}

}  // namespace

uint64_t DerivePointSeed(const std::string& study_name, ProtocolKind protocol,
                         double x, uint64_t base_seed) {
  uint64_t h = 0x243f6a8885a308d3ULL;  // domain tag (pi), not tunable
  h = HashString(h, study_name.data(), study_name.size());
  h = HashCombine(h, static_cast<uint64_t>(protocol));
  uint64_t x_bits = 0;
  static_assert(sizeof(x_bits) == sizeof(x));
  std::memcpy(&x_bits, &x, sizeof(x_bits));
  h = HashCombine(h, x_bits);
  return HashCombine(h, base_seed);
}

std::vector<MetricsSnapshot> RunAll(
    const std::vector<RunSpec>& specs, int jobs, bool check_serializability,
    const std::function<void(size_t, const MetricsSnapshot&)>& on_done,
    bool post_run_audit, const std::string& trace_path) {
  std::vector<MetricsSnapshot> snaps(specs.size());
  const bool tracing = !trace_path.empty();
  std::vector<std::string> shards(tracing ? specs.size() : 0);
  std::mutex done_mu;
  ParallelFor(jobs, specs.size(), [&](size_t i) {
    System system(specs[i].config, specs[i].protocol);
    if (specs[i].make_workload) {
      system.set_workload_source(specs[i].make_workload());
    }
    HistoryRecorder history;
    if (check_serializability) system.set_history(&history);
    std::unique_ptr<trace::TraceSink> sink;
    if (tracing) {
      shards[i] = trace::ShardPath(trace_path, i);
      std::string err;
      sink = trace::TraceSink::Open(shards[i], MakePointMeta(specs[i], i),
                                    &err);
      LAZYREP_CHECK_MSG(sink != nullptr, err.c_str());
      system.set_trace(sink.get());
    }
    MetricsSnapshot snap = system.Run();
    if (sink != nullptr) {
      std::string err;
      LAZYREP_CHECK_MSG(sink->Finish(&err), err.c_str());
    }
    if (check_serializability) {
      std::string why;
      snap.serializable = history.CheckOneCopySerializable(&why) ? 1 : 0;
      snap.history_committed = history.committed_count();
      snap.history_reads = history.reads_recorded();
      snap.serializability_why = std::move(why);
    }
    if (post_run_audit) {
      // Run() has already drained: faults are healed and assured traffic
      // has landed, so divergence or a live transaction here is a bug, not
      // an in-flight artifact.
      std::string why;
      snap.replicas_converged = system.ReplicasConverged(&why) ? 1 : 0;
      snap.convergence_why = std::move(why);
      snap.stranded_txns = system.LiveTxns();
    }
    if (on_done) {
      std::lock_guard<std::mutex> lock(done_mu);
      on_done(i, snap);
    }
    snaps[i] = std::move(snap);
  });
  if (tracing) {
    std::string err;
    LAZYREP_CHECK_MSG(trace::MergeShards(trace_path, shards, &err),
                      err.c_str());
  }
  return snaps;
}

SystemConfig MakeChaosConfig(const ChaosOptions& opt, ProtocolKind protocol,
                             int schedule) {
  SystemConfig c;
  c.num_sites = 5;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.network.bandwidth_bps = 155e6;
  c.total_txns = opt.txns;
  c.seed = DerivePointSeed("chaos", protocol, static_cast<double>(schedule),
                           opt.seed);
  // The fault script draws from its own stream, decorrelated from the run
  // seed the workload generators consume.
  sim::RandomStream rng(c.seed ^ 0x9e3779b97f4a7c15ULL);
  c.tps = 40.0 + rng.Uniform(0.0, 20.0);
  const double horizon = static_cast<double>(opt.txns) / c.tps;
  const double fault_window = std::max(0.4, horizon * 0.7);

  // Message faults: about half the schedules lose packets, fewer duplicate.
  if (rng.Chance(0.5)) c.fault.loss_prob = rng.Uniform(0.001, 0.03);
  if (rng.Chance(0.3)) c.fault.dup_prob = rng.Uniform(0.001, 0.02);

  // Crash mix: an MTBF rotation, scripted outages, or both. Scripted
  // windows land on distinct endpoints so they can never overlap
  // (FaultParams::Validate rejects same-endpoint overlap).
  if (rng.Chance(0.6)) {
    c.fault.site_mtbf = rng.Uniform(3.0, 12.0);
    c.fault.site_mttr = rng.Uniform(0.2, 1.0);
  }
  int scripted = static_cast<int>(rng.UniformInt(0, 2));
  int first_endpoint =
      scripted > 0 ? static_cast<int>(rng.UniformInt(0, c.num_sites - 1)) : 0;
  for (int i = 0; i < scripted; ++i) {
    fault::ScheduledCrash crash;
    crash.endpoint = (first_endpoint + i) % c.num_sites;
    crash.at = rng.Uniform(0.2, fault_window);
    crash.duration = rng.Uniform(0.1, 0.8);
    c.fault.crashes.push_back(crash);
  }

  // 0-2 partition windows, each cutting one or two sites off the rest.
  int parts = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 0; i < parts; ++i) {
    fault::ScheduledPartition part;
    int group_lead = static_cast<int>(rng.UniformInt(0, c.num_sites - 1));
    part.group.push_back(group_lead);
    if (rng.Chance(0.5)) part.group.push_back((group_lead + 1) % c.num_sites);
    part.at = rng.Uniform(0.2, fault_window);
    part.duration = rng.Uniform(0.1, 0.6);
    c.fault.partitions.push_back(part);
  }

  // A schedule where every draw came up empty would disable the injector
  // outright (fault.enabled() false); give it one outage so every schedule
  // exercises the crash path.
  if (!c.fault.enabled()) {
    fault::ScheduledCrash crash;
    crash.endpoint = static_cast<int>(rng.UniformInt(0, c.num_sites - 1));
    crash.at = rng.Uniform(0.2, fault_window);
    crash.duration = rng.Uniform(0.2, 0.8);
    c.fault.crashes.push_back(crash);
  }

  c.fault.amnesia = true;
  c.fault.checkpoint_interval = rng.Uniform(1.0, 5.0);
  c.Normalize();
  return c;
}

StudyRunner::StudyRunner(std::string name, ConfigFn make_config)
    : name_(std::move(name)),
      make_config_(std::move(make_config)),
      protocols_({ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                  ProtocolKind::kOptimistic}) {}

void StudyRunner::set_protocols(std::vector<ProtocolKind> protocols) {
  protocols_ = std::move(protocols);
}

std::vector<StudyPoint> StudyRunner::Sweep(const std::vector<double>& xs,
                                           bool verbose) {
  // Specs are laid out in canonical order (protocol-major, xs as given);
  // RunAll returns snapshots by index, so the collected points stay in that
  // order no matter which worker finishes first.
  std::vector<StudyPoint> points;
  std::vector<RunSpec> specs;
  points.reserve(xs.size() * protocols_.size());
  specs.reserve(xs.size() * protocols_.size());
  for (ProtocolKind kind : protocols_) {
    for (double x : xs) {
      StudyPoint point;
      point.x = x;
      point.protocol = kind;
      points.push_back(point);
      RunSpec spec;
      spec.config = make_config_(x);
      spec.config.seed = DerivePointSeed(name_, kind, x, spec.config.seed);
      spec.protocol = kind;
      spec.x = x;
      specs.push_back(std::move(spec));
    }
  }
  std::function<void(size_t, const MetricsSnapshot&)> report;
  if (verbose) {
    report = [this, &points](size_t i, const MetricsSnapshot& snap) {
      std::fprintf(stderr, "[%s] %-11s x=%-7g completed=%.0f tps abort=%.3f"
                   " graph-cpu=%.2f\n",
                   name_.c_str(), ProtocolKindName(points[i].protocol),
                   points[i].x, snap.completed_tps, snap.abort_rate,
                   snap.graph_cpu_utilization);
    };
  }
  std::vector<MetricsSnapshot> snaps =
      RunAll(specs, jobs_, check_serializability_, report,
             /*post_run_audit=*/false, trace_path_);
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].snap = std::move(snaps[i]);
  }
  return points;
}

void PrintFigure(const std::vector<StudyPoint>& points,
                 const std::string& figure_title, const std::string& x_label,
                 const std::string& y_label, const SeriesFn& series,
                 const std::vector<ProtocolKind>& protocols) {
  std::printf("\n%s\n", figure_title.c_str());
  std::printf("%-10s", x_label.c_str());
  for (ProtocolKind kind : protocols) {
    bool present = false;
    for (const StudyPoint& p : points) {
      if (p.protocol == kind) present = true;
    }
    if (present) std::printf(" %14s", ProtocolKindName(kind));
  }
  std::printf("    (%s)\n", y_label.c_str());
  // Collect distinct x values in order of first appearance.
  std::vector<double> xs;
  xs.reserve(points.size());
  for (const StudyPoint& p : points) {
    bool seen = false;
    for (double x : xs) {
      if (x == p.x) seen = true;
    }
    if (!seen) xs.push_back(p.x);
  }
  for (double x : xs) {
    std::printf("%-10g", x);
    for (ProtocolKind kind : protocols) {
      bool printed = false;
      for (const StudyPoint& p : points) {
        if (p.protocol == kind && p.x == x) {
          std::printf(" %14.4f", series(p.snap));
          printed = true;
          break;
        }
      }
      bool present = false;
      for (const StudyPoint& p : points) {
        if (p.protocol == kind) present = true;
      }
      if (!printed && present) std::printf(" %14s", "-");
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

int EmptyWindowStatus(const std::vector<StudyPoint>& points) {
  int status = 0;
  for (const StudyPoint& p : points) {
    if (p.snap.completed > 0) continue;
    std::fprintf(stderr,
                 "%s at x=%g: no transaction completed, the measurement "
                 "window was empty (raise --txns)\n",
                 ProtocolKindName(p.protocol), p.x);
    status = 1;
  }
  return status;
}

int EmptyWindowStatus(const std::vector<RunSpec>& specs,
                      const std::vector<MetricsSnapshot>& snapshots) {
  int status = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (snapshots[i].completed > 0) continue;
    std::fprintf(stderr,
                 "%s, run %zu: no transaction completed, the measurement "
                 "window was empty (raise --txns)\n",
                 ProtocolKindName(specs[i].protocol), i);
    status = 1;
  }
  return status;
}

BenchOptions BenchOptions::Parse(
    int argc, char** argv, std::initializer_list<std::string_view> own_flags) {
  BenchOptions opt;
  auto is_own = [&own_flags](std::string_view a) {
    for (std::string_view f : own_flags) {
      if (f.ends_with('=') ? a.starts_with(f) : a == f) return true;
    }
    return false;
  };
  // Every numeric input is parsed whole and range-checked; a bad one exits 2
  // naming it, before any run starts.
  auto from_env = [](const char* name, auto* out, auto lo, auto hi) {
    if (const char* v = std::getenv(name)) {
      ParseOrDie((std::string(name) + "=" + v).c_str(), v, out, lo, hi);
    }
  };
  from_env("LAZYREP_TXNS", &opt.txns, uint64_t{1}, SystemConfig::kMaxTxns);
  // 0 = hardware_concurrency
  from_env("LAZYREP_JOBS", &opt.jobs, 0, std::numeric_limits<int>::max());
  // Any other LAZYREP_ name is a typo or a stale setting (the removed
  // LAZYREP_KERNEL_THREADS, say): refuse it as an unknown flag is refused.
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view entry = *env;
    if (!entry.starts_with("LAZYREP_")) continue;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (name != "LAZYREP_TXNS" && name != "LAZYREP_JOBS") {
      std::fprintf(stderr, "unknown environment variable %.*s\n",
                   static_cast<int>(name.size()), name.data());
      std::exit(2);
    }
  }
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--txns=", 7) == 0) {
      ParseOrDie(a, a + 7, &opt.txns, uint64_t{1}, SystemConfig::kMaxTxns);
    } else if (std::strncmp(a, "--points=", 9) == 0) {
      ParseOrDie(a, a + 9, &opt.max_points, 0);
    } else if (std::strncmp(a, "--figure=", 9) == 0) {
      ParseOrDie(a, a + 9, &opt.figure, 0);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      ParseOrDie(a, a + 7, &opt.seed, uint64_t{0});
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      ParseOrDie(a, a + 7, &opt.jobs, 0);
    } else if (std::strncmp(a, "--sites=", 8) == 0) {
      // 0 keeps the preset's fleet.
      ParseOrDie(a, a + 8, &opt.sites, 0, SystemConfig::kMaxSites);
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      opt.trace = a + 8;
    } else if (std::strncmp(a, "--protocols=", 12) == 0) {
      // Letters select protocols in canonical order, whatever order they
      // are given in. Any other letter, or none, names no protocol set.
      const std::string_view letters = a + 12;
      if (letters.empty() ||
          letters.find_first_not_of("lpoe") != std::string_view::npos) {
        std::fprintf(stderr, "bad %s: want one or more of l p o e\n", a);
        std::exit(2);
      }
      opt.protocols.clear();
      opt.protocols_set = true;
      for (auto [letter, kind] : {std::pair{'l', ProtocolKind::kLocking},
                                  std::pair{'p', ProtocolKind::kPessimistic},
                                  std::pair{'o', ProtocolKind::kOptimistic},
                                  std::pair{'e', ProtocolKind::kEager}}) {
        if (letters.find(letter) != std::string_view::npos) {
          opt.protocols.push_back(kind);
        }
      }
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "options: --txns=N --points=N --figure=N --seed=N --jobs=N "
          "--sites=N --quick --protocols=[lpoe] --trace=FILE\n");
      std::exit(0);
    } else if (!is_own(a)) {
      std::fprintf(stderr, "unknown flag %s\n", a);
      std::exit(2);
    }
  }
  if (opt.quick && opt.max_points == 0) opt.max_points = 3;
  return opt;
}

void BenchOptions::Apply(SystemConfig* config) const {
  if (sites > 0) config->num_sites = sites;
  config->Normalize();
}

std::vector<double> BenchOptions::Thin(std::vector<double> xs) const {
  if (max_points <= 0 || static_cast<size_t>(max_points) >= xs.size()) {
    return xs;
  }
  std::vector<double> out;
  out.reserve(max_points);
  for (int i = 0; i < max_points; ++i) {
    size_t idx = (xs.size() - 1) * i / (max_points - 1 == 0 ? 1 : max_points - 1);
    if (out.empty() || out.back() != xs[idx]) out.push_back(xs[idx]);
  }
  return out;
}

}  // namespace lazyrep::core
