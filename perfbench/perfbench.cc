// End-to-end benchmark of the lazyrep simulator (METRICS.md has the metric ->
// layer -> workload map and the reason for each workload).
//
//   lazyrep_perfbench --workload W --seed N --seconds S --trace 0|1
//                     [--workdir DIR] [--commit C] [--source DIGEST]
//
// Everything is measured from outside src/, through the public core::System
// API:
//   * host time of SystemConfig::Normalize + System construction (set-up) and
//     of System::Run (post-run drain included), steady_clock;
//   * heap allocations during Run, by this file's operator-new override (the
//     bench/micro/bench_kernel.cc pattern);
//   * the per-layer accessors and the MetricsSnapshot after Run;
//   * queue depths sampled at every arrival by ProbeWorkload, a forwarding
//     WorkloadSource around the same GeneratedWorkload System builds itself;
//   * simulated spans from a separate traced run, read back by the offline
//     trace:: analyzer.
//
// One round runs every protocol of the workload once, untraced; rounds repeat
// with identical seeds until --seconds have passed and the host-time metrics
// are medians over rounds. With --trace 1 the rounds are followed by one
// probed and one traced run per protocol, which must reproduce the timed
// run's outcome exactly. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit status is 0 only when
// every run passed every check.

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#error "lazyrep_perfbench must be built optimised with NDEBUG (Release)"
#endif

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/parallel.h"
#include "core/study.h"
#include "core/system.h"
#include "core/workload_source.h"
#include "net/topology.h"
#include "trace/trace_analysis.h"
#include "trace/trace_reader.h"
#include "trace/trace_sink.h"

namespace {

// -- counting allocator -----------------------------------------------------

// Relaxed atomic: only the System's own thread allocates during Run, but the
// parallel kernel's parked workers may exist.
std::atomic<uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  std::abort();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  std::abort();
}

void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace lazyrep;
using core::ProtocolKind;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- workloads --------------------------------------------------------------

/// One benchmark workload: a configuration, the protocols run on it in turn,
/// and the transactions submitted per run. `x` (the offered TPS) is the point
/// identity DerivePointSeed folds into every run seed.
struct Workload {
  const char* name;
  double x;
  uint64_t txns;
  std::vector<ProtocolKind> protocols;
  core::SystemConfig (*make)(const Workload& w);
};

core::SystemConfig Oc3Paper(const Workload& w) {
  core::SystemConfig c = core::SystemConfig::Oc3();
  c.tps = w.x;
  return c;
}

core::SystemConfig Oc3Writes(const Workload& w) {
  core::SystemConfig c = core::SystemConfig::Oc3();
  c.workload.read_only_fraction = 0.5;
  c.tps = w.x;
  return c;
}

core::SystemConfig GeoFaults(const Workload& w) {
  core::SystemConfig c;
  c.num_sites = 24;
  c.workload.items_per_site = 20;
  c.tps = w.x;
  c.topology.kind = net::TopologySpec::Kind::kGeo;
  c.topology.datacenters = 3;
  c.topology.metros_per_dc = 2;
  c.topology.backbone_latency = 0.03;
  c.fault.loss_prob = 0.01;
  c.fault.dup_prob = 0.005;
  c.fault.site_mtbf = 20;
  c.fault.site_mttr = 2;
  c.fault.amnesia = true;
  // dc0 is cut off the backbone for the middle third of the nominal run, as
  // in the geo study's G4 scenario.
  const double run_secs = static_cast<double>(w.txns) / w.x;
  fault::ScheduledPartition part;
  part.groups = {"dc0"};
  part.at = run_secs / 3;
  part.duration = run_secs / 3;
  c.fault.partitions.push_back(std::move(part));
  return c;
}

core::SystemConfig Fleet1024(const Workload& w) {
  core::SystemConfig c = core::SystemConfig::Oc3();
  c.num_sites = 1024;
  c.tps = w.x;
  return c;
}

const ProtocolKind kL = ProtocolKind::kLocking;
const ProtocolKind kP = ProtocolKind::kPessimistic;
const ProtocolKind kO = ProtocolKind::kOptimistic;
const ProtocolKind kE = ProtocolKind::kEager;

const Workload kWorkloads[] = {
    {"oc3-paper", 1800, 2000, {kL, kP, kO, kE}, Oc3Paper},
    {"oc3-writes", 400, 1500, {kL, kP, kO}, Oc3Writes},
    {"geo-faults", 300, 6000, {kL, kE}, GeoFaults},
    {"fleet-1024", 1000, 8000, {kP, kO}, Fleet1024},
};

const ProtocolKind kAllProtocols[] = {kL, kP, kO, kE};

core::SystemConfig MakeConfig(const Workload& w, ProtocolKind p,
                              uint64_t seed) {
  core::SystemConfig c = w.make(w);
  c.total_txns = w.txns;
  c.seed = core::DerivePointSeed(w.name, p, w.x, seed);
  return c;
}

// -- outcome digest ---------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Hash of every simulated statistic in a snapshot. Two runs of one
/// configuration agree on it exactly when their simulated outcomes agree.
uint64_t Digest(const core::MetricsSnapshot& m) {
  const uint64_t fields[] = {
      Bits(m.duration), m.submitted, m.submitted_read_only, m.submitted_update,
      m.committed, m.completed, m.completed_read_only, m.completed_update,
      m.aborted, m.aborted_read_only, m.aborted_update, Bits(m.completed_tps),
      Bits(m.abort_rate), Bits(m.read_only_response.Sum()),
      m.read_only_response.Count(), Bits(m.update_response.Sum()),
      m.update_response.Count(), Bits(m.commit_to_complete.Sum()),
      m.commit_to_complete.Count(), Bits(m.read_only_quantiles.P99()),
      Bits(m.update_quantiles.P99()), Bits(m.complete_quantiles.P99()),
      Bits(m.graph_cpu_utilization), Bits(m.graph_cpu_queue),
      Bits(m.mean_site_cpu_utilization), Bits(m.max_site_cpu_utilization),
      Bits(m.mean_disk_utilization), Bits(m.max_disk_utilization),
      Bits(m.mean_network_utilization), Bits(m.max_network_utilization),
      m.lock_waits, m.lock_timeouts, m.graph_tests, m.graph_waits,
      m.graph_wait_timeouts, m.graph_rejections, m.graph_cycle_aborts,
      m.writes_ignored_twr, m.in_flight_at_end, m.retransmissions,
      m.msg_send_failures, m.faults_injected_loss, m.faults_injected_dup,
      m.site_crashes, Bits(m.mean_site_availability),
      Bits(m.min_site_availability), Bits(m.graph_availability),
      m.site_recoveries, Bits(m.recovery_replay.Sum()), m.wal_forces,
      m.wal_bytes_forced, m.wal_checkpoints, m.wal_records_replayed,
      m.wal_bytes_replayed, m.catchup_installs, m.indoubt_resolved_commit,
      m.indoubt_resolved_abort, m.partitions_injected,
      m.faults_injected_partition, m.eager_lock_rounds,
      m.eager_lock_round_retries, m.eager_prepares, m.eager_vote_timeouts,
      Bits(m.eager_in_doubt.Sum())};
  uint64_t h = 0;
  for (uint64_t f : fields) h = core::HashCombine(h, f);
  for (uint64_t n : m.aborted_by_cause) h = core::HashCombine(h, n);
  return h;
}

// -- the probe decorator ----------------------------------------------------

/// Forwards to a GeneratedWorkload built exactly like System's default, so
/// the RNG draws and the schedule are unchanged, and samples the kernel and
/// the completion tracker at every arrival.
class ProbeWorkload final : public core::WorkloadSource {
 public:
  explicit ProbeWorkload(core::System* system)
      : system_(system),
        inner_(system->config().workload, system->config().loc_tps()) {}

  Arrival NextArrival(db::SiteId s, sim::RandomStream* rng) override {
    pending_.push_back(system_->sim().pending_events());
    live_max_ = std::max(live_max_, system_->tracker().live_count());
    const Clock::time_point t0 = Clock::now();
    Arrival a = inner_.NextArrival(s, rng);
    gen_s_ += SecondsSince(t0);
    return a;
  }

  txn::Transaction NextTxn(db::TxnId id, db::SiteId s,
                           sim::RandomStream* rng) override {
    const Clock::time_point t0 = Clock::now();
    txn::Transaction t = inner_.NextTxn(id, s, rng);
    gen_s_ += SecondsSince(t0);
    ++txns_;
    if (t.is_update) ++updates_;
    return t;
  }

  std::vector<size_t> pending_;  ///< pending_events() at each arrival
  size_t live_max_ = 0;          ///< max tracker().live_count() seen
  double gen_s_ = 0;             ///< host seconds inside the forwarded calls
  uint64_t txns_ = 0;
  uint64_t updates_ = 0;

 private:
  core::System* system_;
  core::GeneratedWorkload inner_;
};

// -- one run ----------------------------------------------------------------

/// Everything one System run yields, read after Run (drain included).
struct RunOutcome {
  ProtocolKind protocol = kL;
  core::MetricsSnapshot snap;
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t submitted = 0;  ///< config.total_txns: all submissions
  double setup_s = 0;
  double run_s = 0;
  uint64_t lock_grants = 0;     ///< since the measurement window opened
  uint64_t messages = 0;        ///< since the measurement window opened
  uint64_t writes_applied = 0;  ///< whole run
  uint64_t rg_tests = 0, rg_rejections = 0, rg_cycle_aborts = 0;
  uint64_t rg_waits = 0, rg_wait_timeouts = 0;
  std::string failure;  ///< empty when every correctness check passed
};

enum class Mode { kTimed, kProbed, kTraced };

/// What the probed and traced modes add to a run.
struct RunExtras {
  // kProbed: the decorator's samples.
  std::vector<size_t> pending;
  size_t live_max = 0;
  double gen_s = 0;
  uint64_t gen_txns = 0, gen_updates = 0;
  // kTraced: where the trace goes, and what the offline analyzer made of it.
  std::string trace_path;
  trace::PointAnalysis analysis;
  uint64_t trace_records = 0;
  uint64_t trace_bytes = 0;
  double analysis_s = 0;
};

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long n = std::ftell(f);
  std::fclose(f);
  return n;
}

/// Reads back the finished trace at `path`, runs the offline analyzer and
/// deletes the file. Returns an empty string or the reason the trace fails.
std::string AnalyzeTrace(const std::string& path, RunExtras* extras) {
  extras->trace_bytes = static_cast<uint64_t>(FileSize(path));
  const Clock::time_point t0 = Clock::now();
  trace::TraceFile file;
  std::string err;
  const bool read = trace::ReadTraceFile(path, &file, &err);
  std::remove(path.c_str());
  if (!read) return "trace unreadable: " + err;
  if (file.points.size() != 1) return "trace holds no single point";
  extras->analysis = trace::AnalyzePoint(file.points[0], 0);
  extras->analysis_s = SecondsSince(t0);
  if (extras->analysis.serializable != 1) {
    return "offline MVSG audit: " + extras->analysis.serializability_why;
  }
  return {};
}

RunOutcome RunOnce(const Workload& w, ProtocolKind p, uint64_t seed, Mode mode,
                   RunExtras* extras) {
  RunOutcome o;
  o.protocol = p;
  core::SystemConfig config = MakeConfig(w, p, seed);
  o.submitted = config.total_txns;
  std::unique_ptr<trace::TraceSink> sink;
  std::string shard;
  {
    const Clock::time_point t_setup = Clock::now();
    config.Normalize();
    core::System system(config, p);
    o.setup_s = SecondsSince(t_setup);

    ProbeWorkload* probe = nullptr;
    if (mode == Mode::kProbed) {
      auto owned = std::make_unique<ProbeWorkload>(&system);
      probe = owned.get();
      system.set_workload_source(std::move(owned));
    } else if (mode == Mode::kTraced) {
      trace::PointMeta meta;
      meta.protocol = static_cast<uint32_t>(p);
      meta.x = w.x;
      meta.seed = config.seed;
      meta.dc_of_site =
          net::DatacenterOrdinals(config.BuildTopology(), config.num_sites);
      shard = trace::ShardPath(extras->trace_path, 0);
      std::string err;
      sink = trace::TraceSink::Open(shard, meta, &err);
      if (sink == nullptr) {
        o.failure = "cannot open trace: " + err;
        return o;
      }
      system.set_trace(sink.get());
    }

    const uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const Clock::time_point t_run = Clock::now();
    o.snap = system.Run();
    o.run_s = SecondsSince(t_run);
    o.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;

    o.digest = Digest(o.snap);
    o.events = system.sim().events_fired();
    for (int s = 0; s < system.num_sites(); ++s) {
      const core::Site& site = system.site(static_cast<db::SiteId>(s));
      o.lock_grants += site.locks.grants();
      o.writes_applied += site.store.writes_applied();
    }
    o.messages = system.network().messages_delivered();
    if (rg::GraphSite* g = system.graph_site()) {
      o.rg_tests = g->tests_run();
      o.rg_rejections = g->rejections();
      o.rg_cycle_aborts = g->cycle_aborts();
      o.rg_waits = g->waits();
      o.rg_wait_timeouts = g->wait_timeouts();
    }
    if (probe != nullptr) {
      extras->pending = std::move(probe->pending_);
      extras->live_max = probe->live_max_;
      extras->gen_s = probe->gen_s_;
      extras->gen_txns = probe->txns_;
      extras->gen_updates = probe->updates_;
    }

    // Correctness verdict: the run must have measured work, drained, and
    // left every replica converged.
    std::string why;
    if (o.snap.completed == 0) {
      o.failure = "zero measured completions";
    } else if (system.LiveTxns() > 0) {
      o.failure = std::to_string(system.LiveTxns()) +
                  " transactions still live after the drain";
    } else if (!system.ReplicasConverged(&why)) {
      o.failure = "replicas diverged: " + why;
    }
  }  // The System is gone before the trace is read back.

  if (mode == Mode::kTraced) {
    std::string err;
    if (!sink->Finish(&err) ||
        !trace::MergeShards(extras->trace_path, {shard}, &err)) {
      if (o.failure.empty()) o.failure = "trace write failed: " + err;
      return o;
    }
    extras->trace_records = sink->count();
    sink.reset();
    std::string trace_failure = AnalyzeTrace(extras->trace_path, extras);
    if (o.failure.empty()) o.failure = std::move(trace_failure);
  }
  return o;
}

/// Peak resident set of this program, from VmHWM. getrusage's ru_maxrss
/// is no use here: it survives execve, so it would report the launching
/// process's peak whenever that is larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// -- statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile of a sample (sorted in place).
double Percentile(std::vector<size_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]);
}

// -- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// -- the benchmark ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".";
  std::string commit = "unknown";
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || (a->trace != 0 && a->trace != 1)) return false;
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--source") {
      a->source = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lazyrep_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--commit C] [--source D]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %ld, \"compiler\": \"%s\", \"optimized\": true, "
              "\"commit\": \"%s\", \"source\": \"%s\"}}\n",
              w->name, (unsigned long long)args.seed,
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, args.commit.c_str(),
              args.source.c_str());

  uint64_t attempted = 0, failed = 0;
  bool consistent = true;
  auto check = [&](const RunOutcome& o, const char* what) {
    ++attempted;
    if (o.failure.empty()) return;
    ++failed;
    std::fprintf(stderr, "FAIL %s %s run: %s\n",
                 core::ProtocolKindName(o.protocol), what, o.failure.c_str());
  };
  auto same = [&](const RunOutcome& a, const RunOutcome& b, const char* what) {
    if (a.digest == b.digest && a.events == b.events) return;
    consistent = false;
    std::fprintf(stderr,
                 "MISMATCH %s %s run: digest %016llx events %llu vs timed "
                 "digest %016llx events %llu\n",
                 core::ProtocolKindName(a.protocol), what,
                 (unsigned long long)a.digest, (unsigned long long)a.events,
                 (unsigned long long)b.digest, (unsigned long long)b.events);
  };

  // Timed rounds, untraced. Every round repeats the same seeds, so the
  // simulated work is identical and only host time varies between rounds.
  // Rounds continue while the next one is expected to end within --seconds,
  // and there are at least kMinRounds so that a median exists.
  constexpr size_t kMinRounds = 3;
  std::vector<std::vector<RunOutcome>> rounds;
  double peak_rss_mb = 0;
  const Clock::time_point t_start = Clock::now();
  for (;;) {
    std::vector<RunOutcome> round;
    for (ProtocolKind p : w->protocols) {
      RunOutcome o = RunOnce(*w, p, args.seed, Mode::kTimed, nullptr);
      check(o, "timed");
      if (!rounds.empty()) same(o, rounds[0][round.size()], "repeated");
      std::fprintf(stderr,
                   "round %zu %-11s setup %.4f s  run %.4f s  %llu events\n",
                   rounds.size(), core::ProtocolKindName(p), o.setup_s,
                   o.run_s, (unsigned long long)o.events);
      round.push_back(std::move(o));
    }
    rounds.push_back(std::move(round));
    // Later rounds repeat the same work; their heap reuse would only add
    // allocator noise to the peak.
    if (rounds.size() == 1) peak_rss_mb = PeakRssMb();
    const double elapsed = SecondsSince(t_start);
    if (rounds.size() >= kMinRounds &&
        elapsed * (rounds.size() + 1) / rounds.size() > args.seconds) {
      break;
    }
  }

  const std::vector<RunOutcome>& first = rounds[0];
  uint64_t submitted = 0, events = 0, allocs = 0;
  for (const RunOutcome& o : first) {
    submitted += o.submitted;
    events += o.events;
    allocs += o.allocs;
  }
  // Host times: per protocol the median over rounds; the workload's figure is
  // the sum of those medians over its protocols.
  std::vector<double> run_median(w->protocols.size());
  double setup_s = 0, run_s = 0, wall_s = 0;
  for (size_t i = 0; i < w->protocols.size(); ++i) {
    std::vector<double> setup, run, wall;
    for (const std::vector<RunOutcome>& r : rounds) {
      setup.push_back(r[i].setup_s);
      run.push_back(r[i].run_s);
      wall.push_back(r[i].setup_s + r[i].run_s);
    }
    run_median[i] = Median(run);
    setup_s += Median(setup);
    run_s += run_median[i];
    wall_s += Median(wall);
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"events_per_txn", Ratio(events, submitted), "count"},
        {"allocs_per_txn", Ratio(allocs, submitted), "count"},
    };
  } else {
    // One probed and one traced run per protocol; both must reproduce the
    // timed run's outcome exactly.
    std::vector<size_t> pending;
    size_t live_max = 0;
    double gen_s = 0, traced_run_s = 0, untraced_run_s = 0, analysis_s = 0;
    uint64_t gen_txns = 0, gen_updates = 0, trace_records = 0,
             trace_bytes = 0;
    double lock_wait_p50 = 0, lock_wait_p99 = 0, c2c_p50 = 0, c2c_p99 = 0;
    for (size_t i = 0; i < w->protocols.size(); ++i) {
      const ProtocolKind p = w->protocols[i];
      RunExtras probe;
      RunOutcome po = RunOnce(*w, p, args.seed, Mode::kProbed, &probe);
      check(po, "probed");
      same(po, first[i], "probed");
      pending.insert(pending.end(), probe.pending.begin(), probe.pending.end());
      live_max = std::max(live_max, probe.live_max);
      gen_s += probe.gen_s;
      gen_txns += probe.gen_txns;
      gen_updates += probe.gen_updates;

      RunExtras traced;
      traced.trace_path = args.workdir + "/" + w->name + "-" +
                          core::ProtocolKindName(p) + ".trace";
      RunOutcome to = RunOnce(*w, p, args.seed, Mode::kTraced, &traced);
      check(to, "traced");
      same(to, first[i], "traced");
      traced_run_s += to.run_s;
      untraced_run_s += run_median[i];
      trace_records += traced.trace_records;
      trace_bytes += traced.trace_bytes;
      analysis_s += traced.analysis_s;
      const trace::PointAnalysis& an = traced.analysis;
      lock_wait_p50 = std::max(lock_wait_p50, an.lock_wait.p50);
      lock_wait_p99 = std::max(lock_wait_p99, an.lock_wait.p99);
      c2c_p50 = std::max(c2c_p50, an.commit_to_complete.p50);
      c2c_p99 = std::max(c2c_p99, an.commit_to_complete.p99);
    }

    // Per-layer counts combine the workload's runs (one per protocol):
    // counts add up, utilizations and percentiles take the worst run.
    double measured = 0, committed = 0, lock_waits = 0, lock_timeouts = 0;
    double lock_grants = 0, messages = 0, writes_applied = 0, twr_ignored = 0;
    double cpu_max = 0, disk_max = 0, net_max = 0, graph_util = 0,
           graph_queue = 0;
    double rg_tests = 0, rg_rej = 0, rg_cyc = 0, rg_waits = 0, rg_wto = 0;
    double lock_rounds = 0, lock_retries = 0, prepares = 0, vote_to = 0;
    double lost = 0, dup = 0, crashes = 0, retrans = 0, send_fail = 0,
           wal_forces = 0, wal_bytes = 0, checkpoints = 0, replayed = 0,
           replay_sum = 0, replay_n = 0, part_drops = 0, downtime_max = 0,
           indoubt = 0;
    for (const RunOutcome& o : first) {
      const core::MetricsSnapshot& m = o.snap;
      measured += m.submitted;
      committed += m.committed;
      lock_waits += m.lock_waits;
      lock_timeouts += m.lock_timeouts;
      lock_grants += o.lock_grants;
      messages += o.messages;
      writes_applied += o.writes_applied;
      twr_ignored += m.writes_ignored_twr;
      cpu_max = std::max(cpu_max, m.max_site_cpu_utilization);
      disk_max = std::max(disk_max, m.max_disk_utilization);
      net_max = std::max(net_max, m.max_network_utilization);
      graph_util = std::max(graph_util, m.graph_cpu_utilization);
      graph_queue = std::max(graph_queue, m.graph_cpu_queue);
      rg_tests += o.rg_tests;
      rg_rej += o.rg_rejections;
      rg_cyc += o.rg_cycle_aborts;
      rg_waits += o.rg_waits;
      rg_wto += o.rg_wait_timeouts;
      lock_rounds += m.eager_lock_rounds;
      lock_retries += m.eager_lock_round_retries;
      prepares += m.eager_prepares;
      vote_to += m.eager_vote_timeouts;
      lost += m.faults_injected_loss;
      dup += m.faults_injected_dup;
      crashes += m.site_crashes;
      retrans += m.retransmissions;
      send_fail += m.msg_send_failures;
      wal_forces += m.wal_forces;
      wal_bytes += m.wal_bytes_forced;
      checkpoints += m.wal_checkpoints;
      replayed += m.wal_records_replayed;
      replay_sum += m.recovery_replay.Sum();
      replay_n += m.recovery_replay.Count();
      part_drops += m.faults_injected_partition;
      downtime_max = std::max(downtime_max, 1.0 - m.min_site_availability);
      indoubt += m.indoubt_resolved_commit + m.indoubt_resolved_abort;
    }

    metrics = {
        {"e2e.sim_txn_per_s", submitted / run_s, "txn/s"},
        {"e2e.wall_s", wall_s, "s"},
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.ns_per_event", 1e9 * run_s / events, "ns"},
        {"sim.pending_p50", Percentile(&pending, 0.50), "count"},
        {"sim.pending_max", Percentile(&pending, 1.0), "count"},
        {"txn.gen_ns_per_txn", 1e9 * Ratio(gen_s, gen_txns), "ns"},
        {"txn.update_frac", Ratio(gen_updates, gen_txns), "ratio"},
        {"hw.site_cpu_util_max", cpu_max, "ratio"},
        {"hw.disk_util_max", disk_max, "ratio"},
        {"net.messages_per_txn", Ratio(messages, measured), "count"},
        {"net.util_max", net_max, "ratio"},
        {"db.lock_grants_per_txn", Ratio(lock_grants, measured), "count"},
        {"db.lock_waits", lock_waits, "count"},
        {"db.lock_timeouts", lock_timeouts, "count"},
        {"db.lock_wait_p50", lock_wait_p50, "s"},
        {"db.lock_wait_p99", lock_wait_p99, "s"},
        {"db.writes_applied_per_txn", Ratio(writes_applied, submitted),
         "count"},
        {"db.writes_ignored_twr", twr_ignored, "count"},
        {"db.tracker_live_max", static_cast<double>(live_max), "count"},
        {"db.commit_to_complete_p50", c2c_p50, "s"},
        {"db.commit_to_complete_p99", c2c_p99, "s"},
        {"rg.tests_per_txn", Ratio(rg_tests, submitted), "count"},
        {"rg.accept_ratio", Ratio(rg_tests - rg_rej - rg_cyc, rg_tests),
         "ratio"},
        {"rg.rejections", rg_rej, "count"},
        {"rg.cycle_aborts", rg_cyc, "count"},
        {"rg.waits", rg_waits, "count"},
        {"rg.wait_timeouts", rg_wto, "count"},
        {"rg.graph_cpu_util", graph_util, "ratio"},
        {"rg.graph_cpu_queue", graph_queue, "count"},
        {"protocols.commit_ratio", Ratio(committed, measured), "ratio"},
        {"protocols.eager_lock_rounds", lock_rounds, "count"},
        {"protocols.eager_lock_round_retries", lock_retries, "count"},
        {"protocols.eager_prepares", prepares, "count"},
        {"protocols.eager_vote_timeouts", vote_to, "count"},
        {"fault.lost", lost, "count"},
        {"fault.dup", dup, "count"},
        {"fault.crashes", crashes, "count"},
        {"fault.retransmissions", retrans, "count"},
        {"fault.send_failures", send_fail, "count"},
        {"fault.wal_forces", wal_forces, "count"},
        {"fault.wal_bytes_forced", wal_bytes, "bytes"},
        {"fault.checkpoints", checkpoints, "count"},
        {"fault.records_replayed", replayed, "count"},
        {"fault.recovery_replay_mean", Ratio(replay_sum, replay_n), "s"},
        {"fault.partition_drops", part_drops, "count"},
        {"fault.site_downtime_max", downtime_max, "ratio"},
        {"fault.indoubt_resolved", indoubt, "count"},
        {"trace.records", static_cast<double>(trace_records), "count"},
        {"trace.bytes_per_txn", Ratio(trace_bytes, submitted), "bytes"},
        {"trace.overhead_frac", Ratio(traced_run_s, untraced_run_s) - 1,
         "ratio"},
        {"trace.analysis_s", analysis_s, "s"},
    };
    // The paper's figures, per protocol; 0 for a protocol the workload does
    // not run.
    for (ProtocolKind p : kAllProtocols) {
      const core::MetricsSnapshot* m = nullptr;
      for (const RunOutcome& o : first) {
        if (o.protocol == p) m = &o.snap;
      }
      const core::MetricsSnapshot none;
      if (m == nullptr) m = &none;
      std::string suffix = std::string(".") + core::ProtocolKindName(p);
      for (char& ch : suffix) ch = static_cast<char>(std::tolower(ch));
      metrics.push_back({"model.completed_tps" + suffix, m->completed_tps,
                         "txn/s"});
      metrics.push_back({"model.abort_rate" + suffix, m->abort_rate, "ratio"});
      metrics.push_back({"model.ro_response_p99" + suffix,
                         m->read_only_quantiles.P99(), "s"});
      metrics.push_back({"model.upd_response_p99" + suffix,
                         m->update_quantiles.P99(), "s"});
      metrics.push_back({"model.commit_to_complete_mean" + suffix,
                         m->commit_to_complete.Mean(), "s"});
    }
  }

  const bool correct = failed == 0 && consistent;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
