// Offline analyzer for lazyrep trace files (--trace=FILE captures).
//
// Reads the per-transaction event trace and computes, per study point:
// latency percentiles by phase, per-site / per-datacenter breakdowns, an
// abort-cause timeline, and an offline MVSG serializability audit that is
// independent of the in-simulation HistoryRecorder (the differential test
// in tests/trace_audit_test.cc pins the two against each other).
//
//   lazyrep_trace FILE            per-point summary
//   lazyrep_trace FILE --by-site  ... plus per-site table
//   lazyrep_trace FILE --by-dc    ... plus per-datacenter table
//   lazyrep_trace FILE --timeline ... plus the abort-cause timeline
//   lazyrep_trace FILE --audit    serializability verdicts only; exits
//                                 nonzero when any point has an MVSG cycle
//   lazyrep_trace FILE --json     machine-readable per-point "runs" array

#include <cstdio>
#include <cstring>
#include <string>

#include "core/flag_parse.h"
#include "trace/trace_analysis.h"
#include "trace/trace_reader.h"

namespace {

using lazyrep::trace::AbortCauseLabel;
using lazyrep::trace::AnalyzePoint;
using lazyrep::trace::kAbortCauseSlots;
using lazyrep::trace::Percentiles;
using lazyrep::trace::PointAnalysis;
using lazyrep::trace::PointTrace;
using lazyrep::trace::TraceFile;

/// Most abort-timeline buckets --buckets takes: more rows than a terminal
/// shows, and a bound on the table's memory.
constexpr int kMaxBuckets = 10000;

const char* ProtocolLabel(uint32_t protocol) {
  static const char* const kNames[] = {"locking", "pessimistic", "optimistic",
                                       "eager"};
  return protocol < 4 ? kNames[protocol] : "unknown";
}

void PrintPercentiles(const char* label, const Percentiles& p) {
  if (p.count == 0) {
    std::printf("  %-18s (no samples)\n", label);
    return;
  }
  std::printf("  %-18s n=%-7llu mean=%.4f p50=%.4f p95=%.4f p99=%.4f "
              "max=%.4f s\n",
              label, static_cast<unsigned long long>(p.count), p.mean, p.p50,
              p.p95, p.p99, p.max);
}

void PrintPoint(const PointTrace& pt, const PointAnalysis& a, bool by_site,
                bool by_dc, bool timeline) {
  std::printf("=== point %u | %s | x=%g | %u sites | seed=%llu ===\n",
              pt.header.point_index, ProtocolLabel(pt.header.protocol),
              pt.header.x, pt.header.num_sites,
              static_cast<unsigned long long>(pt.header.seed));
  std::printf("  measured: submitted=%llu committed=%llu aborted=%llu "
              "completed=%llu\n",
              static_cast<unsigned long long>(a.submitted),
              static_cast<unsigned long long>(a.committed),
              static_cast<unsigned long long>(a.aborted),
              static_cast<unsigned long long>(a.completed));
  std::printf("  history:  commits=%llu reads=%llu  serializable=%s\n",
              static_cast<unsigned long long>(a.history_committed),
              static_cast<unsigned long long>(a.history_reads),
              a.serializable == 1 ? "yes" : "NO");
  if (a.serializable != 1) {
    std::printf("  %s\n", a.serializability_why.c_str());
  }
  PrintPercentiles("ro_response", a.read_only_response);
  PrintPercentiles("upd_response", a.update_response);
  PrintPercentiles("commit_to_complete", a.commit_to_complete);
  PrintPercentiles("lock_wait", a.lock_wait);
  bool any_abort = false;
  for (size_t c = 1; c < kAbortCauseSlots; ++c) {
    if (a.aborted_by_cause[c] != 0) any_abort = true;
  }
  if (any_abort) {
    std::printf("  aborts by cause:");
    for (size_t c = 1; c < kAbortCauseSlots; ++c) {
      if (a.aborted_by_cause[c] == 0) continue;
      std::printf(" %s=%llu", AbortCauseLabel(c),
                  static_cast<unsigned long long>(a.aborted_by_cause[c]));
    }
    std::printf("\n");
  }
  if (by_site) {
    std::printf("  %-6s %10s %10s %10s %14s\n", "site", "submitted",
                "committed", "aborted", "mean_resp_s");
    for (size_t s = 0; s < a.by_site.size(); ++s) {
      const auto& g = a.by_site[s];
      std::printf("  %-6zu %10llu %10llu %10llu %14.4f\n", s,
                  static_cast<unsigned long long>(g.submitted),
                  static_cast<unsigned long long>(g.committed),
                  static_cast<unsigned long long>(g.aborted),
                  g.mean_response());
    }
  }
  if (by_dc && a.by_dc.size() > 1) {
    std::printf("  %-6s %10s %10s %10s %14s\n", "dc", "submitted",
                "committed", "aborted", "mean_resp_s");
    for (size_t d = 0; d < a.by_dc.size(); ++d) {
      const auto& g = a.by_dc[d];
      std::printf("  dc%-4zu %10llu %10llu %10llu %14.4f\n", d,
                  static_cast<unsigned long long>(g.submitted),
                  static_cast<unsigned long long>(g.committed),
                  static_cast<unsigned long long>(g.aborted),
                  g.mean_response());
    }
  }
  if (timeline && !a.abort_timeline.empty()) {
    std::printf("  abort timeline (all aborts, warm-up and drain included):\n");
    for (const auto& b : a.abort_timeline) {
      uint64_t total = 0;
      for (uint64_t n : b.by_cause) total += n;
      std::printf("  [%8.3f, %8.3f) %6llu", b.t0, b.t1,
                  static_cast<unsigned long long>(total));
      for (size_t c = 1; c < kAbortCauseSlots; ++c) {
        if (b.by_cause[c] == 0) continue;
        std::printf(" %s=%llu", AbortCauseLabel(c),
                    static_cast<unsigned long long>(b.by_cause[c]));
      }
      std::printf("\n");
    }
  }
}

void PrintJsonPoint(const PointTrace& pt, const PointAnalysis& a, bool last) {
  auto pct = [](const char* name, const Percentiles& p) {
    std::printf("\"%s\":{\"count\":%llu,\"mean\":%.9g,\"p50\":%.9g,"
                "\"p95\":%.9g,\"p99\":%.9g,\"max\":%.9g}",
                name, static_cast<unsigned long long>(p.count), p.mean, p.p50,
                p.p95, p.p99, p.max);
  };
  std::printf("    {\"point\":%u,\"protocol\":\"%s\",\"x\":%.9g,"
              "\"submitted\":%llu,\"committed\":%llu,\"aborted\":%llu,"
              "\"completed\":%llu,\"history_committed\":%llu,"
              "\"history_reads\":%llu,\"serializable\":%d,",
              pt.header.point_index, ProtocolLabel(pt.header.protocol),
              pt.header.x, static_cast<unsigned long long>(a.submitted),
              static_cast<unsigned long long>(a.committed),
              static_cast<unsigned long long>(a.aborted),
              static_cast<unsigned long long>(a.completed),
              static_cast<unsigned long long>(a.history_committed),
              static_cast<unsigned long long>(a.history_reads),
              a.serializable);
  pct("ro_response", a.read_only_response);
  std::printf(",");
  pct("upd_response", a.update_response);
  std::printf(",");
  pct("commit_to_complete", a.commit_to_complete);
  std::printf(",");
  pct("lock_wait", a.lock_wait);
  std::printf("}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool audit = false, json = false, by_site = false, by_dc = false;
  bool timeline = false;
  int buckets = 10;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--audit") == 0) {
      audit = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--by-site") == 0) {
      by_site = true;
    } else if (std::strcmp(a, "--by-dc") == 0) {
      by_dc = true;
    } else if (std::strcmp(a, "--timeline") == 0) {
      timeline = true;
    } else if (std::strncmp(a, "--buckets=", 10) == 0) {
      lazyrep::core::ParseOrDie(a, a + 10, &buckets, 1, kMaxBuckets);
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf("usage: lazyrep_trace FILE [--audit] [--json] [--by-site] "
                  "[--by-dc] [--timeline] [--buckets=N]\n");
      return 0;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      return 2;
    } else {
      path = a;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: lazyrep_trace FILE [--audit|--json]\n");
    return 2;
  }

  TraceFile file;
  std::string error;
  if (!lazyrep::trace::ReadTraceFile(path, &file, &error)) {
    std::fprintf(stderr, "lazyrep_trace: %s\n", error.c_str());
    return 2;
  }
  // A structurally valid file can still have captured nothing (e.g. a run
  // traced with warm-up covering every transaction, or an aborted recording).
  // Summarizing an empty sample would print all-zero statistics that look
  // like a real result; refuse instead.
  if (file.points.empty()) {
    std::fprintf(stderr, "lazyrep_trace: %s holds no point blocks\n",
                 path.c_str());
    return 2;
  }
  if (lazyrep::trace::TotalRecords(file) == 0) {
    std::fprintf(stderr,
                 "lazyrep_trace: %s holds %zu point block(s) but zero event "
                 "records — nothing to analyze\n",
                 path.c_str(), file.points.size());
    return 2;
  }

  int violations = 0;
  if (json) std::printf("{\n  \"runs\": [\n");
  for (size_t i = 0; i < file.points.size(); ++i) {
    const PointTrace& pt = file.points[i];
    PointAnalysis a = AnalyzePoint(pt, buckets);
    if (a.serializable != 1) ++violations;
    if (audit) {
      std::printf("point %u %-11s x=%-8g serializable=%s%s%s\n",
                  pt.header.point_index, ProtocolLabel(pt.header.protocol),
                  pt.header.x, a.serializable == 1 ? "yes" : "NO",
                  a.serializable == 1 ? "" : "  ",
                  a.serializable == 1 ? "" : a.serializability_why.c_str());
    } else if (json) {
      PrintJsonPoint(pt, a, i + 1 == file.points.size());
    } else {
      PrintPoint(pt, a, by_site, by_dc, timeline);
      std::printf("\n");
    }
  }
  if (json) std::printf("  ]\n}\n");
  if (audit) {
    std::printf("%zu points audited, %d violation%s\n", file.points.size(),
                violations, violations == 1 ? "" : "s");
  }
  return violations == 0 ? 0 : 1;
}
