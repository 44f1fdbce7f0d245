#include "metrics/run_report.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "metrics/report.h"
#include "obs/counters.h"

namespace cosched {

namespace {

// Minimal JSON emission. Strings here are scheduler/section/counter names
// ([a-z0-9_.+-]), but escape defensively anyway.
void emit_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Shortest representation that round-trips a double (%.17g is exact; try
// %.15g / %.16g first for readability). JSON has no Inf/NaN — emit null.
void emit_double(std::ostream& os, double v) {
  if (v != v || v == __builtin_huge_val() || v == -__builtin_huge_val()) {
    os << "null";
    return;
  }
  char buf[40];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  os << buf;
}

void emit_percentiles(std::ostream& os, const PercentileDigest& d) {
  os << "{\"p50\": ";
  emit_double(os, d.p50);
  os << ", \"p90\": ";
  emit_double(os, d.p90);
  os << ", \"p99\": ";
  emit_double(os, d.p99);
  os << ", \"max\": ";
  emit_double(os, d.max);
  os << "}";
}

void emit_phase(std::ostream& os, PerfPhase phase, const PerfPhaseStats& s) {
  os << "    {\"name\": ";
  emit_string(os, to_string(phase));
  os << ", \"calls\": " << s.calls << ", \"total_ns\": " << s.total_ns
     << ", \"max_ns\": " << s.max_ns << ",\n";
  os << "     \"latency_ns\": {\"count\": " << s.latency.count()
     << ", \"min\": " << s.latency.min() << ", \"max\": " << s.latency.max()
     << ", \"mean\": ";
  emit_double(os, s.latency.mean());
  os << ", \"p50\": ";
  emit_double(os, s.latency.p50());
  os << ", \"p90\": ";
  emit_double(os, s.latency.p90());
  os << ", \"p99\": ";
  emit_double(os, s.latency.p99());
  os << "},\n";
  // Histogram as (lo, hi, count) triples for the non-empty buckets only:
  // readers never need the in-memory bucket layout.
  os << "     \"histogram\": [";
  bool first = true;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::uint64_t n = s.latency.bucket_count(i);
    if (n == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << LatencyHistogram::bucket_lo(i) << ", "
       << LatencyHistogram::bucket_hi(i) << ", " << n << "]";
  }
  os << "],\n";
  os << "     \"by_size\": [";
  first = true;
  for (std::size_t b = 0; b < PerfPhaseStats::kSizeBuckets; ++b) {
    const PerfPhaseStats::SizeBucket& sb = s.by_size[b];
    if (sb.calls == 0) continue;
    if (!first) os << ",\n                 ";
    first = false;
    os << "{\"size_lo\": " << PerfPhaseStats::size_bucket_lo(b)
       << ", \"size_hi\": " << PerfPhaseStats::size_bucket_hi(b)
       << ", \"calls\": " << sb.calls << ", \"total_ns\": " << sb.total_ns
       << ", \"max_ns\": " << sb.max_ns << ", \"mean_size\": ";
    emit_double(os, static_cast<double>(sb.total_size) /
                        static_cast<double>(sb.calls));
    os << "}";
  }
  os << "]}";
}

}  // namespace

void write_run_report_json(
    std::ostream& os, const RunMetrics& run, const RunReportMeta& meta,
    const PerfSnapshot* perf, const CounterRegistry* counters) {
  os << "{\n";
  os << "  \"schema\": ";
  emit_string(os, kRunReportSchema);
  os << ",\n  \"version\": " << kRunReportVersion << ",\n";
  os << "  \"scheduler\": ";
  emit_string(os, run.scheduler);
  os << ",\n  \"seed\": " << run.seed << ",\n";
  os << "  \"config\": {\"jobs\": " << meta.num_jobs
     << ", \"racks\": " << meta.num_racks << "},\n";
  os << "  \"wall_time_sec\": ";
  emit_double(os, meta.wall_time_sec);
  os << ",\n  \"rss_high_water_bytes\": " << meta.rss_high_water_bytes
     << ",\n";

  os << "  \"metrics\": {\n";
  os << "    \"makespan_sec\": ";
  emit_double(os, run.makespan.sec());
  os << ",\n    \"avg_jct_sec\": ";
  emit_double(os, run.avg_jct_sec());
  os << ",\n    \"avg_cct_sec\": ";
  emit_double(os, run.avg_cct_sec());
  os << ",\n    \"avg_jct_heavy_sec\": ";
  emit_double(os, run.avg_jct_sec(true));
  os << ",\n    \"avg_jct_light_sec\": ";
  emit_double(os, run.avg_jct_sec(false));
  os << ",\n    \"avg_cct_heavy_sec\": ";
  emit_double(os, run.avg_cct_sec(true));
  os << ",\n    \"avg_cct_light_sec\": ";
  emit_double(os, run.avg_cct_sec(false));
  os << ",\n    \"jct_percentiles\": ";
  emit_percentiles(os, jct_percentiles(run));
  os << ",\n    \"cct_percentiles\": ";
  emit_percentiles(os, cct_percentiles(run));
  os << ",\n    \"jain_fairness\": ";
  emit_double(os, jain_fairness_index(run));
  os << ",\n    \"ocs_traffic_fraction\": ";
  emit_double(os, run.ocs_traffic_fraction());
  os << ",\n    \"ocs_gb\": ";
  emit_double(os, run.ocs_bytes.in_gigabytes());
  os << ",\n    \"eps_gb\": ";
  emit_double(os, run.eps_bytes.in_gigabytes());
  os << ",\n    \"local_gb\": ";
  emit_double(os, run.local_bytes.in_gigabytes());
  os << ",\n    \"jobs\": " << run.jobs.size()
     << ",\n    \"events_executed\": " << run.events_executed
     << ",\n    \"dispatch_waves\": " << run.dispatch_waves
     << ",\n    \"deadlock_breaks\": " << run.deadlock_breaks << "\n  },\n";

  os << "  \"faults\": {\"stragglers\": " << run.faults.stragglers
     << ", \"maps_killed\": " << run.faults.maps_killed
     << ", \"reduces_killed\": " << run.faults.reduces_killed
     << ", \"ocs_outages\": " << run.faults.ocs_outages
     << ", \"flows_evicted\": " << run.faults.flows_evicted
     << ", \"ocs_downtime_sec\": ";
  emit_double(os, run.faults.ocs_downtime_sec);
  os << "},\n";

  os << "  \"counters\": {";
  if (counters != nullptr) {
    bool first = true;
    for (const std::string& name : counters->names()) {
      if (!first) os << ", ";
      first = false;
      emit_string(os, name);
      os << ": ";
      emit_double(os, counters->last(name));
    }
  }
  os << "},\n";

  os << "  \"phases\": [";
  if (perf != nullptr) {
    for (std::size_t p = 0; p < kPerfPhaseCount; ++p) {
      os << (p == 0 ? "\n" : ",\n");
      emit_phase(os, static_cast<PerfPhase>(p), perf->phases[p]);
    }
    os << "\n  ";
  }
  os << "]\n";
  os << "}\n";
}

}  // namespace cosched
