// RunReport: one schema-versioned JSON document per run, merging the
// result metrics (RunMetrics + derived digests), fault accounting, final
// counter values, and the PerfMonitor's per-phase latency histograms with
// their size attribution.
//
// This is the scale campaign's unit of record: `bench_scale --report-out=`
// writes one, CI archives it, and `tools/run_report.py` validates,
// pretty-prints, and diffs them. The schema is append-only — bump
// kRunReportVersion when a field's meaning changes, add fields freely.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "metrics/metrics.h"
#include "obs/perf_monitor.h"

namespace cosched {

class CounterRegistry;

inline constexpr const char* kRunReportSchema = "cosched.run_report";
/// v2 added metrics.dispatch_waves (the peak-RSS high-water mark has been
/// top-level since v1); v3 added metrics.deadlock_breaks; v4 dropped the
/// flat "profile" section (the PerfMonitor phases cover those scopes).
/// tools/run_report.py accepts every version.
inline constexpr int kRunReportVersion = 4;

/// Run-level context that RunMetrics does not carry: workload/topology
/// shape and the wall-clock envelope of the run.
struct RunReportMeta {
  std::int64_t num_jobs = 0;
  std::int32_t num_racks = 0;
  double wall_time_sec = 0.0;
  std::uint64_t rss_high_water_bytes = 0;
};

/// Serialize one run as a RunReport JSON document. `perf` and `counters`
/// are optional — null/empty inputs produce empty sections, so a dark run
/// still yields a valid (if sparse) report. The output is deterministic
/// for identical inputs: fixed key order, non-empty histogram buckets as
/// (lo, hi, count) triples, round-trip double formatting.
void write_run_report_json(
    std::ostream& os, const RunMetrics& run, const RunReportMeta& meta,
    const PerfSnapshot* perf = nullptr,
    const CounterRegistry* counters = nullptr);

}  // namespace cosched
