// Output checks, the simulated-result digest, and the schedule-quality
// summary of one run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "workload/job_spec.h"

namespace perfbench {

struct CheckResult {
  std::int64_t jobs_attempted = 0;
  /// Jobs of the trace that are missing or fail a check. A failure of a
  /// run-wide check (byte conservation) fails every job of the run.
  std::int64_t jobs_failed = 0;
  /// One line per failed check, at most kMaxMessages of them.
  std::vector<std::string> messages;

  static constexpr std::size_t kMaxMessages = 8;
};

/// Check `run` against the trace it replayed:
///  * every job has exactly one record, with the trace's arrival and
///    arrival <= completion;
///  * the shuffle bytes of all jobs equal the bytes the OCS, EPS and local
///    paths carried;
///  * when `cct_bound_applies`, a job whose cross-rack flows all rode the
///    circuit fabric has cct >= cct_lower_bound. Container kills reopen a
///    coflow after its CCT window closed, so callers turn this off for
///    plans with kills.
[[nodiscard]] CheckResult check_run(const std::vector<cosched::JobSpec>& trace,
                                    const cosched::RunMetrics& run,
                                    bool cct_bound_applies);

/// FNV-1a over every simulated output of the run (per-job records, byte
/// totals, event and dispatch counts, fault accounting), bit for bit.
[[nodiscard]] std::uint64_t result_digest(const cosched::RunMetrics& run);

/// The schedule-quality metrics, in simulated seconds. Percentiles are
/// interpolated between order statistics; every figure is 0 over an empty
/// set.
struct ScheduleQuality {
  double jct_mean_s = 0.0;
  double jct_p50_s = 0.0;
  double jct_p90_s = 0.0;
  double jct_p99_s = 0.0;
  double cct_mean_s = 0.0;
  double cct_p99_s = 0.0;
  std::int64_t coflows = 0;
  /// Mean over coflows with a positive bound of cct / cct_lower_bound.
  double cct_over_bound_mean = 0.0;
};

[[nodiscard]] ScheduleQuality schedule_quality(const cosched::RunMetrics& run);

}  // namespace perfbench
