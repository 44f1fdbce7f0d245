// Reporting helpers on top of RunMetrics: percentile digests, per-user
// fairness, and the human-readable run and observability summaries.
#pragma once

#include <iosfwd>
#include <vector>

#include "metrics/metrics.h"

namespace cosched {

struct Observability;

struct PercentileDigest {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};

/// Digest of JCTs (all jobs) in seconds.
[[nodiscard]] PercentileDigest jct_percentiles(const RunMetrics& run);
/// Digest of CCTs (jobs with shuffle) in seconds.
[[nodiscard]] PercentileDigest cct_percentiles(const RunMetrics& run);

/// Jain's fairness index over per-user mean JCT slowdown — 1.0 means every
/// user experienced the same average JCT; lower means skew.
[[nodiscard]] double jain_fairness_index(const RunMetrics& run);

/// Human-readable one-run summary.
void print_summary(std::ostream& os, const RunMetrics& run);

/// Trace-aware addendum: per-kind trace event counts (every kind that
/// occurred), the placement count, last counter samples, and the
/// wall-clock profile of the run's capture.
void print_obs_summary(std::ostream& os, const Observability& obs);

}  // namespace cosched
