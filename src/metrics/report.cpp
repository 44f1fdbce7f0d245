#include "metrics/report.h"

#include <array>
#include <map>
#include <ostream>

#include "common/stats.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"

namespace cosched {

namespace {

PercentileDigest digest(std::vector<double> xs) {
  PercentileDigest d;
  if (xs.empty()) return d;
  d.p50 = percentile(xs, 50);
  d.p90 = percentile(xs, 90);
  d.p99 = percentile(xs, 99);
  d.max = percentile(xs, 100);
  return d;
}

}  // namespace

PercentileDigest jct_percentiles(const RunMetrics& run) {
  std::vector<double> xs;
  xs.reserve(run.jobs.size());
  for (const JobRecord& j : run.jobs) xs.push_back(j.jct.sec());
  return digest(std::move(xs));
}

PercentileDigest cct_percentiles(const RunMetrics& run) {
  std::vector<double> xs;
  for (const JobRecord& j : run.jobs) {
    if (j.has_shuffle) xs.push_back(j.cct.sec());
  }
  return digest(std::move(xs));
}

double jain_fairness_index(const RunMetrics& run) {
  std::map<UserId, RunningStat> per_user;
  for (const JobRecord& j : run.jobs) per_user[j.user].add(j.jct.sec());
  if (per_user.empty()) return 1.0;
  double sum = 0, sum_sq = 0;
  for (const auto& [user, stat] : per_user) {
    sum += stat.mean();
    sum_sq += stat.mean() * stat.mean();
  }
  const auto n = static_cast<double>(per_user.size());
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (n * sum_sq);
}

void print_summary(std::ostream& os, const RunMetrics& run) {
  const PercentileDigest jct = jct_percentiles(run);
  const PercentileDigest cct = cct_percentiles(run);
  os << "scheduler:   " << run.scheduler << "\n"
     << "jobs:        " << run.jobs.size() << "\n"
     << "makespan:    " << run.makespan.sec() << " s\n"
     << "avg JCT:     " << run.avg_jct_sec() << " s  (p50 " << jct.p50
     << ", p90 " << jct.p90 << ", p99 " << jct.p99 << ")\n"
     << "avg CCT:     " << run.avg_cct_sec() << " s  (p50 " << cct.p50
     << ", p90 " << cct.p90 << ", p99 " << cct.p99 << ")\n"
     << "OCS share:   " << 100.0 * run.ocs_traffic_fraction() << " %\n"
     << "fairness:    " << jain_fairness_index(run) << " (Jain, user JCT)\n";
}

void print_obs_summary(std::ostream& os, const Observability& obs) {
  os << "trace events: " << obs.trace.size() << "\n";
  std::array<std::int64_t, kTraceEventKindCount> per_kind{};
  for (const TraceEvent& ev : obs.trace.events()) {
    ++per_kind[static_cast<std::size_t>(ev.kind)];
  }
  for (std::size_t k = 0; k < kTraceEventKindCount; ++k) {
    if (per_kind[k] > 0) {
      os << "  " << to_string(static_cast<TraceEventKind>(k)) << ": "
         << per_kind[k] << "\n";
    }
  }
  os << "placements: " << obs.decisions.placements().size() << "\n";
  if (!obs.counters.rows().empty()) {
    os << "counters (" << obs.counters.rows().size()
       << " samples, last values):\n";
    for (const std::string& name : obs.counters.names()) {
      // Per-rack occupancy would flood the summary; the CSV keeps it.
      if (name.rfind("cluster.rack_used.", 0) == 0) continue;
      os << "  " << name << ": " << obs.counters.last(name) << "\n";
    }
  }
  PerfMonitor::write_summary(os, obs.perf);
}

}  // namespace cosched
