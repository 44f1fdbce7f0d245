#include "metrics/report.h"

#include <map>
#include <ostream>

#include "common/check.h"
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

void write_job_timeline_csv(std::ostream& os, const RunMetrics& run) {
  os << "job_id,user,shuffle_heavy,arrival_sec,completion_sec,jct_sec,"
        "cct_sec,shuffle_gb\n";
  for (const JobRecord& j : run.jobs) {
    os << j.id.value() << ',' << j.user.value() << ','
       << (j.shuffle_heavy ? 1 : 0) << ',' << j.arrival.sec() << ','
       << j.completion.sec() << ',' << j.jct.sec() << ','
       << (j.has_shuffle ? j.cct.sec() : 0.0) << ','
       << j.shuffle_bytes.in_gigabytes() << "\n";
  }
  COSCHED_CHECK_MSG(os.good(), "timeline export failed");
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
  constexpr TraceEventKind kKinds[] = {
      TraceEventKind::kJobArrival,         TraceEventKind::kJobComplete,
      TraceEventKind::kTaskStart,          TraceEventKind::kTaskFinish,
      TraceEventKind::kContainerGrant,     TraceEventKind::kReduceComputeStart,
      TraceEventKind::kCoflowRelease,      TraceEventKind::kFlowRouted,
      TraceEventKind::kFlowComplete,       TraceEventKind::kCircuitSetup,
      TraceEventKind::kCircuitUp,          TraceEventKind::kCircuitTeardown,
      TraceEventKind::kDeadlockBreak,
  };
  for (TraceEventKind kind : kKinds) {
    const std::int64_t n = obs.trace.count(kind);
    if (n > 0) os << "  " << to_string(kind) << ": " << n << "\n";
  }
  os << "decisions: " << obs.decisions.placements().size() << " placements, "
     << obs.decisions.grants().size() << " grants, "
     << obs.decisions.circuits().size() << " circuits\n";
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
