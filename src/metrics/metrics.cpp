#include "metrics/metrics.h"

#include "common/check.h"

namespace cosched {

namespace {

double mean_or_zero(double sum, std::int64_t n) {
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

double RunMetrics::avg_jct_sec() const {
  double sum = 0;
  for (const JobRecord& j : jobs) sum += j.jct.sec();
  return mean_or_zero(sum, static_cast<std::int64_t>(jobs.size()));
}

double RunMetrics::avg_cct_sec() const {
  double sum = 0;
  std::int64_t n = 0;
  for (const JobRecord& j : jobs) {
    if (!j.has_shuffle) continue;
    sum += j.cct.sec();
    ++n;
  }
  return mean_or_zero(sum, n);
}

double RunMetrics::avg_jct_sec(bool shuffle_heavy) const {
  double sum = 0;
  std::int64_t n = 0;
  for (const JobRecord& j : jobs) {
    if (j.shuffle_heavy != shuffle_heavy) continue;
    sum += j.jct.sec();
    ++n;
  }
  return mean_or_zero(sum, n);
}

double RunMetrics::avg_cct_sec(bool shuffle_heavy) const {
  double sum = 0;
  std::int64_t n = 0;
  for (const JobRecord& j : jobs) {
    if (j.shuffle_heavy != shuffle_heavy || !j.has_shuffle) continue;
    sum += j.cct.sec();
    ++n;
  }
  return mean_or_zero(sum, n);
}

double RunMetrics::ocs_traffic_fraction() const {
  const double cross = static_cast<double>(ocs_bytes.in_bytes()) +
                       static_cast<double>(eps_bytes.in_bytes());
  if (cross <= 0.0) return 0.0;
  return static_cast<double>(ocs_bytes.in_bytes()) / cross;
}

void AggregateMetrics::add(const RunMetrics& run) {
  if (repetitions == 0) scheduler = run.scheduler;
  COSCHED_CHECK_MSG(scheduler == run.scheduler,
                    "mixing schedulers in one aggregate");
  ++repetitions;
  makespan_sec.add(run.makespan.sec());
  avg_jct_sec.add(run.avg_jct_sec());
  avg_cct_sec.add(run.avg_cct_sec());
  avg_jct_heavy_sec.add(run.avg_jct_sec(true));
  avg_jct_light_sec.add(run.avg_jct_sec(false));
  avg_cct_heavy_sec.add(run.avg_cct_sec(true));
  avg_cct_light_sec.add(run.avg_cct_sec(false));
  ocs_fraction.add(run.ocs_traffic_fraction());
  tasks_killed.add(static_cast<double>(run.faults.tasks_killed()));
  stragglers.add(static_cast<double>(run.faults.stragglers));
}

double improvement_over(double baseline, double subject) {
  COSCHED_CHECK(baseline != 0.0);
  return (baseline - subject) / baseline;
}

}  // namespace cosched
