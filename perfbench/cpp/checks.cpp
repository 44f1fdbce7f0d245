#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common/stats.h"

namespace perfbench {

using namespace cosched;

namespace {

/// The bound check's slack, in simulated seconds (the auditor's).
constexpr double kBoundSlackSec = 1e-6;
/// Relative slack of the byte-conservation check.
constexpr double kConservationSlack = 1e-9;

void note(CheckResult& r, const std::string& msg) {
  if (r.messages.size() < CheckResult::kMaxMessages) r.messages.push_back(msg);
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

CheckResult check_run(const std::vector<JobSpec>& trace,
                      const RunMetrics& run, bool cct_bound_applies) {
  CheckResult r;
  r.jobs_attempted = static_cast<std::int64_t>(trace.size());

  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    index.emplace(trace[i].id.value(), i);
  }
  std::vector<int> records(trace.size(), 0);
  std::vector<bool> bad(trace.size(), false);
  bool run_failed = false;

  std::int64_t shuffle_bytes = 0;
  for (const JobRecord& rec : run.jobs) {
    const auto it = index.find(rec.id.value());
    if (it == index.end()) {
      run_failed = true;
      note(r, "record for job " + std::to_string(rec.id.value()) +
                  " that is not in the trace");
      continue;
    }
    const std::size_t i = it->second;
    shuffle_bytes += rec.shuffle_bytes.in_bytes();
    std::ostringstream why;
    if (++records[i] > 1) why << "duplicate record; ";
    if (rec.arrival != trace[i].arrival) why << "arrival differs from trace; ";
    if (!rec.completion.is_finite() || rec.completion < rec.arrival) {
      why << "completion " << rec.completion.sec() << " before arrival "
          << rec.arrival.sec() << "; ";
    }
    if (rec.has_shuffle && !(rec.cct.is_finite() && rec.cct.sec() >= 0.0)) {
      why << "cct " << rec.cct.sec() << " not a finite duration; ";
    }
    if (cct_bound_applies && rec.has_shuffle && rec.all_flows_ocs &&
        rec.cct.sec() < rec.cct_lower_bound.sec() - kBoundSlackSec) {
      why << "cct " << rec.cct.sec() << " below its lower bound "
          << rec.cct_lower_bound.sec() << "; ";
    }
    if (!why.str().empty()) {
      bad[i] = true;
      note(r, "job " + std::to_string(rec.id.value()) + ": " + why.str());
    }
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (records[i] == 0) {
      bad[i] = true;
      note(r, "job " + std::to_string(trace[i].id.value()) + " has no record");
    }
  }

  // The fabrics drain bits in floating point and credit whole bytes, so the
  // two totals may differ by rounding: allow a part per billion plus one
  // byte per job.
  const std::int64_t carried = run.ocs_bytes.in_bytes() +
                               run.eps_bytes.in_bytes() +
                               run.local_bytes.in_bytes();
  const double slack = kConservationSlack * static_cast<double>(shuffle_bytes) +
                       static_cast<double>(trace.size());
  if (std::abs(static_cast<double>(carried - shuffle_bytes)) > slack) {
    run_failed = true;
    note(r, "shuffle bytes not conserved: jobs demanded " +
                std::to_string(shuffle_bytes) + ", OCS+EPS+local carried " +
                std::to_string(carried));
  }

  r.jobs_failed = run_failed
                      ? r.jobs_attempted
                      : static_cast<std::int64_t>(
                            std::count(bad.begin(), bad.end(), true));
  return r;
}

std::uint64_t result_digest(const RunMetrics& run) {
  Fnv1a h;
  h.add(run.makespan.sec());
  h.add(run.ocs_bytes.in_bytes());
  h.add(run.eps_bytes.in_bytes());
  h.add(run.local_bytes.in_bytes());
  h.add(static_cast<std::uint64_t>(run.events_executed));
  h.add(static_cast<std::uint64_t>(run.dispatch_waves));
  h.add(run.faults.stragglers);
  h.add(run.faults.maps_killed);
  h.add(run.faults.reduces_killed);
  h.add(run.faults.ocs_outages);
  h.add(run.faults.flows_evicted);
  h.add(run.faults.ocs_downtime_sec);
  for (const JobRecord& rec : run.jobs) {
    h.add(rec.id.value());
    h.add(rec.user.value());
    h.add(static_cast<std::uint64_t>(rec.shuffle_heavy) |
          static_cast<std::uint64_t>(rec.has_shuffle) << 1 |
          static_cast<std::uint64_t>(rec.all_flows_ocs) << 2);
    h.add(rec.arrival.sec());
    h.add(rec.completion.sec());
    h.add(rec.jct.sec());
    h.add(rec.cct.sec());
    h.add(rec.shuffle_bytes.in_bytes());
    h.add(rec.map_output_bytes.in_bytes());
    h.add(rec.last_map_completion.sec());
    h.add(rec.first_reduce_placement.sec());
    h.add(rec.cct_lower_bound.sec());
  }
  return h.value();
}

ScheduleQuality schedule_quality(const RunMetrics& run) {
  ScheduleQuality q;
  std::vector<double> jct;
  std::vector<double> cct;
  double ratio_sum = 0.0;
  std::int64_t ratios = 0;
  for (const JobRecord& rec : run.jobs) {
    jct.push_back(rec.jct.sec());
    if (!rec.has_shuffle) continue;
    cct.push_back(rec.cct.sec());
    if (rec.cct_lower_bound.sec() > 0.0) {
      ratio_sum += rec.cct / rec.cct_lower_bound;
      ++ratios;
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const auto pct = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : percentile(v, p);
  };
  q.jct_mean_s = mean(jct);
  q.jct_p50_s = pct(jct, 50);
  q.jct_p90_s = pct(jct, 90);
  q.jct_p99_s = pct(jct, 99);
  q.cct_mean_s = mean(cct);
  q.cct_p99_s = pct(cct, 99);
  q.coflows = static_cast<std::int64_t>(cct.size());
  q.cct_over_bound_mean =
      ratios > 0 ? ratio_sum / static_cast<double>(ratios) : 0.0;
  return q;
}

}  // namespace perfbench
