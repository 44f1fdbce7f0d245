#include "sched/corral.h"

#include <algorithm>
#include <cmath>

#include "obs/perf_monitor.h"
#include "sched/fairness.h"

namespace cosched {

namespace {

/// Target fraction of a rack's containers a job may plan to occupy;
/// rack-set size = ceil(peak task demand / (occupancy * slots/rack)).
constexpr double kOccupancy = 0.25;

}  // namespace

void CorralScheduler::on_job_submitted(Job& job, SchedContext& ctx) {
  // Size the rack set to the job's peak parallel task demand.
  const double slots_budget =
      kOccupancy * static_cast<double>(ctx.topo.slots_per_rack());
  const auto peak_tasks = static_cast<double>(
      std::max(job.spec().num_maps, job.spec().num_reduces));
  const auto want = static_cast<std::int32_t>(
      std::ceil(peak_tasks / std::max(slots_budget, 1.0)));
  const std::int32_t set_size =
      std::clamp(want, 1, ctx.topo.num_racks);

  // Pick the least-loaded racks right now (ties by id for determinism).
  std::vector<RackId> racks;
  racks.reserve(static_cast<std::size_t>(ctx.topo.num_racks));
  for (std::int32_t r = 0; r < ctx.topo.num_racks; ++r) {
    racks.emplace_back(r);
  }
  std::stable_sort(racks.begin(), racks.end(), [&](RackId a, RackId b) {
    return ctx.cluster.used_slots(a) < ctx.cluster.used_slots(b);
  });
  racks.resize(static_cast<std::size_t>(set_size));

  job.set_block_placement(place_blocks_on_racks(
      job.spec().num_maps, racks, kHdfsReplication, ctx.rng));
  job.set_preferred_racks(std::move(racks));
}

std::optional<TaskChoice> CorralScheduler::pick_task(RackId rack,
                                                     SchedContext& ctx) {
  PerfScope perf(PerfPhase::kSchedPickTask);
  perf.set_size(ctx.active_jobs.size());
  // Whether a job skipped by confinement had work another rack could take.
  bool hidden_work = false;
  for (UserId user : fair_user_order(ctx.active_jobs)) {
    for (Job* job : ctx.active_jobs) {
      if (job->spec().user != user) continue;
      if (!job->rack_preferred(rack)) {  // strict confinement
        hidden_work = hidden_work || job->next_pending_map_any() != nullptr ||
                      (reduces_eligible(*job) &&
                       job->next_pending_reduce() != nullptr);
        continue;
      }
      // Inside its rack set every map is data-local by construction.
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t};
      }
      if (reduces_eligible(*job)) {
        if (Task* t = job->next_pending_reduce()) {
          return TaskChoice{job, t};
        }
      }
      // Non-local (within the set) map: block replicas may not cover every
      // rack of a large set.
      if (Task* t = job->next_pending_map_any()) {
        return TaskChoice{job, t};
      }
    }
  }
  last_decline_global_ = !hidden_work;
  return std::nullopt;
}

}  // namespace cosched
