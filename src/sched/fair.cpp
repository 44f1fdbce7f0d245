#include "sched/fair.h"

#include "obs/perf_monitor.h"
#include "sched/fairness.h"

namespace cosched {

void FairScheduler::on_job_submitted(Job& job, SchedContext& ctx) {
  job.set_block_placement(place_blocks_random(
      job.spec().num_maps, ctx.topo.num_racks, kHdfsReplication, ctx.rng));
}

std::optional<TaskChoice> FairScheduler::pick_task(RackId rack,
                                                   SchedContext& ctx) {
  PerfScope perf(PerfPhase::kSchedPickTask);
  perf.set_size(ctx.active_jobs.size());
  for (UserId user : fair_user_order(ctx.active_jobs)) {
    for (Job* job : ctx.active_jobs) {
      if (job->spec().user != user) continue;
      // 1. Data-local map.
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t};
      }
      // 2. Eligible reduce (slow-start overlap with the map phase).
      if (reduces_eligible(*job)) {
        if (Task* t = job->next_pending_reduce()) {
          return TaskChoice{job, t};
        }
      }
      // 3. Any map, run remotely.
      if (Task* t = job->next_pending_map_any()) {
        return TaskChoice{job, t};
      }
    }
  }
  return std::nullopt;
}

}  // namespace cosched
