#include "sched/delay.h"

#include "obs/perf_monitor.h"
#include "sched/fairness.h"

namespace cosched {

void DelayScheduler::on_job_submitted(Job& job, SchedContext& ctx) {
  job.set_block_placement(place_blocks_random(
      job.spec().num_maps, ctx.topo.num_racks, opts_.replication, ctx.rng));
  skips_.erase(job.id());
}

std::optional<TaskChoice> DelayScheduler::pick_task(RackId rack,
                                                    SchedContext& ctx) {
  PerfScope perf(PerfPhase::kSchedPickTask);
  perf.set_size(ctx.active_jobs.size());
  for (UserId user : fair_user_order(ctx.active_jobs)) {
    for (Job* job : ctx.active_jobs) {
      if (job->spec().user != user) continue;
      // Data-local map: take it and reset the job's skip budget.
      if (Task* t = job->next_pending_map_local(rack)) {
        skips_[job->id()] = 0;
        return TaskChoice{job, t};
      }
      if (reduces_eligible(*job)) {
        if (Task* t = job->next_pending_reduce()) {
          return TaskChoice{job, t};
        }
      }
      // Non-local map: only after the job has waited out its delay.
      if (job->next_pending_map_any() != nullptr) {
        std::int32_t& skips = skips_[job->id()];
        if (skips >= opts_.max_skips) {
          skips = 0;
          return TaskChoice{job, job->next_pending_map_any()};
        }
        ++skips;  // decline this offer; try the next job
      }
    }
  }
  return std::nullopt;
}

}  // namespace cosched
