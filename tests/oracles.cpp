#include "oracles.h"

#include <utility>

#include "sched/fairness.h"

namespace cosched::oracle {

namespace {

/// Class-6 gate: a guided shuffle-heavy job may run maps off-guideline only
/// when no guideline rack has both a free container and a pending local
/// map.
bool map_overflow_allowed(Job& job, const SchedContext& ctx) {
  if (!job.shuffle_heavy() || job.r_map_guideline() <= 0) return true;
  for (RackId r : job.guideline_map_racks()) {
    if (ctx.cluster.free_slots(r) > 0 &&
        job.next_pending_map_local(r) != nullptr) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<TaskChoice> ReferenceCoScheduler::pick_task(RackId rack,
                                                          SchedContext& ctx) {
  for (UserId user : fair_user_order(ctx.active_jobs)) {
    std::vector<Job*> jobs;
    for (Job* job : ctx.active_jobs) {
      if (job->spec().user == user) jobs.push_back(job);
    }

    // OCAS priority classes (Algorithm 2), evaluated across the user's
    // jobs in arrival order.

    // 1. Reduce from a shuffle-heavy job whose best schedule contains this
    //    rack (plan capacity remaining).
    for (Job* job : jobs) {
      if (!job->shuffle_heavy() || !job->has_reduce_plan()) continue;
      if (job->reduce_plan_remaining(rack) <= 0) continue;
      if (!reduces_eligible(*job)) continue;
      if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t, 1};
    }
    // 2. Map from a shuffle-heavy job whose data is on this rack and which
    //    keeps the job's maps on its R_map guideline racks.
    for (Job* job : jobs) {
      if (!job->shuffle_heavy() || job->r_map_guideline() <= 0) continue;
      if (!job->in_map_guideline(rack)) continue;
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 2};
      }
    }
    // 3. Reduce from a non-shuffle-heavy job.
    for (Job* job : jobs) {
      if (job->shuffle_heavy()) continue;
      if (!reduces_eligible(*job)) continue;
      if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t, 3};
    }
    // 4. Any map from a non-shuffle-heavy job (local first).
    for (Job* job : jobs) {
      if (job->shuffle_heavy()) continue;
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 4};
      }
    }
    for (Job* job : jobs) {
      if (job->shuffle_heavy()) continue;
      if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t, 4};
    }
    // 5. Any available reduce: shuffle-heavy jobs with no plan. Planned
    //    jobs stay on plan.
    for (Job* job : jobs) {
      if (!job->shuffle_heavy() || job->has_reduce_plan()) continue;
      if (!reduces_eligible(*job)) continue;
      if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t, 5};
    }
    // 6. Any available map; for a guided shuffle-heavy job only once its
    //    guideline racks are saturated (the overflow path).
    for (Job* job : jobs) {
      if (!map_overflow_allowed(*job, ctx)) continue;
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 6};
      }
    }
    for (Job* job : jobs) {
      if (!map_overflow_allowed(*job, ctx)) continue;
      if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t, 6};
    }
  }
  return std::nullopt;
}

std::vector<PossibleSchedule> ReferenceCoScheduler::enumerate_schedules(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    const CctBoundFn& bound, const SchedContext& ctx) const {
  return possible_reduce_schedules(sm, num_reduces,
                                   ctx.topo.elephant_threshold, bound,
                                   ctx.topo.num_racks);
}

std::vector<ExploredSchedule> ReferenceCoScheduler::explore(
    const std::vector<PossibleSchedule>& schedules, SchedContext& ctx) const {
  return explore_schedules(schedules, ctx.topo.num_racks, ctx.availability);
}

bool has_reference_scheduler(const std::string& name) {
  return dynamic_cast<const CoScheduler*>(
             make_scheduler_factory(name)().get()) != nullptr;
}

SchedulerFactory reference_scheduler_factory(const std::string& name) {
  SchedulerFactory production = make_scheduler_factory(name);
  return [production]() -> std::unique_ptr<JobScheduler> {
    std::unique_ptr<JobScheduler> sched = production();
    if (const auto* co = dynamic_cast<const CoScheduler*>(sched.get())) {
      return std::make_unique<ReferenceCoScheduler>(co->options());
    }
    return sched;
  };
}

SchedulerFactory scan_dispatch_factory(SchedulerFactory inner) {
  return [inner = std::move(inner)] {
    return std::make_unique<ScanDispatch>(inner());
  };
}

}  // namespace cosched::oracle
