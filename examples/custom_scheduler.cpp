// Extending the library: writing your own JobScheduler.
//
// This example implements a deliberately naive "pack-first" scheduler —
// every job's tasks go to the lowest-numbered rack with room — and races it
// against Fair and Co-scheduler on the same workload. It demonstrates the
// three scheduler hooks (on_job_submitted / on_maps_completed / pick_task)
// and that the driver treats custom schedulers exactly like built-ins.
#include <cstdio>
#include <functional>
#include <memory>

#include "sched/coscheduler.h"
#include "sched/fair.h"
#include "sched/fairness.h"
#include "sim/driver.h"
#include "workload/generator.h"

using namespace cosched;

namespace {

/// Packs every task onto the lowest-numbered rack that still has room.
/// (Terrible for the network *and* for container contention — a useful
/// lower bound when evaluating placement policies.)
class PackFirstScheduler : public JobScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "pack-first"; }
  // Conventional Hadoop semantics: reduces overlap with maps.
  [[nodiscard]] bool defers_reduces() const override { return false; }

  void on_job_submitted(Job& job, SchedContext& ctx) override {
    // Input blocks also pack onto the first racks.
    std::vector<RackId> first_racks;
    for (std::int32_t r = 0; r < std::min(3, ctx.topo.num_racks); ++r) {
      first_racks.emplace_back(r);
    }
    job.set_block_placement(place_blocks_on_racks(
        job.spec().num_maps, first_racks, /*replication=*/3, ctx.rng));
  }

  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    // Only accept containers on the lowest-numbered rack that has room:
    // tasks flow strictly left-to-right across the cluster.
    for (std::int32_t r = 0; r < rack.value(); ++r) {
      if (ctx.cluster.free_slots(RackId{r}) > 0) return std::nullopt;
    }
    for (UserId user : fair_user_order(ctx.active_jobs)) {
      for (Job* job : ctx.active_jobs) {
        if (job->spec().user != user) continue;
        if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t};
        if (reduces_eligible(*job)) {
          if (Task* t = job->next_pending_reduce()) {
            return TaskChoice{job, t};
          }
        }
      }
    }
    return std::nullopt;
  }
};

RunMetrics run(std::unique_ptr<JobScheduler> sched) {
  WorkloadConfig wl;
  wl.num_jobs = 80;
  wl.num_users = 4;
  wl.arrival_window = Duration::minutes(10);
  Rng rng(2024);
  auto jobs = generate_workload(wl, rng);

  SimConfig cfg;
  cfg.topo.num_racks = 12;
  cfg.seed = 5;
  SimulationDriver driver(cfg, std::move(jobs), std::move(sched));
  return driver.run();
}

}  // namespace

int main() {
  std::printf("%-14s %12s %12s %12s %10s\n", "scheduler", "makespan(s)",
              "avg JCT(s)", "avg CCT(s)", "OCS share");
  using Factory = std::function<std::unique_ptr<JobScheduler>()>;
  const std::vector<Factory> factories{
      [] { return std::make_unique<PackFirstScheduler>(); },
      [] { return std::make_unique<FairScheduler>(); },
      [] { return std::make_unique<CoScheduler>(); },
  };
  for (const Factory& make : factories) {
    const RunMetrics m = run(make());
    std::printf("%-14s %12.1f %12.1f %12.2f %9.1f%%\n", m.scheduler.c_str(),
                m.makespan.sec(), m.avg_jct_sec(), m.avg_cct_sec(),
                100.0 * m.ocs_traffic_fraction());
  }
  return 0;
}
