// Delay scheduler [4] (Zaharia et al., EuroSys'10) — an extra baseline.
//
// Fair sharing plus *delay scheduling* for locality: when the job at the
// head of the fair queue has no data-local map for the offered container,
// the scheduler skips the job for a bounded number of scheduling
// opportunities before letting it run a map non-locally. Like Fair, it
// spreads tasks across the whole cluster and overlaps reduces with maps —
// the paper groups both among the schedulers that "totally disaggregate
// the data transfers of the jobs".
#pragma once

#include <map>

#include "sched/scheduler.h"

namespace cosched {

class DelayScheduler : public JobScheduler {
 public:
  struct Options {
    std::int32_t replication = kHdfsReplication;
    /// Scheduling opportunities a job may skip while waiting for locality.
    std::int32_t max_skips = 20;
  };

  DelayScheduler() : DelayScheduler(Options{}) {}
  explicit DelayScheduler(Options opts) : opts_(opts) {}

  [[nodiscard]] std::string name() const override { return "delay"; }
  [[nodiscard]] bool defers_reduces() const override { return false; }

  void on_job_submitted(Job& job, SchedContext& ctx) override;
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;
  void on_job_completed(Job& job) override { skips_.erase(job.id()); }

  /// Jobs with a skip counter: at most the active ones.
  [[nodiscard]] std::size_t tracked_jobs() const { return skips_.size(); }

 private:
  Options opts_;
  /// Consecutive offers each job declined for lack of locality.
  std::map<JobId, std::int32_t> skips_;
};

}  // namespace cosched
