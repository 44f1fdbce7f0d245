// Test-side oracles for the simulator's scheduling fast paths.
//
// Production runs one implementation of each decision. The references
// they are proved against live here, behind seams that only let a test
// swap them in:
//
//   * ReferenceCoScheduler — the Co-scheduler with Algorithm 2's plain
//     OCAS scan over every active job per offer, PSRT over the full
//     m x R_red traffic matrix, and SBS without memoized oracle queries.
//     It overrides pick_task and CoScheduler's two protected planning
//     virtuals; MTS placement and the state hooks are inherited.
//   * ScanDispatch — a decorator whose declines_are_stable() is false, so
//     the driver never ends a wave on a global decline: every pass offers
//     every free rack in round-robin order, the plain all-racks scan.
//
// Both keep the wrapped scheduler's name(), so RunReports of a reference
// run and a production run diff field for field.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/coscheduler.h"
#include "sim/experiment.h"

namespace cosched::oracle {

class ReferenceCoScheduler final : public CoScheduler {
 public:
  using CoScheduler::CoScheduler;

  /// Never touches the incremental state, so last_decline_was_global()
  /// stays false: the reference claims no rack-independent declines.
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;

 protected:
  [[nodiscard]] std::vector<PossibleSchedule> enumerate_schedules(
      const std::vector<DataSize>& sm, std::int32_t num_reduces,
      const CctBoundFn& bound, const SchedContext& ctx) const override;
  [[nodiscard]] std::vector<ExploredSchedule> explore(
      const std::vector<PossibleSchedule>& schedules,
      SchedContext& ctx) const override;
};

/// Forwards every JobScheduler virtual to a wrapped scheduler. Decorators
/// derive from it and override only what they change.
class ForwardingScheduler : public JobScheduler {
 public:
  explicit ForwardingScheduler(std::unique_ptr<JobScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool defers_reduces() const override {
    return inner_->defers_reduces();
  }
  void on_job_submitted(Job& job, SchedContext& ctx) override {
    inner_->on_job_submitted(job, ctx);
  }
  void on_maps_completed(Job& job, SchedContext& ctx) override {
    inner_->on_maps_completed(job, ctx);
  }
  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    return inner_->pick_task(rack, ctx);
  }
  [[nodiscard]] bool declines_are_stable() const override {
    return inner_->declines_are_stable();
  }
  [[nodiscard]] bool last_decline_was_global() const override {
    return inner_->last_decline_was_global();
  }
  void on_task_placed(Job& job, Task& task, RackId rack) override {
    inner_->on_task_placed(job, task, rack);
  }
  void on_task_completed(Job& job, Task& task, RackId rack) override {
    inner_->on_task_completed(job, task, rack);
  }
  void on_task_requeued(Job& job, Task& task, RackId rack) override {
    inner_->on_task_requeued(job, task, rack);
  }
  void on_job_completed(Job& job) override { inner_->on_job_completed(job); }
  void on_reduce_plan_cleared(Job& job) override {
    inner_->on_reduce_plan_cleared(job);
  }
  [[nodiscard]] std::string audit_invariants(
      const std::vector<Job*>& active_jobs) const override {
    return inner_->audit_invariants(active_jobs);
  }

 protected:
  [[nodiscard]] JobScheduler& inner() { return *inner_; }

 private:
  std::unique_ptr<JobScheduler> inner_;
};

class ScanDispatch final : public ForwardingScheduler {
 public:
  using ForwardingScheduler::ForwardingScheduler;
  [[nodiscard]] bool declines_are_stable() const override { return false; }
};

/// Whether scheduler `name` has a reference (the Co-scheduler family:
/// coscheduler, mts+ocas, ocas). The baselines have one implementation.
[[nodiscard]] bool has_reference_scheduler(const std::string& name);

/// Scheduler `name` with its reference decisions: a ReferenceCoScheduler
/// with the same Options for the Co-scheduler family, the production
/// scheduler otherwise.
[[nodiscard]] SchedulerFactory reference_scheduler_factory(
    const std::string& name);

/// Every scheduler `inner` builds, wrapped in ScanDispatch.
[[nodiscard]] SchedulerFactory scan_dispatch_factory(SchedulerFactory inner);

}  // namespace cosched::oracle
