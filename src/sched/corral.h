// Corral [14]-style network-aware scheduler — the paper's second baseline.
//
// Corral plans, per job, a small set of racks sized to the job's task
// demand and confines the job's input data, map tasks, AND reduce tasks to
// that set, eliminating most cross-rack shuffle. (The real Corral solves an
// offline packing problem over recurring jobs; this reconstruction keeps
// its defining behavior — same-rack-set map+reduce placement — which is
// what the paper's comparison exercises.) As the paper notes, this causes
// container contention on the chosen racks and aggregates traffic only
// incidentally, so little of it crosses the elephant threshold.
#pragma once

#include "sched/scheduler.h"

namespace cosched {

class CorralScheduler : public JobScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "corral"; }
  [[nodiscard]] bool defers_reduces() const override { return false; }

  void on_job_submitted(Job& job, SchedContext& ctx) override;
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;
  /// pick_task only scans job/cluster state; a decline mutates nothing.
  /// A decline is rack-independent when the confinement filter hid no
  /// work: the only rack-dependent test is rack_preferred, and every job it
  /// did not skip was declined for having no pending map at all and no
  /// eligible pending reduce, as in FairScheduler. If no skipped job had
  /// either, no rack can receive a grant.
  [[nodiscard]] bool last_decline_was_global() const override {
    return last_decline_global_;
  }

 private:
  /// Whether the last nullopt from pick_task was rack-independent.
  bool last_decline_global_ = false;
};

}  // namespace cosched
