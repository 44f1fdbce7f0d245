// The Hadoop Fair scheduler [13] — the paper's primary baseline.
//
// Input blocks are scattered randomly over the whole cluster (conventional
// HDFS). Containers go to the most under-served user; within a user, jobs
// in arrival order. On a given rack the scheduler prefers a data-local map,
// then an eligible reduce (slow-start overlap), then any map (paying a
// remote-read penalty). No attempt is made to aggregate traffic — exactly
// the behavior the paper criticizes in Section I.
#pragma once

#include "sched/scheduler.h"

namespace cosched {

class FairScheduler : public JobScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "fair"; }
  [[nodiscard]] bool defers_reduces() const override { return false; }

  void on_job_submitted(Job& job, SchedContext& ctx) override;
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;
  /// pick_task only scans job/cluster state; a decline mutates nothing.
  /// Every decline is rack-independent. pick_task visits every active job
  /// and grants any pending map (step 3 takes next_pending_map_any), so a
  /// nullopt means next_pending_map_any was null for every job — hence
  /// next_pending_map_local(r) is null for every rack r — and no job had an
  /// eligible pending reduce. Neither condition mentions the offered rack.
  [[nodiscard]] bool last_decline_was_global() const override { return true; }
};

}  // namespace cosched
