// Runtime state of one job: its tasks, block placement, map-output
// bookkeeping, shuffle coflow, and the scheduler guidance attached to it
// (R_map guideline, best reduce schedule).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/block_placement.h"
#include "cluster/task.h"
#include "coflow/coflow.h"
#include "common/ids.h"
#include "workload/job_spec.h"

namespace cosched {

class Job {
 public:
  Job(const JobSpec& spec, DataSize elephant_threshold,
      IdAllocator<TaskId>& task_ids, CoflowId coflow_id);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  [[nodiscard]] JobId id() const { return spec_.id; }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] bool shuffle_heavy() const { return shuffle_heavy_; }

  [[nodiscard]] std::vector<Task>& maps() { return maps_; }
  [[nodiscard]] std::vector<Task>& reduces() { return reduces_; }
  [[nodiscard]] const std::vector<Task>& maps() const { return maps_; }
  [[nodiscard]] const std::vector<Task>& reduces() const { return reduces_; }

  // ----- input block placement ------------------------------------------
  void set_block_placement(std::vector<BlockReplicas> blocks);
  [[nodiscard]] const BlockReplicas& block(std::int32_t map_index) const;
  [[nodiscard]] bool has_block_placement() const { return !blocks_.empty(); }
  /// True if map task `map_index` is data-local on `rack`.
  [[nodiscard]] bool map_local_on(std::int32_t map_index, RackId rack) const;

  // ----- map progress ----------------------------------------------------
  [[nodiscard]] std::int32_t maps_completed() const { return maps_completed_; }
  [[nodiscard]] std::int32_t maps_placed() const { return maps_placed_; }
  [[nodiscard]] bool all_maps_placed() const {
    return maps_placed_ == spec_.num_maps;
  }
  [[nodiscard]] bool all_maps_done() const {
    return maps_completed_ == spec_.num_maps;
  }
  void note_map_placed(RackId rack) {
    ++maps_placed_;
    map_racks_used_.insert(rack);
  }
  void note_map_completed(RackId rack, DataSize output) {
    ++maps_completed_;
    map_output_by_rack_[rack] += output;
  }
  [[nodiscard]] const std::set<RackId>& map_racks_used() const {
    return map_racks_used_;
  }
  [[nodiscard]] const std::map<RackId, DataSize>& map_output_by_rack() const {
    return map_output_by_rack_;
  }

  // ----- reduce progress --------------------------------------------------
  [[nodiscard]] std::int32_t reduces_placed() const { return reduces_placed_; }
  [[nodiscard]] std::int32_t reduces_completed() const {
    return reduces_completed_;
  }
  [[nodiscard]] bool all_reduces_placed() const {
    return reduces_placed_ == spec_.num_reduces;
  }
  void note_reduce_placed(RackId rack) {
    ++reduces_placed_;
    ++reduce_placed_by_rack_[rack];
  }
  void note_reduce_completed() { ++reduces_completed_; }
  [[nodiscard]] const std::map<RackId, std::int32_t>& reduce_placed_by_rack()
      const {
    return reduce_placed_by_rack_;
  }

  // ----- scheduler guidance (Co-scheduler) --------------------------------
  /// R_map guideline; 0 means "no guideline" (baseline schedulers).
  [[nodiscard]] std::int32_t r_map_guideline() const {
    return r_map_guideline_;
  }
  void set_r_map_guideline(std::int32_t r) { r_map_guideline_ = r; }

  /// The concrete R_map racks chosen for the guideline: one rack per block
  /// residue so together they hold a full replica of the input.
  [[nodiscard]] const std::vector<RackId>& guideline_map_racks() const {
    return guideline_map_racks_;
  }
  void set_guideline_map_racks(std::vector<RackId> racks) {
    guideline_map_racks_ = std::move(racks);
  }
  [[nodiscard]] bool in_map_guideline(RackId rack) const;

  /// Best reduce schedule: rack -> number of reduce tasks. Empty means no
  /// plan (baselines, shuffle-light jobs).
  [[nodiscard]] const std::map<RackId, std::int32_t>& reduce_plan() const {
    return reduce_plan_;
  }
  void set_reduce_plan(std::map<RackId, std::int32_t> plan,
                       Duration planned_cct) {
    reduce_plan_ = std::move(plan);
    planned_cct_ = planned_cct;
  }
  [[nodiscard]] bool has_reduce_plan() const { return !reduce_plan_.empty(); }
  /// Abandon the plan (deadlock recovery); reduces then place anywhere.
  void clear_reduce_plan() { reduce_plan_.clear(); }
  [[nodiscard]] Duration planned_cct() const { return planned_cct_; }

  /// Remaining plan capacity for a reduce on `rack`.
  [[nodiscard]] std::int32_t reduce_plan_remaining(RackId rack) const;

  // ----- coflow ------------------------------------------------------------
  [[nodiscard]] Coflow& coflow() { return *coflow_; }
  [[nodiscard]] const Coflow& coflow() const { return *coflow_; }
  /// Whether the job's shuffle demand has any flows at all.
  [[nodiscard]] bool has_shuffle() const { return !coflow_->flows().empty(); }

  // ----- completion ---------------------------------------------------------
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }
  void mark_completed(SimTime now) {
    completed_ = true;
    completion_time_ = now;
  }

  /// All reduce work done? (Map-only jobs complete when maps are done.)
  [[nodiscard]] bool work_done() const {
    return all_maps_done() && reduces_completed_ == spec_.num_reduces;
  }

  // ----- scheduling helpers -------------------------------------------------
  // Pending tasks never return to pending once placed, so these use
  // monotonic cursors / lazily pruned per-rack queues and are amortized
  // O(1) per call.

  /// Next pending reduce task, or nullptr.
  [[nodiscard]] Task* next_pending_reduce();
  /// Next pending map task whose block has a replica on `rack`, or nullptr.
  [[nodiscard]] Task* next_pending_map_local(RackId rack);
  /// Next pending map task regardless of locality, or nullptr.
  [[nodiscard]] Task* next_pending_map_any();
  /// Racks that (may) still hold pending local maps. Lazily pruned; a
  /// returned rack is only a candidate — confirm with
  /// next_pending_map_local.
  [[nodiscard]] std::vector<RackId> racks_with_pending_local_maps() const;

  // ----- fault injection ----------------------------------------------------
  /// A running map attempt was killed: undo its placement accounting and
  /// make the task schedulable again. Call after Task::reset_for_retry().
  void requeue_map(std::int32_t index);
  /// Same for a reduce attempt that had been placed on `rack`; decrementing
  /// the per-rack placement count re-opens the slot in the reduce plan, so
  /// OCAS naturally re-grants it.
  void requeue_reduce(std::int32_t index, RackId rack);

  /// Whether the job's shuffle demand has been materialized into flows.
  [[nodiscard]] bool shuffle_released() const { return shuffle_released_; }
  void mark_shuffle_released() { shuffle_released_ = true; }

  /// Rack set a scheduler confines this job to (Corral). Empty = no limit.
  [[nodiscard]] const std::vector<RackId>& preferred_racks() const {
    return preferred_racks_;
  }
  void set_preferred_racks(std::vector<RackId> racks) {
    preferred_racks_ = std::move(racks);
  }
  [[nodiscard]] bool rack_preferred(RackId rack) const;

 private:
  JobSpec spec_;
  bool shuffle_heavy_;
  std::vector<Task> maps_;
  std::vector<Task> reduces_;
  std::vector<BlockReplicas> blocks_;

  std::int32_t maps_placed_ = 0;
  std::int32_t maps_completed_ = 0;
  std::set<RackId> map_racks_used_;
  std::map<RackId, DataSize> map_output_by_rack_;

  std::int32_t reduces_placed_ = 0;
  std::int32_t reduces_completed_ = 0;
  std::map<RackId, std::int32_t> reduce_placed_by_rack_;

  std::int32_t r_map_guideline_ = 0;
  std::vector<RackId> guideline_map_racks_;
  std::map<RackId, std::int32_t> reduce_plan_;
  Duration planned_cct_ = Duration::zero();

  std::unique_ptr<Coflow> coflow_;
  bool shuffle_released_ = false;

  std::vector<RackId> preferred_racks_;

  // Scheduling helper state.
  std::int32_t reduce_cursor_ = 0;
  std::int32_t map_cursor_ = 0;
  /// Per-rack LIFO queues of maps with a replica there, indexed by rack id
  /// (sized to the highest replica rack + 1).
  std::vector<std::vector<std::int32_t>> pending_maps_by_rack_;

  bool completed_ = false;
  SimTime completion_time_ = SimTime::zero();
};

}  // namespace cosched
