// The job-scheduler interface.
//
// A JobScheduler makes three kinds of decisions, invoked by the simulation
// driver at well-defined points:
//
//   1. on_job_submitted — input data placement and any per-job planning
//      (Co-scheduler computes the R_map guideline here);
//   2. on_maps_completed — reduce planning once the map output distribution
//      is known (Co-scheduler's PSRT + SBS run here);
//   3. pick_task — container-grant time: one free container on one rack is
//      offered and the scheduler returns the task to run in it (or nothing).
//      A scheduler whose declines are stable may report a decline as
//      rack-independent; the driver then ends the dispatch wave there.
//
// Schedulers also declare their reduce-phase semantics: baselines overlap
// reduces with maps (Hadoop slow-start), Co-scheduler defers reduces until
// all maps finish (Section IV-A of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/job.h"
#include "cluster/trem_estimator.h"
#include "common/rng.h"
#include "net/topology.h"
#include "simcore/simulator.h"

namespace cosched {

class Fabric;
struct Observability;

/// Hadoop slow-start fraction for overlapping schedulers: the share of a
/// job's maps that must finish before its reduces may take containers.
/// Hadoop's default is 0.05 — the conventional overlap whose container
/// waste Section IV-A of the paper criticizes. Baselines only.
inline constexpr double kReduceSlowstart = 0.05;

/// HDFS replication factor: every input block lives on this many racks
/// (the Hadoop default of 3, which the paper assumes).
inline constexpr std::int32_t kHdfsReplication = 3;

/// Everything a scheduler may consult when deciding.
struct SchedContext {
  SimTime now;
  const HybridTopology& topo;
  Cluster& cluster;
  /// Jobs that have arrived and not yet completed, in arrival order.
  const std::vector<Job*>& active_jobs;
  AvailabilityOracle& availability;
  Rng& rng;
  /// The circuit fabric the run uses; the planner charges its
  /// cct_lower_bound.
  const Fabric& fabric;
  /// Optional tracing/decision-log bundle; null when not observing.
  Observability* obs = nullptr;
};

struct TaskChoice {
  Job* job;
  Task* task;
  /// OCAS priority class (1..6) that selected the task; -1 for schedulers
  /// without priority classes.
  std::int32_t priority_class = -1;
};

class JobScheduler {
 public:
  virtual ~JobScheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// If true, the driver only lets this scheduler place a job's reduce
  /// tasks after all of its maps completed, and releases the job's shuffle
  /// as one coflow after the last reduce container is granted.
  [[nodiscard]] virtual bool defers_reduces() const = 0;

  /// Place the job's input blocks (must call job.set_block_placement) and
  /// do any admission-time planning.
  virtual void on_job_submitted(Job& job, SchedContext& ctx) = 0;

  /// Invoked when the job's last map task completes.
  virtual void on_maps_completed(Job& job, SchedContext& ctx) {
    (void)job;
    (void)ctx;
  }

  /// Offer one free container on `rack`. Return the task to run or nullopt.
  virtual std::optional<TaskChoice> pick_task(RackId rack,
                                              SchedContext& ctx) = 0;

  /// Whether a nullopt from pick_task is a pure function of scheduler-
  /// visible state: true promises that re-offering the same rack with no
  /// intervening state change returns nullopt again and that declining has
  /// no observable side effects. The driver reads it only to decide
  /// whether a global decline (last_decline_was_global) may end a wave
  /// (DESIGN.md §11). Every production scheduler keeps this promise; a
  /// scheduler that counted declined offers (say, a locality wait) would
  /// return false. Cache-only mutations (candidate pruning, no-grant
  /// memos) that never change a future outcome do not break stability.
  [[nodiscard]] virtual bool declines_are_stable() const { return true; }

  /// Valid immediately after a pick_task that returned nullopt: true means
  /// the decline was *rack-independent* — the scheduler proved that no rack
  /// could receive a grant at its current state (e.g. the incremental
  /// candidate index is empty), so replaying pick_task on any other rack
  /// before the next state change would return the identical nullopt with
  /// no observable side effects. The driver uses this to end an
  /// all-decline wave after a single pick instead of offering every free
  /// rack (DESIGN.md §11). Only meaningful when
  /// declines_are_stable() is also true; the conservative default is
  /// "rack-dependent".
  [[nodiscard]] virtual bool last_decline_was_global() const { return false; }

  // ----- state-change notifications (incremental schedulers) ----------------
  // The driver reports every scheduling-relevant state transition through
  // these hooks so an incremental scheduler can maintain its caches. All
  // are no-ops by default. Ordering
  // contract: each hook fires *after* the corresponding Job counters have
  // been updated (note_map_placed / note_map_completed / requeue_map / ...),
  // so a hook sees the same job state a fresh recompute would.

  /// A container was granted to `task` of `job` on `rack`.
  virtual void on_task_placed(Job& job, Task& task, RackId rack) {
    (void)job, (void)task, (void)rack;
  }
  /// `task` of `job` completed and released its container on `rack`.
  virtual void on_task_completed(Job& job, Task& task, RackId rack) {
    (void)job, (void)task, (void)rack;
  }
  /// A running attempt of `task` was killed on `rack` and the task is
  /// pending again (Job::requeue_map / requeue_reduce already ran).
  virtual void on_task_requeued(Job& job, Task& task, RackId rack) {
    (void)job, (void)task, (void)rack;
  }
  /// `job` finished and is about to leave the active set: retire any
  /// scheduler state attached to it.
  virtual void on_job_completed(Job& job) { (void)job; }
  /// The deadlock breaker abandoned `job`'s reduce plan
  /// (Job::clear_reduce_plan already ran), re-opening class-5 grants.
  virtual void on_reduce_plan_cleared(Job& job) { (void)job; }

  // ----- audit hook ---------------------------------------------------------
  /// Re-derive any incremental caches from first principles and compare:
  /// return an empty string when coherent, else a description of the first
  /// divergence (the invariant auditor turns it into an AuditFailure).
  [[nodiscard]] virtual std::string audit_invariants(
      const std::vector<Job*>& active_jobs) const {
    (void)active_jobs;
    return {};
  }

 protected:
  /// Whether `job`'s reduces are eligible for placement under this
  /// scheduler's reduce semantics.
  [[nodiscard]] bool reduces_eligible(const Job& job) const {
    if (job.spec().num_reduces == 0) return false;
    if (defers_reduces()) return job.all_maps_done();
    const auto threshold = static_cast<std::int32_t>(
        std::ceil(kReduceSlowstart *
                  static_cast<double>(job.spec().num_maps)));
    return job.maps_completed() >= threshold;
  }
};

}  // namespace cosched
