// Co-scheduler — the paper's contribution (Section IV).
//
// Four cooperating mechanisms:
//
//   MTS  (Section IV-C): at submission, a shuffle-heavy job gets a guideline
//        R_map = floor(sqrt(Input * SIR / T_e)) and its input blocks are
//        placed on kHdfsReplication disjoint sets of R_map racks, so maps
//        can run data-locally on R_map racks and every map-rack's output can
//        cross the elephant threshold toward every reduce rack.
//
//   PSRT (Section IV-D): when the job's maps finish, enumerate every
//        feasible reduce-rack count R_red in [1, floor(SM_1/T_e)] and, for
//        each, the reduce-task distribution D that (a) pushes every flow
//        over T_e and (b) minimizes the CCT lower bound T(C) — start every
//        rack at the minimum aggregation count, then add remaining tasks to
//        the least-loaded rack.
//
//   SBS  (Section IV-E, Algorithm 1): ExploreSchedule greedily matches the
//        sorted (descending) D to the racks whose containers free earliest
//        (per the T_rem estimator), which is optimal for the given D; the
//        best schedule minimizes CCT + t_max.
//
//   OCAS (Section IV-F, Algorithm 2): at container-grant time, serve the
//        most under-served user and pick, in priority order: planned
//        shuffle-heavy reduce → guideline shuffle-heavy map → light reduce →
//        light map → any reduce → any map.
//
// Reduce semantics follow Section IV-A: reduces are placed only after all
// maps finish, and the shuffle coflow is released only after every reduce
// container is granted.
//
// The ablation modes of the paper's Figure 5 are flags: OCAS-only disables
// everything but the grant policy (degenerating to Fair-with-deferred-
// reduces), MTS+OCAS disables the reduce planning.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "coflow/cct_bound.h"
#include "sched/scheduler.h"

namespace cosched {

/// One PSRT candidate: run the job's reduces on `d.size()` racks, `d[i]`
/// tasks on the i-th, for a CCT lower bound of `cct`.
struct PossibleSchedule {
  std::vector<std::int32_t> d;
  Duration cct;
};

/// PSRT: all possible schedules for a map-output distribution `sm`
/// (per-rack output sizes, each >= elephant_threshold, any order). `bound`
/// evaluates the CCT lower bound of each candidate's abstract traffic
/// matrix — in production, the active fabric's Fabric::cct_lower_bound.
[[nodiscard]] std::vector<PossibleSchedule> possible_reduce_schedules(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    DataSize elephant_threshold, const CctBoundFn& bound,
    std::int32_t max_racks);

/// The production PSRT enumeration: bit-identical output to
/// possible_reduce_schedules for the same `bound`, evaluating it on a
/// surrogate matrix of O(m + R_red) entries instead of the full m x R_red
/// build (m = map racks). Every full-matrix entry is the exact integer
/// llround(SM_i * d_j / R), weakly monotone in both SM_i and d_j, and
/// every fabric bound is weakly monotone per row/column in (sum, degree):
/// the binding row is always the largest map rack's and the binding column
/// is always one receiving d_max = d[0] tasks. The surrogate materializes
/// exactly those two lines (shared corner entry added once); its extra
/// degree-1 lines are dominated, so the bound over the surrogate equals
/// the bound over the full matrix bit for bit (DESIGN.md §11).
[[nodiscard]] std::vector<PossibleSchedule>
possible_reduce_schedules_incremental(const std::vector<DataSize>& sm,
                                      std::int32_t num_reduces,
                                      DataSize elephant_threshold,
                                      const CctBoundFn& bound,
                                      std::int32_t max_racks);

/// MTS's map-rack guideline (Section IV-C), before clamping to the cluster:
/// R_map = floor(sqrt(Input * SIR / T_e)), at least 1. Monotone
/// non-decreasing in Input (and in SIR) — a property the test suite checks.
[[nodiscard]] std::int32_t mts_map_rack_guideline(DataSize input, double sir,
                                                  DataSize elephant_threshold);

/// One SBS exploration (Algorithm 1): a PSRT candidate's D greedily matched
/// to the racks whose containers free earliest.
struct ExploredSchedule {
  /// Chosen reduce racks with their task counts (sums to the job's reduces).
  std::map<RackId, std::int32_t> plan;
  /// The candidate's distribution, sorted descending (assignment order).
  std::vector<std::int32_t> d;
  /// The candidate's CCT lower bound T(C).
  Duration cct;
  /// Worst container wait over the chosen racks.
  Duration t_max;
  /// SBS's objective: CCT + t_max (Section IV-E).
  [[nodiscard]] double score_sec() const { return (cct + t_max).sec(); }
};

/// SBS's ExploreSchedule over every PSRT candidate: for each, assign the
/// descending D to the earliest-available unselected racks. Candidates
/// with no feasible assignment are dropped.
[[nodiscard]] std::vector<ExploredSchedule> explore_schedules(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability);

/// The production ExploreSchedule: bit-identical results to
/// explore_schedules with far fewer oracle queries, for any oracle whose
/// answer is pure in (rack, count, simulation state) — the driver's is,
/// with or without T_rem noise. Every distinct (rack, count) pair is
/// estimated once per pass, and the per-candidate O(racks) min-scans
/// become BestRackHeap rank orders built once per distinct count, walked
/// by a forward-only cursor over a dense selected-rack stamp (O(R_red)
/// per candidate).
[[nodiscard]] std::vector<ExploredSchedule> explore_schedules_incremental(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability);

/// Index of the minimum-score exploration; nullopt when `explored` is
/// empty. Ties break toward the earliest candidate (enumeration order).
[[nodiscard]] std::optional<std::size_t> best_schedule_index(
    const std::vector<ExploredSchedule>& explored);

class CoScheduler : public JobScheduler {
 public:
  struct Options {
    /// MTS: guideline input placement + map-rack cap.
    bool enable_mts = true;
    /// PSRT + SBS: reduce planning (requires MTS to be meaningful, as the
    /// paper notes, but the flag is independent for the ablation study).
    bool enable_reduce_planning = true;
  };

  CoScheduler() : CoScheduler(Options{}) {}
  explicit CoScheduler(Options opts) : opts_(opts) {}

  [[nodiscard]] const Options& options() const { return opts_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool defers_reduces() const override { return true; }

  void on_job_submitted(Job& job, SchedContext& ctx) override;
  void on_maps_completed(Job& job, SchedContext& ctx) override;
  /// Declines are outcome-pure, so declines_are_stable keeps its default:
  /// the decline-time mutations (candidate pruning, the no-grant memo)
  /// never change a future pick result.
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;
  /// True only when the last decline rests on an empty candidate index: no
  /// user had a single map or reduce candidate left, a condition that
  /// mentions no rack, so every rack's pick at this state is the same pure
  /// nullopt. A memo hit reports what the scan that recorded the decline
  /// found.
  [[nodiscard]] bool last_decline_was_global() const override {
    return last_decline_global_;
  }

  /// Whether a decline recorded for `rack` is current, i.e. a pick_task on
  /// it would be answered from the no-grant memo unless a placement since
  /// the last pick opened an overflow gate (DESIGN.md §10).
  [[nodiscard]] bool no_grant_recorded(RackId rack) const;

  void on_task_placed(Job& job, Task& task, RackId rack) override;
  void on_task_completed(Job& job, Task& task, RackId rack) override;
  void on_task_requeued(Job& job, Task& task, RackId rack) override;
  void on_job_completed(Job& job) override;
  void on_reduce_plan_cleared(Job& job) override;

  [[nodiscard]] std::string audit_invariants(
      const std::vector<Job*>& active_jobs) const override;

 protected:
  /// PSRT's candidate enumeration for one job's above-T_e map output `sm`
  /// (possible_reduce_schedules_incremental). The two planning steps are
  /// virtual only so that a test-side reference scheduler can swap in the
  /// full-matrix enumeration and the unmemoized explore.
  [[nodiscard]] virtual std::vector<PossibleSchedule> enumerate_schedules(
      const std::vector<DataSize>& sm, std::int32_t num_reduces,
      const CctBoundFn& bound, const SchedContext& ctx) const;
  /// SBS's ExploreSchedule over every candidate
  /// (explore_schedules_incremental).
  [[nodiscard]] virtual std::vector<ExploredSchedule> explore(
      const std::vector<PossibleSchedule>& schedules, SchedContext& ctx) const;

  /// Drops every recorded decline. Bumped by the hooks that can turn a
  /// decline on any rack into a grant (submit, maps completed, requeue,
  /// job completed, plan cleared) and by a placement that opened an
  /// overflow gate. Virtual only so that an auditor test can build a
  /// scheduler that skips one bump.
  virtual void invalidate_no_grant_cache();

 private:
  // ----- incremental OCAS state ---------------------------------------------
  //
  // A plain OCAS pick_task scans every active job per container offer —
  // O(active_jobs) even when almost all of them are network-bound with
  // nothing pending. CoScheduler instead keeps, per user, the jobs that
  // can still receive a container:
  //
  //   * map_candidates: jobs with (possibly) pending maps. Keyed by an
  //     arrival sequence number so iteration reproduces Algorithm 2's
  //     arrival-order scan even after a killed attempt re-inserts a job.
  //     Lazily pruned: a job whose next_pending_map_any() is null is
  //     dropped mid-scan and re-inserted by on_task_requeued if a kill
  //     makes a map pending again.
  //   * reduce_candidates: jobs past all_maps_done with reduces still to
  //     place (membership only begins at on_maps_completed, because
  //     CoScheduler defers reduces). Same keying and pruning.
  //
  // Candidate membership is a strict superset of every OCAS class's match
  // condition, so the filtered scans return exactly the full scan's first
  // match. The per-user running-task counters reproduce fair_user_order
  // without touching the active-job list.
  struct UserState {
    /// Running (placed, not completed) tasks over the user's active jobs —
    /// the fair-share key, maintained by the placement/completion hooks.
    std::int64_t running = 0;
    /// Active (arrived, not completed) jobs; the UserState is erased when
    /// this drops to zero, matching fair_user_order's user set.
    std::int64_t active = 0;
    std::map<std::int64_t, Job*> map_candidates;
    std::map<std::int64_t, Job*> reduce_candidates;
  };

  /// SBS over the possible schedules; installs the best plan on the job.
  void select_best_schedule(Job& job,
                            const std::vector<PossibleSchedule>& schedules,
                            SchedContext& ctx);

  /// One user's six OCAS class scans over their candidate lists, pruning
  /// exhausted candidates along the way.
  std::optional<TaskChoice> scan_user(UserState& u, RackId rack,
                                      SchedContext& ctx);

  /// Whether a placement recorded in placed_ opened an overflow gate: the
  /// placed job's own, or that of a guided job with pending maps whose
  /// guideline holds a rack the placement left full.
  bool placement_opened_gate(const SchedContext& ctx);

  Options opts_;

  // uid-ascending so iterating + stable-sorting by (running, uid)
  // reproduces fair_user_order exactly.
  std::map<UserId, UserState> users_;
  /// Arrival sequence per live tracked job (candidate-map key).
  std::unordered_map<JobId, std::int64_t> seq_;
  std::int64_t next_seq_ = 0;
  /// The fair order of one pick, rebuilt in place per full scan.
  std::vector<std::pair<std::int64_t, UserState*>> order_;

  // ----- no-grant memo (DESIGN.md §10) ---------------------------------------
  //
  // A dispatch wave re-offers every rack that declined before its last
  // grant. A decline survives every state change that cannot turn it into
  // a grant: placements that open no overflow gate, and container releases
  // on other racks.

  /// Per-rack "pick_task declined at epoch E"; 0 = nothing recorded.
  std::vector<std::uint64_t> no_grant_epoch_;
  std::uint64_t epoch_ = 1;
  /// Epoch of the most recent recorded decline: while it differs from
  /// epoch_ no rack's decline is current and placements need no check.
  std::uint64_t recorded_epoch_ = 0;
  /// Epoch at which a declining scan left the candidate index empty; a
  /// memo hit at that epoch is a global decline too.
  std::uint64_t global_epoch_ = 0;
  /// Placements since the last pick, checked by the next pick_task (which
  /// has the cluster state the gates read). Only kept while a recorded
  /// decline is current; cleared on every bump.
  std::vector<std::pair<Job*, RackId>> placed_;
  /// Whether the most recent pick_task nullopt was rack-independent.
  bool last_decline_global_ = false;
};

}  // namespace cosched
