// SimulationDriver: the trace-driven flow-level event simulation that ties
// together the cluster (containers), the hybrid network (EPS + OCS), the
// coflow scheduler (Sunflow), and a pluggable job scheduler.
//
// Execution model
// ---------------
//  * Job arrival: the job's Job object is built, the scheduler places its
//    input blocks and does admission planning, dispatch is requested.
//  * Dispatch (coalesced per sim instant): racks with free containers are
//    offered to the scheduler one container at a time (Algorithm 2's
//    container-grant loop), in the round-robin order of the Cluster's
//    free-rack walk. A stable rack-independent decline ends the wave after
//    one pick (JobScheduler::last_decline_was_global).
//  * Map tasks compute for their trace duration (+ a deterministic remote-
//    read penalty when not data-local) and report their output size to
//    their rack on completion.
//  * Reduce tasks occupy a container from placement. Their shuffle demand
//    is aggregated per (map rack -> reduce rack) into the job's Coflow:
//      - overlapping schedulers (Fair/Corral): a reduce's demand
//        materializes once placed and all maps are done; flows start (and
//        grow) incrementally, so they are classified small -> EPS;
//      - deferring schedulers (Co-scheduler): the whole coflow is released
//        once every reduce container is granted, so flows carry their full
//        aggregated size and elephants ride the OCS (Section IV-A).
//  * A reduce starts computing when every flow into its rack for its job
//    has drained; the job completes when all reduces do. CCT is measured
//    from coflow release to last flow completion.
//
// Job lifetime
// ------------
//  arrival -> active -> finished (record built) -> freed. The driver owns
//  only live jobs: at arrival a Job is built and a JobRecord slot reserved
//  (RunMetrics::jobs stays in arrival order); at completion finish_job
//  fills the slot from the job and frees it, with its tasks, coflow and
//  flows. Peak memory therefore tracks the active set, not the trace.
#pragma once

#include <chrono>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "audit/invariant_auditor.h"
#include "cluster/cluster.h"
#include "cluster/job.h"
#include "cluster/trem_estimator.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "net/eps_fabric.h"
#include "net/fabric.h"
#include "sched/scheduler.h"
#include "simcore/simulator.h"
#include "workload/job_spec.h"

namespace cosched {

struct Observability;

/// Whether SimConfig::audit defaults on: yes in Debug builds (and CI's
/// sanitizer matrix), no in Release, where the paper-scale benches run.
/// The auditor is always compiled either way — this only picks the default.
inline constexpr bool kAuditDefaultOn =
#ifdef NDEBUG
    false;
#else
    true;
#endif

struct SimConfig {
  HybridTopology topo;
  /// Which circuit fabric carries the elephants (docs/FABRICS.md). The
  /// default — ocs:1 — is the paper's single-core OCS and runs the exact
  /// pre-fabric-seam code path bit for bit.
  FabricSpec fabric;
  /// Fault-injection plan (src/faults/fault_spec.h). The default — an empty
  /// plan — injects nothing and leaves the run bit-for-bit unchanged. A
  /// `trem-noise` clause sets the T_rem estimation error rate (Figure 7).
  FaultPlan faults;
  std::uint64_t seed = 1;
  /// Optional tracing/counters/decision-log bundle (must outlive the
  /// driver). Null — the default — records nothing and costs ~nothing.
  Observability* obs = nullptr;
  /// Wall-clock heartbeat period in seconds (--heartbeat=SECS). 0 — the
  /// default — disables it. Heartbeats report progress (sim-time reached,
  /// events processed, jobs finished, events/sec over a sliding window, RSS
  /// high-water) and never touch simulation state: a heartbeating run is
  /// bit-for-bit identical to a silent one.
  double heartbeat_sec = 0.0;
  /// Heartbeat destination; null — the default — means stderr.
  std::ostream* heartbeat_out = nullptr;
  /// Runtime invariant auditor (src/audit/): byte conservation, container
  /// ledger, OCS port exclusivity, event-queue sanity, scheduler contracts.
  /// Purely observational — audited runs are bit-for-bit identical to
  /// unaudited ones; a violation aborts with a structured dump.
  bool audit = kAuditDefaultOn;
};

class SimulationDriver : public AvailabilityOracle {
 public:
  SimulationDriver(SimConfig cfg, std::vector<JobSpec> workload,
                   std::unique_ptr<JobScheduler> scheduler);

  /// Run the whole workload to completion and collect the metrics.
  RunMetrics run();

  /// The invariant auditor, or null when cfg.audit is false. Exposed for
  /// the audit tests (checks_run, debug_inject_phantom_bits).
  [[nodiscard]] InvariantAuditor* auditor() { return audit_.get(); }
  /// Jobs the driver currently owns: arrived and not yet finished.
  [[nodiscard]] std::size_t live_jobs() const { return jobs_.size(); }
  /// Flows of live job `job` routed into a fabric and not yet drained:
  /// into `rack`, and over all racks. The driver keeps these counts for
  /// its fetch-done and coflow-done checks; the auditor recounts them.
  [[nodiscard]] std::int32_t undrained_fetches(JobId job, RackId rack) const {
    const LiveJob& live = jobs_.at(job);
    return live.undrained.empty()
               ? 0
               : live.undrained[static_cast<std::size_t>(rack.value())];
  }
  [[nodiscard]] std::int32_t undrained_fetches(JobId job) const {
    return jobs_.at(job).undrained_total;
  }

  // AvailabilityOracle: estimated delay until `count` containers are free
  // simultaneously on `rack` (free now => zero).
  Duration estimate_availability(RackId rack, std::int64_t count) override;

 private:
  struct LiveJob {
    std::unique_ptr<Job> job;
    /// Index of this job's entry in records_ (its arrival rank).
    std::size_t record_slot = 0;
    /// Shuffle bookkeeping, indexed by destination rack and sized at the
    /// first release: reduces whose demand is already in the coflow, and
    /// flows routed into a fabric that have not drained yet (plus their
    /// total), so fetch-done and coflow-done checks never scan the flows.
    std::vector<std::int32_t> demanded{};
    std::vector<std::int32_t> undrained{};
    std::int32_t undrained_total = 0;
  };

  SchedContext make_context();

  /// Drain the event queue like `sim_.run()` (`while (step()) {}`), but
  /// stepped from the driver so wall-clock instrumentation (PerfMonitor
  /// event-dispatch timing, --heartbeat progress lines) can wrap each
  /// event; neither touches simulation state, so lit and dark runs
  /// execute the identical event sequence.
  void run_event_loop();
  void emit_heartbeat();

  void on_job_arrival(std::size_t workload_index);
  void request_dispatch();
  /// One dispatch wave: offer the Cluster's free racks round-robin, pass
  /// after pass while a pass grants, ending early on a stable global
  /// decline (DESIGN.md §11); then audit (light + scheduler). Waves run
  /// only on request_dispatch(); there is no periodic re-offer.
  void dispatch();
  void start_task(Job& job, Task& task, RackId rack,
                  std::int32_t grant_class);
  /// Register the driver's gauges with cfg_.obs->counters (ctor-time).
  void register_counters();

  void on_map_complete(Job& job, Task& task);
  void on_reduce_complete(Job& job, Task& task);

  // ----- fault injection ----------------------------------------------------
  /// Per-attempt fault draws for a just-placed task: straggle factor and,
  /// when configured, a kill timer strictly inside the attempt. No-op (and
  /// draw-free) for fault families not in the plan.
  void apply_attempt_faults(Job& job, Task& task);
  /// A container-kill timer fired: free the container, roll the task back
  /// to pending (its next attempt redraws faults), and undo the placement
  /// accounting so schedulers re-grant it — including OCAS's reduce plan.
  void on_task_killed(Job& job, Task& task);
  void begin_ocs_outage(const OcsOutageFault& outage);
  void end_ocs_outage(const OcsOutageFault& outage);
  /// Shared outage epilogue: every evicted flow (whole-fabric or single
  /// plane) finishes its remaining bytes over the EPS.
  void reroute_evicted(const std::vector<Flow*>& evicted);

  /// Materialize shuffle demand for every placed-but-undemanded reduce of
  /// `job` (idempotent; requires all maps done). The single entry point
  /// for overlap-mode releases, defer-mode whole-coflow releases, and the
  /// deadlock breaker's partial releases.
  void sync_reduce_demand(Job& job);
  /// Route a new or reopened flow of `live` into the right fabric, or
  /// hand a grown one's extra demand to the fabric carrying it.
  void route_flow(LiveJob& live, Flow& flow, Coflow::DemandChange change);
  void on_flow_complete(Flow& flow);
  /// Last-resort recovery: partially release shuffles of deferred jobs that
  /// are mutually blocked on containers held by waiting reduces. Returns
  /// true if it changed anything.
  bool break_deadlock();

  void try_start_reduce_computes(Job& job, RackId rack);
  /// Complete the job (auditor, trace, scheduler), fill its JobRecord
  /// slot, then free it.
  void finish_job(Job& job);
  [[nodiscard]] JobRecord make_record(const Job& job) const;
  /// Return a finished or killed task's container: running set, cluster
  /// slot, audit ledger, completion handle.
  void release_container(Job& job, Task& task);

  SimConfig cfg_;
  std::vector<JobSpec> workload_;
  std::unique_ptr<JobScheduler> scheduler_;

  Simulator sim_;
  EpsFabric eps_;
  /// The circuit fabric (make_fabric, src/fabric/) beside the EPS.
  std::unique_ptr<Fabric> fabric_;
  /// Whole-fabric outage depth: overlapping windows compose, and the
  /// fabric is back only when every window covering `now` has ended.
  /// (Plane-scoped outages live on the fabric itself.)
  std::int32_t ocs_down_depth_ = 0;
  Cluster cluster_;
  Rng rng_;
  TremEstimator trem_;
  FaultInjector faults_;
  /// Null unless cfg.audit — every hook call is `if (audit_)`-guarded, so
  /// the unaudited hot path pays one branch per sync point.
  std::unique_ptr<InvariantAuditor> audit_;

  IdAllocator<TaskId> task_ids_;
  IdAllocator<FlowId> flow_ids_;

  /// The only owner of Job objects: live jobs, erased at completion.
  std::unordered_map<JobId, LiveJob> jobs_;
  std::vector<Job*> active_jobs_;
  /// One record per arrived job in arrival order, filled at completion.
  std::vector<JobRecord> records_;

  std::vector<std::vector<Task*>> running_by_rack_;
  /// Task-completion events that a container kill may need to cancel.
  /// Populated only when the plan has container kills, so the common path
  /// never stores handles.
  std::unordered_map<TaskId, EventHandle> completion_events_;
  std::int64_t deadlock_breaks_ = 0;

  // Wall-clock heartbeat state (cfg_.heartbeat_sec > 0 only). The sliding
  // events/sec window is the delta since the previous beat.
  std::chrono::steady_clock::time_point wall_start_{};
  std::chrono::steady_clock::time_point next_beat_{};
  std::uint64_t last_beat_events_ = 0;
  double last_beat_wall_sec_ = 0.0;

  bool dispatch_scheduled_ = false;
  std::int64_t pending_tasks_ = 0;
  std::int32_t dispatch_rotation_ = 0;
  /// Dispatch waves that actually scanned (pending work existed), exported
  /// as RunMetrics::dispatch_waves.
  std::uint64_t dispatch_waves_ = 0;
  SimTime last_completion_ = SimTime::zero();
  std::int64_t jobs_completed_ = 0;
};

}  // namespace cosched
