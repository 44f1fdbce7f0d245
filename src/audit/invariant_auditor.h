// InvariantAuditor: a passive runtime checker the driver reports into at
// well-defined sync points. It re-derives the bookkeeping the simulation
// depends on — byte ledgers, container ledgers, circuit-fabric state,
// event-queue shape, scheduler contracts — from an independent shadow copy
// and aborts with a structured dump on the first divergence.
//
// Design constraints (see DESIGN.md §8):
//   * Strictly passive: the auditor never schedules events, never draws
//     from any RNG, and never mutates model state. An audited run is
//     bit-for-bit identical to an unaudited one; only the failure mode
//     changes (structured AuditFailure instead of silent corruption).
//   * Always compiled, flag-enabled: SimConfig::audit (default on in Debug
//     builds, off in Release; benches expose --audit / --no-audit).
//   * Cheap checks (one rack's slot ledger) run at every grant/release;
//     O(racks) sweeps run at dispatch boundaries and outage edges; O(flows)
//     conservation sweeps run at job completion and end of run.
//
// Checked invariants and their sync points:
//   1. Byte conservation — for every flow, bits injected (its cumulative
//      size, synced at route_flow) equal bits drained through EPS + local +
//      OCS accounting plus bits still in flight, up to the documented
//      sub-residual completion slack. Checked per job at finish (all of the
//      job's flows complete with zero remainder) and globally at job
//      finish, outage edges, and end of run.
//   2. Container ledger — per rack, auditor-counted grants == cluster
//      used_slots and granted + free == capacity; a task never runs
//      without a grant and never holds two. Checked at every grant,
//      release, and kill, plus full sweeps with check_light(). The
//      Cluster's free-rack bitset, which dispatch walks, is flipped by
//      the same allocate/release calls that move these counts; it has no
//      second copy to compare against.
//   3. Fabric coherence — for every fabric, no circuit activity (circuits,
//      transfers, or queued flows) inside a whole-fabric outage window,
//      plus the fabric's own Fabric::self_check() invariants at every light
//      check. For ocs:K that is port exclusivity: per plane, at most one
//      transfer per ingress/egress port, the port holder index matching
//      the transfers, and no activity on a downed plane.
//   4. Event-queue sanity — live-entry count matches the queue's ledger,
//      no live event is scheduled before `now`, and compaction never drops
//      a live handle (Simulator::queue_consistent()).
//   5. Scheduler contracts — PSRT's installed reduce plan sums to the
//      job's reduce count; every OCAS grant satisfies the predicate of the
//      priority class it was logged under (class 1 grants have remaining
//      plan capacity on the rack, class 2 grants are guideline-local maps,
//      and so on).
//   6. Scheduler cache coherence — an incremental scheduler engine's
//      cached state (candidate lists, fair-share counters, retired-job
//      bookkeeping) re-derived from first principles via
//      JobScheduler::audit_invariants at dispatch boundaries; any
//      divergence between cache and recompute aborts.
//   7. CCT lower bound — a completed coflow whose every cross-rack flow
//      drained on the circuit fabric (same-rack flows are exempt: they
//      never enter the cross-rack matrix the bound is computed over) must
//      take at least the fabric's own
//      Fabric::cct_lower_bound over its final traffic matrix (each fabric
//      documents its model in docs/FABRICS.md). Checked at job finish;
//      disabled by the driver when reconfiguration jitter is injected
//      (jittered setups can undercut the base delay the bound charges),
//      and skipped for coflows reopened after completion (a killed
//      reduce's re-fetch lands outside the measured CCT window).
//   8. Job ownership — the driver owns exactly as many jobs as are
//      active: every finished job has been freed. Checked with the heavy
//      pass once the driver arms it (watch_jobs).
//   9. Fetch counts — the driver's count of undrained flows per (job,
//      destination rack) and per job, which its fetch-done and coflow-done
//      checks read instead of scanning the coflow, equals a recount of the
//      job's incomplete flows. Checked with the heavy pass once the driver
//      arms it (watch_fetches).
//
// Finished jobs are freed by the driver, so on_job_finished drops the
// job's flows from the byte ledger once it has checked them drained: the
// conservation sweep walks live flows only (a drained flow's remainder is
// exactly zero, so the sum is unchanged).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/job.h"
#include "common/check.h"
#include "net/eps_fabric.h"
#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched {

class JobScheduler;

/// Thrown on the first invariant violation. Subclasses CheckFailure so
/// existing CheckFailure handlers (tests, bench guards) also catch audit
/// aborts; what() carries the structured dump.
class AuditFailure : public CheckFailure {
 public:
  explicit AuditFailure(const std::string& what) : CheckFailure(what) {}
};

class InvariantAuditor {
 public:
  InvariantAuditor(const Simulator& sim, const EpsFabric& eps,
                   const Cluster& cluster, const Fabric& fabric,
                   const HybridTopology& topo);

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  // ----- driver sync points ------------------------------------------------
  /// A container was granted (task already placed, before the job's
  /// per-rack placement counters advance — so plan capacity is still
  /// visible for the class-1 check). `grant_class` is the OCAS priority
  /// class from TaskChoice (-1 for schedulers without classes).
  void on_container_grant(const Job& job, const Task& task, RackId rack,
                          std::int32_t grant_class);
  /// A container was returned — task completion or kill rollback.
  void on_container_release(const Job& job, const Task& task, RackId rack);
  /// The scheduler finished its PSRT+SBS pass for `job` (plan installed or
  /// deliberately absent).
  void on_reduce_plan(const Job& job);
  /// A flow was created, grew, or reopened in route_flow — the single
  /// entry point where demand reaches a fabric. Syncs the flow's size into
  /// the injected ledger.
  void on_flow_routed(const Job& job, const Flow& flow);
  /// A flow drained (driver-level completion callback).
  void on_flow_completed(const Flow& flow);
  /// A whole-fabric outage window opened (called after eviction) / closed.
  /// Plane-targeted outages use check_light() instead — the surviving
  /// planes keep transferring, so there is no quiet window to enforce.
  void on_outage_begin();
  void on_outage_end();
  /// A job completed: per-job conservation, the CCT-lower-bound check for
  /// pure-OCS coflows, plus a global heavy check. The job's ledger entries
  /// are dropped after the per-job checks — the driver frees it next.
  void on_job_finished(const Job& job);
  /// Arm invariant 8: `owned_jobs` reports how many jobs the driver owns,
  /// `active_jobs` is its active set (must outlive the auditor).
  void watch_jobs(std::function<std::size_t()> owned_jobs,
                  const std::vector<Job*>& active_jobs) {
    owned_jobs_ = std::move(owned_jobs);
    active_jobs_ = &active_jobs;
  }

  /// Arm invariant 9 over the active set given to watch_jobs:
  /// `undrained(job, rack)` and `undrained_total(job)` report the driver's
  /// counts of `job`'s undrained flows into `rack` and over all racks.
  void watch_fetches(std::function<std::int32_t(JobId, RackId)> undrained,
                     std::function<std::int32_t(JobId)> undrained_total) {
    undrained_ = std::move(undrained);
    undrained_total_ = std::move(undrained_total);
  }

  /// Arm or disarm invariant 7 (default off — the driver arms it unless
  /// the run injects reconfiguration jitter, whose per-setup draws can go
  /// below the base delay the bound assumes).
  void set_cct_bound_check(bool enabled) { check_cct_bound_ = enabled; }

  // ----- check passes ------------------------------------------------------
  /// O(racks) sweep: container ledger, outage quiet-window, fabric
  /// self_check (per-plane port exclusivity on ocs:K).
  /// Called at dispatch boundaries and outage edges.
  void check_light();
  /// check_light plus byte conservation over every tracked flow, the
  /// event-queue consistency scan, and job ownership and fetch counts when
  /// armed.
  void check_heavy();
  /// Scheduler cache coherence: ask `sched` to re-derive its incremental
  /// caches from `active_jobs` and compare (JobScheduler::audit_invariants).
  /// A no-op for reference engines, which return an empty report.
  void check_scheduler(const JobScheduler& sched,
                       const std::vector<Job*>& active_jobs);
  /// End-of-run: heavy check plus emptiness — no granted containers, no
  /// incomplete tracked flow, no un-drained bits.
  void final_check();

  // ----- test hooks --------------------------------------------------------
  /// Corrupt the injected-bytes ledger by `bits` without moving any real
  /// bytes, so tests can prove a broken ledger is caught (the acceptance
  /// criterion's "intentionally broken byte-ledger" hook).
  void debug_inject_phantom_bits(double bits) { phantom_bits_ += bits; }

  [[nodiscard]] std::int64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }

 private:
  struct FlowLedger {
    const Flow* flow = nullptr;
    JobId job = JobId::invalid();
    /// Cumulative demand routed into a fabric for this flow, in bits.
    double injected_bits = 0.0;
  };

  [[noreturn]] void fail(const std::string& check,
                         const std::string& detail) const;
  void check_rack_ledger(RackId rack) const;
  void check_outage_quiet() const;
  void check_conservation() const;
  void check_job_ownership() const;
  void check_fetch_counts() const;

  const Simulator& sim_;
  const EpsFabric& eps_;
  const Cluster& cluster_;
  const Fabric& fabric_;
  const HybridTopology& topo_;

  // Shadow container ledger.
  std::vector<std::int64_t> granted_;
  std::unordered_map<TaskId, RackId> running_tasks_;

  // Shadow byte ledger.
  std::unordered_map<FlowId, FlowLedger> flows_;
  std::unordered_map<JobId, double> job_injected_bits_;
  double injected_bits_ = 0.0;
  double phantom_bits_ = 0.0;
  std::int64_t completed_flow_events_ = 0;

  std::int32_t outage_depth_ = 0;
  std::int64_t checks_run_ = 0;
  bool check_cct_bound_ = false;
  /// Jobs whose coflow was reopened after completing — a killed reduce's
  /// re-placement re-fetches map output after the measured CCT window
  /// closed, so the final matrix holds more work than the window carried
  /// and the lower-bound comparison (invariant 7) is no longer meaningful.
  std::unordered_set<JobId> reopened_after_complete_;

  std::function<std::size_t()> owned_jobs_;
  const std::vector<Job*>* active_jobs_ = nullptr;
  std::function<std::int32_t(JobId, RackId)> undrained_;
  std::function<std::int32_t(JobId)> undrained_total_;
};

}  // namespace cosched
