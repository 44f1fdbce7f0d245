#include "audit/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "sched/scheduler.h"

namespace cosched {

namespace {

// Conservation slack per completed-flow event. Completion drops an
// unaccounted residue of at most kResidualBits (1e-3) plus up to one
// nanosecond of drain at the fastest link (100 Gb/s -> 100 bits); 1 KiBit
// per completion bounds both with two orders of margin while staying far
// below any real bookkeeping bug (flows are megabytes and up).
constexpr double kSlackBitsPerCompletion = 1024.0;

// Relative floating-point slack on the whole ledger (double accumulators;
// actual rounding error is ~1e-13 relative even over millions of settles).
constexpr double kRelativeSlack = 1e-9;

}  // namespace

InvariantAuditor::InvariantAuditor(const Simulator& sim, const EpsFabric& eps,
                                   const Cluster& cluster, const Fabric& fabric,
                                   const HybridTopology& topo)
    : sim_(sim), eps_(eps), cluster_(cluster), fabric_(fabric), topo_(topo) {
  granted_.assign(static_cast<std::size_t>(topo_.num_racks), 0);
}

void InvariantAuditor::fail(const std::string& check,
                            const std::string& detail) const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "=== INVARIANT AUDIT FAILURE ===\n";
  os << "check: " << check << "\n";
  os << "sim time: " << sim_.now() << "\n";
  os << detail << "\n";
  os << "--- container ledger (granted/free/capacity per rack) ---\n";
  std::int64_t total_granted = 0;
  std::int32_t dumped = 0;
  for (std::int32_t r = 0; r < topo_.num_racks; ++r) {
    const std::int64_t g = granted_[static_cast<std::size_t>(r)];
    total_granted += g;
    const std::int64_t free = cluster_.free_slots(RackId{r});
    const bool mismatch =
        g != cluster_.used_slots(RackId{r}) || g + free != topo_.slots_per_rack();
    if ((g != 0 || mismatch) && dumped < 32) {
      os << "rack " << r << ": " << g << "/" << free << "/"
         << topo_.slots_per_rack() << (mismatch ? "  <-- MISMATCH" : "")
         << "\n";
      ++dumped;
    }
  }
  os << "total granted: " << total_granted
     << ", cluster free: " << cluster_.total_free_slots()
     << ", capacity: " << topo_.total_slots() << "\n";
  os << "--- byte ledger (bits) ---\n";
  double in_flight = 0.0;
  std::size_t incomplete = 0;
  for (const auto& [id, ledger] : flows_) {
    in_flight += eps_.remaining_bits(*ledger.flow);
    if (!ledger.flow->completed()) ++incomplete;
  }
  os << "injected: " << injected_bits_ << " (phantom: " << phantom_bits_
     << ")\n";
  os << "drained: eps=" << eps_.eps_bits()
     << " local=" << eps_.local_bits()
     << " ocs=" << fabric_.bits_transferred() << "\n";
  os << "in-flight (tracked remainder): " << in_flight << "\n";
  os << "uncredited fabric settle: " << fabric_.uncredited_settled_bits()
     << "\n";
  os << "tracked flows: " << flows_.size() << " (" << incomplete
     << " incomplete, " << completed_flow_events_ << " completion events)\n";
  os << "running tasks: " << running_tasks_.size()
     << ", outage depth: " << outage_depth_ << "\n";
  os << "===";
  throw AuditFailure(os.str());
}

void InvariantAuditor::check_rack_ledger(RackId rack) const {
  const auto r = static_cast<std::size_t>(rack.value());
  const std::int64_t g = granted_[r];
  const std::int64_t used = cluster_.used_slots(rack);
  const std::int64_t free = cluster_.free_slots(rack);
  if (g < 0 || g > topo_.slots_per_rack() || g != used ||
      g + free != topo_.slots_per_rack()) {
    std::ostringstream os;
    os << "rack " << rack << ": audited grants " << g << ", cluster used "
       << used << ", free " << free << ", capacity " << topo_.slots_per_rack();
    fail("container-ledger", os.str());
  }
}

void InvariantAuditor::on_container_grant(const Job& job, const Task& task,
                                          RackId rack,
                                          std::int32_t grant_class) {
  ++granted_[static_cast<std::size_t>(rack.value())];
  const auto [it, inserted] = running_tasks_.emplace(task.id(), rack);
  if (!inserted) {
    std::ostringstream os;
    os << "job " << job.id() << " task " << task.id() << " granted on " << rack
       << " while already holding a container on " << it->second;
    fail("container-ledger", os.str());
  }
  check_rack_ledger(rack);

  const bool is_map = task.kind() == TaskKind::kMap;
  bool ok = true;
  switch (grant_class) {
    case -1:
      break;  // scheduler without OCAS classes
    case 1:
      ok = !is_map && job.shuffle_heavy() && job.has_reduce_plan() &&
           job.reduce_plan_remaining(rack) > 0;
      break;
    case 2:
      ok = is_map && job.shuffle_heavy() && job.r_map_guideline() > 0 &&
           job.in_map_guideline(rack);
      break;
    case 3:
      ok = !is_map && !job.shuffle_heavy();
      break;
    case 4:
      ok = is_map && !job.shuffle_heavy();
      break;
    case 5:
      ok = !is_map && job.shuffle_heavy() && !job.has_reduce_plan();
      break;
    case 6:
      ok = is_map;
      break;
    default:
      ok = false;
      break;
  }
  if (!ok) {
    std::ostringstream os;
    os << "job " << job.id() << " task " << task.id() << " ("
       << (is_map ? "map" : "reduce") << ") granted on " << rack
       << " under OCAS class " << grant_class
       << " whose predicate does not hold (shuffle_heavy="
       << job.shuffle_heavy() << ", has_plan=" << job.has_reduce_plan()
       << ", plan_remaining=" << job.reduce_plan_remaining(rack)
       << ", in_guideline=" << job.in_map_guideline(rack) << ")";
    fail("ocas-grant-contract", os.str());
  }
}

void InvariantAuditor::on_container_release(const Job& job, const Task& task,
                                            RackId rack) {
  auto it = running_tasks_.find(task.id());
  if (it == running_tasks_.end() || it->second != rack) {
    std::ostringstream os;
    os << "job " << job.id() << " task " << task.id() << " released a container"
       << " on " << rack << " it was never granted"
       << (it != running_tasks_.end() ? " (granted on a different rack)" : "");
    fail("container-ledger", os.str());
  }
  running_tasks_.erase(it);
  --granted_[static_cast<std::size_t>(rack.value())];
  check_rack_ledger(rack);
}

void InvariantAuditor::on_reduce_plan(const Job& job) {
  if (!job.has_reduce_plan()) return;
  std::int64_t sum = 0;
  for (const auto& [rack, count] : job.reduce_plan()) {
    if (count <= 0 || rack.value() < 0 || rack.value() >= topo_.num_racks) {
      std::ostringstream os;
      os << "job " << job.id() << " plan entry " << rack << " -> " << count;
      fail("psrt-plan-contract", os.str());
    }
    sum += count;
  }
  if (sum != job.spec().num_reduces) {
    std::ostringstream os;
    os << "job " << job.id() << " reduce plan sums to " << sum << " over "
       << job.reduce_plan().size() << " racks; job has "
       << job.spec().num_reduces << " reduces";
    fail("psrt-plan-contract", os.str());
  }
}

void InvariantAuditor::on_flow_routed(const Job& job, const Flow& flow) {
  if (flow.path() == FlowPath::kPending) {
    std::ostringstream os;
    os << "flow " << flow.id() << " reached a fabric without a path";
    fail("flow-routing", os.str());
  }
  if (outage_depth_ > 0 && flow.path() == FlowPath::kOcs) {
    std::ostringstream os;
    os << "flow " << flow.id() << " routed to the OCS inside an outage window";
    fail("ocs-outage-quiet", os.str());
  }
  if (job.coflow().completed()) {
    // New demand reaching a fabric after the coflow already completed: a
    // killed reduce's re-placement re-fetching map output. The coflow's
    // measured CCT window is closed, so its final matrix now carries more
    // work than the window did — invariant 7 must skip this job.
    reopened_after_complete_.insert(job.id());
  }
  FlowLedger& ledger = flows_[flow.id()];
  ledger.flow = &flow;
  ledger.job = job.id();
  const double target = static_cast<double>(flow.size().in_bytes()) * 8.0;
  const double delta = target - ledger.injected_bits;
  if (delta < 0.0) {
    std::ostringstream os;
    os << "flow " << flow.id() << " size shrank: previously injected "
       << ledger.injected_bits << " bits, now " << target;
    fail("byte-conservation", os.str());
  }
  ledger.injected_bits = target;
  injected_bits_ += delta;
  job_injected_bits_[job.id()] += delta;
}

void InvariantAuditor::on_flow_completed(const Flow& flow) {
  ++completed_flow_events_;
  auto it = flows_.find(flow.id());
  if (it == flows_.end()) {
    std::ostringstream os;
    os << "flow " << flow.id() << " completed without ever being routed";
    fail("flow-routing", os.str());
  }
  if (!flow.completed() || flow.remaining_bits() != 0.0) {
    std::ostringstream os;
    os << "flow " << flow.id() << " reported complete with "
       << flow.remaining_bits() << " bits remaining (completed="
       << flow.completed() << ")";
    fail("byte-conservation", os.str());
  }
  if (outage_depth_ > 0 && flow.path() == FlowPath::kOcs) {
    std::ostringstream os;
    os << "flow " << flow.id()
       << " drained over the OCS inside an outage window";
    fail("ocs-outage-quiet", os.str());
  }
}

void InvariantAuditor::on_outage_begin() {
  ++outage_depth_;
  check_light();
}

void InvariantAuditor::on_outage_end() {
  if (outage_depth_ <= 0) {
    fail("ocs-outage-quiet", "outage ended that never began");
  }
  --outage_depth_;
  check_light();
}

void InvariantAuditor::on_job_finished(const Job& job) {
  double flow_bits = 0.0;
  for (const auto& f : job.coflow().flows()) {
    if (!f->completed() || f->remaining_bits() != 0.0) {
      std::ostringstream os;
      os << "job " << job.id() << " finished with flow " << f->id()
         << " incomplete (" << f->remaining_bits() << " bits remaining)";
      fail("byte-conservation", os.str());
    }
    flow_bits += static_cast<double>(f->size().in_bytes()) * 8.0;
  }
  // Every bit of shuffle demand the job ever grew must have passed through
  // route_flow; the per-job injected ledger is synced there, so the two
  // views must agree exactly (both are sums of the same integral sizes).
  auto it = job_injected_bits_.find(job.id());
  const double injected = it != job_injected_bits_.end() ? it->second : 0.0;
  if (injected != flow_bits) {
    std::ostringstream os;
    os << "job " << job.id() << " coflow totals " << flow_bits
       << " bits but only " << injected << " bits were routed";
    fail("byte-conservation", os.str());
  }
  // Invariant 7: a coflow that rode the circuit fabric end to end cannot
  // beat the fabric's own lower bound over its final traffic matrix. Flows
  // that ever fell back to the EPS (outage eviction, overlap-mode mice)
  // void the premise (Coflow::rode_circuits_only).
  if (check_cct_bound_ && job.has_shuffle() && job.coflow().completed() &&
      reopened_after_complete_.count(job.id()) == 0 &&
      job.coflow().rode_circuits_only()) {
    const Duration bound =
        fabric_.cct_lower_bound(job.coflow().cross_rack_matrix());
    // Tolerance covers sub-nanosecond completion rounding (the same
    // slack the property suite grants).
    if (job.coflow().cct().sec() < bound.sec() - 1e-6) {
      std::ostringstream os;
      os << "job " << job.id() << " coflow finished in "
         << job.coflow().cct() << " but " << fabric_.name()
         << " lower-bounds it at " << bound;
      os << "\n  release=" << job.coflow().release_time()
         << " completion=" << job.coflow().completion_time();
      for (const auto& f : job.coflow().flows()) {
        os << "\n  flow " << f->id() << " " << f->src() << "->" << f->dst()
           << " size=" << f->size() << " path=" << to_string(f->path())
           << " start=" << f->start_time()
           << " done=" << f->completion_time();
      }
      fail("cct-lower-bound", os.str());
    }
  }
  for (const auto& f : job.coflow().flows()) flows_.erase(f->id());
  job_injected_bits_.erase(job.id());
  reopened_after_complete_.erase(job.id());
  check_heavy();
}

void InvariantAuditor::check_outage_quiet() const {
  if (outage_depth_ == 0) return;
  if (fabric_.active_circuits() != 0 || fabric_.active_transfers() != 0 ||
      fabric_.pending_flows() != 0) {
    std::ostringstream os;
    os << "circuit activity inside an outage window: "
       << fabric_.active_circuits() << " circuits, "
       << fabric_.active_transfers() << " transfers, "
       << fabric_.pending_flows() << " queued";
    fail("ocs-outage-quiet", os.str());
  }
}

void InvariantAuditor::check_conservation() const {
  const double drained = eps_.eps_bits() + eps_.local_bits() +
                         fabric_.bits_transferred();
  double in_flight = 0.0;
  for (const auto& [id, ledger] : flows_) {
    in_flight += eps_.remaining_bits(*ledger.flow);
  }
  const double actual =
      drained + in_flight + fabric_.uncredited_settled_bits();
  const double expected = injected_bits_ + phantom_bits_;
  const double tolerance =
      kRelativeSlack * std::max(expected, 1.0) +
      kSlackBitsPerCompletion *
          static_cast<double>(completed_flow_events_ + 1);
  if (std::abs(expected - actual) > tolerance) {
    std::ostringstream os;
    os << std::setprecision(17);
    os << "injected " << expected << " bits != drained " << drained
       << " + in-flight " << in_flight << " + uncredited "
       << fabric_.uncredited_settled_bits() << " = " << actual
       << " (delta " << expected - actual << ", tolerance " << tolerance
       << ")";
    fail("byte-conservation", os.str());
  }
}

void InvariantAuditor::check_job_ownership() const {
  const std::size_t owned = owned_jobs_();
  if (owned != active_jobs_->size()) {
    std::ostringstream os;
    os << "driver owns " << owned << " jobs but " << active_jobs_->size()
       << " are active";
    fail("job-ownership", os.str());
  }
}

void InvariantAuditor::check_fetch_counts() const {
  std::vector<std::int32_t> recount(static_cast<std::size_t>(topo_.num_racks));
  for (const Job* job : *active_jobs_) {
    std::fill(recount.begin(), recount.end(), 0);
    std::int32_t total = 0;
    for (const auto& f : job->coflow().flows()) {
      if (f->completed()) continue;
      ++recount[static_cast<std::size_t>(f->dst().value())];
      ++total;
    }
    for (std::int32_t r = 0; r < topo_.num_racks; ++r) {
      const std::int32_t counted = undrained_(job->id(), RackId{r});
      if (counted != recount[static_cast<std::size_t>(r)]) {
        std::ostringstream os;
        os << "job " << job->id() << " counts " << counted
           << " undrained flows into rack " << r << " but has "
           << recount[static_cast<std::size_t>(r)];
        fail("fetch-counts", os.str());
      }
    }
    if (const std::int32_t counted = undrained_total_(job->id());
        counted != total) {
      std::ostringstream os;
      os << "job " << job->id() << " counts " << counted
         << " undrained flows in total but has " << total;
      fail("fetch-counts", os.str());
    }
  }
}

void InvariantAuditor::check_light() {
  ++checks_run_;
  for (std::int32_t r = 0; r < topo_.num_racks; ++r) {
    check_rack_ledger(RackId{r});
  }
  check_outage_quiet();
  if (const std::string report = fabric_.self_check(); !report.empty()) {
    fail("fabric-self-check", report);
  }
}

void InvariantAuditor::check_heavy() {
  check_light();
  check_conservation();
  if (active_jobs_ != nullptr) {
    check_job_ownership();
    if (undrained_) check_fetch_counts();
  }
  if (!sim_.queue_consistent()) {
    fail("event-queue",
         "queue inconsistent: live-entry count diverged from the ledger, or "
         "a live event is scheduled before now");
  }
}

void InvariantAuditor::check_scheduler(const JobScheduler& sched,
                                       const std::vector<Job*>& active_jobs) {
  ++checks_run_;
  const std::string report = sched.audit_invariants(active_jobs);
  if (!report.empty()) fail("sched-state-coherence", report);
}

void InvariantAuditor::final_check() {
  check_heavy();
  if (!running_tasks_.empty()) {
    std::ostringstream os;
    os << running_tasks_.size() << " tasks still hold containers at end of run";
    fail("container-ledger", os.str());
  }
  for (const auto& [id, ledger] : flows_) {
    if (!ledger.flow->completed() || ledger.flow->remaining_bits() != 0.0) {
      std::ostringstream os;
      os << "flow " << id << " (job " << ledger.job
         << ") never drained: " << ledger.flow->remaining_bits()
         << " bits remaining";
      fail("byte-conservation", os.str());
    }
  }
  if (fabric_.active_transfers() != 0 || fabric_.pending_flows() != 0 ||
      eps_.active_flows() != 0) {
    std::ostringstream os;
    os << "fabrics not empty at end of run: " << fabric_.active_transfers()
       << " circuit transfers, " << fabric_.pending_flows() << " queued, "
       << eps_.active_flows() << " EPS flows";
    fail("byte-conservation", os.str());
  }
}

}  // namespace cosched
