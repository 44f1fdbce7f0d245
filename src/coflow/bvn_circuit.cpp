#include "coflow/bvn_circuit.h"

#include <algorithm>

#include "common/check.h"

namespace cosched {

BvnCircuitScheduler::BvnCircuitScheduler(Simulator& sim, Network& net,
                                         OcsSwitch& plane)
    : sim_(sim), net_(net), ocs_(plane) {}

void BvnCircuitScheduler::submit(Coflow& coflow, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK(flow.src() != flow.dst());
  auto it = queue_.find(coflow.id());
  if (it == queue_.end()) {
    Entry entry;
    entry.coflow = &coflow;
    entry.priority_sec =
        net_.fabric().cct_lower_bound(coflow.cross_rack_matrix()).sec();
    it = queue_.emplace(coflow.id(), std::move(entry)).first;
    auto pos = std::find_if(order_.begin(), order_.end(), [&](CoflowId id) {
      const Entry& e = queue_.at(id);
      return e.priority_sec > it->second.priority_sec ||
             (e.priority_sec == it->second.priority_sec && id > coflow.id());
    });
    order_.insert(pos, coflow.id());
  }
  it->second.flows.push_back(&flow);
  maybe_start_next();
}

void BvnCircuitScheduler::demand_added(Flow& flow) {
  // Picked up when the remaining-demand matrix is rebuilt at the next slot
  // boundary; nothing to do mid-slot.
  (void)flow;
}

std::size_t BvnCircuitScheduler::pending_flows() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : queue_) {
    for (const Flow* f : entry.flows) {
      if (!f->completed()) ++n;
    }
  }
  return n;
}

void BvnCircuitScheduler::maybe_start_next() {
  // Defer the head-of-queue selection to a zero-delay event so every
  // coflow submitted at this instant participates in the priority order.
  if (active_.valid() || order_.empty() || start_scheduled_) return;
  start_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    start_scheduled_ = false;
    if (active_.valid() || order_.empty()) return;
    active_ = order_.front();
    if (!slot_running_) run_next_slot();
  });
}

void BvnCircuitScheduler::run_next_slot() {
  COSCHED_CHECK(active_.valid());
  Entry& entry = queue_.at(active_);

  // Remaining-demand matrix.
  TrafficMatrix remaining;
  std::map<std::pair<RackId, RackId>, Flow*> by_pair;
  for (Flow* f : entry.flows) {
    if (f->completed() || f->remaining_bits() <= 1.0) continue;
    remaining.add(f->src(), f->dst(), f->remaining());
    by_pair[{f->src(), f->dst()}] = f;
  }

  if (remaining.empty()) {
    // Coflow drained: retire it and move on.
    for (Flow* f : entry.flows) {
      if (!f->completed()) {
        f->mark_completed(sim_.now());
        notify_flow_complete(*f);
      }
    }
    order_.erase(std::remove(order_.begin(), order_.end(), active_),
                 order_.end());
    queue_.erase(active_);
    active_ = CoflowId::invalid();
    maybe_start_next();
    return;
  }

  const ClearanceSchedule schedule =
      bvn_clearance(remaining, ocs_.link_rate());
  COSCHED_CHECK(!schedule.slots.empty());
  const ClearanceSlot& slot = schedule.slots.front();

  slot_flows_.clear();
  slot_duration_ = slot.duration;
  circuits_ready_ = 0;
  slot_running_ = true;
  ++slots_executed_;
  for (const auto& [src, dst] : slot.circuits) {
    Flow* f = by_pair.at({src, dst});
    slot_flows_.push_back(f);
    f->mark_started(sim_.now());
    f->set_rate(ocs_.link_rate());
    ocs_.setup_circuit(src, dst, [this] { on_circuit_up(); });
  }
}

void BvnCircuitScheduler::on_circuit_up() {
  ++circuits_ready_;
  if (circuits_ready_ < slot_flows_.size()) return;
  // All circuits of the slot are up: transfer for the slot duration.
  sim_.schedule_after(slot_duration_, [this] { finish_slot(); });
}

void BvnCircuitScheduler::finish_slot() {
  COSCHED_CHECK(slot_running_);
  Entry& entry = queue_.at(active_);
  (void)entry;
  for (Flow* f : slot_flows_) {
    const double moved = f->settle(slot_duration_);
    net_.note_ocs_bytes(
        DataSize::bytes(static_cast<std::int64_t>(moved / 8.0)));
    ocs_.teardown_circuit(f->src(), f->dst());
    if (f->remaining_bits() <= 1.0) {
      f->mark_completed(sim_.now());
      notify_flow_complete(*f);
    }
  }
  slot_flows_.clear();
  slot_running_ = false;
  run_next_slot();
}

}  // namespace cosched
