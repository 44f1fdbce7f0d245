#include "coflow/fifo_circuit.h"

#include "common/check.h"

namespace cosched {

FifoCircuitScheduler::FifoCircuitScheduler(Simulator& sim, Network& net,
                                           OcsSwitch& plane)
    : sim_(sim), net_(net), ocs_(plane) {}

void FifoCircuitScheduler::submit(Coflow& coflow, Flow& flow) {
  (void)coflow;
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK(flow.src() != flow.dst());
  pending_.push_back(&flow);
  request_allocation_pass();
}

void FifoCircuitScheduler::demand_added(Flow& flow) {
  auto it = active_.find(flow.id());
  if (it == active_.end() || !it->second.transferring) return;
  flow.settle(sim_.now() - it->second.last_update);
  it->second.last_update = sim_.now();
  flow.completion_event().cancel();
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / ocs_.link_rate().in_bits_per_sec());
  FlowId id = flow.id();
  flow.completion_event() =
      sim_.schedule_after(eta, [this, id] { on_transfer_complete(id); });
}

void FifoCircuitScheduler::request_allocation_pass() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    pass_scheduled_ = false;
    allocation_pass();
  });
}

void FifoCircuitScheduler::allocation_pass() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    Flow* flow = *it;
    if (ocs_.out_port_free(flow->src()) && ocs_.in_port_free(flow->dst())) {
      it = pending_.erase(it);
      active_.emplace(flow->id(), ActiveTransfer{flow, false, sim_.now()});
      FlowId id = flow->id();
      ocs_.setup_circuit(flow->src(), flow->dst(),
                         [this, id] { start_transfer(id); });
    } else {
      ++it;
    }
  }
}

void FifoCircuitScheduler::start_transfer(FlowId id) {
  auto it = active_.find(id);
  COSCHED_CHECK(it != active_.end());
  Flow& flow = *it->second.flow;
  it->second.transferring = true;
  it->second.last_update = sim_.now();
  flow.mark_started(sim_.now());
  flow.set_rate(ocs_.link_rate());
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / ocs_.link_rate().in_bits_per_sec());
  flow.completion_event() =
      sim_.schedule_after(eta, [this, id] { on_transfer_complete(id); });
}

void FifoCircuitScheduler::on_transfer_complete(FlowId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Flow& flow = *it->second.flow;
  ocs_.teardown_circuit(flow.src(), flow.dst());
  net_.note_ocs_bytes(flow.size());
  flow.mark_completed(sim_.now());
  active_.erase(it);
  notify_flow_complete(flow);
  request_allocation_pass();
}

}  // namespace cosched
