// FIFO circuit scheduler — the "no coflow awareness" strawman.
//
// Flows are served in submission order: whenever ports free up, the oldest
// pending flow whose source output port and destination input port are both
// free gets a circuit, regardless of which coflow it belongs to. This is
// what a plain circuit-switch arbiter would do; comparing it against
// Sunflow isolates the value of shortest-coflow-first ordering (the
// ablation bench bench_micro_circuit).
#pragma once

#include <deque>
#include <map>

#include "coflow/circuit_scheduler.h"
#include "net/network.h"
#include "simcore/simulator.h"

namespace cosched {

class FifoCircuitScheduler : public CircuitScheduler {
 public:
  /// Circuits are set up on `plane`, one of `net`'s fabric planes (the
  /// paper's single OCS is `*net.fabric().plane(0)`).
  FifoCircuitScheduler(Simulator& sim, Network& net, OcsSwitch& plane);

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::size_t pending_flows() const override {
    return pending_.size();
  }

 private:
  struct ActiveTransfer {
    Flow* flow;
    bool transferring = false;
    SimTime last_update = SimTime::zero();
  };

  void request_allocation_pass();
  void allocation_pass();
  void start_transfer(FlowId id);
  void on_transfer_complete(FlowId id);

  Simulator& sim_;
  Network& net_;
  OcsSwitch& ocs_;
  std::deque<Flow*> pending_;  // FIFO order
  std::map<FlowId, ActiveTransfer> active_;
  bool pass_scheduled_ = false;
};

}  // namespace cosched
