// BvN/TMS circuit scheduler: serve one coflow at a time, shortest lower
// bound first, clearing its traffic matrix with the Inukai/Birkhoff–von-
// Neumann decomposition (src/coflow/bvn_clearance.h).
//
// Each slot configures a set of port-disjoint circuits, transfers for the
// slot duration, then reconfigures — the classical traffic-matrix-
// scheduling discipline (all-stop between slots, one reconfiguration delay
// per slot). Within a coflow this meets the bandwidth term of T(C)
// exactly and usually pays fewer reconfigurations than per-flow schedules;
// across coflows it forgoes Sunflow's work conservation (ports the active
// coflow does not use stay idle). The ablation bench (bench_micro_circuit)
// quantifies both effects.
//
// The remaining schedule is recomputed from the surviving demand after
// every slot, so demand added mid-coflow is picked up at the next slot
// boundary.
#pragma once

#include <map>
#include <vector>

#include "coflow/bvn_clearance.h"
#include "coflow/circuit_scheduler.h"
#include "net/network.h"
#include "simcore/simulator.h"

namespace cosched {

class BvnCircuitScheduler : public CircuitScheduler {
 public:
  /// Circuits are set up on `plane`, one of `net`'s fabric planes (the
  /// paper's single OCS is `*net.fabric().plane(0)`).
  BvnCircuitScheduler(Simulator& sim, Network& net, OcsSwitch& plane);

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::size_t pending_flows() const override;

  /// Total slots executed (diagnostics).
  [[nodiscard]] std::int64_t slots_executed() const {
    return slots_executed_;
  }

 private:
  struct Entry {
    Coflow* coflow;
    double priority_sec;
    std::vector<Flow*> flows;
  };

  void maybe_start_next();
  void run_next_slot();
  void on_circuit_up();
  void finish_slot();

  Simulator& sim_;
  Network& net_;
  OcsSwitch& ocs_;
  std::map<CoflowId, Entry> queue_;
  std::vector<CoflowId> order_;
  CoflowId active_ = CoflowId::invalid();
  // Current slot state.
  std::vector<Flow*> slot_flows_;
  Duration slot_duration_ = Duration::zero();
  std::size_t circuits_ready_ = 0;
  bool slot_running_ = false;
  bool start_scheduled_ = false;
  std::int64_t slots_executed_ = 0;
};

}  // namespace cosched
