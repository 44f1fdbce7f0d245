// The full-pass Sunflow reference that OcsFabric's incremental allocation
// pass is proved against.
//
// ReferenceOcsFabric is OcsFabric as it was before the allocation pass
// became incremental: every pass rebuilds the plane-wide port reservations
// from scratch, walks every active coflow in priority order, and for each
// available plane scans the coflow's whole pending list, sorts it by rack
// pair, matches the eligible flows, and erases each matched flow one at a
// time. Its circuit decisions (the kCircuitSetup events: time, job, flow,
// rack pair, bytes, coflow priority), eviction lists, and completions are
// the specification; tests/test_sunflow_equivalence.cpp compares the
// production fabric with it bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched::oracle {

class ReferenceOcsFabric final : public Fabric {
 public:
  ReferenceOcsFabric(Simulator& sim, const HybridTopology& topo,
                     std::int32_t planes);

  [[nodiscard]] std::string name() const override {
    return "ocs:" + std::to_string(num_planes());
  }

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::vector<Flow*> evict_all() override;
  [[nodiscard]] Duration cct_lower_bound(
      const TrafficMatrix& matrix) const override;

  [[nodiscard]] std::int32_t num_planes() const override {
    return static_cast<std::int32_t>(ports_.size());
  }
  [[nodiscard]] bool plane_available(std::int32_t i) const {
    return down_[static_cast<std::size_t>(i)] == 0;
  }
  [[nodiscard]] std::vector<Flow*> begin_plane_outage(
      std::int32_t plane_index) override;
  void end_plane_outage(std::int32_t plane_index) override;

  [[nodiscard]] std::size_t pending_flows() const override;
  [[nodiscard]] std::size_t active_transfers() const override {
    return active_.size();
  }
  [[nodiscard]] std::size_t active_coflows() const override {
    return entries_.size();
  }
  [[nodiscard]] std::int64_t active_circuits() const override;
  [[nodiscard]] DataSize bytes_in_flight() const override;
  [[nodiscard]] double uncredited_settled_bits() const override {
    return uncredited_settled_bits_;
  }

  void set_observability(Observability* obs) override { obs_ = obs; }
  void set_reconfig_delay_provider(
      std::function<Duration()> provider) override {
    reconfig_delay_provider_ = std::move(provider);
  }

 private:
  enum class TransferState { kReconfiguring, kTransferring };

  struct ActiveTransfer {
    Flow* flow;
    TransferState state = TransferState::kReconfiguring;
    SimTime last_update = SimTime::zero();
    double settled_bits = 0.0;
    std::int32_t plane = 0;
  };

  struct PlanePorts {
    std::vector<const Flow*> out;
    std::vector<const Flow*> in;
  };

  struct CoflowEntry {
    Coflow* coflow;
    double priority_sec;
    std::vector<Flow*> pending;
  };

  void request_allocation_pass();
  void allocation_pass();
  void match_on_plane(CoflowEntry& entry, std::int32_t plane_index);
  void setup_circuit(std::int32_t plane_index, const Flow& flow);
  void teardown_circuit(const ActiveTransfer& at);
  void start_transfer(FlowId id);
  void on_transfer_complete(FlowId id);
  void evict_transfer(ActiveTransfer& at);

  Simulator& sim_;
  std::vector<PlanePorts> ports_;
  std::vector<std::int32_t> down_;
  std::map<CoflowId, CoflowEntry> entries_;
  /// Coflow ids in priority order (priority, id).
  std::vector<CoflowId> order_;
  std::map<FlowId, ActiveTransfer> active_;
  double uncredited_settled_bits_ = 0.0;
  bool pass_scheduled_ = false;
  Observability* obs_ = nullptr;
  std::function<Duration()> reconfig_delay_provider_;

  // Per-pass reservations and per-match graph scratch.
  std::vector<char> reserved_out_;
  std::vector<char> reserved_in_;
  std::vector<std::uint64_t> src_seen_;
  std::vector<std::uint64_t> dst_seen_;
  std::vector<std::size_t> src_slot_;
  std::vector<std::size_t> dst_slot_;
  std::uint64_t scratch_gen_ = 0;
  std::vector<RackId> srcs_;
  std::vector<RackId> dsts_;
  std::vector<std::vector<std::pair<std::size_t, Flow*>>> adj_;
};

}  // namespace cosched::oracle
