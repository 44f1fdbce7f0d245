// RotorFabric: fixed-period round-robin matchings (Mordia / RotorNet).
//
// Instead of reconfiguring on demand, the switch cycles through R-1
// precomputed perfect matchings on a fixed slot clock: during slot k every
// rack i is wired to rack (i + s) mod R with s = 1 + (k mod (R-1)), so
// every rack pair gets a dedicated circuit once per R-1 slots regardless
// of demand. Each slot boundary pays the reconfiguration delay delta
// before circuits come up (delta must be < the period). There is no
// demand-driven reconfiguration and no coflow awareness: flows queue FIFO
// per rack pair and drain at full link rate whenever their pair's slot is
// up, preempted (and requeued at the head) at the slot boundary.
//
// Determinism: the slot clock is anchored at absolute multiples of the
// period (slot k covers [k*P, (k+1)*P)). The clock only runs while the
// fabric holds work — an idle rotor schedules nothing, so simulations
// drain — and service (re)starts at the next slot boundary after demand
// arrives. The reconfig-jitter fault is ignored: rotor switching is the
// fixed-schedule alternative the jitter knob does not model.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched {

class RotorFabric final : public Fabric {
 public:
  RotorFabric(Simulator& sim, const HybridTopology& topo, Duration period);

  [[nodiscard]] std::string name() const override;

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::vector<Flow*> evict_all() override;

  /// Slot-quantized port bound. Per source (and, symmetrically, per
  /// destination — each slot's matching is a permutation): the port needs
  /// n = max(degree, ceil(bits / cap)) distinct slots, cap = (P - delta)*bw
  /// being one slot's usable capacity; serving one transfer at a time at
  /// rate <= bw gives the transfer_time term, and with n >= 2 the n-th
  /// slot's boundary lies > release + (n-2)*P (the first used slot may
  /// straddle the release), pays delta before circuits rise, and still has
  /// the residual bits the other n-1 slots could not carry.
  [[nodiscard]] Duration cct_lower_bound(
      const TrafficMatrix& matrix) const override;

  [[nodiscard]] std::size_t pending_flows() const override {
    return pending_count_;
  }
  [[nodiscard]] std::size_t active_transfers() const override {
    return active_count_;
  }
  [[nodiscard]] std::int64_t active_circuits() const override {
    return static_cast<std::int64_t>(active_count_);
  }
  [[nodiscard]] DataSize bytes_in_flight() const override;
  [[nodiscard]] std::string self_check() const override;

  [[nodiscard]] Duration period() const { return period_; }
  /// Slot boundaries crossed while the fabric held work (diagnostics).
  [[nodiscard]] std::int64_t slots_run() const { return slots_run_; }

 private:
  struct Active {
    Flow* flow = nullptr;
    SimTime last_update = SimTime::zero();
  };

  [[nodiscard]] std::size_t pair_index(RackId src, RackId dst) const {
    return static_cast<std::size_t>(src.value()) *
               static_cast<std::size_t>(topo_.num_racks) +
           static_cast<std::size_t>(dst.value());
  }
  [[nodiscard]] SimTime boundary(std::int64_t slot) const {
    return SimTime::seconds(period_.sec() * static_cast<double>(slot));
  }
  /// The matching shift in force during `slot`: dst = (src + shift) % R.
  [[nodiscard]] std::int32_t shift_for(std::int64_t slot) const {
    return 1 + static_cast<std::int32_t>(
                   slot % static_cast<std::int64_t>(topo_.num_racks - 1));
  }

  void arm_from(SimTime now);
  void slot_begin(std::int64_t slot);
  void circuits_up();
  /// Start serving the head flow of `src`'s current pair queue; schedules a
  /// completion event only if the flow drains strictly before slot_end_.
  void start_transfer(RackId src, std::deque<Flow*>& queue);
  void on_transfer_complete(RackId src);
  /// Settle the active transfer on `src` and credit the drained bits.
  void settle_active(Active& active);

  Simulator& sim_;
  Duration period_;
  std::vector<std::deque<Flow*>> pending_by_pair_;
  std::vector<Active> active_by_src_;
  std::size_t pending_count_ = 0;
  std::size_t active_count_ = 0;
  bool armed_ = false;
  std::int64_t slot_ = 0;            // current slot while armed
  std::int32_t shift_ = 0;           // current matching while armed
  SimTime slot_end_ = SimTime::zero();
  std::int64_t slots_run_ = 0;
  EventHandle slot_event_;
  EventHandle circuits_event_;
};

}  // namespace cosched
