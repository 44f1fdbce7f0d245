// MeshFabric: the idealized full-mesh baseline.
//
// Not a real optical design — an upper bound no circuit switch can beat.
// Every rack pair has a permanent dedicated circuit at the full OCS link
// rate, so there is no reconfiguration, no matching constraint, and no
// cross-pair contention. Flows are served FIFO per rack pair, one transfer
// in service per pair at the full link rate. Drained bits are settled
// eagerly and the fabric keeps no hidden state, so
// uncredited_settled_bits() is always zero.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched {

class MeshFabric final : public Fabric {
 public:
  MeshFabric(Simulator& sim, const HybridTopology& topo);

  [[nodiscard]] std::string name() const override { return "mesh"; }

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::vector<Flow*> evict_all() override;

  /// Every ordered pair drains concurrently on its permanent circuit with
  /// zero reconfiguration, so the only hard floor is the largest single
  /// entry's transfer time (no per-port row/col serialization, no delta).
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

 private:
  struct Active {
    Flow* flow = nullptr;
    SimTime last_update = SimTime::zero();
  };

  /// The FIFO of `flow`'s rack pair.
  [[nodiscard]] std::size_t pair_index(const Flow& flow) const {
    return static_cast<std::size_t>(flow.src().value()) *
               static_cast<std::size_t>(topo_.num_racks) +
           static_cast<std::size_t>(flow.dst().value());
  }

  void start_transfer(std::size_t pair);
  void on_transfer_complete(std::size_t pair);
  void settle_active(Active& active);
  void schedule_completion(std::size_t pair, Flow& flow);

  Simulator& sim_;
  std::vector<std::deque<Flow*>> queues_;
  std::vector<Active> active_;
  std::size_t pending_count_ = 0;
  std::size_t active_count_ = 0;
};

}  // namespace cosched
