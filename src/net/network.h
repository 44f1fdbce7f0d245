// Facade over the hybrid network: the EPS fabric and a pluggable circuit
// fabric (src/net/fabric.h; implementations in src/fabric/), each of which
// keeps its own byte ledger. Routing policy (the c-Through elephant rule,
// delegated to Fabric::admits) lives here.
#pragma once

#include <memory>
#include <utility>

#include "common/check.h"
#include "net/eps_fabric.h"
#include "net/fabric.h"
#include "net/ocs_switch.h"
#include "net/topology.h"

namespace cosched {

class Network {
 public:
  /// The circuit side is injected: make_fabric (src/fabric/) builds one
  /// from a FabricSpec; tests and benches that want the paper's fabric
  /// construct OcsFabric{K=1} directly.
  Network(Simulator& sim, const HybridTopology& topo,
          std::unique_ptr<Fabric> fabric)
      : topo_(topo), eps_(sim, topo), fabric_(std::move(fabric)) {
    topo_.validate();
    COSCHED_CHECK_MSG(fabric_ != nullptr, "Network needs a circuit fabric");
  }

  [[nodiscard]] const HybridTopology& topology() const { return topo_; }
  [[nodiscard]] EpsFabric& eps() { return eps_; }
  [[nodiscard]] const EpsFabric& eps() const { return eps_; }
  [[nodiscard]] Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const Fabric& fabric() const { return *fabric_; }

  /// Route a flow: local if intra-rack, the circuit fabric if it admits
  /// the flow (the c-Through elephant rule for every current fabric), EPS
  /// otherwise. During a whole-fabric outage every cross-rack flow
  /// degrades to the EPS.
  [[nodiscard]] FlowPath classify(const Flow& flow) const {
    if (flow.src() == flow.dst()) return FlowPath::kLocal;
    if (!ocs_available()) return FlowPath::kEps;
    if (fabric_->admits(flow)) return FlowPath::kOcs;
    return FlowPath::kEps;
  }

  // ----- circuit-fabric availability (fault injection) ---------------------
  // A depth counter so overlapping outage windows compose: the fabric is
  // back only when every window that covers `now` has ended. (Plane-scoped
  // outages live on the fabric itself and do not touch this.)
  [[nodiscard]] bool ocs_available() const { return ocs_down_depth_ == 0; }
  void begin_ocs_outage() { ++ocs_down_depth_; }
  void end_ocs_outage() {
    COSCHED_CHECK(ocs_down_depth_ > 0);
    --ocs_down_depth_;
  }

 private:
  HybridTopology topo_;
  EpsFabric eps_;
  std::unique_ptr<Fabric> fabric_;
  std::int32_t ocs_down_depth_ = 0;
};

}  // namespace cosched
