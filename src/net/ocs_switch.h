// The optical circuit switch.
//
// Non-blocking R-port switch: rack r's ToR owns output port r (for sending)
// and input port r (for receiving). A circuit connects one output port to
// one input port; each port carries at most one circuit at a time. Setting
// up (or changing) a circuit stalls *only* the two ports involved for the
// reconfiguration delay delta — the "not-all-stop" model of Sunflow that
// the paper adopts.
//
// The OCS knows nothing about coflows. The fabric that owns it (OcsFabric,
// src/fabric) decides which circuits to request and which flow each
// circuit carries;
// the OCS provides port state, the reconfiguration timer, and the constant
// link rate for transfers.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/flow.h"
#include "net/topology.h"
#include "simcore/simulator.h"

namespace cosched {

class TraceRecorder;

enum class PortState { kFree, kReconfiguring, kConnected };

class OcsSwitch {
 public:
  OcsSwitch(Simulator& sim, const HybridTopology& topo);

  [[nodiscard]] std::int32_t num_ports() const { return topo_.num_racks; }
  [[nodiscard]] Bandwidth link_rate() const { return topo_.ocs_link; }
  [[nodiscard]] Duration reconfig_delay() const {
    return topo_.ocs_reconfig_delay;
  }

  [[nodiscard]] bool out_port_free(RackId r) const;
  [[nodiscard]] bool in_port_free(RackId r) const;
  [[nodiscard]] PortState out_port_state(RackId r) const;
  [[nodiscard]] PortState in_port_state(RackId r) const;

  /// The rack currently (or about to be) connected to `src`'s output port.
  [[nodiscard]] std::optional<RackId> connected_to(RackId src) const;

  /// Claim src's output port and dst's input port and start reconfiguring.
  /// Both ports must be free. After the reconfiguration delay the circuit is
  /// up and `on_up` fires.
  void setup_circuit(RackId src, RackId dst, std::function<void()> on_up);

  /// Release a circuit (or a circuit still reconfiguring). Frees both ports
  /// immediately; the cost of the tear-down is borne by the next setup on
  /// these ports (not-all-stop accounting).
  void teardown_circuit(RackId src, RackId dst);

  [[nodiscard]] bool circuit_up(RackId src, RackId dst) const;

  /// Total circuits established and reconfigurations begun (diagnostics).
  [[nodiscard]] std::int64_t circuits_established() const {
    return circuits_established_;
  }
  [[nodiscard]] std::int64_t reconfigurations() const {
    return reconfigurations_;
  }

  /// Circuits currently up (kConnected output ports).
  [[nodiscard]] std::int64_t active_circuits() const;
  /// Ports currently mid-reconfiguration.
  [[nodiscard]] std::int64_t reconfiguring_ports() const;

  /// Attach a trace recorder for circuit up/teardown events. Null (the
  /// default) disables tracing. Setups are recorded by the caller that
  /// chose the circuit, which knows its flow (OcsFabric).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Override the per-setup reconfiguration delay (fault injection: jitter
  /// around delta). Unset (the default) uses the topology's constant delta,
  /// with no call overhead on that path.
  void set_reconfig_delay_provider(std::function<Duration()> provider) {
    reconfig_delay_provider_ = std::move(provider);
  }

 private:
  struct PortPair {
    PortState state = PortState::kFree;
    RackId peer = RackId::invalid();
    // Generation counter invalidates in-flight reconfiguration completions
    // after a teardown arrives during the delay window.
    std::int64_t generation = 0;
  };

  PortPair& out(RackId r);
  PortPair& in(RackId r);
  const PortPair& out(RackId r) const;
  const PortPair& in(RackId r) const;

  Simulator& sim_;
  HybridTopology topo_;
  std::vector<PortPair> out_ports_;
  std::vector<PortPair> in_ports_;
  std::int64_t circuits_established_ = 0;
  std::int64_t reconfigurations_ = 0;
  TraceRecorder* trace_ = nullptr;
  std::function<Duration()> reconfig_delay_provider_;
};

}  // namespace cosched
