#include "net/ocs_switch.h"

#include <algorithm>

#include "obs/trace_recorder.h"

namespace cosched {

OcsSwitch::OcsSwitch(Simulator& sim, const HybridTopology& topo)
    : sim_(sim),
      topo_(topo),
      out_ports_(static_cast<std::size_t>(topo.num_racks)),
      in_ports_(static_cast<std::size_t>(topo.num_racks)) {
  topo_.validate();
}

OcsSwitch::PortPair& OcsSwitch::out(RackId r) {
  COSCHED_CHECK(r.valid() && r.value() < topo_.num_racks);
  return out_ports_[static_cast<std::size_t>(r.value())];
}
OcsSwitch::PortPair& OcsSwitch::in(RackId r) {
  COSCHED_CHECK(r.valid() && r.value() < topo_.num_racks);
  return in_ports_[static_cast<std::size_t>(r.value())];
}
const OcsSwitch::PortPair& OcsSwitch::out(RackId r) const {
  COSCHED_CHECK(r.valid() && r.value() < topo_.num_racks);
  return out_ports_[static_cast<std::size_t>(r.value())];
}
const OcsSwitch::PortPair& OcsSwitch::in(RackId r) const {
  COSCHED_CHECK(r.valid() && r.value() < topo_.num_racks);
  return in_ports_[static_cast<std::size_t>(r.value())];
}

bool OcsSwitch::out_port_free(RackId r) const {
  return out(r).state == PortState::kFree;
}
bool OcsSwitch::in_port_free(RackId r) const {
  return in(r).state == PortState::kFree;
}
PortState OcsSwitch::out_port_state(RackId r) const { return out(r).state; }
PortState OcsSwitch::in_port_state(RackId r) const { return in(r).state; }

std::optional<RackId> OcsSwitch::connected_to(RackId src) const {
  const auto& p = out(src);
  if (p.state == PortState::kFree) return std::nullopt;
  return p.peer;
}

void OcsSwitch::setup_circuit(RackId src, RackId dst,
                              std::function<void()> on_up) {
  COSCHED_CHECK_MSG(out_port_free(src),
                    "output port of rack " << src << " busy");
  COSCHED_CHECK_MSG(in_port_free(dst), "input port of rack " << dst << " busy");
  COSCHED_CHECK_MSG(src != dst, "self-circuit requested for rack " << src);

  auto& o = out(src);
  auto& i = in(dst);
  o.state = PortState::kReconfiguring;
  o.peer = dst;
  ++o.generation;
  i.state = PortState::kReconfiguring;
  i.peer = src;
  ++i.generation;
  ++reconfigurations_;

  const std::int64_t gen_out = o.generation;
  const std::int64_t gen_in = i.generation;
  const Duration delay = reconfig_delay_provider_
                             ? reconfig_delay_provider_()
                             : topo_.ocs_reconfig_delay;
  sim_.schedule_after(
      delay,
      [this, src, dst, gen_out, gen_in, cb = std::move(on_up)] {
        auto& oo = out(src);
        auto& ii = in(dst);
        if (oo.generation != gen_out || ii.generation != gen_in) {
          return;  // torn down (or re-purposed) during the delay
        }
        COSCHED_CHECK(oo.state == PortState::kReconfiguring);
        COSCHED_CHECK(ii.state == PortState::kReconfiguring);
        oo.state = PortState::kConnected;
        ii.state = PortState::kConnected;
        ++circuits_established_;
        if (trace_ != nullptr) {
          trace_->record({.kind = TraceEventKind::kCircuitUp,
                          .at = sim_.now(),
                          .src = src,
                          .dst = dst});
        }
        if (cb) cb();
      });
}

void OcsSwitch::teardown_circuit(RackId src, RackId dst) {
  auto& o = out(src);
  auto& i = in(dst);
  COSCHED_CHECK_MSG(o.state != PortState::kFree && o.peer == dst,
                    "no circuit " << src << "->" << dst << " to tear down");
  COSCHED_CHECK(i.state != PortState::kFree && i.peer == src);
  o.state = PortState::kFree;
  o.peer = RackId::invalid();
  ++o.generation;
  i.state = PortState::kFree;
  i.peer = RackId::invalid();
  ++i.generation;
  if (trace_ != nullptr) {
    trace_->record({.kind = TraceEventKind::kCircuitTeardown,
                    .at = sim_.now(),
                    .src = src,
                    .dst = dst});
  }
}

bool OcsSwitch::circuit_up(RackId src, RackId dst) const {
  const auto& o = out(src);
  return o.state == PortState::kConnected && o.peer == dst;
}

std::int64_t OcsSwitch::active_circuits() const {
  return std::count_if(out_ports_.begin(), out_ports_.end(),
                       [](const PortPair& p) {
                         return p.state == PortState::kConnected;
                       });
}

std::int64_t OcsSwitch::reconfiguring_ports() const {
  return std::count_if(out_ports_.begin(), out_ports_.end(),
                       [](const PortPair& p) {
                         return p.state == PortState::kReconfiguring;
                       });
}

}  // namespace cosched
