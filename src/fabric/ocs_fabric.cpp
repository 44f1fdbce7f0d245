#include "fabric/ocs_fabric.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "coflow/cct_bound.h"
#include "common/check.h"

namespace cosched {

Duration OcsFabric::cct_lower_bound(const TrafficMatrix& matrix) const {
  const auto k = static_cast<double>(num_planes());
  if (num_planes() == 1) {
    // The paper's fabric: delegate to the original free function so ocs:1
    // stays bit-identical to every pre-seam result.
    return ::cosched::cct_lower_bound(matrix, link_rate(), reconfig_delay());
  }
  const Bandwidth bw = link_rate();
  const Duration delta = reconfig_delay();
  // Per-port: the port's total busy time (transfer + one setup per flow)
  // is split across at most K plane transceivers, and however the flows
  // are packed, some plane carries at least ceil(degree/K) of the setups.
  Duration bound =
      max_over_ports(matrix, [&](const TrafficMatrix::PortLoad& p) {
        const Duration busy = (transfer_time(p.sum, bw) +
                               delta * static_cast<double>(p.degree)) /
                              k;
        const Duration setups =
            delta * std::ceil(static_cast<double>(p.degree) / k);
        return std::max(busy, setups);
      });
  // A flow rides exactly one circuit on one plane: extra planes never
  // shorten a single transfer below setup + full drain.
  for (const auto& entry : matrix.entries()) {
    bound = std::max(bound, ocs_flow_time(entry.second, bw, delta));
  }
  return bound;
}

OcsFabric::OcsFabric(Simulator& sim, const HybridTopology& topo,
                     std::int32_t planes)
    : Fabric(topo), sunflow_(sim, *this) {
  COSCHED_CHECK_MSG(planes >= 1, "OcsFabric needs at least one plane, got "
                                     << planes);
  planes_.reserve(static_cast<std::size_t>(planes));
  for (std::int32_t p = 0; p < planes; ++p) {
    planes_.push_back(std::make_unique<OcsSwitch>(sim, topo));
  }
  down_.assign(static_cast<std::size_t>(planes), 0);
  // Chain Sunflow's per-flow completion hook into the fabric-level one, so
  // whatever the driver registers via Fabric::set_on_flow_complete fires.
  sunflow_.set_on_flow_complete([this](Flow& f) { notify_flow_complete(f); });
}

std::vector<Flow*> OcsFabric::begin_plane_outage(std::int32_t plane_index) {
  COSCHED_CHECK_MSG(plane_index >= 0 && plane_index < num_planes(),
                    name() << " has no plane " << plane_index);
  ++down_[static_cast<std::size_t>(plane_index)];
  return sunflow_.evict_plane(plane_index);
}

void OcsFabric::end_plane_outage(std::int32_t plane_index) {
  COSCHED_CHECK_MSG(plane_index >= 0 && plane_index < num_planes(),
                    name() << " has no plane " << plane_index);
  auto& depth = down_[static_cast<std::size_t>(plane_index)];
  COSCHED_CHECK_MSG(depth > 0, "plane " << plane_index
                                        << " outage ended that never began");
  --depth;
  // Queued demand may have been waiting for exactly this plane's ports.
  if (depth == 0) sunflow_.kick();
}

std::int64_t OcsFabric::active_circuits() const {
  std::int64_t n = 0;
  for (const auto& plane : planes_) n += plane->active_circuits();
  return n;
}

void OcsFabric::set_trace(TraceRecorder* trace) {
  for (const auto& plane : planes_) plane->set_trace(trace);
}

void OcsFabric::set_reconfig_delay_provider(
    std::function<Duration()> provider) {
  // One shared provider: every plane's setups draw from the same jitter
  // stream in setup order, exactly as the single OCS did.
  for (const auto& plane : planes_) plane->set_reconfig_delay_provider(provider);
}

}  // namespace cosched
