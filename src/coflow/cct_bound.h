// The Coflow-completion-time lower bound for OCS transfer
// (Section II-C of the paper).
//
//   t_ij = C_ij / BW_OCS + delta          (C_ij > 0)
//   T(C) = max( max_i sum_j t_ij , max_j sum_i t_ij )
//
// Each output (input) port can serve one circuit at a time and every flow
// pays at least one reconfiguration, so no schedule can beat T(C).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "coflow/traffic_matrix.h"
#include "common/units.h"

namespace cosched {

/// Minimum time to transfer a single flow of `size` over the OCS.
[[nodiscard]] Duration ocs_flow_time(DataSize size, Bandwidth bw,
                                     Duration delta);

/// The max of `port(load)` over every row and column load of `matrix`
/// (TrafficMatrix::PortLoad); zero for an empty matrix. Every port-based
/// bound is one of these, so it costs one port_loads() pass.
template <typename PortFn>
[[nodiscard]] Duration max_over_ports(const TrafficMatrix& matrix,
                                      PortFn port) {
  const TrafficMatrix::PortLoads loads = matrix.port_loads();
  Duration bound = Duration::zero();
  for (const auto& p : loads.sources) bound = std::max(bound, port(p));
  for (const auto& p : loads.destinations) bound = std::max(bound, port(p));
  return bound;
}

/// The lower bound T(C). Zero for an empty matrix.
///
/// This free function is the *legacy* (and ocs:1) bound: one circuit per
/// rack pair, delta per setup. Fabrics with different circuit models
/// override Fabric::cct_lower_bound instead (docs/FABRICS.md); planners
/// reach whichever applies through a CctBoundFn.
[[nodiscard]] Duration cct_lower_bound(const TrafficMatrix& matrix,
                                       Bandwidth bw, Duration delta);

/// Which T(C) the *planner* (PSRT/SBS) consults. kFabric routes through
/// Fabric::cct_lower_bound — the default, and the bug fix this enum guards:
/// the pre-fabric-aware planner charged the one-circuit-per-pair formula on
/// every fabric. kLegacy is the escape hatch (--bound=legacy) that restores
/// the fabric-oblivious planner for A/B comparison; recorded metrics and
/// circuit-scheduler priorities stay fabric-aware in both modes, so a
/// run_report diff between the modes isolates the placement delta.
enum class CctBoundMode : std::uint8_t { kFabric, kLegacy };

[[nodiscard]] constexpr const char* to_string(CctBoundMode m) {
  return m == CctBoundMode::kFabric ? "fabric" : "legacy";
}

/// A bound evaluator a planner can call without knowing which fabric (or
/// escape hatch) is behind it.
using CctBoundFn = std::function<Duration(const TrafficMatrix&)>;

/// The legacy one-circuit-per-pair T(C) as a CctBoundFn.
[[nodiscard]] inline CctBoundFn legacy_cct_bound(Bandwidth bw,
                                                 Duration delta) {
  return [bw, delta](const TrafficMatrix& matrix) {
    return cct_lower_bound(matrix, bw, delta);
  };
}

}  // namespace cosched
