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
/// This free function is the ocs:1 bound: one circuit per rack pair, delta
/// per setup. Fabrics with different circuit models override
/// Fabric::cct_lower_bound instead (docs/FABRICS.md); planners reach
/// whichever applies through a CctBoundFn.
[[nodiscard]] Duration cct_lower_bound(const TrafficMatrix& matrix,
                                       Bandwidth bw, Duration delta);

/// A bound evaluator a planner can call without knowing which fabric is
/// behind it.
using CctBoundFn = std::function<Duration(const TrafficMatrix&)>;

}  // namespace cosched
