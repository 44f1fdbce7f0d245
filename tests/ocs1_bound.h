// The paper's single-OCS T(C) (src/coflow/cct_bound.h) as a CctBoundFn,
// for tests and microbenches that drive PSRT without building a fabric.
// Production planning charges the run's Fabric::cct_lower_bound, which on
// ocs:1 is this same formula.
#pragma once

#include "coflow/cct_bound.h"

namespace cosched {

[[nodiscard]] inline CctBoundFn ocs1_bound(Bandwidth bw, Duration delta) {
  return [bw, delta](const TrafficMatrix& matrix) {
    return cct_lower_bound(matrix, bw, delta);
  };
}

}  // namespace cosched
