#include "coflow/cct_bound.h"

#include <algorithm>

namespace cosched {

Duration ocs_flow_time(DataSize size, Bandwidth bw, Duration delta) {
  if (size.is_zero()) return Duration::zero();
  return transfer_time(size, bw) + delta;
}

Duration cct_lower_bound(const TrafficMatrix& matrix, Bandwidth bw,
                         Duration delta) {
  return max_over_ports(matrix, [&](const TrafficMatrix::PortLoad& p) {
    return transfer_time(p.sum, bw) + delta * static_cast<double>(p.degree);
  });
}

}  // namespace cosched
