#include "bvn_clearance.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/check.h"

namespace cosched {

Duration ClearanceSchedule::transfer_time() const {
  Duration t = Duration::zero();
  for (const auto& slot : slots) t += slot.duration;
  return t;
}

Duration ClearanceSchedule::total_time(Duration reconfig_delay) const {
  return transfer_time() +
         reconfig_delay * static_cast<double>(slots.size());
}

ClearanceSchedule bvn_clearance(const TrafficMatrix& matrix, Bandwidth bw) {
  ClearanceSchedule schedule;
  if (matrix.empty()) return schedule;

  // Dense index spaces for the two sides. A rack that both sends and
  // receives appears once on each side (its output port and input port are
  // independent resources).
  const TrafficMatrix::PortLoads loads = matrix.port_loads();
  const std::size_t n =
      std::max(loads.sources.size(), loads.destinations.size());

  std::map<RackId, std::size_t> src_index;
  for (std::size_t i = 0; i < loads.sources.size(); ++i) {
    src_index[loads.sources[i].rack] = i;
  }
  std::map<RackId, std::size_t> dst_index;
  for (std::size_t j = 0; j < loads.destinations.size(); ++j) {
    dst_index[loads.destinations[j].rack] = j;
  }

  // real[i][j]: demand still to clear; pad[i][j]: filler making the matrix
  // doubly balanced. All in exact bytes.
  std::vector<std::vector<std::int64_t>> real(
      n, std::vector<std::int64_t>(n, 0));
  std::vector<std::vector<std::int64_t>> pad(
      n, std::vector<std::int64_t>(n, 0));
  for (const auto& [key, size] : matrix.entries()) {
    real[src_index[key.first]][dst_index[key.second]] = size.in_bytes();
  }

  // T = max row/col sum of the real matrix.
  std::vector<std::int64_t> row_total(n, 0);
  std::vector<std::int64_t> col_total(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      row_total[i] += real[i][j];
      col_total[j] += real[i][j];
    }
  }
  std::int64_t target = 0;
  for (std::size_t i = 0; i < n; ++i) {
    target = std::max({target, row_total[i], col_total[i]});
  }
  COSCHED_CHECK(target > 0);

  // Pad greedily: total row deficit equals total column deficit, so the
  // two-pointer sweep exactly balances the matrix.
  {
    std::size_t j = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t need = target - row_total[i];
      while (need > 0) {
        COSCHED_CHECK(j < n);
        const std::int64_t col_need = target - col_total[j];
        if (col_need == 0) {
          ++j;
          continue;
        }
        const std::int64_t add = std::min(need, col_need);
        pad[i][j] += add;
        row_total[i] += add;
        col_total[j] += add;
        need -= add;
      }
    }
  }

  // Repeatedly extract a perfect matching over positive combined entries.
  std::int64_t cleared = 0;
  while (cleared < target) {
    BipartiteGraph graph(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (real[i][j] + pad[i][j] > 0) graph.add_edge(i, j);
      }
    }
    const MatchingResult match = maximum_bipartite_matching(graph);
    COSCHED_CHECK_MSG(match.size == n,
                      "balanced positive matrix must admit a perfect "
                      "matching (Birkhoff-von Neumann)");

    std::int64_t slot_bytes = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = match.match_left[i];
      slot_bytes = std::min(slot_bytes, real[i][j] + pad[i][j]);
    }
    COSCHED_CHECK(slot_bytes > 0);

    ClearanceSlot slot;
    slot.duration = transfer_time(DataSize::bytes(slot_bytes), bw);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = match.match_left[i];
      // Drain the real demand first; padding absorbs the remainder.
      const std::int64_t from_real = std::min(slot_bytes, real[i][j]);
      if (from_real > 0 && i < loads.sources.size() &&
          j < loads.destinations.size()) {
        slot.circuits.emplace_back(loads.sources[i].rack,
                                   loads.destinations[j].rack);
      }
      real[i][j] -= from_real;
      pad[i][j] -= slot_bytes - from_real;
      COSCHED_CHECK(pad[i][j] >= 0);
    }
    schedule.slots.push_back(std::move(slot));
    cleared += slot_bytes;
  }

  return schedule;
}

}  // namespace cosched
