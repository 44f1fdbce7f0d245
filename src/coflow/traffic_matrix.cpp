#include "coflow/traffic_matrix.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>

#include "common/check.h"

namespace cosched {

void TrafficMatrix::add(RackId src, RackId dst, DataSize size) {
  COSCHED_CHECK(src.valid() && dst.valid());
  COSCHED_CHECK(size >= DataSize::zero());
  if (size.is_zero()) return;
  entries_[{src, dst}] += size;
}

DataSize TrafficMatrix::at(RackId src, RackId dst) const {
  auto it = entries_.find({src, dst});
  return it == entries_.end() ? DataSize::zero() : it->second;
}

DataSize TrafficMatrix::total() const {
  DataSize t = DataSize::zero();
  for (const auto& [key, size] : entries_) t += size;
  return t;
}

namespace {

using Cell = std::pair<RackId, DataSize>;

/// Appends the column loads of `cells` to `out`, rack ascending: a
/// most-significant-byte-first radix sort on dst - lo that sums as it goes.
/// All of `cells` agree on the bytes of dst - lo above the one at `shift`.
/// At byte 0 each of the 256 digit values is one rack, summed in place;
/// above it the cells are bucketed by their byte (through `buffer`, as long
/// as `cells`) and each bucket recurses one byte down. Every level is linear
/// in its cells.
void append_columns(std::span<Cell> cells, std::span<Cell> buffer,
                    std::int64_t lo, unsigned shift,
                    std::vector<TrafficMatrix::PortLoad>& out) {
  const auto digit = [&](const Cell& c) {
    return (static_cast<std::uint64_t>(c.first.value() - lo) >> shift) &
           0xffU;
  };
  if (shift == 0) {
    std::array<TrafficMatrix::PortLoad, 256> racks{};
    for (const Cell& c : cells) {
      TrafficMatrix::PortLoad& p = racks[digit(c)];
      p.rack = c.first;
      p.sum += c.second;
      ++p.degree;
    }
    for (const auto& p : racks) {
      if (p.degree != 0) out.push_back(p);
    }
    return;
  }
  std::array<std::size_t, 257> start{};
  for (const Cell& c : cells) ++start[digit(c) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::array<std::size_t, 257> next = start;
  for (const Cell& c : cells) buffer[next[digit(c)]++] = c;
  for (std::size_t d = 0; d < 256; ++d) {
    const std::size_t n = start[d + 1] - start[d];
    if (n == 0) continue;
    append_columns(buffer.subspan(start[d], n), cells.subspan(start[d], n),
                   lo, shift - 8, out);
  }
}

}  // namespace

TrafficMatrix::PortLoads TrafficMatrix::port_loads() const {
  PortLoads loads;
  if (entries_.empty()) return loads;
  // Rows: the map orders entries by (src, dst), so each row is one
  // contiguous run and ascends by construction. Columns are gathered flat
  // and bucketed by destination below. Sums are exact int64 bytes, so the
  // order in which a column's entries are added cannot change them.
  std::vector<Cell> cols;
  cols.reserve(entries_.size());
  std::int64_t lo = entries_.begin()->first.second.value();
  std::int64_t hi = lo;
  for (const auto& [key, size] : entries_) {
    if (loads.sources.empty() || loads.sources.back().rack != key.first) {
      loads.sources.push_back({key.first, DataSize::zero(), 0});
    }
    loads.sources.back().sum += size;
    ++loads.sources.back().degree;
    cols.emplace_back(key.second, size);
    lo = std::min(lo, key.second.value());
    hi = std::max(hi, key.second.value());
  }
  // Start at the highest byte in which destinations differ. Rack ids and
  // PSRT's 1000000 + j ids span at most the rack count: up to 256 racks
  // that is byte 0 alone, summed in place.
  const auto span = static_cast<std::uint64_t>(hi - lo);
  unsigned shift = 0;
  while ((span >> shift) > 0xffU) shift += 8;
  std::vector<Cell> buffer(shift == 0 ? 0 : cols.size());
  append_columns(cols, buffer, lo, shift, loads.destinations);
  return loads;
}

}  // namespace cosched
