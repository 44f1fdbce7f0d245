// Sparse rack-to-rack traffic matrix C = (C_ij) describing one Coflow.
//
// Entries are keyed (source rack, destination rack); iteration order is
// deterministic (std::map). Only cross-rack demand belongs in the matrix —
// intra-rack bytes never touch the OCS and are excluded by callers.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace cosched {

class TrafficMatrix {
 public:
  using Key = std::pair<RackId, RackId>;
  using EntryMap = std::map<Key, DataSize>;

  /// Add demand from src to dst (accumulates into an existing entry).
  void add(RackId src, RackId dst, DataSize size);

  [[nodiscard]] DataSize at(RackId src, RackId dst) const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t num_entries() const { return entries_.size(); }
  [[nodiscard]] DataSize total() const;

  /// One port's load: the bytes it must carry and the number of distinct
  /// peers (nonzero entries) on its row or column.
  struct PortLoad {
    RackId rack;
    DataSize sum;
    std::size_t degree = 0;

    friend bool operator==(const PortLoad&, const PortLoad&) = default;
  };
  struct PortLoads {
    std::vector<PortLoad> sources;       ///< one per row, rack ascending
    std::vector<PortLoad> destinations;  ///< one per column, rack ascending
  };

  /// Every row's and column's (sum, degree) in one pass over the entries;
  /// the columns are then bucketed by destination one byte at a time, so
  /// the cost is O(entries) per byte in which destination ids differ (one
  /// up to 256 racks). Port-based CCT bounds are a max over
  /// these (docs/FABRICS.md §4).
  [[nodiscard]] PortLoads port_loads() const;

  [[nodiscard]] const EntryMap& entries() const { return entries_; }

 private:
  EntryMap entries_;
};

}  // namespace cosched
