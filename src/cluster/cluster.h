// Container (slot) accounting for the rack/node hierarchy.
//
// A container is a fixed-size task slot on a server (paper: 20 per server,
// 10 servers per rack). The Cluster tracks free slots; it knows nothing
// about jobs — the driver owns task state.
//
// The Cluster also owns free-rack membership: a bitset over racks with at
// least one free container, flipped by allocate_slot/release_slot when a
// rack's free count crosses zero. A dispatch wave walks it
// (for_each_free_rack_from) instead of visiting every rack and skipping
// the full ones one by one (DESIGN.md §11).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "net/topology.h"

namespace cosched {

class Cluster {
 public:
  explicit Cluster(const HybridTopology& topo);

  [[nodiscard]] std::int32_t num_racks() const { return topo_.num_racks; }
  [[nodiscard]] std::int64_t slots_per_rack() const {
    return topo_.slots_per_rack();
  }
  [[nodiscard]] std::int64_t free_slots(RackId rack) const;
  [[nodiscard]] std::int64_t used_slots(RackId rack) const;
  [[nodiscard]] std::int64_t total_free_slots() const;

  /// Claim one slot on `rack`; returns the node hosting it. Picks the node
  /// with the most free slots (balances load across servers). Requires a
  /// free slot.
  NodeId allocate_slot(RackId rack);

  /// Return a slot previously obtained from allocate_slot.
  void release_slot(RackId rack, NodeId node);

  /// Global node id of server `server_index` on `rack`.
  [[nodiscard]] NodeId node_id(RackId rack, std::int32_t server_index) const;

  /// Visit every rack with a free slot exactly once, in round-robin order
  /// from `start` (start, start+1, ..., wrap) — the all-racks scan order
  /// with the full racks left out. `fn(RackId)` returns false to stop
  /// early. `fn` may allocate the visited rack's last slot; it must not
  /// release a slot.
  template <typename Fn>
  void for_each_free_rack_from(std::int32_t start, Fn&& fn) {
    if (visit_free_racks(start, num_racks(), fn)) {
      visit_free_racks(0, start, fn);
    }
  }

 private:
  [[nodiscard]] std::int32_t node_server_index(RackId rack,
                                               NodeId node) const;

  // Visit free racks in [lo, hi); false if fn stopped the walk. The word
  // is re-read per step, so a bit fn cleared is never served stale.
  template <typename Fn>
  bool visit_free_racks(std::int32_t lo, std::int32_t hi, Fn& fn) {
    std::int32_t i = lo;
    while (i < hi) {
      const std::uint64_t word =
          free_racks_[static_cast<std::size_t>(i >> 6)] >>
          (static_cast<std::uint32_t>(i) & 63U);
      if (word == 0) {
        i = (i | 63) + 1;  // next word boundary
        continue;
      }
      i += std::countr_zero(word);
      if (i >= hi) return true;
      if (!fn(RackId{i})) return false;
      ++i;
    }
    return true;
  }

  void set_rack_free(RackId rack, bool free);

  HybridTopology topo_;
  // free_[rack][server] = free slots on that server.
  std::vector<std::vector<std::int32_t>> free_;
  std::vector<std::int64_t> free_per_rack_;
  std::int64_t total_free_ = 0;
  // Bit r of word r / 64 is set iff free_per_rack_[r] > 0.
  std::vector<std::uint64_t> free_racks_;
};

}  // namespace cosched
