#include "cluster/cluster.h"

#include <algorithm>

#include "common/check.h"

namespace cosched {

Cluster::Cluster(const HybridTopology& topo) : topo_(topo) {
  topo_.validate();
  free_.assign(static_cast<std::size_t>(topo_.num_racks),
               std::vector<std::int32_t>(
                   static_cast<std::size_t>(topo_.servers_per_rack),
                   topo_.slots_per_server));
  free_per_rack_.assign(static_cast<std::size_t>(topo_.num_racks),
                        topo_.slots_per_rack());
  total_free_ = topo_.total_slots();
  free_racks_.assign(static_cast<std::size_t>((topo_.num_racks + 63) / 64),
                     0);
  for (std::int32_t r = 0; r < topo_.num_racks; ++r) {
    set_rack_free(RackId{r}, true);
  }
}

void Cluster::set_rack_free(RackId rack, bool free) {
  const auto r = static_cast<std::uint32_t>(rack.value());
  const std::uint64_t bit = std::uint64_t{1} << (r & 63U);
  if (free) {
    free_racks_[r >> 6] |= bit;
  } else {
    free_racks_[r >> 6] &= ~bit;
  }
}

std::int64_t Cluster::free_slots(RackId rack) const {
  COSCHED_CHECK(rack.valid() && rack.value() < topo_.num_racks);
  return free_per_rack_[static_cast<std::size_t>(rack.value())];
}

std::int64_t Cluster::used_slots(RackId rack) const {
  return topo_.slots_per_rack() - free_slots(rack);
}

std::int64_t Cluster::total_free_slots() const { return total_free_; }

NodeId Cluster::node_id(RackId rack, std::int32_t server_index) const {
  COSCHED_CHECK(rack.valid() && rack.value() < topo_.num_racks);
  COSCHED_CHECK(server_index >= 0 && server_index < topo_.servers_per_rack);
  return NodeId{rack.value() * topo_.servers_per_rack + server_index};
}

std::int32_t Cluster::node_server_index(RackId rack, NodeId node) const {
  COSCHED_CHECK(node.valid());
  const std::int64_t idx = node.value() - rack.value() * topo_.servers_per_rack;
  COSCHED_CHECK_MSG(idx >= 0 && idx < topo_.servers_per_rack,
                    "node " << node << " is not on rack " << rack);
  return static_cast<std::int32_t>(idx);
}

NodeId Cluster::allocate_slot(RackId rack) {
  COSCHED_CHECK_MSG(free_slots(rack) > 0, "no free slot on rack " << rack);
  auto& servers = free_[static_cast<std::size_t>(rack.value())];
  const auto best = std::max_element(servers.begin(), servers.end());
  COSCHED_CHECK(*best > 0);
  --*best;
  if (--free_per_rack_[static_cast<std::size_t>(rack.value())] == 0) {
    set_rack_free(rack, false);
  }
  --total_free_;
  return node_id(rack,
                 static_cast<std::int32_t>(best - servers.begin()));
}

void Cluster::release_slot(RackId rack, NodeId node) {
  const std::int32_t server = node_server_index(rack, node);
  auto& count = free_[static_cast<std::size_t>(rack.value())]
                     [static_cast<std::size_t>(server)];
  COSCHED_CHECK_MSG(count < topo_.slots_per_server,
                    "slot double-release on node " << node);
  ++count;
  if (++free_per_rack_[static_cast<std::size_t>(rack.value())] == 1) {
    set_rack_free(rack, true);
  }
  ++total_free_;
}

}  // namespace cosched
