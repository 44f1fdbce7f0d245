#include "fabric/mesh_fabric.h"

#include <algorithm>
#include <sstream>

#include "coflow/traffic_matrix.h"
#include "common/check.h"

namespace cosched {

MeshFabric::MeshFabric(Simulator& sim, const HybridTopology& topo)
    : Fabric(topo),
      sim_(sim),
      queues_(static_cast<std::size_t>(topo.num_racks) *
              static_cast<std::size_t>(topo.num_racks)),
      active_(queues_.size()) {}

void MeshFabric::submit(Coflow& /*coflow*/, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK_MSG(flow.src() != flow.dst(),
                    "intra-rack flow routed to " << name());
  const std::size_t pair = pair_index(flow);
  queues_[pair].push_back(&flow);
  ++pending_count_;
  if (active_[pair].flow == nullptr) start_transfer(pair);
}

void MeshFabric::start_transfer(std::size_t pair) {
  Flow& flow = *queues_[pair].front();
  queues_[pair].pop_front();
  --pending_count_;
  Active& active = active_[pair];
  COSCHED_CHECK(active.flow == nullptr);
  active.flow = &flow;
  active.last_update = sim_.now();
  ++active_count_;
  flow.mark_started(sim_.now());
  flow.set_rate(link_rate());
  schedule_completion(pair, flow);
}

void MeshFabric::schedule_completion(std::size_t pair, Flow& flow) {
  const Duration eta = Duration::seconds(flow.remaining_bits() /
                                         flow.rate().in_bits_per_sec());
  flow.completion_event() =
      sim_.schedule_after(eta, [this, pair] { on_transfer_complete(pair); });
}

void MeshFabric::settle_active(Active& active) {
  const double moved = active.flow->settle(sim_.now() - active.last_update);
  active.last_update = sim_.now();
  if (moved > 0.0) credit_drained_bits(moved);
}

void MeshFabric::on_transfer_complete(std::size_t pair) {
  Active& active = active_[pair];
  COSCHED_CHECK(active.flow != nullptr);
  Flow& flow = *active.flow;
  settle_active(active);
  flow.set_rate(Bandwidth::zero());
  active.flow = nullptr;
  --active_count_;
  flow.mark_completed(sim_.now());
  notify_flow_complete(flow);
  if (!queues_[pair].empty()) start_transfer(pair);
}

void MeshFabric::demand_added(Flow& flow) {
  const std::size_t pair = pair_index(flow);
  Active& active = active_[pair];
  if (active.flow != &flow) {
    return;  // queued; the grown size is picked up when service starts
  }
  settle_active(active);
  flow.completion_event().cancel();
  schedule_completion(pair, flow);
}

std::vector<Flow*> MeshFabric::evict_all() {
  std::vector<Flow*> evicted;
  evicted.reserve(active_count_ + pending_count_);
  // In-service transfers first, then queued flows, both in pair-index
  // order (FIFO within a pair) — deterministic by construction.
  for (auto& active : active_) {
    if (active.flow == nullptr) continue;
    Flow& flow = *active.flow;
    settle_active(active);
    flow.completion_event().cancel();
    flow.set_rate(Bandwidth::zero());
    active.flow = nullptr;
    --active_count_;
    evicted.push_back(&flow);
  }
  for (auto& queue : queues_) {
    for (Flow* f : queue) evicted.push_back(f);
    queue.clear();
  }
  pending_count_ = 0;
  return evicted;
}

DataSize MeshFabric::bytes_in_flight() const {
  double bits = 0.0;
  for (const auto& queue : queues_) {
    for (const Flow* f : queue) bits += f->remaining_bits();
  }
  for (const auto& active : active_) {
    if (active.flow != nullptr) bits += active.flow->remaining_bits();
  }
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

std::string MeshFabric::self_check() const {
  std::size_t actives = 0;
  for (std::size_t pair = 0; pair < active_.size(); ++pair) {
    const Active& active = active_[pair];
    if (active.flow == nullptr) continue;
    ++actives;
    if (pair_index(*active.flow) != pair) {
      std::ostringstream os;
      os << name() << " transfer " << active.flow->src() << " -> "
         << active.flow->dst() << " is in service on pair queue " << pair
         << " but belongs to pair queue " << pair_index(*active.flow);
      return os.str();
    }
  }
  if (actives != active_count_) {
    std::ostringstream os;
    os << name() << " active-transfer count diverged: counter "
       << active_count_ << ", actual " << actives;
    return os.str();
  }
  std::size_t queued = 0;
  for (const auto& queue : queues_) queued += queue.size();
  if (queued != pending_count_) {
    std::ostringstream os;
    os << name() << " pending-flow count diverged: counter " << pending_count_
       << ", actual " << queued;
    return os.str();
  }
  return {};
}

Duration MeshFabric::cct_lower_bound(const TrafficMatrix& matrix) const {
  Duration bound = Duration::zero();
  for (const auto& entry : matrix.entries()) {
    bound = std::max(bound, transfer_time(entry.second, link_rate()));
  }
  return bound;
}

}  // namespace cosched
