#include "fabric/rotor_fabric.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "coflow/cct_bound.h"
#include "common/check.h"

namespace cosched {

Duration RotorFabric::cct_lower_bound(const TrafficMatrix& matrix) const {
  const Bandwidth bw = link_rate();
  const Duration delta = reconfig_delay();
  // Usable bits per slot: circuits rise delta after every slot boundary
  // (slot_begin -> circuits_up), so no port moves more than this in one
  // slot — including a slot the coflow's release straddles.
  const double cap_bits = (period_ - delta).sec() * bw.in_bits_per_sec();
  const auto port = [&](const TrafficMatrix::PortLoad& p) {
    if (p.sum.is_zero()) return Duration::zero();
    const Duration drain = transfer_time(p.sum, bw);
    const double bits = static_cast<double>(p.sum.in_bytes()) * 8.0;
    // Distinct slots this port must touch: one per destination (each slot
    // wires the port to exactly one peer) and enough to carry the bits.
    const double slots = std::max(static_cast<double>(p.degree),
                                  std::ceil(bits / cap_bits));
    if (slots <= 1.0) return drain;
    // The first used slot's boundary may precede the release (a chained
    // transfer keeps the circuit up mid-slot), so only n-2 full periods
    // provably separate the release from the last slot's boundary; that
    // slot pays delta and still moves what the earlier n-1 could not.
    const double residual = std::max(0.0, bits - (slots - 1.0) * cap_bits);
    const Duration tail =
        period_ * (slots - 2.0) + delta +
        Duration::seconds(residual / bw.in_bits_per_sec());
    return std::max(drain, tail);
  };
  return max_over_ports(matrix, port);
}

RotorFabric::RotorFabric(Simulator& sim, const HybridTopology& topo,
                         Duration period)
    : Fabric(topo), sim_(sim), period_(period) {
  COSCHED_CHECK_MSG(period_ > Duration::zero(),
                    "rotor period must be positive");
  COSCHED_CHECK_MSG(
      topo_.ocs_reconfig_delay < period_,
      "rotor period " << period_ << " leaves no transfer time after the "
                      << topo_.ocs_reconfig_delay << " reconfiguration delay");
  const auto racks = static_cast<std::size_t>(topo_.num_racks);
  pending_by_pair_.resize(racks * racks);
  active_by_src_.resize(racks);
}

std::string RotorFabric::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rotor:%gs", period_.sec());
  return buf;
}

void RotorFabric::submit(Coflow& /*coflow*/, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK_MSG(flow.src() != flow.dst(),
                    "intra-rack flow routed to the rotor fabric");
  COSCHED_CHECK_MSG(topo_.num_racks >= 2,
                    "rotor fabric needs at least two racks");
  pending_by_pair_[pair_index(flow.src(), flow.dst())].push_back(&flow);
  ++pending_count_;
  if (!armed_) arm_from(sim_.now());
}

void RotorFabric::arm_from(SimTime now) {
  // Service starts at the next absolute slot boundary: slot k covers
  // [k*P, (k+1)*P), and a mid-slot arrival waits out the remainder of the
  // current slot (its circuits were planned at a boundary it missed).
  armed_ = true;
  slot_ = static_cast<std::int64_t>(std::floor(now.sec() / period_.sec())) + 1;
  const std::int64_t slot = slot_;
  slot_event_ = sim_.schedule_at(boundary(slot),
                                 [this, slot] { slot_begin(slot); });
}

void RotorFabric::slot_begin(std::int64_t slot) {
  ++slots_run_;
  slot_ = slot;
  slot_end_ = boundary(slot + 1);
  // Preempt the previous slot's unfinished transfers: settle, credit, and
  // requeue each at the head of its pair queue (it was the head when it
  // started, so FIFO order is preserved). Completion events are only ever
  // scheduled strictly inside a slot, so none is pending here; a transfer
  // that drains exactly at the boundary settles to zero and completes now.
  for (auto& active : active_by_src_) {
    if (active.flow == nullptr) continue;
    Flow& flow = *active.flow;
    settle_active(active);
    flow.set_rate(Bandwidth::zero());
    active.flow = nullptr;
    --active_count_;
    if (flow.remaining_bits() <= 0.0) {
      flow.mark_completed(sim_.now());
      notify_flow_complete(flow);
      continue;
    }
    pending_by_pair_[pair_index(flow.src(), flow.dst())].push_front(&flow);
    ++pending_count_;
  }
  if (pending_count_ == 0) {
    // Idle: stop the clock so the simulation can drain. The next submit
    // re-arms at the then-next boundary.
    armed_ = false;
    return;
  }
  shift_ = shift_for(slot);
  // The slot's circuits come up after the reconfiguration delay.
  circuits_event_ =
      sim_.schedule_after(topo_.ocs_reconfig_delay, [this] { circuits_up(); });
  const std::int64_t next = slot + 1;
  slot_event_ = sim_.schedule_at(boundary(next),
                                 [this, next] { slot_begin(next); });
}

void RotorFabric::circuits_up() {
  const std::int32_t racks = topo_.num_racks;
  for (std::int32_t s = 0; s < racks; ++s) {
    const RackId src{s};
    const RackId dst{(s + shift_) % racks};
    std::deque<Flow*>& queue = pending_by_pair_[pair_index(src, dst)];
    if (queue.empty()) continue;
    start_transfer(src, queue);
  }
}

void RotorFabric::start_transfer(RackId src, std::deque<Flow*>& queue) {
  Flow& flow = *queue.front();
  queue.pop_front();
  --pending_count_;
  Active& active = active_by_src_[static_cast<std::size_t>(src.value())];
  COSCHED_CHECK(active.flow == nullptr);
  active.flow = &flow;
  active.last_update = sim_.now();
  ++active_count_;
  flow.mark_started(sim_.now());
  flow.set_rate(link_rate());
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / link_rate().in_bits_per_sec());
  if (sim_.now() + eta < slot_end_) {
    flow.completion_event() = sim_.schedule_after(
        eta, [this, src] { on_transfer_complete(src); });
  }
  // Otherwise the slot boundary settles (and possibly completes) the flow.
}

void RotorFabric::settle_active(Active& active) {
  const double moved = active.flow->settle(sim_.now() - active.last_update);
  active.last_update = sim_.now();
  if (moved > 0.0) credit_drained_bits(moved);
}

void RotorFabric::on_transfer_complete(RackId src) {
  Active& active = active_by_src_[static_cast<std::size_t>(src.value())];
  COSCHED_CHECK(active.flow != nullptr);
  Flow& flow = *active.flow;
  settle_active(active);
  flow.set_rate(Bandwidth::zero());
  active.flow = nullptr;
  --active_count_;
  flow.mark_completed(sim_.now());
  notify_flow_complete(flow);
  // The circuit stays up for the rest of the slot: chain the next queued
  // flow of the same pair, if any.
  const RackId dst{(src.value() + shift_) % topo_.num_racks};
  std::deque<Flow*>& queue = pending_by_pair_[pair_index(src, dst)];
  if (!queue.empty()) start_transfer(src, queue);
}

void RotorFabric::demand_added(Flow& flow) {
  Active& active = active_by_src_[static_cast<std::size_t>(flow.src().value())];
  if (active.flow != &flow) {
    return;  // queued; the grown size is picked up when service starts
  }
  settle_active(active);
  flow.completion_event().cancel();
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / link_rate().in_bits_per_sec());
  const RackId src = flow.src();
  if (sim_.now() + eta < slot_end_) {
    flow.completion_event() = sim_.schedule_after(
        eta, [this, src] { on_transfer_complete(src); });
  }
}

std::vector<Flow*> RotorFabric::evict_all() {
  std::vector<Flow*> evicted;
  evicted.reserve(active_count_ + pending_count_);
  // Circuit holders first (by source rack), then queued flows (by pair
  // index, FIFO within a pair) — the same shape as Sunflow's eviction.
  for (auto& active : active_by_src_) {
    if (active.flow == nullptr) continue;
    Flow& flow = *active.flow;
    settle_active(active);
    flow.completion_event().cancel();
    flow.set_rate(Bandwidth::zero());
    active.flow = nullptr;
    --active_count_;
    evicted.push_back(&flow);
  }
  for (auto& queue : pending_by_pair_) {
    for (Flow* f : queue) evicted.push_back(f);
    queue.clear();
  }
  pending_count_ = 0;
  slot_event_.cancel();
  circuits_event_.cancel();
  armed_ = false;
  return evicted;
}

DataSize RotorFabric::bytes_in_flight() const {
  double bits = 0.0;
  for (const auto& queue : pending_by_pair_) {
    for (const Flow* f : queue) bits += f->remaining_bits();
  }
  for (const auto& active : active_by_src_) {
    if (active.flow != nullptr) bits += active.flow->remaining_bits();
  }
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

std::string RotorFabric::self_check() const {
  std::size_t actives = 0;
  for (std::size_t s = 0; s < active_by_src_.size(); ++s) {
    const Active& active = active_by_src_[s];
    if (active.flow == nullptr) continue;
    ++actives;
    const Flow& flow = *active.flow;
    const std::int32_t racks = topo_.num_racks;
    const std::int32_t expect_dst =
        (static_cast<std::int32_t>(s) + shift_) % racks;
    if (flow.src().value() != static_cast<std::int32_t>(s) ||
        flow.dst().value() != expect_dst) {
      std::ostringstream os;
      os << "rotor transfer " << flow.src() << " -> " << flow.dst()
         << " does not match slot " << slot_ << "'s matching (shift "
         << shift_ << ")";
      return os.str();
    }
  }
  if (actives != active_count_) {
    std::ostringstream os;
    os << "rotor active-transfer count diverged: counter " << active_count_
       << ", actual " << actives;
    return os.str();
  }
  std::size_t queued = 0;
  for (const auto& queue : pending_by_pair_) queued += queue.size();
  if (queued != pending_count_) {
    std::ostringstream os;
    os << "rotor pending-flow count diverged: counter " << pending_count_
       << ", actual " << queued;
    return os.str();
  }
  return {};
}

}  // namespace cosched
