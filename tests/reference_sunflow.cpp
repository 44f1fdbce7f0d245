#include "reference_sunflow.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "coflow/cct_bound.h"
#include "coflow/coflow.h"
#include "coflow/matching.h"
#include "common/check.h"
#include "obs/observability.h"

namespace cosched::oracle {

ReferenceOcsFabric::ReferenceOcsFabric(Simulator& sim,
                                       const HybridTopology& topo,
                                       std::int32_t planes)
    : Fabric(topo), sim_(sim) {
  COSCHED_CHECK_MSG(planes >= 1,
                    "ReferenceOcsFabric needs at least one plane, got "
                        << planes);
  const auto racks = static_cast<std::size_t>(topo.num_racks);
  ports_.assign(static_cast<std::size_t>(planes),
                PlanePorts{std::vector<const Flow*>(racks, nullptr),
                           std::vector<const Flow*>(racks, nullptr)});
  down_.assign(static_cast<std::size_t>(planes), 0);
}

Duration ReferenceOcsFabric::cct_lower_bound(
    const TrafficMatrix& matrix) const {
  const auto k = static_cast<double>(num_planes());
  if (num_planes() == 1) {
    // The paper's fabric: delegate to the original free function so ocs:1
    // stays bit-identical to every pre-seam result.
    return ::cosched::cct_lower_bound(matrix, link_rate(), reconfig_delay());
  }
  const Bandwidth bw = link_rate();
  const Duration delta = reconfig_delay();
  // Per-port: the port's total busy time (transfer + one setup per flow)
  // is split across at most K plane transceivers, and however the flows
  // are packed, some plane carries at least ceil(degree/K) of the setups.
  Duration bound =
      max_over_ports(matrix, [&](const TrafficMatrix::PortLoad& p) {
        const Duration busy = (transfer_time(p.sum, bw) +
                               delta * static_cast<double>(p.degree)) /
                              k;
        const Duration setups =
            delta * std::ceil(static_cast<double>(p.degree) / k);
        return std::max(busy, setups);
      });
  // A flow rides exactly one circuit on one plane: extra planes never
  // shorten a single transfer below setup + full drain.
  for (const auto& entry : matrix.entries()) {
    bound = std::max(bound, ocs_flow_time(entry.second, bw, delta));
  }
  return bound;
}

void ReferenceOcsFabric::submit(Coflow& coflow, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK_MSG(flow.src() != flow.dst(),
                    "intra-rack flow routed to the circuit fabric");
  auto it = entries_.find(coflow.id());
  if (it == entries_.end()) {
    CoflowEntry entry;
    entry.coflow = &coflow;
    // Shortest-bound-first priority, frozen at first submit. The fabric's
    // own bound, not the single-circuit formula: on ocs:K the per-plane
    // formula inverted wide-vs-tall coflow ordering (K = 1 is the same
    // function, so the paper's ordering is pinned unchanged).
    entry.priority_sec = cct_lower_bound(coflow.cross_rack_matrix()).sec();
    it = entries_.emplace(coflow.id(), std::move(entry)).first;
    // Keep `order_` sorted by (priority, id): stable, deterministic.
    auto pos = std::find_if(order_.begin(), order_.end(), [&](CoflowId id) {
      const CoflowEntry& e = entries_.at(id);
      return e.priority_sec > it->second.priority_sec ||
             (e.priority_sec == it->second.priority_sec && id > coflow.id());
    });
    order_.insert(pos, coflow.id());
  }
  it->second.pending.push_back(&flow);
  request_allocation_pass();
}

void ReferenceOcsFabric::demand_added(Flow& flow) {
  auto it = active_.find(flow.id());
  if (it == active_.end()) {
    return;  // still pending; the grown size is picked up at circuit setup
  }
  ActiveTransfer& at = it->second;
  if (at.state == TransferState::kReconfiguring) {
    return;  // size grows before the transfer begins; nothing to re-plan
  }
  // Settle what has drained so far, then re-plan the completion event. The
  // settled bits are credited when the transfer ends (completion credits
  // the whole flow; eviction credits the transfer), so track them both per
  // transfer and in the fabric-wide uncredited counter the auditor uses.
  const double moved = flow.settle(sim_.now() - at.last_update);
  at.settled_bits += moved;
  uncredited_settled_bits_ += moved;
  at.last_update = sim_.now();
  flow.completion_event().cancel();
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / link_rate().in_bits_per_sec());
  FlowId id = flow.id();
  flow.completion_event() =
      sim_.schedule_after(eta, [this, id] { on_transfer_complete(id); });
}

std::size_t ReferenceOcsFabric::pending_flows() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : entries_) n += entry.pending.size();
  return n;
}

DataSize ReferenceOcsFabric::bytes_in_flight() const {
  double bits = 0.0;
  for (const auto& [id, entry] : entries_) {
    for (const Flow* f : entry.pending) bits += f->remaining_bits();
  }
  for (const auto& [id, at] : active_) bits += at.flow->remaining_bits();
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

void ReferenceOcsFabric::evict_transfer(ActiveTransfer& at) {
  Flow& flow = *at.flow;
  if (at.state == TransferState::kTransferring) {
    // Credit everything this transfer drained: the final settle plus any
    // bits settled earlier at demand_added points (previously lost).
    const double moved =
        flow.settle(sim_.now() - at.last_update) + at.settled_bits;
    uncredited_settled_bits_ -= at.settled_bits;
    if (moved > 0.0) credit_drained_bits(moved);
    flow.completion_event().cancel();
    flow.set_rate(Bandwidth::zero());
  }
  // Tears down a connected circuit, or cancels one mid-reconfiguration:
  // the caller erases the transfer, so its pending setup event no-ops.
  teardown_circuit(at);
}

std::vector<Flow*> ReferenceOcsFabric::evict_all() {
  std::vector<Flow*> evicted;
  evicted.reserve(active_.size() + pending_flows());
  for (auto& [id, at] : active_) {
    evict_transfer(at);
    evicted.push_back(at.flow);
  }
  active_.clear();
  for (CoflowId cid : order_) {
    for (Flow* f : entries_.at(cid).pending) evicted.push_back(f);
  }
  entries_.clear();
  order_.clear();
  return evicted;
}

std::vector<Flow*> ReferenceOcsFabric::begin_plane_outage(
    std::int32_t plane_index) {
  COSCHED_CHECK_MSG(plane_index >= 0 && plane_index < num_planes(),
                    name() << " has no plane " << plane_index);
  ++down_[static_cast<std::size_t>(plane_index)];
  std::vector<Flow*> evicted;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.plane != plane_index) {
      ++it;
      continue;
    }
    evict_transfer(it->second);
    evicted.push_back(it->second.flow);
    it = active_.erase(it);
  }
  // Drop coflow entries left with nothing queued and nothing in flight, so
  // order_ does not accumulate husks across repeated plane outages. (A
  // coflow that later reopens demand is resubmitted like any new coflow.)
  for (auto eit = entries_.begin(); eit != entries_.end();) {
    bool live = !eit->second.pending.empty();
    for (auto ait = active_.begin(); !live && ait != active_.end(); ++ait) {
      live = ait->second.flow->coflow() == eit->first;
    }
    if (live) {
      ++eit;
      continue;
    }
    order_.erase(std::remove(order_.begin(), order_.end(), eit->first),
                 order_.end());
    eit = entries_.erase(eit);
  }
  return evicted;
}

void ReferenceOcsFabric::end_plane_outage(std::int32_t plane_index) {
  COSCHED_CHECK_MSG(plane_index >= 0 && plane_index < num_planes(),
                    name() << " has no plane " << plane_index);
  auto& depth = down_[static_cast<std::size_t>(plane_index)];
  COSCHED_CHECK_MSG(depth > 0, "plane " << plane_index
                                        << " outage ended that never began");
  --depth;
  // Queued demand may have been waiting for exactly this plane's ports.
  if (depth == 0) request_allocation_pass();
}

void ReferenceOcsFabric::request_allocation_pass() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    pass_scheduled_ = false;
    allocation_pass();
  });
}

void ReferenceOcsFabric::allocation_pass() {
  // Ports that a higher-priority coflow still needs (pending demand it
  // could not start this pass) are *reserved*: a lower-priority coflow may
  // not take them even if they are momentarily free. Without this, a long
  // low-priority transfer can slip onto a port during the few milliseconds
  // the head coflow spends waiting for its matching port to reconfigure,
  // inverting Sunflow's shortest-coflow-first order. Reservations span all
  // planes (see the header comment).
  const auto num_racks = static_cast<std::size_t>(topology().num_racks);
  if (reserved_out_.size() < num_racks) {
    reserved_out_.resize(num_racks, 0);
    reserved_in_.resize(num_racks, 0);
    src_seen_.resize(num_racks, 0);
    dst_seen_.resize(num_racks, 0);
    src_slot_.resize(num_racks, 0);
    dst_slot_.resize(num_racks, 0);
  }
  std::fill(reserved_out_.begin(), reserved_out_.end(), 0);
  std::fill(reserved_in_.begin(), reserved_in_.end(), 0);
  const std::int32_t planes = num_planes();
  for (CoflowId cid : order_) {
    CoflowEntry& entry = entries_.at(cid);
    if (entry.pending.empty()) continue;
    // Try every available plane in plane order. On a single-plane fabric
    // this loop body runs once — the pre-seam code sequence, bit for bit.
    for (std::int32_t p = 0; p < planes && !entry.pending.empty(); ++p) {
      if (!plane_available(p)) continue;
      match_on_plane(entry, p);
    }
    // Whatever this coflow could not start keeps its ports reserved
    // against lower-priority coflows.
    for (Flow* f : entry.pending) {
      reserved_out_[static_cast<std::size_t>(f->src().value())] = 1;
      reserved_in_[static_cast<std::size_t>(f->dst().value())] = 1;
    }
  }
}

void ReferenceOcsFabric::match_on_plane(CoflowEntry& entry,
                                        std::int32_t plane_index) {
  const PlanePorts& ports = ports_[static_cast<std::size_t>(plane_index)];
  // Give this coflow as many circuits as its pending flows can use on the
  // plane's currently-free ports: a maximum bipartite matching between free
  // source output ports and free destination input ports. This is what
  // lets an all-to-all shuffle use rotations of simultaneous circuits
  // instead of serializing (Goal-2 / Figure 2 of the paper). srcs_/dsts_
  // collect eligible racks in first-seen pending order, exactly as the
  // former std::map emplace did.
  ++scratch_gen_;
  srcs_.clear();
  dsts_.clear();
  for (Flow* f : entry.pending) {
    const auto s = static_cast<std::size_t>(f->src().value());
    const auto d = static_cast<std::size_t>(f->dst().value());
    if (ports.out[s] != nullptr || ports.in[d] != nullptr ||
        reserved_out_[s] != 0 || reserved_in_[d] != 0) {
      continue;
    }
    if (src_seen_[s] != scratch_gen_) {
      src_seen_[s] = scratch_gen_;
      src_slot_[s] = srcs_.size();
      srcs_.push_back(f->src());
    }
    if (dst_seen_[d] != scratch_gen_) {
      dst_seen_[d] = scratch_gen_;
      dst_slot_[d] = dsts_.size();
      dsts_.push_back(f->dst());
    }
  }
  if (srcs_.empty() || dsts_.empty()) return;

  // Flows are aggregated per rack pair within a coflow, so at most one
  // pending flow exists per (src, dst) edge.
  if (adj_.size() < srcs_.size()) adj_.resize(srcs_.size());
  for (std::size_t i = 0; i < srcs_.size(); ++i) adj_[i].clear();
  BipartiteGraph graph(srcs_.size(), dsts_.size());
  // Deterministic edge order: sort pending by (src, dst).
  std::sort(entry.pending.begin(), entry.pending.end(),
            [](const Flow* a, const Flow* b) {
              return std::make_pair(a->src(), a->dst()) <
                     std::make_pair(b->src(), b->dst());
            });
  for (Flow* f : entry.pending) {
    const auto s = static_cast<std::size_t>(f->src().value());
    const auto d = static_cast<std::size_t>(f->dst().value());
    if (src_seen_[s] != scratch_gen_ || dst_seen_[d] != scratch_gen_) {
      continue;
    }
    graph.add_edge(src_slot_[s], dst_slot_[d]);
    adj_[src_slot_[s]].emplace_back(dst_slot_[d], f);
  }
  const MatchingResult match = maximum_bipartite_matching(graph);

  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    const std::size_t j = match.match_left[i];
    if (j == MatchingResult::kUnmatched) continue;
    Flow* flow = nullptr;
    for (const auto& [dj, f] : adj_[i]) {
      if (dj == j) flow = f;  // last match mirrors the former map overwrite
    }
    COSCHED_CHECK(flow != nullptr);
    entry.pending.erase(
        std::remove(entry.pending.begin(), entry.pending.end(), flow),
        entry.pending.end());
    active_.emplace(flow->id(),
                    ActiveTransfer{flow, TransferState::kReconfiguring,
                                   sim_.now(), 0.0, plane_index});
    if (obs_ != nullptr) {
      obs_->trace.record({.kind = TraceEventKind::kCircuitSetup,
                          .at = sim_.now(),
                          .job = flow->job(),
                          .flow = flow->id(),
                          .src = flow->src(),
                          .dst = flow->dst(),
                          .a = flow->size().in_bytes(),
                          .b = entry.priority_sec});
    }
    setup_circuit(plane_index, *flow);
  }
}

void ReferenceOcsFabric::setup_circuit(std::int32_t plane_index,
                                       const Flow& flow) {
  PlanePorts& ports = ports_[static_cast<std::size_t>(plane_index)];
  const RackId src = flow.src();
  const RackId dst = flow.dst();
  const Flow*& out = ports.out[static_cast<std::size_t>(src.value())];
  const Flow*& in = ports.in[static_cast<std::size_t>(dst.value())];
  COSCHED_CHECK_MSG(out == nullptr, "output port of rack "
                                        << src << " busy on plane "
                                        << plane_index);
  COSCHED_CHECK_MSG(in == nullptr, "input port of rack "
                                       << dst << " busy on plane "
                                       << plane_index);
  COSCHED_CHECK_MSG(src != dst, "self-circuit requested for rack " << src);
  out = &flow;
  in = &flow;
  const Duration delay = reconfig_delay_provider_
                             ? reconfig_delay_provider_()
                             : reconfig_delay();
  const FlowId id = flow.id();
  sim_.schedule_after(delay, [this, id] { start_transfer(id); });
}

void ReferenceOcsFabric::teardown_circuit(const ActiveTransfer& at) {
  PlanePorts& ports = ports_[static_cast<std::size_t>(at.plane)];
  const RackId src = at.flow->src();
  const RackId dst = at.flow->dst();
  const Flow*& out = ports.out[static_cast<std::size_t>(src.value())];
  const Flow*& in = ports.in[static_cast<std::size_t>(dst.value())];
  COSCHED_CHECK_MSG(out == at.flow && in == at.flow,
                    "no circuit " << src << "->" << dst << " on plane "
                                  << at.plane << " to tear down");
  out = nullptr;
  in = nullptr;
  if (obs_ != nullptr) {
    obs_->trace.record({.kind = TraceEventKind::kCircuitTeardown,
                        .at = sim_.now(),
                        .src = src,
                        .dst = dst});
  }
}

void ReferenceOcsFabric::start_transfer(FlowId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;  // evicted during the delay
  ActiveTransfer& at = it->second;
  COSCHED_CHECK(at.state == TransferState::kReconfiguring);
  Flow& flow = *at.flow;
  if (obs_ != nullptr) {
    obs_->trace.record({.kind = TraceEventKind::kCircuitUp,
                        .at = sim_.now(),
                        .src = flow.src(),
                        .dst = flow.dst()});
  }
  at.state = TransferState::kTransferring;
  at.last_update = sim_.now();
  flow.mark_started(sim_.now());
  flow.set_rate(link_rate());
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / link_rate().in_bits_per_sec());
  flow.completion_event() =
      sim_.schedule_after(eta, [this, id] { on_transfer_complete(id); });
}

void ReferenceOcsFabric::on_transfer_complete(FlowId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Flow& flow = *it->second.flow;
  teardown_circuit(it->second);
  // Credit only what this flow has not been credited before: a flow whose
  // demand reopened after an earlier circuit completion carries its first
  // transfer in size(), and crediting the full size again would double-
  // count it. Integer DataSize arithmetic, so the common single-completion
  // case credits exactly size() as before.
  credit_bytes(flow.size() - flow.circuit_credited());
  flow.set_circuit_credited(flow.size());
  uncredited_settled_bits_ -= it->second.settled_bits;
  flow.mark_completed(sim_.now());
  active_.erase(it);

  // Drop empty coflow entries so `order_` stays short.
  auto eit = entries_.find(flow.coflow());
  if (eit != entries_.end() && eit->second.pending.empty() &&
      eit->second.coflow->all_flows_complete()) {
    order_.erase(std::remove(order_.begin(), order_.end(), flow.coflow()),
                 order_.end());
    entries_.erase(eit);
  }

  notify_flow_complete(flow);
  request_allocation_pass();
}

std::int64_t ReferenceOcsFabric::active_circuits() const {
  return std::count_if(active_.begin(), active_.end(), [](const auto& entry) {
    return entry.second.state == TransferState::kTransferring;
  });
}

}  // namespace cosched::oracle
