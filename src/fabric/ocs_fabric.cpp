#include "fabric/ocs_fabric.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "coflow/cct_bound.h"
#include "coflow/coflow.h"
#include "coflow/matching.h"
#include "common/check.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"

namespace cosched {

OcsFabric::OcsFabric(Simulator& sim, const HybridTopology& topo,
                     std::int32_t planes)
    : Fabric(topo), sim_(sim) {
  COSCHED_CHECK_MSG(planes >= 1, "OcsFabric needs at least one plane, got "
                                     << planes);
  const auto racks = static_cast<std::size_t>(topo.num_racks);
  ports_.assign(static_cast<std::size_t>(planes),
                PlanePorts{std::vector<const Flow*>(racks, nullptr),
                           std::vector<const Flow*>(racks, nullptr)});
  down_.assign(static_cast<std::size_t>(planes), 0);
  // A transfer holds one output port of one plane.
  active_.reserve(static_cast<std::size_t>(planes) * racks);
  out_queues_.resize(racks);
  in_queues_.resize(racks);
  is_dirty_out_.assign(racks, 0);
  is_dirty_in_.assign(racks, 0);
  src_seen_.assign(racks, 0);
  dst_seen_.assign(racks, 0);
  src_slot_.assign(racks, 0);
  dst_slot_.assign(racks, 0);
  out_gathered_.assign(racks, 0);
  bucket_started_.assign(racks, 0);
  bucket_.resize(racks);
}

bool OcsFabric::before(const CoflowEntry& a, const CoflowEntry& b) {
  return a.priority_sec < b.priority_sec ||
         (a.priority_sec == b.priority_sec && a.id < b.id);
}

Duration OcsFabric::cct_lower_bound(const TrafficMatrix& matrix) const {
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

void OcsFabric::submit(Coflow& coflow, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK_MSG(flow.src() != flow.dst(),
                    "intra-rack flow routed to the circuit fabric");
  auto it = entries_.find(coflow.id());
  if (it == entries_.end()) {
    CoflowEntry entry;
    entry.coflow = &coflow;
    entry.id = coflow.id();
    // Shortest-bound-first priority, frozen at first submit. The fabric's
    // own bound, not the single-circuit formula: on ocs:K the per-plane
    // formula inverted wide-vs-tall coflow ordering (K = 1 is the same
    // function, so the paper's ordering is pinned unchanged).
    entry.priority_sec = cct_lower_bound(coflow.cross_rack_matrix()).sec();
    it = entries_.emplace(coflow.id(), std::move(entry)).first;
  }
  CoflowEntry& entry = it->second;
  enqueue(flow, entry);
  ++entry.pending;
  ++pending_;
  // The flow can start only if its coflow heads its output port's queue,
  // and the pass looks at that port's head.
  mark_dirty(flow.src(), /*out_port=*/true);
  request_allocation_pass();
}

void OcsFabric::demand_added(Flow& flow) {
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

DataSize OcsFabric::bytes_in_flight() const {
  double bits = 0.0;
  for (const auto& [id, nodes] : queued_flows()) {
    for (const PendingNode* n : nodes) bits += n->flow->remaining_bits();
  }
  for (const FlowId id : transfer_ids()) {
    bits += active_.at(id).flow->remaining_bits();
  }
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

std::vector<FlowId> OcsFabric::transfer_ids() const {
  std::vector<FlowId> ids;
  ids.reserve(active_.size());
  for (const auto& [id, at] : active_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::map<CoflowId, std::vector<const OcsFabric::PendingNode*>>
OcsFabric::queued_flows() const {
  std::map<CoflowId, std::vector<const PendingNode*>> queued;
  for (const auto& queue : out_queues_) {
    for (const PortQueue& q : queue) {
      auto& nodes = queued[q.entry->id];
      for (const PortFlow& f : q.flows) nodes.push_back(&nodes_[f.node]);
    }
  }
  for (auto& [id, nodes] : queued) {
    const std::uint64_t sorted_below = entries_.at(id).sorted_below;
    std::sort(nodes.begin(), nodes.end(),
              [sorted_below](const PendingNode* a, const PendingNode* b) {
                return queue_key(*a, sorted_below) <
                       queue_key(*b, sorted_below);
              });
  }
  return queued;
}

void OcsFabric::evict_transfer(ActiveTransfer& at) {
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
  --at.entry->in_flight;
}

std::vector<Flow*> OcsFabric::evict_all() {
  std::vector<Flow*> evicted;
  evicted.reserve(active_.size() + pending_);
  for (const FlowId id : transfer_ids()) {
    ActiveTransfer& at = active_.at(id);
    evict_transfer(at);
    evicted.push_back(at.flow);
  }
  active_.clear();
  std::map<CoflowId, std::vector<const PendingNode*>> queued = queued_flows();
  std::vector<const CoflowEntry*> order;
  order.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const CoflowEntry* a, const CoflowEntry* b) {
              return before(*a, *b);
            });
  for (const CoflowEntry* entry : order) {
    for (const PendingNode* n : queued[entry->id]) evicted.push_back(n->flow);
  }
  entries_.clear();
  for (auto& queue : out_queues_) queue.clear();
  for (auto& queue : in_queues_) queue.clear();
  nodes_.clear();
  free_nodes_.clear();
  pending_ = 0;
  return evicted;
}

std::vector<Flow*> OcsFabric::begin_plane_outage(std::int32_t plane_index) {
  COSCHED_CHECK_MSG(plane_index >= 0 && plane_index < num_planes(),
                    name() << " has no plane " << plane_index);
  ++down_[static_cast<std::size_t>(plane_index)];
  std::vector<Flow*> evicted;
  for (const FlowId id : transfer_ids()) {
    ActiveTransfer& at = active_.at(id);
    if (at.plane != plane_index) continue;
    evict_transfer(at);
    evicted.push_back(at.flow);
    active_.erase(id);
  }
  // Drop coflow entries left with nothing queued and nothing in flight, so
  // entries do not accumulate husks across repeated plane outages. (A
  // coflow that later reopens demand is resubmitted like any new coflow.)
  std::erase_if(entries_, [](const auto& kv) {
    return kv.second.pending == 0 && kv.second.in_flight == 0;
  });
  return evicted;
}

void OcsFabric::end_plane_outage(std::int32_t plane_index) {
  COSCHED_CHECK_MSG(plane_index >= 0 && plane_index < num_planes(),
                    name() << " has no plane " << plane_index);
  auto& depth = down_[static_cast<std::size_t>(plane_index)];
  COSCHED_CHECK_MSG(depth > 0, "plane " << plane_index
                                        << " outage ended that never began");
  --depth;
  if (depth > 0) return;
  // Queued demand may have been waiting for exactly this plane's ports:
  // every port's head coflow looks again.
  for (std::int32_t r = 0; r < topology().num_racks; ++r) {
    mark_dirty(RackId{r}, /*out_port=*/true);
  }
  request_allocation_pass();
}

OcsFabric::PortQueue& OcsFabric::queue_of(std::vector<PortQueue>& queue,
                                          CoflowEntry& entry) {
  auto it = std::lower_bound(queue.begin(), queue.end(), entry,
                             [](const PortQueue& q, const CoflowEntry& e) {
                               return before(*q.entry, e);
                             });
  if (it == queue.end() || it->entry != &entry) {
    PortQueue q{&entry, {}};
    if (!spare_lists_.empty()) {
      q.flows = std::move(spare_lists_.back());
      spare_lists_.pop_back();
    }
    it = queue.insert(it, std::move(q));
  }
  return *it;
}

void OcsFabric::enqueue(Flow& flow, CoflowEntry& entry) {
  std::uint32_t node;
  if (free_nodes_.empty()) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  }
  PendingNode& n = nodes_[node];
  n = PendingNode{&flow, entry.next_seq++,
                  static_cast<std::uint32_t>(flow.src().value()),
                  static_cast<std::uint32_t>(flow.dst().value()), 0};
  std::vector<PortFlow>& out = queue_of(out_queues_[n.src], entry).flows;
  out.insert(std::upper_bound(out.begin(), out.end(), n.dst,
                              [](std::uint32_t dst, const PortFlow& f) {
                                return dst < f.rack;
                              }),
             PortFlow{n.dst, node});
  std::vector<PortFlow>& in = queue_of(in_queues_[n.dst], entry).flows;
  n.in_pos = static_cast<std::uint32_t>(in.size());
  in.push_back(PortFlow{n.src, node});
}

void OcsFabric::dequeue(std::uint32_t node, const CoflowEntry& entry) {
  const PendingNode& n = nodes_[node];
  for (const bool out_port : {true, false}) {
    const std::uint32_t rack = out_port ? n.src : n.dst;
    std::vector<PortQueue>& queue = (out_port ? out_queues_ : in_queues_)[rack];
    COSCHED_CHECK(head(queue) == &entry);
    std::vector<PortFlow>& flows = queue.front().flows;
    if (out_port) {
      const auto it = std::lower_bound(
          flows.begin(), flows.end(), n.dst,
          [](const PortFlow& f, std::uint32_t dst) { return f.rack < dst; });
      COSCHED_CHECK(it != flows.end() && it->node == node);
      flows.erase(it);  // keeps destination order
    } else {
      COSCHED_CHECK(flows[n.in_pos].node == node);
      flows[n.in_pos] = flows.back();
      nodes_[flows[n.in_pos].node].in_pos = n.in_pos;
      flows.pop_back();
    }
    if (!flows.empty()) continue;
    spare_lists_.push_back(std::move(flows));
    queue.erase(queue.begin());
    // The coflow no longer reserves this port. On one plane its new
    // circuit holds the port anyway; on K planes the other planes' copies
    // of the port open to the next coflow in the queue.
    if (num_planes() > 1 && !queue.empty()) {
      look(*queue.front().entry, RackId{rack}, out_port);
    }
  }
  free_nodes_.push_back(node);
}

void OcsFabric::mark_dirty(RackId rack, bool out_port) {
  const auto r = static_cast<std::size_t>(rack.value());
  char& flag = out_port ? is_dirty_out_[r] : is_dirty_in_[r];
  if (flag != 0) return;
  flag = 1;
  (out_port ? dirty_out_ : dirty_in_).push_back(rack);
}

void OcsFabric::look(CoflowEntry& entry, RackId rack, bool out_port) {
  if (entry.pass != pass_) {
    entry.pass = pass_;
    entry.look_out.clear();
    entry.look_in.clear();
    pass_heap_.push_back(&entry);
    std::push_heap(pass_heap_.begin(), pass_heap_.end(),
                   [](const CoflowEntry* a, const CoflowEntry* b) {
                     return before(*b, *a);
                   });
  }
  (out_port ? entry.look_out : entry.look_in).push_back(rack);
}

void OcsFabric::request_allocation_pass() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    pass_scheduled_ = false;
    allocation_pass();
  });
}

void OcsFabric::allocation_pass() {
  PerfScope perf(PerfPhase::kSunflowAlloc);
  if (perf.active()) perf.set_size(pending_);
  // Ports that a higher-priority coflow still needs (pending demand it
  // could not start this pass) are *reserved*: a lower-priority coflow may
  // not take them even if they are momentarily free. Without this, a long
  // low-priority transfer can slip onto a port during the few milliseconds
  // the head coflow spends waiting for its matching port to reconfigure,
  // inverting Sunflow's shortest-coflow-first order. Reservations span all
  // planes (see the header comment). A port's queue puts the coflow that
  // holds its reservation first, so only that head coflow can use a dirty
  // port; the pass visits the head coflows of the dirty ports in priority
  // order.
  ++pass_;
  for (RackId r : dirty_out_) {
    const auto i = static_cast<std::size_t>(r.value());
    is_dirty_out_[i] = 0;
    if (CoflowEntry* e = head(out_queues_[i])) look(*e, r, /*out_port=*/true);
  }
  for (RackId r : dirty_in_) {
    const auto i = static_cast<std::size_t>(r.value());
    is_dirty_in_[i] = 0;
    if (CoflowEntry* e = head(in_queues_[i])) look(*e, r, /*out_port=*/false);
  }
  dirty_out_.clear();
  dirty_in_.clear();
  while (!pass_heap_.empty()) {
    std::pop_heap(pass_heap_.begin(), pass_heap_.end(),
                  [](const CoflowEntry* a, const CoflowEntry* b) {
                    return before(*b, *a);
                  });
    CoflowEntry& entry = *pass_heap_.back();
    pass_heap_.pop_back();
    allocate(entry);
  }
}

void OcsFabric::allocate(CoflowEntry& entry) {
  // A flow is startable only where its coflow heads both of its ports'
  // queues (no higher-priority coflow reserves either port) and both ports
  // are open. A flow on a gathered output port and a gathered input port
  // is taken once, from its output port, whose list is already in
  // destination order; input ports are read in ascending order, so the
  // buckets they start are too.
  ++scratch_gen_;
  bucket_srcs_.clear();
  candidates_ = 0;
  for (RackId r : entry.look_out) {
    const auto s = static_cast<std::size_t>(r.value());
    out_gathered_[s] = scratch_gen_;
    COSCHED_CHECK(head(out_queues_[s]) == &entry);
    if (!open(static_cast<std::uint32_t>(s), /*out_port=*/true)) continue;
    std::vector<PortFlow>& bucket = bucket_[s];
    bucket.clear();
    for (const PortFlow& f : out_queues_[s].front().flows) {
      if (head(in_queues_[f.rack]) == &entry && open(f.rack, false)) {
        bucket.push_back(f);
      }
    }
    if (bucket.empty()) continue;
    bucket_srcs_.push_back(static_cast<std::uint32_t>(s));
    candidates_ += bucket.size();
  }
  std::sort(entry.look_in.begin(), entry.look_in.end());
  for (RackId r : entry.look_in) {
    const auto d = static_cast<std::size_t>(r.value());
    COSCHED_CHECK(head(in_queues_[d]) == &entry);
    if (!open(static_cast<std::uint32_t>(d), /*out_port=*/false)) continue;
    for (const PortFlow& f : in_queues_[d].front().flows) {
      const std::uint32_t s = f.rack;
      if (out_gathered_[s] == scratch_gen_ || head(out_queues_[s]) != &entry ||
          !open(s, /*out_port=*/true)) {
        continue;
      }
      if (bucket_started_[s] != scratch_gen_) {
        bucket_started_[s] = scratch_gen_;
        bucket_[s].clear();
        bucket_srcs_.push_back(s);
      }
      bucket_[s].push_back({static_cast<std::uint32_t>(d), f.node});
      ++candidates_;
    }
  }
  std::sort(bucket_srcs_.begin(), bucket_srcs_.end());
  // Try every available plane in plane order. On a single-plane fabric
  // this loop body runs once.
  const std::int32_t planes = num_planes();
  for (std::int32_t p = 0; p < planes && candidates_ > 0; ++p) {
    if (!plane_available(p)) continue;
    match_on_plane(entry, p);
  }
}

void OcsFabric::match_on_plane(CoflowEntry& entry, std::int32_t plane_index) {
  const PlanePorts& ports = ports_[static_cast<std::size_t>(plane_index)];
  // Give this coflow as many circuits as its pending flows can use on the
  // plane's currently-free ports: a maximum bipartite matching between free
  // source output ports and free destination input ports. This is what
  // lets an all-to-all shuffle use rotations of simultaneous circuits
  // instead of serializing (Goal-2 / Figure 2 of the paper).
  //
  // srcs_/dsts_ collect the eligible racks in first-seen queue order: the
  // sorted prefix in rack-pair order (the buckets' scan order), then the
  // fresh tail in submit order. Each source's edges go in destination
  // order (flows are aggregated per rack pair within a coflow, so at most
  // one pending flow exists per (src, dst) edge).
  ++scratch_gen_;
  srcs_.clear();
  dsts_.clear();
  graph_.clear();
  const auto see = [this](std::uint32_t src, std::uint32_t dst) {
    if (src_seen_[src] != scratch_gen_) {
      src_seen_[src] = scratch_gen_;
      src_slot_[src] = graph_.add_left();
      srcs_.push_back(RackId{src});
    }
    if (dst_seen_[dst] != scratch_gen_) {
      dst_seen_[dst] = scratch_gen_;
      dst_slot_[dst] = graph_.add_right();
      dsts_.push_back(RackId{dst});
    }
  };
  // Vertices in queue order (the prefix, then the fresh tail by submit
  // number), edges in rack-pair order.
  edges_.clear();
  fresh_.clear();
  for (std::uint32_t s : bucket_srcs_) {
    if (ports.out[s] != nullptr) continue;
    for (const PortFlow& c : bucket_[s]) {
      if (ports.in[c.rack] != nullptr) continue;
      edges_.push_back(c);
      if (nodes_[c.node].seq >= entry.sorted_below) {
        fresh_.push_back(c);
      } else {
        see(s, c.rack);
      }
    }
  }
  std::sort(fresh_.begin(), fresh_.end(),
            [this](const PortFlow& a, const PortFlow& b) {
              return nodes_[a.node].seq < nodes_[b.node].seq;
            });
  for (const PortFlow& c : fresh_) see(nodes_[c.node].src, c.rack);
  for (const PortFlow& c : edges_) {
    graph_.add_edge(src_slot_[nodes_[c.node].src], dst_slot_[c.rack]);
  }
  if (srcs_.empty()) return;
  // A coflow that matches sorts its whole queue by rack pair: the fresh
  // tail joins the prefix.
  entry.sorted_below = entry.next_seq;
  const MatchingResult match = maximum_bipartite_matching(graph_);

  // Each matched flow leaves its source's bucket (kept in destination
  // order).
  matched_.clear();
  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    const std::size_t j = match.match_left[i];
    if (j == MatchingResult::kUnmatched) continue;
    std::vector<PortFlow>& bucket =
        bucket_[static_cast<std::size_t>(srcs_[i].value())];
    const auto dst = static_cast<std::uint32_t>(dsts_[j].value());
    const auto it = std::lower_bound(
        bucket.begin(), bucket.end(), dst,
        [](const PortFlow& f, std::uint32_t d) { return f.rack < d; });
    COSCHED_CHECK(it != bucket.end() && it->rack == dst);
    matched_.push_back(it->node);
    bucket.erase(it);
  }
  candidates_ -= matched_.size();
  for (const std::uint32_t node : matched_) {
    Flow* flow = nodes_[node].flow;
    dequeue(node, entry);
    --entry.pending;
    --pending_;
    ++entry.in_flight;
    active_.emplace(flow->id(),
                    ActiveTransfer{flow, TransferState::kReconfiguring,
                                   sim_.now(), 0.0, plane_index, &entry});
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

void OcsFabric::setup_circuit(std::int32_t plane_index, const Flow& flow) {
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

void OcsFabric::teardown_circuit(const ActiveTransfer& at) {
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
  mark_dirty(src, /*out_port=*/true);
  mark_dirty(dst, /*out_port=*/false);
  if (obs_ != nullptr) {
    obs_->trace.record({.kind = TraceEventKind::kCircuitTeardown,
                        .at = sim_.now(),
                        .src = src,
                        .dst = dst});
  }
}

void OcsFabric::start_transfer(FlowId id) {
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

void OcsFabric::on_transfer_complete(FlowId id) {
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
  CoflowEntry& entry = *it->second.entry;
  --entry.in_flight;
  active_.erase(it);

  // Drop finished coflow entries so the entry map stays short.
  if (entry.pending == 0 && entry.coflow->all_flows_complete()) {
    entries_.erase(entry.id);
  }

  notify_flow_complete(flow);
  request_allocation_pass();
}

std::string OcsFabric::self_check() const {
  std::ostringstream os;
  for (const auto& [id, at] : active_) {
    if (!plane_available(at.plane)) {
      os << "flow " << id << " holds a circuit on plane " << at.plane
         << " which is inside an outage window";
      return os.str();
    }
    // A port names one holder, so two transfers on one port fail here.
    const PlanePorts& ports = ports_[static_cast<std::size_t>(at.plane)];
    const RackId src = at.flow->src();
    const RackId dst = at.flow->dst();
    if (ports.out[static_cast<std::size_t>(src.value())] != at.flow ||
        ports.in[static_cast<std::size_t>(dst.value())] != at.flow) {
      os << "plane " << at.plane << ": flow " << id << " (" << src << "->"
         << dst << ") does not hold its own ports";
      return os.str();
    }
  }
  // Every transfer holds its own two ports, so any further holder is a
  // port leaked by a missed teardown.
  const auto held = [](const std::vector<const Flow*>& holders) {
    return holders.size() - static_cast<std::size_t>(std::count(
                                holders.begin(), holders.end(), nullptr));
  };
  std::size_t held_out = 0;
  std::size_t held_in = 0;
  for (const PlanePorts& ports : ports_) {
    held_out += held(ports.out);
    held_in += held(ports.in);
  }
  if (held_out != active_.size() || held_in != active_.size()) {
    os << held_out << " held out ports and " << held_in
       << " held in ports for " << active_.size() << " transfers";
    return os.str();
  }
  // The pending index: every queue in strict priority order with no empty
  // list, every queued flow on its own racks' ports, an output port's list
  // in destination order, every input position right, and the per-coflow
  // queued and in-flight counts recounted.
  std::map<CoflowId, std::size_t> queued;
  for (const PortQueues* queues : {&out_queues_, &in_queues_}) {
    const bool out_port = queues == &out_queues_;
    std::size_t total = 0;
    for (std::size_t r = 0; r < queues->size(); ++r) {
      const std::vector<PortQueue>& queue = (*queues)[r];
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const PortQueue& q = queue[i];
        if (q.flows.empty() ||
            (i > 0 && !before(*queue[i - 1].entry, *q.entry))) {
          os << (out_port ? "out" : "in") << " port " << r
             << ": queue out of priority order or holding an empty list";
          return os.str();
        }
        for (std::size_t k = 0; k < q.flows.size(); ++k) {
          const PortFlow& f = q.flows[k];
          const PendingNode& n = nodes_[f.node];
          const bool placed =
              out_port ? n.src == r && n.dst == f.rack &&
                             (k == 0 || q.flows[k - 1].rack < f.rack)
                       : n.dst == r && n.src == f.rack && n.in_pos == k;
          if (!placed || n.flow->coflow() != q.entry->id) {
            os << "flow " << n.flow->id() << " misplaced on "
               << (out_port ? "out" : "in") << " port " << r
               << " under coflow " << q.entry->id;
            return os.str();
          }
        }
        total += q.flows.size();
        if (out_port) queued[q.entry->id] += q.flows.size();
      }
    }
    if (total != pending_) {
      os << total << " flows queued on " << (out_port ? "out" : "in")
         << " ports, " << pending_ << " pending";
      return os.str();
    }
  }
  std::map<CoflowId, std::size_t> in_flight;
  for (const auto& [id, at] : active_) ++in_flight[at.flow->coflow()];
  for (const auto& [id, entry] : entries_) {
    const auto count = [id](const std::map<CoflowId, std::size_t>& m) {
      const auto it = m.find(id);
      return it == m.end() ? std::size_t{0} : it->second;
    };
    if (count(queued) != entry.pending || count(in_flight) != entry.in_flight) {
      os << "coflow " << id << " counts " << entry.pending << " queued and "
         << entry.in_flight << " in flight, index holds " << count(queued)
         << " and " << count(in_flight);
      return os.str();
    }
  }
  // Work conservation: after a pass no queued flow can start, and every
  // event that could change that schedules the next pass.
  if (pass_scheduled_) return {};
  for (std::size_t s = 0; s < out_queues_.size(); ++s) {
    const CoflowEntry* entry = head(out_queues_[s]);
    if (entry == nullptr) continue;
    for (const PortFlow& f : out_queues_[s].front().flows) {
      const Flow& flow = *nodes_[f.node].flow;
      const std::uint32_t d = f.rack;
      if (head(in_queues_[d]) != entry) continue;
      for (std::int32_t p = 0; p < num_planes(); ++p) {
        const PlanePorts& ports = ports_[static_cast<std::size_t>(p)];
        if (plane_available(p) && ports.out[s] == nullptr &&
            ports.in[d] == nullptr) {
          os << "queued flow " << flow.id() << " (" << flow.src() << "->"
             << flow.dst() << ") could start on plane " << p
             << " but no allocation pass is scheduled";
          return os.str();
        }
      }
    }
  }
  return {};
}

std::int64_t OcsFabric::active_circuits() const {
  return std::count_if(active_.begin(), active_.end(), [](const auto& entry) {
    return entry.second.state == TransferState::kTransferring;
  });
}

void OcsFabric::set_observability(Observability* obs) { obs_ = obs; }

void OcsFabric::set_reconfig_delay_provider(
    std::function<Duration()> provider) {
  // One shared provider: every plane's setups draw from the same jitter
  // stream in setup order, exactly as the single OCS did.
  reconfig_delay_provider_ = std::move(provider);
}

}  // namespace cosched
