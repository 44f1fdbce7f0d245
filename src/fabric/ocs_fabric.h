// OcsFabric: K independent optical circuit planes scheduled by Sunflow [18].
//
// K = 1 is the paper's fabric — a single R-port OCS with one circuit per
// port and not-all-stop reconfiguration — and runs the exact pre-seam code
// path bit for bit (DESIGN.md §12). K > 1 models the K-core OCS designs of
// the related work (Wang/Shen's hybrid-switched scheduling, the
// O(K)-approximation multi-core OCS papers): every rack's ToR has one
// transceiver per plane, so up to K circuits can terminate at a rack
// simultaneously, one per plane.
//
// The fabric owns its ports: per plane, a holder index names the flow
// whose circuit holds each output port and each input port (null = free).
// A circuit holds exactly its two ports, and only those two stall for the
// reconfiguration delay delta (Sunflow's not-all-stop model). Setup fills
// the index, teardown clears it, and self_check recounts it from the
// transfers.
//
// Sunflow is shortest-coflow-first, non-preemptive circuit scheduling.
// Coflows are prioritized by the fabric's CCT lower bound, computed when
// the coflow is first submitted (smaller bound = higher priority). An
// allocation pass walks coflows in priority order and, for every pending
// flow whose source output port and destination input port are both free
// on some plane, sets up a circuit. A circuit is held non-preemptively
// until its flow drains; reconfiguration stalls only the two ports
// involved (not-all-stop). Lower-priority coflows may use ports the
// higher-priority coflows leave idle (work conservation).
//
// On ocs:1 the per-plane loop runs its body exactly once. On ocs:K each
// coflow is matched against every available plane in plane order, so one
// rack pair can carry up to K simultaneous circuits (one per plane) from
// different coflows. Port reservations (a higher-priority coflow's unmet
// demand) are plane-wide: the head coflow wants *a* circuit for that pair,
// and holding the pair on all planes is what keeps shortest-coflow-first
// strict.
//
// The pass is incremental (DESIGN.md "Sunflow model"). Pending flows are
// indexed per port: each rack's output port and input port keep the
// coflows with pending flows on it in priority order, each with its flows
// there. A port is reserved for every coflow but the first of its queue,
// so a flow can only start if its coflow heads both of its ports' queues.
// After a pass no pending flow can start, and only a few events change
// that — so a pass looks only at the head coflows of *dirty* ports:
//   * a port freed by a teardown (completion or eviction),
//   * the source port of a newly submitted flow,
//   * every port when a plane outage ends,
//   * on ocs:K, a port whose head coflow just matched its last flow there
//     (the reservation it held on the other planes is released).
// The pass is bit-identical to the full walk over every coflow it
// replaces; tests/reference_sunflow.h keeps that walk as the reference.
//
// Plane-targeted outages (ocs-outage:...:plane=N) fail one plane: its
// in-flight transfers are evicted, queued demand stays (other planes can
// serve it), and allocation skips the plane until the window closes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coflow/matching.h"
#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched {

class OcsFabric final : public Fabric {
 public:
  OcsFabric(Simulator& sim, const HybridTopology& topo, std::int32_t planes);

  [[nodiscard]] std::string name() const override {
    return "ocs:" + std::to_string(num_planes());
  }

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  /// Abort every queued and in-flight circuit transfer. Mid-circuit flows
  /// are settled first — the bits they already drained are credited — and
  /// their circuits torn down (including circuits still reconfiguring).
  /// Deterministic order: circuit holders by flow id, then queued flows by
  /// coflow priority.
  [[nodiscard]] std::vector<Flow*> evict_all() override;

  /// K = 1: exactly the paper's T(C) (the cct_bound.h free function, bit
  /// for bit). K > 1: the per-port bound for K parallel planes — each
  /// port's transfer + setup busy time averages over its K transceivers,
  /// some plane still hosts ceil(degree/K) setups, and a single flow can
  /// never split across planes (the Wang et al. K-core OCS port model;
  /// docs/FABRICS.md).
  [[nodiscard]] Duration cct_lower_bound(
      const TrafficMatrix& matrix) const override;

  [[nodiscard]] std::int32_t num_planes() const override {
    return static_cast<std::int32_t>(ports_.size());
  }
  /// False while plane `i` is inside a plane-targeted outage window.
  [[nodiscard]] bool plane_available(std::int32_t i) const {
    return down_[static_cast<std::size_t>(i)] == 0;
  }
  /// Evicts only the transfers holding circuits on the plane (flow-id
  /// order); queued flows stay queued for the remaining planes.
  [[nodiscard]] std::vector<Flow*> begin_plane_outage(
      std::int32_t plane_index) override;
  void end_plane_outage(std::int32_t plane_index) override;

  [[nodiscard]] std::size_t pending_flows() const override {
    return pending_;
  }
  [[nodiscard]] std::size_t active_transfers() const override {
    return active_.size();
  }
  /// Coflows with pending or active circuit demand.
  [[nodiscard]] std::size_t active_coflows() const override {
    return entries_.size();
  }
  /// Circuits up and carrying a transfer (reconfiguring ones excluded).
  [[nodiscard]] std::int64_t active_circuits() const override;
  /// Bytes still to drain across pending and circuit-held flows.
  [[nodiscard]] DataSize bytes_in_flight() const override;
  /// Bits settled out of in-flight transfers (mid-transfer demand growth)
  /// but not yet credited — completion credits whole flows, so settled
  /// bits stay uncredited until the flow completes or is evicted. Zero
  /// whenever no transfer is mid-flight.
  [[nodiscard]] double uncredited_settled_bits() const override {
    return uncredited_settled_bits_;
  }
  /// Port exclusivity, recounted per plane from the transfers: no port is
  /// held by two transfers, the holder index names exactly the transfers'
  /// ports and nothing else, and no transfer sits on a downed plane. The
  /// pending index is recounted too (every queue in priority order, every
  /// queued flow once per port), and while no allocation pass is scheduled
  /// no queued flow may be startable on an available plane.
  [[nodiscard]] std::string self_check() const override;

  /// Circuit setups (with their flow and coflow priority), ups and
  /// teardowns go to the bundle's trace; null (the default) records
  /// nothing.
  void set_observability(Observability* obs) override;
  void set_reconfig_delay_provider(std::function<Duration()> provider) override;

 private:
  struct CoflowEntry;

  enum class TransferState { kReconfiguring, kTransferring };

  struct ActiveTransfer {
    Flow* flow;
    TransferState state = TransferState::kReconfiguring;
    SimTime last_update = SimTime::zero();
    /// Bits settled during this transfer before its completion/eviction
    /// (demand_added settle points). Needed so eviction can credit the
    /// whole transfer, not just the span since the last settle.
    double settled_bits = 0.0;
    /// Which plane holds this transfer's circuit.
    std::int32_t plane = 0;
    /// The coflow entry counting this transfer in flight.
    CoflowEntry* entry = nullptr;
  };

  /// Per plane: the flow whose circuit holds each rack's output and input
  /// port, null when the port is free.
  struct PlanePorts {
    std::vector<const Flow*> out;
    std::vector<const Flow*> in;
  };

  /// A queued flow: its racks, its submit number within its coflow, and
  /// its position in its input port's list.
  struct PendingNode {
    Flow* flow;
    std::uint64_t seq;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t in_pos;
  };

  /// A queued flow as a port lists it: the rack at its other end and its
  /// node.
  struct PortFlow {
    std::uint32_t rack;
    std::uint32_t node;
  };

  struct CoflowEntry {
    Coflow* coflow;
    CoflowId id;
    double priority_sec;  // bound at first submit; smaller = higher priority
    std::size_t pending = 0;    // queued flows
    std::size_t in_flight = 0;  // transfers holding a circuit
    /// Submit numbers. The queue's order — which fixes the matching's
    /// vertex order — is a prefix sorted by rack pair (the flows queued
    /// when the coflow last matched a flow) followed by the later flows in
    /// submit order: seq < sorted_below marks the prefix.
    std::uint64_t next_seq = 0;
    std::uint64_t sorted_below = 0;
    /// Pass scratch: the pass that queued this entry, and the output and
    /// input ports whose flows it looks at in that pass.
    std::uint64_t pass = 0;
    std::vector<RackId> look_out;
    std::vector<RackId> look_in;
  };

  /// One coflow's pending flows on one port. An output port keeps them in
  /// destination order; an input port in any order, each node knowing its
  /// position.
  struct PortQueue {
    CoflowEntry* entry;
    std::vector<PortFlow> flows;
  };
  /// Per rack: the coflows with pending flows on the port, priority first.
  using PortQueues = std::vector<std::vector<PortQueue>>;

  /// Strict priority order: (priority, coflow id).
  static bool before(const CoflowEntry& a, const CoflowEntry& b);
  /// Position in the coflow's queue order: the sorted prefix by rack pair,
  /// then the fresh tail in submit order.
  static std::uint64_t queue_key(const PendingNode& n,
                                 std::uint64_t sorted_below) {
    return n.seq < sorted_below ? (std::uint64_t{n.src} << 32) | n.dst
                                : (std::uint64_t{1} << 63) | n.seq;
  }
  /// The coflow whose pending flows hold the port's reservation.
  static CoflowEntry* head(const std::vector<PortQueue>& queue) {
    return queue.empty() ? nullptr : queue.front().entry;
  }

  /// Whether the rack's output / input port is free on some available
  /// plane: a flow can start only where both of its ports are.
  [[nodiscard]] bool open(std::uint32_t rack, bool out_port) const {
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      const auto& holders = out_port ? ports_[p].out : ports_[p].in;
      if (down_[p] == 0 && holders[rack] == nullptr) return true;
    }
    return false;
  }
  /// The entry's list on a port, made (in priority position) if missing.
  PortQueue& queue_of(std::vector<PortQueue>& queue, CoflowEntry& entry);
  /// Queue a flow of `entry` on its output and input ports.
  void enqueue(Flow& flow, CoflowEntry& entry);
  /// Remove a matched node from its two ports' lists, which `entry` heads,
  /// and free it. On ocs:K a coflow leaving a port's head hands the port
  /// to the next coflow in its queue.
  void dequeue(std::uint32_t node, const CoflowEntry& entry);
  void mark_dirty(RackId rack, bool out_port);
  /// Queue `entry` for this pass, looking at `rack`'s port. An entry looks
  /// at a port at most once per pass: a dirty port is looked at by its
  /// head, and a released one by the coflow that just became its head.
  void look(CoflowEntry& entry, RackId rack, bool out_port);
  /// The transfers' flow ids, ascending.
  [[nodiscard]] std::vector<FlowId> transfer_ids() const;
  /// Each coflow's queued flows, in queue order, by coflow id.
  [[nodiscard]] std::map<CoflowId, std::vector<const PendingNode*>>
  queued_flows() const;

  void request_allocation_pass();
  void allocation_pass();
  /// Gather the entry's startable flows from the ports it looks at and
  /// match them on every available plane.
  void allocate(CoflowEntry& entry);
  /// One coflow x one plane: match the gathered candidates against the
  /// plane's free ports and start the matched transfers, recording each
  /// circuit's kCircuitSetup event.
  void match_on_plane(CoflowEntry& entry, std::int32_t plane_index);
  /// Claim the flow's two ports on `plane_index` (both must be free) and
  /// schedule start_transfer after the reconfiguration delay.
  void setup_circuit(std::int32_t plane_index, const Flow& flow);
  /// Free the transfer's two ports at once; the cost of the teardown is
  /// borne by the next setup on them (not-all-stop accounting).
  void teardown_circuit(const ActiveTransfer& at);
  /// The circuit came up: begin draining. A no-op when the transfer was
  /// evicted during the delay — an evicted flow finishes on the EPS, so its
  /// id never returns to active_.
  void start_transfer(FlowId id);
  void on_transfer_complete(FlowId id);
  /// Shared eviction body: settle, credit, and tear down one active
  /// transfer (the map entry is erased by the caller).
  void evict_transfer(ActiveTransfer& at);

  Simulator& sim_;
  std::vector<PlanePorts> ports_;
  /// Outage depth per plane (overlapping windows compose, same as the
  /// driver's whole-fabric depth counter).
  std::vector<std::int32_t> down_;
  std::map<CoflowId, CoflowEntry> entries_;
  PortQueues out_queues_;
  PortQueues in_queues_;
  /// Node storage for the queued flows, reused through a free list.
  std::vector<PendingNode> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  /// Emptied port lists, kept for their storage.
  std::vector<std::vector<PortFlow>> spare_lists_;
  std::size_t pending_ = 0;
  /// Transfers by flow. Walks whose order matters (eviction credits,
  /// byte sums) go in flow-id order (transfer_ids).
  std::unordered_map<FlowId, ActiveTransfer> active_;
  double uncredited_settled_bits_ = 0.0;
  bool pass_scheduled_ = false;
  Observability* obs_ = nullptr;
  /// Per-setup delay override (reconfig-jitter); unset uses delta.
  std::function<Duration()> reconfig_delay_provider_;

  /// Ports whose eligibility may have changed since the last pass, with a
  /// membership flag per rack.
  std::vector<RackId> dirty_out_;
  std::vector<RackId> dirty_in_;
  std::vector<char> is_dirty_out_;
  std::vector<char> is_dirty_in_;

  // ----- allocation-pass scratch (flat, reused across passes) -------------
  // Contents are meaningless between passes and carry no scheduling state.
  std::uint64_t pass_ = 0;
  /// Entries queued for this pass, a min-heap on priority.
  std::vector<CoflowEntry*> pass_heap_;
  /// The coflow being allocated: the flows it may start, bucketed by
  /// source rack (each entry names the destination), each bucket in
  /// destination order, and the source racks of the buckets in ascending
  /// order — so a scan is in rack-pair order.
  std::vector<std::vector<PortFlow>> bucket_;
  std::vector<std::uint32_t> bucket_srcs_;
  std::size_t candidates_ = 0;
  /// Racks whose output port list was gathered, and whose bucket was
  /// started, for the coflow being allocated (stamped with scratch_gen_).
  std::vector<std::uint64_t> out_gathered_;
  std::vector<std::uint64_t> bucket_started_;
  /// Eligible flows of the fresh tail, put in submit order.
  std::vector<PortFlow> fresh_;
  std::vector<std::uint32_t> matched_;
  std::vector<std::uint64_t> src_seen_;
  std::vector<std::uint64_t> dst_seen_;
  std::vector<std::size_t> src_slot_;
  std::vector<std::size_t> dst_slot_;
  std::uint64_t scratch_gen_ = 0;
  std::vector<RackId> srcs_;
  std::vector<RackId> dsts_;
  /// The eligible flows, in the matching's edge order.
  std::vector<PortFlow> edges_;
  BipartiteGraph graph_{0, 0};
};

}  // namespace cosched
