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
// Plane-targeted outages (ocs-outage:...:plane=N) fail one plane: its
// in-flight transfers are evicted, queued demand stays (other planes can
// serve it), and allocation skips the plane until the window closes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

  [[nodiscard]] std::size_t pending_flows() const override;
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
  /// ports and nothing else, and no transfer sits on a downed plane.
  [[nodiscard]] std::string self_check() const override;

  /// Circuit setups (with their flow and coflow priority), ups and
  /// teardowns go to the bundle's trace; null (the default) records
  /// nothing.
  void set_observability(Observability* obs) override;
  void set_reconfig_delay_provider(std::function<Duration()> provider) override;

 private:
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
  };

  /// Per plane: the flow whose circuit holds each rack's output and input
  /// port, null when the port is free.
  struct PlanePorts {
    std::vector<const Flow*> out;
    std::vector<const Flow*> in;
  };

  struct CoflowEntry {
    Coflow* coflow;
    double priority_sec;  // bound at first submit; smaller = higher priority
    std::vector<Flow*> pending;
  };

  void request_allocation_pass();
  void allocation_pass();
  /// One coflow x one plane: match the coflow's pending flows against the
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
  /// Coflow ids in priority order (priority, id) — deterministic.
  std::vector<CoflowId> order_;
  std::map<FlowId, ActiveTransfer> active_;
  double uncredited_settled_bits_ = 0.0;
  bool pass_scheduled_ = false;
  Observability* obs_ = nullptr;
  /// Per-setup delay override (reconfig-jitter); unset uses delta.
  std::function<Duration()> reconfig_delay_provider_;

  // ----- allocation-pass scratch (flat, reused across passes) -------------
  // The pass runs millions of times at 100k-job scale and node-based
  // set/map scratch dominated its cost; these per-rack arrays replace them
  // with identical iteration order (first-seen rack order, same edge
  // order), so the matching — and therefore the simulation — is
  // bit-identical. Generation stamps avoid clearing per coflow; contents
  // are meaningless between passes and carry no scheduling state.
  std::vector<char> reserved_out_;
  std::vector<char> reserved_in_;
  std::vector<std::uint64_t> src_seen_;
  std::vector<std::uint64_t> dst_seen_;
  std::vector<std::size_t> src_slot_;
  std::vector<std::size_t> dst_slot_;
  std::uint64_t scratch_gen_ = 0;
  std::vector<RackId> srcs_;
  std::vector<RackId> dsts_;
  /// srcs_ index -> (dsts_ index, flow) edges, grouped by construction.
  std::vector<std::vector<std::pair<std::size_t, Flow*>>> adj_;
};

}  // namespace cosched
