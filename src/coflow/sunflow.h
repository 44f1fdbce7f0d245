// Sunflow [18]: shortest-coflow-first, non-preemptive circuit scheduling.
//
// Coflows are prioritized by their CCT lower bound T(C), computed when the
// coflow is first submitted (smaller bound = higher priority). An
// allocation pass walks coflows in priority order and, for every pending
// flow whose source output port and destination input port are both free
// on some plane, sets up a circuit. A circuit is held non-preemptively
// until its flow drains; reconfiguration stalls only the two ports
// involved (not-all-stop). Lower-priority coflows may use ports the
// higher-priority coflows leave idle (work conservation).
//
// The scheduler allocates across the planes of a Fabric (src/net/fabric.h).
// On a single-plane fabric — the paper's OCS — the per-plane loop runs its
// body exactly once, executing the pre-seam code sequence bit for bit. On
// ocs:K it matches each coflow against every available plane in plane
// order, so one rack pair can carry up to K simultaneous circuits (one per
// plane) from different coflows. Port reservations (a higher-priority
// coflow's unmet demand) are plane-wide: the head coflow wants *a* circuit
// for that pair, and holding the pair on all planes is what keeps
// shortest-coflow-first strict.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "coflow/circuit_scheduler.h"
#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched {

struct Observability;

class SunflowScheduler : public CircuitScheduler {
 public:
  SunflowScheduler(Simulator& sim, Fabric& fabric);

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::size_t pending_flows() const override;

  /// Transfers currently holding a circuit (diagnostics).
  [[nodiscard]] std::size_t active_transfers() const {
    return active_.size();
  }

  /// Coflows with pending or active circuit demand (diagnostics).
  [[nodiscard]] std::size_t active_coflows() const { return entries_.size(); }

  /// Bytes still to drain across pending and circuit-held flows.
  [[nodiscard]] DataSize bytes_in_flight() const;

  /// Fault injection (fabric outage): abort every queued and in-flight
  /// circuit transfer. Mid-circuit flows are settled first — the bits they
  /// already drained are credited to the fabric's accounting — and their
  /// circuits torn down (including circuits still reconfiguring). The
  /// returned flows are incomplete and unrouted as far as this scheduler is
  /// concerned; the caller re-routes them (onto the EPS). Deterministic
  /// order: circuit holders by flow id, then queued flows by coflow
  /// priority.
  [[nodiscard]] std::vector<Flow*> evict_all();

  /// Plane-scoped outage: abort only the transfers holding circuits on
  /// `plane` (flow-id order). Queued flows stay queued — the remaining
  /// planes can still serve them.
  [[nodiscard]] std::vector<Flow*> evict_plane(std::int32_t plane);

  /// Re-run the allocation pass (a downed plane came back).
  void kick() { request_allocation_pass(); }

  /// Attach tracing + decision logging; null (the default) disables both.
  void set_observability(Observability* obs) { obs_ = obs; }

  /// Bits settled out of in-flight transfers (mid-transfer demand growth)
  /// but not yet credited to the fabric's accounting — completion credits
  /// whole flows, so settled bits stay uncredited until the flow completes
  /// or is evicted. The invariant auditor adds this term to its
  /// conservation identity; zero whenever no transfer is mid-flight.
  [[nodiscard]] double uncredited_settled_bits() const {
    return uncredited_settled_bits_;
  }

  /// Internal coherence, re-derived from first principles: every active
  /// transfer sits on an available plane, and the planes' port states sum
  /// to exactly the transfers in each state (connected ports ==
  /// transferring flows, reconfiguring out-ports == reconfiguring flows).
  /// Empty string = coherent. Only meaningful while this scheduler is the
  /// sole driver of the fabric's planes (the simulation driver's setup).
  [[nodiscard]] std::string self_check() const;

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
    /// Which fabric plane holds this transfer's circuit.
    std::int32_t plane = 0;
  };

  struct CoflowEntry {
    Coflow* coflow;
    double priority_sec;  // T(C) at first submit; smaller = higher priority
    std::vector<Flow*> pending;
  };

  void request_allocation_pass();
  void allocation_pass();
  /// One coflow x one plane: match the coflow's pending flows against the
  /// plane's free ports and start the matched transfers. Returns the
  /// eligibility scan's outcome so the caller can skip empty planes.
  void match_on_plane(CoflowId cid, CoflowEntry& entry, std::int32_t plane);
  void start_transfer(FlowId id);
  void on_transfer_complete(FlowId id);
  /// Shared eviction body: settle, credit, tear down, and collect one
  /// active transfer (the map entry is erased by the caller).
  void evict_transfer(ActiveTransfer& at);

  Simulator& sim_;
  Fabric& fabric_;
  std::map<CoflowId, CoflowEntry> entries_;
  /// Coflow ids in priority order (priority, id) — deterministic.
  std::vector<CoflowId> order_;
  std::map<FlowId, ActiveTransfer> active_;
  double uncredited_settled_bits_ = 0.0;
  bool pass_scheduled_ = false;
  Observability* obs_ = nullptr;

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
