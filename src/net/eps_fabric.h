// Flow-level model of the electrical packet-switched network.
//
// The core is assumed non-blocking; contention happens on each rack's ToR
// uplink (toward the core) and downlink (from the core), both of capacity
// `eps_rack_link()`. Active flows receive their max-min fair share computed
// by progressive filling: repeatedly find the most-constrained link, freeze
// the flows crossing it at the fair share, and continue with residual
// capacities.
//
// The production fast path exploits a structural fact of this two-level
// topology: a flow's max-min share depends only on its (src, dst) rack
// pair, because all flows of one pair cross exactly the same two links and
// therefore freeze in the same filling round at the same share. The fabric
// maintains flow *groups* keyed by rack pair incrementally (on flow start
// and completion, together with per-link flow counts) and water-fills over
// groups: each round scans the 2*racks rack links once for the smallest
// residual-capacity-per-flow ratio, gathers every link within tolerance of
// it, and freezes the unfrozen groups on those links. A replan walks the
// active flows once after the fill, settling each at its old rate before
// giving it the new one. tests/test_rate_equivalence.cpp keeps the
// per-flow progressive filling as a pure reference function and checks
// current_rates() against it, bit for bit, after every replan.
//
// Rates are piecewise constant between network events. Every mutation
// (flow added, demand added, flow finished) requests a replan, which
// recomputes all rates, then settles each flow's in-flight bytes at its old
// rate and re-plans its completion event.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/topology.h"
#include "simcore/simulator.h"

namespace cosched {

class EpsFabric {
 public:
  using CompletionCallback = std::function<void(Flow&)>;

  EpsFabric(Simulator& sim, const HybridTopology& topo);

  /// Invoked exactly once per flow when it drains (like
  /// Fabric::set_on_flow_complete).
  void set_on_flow_complete(CompletionCallback cb) {
    on_flow_complete_ = std::move(cb);
  }

  /// Begin transferring `flow` over the EPS (or the local rack path when
  /// src == dst).
  void start_flow(Flow& flow);

  /// Notify the fabric that `flow`'s size grew (demand added mid-transfer).
  void demand_added(Flow& flow);

  /// Current number of in-flight flows (EPS + local).
  [[nodiscard]] std::size_t active_flows() const { return active_.size(); }

  /// Active (src, dst) rack pairs with at least one in-flight EPS flow.
  [[nodiscard]] std::size_t active_groups() const { return groups_.size(); }

  /// Total bytes drained through the cross-rack EPS links so far.
  /// Accumulated in bits and converted once here, so frequent settles do
  /// not truncate away fractional bytes.
  [[nodiscard]] DataSize eps_bytes_transferred() const {
    return DataSize::bytes(static_cast<std::int64_t>(eps_bits_ / 8.0));
  }

  /// Total bytes drained through intra-rack (local) paths so far.
  [[nodiscard]] DataSize local_bytes_transferred() const {
    return DataSize::bytes(static_cast<std::int64_t>(local_bits_ / 8.0));
  }

  /// Exact drained-bit accumulators (no byte truncation), for the
  /// invariant auditor's conservation identity.
  [[nodiscard]] double eps_bits() const { return eps_bits_; }
  [[nodiscard]] double local_bits() const { return local_bits_; }

  /// Bytes still to drain across all active flows, O(1) via an
  /// incrementally maintained accumulator (the settled view lags the fluid
  /// model by at most one replan interval).
  [[nodiscard]] DataSize bytes_in_flight() const;

  /// Progressive-filling passes executed so far (diagnostics).
  [[nodiscard]] std::int64_t replans() const { return replans_; }

  /// Max-min fair rates for the current flow set (exposed for testing),
  /// sorted by flow id.
  [[nodiscard]] std::vector<std::pair<FlowId, Bandwidth>> current_rates()
      const;

 private:
  struct ActiveFlow {
    Flow* flow;
    /// Last time this flow's fluid transfer was advanced.
    SimTime last_settle = SimTime::zero();
    /// Remaining bits as last synced into the in-flight accumulator.
    double tracked_bits = 0.0;
  };

  /// One (src, dst) rack pair with at least one active EPS flow. `count`
  /// is maintained incrementally; `rate` and `frozen` are scratch for the
  /// current filling pass.
  struct FlowGroup {
    std::int32_t src;
    std::int32_t dst;
    std::int32_t count = 0;
    double rate = 0.0;
    bool frozen = false;
  };

  /// Advance one flow's fluid transfer to now (at its current rate) and
  /// account the moved bits.
  void settle_flow(ActiveFlow& af);
  /// Coalesce rate recomputation: mutations within one replan interval
  /// trigger a single progressive-filling pass. The first change after a
  /// quiet period replans immediately (so isolated transitions stay
  /// exact); storms are batched at kReplanInterval granularity.
  void request_replan();
  void recompute_and_replan();
  /// Water-fill over flow groups, one scan of the rack links per round.
  /// Leaves the per-flow share in each group's `rate`.
  void fill_rates_grouped();
  /// One walk over the active flows: settle each at its old rate, push its
  /// group's new rate onto it, and re-plan its completion event with ETA
  /// hysteresis.
  void replan_completion_events();
  void on_completion_event(FlowId id);
  void group_add(const Flow& flow);
  void group_remove(const Flow& flow);
  [[nodiscard]] std::size_t pair_index(const Flow& flow) const;

  Simulator& sim_;
  HybridTopology topo_;
  CompletionCallback on_flow_complete_;
  std::unordered_map<FlowId, ActiveFlow> active_;
  SimTime last_replan_ = SimTime::seconds(-1e9);
  bool replan_scheduled_ = false;
  std::int64_t replans_ = 0;

  // Byte accounting, kept in double bits and converted at read time.
  double eps_bits_ = 0.0;
  double local_bits_ = 0.0;
  double in_flight_bits_ = 0.0;

  // Flow groups, maintained incrementally on flow start/completion.
  std::vector<FlowGroup> groups_;
  std::vector<std::int32_t> group_of_pair_;  // racks*racks, -1 = no group
  // Active EPS flows per rack link: 0..racks-1 are uplinks (by source
  // rack), racks..2*racks-1 downlinks (by destination rack).
  std::vector<std::int32_t> link_count_;

  // Scratch reused across grouped filling passes (no per-pass allocation
  // once the vectors reach steady-state capacity).
  std::vector<double> link_cap_;
  std::vector<std::int32_t> link_load_;
  std::vector<std::vector<std::int32_t>> link_groups_;
  std::vector<std::size_t> tight_links_;
};

}  // namespace cosched
