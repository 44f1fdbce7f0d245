// Flow-level model of the electrical packet-switched network.
//
// The core is assumed non-blocking; contention happens on each rack's ToR
// uplink (toward the core) and downlink (from the core), both of capacity
// `eps_rack_link()`. Active flows receive their max-min fair share computed
// by progressive filling: repeatedly find the most-constrained link, freeze
// the flows crossing it at the fair share, and continue with residual
// capacities.
//
// Rates. A flow's max-min share depends only on its (src, dst) rack pair:
// all flows of one pair cross the same two links and therefore freeze in
// the same filling round at the same share. The fabric keeps flow *groups*
// keyed by rack pair (maintained on flow start and completion, together
// with per-link flow counts) and water-fills over groups: each round scans
// the 2*racks rack links once for the smallest residual-capacity-per-flow
// ratio, gathers every link within tolerance of it, and freezes the
// unfrozen groups on those links. tests/test_rate_equivalence.cpp keeps
// the per-flow progressive filling as a pure reference function and checks
// current_rates() against it, bit for bit, after every replan.
//
// Fluid state. Every member of a group drains at the group's one rate, so
// the group keeps a service counter, the bits served to each member since
// the group formed (a fair-queueing virtual clock). A member drains when
// the counter reaches its finish target: the counter at the replan that
// gave it its first rate plus its remaining bits then (plus any demand
// added later). Members sit in a min-heap on (target, FlowId), and the
// group holds one completion event, for the heap's head. The counter
// advances only when the group's rate changes or a member leaves, so a
// replan touches only the groups whose rate changed (and the groups that
// new flows join); every other group keeps its counter and its event.
// Rack-local flows form one more group, served at the NIC rate and never
// part of the fill. tests/test_rate_equivalence.cpp also keeps the
// per-flow exact fluid model and checks that every completion agrees.
//
// Timing. Rates are piecewise constant between network events. Every
// mutation (flow started, demand added, flow finished) requests a replan;
// replans within kReplanInterval of the previous one are coalesced into
// one deferred pass. A due replan first lets every EPS flow that drains
// within kDrainTieWindow complete: completions that coincide in exact
// arithmetic can round apart across groups, and the fill must not count
// a drained flow. A new flow transfers nothing until the next replan
// gives it its first rate. A zero-byte flow completes at its start
// instant.
#pragma once

#include <cstdint>
#include <functional>
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
  [[nodiscard]] std::size_t active_flows() const { return active_flows_; }

  /// Active (src, dst) rack pairs with at least one in-flight EPS flow.
  [[nodiscard]] std::size_t active_groups() const { return groups_.size(); }

  /// Total bytes drained through the cross-rack EPS links so far.
  /// Accumulated in bits and converted once here, so frequent settles do
  /// not truncate away fractional bytes.
  [[nodiscard]] DataSize eps_bytes_transferred() const {
    return DataSize::bytes(static_cast<std::int64_t>(eps_bits() / 8.0));
  }

  /// Total bytes drained through intra-rack (local) paths so far.
  [[nodiscard]] DataSize local_bytes_transferred() const {
    return DataSize::bytes(static_cast<std::int64_t>(local_bits() / 8.0));
  }

  /// Exact drained bits up to now (no byte truncation), for the invariant
  /// auditor's conservation identity. O(active groups).
  [[nodiscard]] double eps_bits() const;
  [[nodiscard]] double local_bits() const;

  /// Bits `flow` still has to move, as of now. The fabric advances its
  /// flows per group, so Flow::remaining_bits() of a flow it serves lags;
  /// this is the live value, consistent with eps_bits() and local_bits().
  /// Any other flow's own remaining_bits().
  [[nodiscard]] double remaining_bits(const Flow& flow) const;

  /// The rate `flow` drains at now: its group's share for a flow the
  /// fabric serves (zero before its first replan), any other flow's own
  /// rate().
  [[nodiscard]] Bandwidth rate(const Flow& flow) const;

  /// Bytes still to drain across all active flows. O(active flows).
  [[nodiscard]] DataSize bytes_in_flight() const;

  /// Progressive-filling passes executed so far (diagnostics).
  [[nodiscard]] std::int64_t replans() const { return replans_; }

  /// Max-min fair rates for the current flow set (exposed for testing),
  /// sorted by flow id.
  [[nodiscard]] std::vector<std::pair<FlowId, Bandwidth>> current_rates()
      const;

 private:
  /// A flow its group serves. It drains when the group's counter reaches
  /// `target`; `origin` is the counter when it joined, so that demand
  /// added later moves the target to origin + the flow's grown
  /// remaining_bits() (which the fabric leaves at its value on joining).
  struct Member {
    double target;
    double origin;
    Flow* flow;
  };

  /// One (src, dst) rack pair with at least one active EPS flow, or the
  /// local group. `count` is every member, rated or not, and is the fill's
  /// load; `heap` holds the rated ones. `share` and `frozen` are scratch
  /// for the current filling pass.
  struct FlowGroup {
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t count = 0;
    /// Per-member rate (bits/s) since `advanced_at`.
    double rate = 0.0;
    /// Bits served to each member from the group's formation (or its last
    /// idle moment) up to `advanced_at`.
    double served = 0.0;
    SimTime advanced_at = SimTime::zero();
    std::vector<Member> heap;
    /// Completion of heap.front(); pending iff the heap is not empty.
    EventHandle event;
    /// Replan that last scheduled this group's event re-plan (dedup).
    std::int64_t touched_at = -1;
    double share = 0.0;
    bool frozen = false;
  };

  /// Coalesce rate recomputation: mutations within one replan interval
  /// trigger a single progressive-filling pass. The first change after a
  /// quiet period replans immediately (so isolated transitions stay
  /// exact); storms are batched at kReplanInterval granularity.
  void request_replan();
  /// A due replan first lets every EPS flow that drains within
  /// kDrainTieWindow complete, then recomputes.
  void on_replan_due();
  void recompute_and_replan();
  /// Water-fill over flow groups, one scan of the rack links per round.
  /// Leaves the per-flow share in each group's `share`.
  void fill_rates_grouped();
  /// Advance `g`'s counter to now at its current rate and account the
  /// bits its members moved.
  void advance(FlowGroup& g);
  /// Queue `g` for an event re-plan at the end of the current replan.
  void touch(FlowGroup& g);
  /// When `g`'s head drains at the current rate (not before now).
  [[nodiscard]] SimTime head_due(const FlowGroup& g) const;
  /// (Re)schedule `g`'s completion event for its current head.
  void plan_event(FlowGroup& g);
  void on_group_event(std::size_t key);
  /// Remove a drained flow from the fabric and report it.
  void finish(Flow& flow);
  void group_add(const Flow& flow);
  void group_remove(const Flow& flow);
  [[nodiscard]] std::size_t pair_index(const Flow& flow) const;
  /// The group serving `flow`, and its stable key (pair index, or
  /// local_key() for the local group) for event closures.
  [[nodiscard]] FlowGroup& group_of(const Flow& flow);
  [[nodiscard]] const FlowGroup& group_of(const Flow& flow) const;
  [[nodiscard]] std::size_t key_of(const FlowGroup& g) const;
  [[nodiscard]] std::size_t local_key() const;
  [[nodiscard]] double served_now(const FlowGroup& g) const;
  /// Bits `g`'s members moved since `advanced_at`, not yet in the totals.
  [[nodiscard]] double unsettled_bits(const FlowGroup& g) const;

  // Member heap on (target, FlowId); each move records the member's
  // position on its flow (Flow::eps_slot).
  static bool drains_first(const Member& a, const Member& b);
  static void place(FlowGroup& g, std::size_t pos, const Member& m);
  static void sift_up(FlowGroup& g, std::size_t pos);
  static void sift_down(FlowGroup& g, std::size_t pos);
  static void heap_erase(FlowGroup& g, std::size_t pos);

  Simulator& sim_;
  HybridTopology topo_;
  CompletionCallback on_flow_complete_;
  std::size_t active_flows_ = 0;
  /// Flows started since the last replan: counted in their groups, but
  /// with no rate yet (Flow::eps_slot() == Flow::kEpsUnrated).
  std::vector<Flow*> unrated_;
  SimTime last_replan_ = SimTime::seconds(-1e9);
  bool replan_scheduled_ = false;
  std::int64_t replans_ = 0;

  // Bits drained up to each group's `advanced_at`, kept in double bits and
  // converted at read time.
  double eps_bits_ = 0.0;
  double local_bits_ = 0.0;

  // Flow groups, maintained incrementally on flow start/completion.
  std::vector<FlowGroup> groups_;
  std::vector<std::int32_t> group_of_pair_;  // racks*racks, -1 = no group
  FlowGroup local_;
  // Active EPS flows per rack link: 0..racks-1 are uplinks (by source
  // rack), racks..2*racks-1 downlinks (by destination rack).
  std::vector<std::int32_t> link_count_;

  // Scratch reused across replans (no per-pass allocation once the vectors
  // reach steady-state capacity).
  std::vector<double> link_cap_;
  std::vector<std::int32_t> link_load_;
  std::vector<std::vector<std::int32_t>> link_groups_;
  std::vector<std::size_t> tight_links_;
  std::vector<FlowGroup*> touched_;
};

}  // namespace cosched
