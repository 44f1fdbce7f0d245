#include "net/eps_fabric.h"

#include <algorithm>
#include <limits>

#include "common/log.h"
#include "obs/perf_monitor.h"

namespace cosched {

namespace {

// A flow starting with fewer than this many bits is zero-byte: it
// completes at its start instant.
constexpr double kResidualBits = 1e-3;

// Rate recomputations triggered within this window of the previous one are
// coalesced into a single deferred pass. Rates are then stale by at most
// this long — negligible against multi-second EPS transfers, and a large
// constant-factor win when thousands of flows churn.
constexpr Duration kReplanInterval = Duration::milliseconds(100);

// A replan waits for the EPS completions the model times within this
// window after it. Completions that coincide in exact arithmetic can round
// a hair apart when their groups' counters took different paths; a fill
// run between them would count the later ones as active flows for a whole
// replan interval.
constexpr Duration kDrainTieWindow = Duration::microseconds(1e-3);

// Relative tolerance for deciding that a link is saturated at the current
// fill level. The per-flow reference in tests/test_rate_equivalence.cpp
// uses the same value, so both freeze identical sets.
constexpr double kTightTol = 1e-12;

}  // namespace

EpsFabric::EpsFabric(Simulator& sim, const HybridTopology& topo)
    : sim_(sim), topo_(topo) {
  topo_.validate();
  const auto racks = static_cast<std::size_t>(topo_.num_racks);
  group_of_pair_.assign(racks * racks, -1);
  link_count_.assign(2 * racks, 0);
  link_groups_.resize(2 * racks);
  local_.rate = topo_.server_nic.in_bits_per_sec();
}

void EpsFabric::start_flow(Flow& flow) {
  COSCHED_CHECK_MSG(!flow.completed(), "flow " << flow.id() << " already done");
  COSCHED_CHECK(flow.path() == FlowPath::kEps ||
                flow.path() == FlowPath::kLocal);
  COSCHED_CHECK_MSG(flow.eps_slot() == Flow::kEpsIdle,
                    "flow " << flow.id() << " already active");
  flow.mark_started(sim_.now());
  flow.set_rate(Bandwidth::zero());
  flow.set_eps_slot(Flow::kEpsUnrated);
  unrated_.push_back(&flow);
  ++active_flows_;
  if (flow.path() == FlowPath::kEps) {
    group_add(flow);
  } else {
    ++local_.count;
  }
  if (flow.remaining_bits() <= kResidualBits) {
    // Zero-byte flow: complete immediately (still asynchronously, so the
    // caller's state machine sees a uniform event ordering).
    Flow* f = &flow;
    flow.completion_event() =
        sim_.schedule_after(Duration::zero(), [this, f] { finish(*f); });
    return;
  }
  request_replan();
}

void EpsFabric::demand_added(Flow& flow) {
  if (flow.eps_slot() >= 0) {
    // Raise the target; the flow can only move away from the head.
    FlowGroup& g = group_of(flow);
    const auto pos = static_cast<std::size_t>(flow.eps_slot());
    Member& m = g.heap[pos];
    m.target = m.origin + flow.remaining_bits();
    sift_down(g, pos);
    if (pos == 0) plan_event(g);
  }
  // Demand that lands on a zero-byte flow within its start instant
  // cancels the immediate completion; its group's event (or its first
  // rate, at the next replan) drains it instead.
  if (remaining_bits(flow) > kResidualBits) flow.completion_event().cancel();
  request_replan();
}

void EpsFabric::request_replan() {
  if (replan_scheduled_) return;
  replan_scheduled_ = true;
  const SimTime due = std::max(sim_.now(), last_replan_ + kReplanInterval);
  sim_.schedule_at(due, [this] { on_replan_due(); });
}

void EpsFabric::on_replan_due() {
  bool tied = false;
  SimTime wait = sim_.now();
  for (const FlowGroup& g : groups_) {
    if (g.heap.empty()) continue;
    const SimTime due = head_due(g);
    if (due <= sim_.now() + kDrainTieWindow) {
      tied = true;
      wait = std::max(wait, due);
    }
  }
  if (tied) {
    // Scheduled now, this event runs after the pending completions.
    sim_.schedule_at(wait, [this] { on_replan_due(); });
    return;
  }
  replan_scheduled_ = false;
  recompute_and_replan();
}

double EpsFabric::served_now(const FlowGroup& g) const {
  return g.served + g.rate * (sim_.now() - g.advanced_at).sec();
}

void EpsFabric::advance(FlowGroup& g) {
  const double per_member = g.rate * (sim_.now() - g.advanced_at).sec();
  g.advanced_at = sim_.now();
  if (g.heap.empty()) {
    // Idle: no member references the counter, so restart it.
    g.served = 0.0;
    return;
  }
  g.served += per_member;
  const double moved = per_member * static_cast<double>(g.heap.size());
  if (&g == &local_) {
    local_bits_ += moved;
  } else {
    eps_bits_ += moved;
  }
}

void EpsFabric::touch(FlowGroup& g) {
  if (g.touched_at == replans_) return;
  g.touched_at = replans_;
  touched_.push_back(&g);
}

void EpsFabric::recompute_and_replan() {
  PerfScope perf(PerfPhase::kEpsReplan);
  perf.set_size(active_flows_);
  ++replans_;
  last_replan_ = sim_.now();
  {
    PerfScope fill(PerfPhase::kEpsFillRates);
    fill.set_size(groups_.size());
    fill_rates_grouped();
  }
  // Groups whose share moved settle at the old rate and take the new one;
  // every other group keeps its counter and its event.
  for (FlowGroup& g : groups_) {
    if (g.share == g.rate) continue;
    advance(g);
    g.rate = g.share;
    touch(g);
  }
  // Flows started since the last replan take their first rate.
  for (Flow* f : unrated_) {
    FlowGroup& g = group_of(*f);
    advance(g);
    touch(g);
    g.heap.push_back(Member{g.served + f->remaining_bits(), g.served, f});
    sift_up(g, g.heap.size() - 1);
  }
  unrated_.clear();
  for (FlowGroup* g : touched_) plan_event(*g);
  touched_.clear();
}

void EpsFabric::fill_rates_grouped() {
  const double link_cap = topo_.eps_rack_link().in_bits_per_sec();
  const auto racks = static_cast<std::size_t>(topo_.num_racks);
  const std::size_t nlinks = link_count_.size();

  link_cap_.assign(nlinks, link_cap);
  link_load_ = link_count_;
  for (auto& lg : link_groups_) lg.clear();

  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    FlowGroup& g = groups_[gi];
    g.frozen = false;
    g.share = 0.0;
    link_groups_[static_cast<std::size_t>(g.src)].push_back(
        static_cast<std::int32_t>(gi));
    link_groups_[racks + static_cast<std::size_t>(g.dst)].push_back(
        static_cast<std::int32_t>(gi));
  }

  std::size_t remaining = groups_.size();
  while (remaining > 0) {
    // The most constrained link sets this round's share.
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < nlinks; ++l) {
      if (link_load_[l] > 0) {
        best_share = std::min(best_share, link_cap_[l] / link_load_[l]);
      }
    }
    COSCHED_CHECK_MSG(best_share < std::numeric_limits<double>::infinity(),
                      "progressive filling made no progress");
    const double threshold = best_share * (1.0 + kTightTol);

    // Gather every link saturated at this share. Per-flow filling freezes a
    // flow when either of its endpoint links is within tolerance of
    // best_share, so one round may drain several links at once.
    tight_links_.clear();
    for (std::size_t l = 0; l < nlinks; ++l) {
      if (link_load_[l] > 0 && link_cap_[l] / link_load_[l] <= threshold) {
        tight_links_.push_back(l);
      }
    }

    for (const std::size_t link : tight_links_) {
      auto& members = link_groups_[link];
      for (const std::int32_t gi : members) {
        FlowGroup& g = groups_[static_cast<std::size_t>(gi)];
        if (g.frozen) continue;
        g.frozen = true;
        g.share = best_share;
        --remaining;
        const auto up = static_cast<std::size_t>(g.src);
        const auto down = racks + static_cast<std::size_t>(g.dst);
        // Drain residual capacity exactly as per-flow filling does — one
        // subtract-then-clamp per member flow — so the per-flow reference
        // sees bit-identical link capacities in every later round. Every
        // subtraction on a link this round is the same best_share, so the
        // order the groups freeze in does not change the result.
        double up_cap = link_cap_[up];
        double down_cap = link_cap_[down];
        for (std::int32_t k = 0; k < g.count; ++k) {
          up_cap = std::max(up_cap - best_share, 0.0);
          down_cap = std::max(down_cap - best_share, 0.0);
        }
        link_cap_[up] = up_cap;
        link_cap_[down] = down_cap;
        link_load_[up] -= g.count;
        link_load_[down] -= g.count;
      }
      members.clear();
    }
  }
}

SimTime EpsFabric::head_due(const FlowGroup& g) const {
  // The head drains when the counter reaches its target. Rounding can put
  // a tied member a hair behind the counter: it drains now.
  const double left = std::max(g.heap.front().target - g.served, 0.0);
  return std::max(sim_.now(),
                  g.advanced_at + Duration::seconds(left / g.rate));
}

void EpsFabric::plan_event(FlowGroup& g) {
  g.event.cancel();
  if (g.heap.empty()) return;
  const std::size_t key = key_of(g);
  g.event = sim_.schedule_at(head_due(g), [this, key] { on_group_event(key); });
}

void EpsFabric::on_group_event(std::size_t key) {
  FlowGroup& g =
      key == local_key()
          ? local_
          : groups_[static_cast<std::size_t>(group_of_pair_[key])];
  finish(*g.heap.front().flow);
}

void EpsFabric::finish(Flow& flow) {
  FlowGroup& g = group_of(flow);
  if (flow.eps_slot() >= 0) {
    // The group's member count changes: settle the others first.
    advance(g);
    const auto pos = static_cast<std::size_t>(flow.eps_slot());
    heap_erase(g, pos);
    if (pos == 0) plan_event(g);
  } else {
    // A zero-byte flow completing before its first replan.
    unrated_.erase(std::find(unrated_.begin(), unrated_.end(), &flow));
  }
  flow.set_eps_slot(Flow::kEpsIdle);
  // Whatever rounding residue the flow still shows was never drained.
  flow.mark_completed(sim_.now());
  flow.completion_event().cancel();
  --active_flows_;
  if (flow.path() == FlowPath::kEps) {
    group_remove(flow);
  } else {
    --local_.count;
  }
  if (active_flows_ > 0) request_replan();
  if (on_flow_complete_) on_flow_complete_(flow);
}

void EpsFabric::group_add(const Flow& flow) {
  const std::size_t pair = pair_index(flow);
  std::int32_t gi = group_of_pair_[pair];
  if (gi < 0) {
    gi = static_cast<std::int32_t>(groups_.size());
    FlowGroup& g = groups_.emplace_back();
    g.src = static_cast<std::int32_t>(flow.src().value());
    g.dst = static_cast<std::int32_t>(flow.dst().value());
    g.advanced_at = sim_.now();
    group_of_pair_[pair] = gi;
  }
  ++groups_[static_cast<std::size_t>(gi)].count;
  const auto racks = static_cast<std::size_t>(topo_.num_racks);
  ++link_count_[static_cast<std::size_t>(flow.src().value())];
  ++link_count_[racks + static_cast<std::size_t>(flow.dst().value())];
}

void EpsFabric::group_remove(const Flow& flow) {
  const std::size_t pair = pair_index(flow);
  const std::int32_t gi = group_of_pair_[pair];
  COSCHED_CHECK_MSG(gi >= 0, "flow " << flow.id() << " has no group");
  FlowGroup& g = groups_[static_cast<std::size_t>(gi)];
  --g.count;
  const auto racks = static_cast<std::size_t>(topo_.num_racks);
  --link_count_[static_cast<std::size_t>(g.src)];
  --link_count_[racks + static_cast<std::size_t>(g.dst)];
  COSCHED_CHECK(g.count >= 0);
  if (g.count > 0) return;
  COSCHED_CHECK(g.heap.empty() && !g.event.pending());
  // Swap-erase the empty group and patch the moved group's pair index.
  // Event closures key groups by rack pair, so the move needs no re-plan.
  group_of_pair_[pair] = -1;
  const auto last = static_cast<std::int32_t>(groups_.size()) - 1;
  if (gi != last) {
    g = std::move(groups_[static_cast<std::size_t>(last)]);
    group_of_pair_[static_cast<std::size_t>(g.src) * racks +
                   static_cast<std::size_t>(g.dst)] = gi;
  }
  groups_.pop_back();
}

std::size_t EpsFabric::pair_index(const Flow& flow) const {
  const auto racks = static_cast<std::size_t>(topo_.num_racks);
  const auto s = static_cast<std::size_t>(flow.src().value());
  const auto d = static_cast<std::size_t>(flow.dst().value());
  COSCHED_CHECK(s < racks && d < racks);
  return s * racks + d;
}

EpsFabric::FlowGroup& EpsFabric::group_of(const Flow& flow) {
  if (flow.path() == FlowPath::kLocal) return local_;
  return groups_[static_cast<std::size_t>(group_of_pair_[pair_index(flow)])];
}

const EpsFabric::FlowGroup& EpsFabric::group_of(const Flow& flow) const {
  if (flow.path() == FlowPath::kLocal) return local_;
  return groups_[static_cast<std::size_t>(group_of_pair_[pair_index(flow)])];
}

std::size_t EpsFabric::key_of(const FlowGroup& g) const {
  if (&g == &local_) return local_key();
  return static_cast<std::size_t>(g.src) *
             static_cast<std::size_t>(topo_.num_racks) +
         static_cast<std::size_t>(g.dst);
}

std::size_t EpsFabric::local_key() const {
  return group_of_pair_.size();
}

// Member heap order: finish target, then flow id, so that flows with equal
// targets drain in id order.
bool EpsFabric::drains_first(const Member& a, const Member& b) {
  return a.target < b.target ||
         (a.target == b.target && a.flow->id() < b.flow->id());
}

void EpsFabric::place(FlowGroup& g, std::size_t pos, const Member& m) {
  g.heap[pos] = m;
  m.flow->set_eps_slot(static_cast<std::int32_t>(pos));
}

void EpsFabric::sift_up(FlowGroup& g, std::size_t pos) {
  const Member m = g.heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    const Member& p = g.heap[parent];
    if (!drains_first(m, p)) break;
    place(g, pos, p);
    pos = parent;
  }
  place(g, pos, m);
}

void EpsFabric::sift_down(FlowGroup& g, std::size_t pos) {
  const Member m = g.heap[pos];
  const std::size_t n = g.heap.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    const Member* c = &g.heap[child];
    if (child + 1 < n) {
      const Member& right = g.heap[child + 1];
      if (drains_first(right, *c)) {
        ++child;
        c = &right;
      }
    }
    if (!drains_first(*c, m)) break;
    place(g, pos, *c);
    pos = child;
  }
  place(g, pos, m);
}

void EpsFabric::heap_erase(FlowGroup& g, std::size_t pos) {
  const Member last = g.heap.back();
  g.heap.pop_back();
  if (pos == g.heap.size()) return;
  place(g, pos, last);
  if (pos > 0) {
    const Member& parent = g.heap[(pos - 1) / 2];
    if (drains_first(last, parent)) {
      sift_up(g, pos);
      return;
    }
  }
  sift_down(g, pos);
}

double EpsFabric::unsettled_bits(const FlowGroup& g) const {
  return g.rate * (sim_.now() - g.advanced_at).sec() *
         static_cast<double>(g.heap.size());
}

double EpsFabric::eps_bits() const {
  double bits = eps_bits_;
  for (const FlowGroup& g : groups_) bits += unsettled_bits(g);
  return bits;
}

double EpsFabric::local_bits() const {
  return local_bits_ + unsettled_bits(local_);
}

double EpsFabric::remaining_bits(const Flow& flow) const {
  if (flow.eps_slot() < 0) return flow.remaining_bits();
  const FlowGroup& g = group_of(flow);
  const Member& m = g.heap[static_cast<std::size_t>(flow.eps_slot())];
  return std::max(m.target - served_now(g), 0.0);
}

Bandwidth EpsFabric::rate(const Flow& flow) const {
  if (flow.eps_slot() < 0) return flow.rate();
  return Bandwidth::bits_per_sec(group_of(flow).rate);
}

DataSize EpsFabric::bytes_in_flight() const {
  double bits = 0.0;
  for (const Flow* f : unrated_) bits += f->remaining_bits();
  auto add_group = [&](const FlowGroup& g) {
    const double served = served_now(g);
    for (const Member& m : g.heap) bits += std::max(m.target - served, 0.0);
  };
  for (const FlowGroup& g : groups_) add_group(g);
  add_group(local_);
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

std::vector<std::pair<FlowId, Bandwidth>> EpsFabric::current_rates() const {
  std::vector<std::pair<FlowId, Bandwidth>> out;
  out.reserve(active_flows_);
  for (const Flow* f : unrated_) out.emplace_back(f->id(), Bandwidth::zero());
  auto add_group = [&](const FlowGroup& g) {
    for (const Member& m : g.heap) {
      out.emplace_back(m.flow->id(), Bandwidth::bits_per_sec(g.rate));
    }
  };
  for (const FlowGroup& g : groups_) add_group(g);
  add_group(local_);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace cosched
