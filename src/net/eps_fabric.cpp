#include "net/eps_fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "obs/perf_monitor.h"

namespace cosched {

namespace {

// Completion is declared when fewer than this many bits remain; guards
// against floating-point residue keeping a drained flow alive.
constexpr double kResidualBits = 1e-3;

// Rate recomputations triggered within this window of the previous one are
// coalesced into a single deferred pass. Rates are then stale by at most
// this long — negligible against multi-second EPS transfers, and a large
// constant-factor win when thousands of flows churn.
constexpr Duration kReplanInterval = Duration::milliseconds(100);

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
}

void EpsFabric::start_flow(Flow& flow) {
  COSCHED_CHECK_MSG(!flow.completed(), "flow " << flow.id() << " already done");
  COSCHED_CHECK(flow.path() == FlowPath::kEps ||
                flow.path() == FlowPath::kLocal);
  flow.mark_started(sim_.now());
  flow.set_rate(Bandwidth::zero());
  const auto [it, inserted] = active_.emplace(
      flow.id(), ActiveFlow{&flow, sim_.now(), flow.remaining_bits()});
  COSCHED_CHECK_MSG(inserted, "flow " << flow.id() << " already active");
  in_flight_bits_ += flow.remaining_bits();
  if (flow.path() == FlowPath::kEps) group_add(flow);
  if (flow.remaining_bits() <= kResidualBits) {
    // Zero-byte flow: complete immediately (still asynchronously, so the
    // caller's state machine sees a uniform event ordering).
    FlowId id = flow.id();
    sim_.schedule_after(Duration::zero(), [this, id] {
      on_completion_event(id);
    });
    return;
  }
  request_replan();
}

void EpsFabric::demand_added(Flow& flow) {
  auto it = active_.find(flow.id());
  if (it != active_.end()) {
    settle_flow(it->second);
    in_flight_bits_ += flow.remaining_bits() - it->second.tracked_bits;
    it->second.tracked_bits = flow.remaining_bits();
  }
  request_replan();
}

void EpsFabric::request_replan() {
  if (replan_scheduled_) return;
  replan_scheduled_ = true;
  const SimTime due = std::max(sim_.now(), last_replan_ + kReplanInterval);
  sim_.schedule_at(due, [this] {
    replan_scheduled_ = false;
    recompute_and_replan();
  });
}

void EpsFabric::settle_flow(ActiveFlow& af) {
  const Duration elapsed = sim_.now() - af.last_settle;
  af.last_settle = sim_.now();
  if (elapsed <= Duration::zero()) return;
  const double moved_bits = af.flow->settle(elapsed);
  af.tracked_bits -= moved_bits;
  in_flight_bits_ -= moved_bits;
  if (af.flow->path() == FlowPath::kLocal) {
    local_bits_ += moved_bits;
  } else {
    eps_bits_ += moved_bits;
  }
}

void EpsFabric::recompute_and_replan() {
  PerfScope perf(PerfPhase::kEpsReplan);
  perf.set_size(active_.size());
  ++replans_;
  last_replan_ = sim_.now();
  {
    PerfScope fill(PerfPhase::kEpsFillRates);
    fill.set_size(groups_.size());
    fill_rates_grouped();
  }
  replan_completion_events();
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
    g.rate = 0.0;
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
        g.rate = best_share;
        --remaining;
        const auto up = static_cast<std::size_t>(g.src);
        const auto down = racks + static_cast<std::size_t>(g.dst);
        // Drain residual capacity exactly as per-flow filling does — one
        // subtract-then-clamp per member flow — so the per-flow reference
        // sees bit-identical link capacities in every later round. Every
        // subtraction on a link this round is the same best_share, so the
        // order the groups freeze in does not change the result.
        for (std::int32_t k = 0; k < g.count; ++k) {
          link_cap_[up] -= best_share;
          link_cap_[down] -= best_share;
          link_cap_[up] = std::max(link_cap_[up], 0.0);
          link_cap_[down] = std::max(link_cap_[down], 0.0);
        }
        link_load_[up] -= g.count;
        link_load_[down] -= g.count;
      }
      members.clear();
    }
  }
}

void EpsFabric::replan_completion_events() {
  // Hysteresis: leave a pending event in place when the new ETA moved by
  // less than 0.1% — on_completion_event verifies actual drain and
  // reschedules if the flow is not quite done, so this is safe and avoids
  // O(flows) heap churn on every rate perturbation.
  for (auto& [fid, af] : active_) {
    // Settle at the old rate before the flow takes its new one.
    settle_flow(af);
    if (af.flow->path() == FlowPath::kLocal) {
      af.flow->set_rate(topo_.server_nic);
    } else {
      const std::int32_t gi = group_of_pair_[pair_index(*af.flow)];
      COSCHED_CHECK(gi >= 0);
      af.flow->set_rate(Bandwidth::bits_per_sec(
          groups_[static_cast<std::size_t>(gi)].rate));
    }
    const double rate = af.flow->rate().in_bits_per_sec();
    if (rate <= 0.0) {
      // A zero-byte flow awaiting its immediate-completion event.
      COSCHED_CHECK(af.flow->remaining_bits() <= kResidualBits);
      continue;
    }
    const Duration eta = Duration::seconds(af.flow->remaining_bits() / rate);
    const SimTime deadline = sim_.now() + eta;
    if (af.flow->completion_event().pending()) {
      const double drift =
          std::abs((af.flow->planned_completion() - deadline).sec());
      if (drift <= 1e-3 * eta.sec() + 1e-9) continue;
      af.flow->completion_event().cancel();
    }
    FlowId id = af.flow->id();
    af.flow->set_planned_completion(deadline);
    af.flow->completion_event() =
        sim_.schedule_at(deadline, [this, id] { on_completion_event(id); });
  }
}

void EpsFabric::on_completion_event(FlowId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;  // already completed via another path
  settle_flow(it->second);
  Flow& flow = *it->second.flow;
  if (flow.remaining_bits() > kResidualBits) {
    // Not quite drained (demand grew, or the hysteresis left a slightly
    // early event in place): reschedule from the current remaining/rate —
    // unless the residue would drain within a nanosecond, in which case
    // it is floating-point noise: count it done now (re-adding a
    // sub-nanosecond event can fail to advance the clock at all, which
    // would loop forever).
    const double rate = flow.rate().in_bits_per_sec();
    if (rate <= 0.0) {
      // Demand landed on a zero-byte flow within its creation instant: the
      // immediate-completion event raced the replan that would assign a
      // rate. Leave the flow to the (already requested, or re-requested
      // here) replan, which re-plans its completion event too.
      request_replan();
      return;
    }
    const double eta_sec = flow.remaining_bits() / rate;
    if (eta_sec > 1e-9) {
      const Duration eta = Duration::seconds(eta_sec);
      flow.set_planned_completion(sim_.now() + eta);
      flow.completion_event() = sim_.schedule_after(
          eta, [this, id] { on_completion_event(id); });
      return;
    }
  }
  flow.mark_completed(sim_.now());
  flow.completion_event().cancel();
  // Drop the settled residue from the in-flight accumulator (it is below
  // kResidualBits and was never accounted as transferred).
  in_flight_bits_ -= it->second.tracked_bits;
  if (flow.path() == FlowPath::kEps) group_remove(flow);
  active_.erase(it);
  if (!active_.empty()) request_replan();
  if (on_flow_complete_) on_flow_complete_(flow);
}

void EpsFabric::group_add(const Flow& flow) {
  const std::size_t pair = pair_index(flow);
  std::int32_t gi = group_of_pair_[pair];
  if (gi < 0) {
    gi = static_cast<std::int32_t>(groups_.size());
    groups_.push_back(
        FlowGroup{static_cast<std::int32_t>(flow.src().value()),
                  static_cast<std::int32_t>(flow.dst().value()), 0, 0.0,
                  false});
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
  // Swap-erase the empty group and patch the moved group's pair index.
  group_of_pair_[pair] = -1;
  const auto last = static_cast<std::int32_t>(groups_.size()) - 1;
  if (gi != last) {
    g = groups_[static_cast<std::size_t>(last)];
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

DataSize EpsFabric::bytes_in_flight() const {
  return DataSize::bytes(
      static_cast<std::int64_t>(std::max(in_flight_bits_, 0.0) / 8.0));
}

std::vector<std::pair<FlowId, Bandwidth>> EpsFabric::current_rates() const {
  std::vector<std::pair<FlowId, Bandwidth>> out;
  out.reserve(active_.size());
  for (const auto& [id, af] : active_) {
    out.emplace_back(id, af.flow->rate());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace cosched
