// Rate equivalence regression (part of `ctest -L determinism`).
//
// EpsFabric computes max-min shares by water-filling over (src, dst)
// rack-pair groups, scanning the rack links once per filling round for the
// tightest share and every link within tolerance of it. This suite keeps
// the plain per-flow progressive filling as a pure reference function and
// checks, after every replan the fabric runs, that
// EpsFabric::current_rates() equals the reference over the active flow set
// *bit for bit* — across randomized topologies and flow sets, including
// many flows on one rack pair, zero-byte flows, local flows, demand added
// mid-transfer, drained flows re-opened by late demand, and 256 racks —
// and on flow sets built to put link shares exactly on, just inside and
// just outside the saturation tolerance, or to need dozens of rounds.
//
// Why this covers every simulation the fabric can see: start_flow (new or
// re-opened), demand_added and the fabric's own completions are every
// input EpsFabric accepts — the driver re-opens a drained flow with
// add_demand followed by start_flow, exactly as these scenarios do — and
// the rates a replan assigns depend only on the multiset of active
// (src, dst) pairs (plus which flows are local). Checking each replan
// against the reference over that multiset therefore checks what a
// whole-simulation rerun under the reference would.
//
// The file also keeps the per-flow exact fluid model that EpsFabric's
// per-group service counters replace (ReferenceEps): every replan settles
// every active flow at its old rate and re-plans the flow's own completion
// event. FluidEquivalence.* drives both engines through the same scripts
// and requires every completion time to agree within 1e-9 relative and the
// completion order to agree except between exact ties. EpsHashOrder.*
// checks that the fabric's outputs do not depend on what it carried
// before, as a hash-ordered flow table's would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/eps_fabric.h"

namespace cosched {
namespace {

// Must equal EpsFabric's tolerance for a link saturated at the fill level.
constexpr double kTightTol = 1e-12;

/// Per-flow progressive filling over rack uplinks and downlinks: repeatedly
/// find the most constrained link (minimum residual capacity / active
/// load), freeze every flow crossing a link saturated at that share, and
/// continue with residual capacities. Local flows run at NIC speed.
/// `active` must be sorted by flow id; so is the result.
std::vector<std::pair<FlowId, Bandwidth>> fill_rates_reference(
    const HybridTopology& topo, const std::vector<const Flow*>& active) {
  const double link_cap = topo.eps_rack_link().in_bits_per_sec();
  const auto racks = static_cast<std::size_t>(topo.num_racks);
  std::vector<double> up_cap(racks, link_cap);
  std::vector<double> down_cap(racks, link_cap);
  std::vector<int> up_load(racks, 0);
  std::vector<int> down_load(racks, 0);

  std::vector<std::pair<FlowId, Bandwidth>> rates;
  std::vector<std::size_t> eps_flows;  // indices into `rates` / `active`
  for (const Flow* f : active) {
    rates.emplace_back(f->id(), topo.server_nic);
    if (f->path() == FlowPath::kLocal) continue;
    ++up_load[static_cast<std::size_t>(f->src().value())];
    ++down_load[static_cast<std::size_t>(f->dst().value())];
    eps_flows.push_back(rates.size() - 1);
  }

  std::vector<bool> frozen(eps_flows.size(), false);
  std::size_t remaining = eps_flows.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < racks; ++r) {
      if (up_load[r] > 0) {
        best_share = std::min(best_share, up_cap[r] / up_load[r]);
      }
      if (down_load[r] > 0) {
        best_share = std::min(best_share, down_cap[r] / down_load[r]);
      }
    }
    bool froze_any = false;
    for (std::size_t i = 0; i < eps_flows.size(); ++i) {
      if (frozen[i]) continue;
      const Flow& f = *active[eps_flows[i]];
      const auto s = static_cast<std::size_t>(f.src().value());
      const auto d = static_cast<std::size_t>(f.dst().value());
      const bool up_tight =
          up_cap[s] / up_load[s] <= best_share * (1.0 + kTightTol);
      const bool down_tight =
          down_cap[d] / down_load[d] <= best_share * (1.0 + kTightTol);
      if (!up_tight && !down_tight) continue;
      rates[eps_flows[i]].second = Bandwidth::bits_per_sec(best_share);
      frozen[i] = true;
      froze_any = true;
      --remaining;
      up_cap[s] -= best_share;
      down_cap[d] -= best_share;
      --up_load[s];
      --down_load[d];
      up_cap[s] = std::max(up_cap[s], 0.0);
      down_cap[d] = std::max(down_cap[d], 0.0);
    }
    EXPECT_TRUE(froze_any) << "progressive filling made no progress";
    if (!froze_any) break;
  }
  return rates;
}

// One fabric + simulator running a scripted scenario, checked against the
// reference after every replan.
struct Scenario {
  HybridTopology topo;
  Simulator sim;
  EpsFabric eps;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Flow>> flows;  // id order
  std::int64_t replans_checked = 0;

  explicit Scenario(const HybridTopology& t) : topo(t), eps(sim, t) {}

  void start(std::int64_t src, std::int64_t dst, DataSize size) {
    flows.push_back(std::make_unique<Flow>(ids.next(), CoflowId{0}, JobId{0},
                                           RackId{src}, RackId{dst}, size));
    Flow& f = *flows.back();
    f.set_path(src == dst ? FlowPath::kLocal : FlowPath::kEps);
    eps.start_flow(f);
  }

  void grow(std::size_t idx, DataSize extra) {
    flows[idx]->add_demand(extra);
    eps.demand_added(*flows[idx]);
  }

  /// A drained flow gets late demand: the driver re-opens it through the
  /// fabric's front door again.
  void reopen(std::size_t idx, DataSize extra) {
    flows[idx]->add_demand(extra);
    eps.start_flow(*flows[idx]);
  }

  void expect_reference_rates() {
    std::vector<const Flow*> active;
    for (const auto& f : flows) {
      if (!f->completed()) active.push_back(f.get());
    }
    ASSERT_EQ(eps.active_flows(), active.size());
    const auto want = fill_rates_reference(topo, active);
    const auto got = eps.current_rates();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].first, got[i].first);
      ASSERT_EQ(want[i].second.in_bits_per_sec(),
                got[i].second.in_bits_per_sec())
          << "flow " << want[i].first << " rate diverged at " << sim.now();
    }
    ++replans_checked;
  }

  /// Execute one event; check the rates if it was a replan.
  bool step() {
    const std::int64_t before = eps.replans();
    if (!sim.step()) return false;
    if (eps.replans() != before) expect_reference_rates();
    return true;
  }

  /// Run every event up to a marker scheduled at `t`.
  void advance_to(SimTime t) {
    bool reached = false;
    sim.schedule_at(t, [&reached] { reached = true; });
    while (!reached && !::testing::Test::HasFatalFailure()) step();
  }

  /// Run every remaining event, then check that every flow drained.
  void drain() {
    while (step() && !::testing::Test::HasFatalFailure()) {
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(eps.active_flows(), 0U);
    ASSERT_EQ(eps.active_groups(), 0U);
    for (const auto& f : flows) ASSERT_TRUE(f->completed()) << f->id();
  }
};

// Drive one randomized scenario, checking every replan against the
// reference and every flow's drain at the end.
void run_scenario(std::uint64_t seed, std::int32_t racks,
                  std::int64_t num_starts, std::int64_t pair_limit,
                  bool zero_bytes, bool locals, bool demand_adds,
                  bool reopens = false) {
  HybridTopology topo;
  topo.num_racks = racks;
  Scenario run(topo);

  Rng rng(seed);
  SimTime t = SimTime::zero();
  std::int64_t started = 0;
  std::int64_t reopened = 0;
  while (started < num_starts) {
    t = t + Duration::milliseconds(rng.uniform_int(0, 250));
    run.advance_to(t);
    if (::testing::Test::HasFatalFailure()) return;
    const bool add_demand = demand_adds && started > 0 &&
                            rng.uniform_int(0, 3) == 0;
    if (add_demand) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(run.flows.size()) - 1));
      if (!run.flows[idx]->completed()) {
        run.grow(idx, DataSize::megabytes(rng.uniform_int(0, 800)));
      } else if (reopens) {
        run.reopen(idx, DataSize::megabytes(rng.uniform_int(1, 800)));
        ++reopened;
      }
    } else {
      // Restricting the rack range squeezes many flows onto few pairs.
      const std::int64_t span = pair_limit > 0
                                    ? std::min<std::int64_t>(pair_limit, racks)
                                    : racks;
      const std::int64_t src = rng.uniform_int(0, span - 1);
      std::int64_t dst = rng.uniform_int(0, span - 1);
      if (locals ? false : dst == src) dst = (dst + 1) % span;
      if (dst == src && span == 1) dst = src;  // degenerate: local only
      DataSize size = DataSize::megabytes(rng.uniform_int(1, 4000));
      if (zero_bytes && rng.uniform_int(0, 4) == 0) size = DataSize::zero();
      run.start(src, dst, size);
      ++started;
    }
    // Let the replan-coalescing window pass so new rates go live.
    t = t + Duration::milliseconds(101);
    run.advance_to(t);
    if (::testing::Test::HasFatalFailure()) return;
  }

  run.drain();
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(run.replans_checked, num_starts / 2);
  if (reopens) {
    EXPECT_GT(reopened, 0) << "no drained flow was re-opened";
  }
}

TEST(RateEquivalence, RandomizedSmallTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::int32_t racks = static_cast<std::int32_t>(2 + seed % 7);
    SCOPED_TRACE("seed " + std::to_string(seed) + " racks " +
                 std::to_string(racks));
    run_scenario(seed, racks, /*num_starts=*/40, /*pair_limit=*/0,
                 /*zero_bytes=*/false, /*locals=*/false,
                 /*demand_adds=*/false);
  }
}

TEST(RateEquivalence, ManyFlowsPerPair) {
  // 80 flows over at most 2*1 cross-rack pairs: deep groups, few rounds.
  run_scenario(/*seed=*/11, /*racks=*/6, /*num_starts=*/80, /*pair_limit=*/2,
               /*zero_bytes=*/false, /*locals=*/false, /*demand_adds=*/false);
}

TEST(RateEquivalence, PaperScaleSixtyRacks) {
  run_scenario(/*seed=*/21, /*racks=*/60, /*num_starts=*/120,
               /*pair_limit=*/0, /*zero_bytes=*/false, /*locals=*/false,
               /*demand_adds=*/false);
}

TEST(RateEquivalence, ZeroByteAndLocalFlows) {
  run_scenario(/*seed=*/31, /*racks=*/5, /*num_starts=*/60, /*pair_limit=*/0,
               /*zero_bytes=*/true, /*locals=*/true, /*demand_adds=*/false);
}

TEST(RateEquivalence, DemandAddedMidTransfer) {
  run_scenario(/*seed=*/41, /*racks=*/8, /*num_starts=*/50, /*pair_limit=*/3,
               /*zero_bytes=*/true, /*locals=*/true, /*demand_adds=*/true);
}

TEST(RateEquivalence, DrainedFlowsReopenedByLateDemand) {
  // Few pairs and small flows drain between starts, so late demand often
  // lands on a completed flow, which is restarted like the driver does.
  run_scenario(/*seed=*/51, /*racks=*/6, /*num_starts=*/60, /*pair_limit=*/3,
               /*zero_bytes=*/true, /*locals=*/true, /*demand_adds=*/true,
               /*reopens=*/true);
}

TEST(RateEquivalence, TwoHundredFiftySixRacks) {
  run_scenario(/*seed=*/61, /*racks=*/256, /*num_starts=*/300,
               /*pair_limit=*/0, /*zero_bytes=*/true, /*locals=*/true,
               /*demand_adds=*/true, /*reopens=*/true);
}

// --- Tight-set gather ------------------------------------------------------
// Each filling round freezes every link whose residual share is within
// kTightTol of the round's minimum. The cases below put link ratios exactly
// on, just inside and just outside that tolerance.

/// Start every flow at time zero, run the first replan, and return its
/// rates; the caller drains the rest with Scenario::drain.
std::vector<std::pair<FlowId, Bandwidth>> first_replan(
    Scenario& run,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& pairs,
    std::uint64_t seed) {
  Rng rng(seed);
  for (const auto& [src, dst] : pairs) {
    run.start(src, dst, DataSize::megabytes(rng.uniform_int(1, 4000)));
  }
  while (run.replans_checked == 0 && run.step()) {
  }
  EXPECT_EQ(run.replans_checked, 1);
  return run.eps.current_rates();
}

double rate_of(const std::vector<std::pair<FlowId, Bandwidth>>& rates,
               const Flow& flow) {
  for (const auto& [id, rate] : rates) {
    if (id == flow.id()) return rate.in_bits_per_sec();
  }
  ADD_FAILURE() << "flow " << flow.id() << " not active";
  return 0.0;
}

std::size_t distinct_rates(
    const std::vector<std::pair<FlowId, Bandwidth>>& rates) {
  std::vector<double> r;
  for (const auto& [id, rate] : rates) r.push_back(rate.in_bits_per_sec());
  std::sort(r.begin(), r.end());
  return static_cast<std::size_t>(std::unique(r.begin(), r.end()) -
                                  r.begin());
}

TEST(RateEquivalence, SymmetricAllToAllSaturatesEveryLinkInOneRound) {
  // Two flows on every ordered rack pair: every uplink and downlink carries
  // the same load, so all 2*racks links tie exactly and the first round
  // freezes everything at one share.
  HybridTopology topo;
  topo.num_racks = 8;
  Scenario run(topo);
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (std::int64_t s = 0; s < topo.num_racks; ++s) {
    for (std::int64_t d = 0; d < topo.num_racks; ++d) {
      if (s == d) continue;
      pairs.emplace_back(s, d);
      pairs.emplace_back(s, d);
    }
  }
  const auto rates = first_replan(run, pairs, /*seed=*/71);
  if (::testing::Test::HasFatalFailure()) return;
  const double share = topo.eps_rack_link().in_bits_per_sec() /
                       (2.0 * (topo.num_racks - 1));
  EXPECT_EQ(distinct_rates(rates), 1U);
  EXPECT_EQ(rates.front().second.in_bits_per_sec(), share);
  run.drain();
}

TEST(RateEquivalence, RoundingSplitTieIsInsideTolerance) {
  // Rack 1's downlink carries 7 flows and freezes first at b = C/7. Probe
  // rack 2 sends 1 of them plus 3 flows to idle racks; probe rack 3 sends
  // 3 of them plus 2. In round 2 both probe uplinks have the exact share
  // 2C/7, but (C - b)/3 and (C - b - b - b)/2 round one ulp apart: the
  // larger is just inside kTightTol and must freeze in the same round.
  HybridTopology topo;
  topo.num_racks = 12;
  Scenario run(topo);
  const std::vector<std::pair<std::int64_t, std::int64_t>> pairs = {
      {2, 1}, {3, 1}, {3, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1},
      {2, 7}, {2, 8}, {2, 9}, {3, 10}, {3, 11}};
  const auto rates = first_replan(run, pairs, /*seed=*/72);
  if (::testing::Test::HasFatalFailure()) return;

  const double cap = topo.eps_rack_link().in_bits_per_sec();
  const double b = cap / 7;
  double up2 = cap;
  double up3 = cap;
  up2 = std::max(up2 - b, 0.0);
  for (int k = 0; k < 3; ++k) up3 = std::max(up3 - b, 0.0);
  const double ratio2 = up2 / 3;
  const double ratio3 = up3 / 2;
  ASSERT_NE(ratio2, ratio3) << "the tie is exact; the case tests nothing";
  ASSERT_LE(std::max(ratio2, ratio3),
            std::min(ratio2, ratio3) * (1.0 + kTightTol));

  const double probe2 = rate_of(rates, *run.flows[7]);   // 2 -> 7
  const double probe3 = rate_of(rates, *run.flows[10]);  // 3 -> 10
  EXPECT_EQ(probe2, std::min(ratio2, ratio3));
  EXPECT_EQ(probe3, probe2);
  run.drain();
}

/// Probe rack 0 sends `probe[i]` flows to bottleneck rack i+1 and `sinks`
/// flows to idle racks; filler racks top bottleneck i+1's downlink up to
/// `loads[i]` flows. The bottlenecks freeze one per round, in order. The
/// counts are solved so that, at the last bottleneck's round, the probe
/// uplink's share differs from the bottleneck's by a relative `gap` just
/// outside kTightTol: the two links must freeze in different rounds.
void run_near_tie_outside(const std::vector<std::int64_t>& loads,
                          const std::vector<std::int64_t>& probe,
                          std::int64_t sinks, double gap) {
  constexpr std::int64_t kFillers = 40;
  const auto levels = static_cast<std::int64_t>(loads.size());
  const std::int64_t first_sink = levels + 1;
  const std::int64_t first_filler = first_sink + sinks;
  HybridTopology topo;
  topo.num_racks = static_cast<std::int32_t>(first_filler + kFillers);
  Scenario run(topo);
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (std::int64_t i = 0; i < levels; ++i) {
    const auto li = static_cast<std::size_t>(i);
    for (std::int64_t k = 0; k < probe[li]; ++k) pairs.emplace_back(0, i + 1);
    for (std::int64_t k = 0; k < loads[li] - probe[li]; ++k) {
      pairs.emplace_back(first_filler + k % kFillers, i + 1);
    }
  }
  const std::size_t last_bottleneck_flow = pairs.size() - 1;
  for (std::int64_t s = 0; s < sinks; ++s) pairs.emplace_back(0, first_sink + s);
  const auto rates = first_replan(run, pairs, /*seed=*/73);
  if (::testing::Test::HasFatalFailure()) return;

  const double bottleneck =
      rate_of(rates, *run.flows[last_bottleneck_flow]);
  const double prober = rate_of(rates, *run.flows.back());
  EXPECT_EQ(bottleneck, topo.eps_rack_link().in_bits_per_sec() /
                            static_cast<double>(loads.back()));
  EXPECT_NE(prober, bottleneck);
  EXPECT_NEAR(prober / bottleneck - 1.0, gap, 1e-13);
  EXPECT_GT(std::abs(prober / bottleneck - 1.0), kTightTol);
  run.drain();
}

TEST(RateEquivalence, NearTieJustAboveToleranceFreezesLater) {
  // The probe's share is 1.74e-11 above the last bottleneck's.
  run_near_tie_outside({97, 89, 83, 79, 73, 71, 59}, {1, 26, 3, 29, 5, 4, 0},
                       /*sinks=*/10, /*gap=*/1.7382892431383735e-11);
}

TEST(RateEquivalence, NearTieJustBelowToleranceFreezesEarlier) {
  // The probe's share is 8.29e-12 below the last bottleneck's.
  run_near_tie_outside({101, 97, 89, 83, 79, 73, 61}, {10, 9, 25, 0, 3, 7, 0},
                       /*sinks=*/24, /*gap=*/-8.286205356414965e-12);
}

TEST(RateEquivalence, SkewedTwoHundredFiftySixRacksFillInManyRounds) {
  // Rack r sends about 24 * 0.985^r flows and destinations are drawn
  // geometrically, so uplink and downlink loads spread over many distinct
  // values: the first replan alone runs dozens of filling rounds.
  HybridTopology topo;
  topo.num_racks = 256;
  Scenario run(topo);
  Rng rng(74);
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (std::int64_t s = 0; s < topo.num_racks; ++s) {
    const auto count = static_cast<std::int64_t>(
        1 + 24 * std::pow(0.985, static_cast<double>(s)));
    for (std::int64_t k = 0; k < count; ++k) {
      std::int64_t d = 0;
      while (d < topo.num_racks - 1 && rng.uniform_int(0, 9) < 9) ++d;
      if (d == s) d = (d + 1) % topo.num_racks;
      pairs.emplace_back(s, d);
    }
  }
  const auto rates = first_replan(run, pairs, /*seed=*/75);
  if (::testing::Test::HasFatalFailure()) return;
  // Every filling round freezes its groups at one new share.
  EXPECT_GT(distinct_rates(rates), 20U);
  run.drain();
}

// --- Per-flow exact fluid reference -----------------------------------------

// Must equal EpsFabric's zero-byte threshold, replan coalescing window and
// completion tie window.
constexpr double kResidualBits = 1e-3;
constexpr Duration kReplanInterval = Duration::milliseconds(100);
constexpr Duration kDrainTieWindow = Duration::microseconds(1e-3);

/// The per-flow fluid model: each replan settles every active flow at its
/// old rate, gives it its fill_rates_reference share and re-plans its own
/// completion event exactly; demand re-plans the grown flow's event. Flows
/// start, coalesce replans, let completions within kDrainTieWindow go
/// first and complete at zero bytes as in EpsFabric.
class ReferenceEps {
 public:
  ReferenceEps(Simulator& sim, const HybridTopology& topo)
      : sim_(sim), topo_(topo) {}

  void set_on_flow_complete(std::function<void(Flow&)> cb) {
    on_complete_ = std::move(cb);
  }

  void start_flow(Flow& flow) {
    flow.mark_started(sim_.now());
    flow.set_rate(Bandwidth::zero());
    Active& a = active_[flow.id()];
    a.flow = &flow;
    a.last_settle = sim_.now();
    if (flow.remaining_bits() <= kResidualBits) {
      const FlowId id = flow.id();
      a.event = sim_.schedule_after(Duration::zero(),
                                    [this, id] { complete(id); });
      return;
    }
    request_replan();
  }

  void demand_added(Flow& flow) {
    if (auto it = active_.find(flow.id()); it != active_.end()) {
      settle(it->second);
      if (flow.remaining_bits() > kResidualBits) plan(it->second);
    }
    request_replan();
  }

  [[nodiscard]] std::size_t active_flows() const { return active_.size(); }
  [[nodiscard]] double eps_bits() const { return eps_bits_; }
  [[nodiscard]] double local_bits() const { return local_bits_; }

 private:
  struct Active {
    Flow* flow = nullptr;
    SimTime last_settle = SimTime::zero();
    EventHandle event;
    SimTime due = SimTime::zero();
  };

  void request_replan() {
    if (replan_scheduled_) return;
    replan_scheduled_ = true;
    const SimTime due = std::max(sim_.now(), last_replan_ + kReplanInterval);
    sim_.schedule_at(due, [this] { on_replan_due(); });
  }

  void on_replan_due() {
    bool tied = false;
    SimTime wait = sim_.now();
    for (const auto& [id, a] : active_) {
      if (a.flow->path() == FlowPath::kLocal || !a.event.pending()) continue;
      if (a.due <= sim_.now() + kDrainTieWindow) {
        tied = true;
        wait = std::max(wait, a.due);
      }
    }
    if (tied) {
      sim_.schedule_at(wait, [this] { on_replan_due(); });
      return;
    }
    replan_scheduled_ = false;
    replan();
  }

  void settle(Active& a) {
    const Duration elapsed = sim_.now() - a.last_settle;
    a.last_settle = sim_.now();
    if (elapsed <= Duration::zero()) return;
    const double moved = a.flow->settle(elapsed);
    (a.flow->path() == FlowPath::kLocal ? local_bits_ : eps_bits_) += moved;
  }

  void plan(Active& a) {
    a.event.cancel();
    const double rate = a.flow->rate().in_bits_per_sec();
    if (rate <= 0.0) return;
    const FlowId id = a.flow->id();
    a.due = sim_.now() + Duration::seconds(a.flow->remaining_bits() / rate);
    a.event = sim_.schedule_at(a.due, [this, id] { complete(id); });
  }

  void replan() {
    last_replan_ = sim_.now();
    std::vector<const Flow*> flows;
    for (const auto& [id, a] : active_) flows.push_back(a.flow);
    const auto rates = fill_rates_reference(topo_, flows);
    std::size_t i = 0;
    for (auto& [id, a] : active_) {
      settle(a);
      a.flow->set_rate(rates[i++].second);
      plan(a);
    }
  }

  void complete(FlowId id) {
    const auto it = active_.find(id);
    ASSERT_NE(it, active_.end()) << "flow " << id << " completed twice";
    settle(it->second);
    Flow& flow = *it->second.flow;
    flow.mark_completed(sim_.now());
    it->second.event.cancel();
    active_.erase(it);
    if (!active_.empty()) request_replan();
    if (on_complete_) on_complete_(flow);
  }

  Simulator& sim_;
  HybridTopology topo_;
  std::function<void(Flow&)> on_complete_;
  std::map<FlowId, Active> active_;  // flow id order
  SimTime last_replan_ = SimTime::seconds(-1e9);
  bool replan_scheduled_ = false;
  double eps_bits_ = 0.0;
  double local_bits_ = 0.0;
};

/// One engine under a script: its own simulator, flows and completion log.
template <class Engine>
struct FluidRun {
  Simulator sim;
  Engine eps;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Flow>> flows;  // id order
  std::vector<std::pair<FlowId, SimTime>> completions;

  explicit FluidRun(const HybridTopology& topo) : eps(sim, topo) {
    eps.set_on_flow_complete([this](Flow& f) {
      completions.emplace_back(f.id(), f.completion_time());
    });
  }

  void start(std::int64_t src, std::int64_t dst, DataSize size) {
    flows.push_back(std::make_unique<Flow>(ids.next(), CoflowId{0}, JobId{0},
                                           RackId{src}, RackId{dst}, size));
    Flow& f = *flows.back();
    f.set_path(src == dst ? FlowPath::kLocal : FlowPath::kEps);
    eps.start_flow(f);
  }

  /// Late demand on flow `idx`: grow it in flight, or re-open it through
  /// the front door once drained, as the driver does.
  void add_demand(std::size_t idx, DataSize grow, DataSize reopen) {
    Flow& f = *flows[idx];
    if (!f.completed()) {
      f.add_demand(grow);
      eps.demand_added(f);
    } else {
      f.add_demand(reopen);
      eps.start_flow(f);
    }
  }
};

/// Run every event up to `t` and leave the clock at `t`.
void advance_clock(Simulator& sim, SimTime t) {
  sim.schedule_at(t, [] {});
  sim.run_until(t);
}

bool near_rel(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Same completions (a re-opened flow completes once per opening), within
/// 1e-9 relative, in the same order once exact ties are put in id order.
void expect_same_fluid(FluidRun<EpsFabric>& got, FluidRun<ReferenceEps>& want) {
  ASSERT_EQ(got.eps.active_flows(), 0U);
  ASSERT_EQ(want.eps.active_flows(), 0U);
  ASSERT_EQ(got.completions.size(), want.completions.size());
  auto by_time_then_id = [](const auto& a, const auto& b) {
    return a.second < b.second || (a.second == b.second && a.first < b.first);
  };
  std::stable_sort(got.completions.begin(), got.completions.end(),
                   by_time_then_id);
  std::stable_sort(want.completions.begin(), want.completions.end(),
                   by_time_then_id);
  for (std::size_t i = 0; i < want.completions.size(); ++i) {
    const auto& [gid, gt] = got.completions[i];
    const auto& [wid, wt] = want.completions[i];
    ASSERT_EQ(gid, wid) << "completion " << i << " out of order (reference "
                        << wt << ", group engine " << gt << ")";
    ASSERT_TRUE(near_rel(gt.sec(), wt.sec()))
        << "flow " << gid << " completed at " << gt << ", reference " << wt;
  }
  EXPECT_TRUE(near_rel(got.eps.eps_bits(), want.eps.eps_bits()))
      << got.eps.eps_bits() << " vs " << want.eps.eps_bits();
  EXPECT_TRUE(near_rel(got.eps.local_bits(), want.eps.local_bits()))
      << got.eps.local_bits() << " vs " << want.eps.local_bits();
}

// Drive both engines through one randomized script. Every draw is made
// whatever the engines' state, so the script stays in step; the engines
// must agree on which flows have drained at each script instant.
void run_fluid_scenario(std::uint64_t seed, std::int32_t racks,
                        std::int64_t num_starts, std::int64_t pair_limit,
                        bool zero_bytes, bool locals, bool demand_adds,
                        bool reopens) {
  HybridTopology topo;
  topo.num_racks = racks;
  FluidRun<EpsFabric> got(topo);
  FluidRun<ReferenceEps> want(topo);
  Rng rng(seed);
  SimTime t = SimTime::zero();
  std::int64_t started = 0;
  std::int64_t grown = 0;
  std::int64_t reopened = 0;
  auto advance = [&](SimTime until) {
    advance_clock(got.sim, until);
    advance_clock(want.sim, until);
  };
  while (started < num_starts) {
    t = t + Duration::milliseconds(rng.uniform_int(0, 250));
    advance(t);
    const bool add_demand =
        demand_adds && started > 0 && rng.uniform_int(0, 3) == 0;
    if (add_demand) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(want.flows.size()) - 1));
      const DataSize grow = DataSize::megabytes(rng.uniform_int(0, 800));
      const DataSize reopen = DataSize::megabytes(rng.uniform_int(1, 800));
      const bool drained = want.flows[idx]->completed();
      ASSERT_EQ(got.flows[idx]->completed(), drained)
          << "engines disagree on flow " << idx << " at " << t;
      if (!drained || reopens) {
        got.add_demand(idx, grow, reopen);
        want.add_demand(idx, grow, reopen);
        ++(drained ? reopened : grown);
      }
    } else {
      const std::int64_t span = pair_limit > 0
                                    ? std::min<std::int64_t>(pair_limit, racks)
                                    : racks;
      const std::int64_t src = rng.uniform_int(0, span - 1);
      std::int64_t dst = rng.uniform_int(0, span - 1);
      if (!locals && dst == src) dst = (dst + 1) % span;
      DataSize size = DataSize::megabytes(rng.uniform_int(1, 4000));
      if (zero_bytes && rng.uniform_int(0, 4) == 0) size = DataSize::zero();
      got.start(src, dst, size);
      want.start(src, dst, size);
      ++started;
    }
    t = t + Duration::milliseconds(101);
    advance(t);
  }
  got.sim.run();
  want.sim.run();
  expect_same_fluid(got, want);
  if (demand_adds) {
    EXPECT_GT(grown, 0) << "no flow grew in flight";
  }
  if (reopens) {
    EXPECT_GT(reopened, 0) << "no drained flow was re-opened";
  }
}

TEST(FluidEquivalence, RandomChurnSmallTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::int32_t racks = static_cast<std::int32_t>(2 + seed % 7);
    SCOPED_TRACE("seed " + std::to_string(seed) + " racks " +
                 std::to_string(racks));
    run_fluid_scenario(seed, racks, /*num_starts=*/60, /*pair_limit=*/0,
                       /*zero_bytes=*/false, /*locals=*/false,
                       /*demand_adds=*/false, /*reopens=*/false);
  }
}

TEST(FluidEquivalence, DeepGroupsOnFewPairs) {
  run_fluid_scenario(/*seed=*/111, /*racks=*/6, /*num_starts=*/120,
                     /*pair_limit=*/2, /*zero_bytes=*/false,
                     /*locals=*/false, /*demand_adds=*/false,
                     /*reopens=*/false);
}

TEST(FluidEquivalence, DemandGrowthZeroByteAndLocalFlows) {
  for (std::uint64_t seed = 121; seed <= 124; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_fluid_scenario(seed, /*racks=*/8, /*num_starts=*/80,
                       /*pair_limit=*/3, /*zero_bytes=*/true,
                       /*locals=*/true, /*demand_adds=*/true,
                       /*reopens=*/false);
  }
}

TEST(FluidEquivalence, DrainedFlowsReopenedByLateDemand) {
  for (std::uint64_t seed = 131; seed <= 134; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_fluid_scenario(seed, /*racks=*/6, /*num_starts=*/80,
                       /*pair_limit=*/3, /*zero_bytes=*/true,
                       /*locals=*/true, /*demand_adds=*/true,
                       /*reopens=*/true);
  }
}

TEST(FluidEquivalence, PaperScaleSixtyRacks) {
  run_fluid_scenario(/*seed=*/141, /*racks=*/60, /*num_starts=*/200,
                     /*pair_limit=*/0, /*zero_bytes=*/true, /*locals=*/true,
                     /*demand_adds=*/true, /*reopens=*/true);
}

TEST(FluidEquivalence, SkewedTwoHundredFiftySixRacks) {
  // The skewed many-round flow set of
  // RateEquivalence.SkewedTwoHundredFiftySixRacksFillInManyRounds, started
  // at once, with demand landing on some flows mid-drain.
  HybridTopology topo;
  topo.num_racks = 256;
  FluidRun<EpsFabric> got(topo);
  FluidRun<ReferenceEps> want(topo);
  Rng rng(151);
  for (std::int64_t s = 0; s < topo.num_racks; ++s) {
    const auto count = static_cast<std::int64_t>(
        1 + 24 * std::pow(0.985, static_cast<double>(s)));
    for (std::int64_t k = 0; k < count; ++k) {
      std::int64_t d = 0;
      while (d < topo.num_racks - 1 && rng.uniform_int(0, 9) < 9) ++d;
      if (d == s) d = (d + 1) % topo.num_racks;
      const DataSize size = DataSize::megabytes(rng.uniform_int(1, 4000));
      got.start(s, d, size);
      want.start(s, d, size);
    }
  }
  for (int step = 1; step <= 20; ++step) {
    const SimTime t = SimTime::seconds(0.37 * step);
    advance_clock(got.sim, t);
    advance_clock(want.sim, t);
    const auto idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(want.flows.size()) - 1));
    const DataSize extra = DataSize::megabytes(rng.uniform_int(1, 800));
    ASSERT_EQ(got.flows[idx]->completed(), want.flows[idx]->completed());
    got.add_demand(idx, extra, extra);
    want.add_demand(idx, extra, extra);
  }
  got.sim.run();
  want.sim.run();
  expect_same_fluid(got, want);
}

// --- Hash-order guard --------------------------------------------------------

struct FluidLog {
  std::vector<std::pair<FlowId, double>> completions;
  double eps_bits = 0.0;
  double local_bits = 0.0;
};

/// One fixed EPS script starting at 1 s, optionally after `churn`
/// zero-byte flows (ids disjoint from the script's) all started and
/// drained at time 0 — enough to grow, and rehash, any flow table.
FluidLog run_after_churn(std::int64_t churn) {
  HybridTopology topo;
  topo.num_racks = 16;
  Simulator sim;
  EpsFabric eps(sim, topo);
  FluidLog log;
  eps.set_on_flow_complete([&](Flow& f) {
    log.completions.emplace_back(f.id(), f.completion_time().sec());
  });
  std::vector<std::unique_ptr<Flow>> flows;
  Rng churn_rng(7);
  for (std::int64_t k = 0; k < churn; ++k) {
    const std::int64_t src = churn_rng.uniform_int(0, topo.num_racks - 1);
    const std::int64_t dst =
        (src + churn_rng.uniform_int(1, topo.num_racks - 1)) % topo.num_racks;
    flows.push_back(std::make_unique<Flow>(FlowId{1'000'000 + k}, CoflowId{0},
                                           JobId{0}, RackId{src},
                                           RackId{dst}, DataSize::zero()));
    flows.back()->set_path(FlowPath::kEps);
    eps.start_flow(*flows.back());
  }
  sim.run_until(SimTime::zero());
  const double churn_bits = eps.eps_bits();
  log.completions.clear();

  Rng rng(8);
  IdAllocator<FlowId> ids;
  std::vector<Flow*> script;
  SimTime t = SimTime::seconds(1.0);
  for (int i = 0; i < 400; ++i) {
    advance_clock(sim, t);
    if (!script.empty() && rng.uniform_int(0, 3) == 0) {
      Flow& f = *script[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(script.size()) - 1))];
      const bool drained = f.completed();
      f.add_demand(DataSize::megabytes(rng.uniform_int(1, 800)));
      if (drained) {
        eps.start_flow(f);
      } else {
        eps.demand_added(f);
      }
    } else {
      const std::int64_t src = rng.uniform_int(0, 5);
      const std::int64_t dst = rng.uniform_int(0, 5);
      flows.push_back(std::make_unique<Flow>(
          ids.next(), CoflowId{0}, JobId{0}, RackId{src}, RackId{dst},
          DataSize::megabytes(rng.uniform_int(1, 2000))));
      script.push_back(flows.back().get());
      script.back()->set_path(src == dst ? FlowPath::kLocal : FlowPath::kEps);
      eps.start_flow(*script.back());
    }
    t = t + Duration::milliseconds(rng.uniform_int(0, 120));
  }
  sim.run();
  EXPECT_EQ(churn_bits, 0.0);
  EXPECT_EQ(eps.active_flows(), 0U);
  log.eps_bits = eps.eps_bits();
  log.local_bits = eps.local_bits();
  return log;
}

TEST(EpsHashOrder, OutputsDoNotDependOnEarlierChurn) {
  const FluidLog fresh = run_after_churn(0);
  const FluidLog churned = run_after_churn(10'000);
  ASSERT_GT(fresh.completions.size(), 300U);
  EXPECT_EQ(fresh.completions, churned.completions);
  EXPECT_EQ(fresh.eps_bits, churned.eps_bits);
  EXPECT_EQ(fresh.local_bits, churned.local_bits);
}

}  // namespace
}  // namespace cosched
