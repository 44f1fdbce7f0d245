// Dispatch equivalence regression (part of `ctest -L determinism`).
//
// The driver's dispatch must reproduce the O(racks) round-robin scan *bit
// for bit*. The scan is the same wave run under the ScanDispatch decorator
// (tests/oracles.h), whose unstable declines make the driver ignore
// global-decline claims: every pass offers every free rack. The runs must
// agree on RunMetrics (including the dispatch-wave count), container-grant
// sequences and placements — across every scheduler family, CoScheduler
// and its reference, fault churn, OCS outages, and all-decline waves whose
// racks a later state change re-offers. Any divergence here means ending a
// wave early changed simulation results. The global-decline claims the
// driver acts on are themselves checked by replaying every claimed
// decline on every rack, and every offer is checked against a plain
// round-robin scan of the cluster's free containers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_spec.h"
#include "obs/observability.h"
#include "oracles.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The run's container grants (kContainerGrant trace events), in order.
std::vector<TraceEvent> grant_events(const TraceRecorder& trace) {
  std::vector<TraceEvent> grants;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEventKind::kContainerGrant) grants.push_back(ev);
  }
  return grants;
}

void expect_runs_bitwise_equal(const std::vector<RunMetrics>& a,
                               const std::vector<RunMetrics>& b,
                               const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t rep = 0; rep < a.size(); ++rep) {
    const std::string at = where + " rep" + std::to_string(rep);
    EXPECT_EQ(bits(a[rep].makespan.sec()), bits(b[rep].makespan.sec())) << at;
    EXPECT_EQ(a[rep].ocs_bytes.in_bytes(), b[rep].ocs_bytes.in_bytes()) << at;
    EXPECT_EQ(a[rep].eps_bytes.in_bytes(), b[rep].eps_bytes.in_bytes()) << at;
    EXPECT_EQ(a[rep].local_bytes.in_bytes(), b[rep].local_bytes.in_bytes())
        << at;
    EXPECT_EQ(a[rep].events_executed, b[rep].events_executed) << at;
    EXPECT_EQ(a[rep].dispatch_waves, b[rep].dispatch_waves) << at;
    ASSERT_EQ(a[rep].jobs.size(), b[rep].jobs.size()) << at;
    for (std::size_t j = 0; j < a[rep].jobs.size(); ++j) {
      const std::string jat = at + " job#" + std::to_string(j);
      EXPECT_EQ(bits(a[rep].jobs[j].jct.sec()), bits(b[rep].jobs[j].jct.sec()))
          << jat;
      EXPECT_EQ(bits(a[rep].jobs[j].cct.sec()), bits(b[rep].jobs[j].cct.sec()))
          << jat;
      EXPECT_EQ(bits(a[rep].jobs[j].first_reduce_placement.sec()),
                bits(b[rep].jobs[j].first_reduce_placement.sec()))
          << jat;
    }
  }
}

ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 12;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 6;
  cfg.workload.num_jobs = 16;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(2);
  cfg.workload.max_maps = 40;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(40);
  cfg.repetitions = 2;
  cfg.base_seed = seed;
  cfg.sim.audit = true;  // auditor armed on every case
  return cfg;
}

std::vector<RunMetrics> run_offer_queue(const ExperimentConfig& cfg,
                                        const std::string& scheduler) {
  return run_repetitions(cfg, make_scheduler_factory(scheduler));
}

std::vector<RunMetrics> run_scan(const ExperimentConfig& cfg,
                                 const std::string& scheduler) {
  return run_repetitions(
      cfg, oracle::scan_dispatch_factory(make_scheduler_factory(scheduler)));
}

FaultPlan parse_plan(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

/// Counts of global-decline claims a GlobalDeclineChecker replayed.
struct DeclineClaims {
  std::int64_t checked = 0;
  std::int64_t disproved = 0;
};

/// Forwards everything to the wrapped scheduler and checks its global-
/// decline claims instead of trusting them: after every nullopt reported
/// as rack-independent, pick_task is replayed on every rack, and any grant
/// disproves the claim. A disproved claim is passed on as rack-dependent,
/// so the run still ends (a false claim can end a wave that should grant).
/// The replays must also leave the run bit-identical.
class GlobalDeclineChecker final : public oracle::ForwardingScheduler {
 public:
  GlobalDeclineChecker(std::unique_ptr<JobScheduler> inner,
                       DeclineClaims& claims)
      : ForwardingScheduler(std::move(inner)), claims_(claims) {}

  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    std::optional<TaskChoice> choice = inner().pick_task(rack, ctx);
    last_global_ = !choice.has_value() && inner().declines_are_stable() &&
                   inner().last_decline_was_global();
    if (last_global_) {
      ++claims_.checked;
      for (std::int32_t r = 0; r < ctx.topo.num_racks; ++r) {
        if (inner().pick_task(RackId{r}, ctx).has_value()) {
          ADD_FAILURE() << name() << " declined rack " << rack
                        << " globally at " << ctx.now
                        << " but grants on rack " << r;
          last_global_ = false;
        }
      }
      if (!last_global_) ++claims_.disproved;
    }
    return choice;
  }

  [[nodiscard]] bool last_decline_was_global() const override {
    return last_global_;
  }

 private:
  DeclineClaims& claims_;
  bool last_global_ = false;
};

TEST(DispatchEquivalence, EverySchedulerFamilyMatchesBitForBit) {
  for (const char* sched :
       {"coscheduler", "fair", "corral", "mts+ocas", "ocas"}) {
    SCOPED_TRACE(sched);
    const ExperimentConfig cfg = base_config(3);
    const auto scan = run_scan(cfg, sched);
    const auto oq = run_offer_queue(cfg, sched);
    expect_runs_bitwise_equal(scan, oq, sched);
  }
}

TEST(DispatchEquivalence, BothSchedEnginesMatchAcrossDispatchEngines) {
  // The 2x2 grid: {scan, production dispatch} x {ReferenceCoScheduler,
  // CoScheduler} must all land on the same bits — ending a wave on a
  // global decline composes with CoScheduler's own no-grant memo.
  const ExperimentConfig cfg = base_config(5);
  std::vector<std::vector<RunMetrics>> grid;
  for (const SchedulerFactory& sched :
       {oracle::reference_scheduler_factory("coscheduler"),
        make_scheduler_factory("coscheduler")}) {
    grid.push_back(run_repetitions(cfg, oracle::scan_dispatch_factory(sched)));
    grid.push_back(run_repetitions(cfg, sched));
  }
  for (std::size_t i = 1; i < grid.size(); ++i) {
    expect_runs_bitwise_equal(grid[0], grid[i],
                              "grid cell " + std::to_string(i));
  }
}

TEST(DispatchEquivalence, RandomizedTopologiesMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExperimentConfig cfg = base_config(seed);
    // Cross the free-rack walk's 64-rack word boundary on the larger draws.
    cfg.sim.topo.num_racks = static_cast<std::int32_t>(4 + seed * 17);
    cfg.workload.shuffle_heavy_fraction = 0.15 * static_cast<double>(seed);
    const auto scan = run_scan(cfg, "coscheduler");
    const auto oq = run_offer_queue(cfg, "coscheduler");
    expect_runs_bitwise_equal(scan, oq, "seed" + std::to_string(seed));
  }
}

TEST(DispatchEquivalence, GrantSequencesIdenticalGrantForGrant) {
  ExperimentConfig cfg = base_config(11);
  cfg.repetitions = 1;

  Observability scan_obs;
  ExperimentConfig scan_cfg = cfg;
  scan_cfg.sim.obs = &scan_obs;
  const RunMetrics scan = run_once(
      scan_cfg,
      oracle::scan_dispatch_factory(make_scheduler_factory("coscheduler")), 0);

  Observability oq_obs;
  ExperimentConfig oq_cfg = cfg;
  oq_cfg.sim.obs = &oq_obs;
  const RunMetrics oq =
      run_once(oq_cfg, make_scheduler_factory("coscheduler"), 0);

  EXPECT_EQ(bits(scan.makespan.sec()), bits(oq.makespan.sec()));
  const std::vector<TraceEvent> a = grant_events(scan_obs.trace);
  const std::vector<TraceEvent> b = grant_events(oq_obs.trace);
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "grant#" << i;
  }
}

TEST(DispatchEquivalence, KillChurnAndOutagesMatchBitForBit) {
  // Kills release containers (free-set re-entry mid-event) and requeue
  // tasks; outages trigger the deadlock breaker's plan clearing. Both
  // paths can turn a decline into a grant — a stale global claim here
  // would diverge.
  ExperimentConfig cfg = base_config(13);
  cfg.sim.faults = parse_plan(
      "container-kill:p=0.09,straggler:p=0.2:slow=3,ocs-outage:at=30s:dur="
      "45s");
  // A kill re-opens a pending map after an earlier global decline, which
  // Fair's and Corral's claims must survive.
  for (const char* sched : {"coscheduler", "fair", "corral"}) {
    SCOPED_TRACE(sched);
    const auto scan = run_scan(cfg, sched);
    const auto oq = run_offer_queue(cfg, sched);
    expect_runs_bitwise_equal(scan, oq, sched);
  }
}

TEST(DispatchEquivalence, GlobalDeclineClaimsHoldOnEveryRack) {
  // Kills re-open pending maps, stragglers stretch the waits between
  // grants, and the outage strands shuffles: each is a state change a
  // stale or over-broad global claim would miss.
  ExperimentConfig cfg = base_config(13);
  cfg.sim.faults = parse_plan(
      "container-kill:p=0.09,straggler:p=0.2:slow=3,ocs-outage:at=30s:dur="
      "45s");
  for (const char* sched : {"fair", "corral", "coscheduler"}) {
    SCOPED_TRACE(sched);
    DeclineClaims claims;
    const SchedulerFactory inner = make_scheduler_factory(sched);
    const auto checked = run_repetitions(cfg, [&inner, &claims] {
      return std::make_unique<GlobalDeclineChecker>(inner(), claims);
    });
    EXPECT_GT(claims.checked, 0) << "no global decline was claimed";
    // The unchecked run trusts every claim, so a false one may not end.
    ASSERT_EQ(claims.disproved, 0);
    const auto plain = run_repetitions(cfg, inner);
    expect_runs_bitwise_equal(plain, checked, sched);
  }
}

/// Forwards everything and logs each pick_task: when it ran, on which
/// rack, and whether it granted.
class PickLog final : public oracle::ForwardingScheduler {
 public:
  struct Pick {
    SimTime at;
    RackId rack;
    bool granted;
  };

  PickLog(std::unique_ptr<JobScheduler> inner, std::vector<Pick>& log)
      : ForwardingScheduler(std::move(inner)), log_(log) {}

  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    std::optional<TaskChoice> choice = inner().pick_task(rack, ctx);
    log_.push_back({ctx.now, rack, choice.has_value()});
    return choice;
  }

 private:
  std::vector<Pick>& log_;
};

/// Picks that re-offer a rack declined in an earlier instant whose picks
/// all declined. Every wave of such an instant declined on every rack it
/// offered; a later pick on one of those racks means a state change
/// requested a new wave that re-offered it. The log spans repetitions, so
/// a step back in time starts over.
std::size_t reoffers_after_all_decline_waves(
    const std::vector<PickLog::Pick>& log) {
  std::size_t reoffers = 0;
  std::set<std::int32_t> declined;  // racks of earlier all-decline instants
  SimTime prev = SimTime::zero();
  for (std::size_t i = 0; i < log.size();) {
    const SimTime at = log[i].at;
    if (at < prev) declined.clear();
    prev = at;
    const std::size_t first = i;
    bool all_declined = true;
    for (; i < log.size() && log[i].at == at; ++i) {
      reoffers += declined.erase(log[i].rack.value());
      all_declined = all_declined && !log[i].granted;
    }
    if (!all_declined) continue;
    for (std::size_t k = first; k < i; ++k) {
      declined.insert(log[k].rack.value());
    }
  }
  return reoffers;
}

TEST(DispatchEquivalence,
     TightClusterAllDeclineWavesThenStateChangeWavesMatchBitForBit) {
  // A tight cluster makes the Co-scheduler decline whole waves (reduce
  // plans wait on busy racks). No wave runs again until a state change (a
  // completion, a kill, an arrival) requests the next one and re-offers
  // the racks; the production run may also end a wave at a global
  // decline. The scan offers every free rack in every wave, and the runs
  // must agree.
  ExperimentConfig cfg = base_config(17);
  cfg.sim.topo.num_racks = 6;
  cfg.sim.topo.servers_per_rack = 1;
  cfg.sim.topo.slots_per_server = 4;
  cfg.workload.num_jobs = 14;
  std::vector<PickLog::Pick> log;
  const SchedulerFactory sched = make_scheduler_factory("coscheduler");
  const auto scan = run_scan(cfg, "coscheduler");
  const auto oq = run_repetitions(cfg, [&sched, &log] {
    return std::make_unique<PickLog>(sched(), log);
  });
  expect_runs_bitwise_equal(scan, oq, "all-decline");
  EXPECT_GT(reoffers_after_all_decline_waves(log), 0u)
      << "no all-decline wave was followed by a re-offer of its racks: the "
         "case no longer covers declined racks revived by a state change";
}

/// What a RoundRobinScanSpy saw.
struct ScanCheck {
  std::int64_t offers = 0;
  std::int64_t mismatches = 0;
};

/// Checks every pick_task offer against a plain round-robin scan written
/// out here, independent of the Cluster's free-rack walk that both the
/// production wave and ScanDispatch use. The w-th wave (the driver asks
/// declines_are_stable() once as each wave begins) starts at rack
/// w mod R; a pass offers, in order, each of start, start + 1, ..., start
/// - 1 (mod R) whose ctx.cluster.free_slots is positive at that moment;
/// and a pass follows only a pass that granted. A wave may end early (no
/// pending task, a global decline), never late.
class RoundRobinScanSpy final : public oracle::ForwardingScheduler {
 public:
  RoundRobinScanSpy(std::unique_ptr<JobScheduler> inner, ScanCheck& check)
      : ForwardingScheduler(std::move(inner)), check_(check) {}

  [[nodiscard]] bool declines_are_stable() const override {
    start_ = waves_++;
    step_ = 0;
    progress_ = false;
    return ForwardingScheduler::declines_are_stable();
  }

  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    const std::int64_t racks = ctx.topo.num_racks;
    const std::int64_t start = start_ % racks;
    // The scan's next rack: the first one from `step_` on with a free
    // container; a new pass from the start if the last one granted.
    const auto next = [&]() -> std::int64_t {
      for (; step_ < racks; ++step_) {
        const std::int64_t r = (start + step_) % racks;
        if (ctx.cluster.free_slots(RackId{r}) > 0) return r;
      }
      return -1;
    };
    std::int64_t expected = next();
    if (expected < 0 && progress_) {
      step_ = 0;
      progress_ = false;
      expected = next();
    }
    ++check_.offers;
    if (expected != rack.value() && check_.mismatches++ == 0) {
      ADD_FAILURE() << "wave " << start_ << " (start rack " << start
                    << ") offered rack " << rack << " at " << ctx.now
                    << "; the round-robin scan offers "
                    << (expected < 0 ? std::string("nothing more")
                                     : "rack " + std::to_string(expected));
    }
    step_ = (rack.value() - start + racks) % racks + 1;
    std::optional<TaskChoice> choice = inner().pick_task(rack, ctx);
    progress_ = progress_ || choice.has_value();
    return choice;
  }

 private:
  ScanCheck& check_;
  mutable std::int64_t waves_ = 0;
  mutable std::int64_t start_ = 0;
  mutable std::int64_t step_ = 0;
  mutable bool progress_ = false;
};

TEST(DispatchEquivalence, EveryOfferFollowsAPlainRoundRobinScan) {
  // Kills and stragglers free and hold containers mid-wave; the larger
  // topologies cross the free-rack bitset's 64-rack word boundary. Under
  // ScanDispatch no decline ends a wave, so passes run to their wrapped
  // end and start over — where a walk that overran its wrapped range
  // would offer a rack twice.
  for (const std::int32_t racks : {12, 71, 130}) {
    ExperimentConfig cfg = base_config(19);
    cfg.sim.topo.num_racks = racks;
    cfg.sim.faults = parse_plan(
        "container-kill:p=0.05,straggler:p=0.2:slow=2,ocs-outage:at=40s:dur="
        "20s");
    for (const char* sched : {"fair", "corral", "coscheduler"}) {
      for (const bool scan : {false, true}) {
        SCOPED_TRACE(std::string(sched) + (scan ? " under the scan" : "") +
                     " on " + std::to_string(racks) + " racks");
        ScanCheck check;
        const SchedulerFactory plain = make_scheduler_factory(sched);
        const SchedulerFactory inner =
            scan ? oracle::scan_dispatch_factory(plain) : plain;
        const auto spied = run_repetitions(cfg, [&inner, &check] {
          return std::make_unique<RoundRobinScanSpy>(inner(), check);
        });
        EXPECT_GT(check.offers, 0);
        EXPECT_EQ(check.mismatches, 0);
        expect_runs_bitwise_equal(run_repetitions(cfg, plain), spied, sched);
      }
    }
  }
}

TEST(DispatchEquivalence, DispatchWaveCountIsExportedAndStable) {
  // dispatch_waves lands in RunMetrics, is non-zero for any run that
  // placed tasks, and is the same under the scan (it counts waves that
  // scanned, not racks visited).
  const ExperimentConfig cfg = base_config(19);
  const auto scan = run_scan(cfg, "coscheduler");
  const auto oq = run_offer_queue(cfg, "coscheduler");
  for (std::size_t rep = 0; rep < scan.size(); ++rep) {
    EXPECT_GT(scan[rep].dispatch_waves, 0u);
    EXPECT_EQ(scan[rep].dispatch_waves, oq[rep].dispatch_waves);
  }
}

}  // namespace
}  // namespace cosched
