// Parameterized cross-scheduler property tests: for every scheduler and a
// sweep of seeds, a full simulation must uphold the system's invariants —
// plus direct property tests of the paper's algorithms (PSRT, MTS, SBS).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/trem_estimator.h"
#include "coflow/cct_bound.h"
#include "common/rng.h"
#include "ocs1_bound.h"
#include "sched/best_rack_heap.h"
#include "sched/coscheduler.h"
#include "sim/experiment.h"
#include "workload/generator.h"

namespace cosched {
namespace {

using Param = std::tuple<std::string, std::uint64_t>;

class SchedulerProperty : public ::testing::TestWithParam<Param> {
 protected:
  static RunMetrics run(const std::string& scheduler, std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.sim.topo.num_racks = 15;
    cfg.sim.topo.servers_per_rack = 2;
    cfg.sim.topo.slots_per_server = 10;
    cfg.workload.num_jobs = 30;
    cfg.workload.num_users = 5;
    cfg.workload.arrival_window = Duration::minutes(4);
    cfg.workload.max_maps = 80;
    cfg.workload.max_reduces = 10;
    cfg.workload.heavy_input_mu = 2.5;  // modest sizes for the small cluster
    cfg.workload.heavy_input_sigma = 0.8;
    cfg.workload.max_input = DataSize::gigabytes(60);
    cfg.base_seed = seed;
    cfg.repetitions = 1;
    return run_once(cfg, make_scheduler_factory(scheduler), 0);
  }
};

TEST_P(SchedulerProperty, AllJobsCompleteWithSaneTimes) {
  const auto& [scheduler, seed] = GetParam();
  const RunMetrics m = run(scheduler, seed);
  EXPECT_EQ(m.jobs.size(), 30u);
  for (const JobRecord& j : m.jobs) {
    EXPECT_GT(j.jct.sec(), 0.0) << "job " << j.id;
    EXPECT_GE(j.completion.sec(), j.arrival.sec());
    EXPECT_LE(j.completion.sec(), m.makespan.sec() + 1e-9);
  }
}

TEST_P(SchedulerProperty, ShuffleBytesConserved) {
  const auto& [scheduler, seed] = GetParam();
  const RunMetrics m = run(scheduler, seed);
  double expected_gb = 0.0;
  for (const JobRecord& j : m.jobs) {
    expected_gb += j.shuffle_bytes.in_gigabytes();
  }
  const double moved_gb = m.ocs_bytes.in_gigabytes() +
                          m.eps_bytes.in_gigabytes() +
                          m.local_bytes.in_gigabytes();
  EXPECT_NEAR(moved_gb, expected_gb, expected_gb * 0.02 + 0.05);
}

TEST_P(SchedulerProperty, CctNeverBeatsLowerBoundForPureOcsCoflows) {
  const auto& [scheduler, seed] = GetParam();
  const RunMetrics m = run(scheduler, seed);
  for (const JobRecord& j : m.jobs) {
    if (!j.has_shuffle || !j.all_flows_ocs) continue;
    // T(C) is a hard lower bound when every cross-rack flow rides the OCS
    // (per-port serialization + one reconfiguration per flow; same-rack
    // flows are exempt — they never enter the cross-rack matrix).
    // Tolerance covers the sub-nanosecond completion rounding.
    EXPECT_GE(j.cct.sec(), j.cct_lower_bound.sec() - 1e-6)
        << "job " << j.id << " under " << scheduler;
  }
}

TEST_P(SchedulerProperty, CctNeverExceedsJct) {
  const auto& [scheduler, seed] = GetParam();
  const RunMetrics m = run(scheduler, seed);
  for (const JobRecord& j : m.jobs) {
    if (!j.has_shuffle) continue;
    EXPECT_LE(j.cct.sec(), j.jct.sec() + 1e-9) << "job " << j.id;
  }
}

TEST_P(SchedulerProperty, DeterministicRepetition) {
  const auto& [scheduler, seed] = GetParam();
  const RunMetrics a = run(scheduler, seed);
  const RunMetrics b = run(scheduler, seed);
  EXPECT_DOUBLE_EQ(a.makespan.sec(), b.makespan.sec());
  EXPECT_EQ(a.events_executed, b.events_executed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    ::testing::Combine(::testing::Values("fair", "corral", "coscheduler",
                                         "mts+ocas", "ocas"),
                       ::testing::Values(1ULL, 7ULL, 1234ULL)),
    [](const ::testing::TestParamInfo<Param>& p) {
      std::string name =
          std::get<0>(p.param) + "_seed" + std::to_string(std::get<1>(p.param));
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

// ---- fabric sweep: the reported bound is honest on every fabric. --------

/// Every fabric's Fabric::cct_lower_bound must be a true lower bound for
/// the CCT its own simulation achieves (docs/FABRICS.md, "The bound
/// contract") — the per-fabric mirror of
/// CctNeverBeatsLowerBoundForPureOcsCoflows, which covers only ocs:1.
TEST(FabricBoundProperty, AchievedCctNeverBeatsReportedBoundOnAnyFabric) {
  for (const std::string spec :
       {"ocs:1", "ocs:4", "rotor:100ms", "mesh"}) {
    std::string error;
    const auto fabric = FabricSpec::parse(spec, &error);
    ASSERT_TRUE(fabric.has_value()) << spec << ": " << error;
    std::size_t checked = 0;
    for (const std::uint64_t seed : {3ULL, 42ULL}) {
      ExperimentConfig cfg;
      cfg.sim.topo.num_racks = 15;
      cfg.sim.topo.servers_per_rack = 2;
      cfg.sim.topo.slots_per_server = 10;
      cfg.sim.fabric = *fabric;
      cfg.workload.num_jobs = 30;
      cfg.workload.num_users = 5;
      cfg.workload.arrival_window = Duration::minutes(4);
      cfg.workload.max_maps = 80;
      cfg.workload.max_reduces = 10;
      cfg.workload.heavy_input_mu = 2.5;
      cfg.workload.heavy_input_sigma = 0.8;
      cfg.workload.max_input = DataSize::gigabytes(60);
      cfg.base_seed = seed;
      cfg.repetitions = 1;
      const RunMetrics m =
          run_once(cfg, make_scheduler_factory("coscheduler"), 0);
      EXPECT_EQ(m.jobs.size(), 30u) << spec;
      for (const JobRecord& j : m.jobs) {
        if (!j.has_shuffle || !j.all_flows_ocs) continue;
        ++checked;
        EXPECT_GT(j.cct_lower_bound.sec(), 0.0)
            << "job " << j.id << " on " << spec;
        EXPECT_GE(j.cct.sec(), j.cct_lower_bound.sec() - 1e-6)
            << "job " << j.id << " beat the " << spec << " bound";
      }
    }
    // Guard against vacuity: across the seeds, at least one coflow must
    // have kept every cross-rack flow on the circuit fabric.
    EXPECT_GT(checked, 0u) << spec << ": no pure-circuit coflow exercised";
  }
}

// ---- topology sweep: the invariants hold across cluster shapes. ---------

using TopoParam = std::tuple<std::int32_t, double>;  // racks, oversub

class TopologyProperty : public ::testing::TestWithParam<TopoParam> {};

TEST_P(TopologyProperty, CoSchedulerCompletesAndConserves) {
  const auto& [racks, oversub] = GetParam();
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = racks;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.sim.topo.eps_oversubscription = oversub;
  cfg.workload.num_jobs = 25;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(4);
  cfg.workload.max_maps = 60;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.max_input = DataSize::gigabytes(50);
  cfg.repetitions = 1;
  const RunMetrics m =
      run_once(cfg, make_scheduler_factory("coscheduler"), 0);
  EXPECT_EQ(m.jobs.size(), 25u);
  double expected_gb = 0.0;
  for (const auto& j : m.jobs) expected_gb += j.shuffle_bytes.in_gigabytes();
  const double moved = m.ocs_bytes.in_gigabytes() +
                       m.eps_bytes.in_gigabytes() +
                       m.local_bytes.in_gigabytes();
  EXPECT_NEAR(moved, expected_gb, expected_gb * 0.02 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    ClusterShapes, TopologyProperty,
    ::testing::Combine(::testing::Values(4, 9, 24, 60),
                       ::testing::Values(3.0, 10.0, 20.0)),
    [](const ::testing::TestParamInfo<TopoParam>& p) {
      return "racks" + std::to_string(std::get<0>(p.param)) + "_oversub" +
             std::to_string(static_cast<int>(std::get<1>(p.param)));
    });

/// Deferral semantics: Co-scheduler never grants a reduce container before
/// the job's maps are all done; overlapping schedulers do (given enough
/// maps to straddle waves).
TEST(ReduceSemantics, CoSchedulerDefersFairOverlaps) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 10;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 5;  // 100 slots: big jobs need waves
  cfg.workload.num_jobs = 12;
  cfg.workload.num_users = 3;
  cfg.workload.arrival_window = Duration::minutes(2);
  cfg.workload.max_maps = 150;
  cfg.workload.max_reduces = 6;
  cfg.workload.heavy_input_mu = 3.3;
  cfg.workload.max_input = DataSize::gigabytes(60);
  cfg.repetitions = 1;

  const RunMetrics cosched =
      run_once(cfg, make_scheduler_factory("coscheduler"), 0);
  for (const JobRecord& j : cosched.jobs) {
    if (!j.first_reduce_placement.is_finite()) continue;  // map-only job
    EXPECT_GE(j.first_reduce_placement.sec(),
              j.last_map_completion.sec() - 1e-9)
        << "job " << j.id << " reduce placed before maps finished";
  }

  const RunMetrics fair = run_once(cfg, make_scheduler_factory("fair"), 0);
  bool any_overlap = false;
  for (const JobRecord& j : fair.jobs) {
    if (!j.first_reduce_placement.is_finite()) continue;
    if (j.first_reduce_placement < j.last_map_completion) any_overlap = true;
  }
  EXPECT_TRUE(any_overlap)
      << "expected Fair to overlap at least one job's reduces with maps";
}

// ---- PSRT (Section IV-D): possible reduce schedules. --------------------

constexpr auto kTe = DataSize::gigabytes(1.125);
const Bandwidth kOcsRate = Bandwidth::gbps(100);
constexpr auto kDelta = Duration::milliseconds(10);
const CctBoundFn kBound = ocs1_bound(kOcsRate, kDelta);

/// The exact abstract traffic matrix PSRT scores a distribution with:
/// sorted map outputs to fresh reduce-rack ids, each reduce rack receiving
/// its d_j / num_reduces share.
Duration psrt_bound_for(const std::vector<DataSize>& sm,
                        const std::vector<std::int32_t>& d,
                        std::int32_t num_reduces) {
  std::vector<DataSize> sorted = sm;
  std::sort(sorted.begin(), sorted.end());
  TrafficMatrix matrix;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    for (std::size_t j = 0; j < d.size(); ++j) {
      const DataSize c = sorted[i] * (static_cast<double>(d[j]) /
                                      static_cast<double>(num_reduces));
      matrix.add(RackId{static_cast<std::int64_t>(i)},
                 RackId{static_cast<std::int64_t>(1000000 + j)}, c);
    }
  }
  return cct_lower_bound(matrix, kOcsRate, kDelta);
}

/// All ways to split `total` reduce tasks over `parts` racks, each >= 1.
void enumerate_compositions(std::int32_t total, std::int32_t parts,
                            std::vector<std::int32_t>& prefix,
                            std::vector<std::vector<std::int32_t>>& out) {
  if (parts == 1) {
    if (total >= 1) {
      prefix.push_back(total);
      out.push_back(prefix);
      prefix.pop_back();
    }
    return;
  }
  for (std::int32_t first = 1; first <= total - (parts - 1); ++first) {
    prefix.push_back(first);
    enumerate_compositions(total - first, parts - 1, prefix, out);
    prefix.pop_back();
  }
}

TEST(PsrtProperty, DistributionSumsToReduceCountAndClearsThreshold) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const auto num_racks =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    std::vector<DataSize> sm;
    for (std::size_t i = 0; i < num_racks; ++i) {
      sm.push_back(kTe * rng.uniform(1.0, 8.0));
    }
    const auto num_reduces = static_cast<std::int32_t>(rng.uniform_int(1, 12));
    const auto schedules = possible_reduce_schedules(
        sm, num_reduces, kTe, kBound, /*max_racks=*/10);

    const DataSize sm_min = *std::min_element(sm.begin(), sm.end());
    for (const PossibleSchedule& ps : schedules) {
      std::int32_t sum = 0;
      for (std::int32_t dj : ps.d) {
        sum += dj;
        // Aggregation constraint (Equation 7): even the smallest map rack's
        // flow to every chosen reduce rack crosses the elephant threshold.
        EXPECT_GE(sm_min * (static_cast<double>(dj) /
                            static_cast<double>(num_reduces)) +
                      DataSize::bytes(1),
                  kTe)
            << "trial " << trial;
      }
      EXPECT_EQ(sum, num_reduces) << "trial " << trial;
      EXPECT_LE(static_cast<std::int64_t>(ps.d.size()),
                sm_min.in_bytes() / kTe.in_bytes())
          << "trial " << trial;
      EXPECT_GT(ps.cct.sec(), 0.0);
    }
  }
}

TEST(PsrtProperty, ChosenDistributionMinimizesTheEnumeratedLowerBound) {
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const auto num_racks =
        static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<DataSize> sm;
    for (std::size_t i = 0; i < num_racks; ++i) {
      sm.push_back(kTe * rng.uniform(1.0, 6.0));
    }
    const auto num_reduces = static_cast<std::int32_t>(rng.uniform_int(1, 8));
    const auto schedules = possible_reduce_schedules(
        sm, num_reduces, kTe, kBound, /*max_racks=*/10);

    for (const PossibleSchedule& ps : schedules) {
      const auto r_red = static_cast<std::int32_t>(ps.d.size());
      // PSRT's greedy balance must beat (or tie) EVERY way of splitting the
      // job's reduces over r_red racks, not just threshold-feasible ones.
      std::vector<std::vector<std::int32_t>> all;
      std::vector<std::int32_t> prefix;
      enumerate_compositions(num_reduces, r_red, prefix, all);
      ASSERT_FALSE(all.empty());
      for (const auto& d : all) {
        EXPECT_LE(ps.cct.sec(),
                  psrt_bound_for(sm, d, num_reduces).sec() + 1e-9)
            << "trial " << trial << " r_red " << r_red;
      }
      // And its own bound is reproduced by the same matrix construction.
      EXPECT_NEAR(ps.cct.sec(), psrt_bound_for(sm, ps.d, num_reduces).sec(),
                  1e-12);
    }
  }
}

// ---- MTS (Section IV-C): the R_map guideline. ---------------------------

TEST(MtsProperty, GuidelineIsMonotoneInInputSize) {
  const double sirs[] = {0.3, 1.0, 2.5};
  for (double sir : sirs) {
    std::int32_t prev = 0;
    for (double gb = 0.5; gb <= 4000.0; gb *= 1.17) {
      const std::int32_t g =
          mts_map_rack_guideline(DataSize::gigabytes(gb), sir, kTe);
      EXPECT_GE(g, 1);
      EXPECT_GE(g, prev) << "guideline shrank at input " << gb
                         << " GB (sir " << sir << ")";
      prev = g;
    }
  }
}

TEST(MtsProperty, GuidelineIsMonotoneInSir) {
  std::int32_t prev = 0;
  for (double sir = 0.05; sir <= 8.0; sir *= 1.31) {
    const std::int32_t g =
        mts_map_rack_guideline(DataSize::gigabytes(300), sir, kTe);
    EXPECT_GE(g, prev) << "guideline shrank at sir " << sir;
    prev = g;
  }
}

TEST(MtsProperty, GuidelineBracketsSqrtOfShuffleOverThreshold) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const DataSize input = DataSize::gigabytes(rng.uniform(1.2, 3000.0));
    const double sir = rng.uniform(0.1, 3.0);
    const std::int32_t g = mts_map_rack_guideline(input, sir, kTe);
    const double ratio = (input * sir) / kTe;  // as the implementation
    if (ratio >= 1.0) {
      // floor(sqrt(ratio)): g <= sqrt(ratio) < g+1.
      EXPECT_LE(static_cast<double>(g) * g, ratio + 1e-9);
      EXPECT_GT((static_cast<double>(g) + 1) * (g + 1), ratio - 1e-9);
    } else {
      EXPECT_EQ(g, 1);  // clamped floor
    }
  }
}

// ---- SBS (Section IV-E, Algorithm 1): schedule exploration. -------------

/// Deterministic scripted oracle: rack r frees its containers after
/// base[r] seconds plus a per-container surcharge.
class ScriptedAvailability : public AvailabilityOracle {
 public:
  ScriptedAvailability(std::vector<double> base_sec, double per_container)
      : base_sec_(std::move(base_sec)), per_container_(per_container) {}

  Duration estimate_availability(RackId rack, std::int64_t count) override {
    const auto r = static_cast<std::size_t>(rack.value());
    if (r >= base_sec_.size()) return Duration::infinity();
    return Duration::seconds(base_sec_[r] +
                             per_container_ * static_cast<double>(count));
  }

 private:
  std::vector<double> base_sec_;
  double per_container_;
};

TEST(SbsProperty, BestScheduleMinimizesCctPlusTmax) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<DataSize> sm;
    const auto map_racks = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < map_racks; ++i) {
      sm.push_back(kTe * rng.uniform(1.0, 8.0));
    }
    const auto num_reduces =
        static_cast<std::int32_t>(rng.uniform_int(1, 10));
    const std::int32_t num_racks = 8;
    const auto schedules = possible_reduce_schedules(
        sm, num_reduces, kTe, kBound, num_racks);
    if (schedules.empty()) continue;

    std::vector<double> base;
    for (std::int32_t r = 0; r < num_racks; ++r) {
      base.push_back(rng.uniform(0.0, 120.0));
    }
    ScriptedAvailability oracle(base, /*per_container=*/3.0);

    const std::vector<ExploredSchedule> explored =
        explore_schedules(schedules, num_racks, oracle);
    ASSERT_EQ(explored.size(), schedules.size());  // all feasible here
    const auto best = best_schedule_index(explored);
    ASSERT_TRUE(best.has_value());

    for (std::size_t i = 0; i < explored.size(); ++i) {
      const ExploredSchedule& ex = explored[i];
      // The chosen schedule's objective is minimal over every exploration.
      EXPECT_LE(explored[*best].score_sec(), ex.score_sec())
          << "trial " << trial << " candidate " << i;
      // Structural sanity of each exploration.
      EXPECT_EQ(ex.plan.size(), ex.d.size());
      std::int32_t sum = 0;
      Duration worst = Duration::zero();
      for (const auto& [rack, count] : ex.plan) {
        EXPECT_GE(rack.value(), 0);
        EXPECT_LT(rack.value(), num_racks);
        sum += count;
        worst = std::max(worst,
                         oracle.estimate_availability(rack, count));
      }
      EXPECT_EQ(sum, num_reduces);
      // t_max is the worst wait over the racks actually chosen.
      EXPECT_NEAR(ex.t_max.sec(), worst.sec(), 1e-12);
      EXPECT_TRUE(std::is_sorted(ex.d.rbegin(), ex.d.rend()));
    }
  }
}

TEST(SbsProperty, InfeasibleWhenNoRackEverFrees) {
  const std::vector<DataSize> sm{kTe * 4.0};
  const auto schedules =
      possible_reduce_schedules(sm, 4, kTe, kBound, 8);
  ASSERT_FALSE(schedules.empty());
  ScriptedAvailability oracle({}, 0.0);  // every rack: infinity
  const auto explored = explore_schedules(schedules, 8, oracle);
  EXPECT_TRUE(explored.empty());
  EXPECT_FALSE(best_schedule_index(explored).has_value());
}

TEST(SbsProperty, ExplorationIsDeterministic) {
  const std::vector<DataSize> sm{kTe * 5.0, kTe * 2.5};
  const auto schedules =
      possible_reduce_schedules(sm, 6, kTe, kBound, 8);
  ASSERT_FALSE(schedules.empty());
  ScriptedAvailability oracle({5, 1, 9, 2, 8, 3, 7, 4}, 2.0);
  const auto a = explore_schedules(schedules, 8, oracle);
  const auto b = explore_schedules(schedules, 8, oracle);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].plan, b[i].plan);
    EXPECT_EQ(a[i].d, b[i].d);
    EXPECT_EQ(a[i].cct.sec(), b[i].cct.sec());
    EXPECT_EQ(a[i].t_max.sec(), b[i].t_max.sec());
  }
}

// ---- BestRackHeap: the incremental SBS engine's lazy min-heap. ----------

/// Brute-force mirror of the heap's contract: the live (rack, key) map,
/// argmin scanned in (key, rack-id) order like the reference SBS scan.
struct BruteBest {
  std::map<RackId, double> keys;

  [[nodiscard]] RackId best() const {
    // Rack-ascending first-strict-min scan; an infinite key still wins over
    // no key at all — the heap keeps infinity entries (SBS filters them).
    RackId arg = RackId::invalid();
    double best_key = 0.0;
    for (const auto& [rack, key] : keys) {
      if (arg == RackId::invalid() || key < best_key) {
        best_key = key;
        arg = rack;
      }
    }
    return arg;
  }
};

TEST(BestRackHeapProperty, MatchesBruteForceUnderArbitraryChurn) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int32_t num_racks =
        static_cast<std::int32_t>(rng.uniform_int(1, 12));
    BestRackHeap heap(num_racks);
    BruteBest brute;
    for (int op = 0; op < 300; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 6) {
        // update (fresh or overwrite), with deliberate duplicate keys so
        // the rack-id tie-break is exercised, plus infinities.
        const RackId rack{rng.uniform_int(0, num_racks - 1)};
        double key = rng.uniform_int(0, 1) == 0
                         ? static_cast<double>(rng.uniform_int(0, 5))
                         : rng.uniform(0.0, 100.0);
        if (rng.uniform_int(0, 9) == 0) {
          key = std::numeric_limits<double>::infinity();
        }
        heap.update(rack, key);
        brute.keys[rack] = key;
      } else if (kind < 8) {
        const RackId expect = brute.best();
        ASSERT_EQ(heap.best(), expect) << "trial " << trial << " op " << op;
        if (expect != RackId::invalid()) {
          ASSERT_EQ(heap.best_key(), brute.keys.at(expect));
        }
      } else {
        const RackId expect = brute.best();
        ASSERT_EQ(heap.pop_best(), expect) << "trial " << trial << " op "
                                           << op;
        if (expect != RackId::invalid()) brute.keys.erase(expect);
      }
      ASSERT_EQ(heap.empty(), brute.keys.empty());
    }
    // Drain: pops must come out in exact (key, rack-id) order.
    while (!brute.keys.empty()) {
      const RackId expect = brute.best();
      ASSERT_EQ(heap.pop_best(), expect);
      brute.keys.erase(expect);
    }
    ASSERT_TRUE(heap.empty());
    ASSERT_EQ(heap.pop_best(), RackId::invalid());
  }
}

// ---- explore_schedules_incremental: bit-equality + memoization. ---------

/// Wraps any oracle, counting queries per (rack, count) pair — the probe
/// for the memoization contract (each pair estimated at most once per
/// pass, and a fresh pass re-queries rather than reusing stale answers).
class CountingAvailability : public AvailabilityOracle {
 public:
  explicit CountingAvailability(AvailabilityOracle& inner) : inner_(inner) {}

  Duration estimate_availability(RackId rack, std::int64_t count) override {
    ++calls_[{rack.value(), count}];
    ++total_;
    return inner_.estimate_availability(rack, count);
  }

  [[nodiscard]] std::int64_t max_calls_per_pair() const {
    std::int64_t m = 0;
    for (const auto& [pair, n] : calls_) m = std::max(m, n);
    return m;
  }
  [[nodiscard]] std::int64_t total() const { return total_; }
  void reset() {
    calls_.clear();
    total_ = 0;
  }

 private:
  AvailabilityOracle& inner_;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> calls_;
  std::int64_t total_ = 0;
};

void expect_explorations_equal(const std::vector<ExploredSchedule>& a,
                               const std::vector<ExploredSchedule>& b,
                               const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = where + " candidate " + std::to_string(i);
    EXPECT_EQ(a[i].plan, b[i].plan) << at;
    EXPECT_EQ(a[i].d, b[i].d) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].cct.sec()),
              std::bit_cast<std::uint64_t>(b[i].cct.sec()))
        << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].t_max.sec()),
              std::bit_cast<std::uint64_t>(b[i].t_max.sec()))
        << at;
  }
}

TEST(SbsIncrementalProperty, BitEqualToReferenceOnRandomOracles) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<DataSize> sm;
    const auto map_racks = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < map_racks; ++i) {
      sm.push_back(kTe * rng.uniform(1.0, 10.0));
    }
    const auto num_reduces =
        static_cast<std::int32_t>(rng.uniform_int(1, 12));
    const std::int32_t num_racks =
        static_cast<std::int32_t>(rng.uniform_int(2, 10));
    const auto schedules = possible_reduce_schedules(
        sm, num_reduces, kTe, kBound, num_racks);
    if (schedules.empty()) continue;

    // Scripted base waits, some racks permanently unavailable so both the
    // feasible and the infeasible-candidate paths get compared.
    std::vector<double> base;
    for (std::int32_t r = 0; r < num_racks; ++r) {
      base.push_back(rng.uniform_int(0, 4) == 0
                         ? std::numeric_limits<double>::infinity()
                         : rng.uniform(0.0, 60.0));
    }
    ScriptedAvailability oracle(base, /*per_container=*/2.0);

    const auto ref = explore_schedules(schedules, num_racks, oracle);
    const auto inc =
        explore_schedules_incremental(schedules, num_racks, oracle);
    expect_explorations_equal(ref, inc, "trial " + std::to_string(trial));
  }
}

TEST(SbsIncrementalProperty, EachRackCountPairQueriedAtMostOncePerPass) {
  const std::vector<DataSize> sm{kTe * 6.0, kTe * 3.0};
  const auto schedules =
      possible_reduce_schedules(sm, 8, kTe, kBound, 12);
  ASSERT_GT(schedules.size(), 1u);  // several candidates share counts
  ScriptedAvailability inner({5, 1, 9, 2, 8, 3, 7, 4, 6, 0, 10, 11}, 2.0);

  CountingAvailability counting(inner);
  const auto first = explore_schedules_incremental(schedules, 12, counting);
  EXPECT_EQ(counting.max_calls_per_pair(), 1)
      << "pass re-queried a memoized (rack, count) pair";
  const std::int64_t first_total = counting.total();
  EXPECT_GT(first_total, 0);

  // A new pass must not reuse the old pass's answers: cluster and T_rem
  // state change between passes, so every answer is invalidated.
  const auto second = explore_schedules_incremental(schedules, 12, counting);
  EXPECT_EQ(counting.total(), 2 * first_total)
      << "pass reused answers across passes";
  expect_explorations_equal(first, second, "pass-to-pass");
}

TEST(SbsIncrementalProperty, ReferenceRepeatsQueriesTheFastPathMemoizes) {
  // The point of the memo: the reference pass asks the oracle about the
  // same (rack, count) pair once per candidate sharing that count. Pin
  // that the fast path is a strict improvement whenever candidates share
  // counts (here every candidate queries every rack at count >= 1).
  const std::vector<DataSize> sm{kTe * 6.0, kTe * 3.0};
  const auto schedules =
      possible_reduce_schedules(sm, 8, kTe, kBound, 12);
  ASSERT_GT(schedules.size(), 1u);
  ScriptedAvailability inner({5, 1, 9, 2, 8, 3, 7, 4, 6, 0, 10, 11}, 2.0);

  CountingAvailability ref_count(inner);
  (void)explore_schedules(schedules, 12, ref_count);
  CountingAvailability inc_count(inner);
  (void)explore_schedules_incremental(schedules, 12, inc_count);
  EXPECT_GT(ref_count.max_calls_per_pair(), 1);
  EXPECT_LT(inc_count.total(), ref_count.total());
}

/// Rack r frees after base[r] + slope[r] * count seconds: unlike
/// ScriptedAvailability's shared surcharge, racks change rank between
/// counts, so each count's rank order is a different permutation.
class SlopedAvailability : public AvailabilityOracle {
 public:
  SlopedAvailability(std::vector<double> base_sec, std::vector<double> slope)
      : base_sec_(std::move(base_sec)), slope_(std::move(slope)) {}

  Duration estimate_availability(RackId rack, std::int64_t count) override {
    const auto r = static_cast<std::size_t>(rack.value());
    return Duration::seconds(base_sec_[r] +
                             slope_[r] * static_cast<double>(count));
  }

 private:
  std::vector<double> base_sec_;
  std::vector<double> slope_;
};

TEST(SbsIncrementalProperty, BitEqualToReferenceAcrossManySelectedRacks) {
  // Hundreds of racks and reduce racks: each candidate's second count run
  // (d_min after d_min + 1) walks a different rank order, parts of which
  // the first run already selected, so the clean path's cursor skips
  // dozens of spent racks. Integer waits make ties common (lowest rack id
  // wins); a few racks never free.
  Rng rng(2048);
  for (int trial = 0; trial < 4; ++trial) {
    const auto num_racks =
        static_cast<std::int32_t>(rng.uniform_int(200, 256));
    std::vector<DataSize> sm;
    const auto map_racks = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < map_racks; ++i) {
      sm.push_back(kTe * rng.uniform(150.0, 300.0));
    }
    const auto num_reduces =
        static_cast<std::int32_t>(rng.uniform_int(250, 400));
    const auto schedules = possible_reduce_schedules(
        sm, num_reduces, kTe, kBound, num_racks);
    ASSERT_GT(schedules.size(), 50u);
    std::vector<double> base;
    std::vector<double> slope;
    for (std::int32_t r = 0; r < num_racks; ++r) {
      base.push_back(rng.uniform_int(0, 30) == 0
                         ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(rng.uniform_int(0, 20)));
      slope.push_back(static_cast<double>(rng.uniform_int(0, 8)));
    }
    SlopedAvailability oracle(base, slope);

    const auto ref = explore_schedules(schedules, num_racks, oracle);
    ASSERT_FALSE(ref.empty());
    const auto inc =
        explore_schedules_incremental(schedules, num_racks, oracle);
    expect_explorations_equal(ref, inc, "trial " + std::to_string(trial));
  }
}

// ---- Cluster free-rack walk: the dispatch wave's order (DESIGN.md §11). --

/// The all-racks scan from `start` with the full racks deleted: the order
/// the walk must reproduce.
std::vector<std::int32_t> brute_free_scan(const Cluster& cluster,
                                          std::int32_t start) {
  std::vector<std::int32_t> order;
  const std::int32_t n = cluster.num_racks();
  for (std::int32_t k = 0; k < n; ++k) {
    const std::int32_t rack = (start + k) % n;
    if (cluster.free_slots(RackId{rack}) > 0) order.push_back(rack);
  }
  return order;
}

std::vector<std::int32_t> walk_free_racks(Cluster& cluster,
                                          std::int32_t start) {
  std::vector<std::int32_t> visited;
  cluster.for_each_free_rack_from(start, [&](RackId r) {
    visited.push_back(r.value());
    return true;
  });
  return visited;
}

TEST(ClusterProperty, FreeRackWalkMatchesBruteForceScanUnderArbitraryChurn) {
  Rng rng(321);
  for (int trial = 0; trial < 40; ++trial) {
    // Cross word boundaries (racks > 64) in some trials so the bitset's
    // word stepping is exercised, tiny clusters in others. Few slots per
    // rack, so free counts cross zero often.
    HybridTopology topo;
    topo.num_racks = static_cast<std::int32_t>(
        rng.uniform_int(1, 2) == 1 ? rng.uniform_int(1, 12)
                                   : rng.uniform_int(60, 200));
    topo.servers_per_rack = static_cast<std::int32_t>(rng.uniform_int(1, 2));
    topo.slots_per_server = static_cast<std::int32_t>(rng.uniform_int(1, 2));
    Cluster cluster(topo);
    // Slots each rack holds, so a release returns one it really took.
    std::vector<std::vector<NodeId>> held(
        static_cast<std::size_t>(topo.num_racks));
    for (int op = 0; op < 400; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      const RackId rack{rng.uniform_int(0, topo.num_racks - 1)};
      auto& slots = held[static_cast<std::size_t>(rack.value())];
      if (kind < 5) {
        if (cluster.free_slots(rack) > 0) {
          slots.push_back(cluster.allocate_slot(rack));
        }
      } else if (kind < 8) {
        if (!slots.empty()) {
          cluster.release_slot(rack, slots.back());
          slots.pop_back();
        }
      } else {
        // Full walk from a random start must visit exactly the brute-force
        // scan's free racks in the brute-force scan's order.
        const auto start =
            static_cast<std::int32_t>(rng.uniform_int(0, topo.num_racks - 1));
        ASSERT_EQ(walk_free_racks(cluster, start),
                  brute_free_scan(cluster, start))
            << "trial " << trial << " op " << op << " start " << start;
      }
    }
  }
}

TEST(ClusterProperty, FreeRackWalkEarlyStopAndMidWalkAllocation) {
  // fn's contract: may stop the walk, may allocate the visited rack's last
  // slot (a grant) — the walk must still deliver the remaining free racks
  // in order.
  HybridTopology topo;
  topo.num_racks = 130;
  topo.servers_per_rack = 1;
  topo.slots_per_server = 1;
  Cluster cluster(topo);
  const std::vector<std::int32_t> kept_free{0, 3, 63, 64, 65, 127, 128, 129};
  for (std::int32_t r = 0; r < topo.num_racks; ++r) {
    if (std::find(kept_free.begin(), kept_free.end(), r) == kept_free.end()) {
      cluster.allocate_slot(RackId{r});
    }
  }
  std::vector<std::int32_t> visited;
  cluster.for_each_free_rack_from(64, [&](RackId r) {
    visited.push_back(r.value());
    cluster.allocate_slot(r);  // take the rack's last slot
    return visited.size() < 5;
  });
  EXPECT_EQ(visited, (std::vector<std::int32_t>{64, 65, 127, 128, 129}));
  // The five visited racks were filled mid-walk; the rest are still free.
  EXPECT_EQ(walk_free_racks(cluster, 64),
            (std::vector<std::int32_t>{0, 3, 63}));
}

}  // namespace
}  // namespace cosched
