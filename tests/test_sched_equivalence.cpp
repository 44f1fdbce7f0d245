// Scheduler equivalence regression (part of `ctest -L determinism`).
//
// CoScheduler's incremental decisions (cached OCAS candidate lists,
// memoized SBS explorations, epoch-cached no-grant answers, the PSRT
// surrogate matrix) must reproduce ReferenceCoScheduler (tests/oracles.h)
// *bit for bit*: identical RunMetrics, identical
// container-grant sequences (same task, same rack, same OCAS class, in the
// same order), and identical PSRT/SBS placement decisions — across
// randomized topologies, fault plans (container kills that requeue tasks
// mid-wave, T_rem noise that makes availability estimates draw-order
// sensitive), thread counts, and the churn edge cases: a task killed and
// re-granted at the same sim instant, jobs retiring mid-dispatch-wave, and
// jobs with zero reduces. Any divergence here means the fast path changed
// simulation results.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faults/fault_spec.h"
#include "obs/observability.h"
#include "oracles.h"
#include "sched/coscheduler.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

/// Grant-for-grant comparison: CoScheduler must pick the same
/// task for the same container under the same OCAS class, in the same
/// order — not just land on the same aggregate metrics.
void expect_decisions_equal(const DecisionLog& ref, const DecisionLog& inc,
                            const std::string& where) {
  ASSERT_EQ(ref.grants().size(), inc.grants().size()) << where;
  for (std::size_t i = 0; i < ref.grants().size(); ++i) {
    const GrantDecision& a = ref.grants()[i];
    const GrantDecision& b = inc.grants()[i];
    const std::string at = where + " grant#" + std::to_string(i);
    EXPECT_EQ(bits(a.at.sec()), bits(b.at.sec())) << at;
    EXPECT_EQ(a.rack, b.rack) << at;
    EXPECT_EQ(a.job, b.job) << at;
    EXPECT_EQ(a.task, b.task) << at;
    EXPECT_EQ(a.user, b.user) << at;
    EXPECT_EQ(a.is_map, b.is_map) << at;
    EXPECT_EQ(a.ocas_class, b.ocas_class) << at;
  }
  ASSERT_EQ(ref.placements().size(), inc.placements().size()) << where;
  for (std::size_t i = 0; i < ref.placements().size(); ++i) {
    const PlacementDecision& a = ref.placements()[i];
    const PlacementDecision& b = inc.placements()[i];
    const std::string at = where + " placement#" + std::to_string(i);
    EXPECT_EQ(bits(a.at.sec()), bits(b.at.sec())) << at;
    EXPECT_EQ(a.job, b.job) << at;
    EXPECT_EQ(a.r_map, b.r_map) << at;
    EXPECT_EQ(a.r_red, b.r_red) << at;
    EXPECT_EQ(a.d, b.d) << at;
    ASSERT_EQ(a.plan.size(), b.plan.size()) << at;
    for (std::size_t k = 0; k < a.plan.size(); ++k) {
      EXPECT_EQ(a.plan[k].first, b.plan[k].first) << at;
      EXPECT_EQ(a.plan[k].second, b.plan[k].second) << at;
    }
    EXPECT_EQ(bits(a.planned_cct.sec()), bits(b.planned_cct.sec())) << at;
    EXPECT_EQ(bits(a.t_max.sec()), bits(b.t_max.sec())) << at;
    EXPECT_EQ(bits(a.score_sec), bits(b.score_sec)) << at;
    EXPECT_EQ(a.candidates, b.candidates) << at;
  }
}

ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 10;
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
  cfg.sim.audit = true;  // cache-coherence checks armed on every case
  return cfg;
}

std::vector<RunMetrics> run_reference(const ExperimentConfig& cfg,
                                      const std::string& scheduler) {
  return run_repetitions(cfg, oracle::reference_scheduler_factory(scheduler));
}

std::vector<RunMetrics> run_production(const ExperimentConfig& cfg,
                                       const std::string& scheduler,
                                       std::int32_t threads = 1) {
  ParallelExperimentConfig par;
  par.threads = threads;
  return run_repetitions(cfg, make_scheduler_factory(scheduler), par);
}

FaultPlan parse_plan(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

TEST(SchedEquivalence, RandomizedTopologiesMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExperimentConfig cfg = base_config(seed);
    cfg.sim.topo.num_racks = static_cast<std::int32_t>(4 + seed * 3);
    cfg.workload.shuffle_heavy_fraction = 0.1 * static_cast<double>(seed);
    const auto ref = run_reference(cfg, "coscheduler");
    const auto inc = run_production(cfg, "coscheduler");
    expect_runs_bitwise_equal(ref, inc, "seed" + std::to_string(seed));
  }
}

TEST(SchedEquivalence, AblationModesMatchBitForBit) {
  // The ablation schedulers share CoScheduler's code with different
  // Options — "ocas" has no reduce planning at all (class-5 only), so the
  // reduce-candidate list does real work there.
  for (const char* sched : {"mts+ocas", "ocas"}) {
    SCOPED_TRACE(sched);
    const ExperimentConfig cfg = base_config(7);
    const auto ref = run_reference(cfg, sched);
    const auto inc = run_production(cfg, sched);
    expect_runs_bitwise_equal(ref, inc, sched);
  }
}

TEST(SchedEquivalence, GrantSequencesIdenticalGrantForGrant) {
  ExperimentConfig cfg = base_config(11);
  cfg.repetitions = 1;

  Observability ref_obs;
  ExperimentConfig ref_cfg = cfg;
  ref_cfg.sim.obs = &ref_obs;
  const RunMetrics ref =
      run_once(ref_cfg, oracle::reference_scheduler_factory("coscheduler"), 0);

  Observability inc_obs;
  ExperimentConfig inc_cfg = cfg;
  inc_cfg.sim.obs = &inc_obs;
  const RunMetrics inc =
      run_once(inc_cfg, make_scheduler_factory("coscheduler"), 0);

  EXPECT_EQ(bits(ref.makespan.sec()), bits(inc.makespan.sec()));
  EXPECT_GT(ref_obs.decisions.grants().size(), 0u);
  expect_decisions_equal(ref_obs.decisions, inc_obs.decisions, "grants");
}

TEST(SchedEquivalence, ContainerKillChurnMatchesBitForBit) {
  // Kills roll tasks back to pending and can re-grant them within the same
  // dispatch instant — exercising candidate re-insertion (on_task_requeued)
  // and the no-grant epoch cache under churn.
  ExperimentConfig cfg = base_config(13);
  cfg.sim.faults = parse_plan("container-kill:p=0.09,straggler:p=0.2:slow=3");
  const auto ref = run_reference(cfg, "coscheduler");
  const auto inc = run_production(cfg, "coscheduler");
  expect_runs_bitwise_equal(ref, inc, "kill-churn");
}

TEST(SchedEquivalence, NoisyAvailabilityMatchesBitForBit) {
  // T_rem noise draws lazily per task from one RNG stream, so estimate
  // values depend on the order of first touches: this pins the
  // reference-order replay path in explore_schedules_incremental.
  ExperimentConfig cfg = base_config(17);
  cfg.sim.trem_error_rate = 0.3;
  const auto ref = run_reference(cfg, "coscheduler");
  const auto inc = run_production(cfg, "coscheduler");
  expect_runs_bitwise_equal(ref, inc, "trem-noise");

  // Noise *and* kills together: requeued tasks redraw factors, so any
  // reordering of oracle queries would cascade.
  cfg.sim.faults = parse_plan("container-kill:p=0.06,trem-noise:pct=25");
  const auto ref2 = run_reference(cfg, "coscheduler");
  const auto inc2 = run_production(cfg, "coscheduler");
  expect_runs_bitwise_equal(ref2, inc2, "trem-noise+kills");
}

TEST(SchedEquivalence, OutageAndDeadlockRecoveryMatchesBitForBit) {
  // OCS outages force the deadlock breaker's clear_reduce_plan path on
  // saturated topologies (on_reduce_plan_cleared), plus flow evictions.
  ExperimentConfig cfg = base_config(19);
  cfg.sim.topo.num_racks = 4;
  cfg.sim.topo.servers_per_rack = 1;
  cfg.sim.topo.slots_per_server = 4;
  cfg.workload.num_jobs = 12;
  cfg.workload.shuffle_heavy_fraction = 0.6;
  cfg.sim.faults = parse_plan("ocs-outage:at=20s:dur=60s");
  const auto ref = run_reference(cfg, "coscheduler");
  const auto inc = run_production(cfg, "coscheduler");
  expect_runs_bitwise_equal(ref, inc, "outage");
}

TEST(SchedEquivalence, ZeroReduceJobsMatchBitForBit) {
  // Map-only jobs never enter the reduce-candidate list and retire straight
  // from on_maps_completed — the retirement edge case where a job completes
  // inside the same event that finished its last map.
  ExperimentConfig cfg = base_config(23);
  cfg.workload.max_reduces = 1;  // generator draws reduces in [0, max]
  cfg.workload.num_jobs = 20;
  const auto ref = run_reference(cfg, "coscheduler");
  const auto inc = run_production(cfg, "coscheduler");
  expect_runs_bitwise_equal(ref, inc, "zero-reduce");
}

TEST(SchedEquivalence, IncrementalEngineIsThreadInvariant) {
  // The determinism contract extends to the incremental scheduler:
  // parallel sharding may only change wall clock, never results.
  ExperimentConfig cfg = base_config(29);
  cfg.repetitions = 3;
  const auto serial = run_production(cfg, "coscheduler");
  const auto sharded = run_production(cfg, "coscheduler", /*threads=*/3);
  expect_runs_bitwise_equal(serial, sharded, "threads");
}

TEST(PsrtEquivalence, FastPathBitEqualToReferenceOnRandomInputs) {
  // The production PSRT enumeration skips the m x R_red traffic
  // matrix entirely (extremal row/column collapse, DESIGN.md §11). That is
  // only legal if it reproduces the reference candidate list bit for bit:
  // same candidate count, same d vectors, same CCT lower-bound bits.
  Rng rng(0x95A7);
  const DataSize te = DataSize::gigabytes(1.125);  // the paper's T_e
  const Bandwidth ocs = Bandwidth::gbps(100.0);
  const Duration delta = Duration::milliseconds(10.0);
  for (int trial = 0; trial < 200; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 14));
    std::vector<DataSize> sm(m);
    for (auto& s : sm) {
      // Every per-rack output clears T_e (PSRT's precondition), spanning
      // ties, near-threshold values, and multi-hundred-GB elephants.
      s = te + DataSize::megabytes(rng.uniform_int(0, 300'000));
      if (rng.uniform_int(0, 4) == 0) s = te;  // exact-threshold ties
    }
    const auto reduces = static_cast<std::int32_t>(rng.uniform_int(1, 40));
    const auto racks = static_cast<std::int32_t>(rng.uniform_int(2, 64));
    const auto ref =
        possible_reduce_schedules(sm, reduces, te, ocs, delta, racks);
    const auto fast = possible_reduce_schedules_incremental(
        sm, reduces, te, ocs, delta, racks);
    ASSERT_EQ(ref.size(), fast.size()) << "trial " << trial;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i].d, fast[i].d) << "trial " << trial << " cand " << i;
      ASSERT_EQ(bits(ref[i].cct.sec()), bits(fast[i].cct.sec()))
          << "trial " << trial << " cand " << i << " d.size "
          << ref[i].d.size();
    }
  }
}

TEST(SchedEquivalence, RetiredJobsFreeSchedulerState) {
  // After a full run every job has retired, so CoScheduler's
  // per-job state must be empty — audit_invariants against an empty active
  // set proves on_job_completed actually freed everything (no leaks hiding
  // behind "cache coherent while jobs were alive").
  ExperimentConfig cfg = base_config(31);
  cfg.repetitions = 1;
  auto sched = std::make_unique<CoScheduler>();
  CoScheduler* raw = sched.get();
  Rng workload_rng = Rng(cfg.base_seed).fork(1);
  SimConfig sim = cfg.sim;
  sim.seed = cfg.base_seed;
  SimulationDriver driver(sim, generate_workload(cfg.workload, workload_rng),
                          std::move(sched));
  (void)driver.run();
  EXPECT_EQ(raw->audit_invariants({}), "");
}

}  // namespace
}  // namespace cosched
