// End-to-end integration tests: full simulations on a small cluster with
// every scheduler, checking completion, determinism, reduce-phase
// semantics, traffic routing, and byte conservation.
#include <gtest/gtest.h>

#include <memory>

#include "sched/corral.h"
#include "sched/coscheduler.h"
#include "sched/fair.h"
#include "sim/driver.h"
#include "sim/experiment.h"
#include "workload/generator.h"

namespace cosched {
namespace {

HybridTopology small_topo() {
  HybridTopology t;
  t.num_racks = 12;
  t.servers_per_rack = 2;
  t.slots_per_server = 10;  // 20 per rack, 240 total
  t.server_nic = Bandwidth::gbps(10);
  t.eps_oversubscription = 10.0;
  t.ocs_link = Bandwidth::gbps(100);
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  t.elephant_threshold = DataSize::gigabytes(1.125);
  return t;
}

SimConfig small_sim() {
  SimConfig cfg;
  cfg.topo = small_topo();
  cfg.seed = 1;
  return cfg;
}

std::vector<JobSpec> small_workload(std::uint64_t seed, std::int32_t jobs = 40) {
  WorkloadConfig cfg;
  cfg.num_jobs = jobs;
  cfg.num_users = 4;
  cfg.arrival_window = Duration::minutes(5);
  cfg.max_maps = 60;
  cfg.max_reduces = 16;
  cfg.heavy_input_mu = 2.0;  // keep heavy jobs modest for the small cluster
  cfg.heavy_input_sigma = 0.7;
  cfg.max_input = DataSize::gigabytes(40);
  Rng rng(seed);
  return generate_workload(cfg, rng);
}

/// One heavy job: 8 GB input, SIR 1.0, 8 maps, 4 reduces.
JobSpec one_heavy_job() {
  JobSpec s;
  s.id = JobId{0};
  s.user = UserId{0};
  s.arrival = SimTime::zero();
  s.num_maps = 8;
  s.num_reduces = 4;
  s.input_size = DataSize::gigabytes(8);
  s.sir = 1.0;
  s.map_durations.assign(8, Duration::seconds(30));
  s.reduce_durations.assign(4, Duration::seconds(20));
  return s;
}

RunMetrics run_with(std::unique_ptr<JobScheduler> sched,
                    std::vector<JobSpec> jobs,
                    SimConfig cfg = small_sim()) {
  SimulationDriver driver(cfg, std::move(jobs), std::move(sched));
  return driver.run();
}

// ------------------------------------------------------------ completion ---

TEST(SimIntegration, FairCompletesWorkload) {
  const RunMetrics m =
      run_with(std::make_unique<FairScheduler>(), small_workload(1));
  EXPECT_EQ(m.jobs.size(), 40u);
  EXPECT_GT(m.makespan.sec(), 0.0);
  for (const auto& j : m.jobs) {
    EXPECT_GT(j.jct.sec(), 0.0);
    EXPECT_GE(j.completion.sec(), j.arrival.sec());
  }
}

TEST(SimIntegration, CorralCompletesWorkload) {
  const RunMetrics m =
      run_with(std::make_unique<CorralScheduler>(), small_workload(1));
  EXPECT_EQ(m.jobs.size(), 40u);
}

TEST(SimIntegration, CoSchedulerCompletesWorkload) {
  const RunMetrics m =
      run_with(std::make_unique<CoScheduler>(), small_workload(1));
  EXPECT_EQ(m.jobs.size(), 40u);
}

TEST(SimIntegration, AblationModesComplete) {
  for (const char* name : {"ocas", "mts+ocas"}) {
    const RunMetrics m =
        run_with(make_scheduler_factory(name)(), small_workload(2));
    EXPECT_EQ(m.jobs.size(), 40u) << name;
    EXPECT_EQ(m.scheduler, name);
  }
}

// ----------------------------------------------------------- determinism ---

TEST(SimIntegration, DeterministicAcrossRuns) {
  const RunMetrics a =
      run_with(std::make_unique<CoScheduler>(), small_workload(3));
  const RunMetrics b =
      run_with(std::make_unique<CoScheduler>(), small_workload(3));
  EXPECT_DOUBLE_EQ(a.makespan.sec(), b.makespan.sec());
  EXPECT_DOUBLE_EQ(a.avg_jct_sec(), b.avg_jct_sec());
  EXPECT_DOUBLE_EQ(a.avg_cct_sec(), b.avg_cct_sec());
  EXPECT_EQ(a.ocs_bytes, b.ocs_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

// -------------------------------------------------- reduce-phase semantics ---

TEST(SimIntegration, CoSchedulerDefersReducesUntilMapsDone) {
  SimConfig cfg = small_sim();
  std::vector<JobSpec> jobs{one_heavy_job()};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  const RunMetrics m = driver.run();
  EXPECT_EQ(m.jobs.size(), 1u);
  // With 8 maps of 30 s on an empty cluster, maps end at t=30 (+ read
  // penalty if any). The coflow must not be released before that.
  EXPECT_TRUE(m.jobs[0].has_shuffle);
  EXPECT_GE(m.jobs[0].jct.sec(), 30.0 + 20.0);
}

TEST(SimIntegration, FairOverlapsReduceWithMaps) {
  // One job with far more maps than slots: maps run in waves, so with
  // slow-start the reduces grab containers long before maps finish.
  JobSpec s = one_heavy_job();
  s.num_maps = 300;  // 240 slots total -> at least two waves
  s.map_durations.assign(300, Duration::seconds(30));
  const RunMetrics fair = run_with(std::make_unique<FairScheduler>(), {s});
  const RunMetrics cosched = run_with(std::make_unique<CoScheduler>(), {s});
  // Both complete; under Fair the job cannot finish faster than two map
  // waves; the point here is just that overlap doesn't break anything.
  EXPECT_EQ(fair.jobs.size(), 1u);
  EXPECT_EQ(cosched.jobs.size(), 1u);
}

// ------------------------------------------------------------ OCS routing ---

TEST(SimIntegration, CoSchedulerPutsHeavyShuffleOnOcs) {
  const RunMetrics m =
      run_with(std::make_unique<CoScheduler>(), {one_heavy_job()});
  // 8 GB shuffle from a single heavy job: Co-scheduler should aggregate it
  // into elephant flows and move (nearly) all cross-rack bytes via OCS.
  EXPECT_GT(m.ocs_traffic_fraction(), 0.8)
      << "ocs=" << m.ocs_bytes << " eps=" << m.eps_bytes;
}

TEST(SimIntegration, FairScattersShuffleOntoEps) {
  const RunMetrics m =
      run_with(std::make_unique<FairScheduler>(), {one_heavy_job()});
  // Fair spreads 8 maps and 4 reduces over 12 racks: per-rack-pair flows
  // are far below 1.125 GB, so nothing qualifies for the OCS.
  EXPECT_LT(m.ocs_traffic_fraction(), 0.2)
      << "ocs=" << m.ocs_bytes << " eps=" << m.eps_bytes;
}

// --------------------------------------------------------- byte conservation

TEST(SimIntegration, ShuffleBytesAreConserved) {
  const auto jobs = small_workload(5);
  const RunMetrics m = run_with(std::make_unique<CoScheduler>(), jobs);
  double expected_gb = 0.0;
  for (const auto& rec : m.jobs) expected_gb += rec.shuffle_bytes.in_gigabytes();
  const double moved_gb = m.ocs_bytes.in_gigabytes() +
                          m.eps_bytes.in_gigabytes() +
                          m.local_bytes.in_gigabytes();
  EXPECT_NEAR(moved_gb, expected_gb, expected_gb * 0.01 + 0.01);
}

TEST(SimIntegration, CctIsMeasuredForEveryShuffleJob) {
  const RunMetrics m =
      run_with(std::make_unique<CoScheduler>(), small_workload(6));
  for (const auto& j : m.jobs) {
    if (j.has_shuffle) {
      EXPECT_GT(j.cct.sec(), 0.0);
      EXPECT_LE(j.cct.sec(), j.jct.sec() + 1e-9);
    }
  }
}

// ------------------------------------------------------------- placement ---

TEST(SimIntegration, CoSchedulerKeepsHeavyMapsOnGuidelineRacks) {
  // One heavy job alone: its maps must stay on R_map racks (no other work
  // competes, so the overflow gate never opens).
  JobSpec s = one_heavy_job();  // 8 GB * SIR 1.0 -> R_map = 2
  SimConfig cfg = small_sim();
  std::vector<JobSpec> jobs{s};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  const RunMetrics m = driver.run();
  ASSERT_EQ(m.jobs.size(), 1u);
  // All cross-rack shuffle on OCS implies the maps were aggregated: with
  // maps on 2 racks and 8 GB of shuffle, every rack-pair flow is 2 GB.
  EXPECT_GT(m.ocs_traffic_fraction(), 0.8);
}

TEST(SimIntegration, CorralConfinesJobToItsRackSet) {
  // With strict confinement and one rack-sized job, all shuffle is local.
  JobSpec s = one_heavy_job();
  s.num_maps = 4;
  s.map_durations.assign(4, Duration::seconds(10));
  const RunMetrics m =
      run_with(std::make_unique<CorralScheduler>(), {s});
  // 4 maps + 4 reduces fit one rack (20 slots): shuffle never leaves it.
  EXPECT_NEAR(m.local_bytes.in_gigabytes(), 8.0, 0.1);
  EXPECT_NEAR(m.ocs_bytes.in_gigabytes() + m.eps_bytes.in_gigabytes(), 0.0,
              0.01);
}

// -------------------------------------------------------------- estimator ---

TEST(SimIntegration, TremErrorStillCompletes) {
  SimConfig cfg = small_sim();
  cfg.faults.trem_noise = TremNoiseFault{0.5};
  const RunMetrics m = run_with(std::make_unique<CoScheduler>(),
                                small_workload(7), cfg);
  EXPECT_EQ(m.jobs.size(), 40u);
}

// ------------------------------------------------------------- experiment ---

TEST(Experiment, CompareSchedulersAggregates) {
  ExperimentConfig cfg;
  cfg.sim = small_sim();
  cfg.workload.num_jobs = 20;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 40;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.0;
  cfg.workload.max_input = DataSize::gigabytes(30);
  cfg.repetitions = 2;
  const auto results =
      compare_schedulers(cfg, {"fair", "coscheduler"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scheduler, "fair");
  EXPECT_EQ(results[1].scheduler, "coscheduler");
  EXPECT_EQ(results[0].repetitions, 2u);
  EXPECT_GT(results[0].makespan_sec.mean(), 0.0);
  EXPECT_GT(results[1].avg_jct_sec.mean(), 0.0);
}

TEST(Experiment, UnknownSchedulerThrows) {
  EXPECT_THROW((void)make_scheduler_factory("bogus"), CheckFailure);
}

TEST(Experiment, RunOnceIsDeterministic) {
  ExperimentConfig cfg;
  cfg.sim = small_sim();
  cfg.workload.num_jobs = 10;
  cfg.workload.num_users = 2;
  cfg.workload.arrival_window = Duration::minutes(2);
  cfg.workload.max_maps = 20;
  cfg.workload.max_reduces = 4;
  cfg.workload.max_input = DataSize::gigabytes(20);
  const auto factory = make_scheduler_factory("fair");
  const RunMetrics a = run_once(cfg, factory, 0);
  const RunMetrics b = run_once(cfg, factory, 0);
  EXPECT_DOUBLE_EQ(a.makespan.sec(), b.makespan.sec());
  const RunMetrics c = run_once(cfg, factory, 1);
  EXPECT_NE(a.makespan.sec(), c.makespan.sec());
}

}  // namespace
}  // namespace cosched
