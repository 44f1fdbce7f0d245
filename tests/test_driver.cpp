// Driver-level tests: remote-read penalties, availability estimation,
// per-path byte accounting, deadlock recovery and its accounting, the
// failure of a run whose event queue drains with work pending, reduce
// demand materialization, and job retirement — exercised through small
// crafted scenarios.
#include <gtest/gtest.h>

#include <memory>

#include "sched/coscheduler.h"
#include "sched/fair.h"
#include "sched/fairness.h"
#include "obs/observability.h"
#include "oracles.h"
#include "sim/driver.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

HybridTopology mini_topo(std::int32_t racks = 6, std::int32_t servers = 2,
                         std::int32_t slots = 4) {
  HybridTopology t;
  t.num_racks = racks;
  t.servers_per_rack = servers;
  t.slots_per_server = slots;
  return t;
}

JobSpec simple_job(std::int64_t id, std::int32_t maps, std::int32_t reduces,
                   double input_gb, double sir, double map_sec = 10,
                   double reduce_sec = 10) {
  JobSpec s;
  s.id = JobId{id};
  s.user = UserId{0};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(input_gb);
  s.sir = sir;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(map_sec));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(reduce_sec));
  return s;
}

/// Forces every task onto one specific rack (maps remote on purpose).
class PinToRackScheduler : public JobScheduler {
 public:
  explicit PinToRackScheduler(RackId rack, std::int32_t data_rack)
      : rack_(rack), data_rack_(data_rack) {}

  [[nodiscard]] std::string name() const override { return "pin"; }
  [[nodiscard]] bool defers_reduces() const override { return false; }

  void on_job_submitted(Job& job, SchedContext& ctx) override {
    job.set_block_placement(place_blocks_on_racks(
        job.spec().num_maps, {RackId{data_rack_}}, 1, ctx.rng));
  }

  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    if (rack != rack_) return std::nullopt;
    for (Job* job : ctx.active_jobs) {
      if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t};
      if (reduces_eligible(*job)) {
        if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t};
      }
    }
    return std::nullopt;
  }

 private:
  RackId rack_;
  std::int32_t data_rack_;
};

TEST(Driver, RemoteMapPaysReadPenalty) {
  // All blocks on rack 0, all tasks forced to rack 1: each map pays
  // block/NIC extra. Block = 10 GB / 1 map = 10 GB -> 8 s at 10 Gb/s.
  SimConfig cfg;
  cfg.topo = mini_topo();
  auto jobs = std::vector<JobSpec>{simple_job(0, 1, 0, 10.0, 0.0, 10)};
  SimulationDriver driver(
      cfg, jobs, std::make_unique<PinToRackScheduler>(RackId{1}, 0));
  const RunMetrics m = driver.run();
  EXPECT_NEAR(m.jobs[0].jct.sec(), 10.0 + 8.0, 1e-9);
}

TEST(Driver, LocalMapPaysNoPenalty) {
  SimConfig cfg;
  cfg.topo = mini_topo();
  auto jobs = std::vector<JobSpec>{simple_job(0, 1, 0, 10.0, 0.0, 10)};
  SimulationDriver driver(
      cfg, jobs, std::make_unique<PinToRackScheduler>(RackId{0}, 0));
  const RunMetrics m = driver.run();
  EXPECT_NEAR(m.jobs[0].jct.sec(), 10.0, 1e-9);
}

TEST(Driver, MapOnlyJobCompletesAtLastMap) {
  SimConfig cfg;
  cfg.topo = mini_topo();
  auto jobs = std::vector<JobSpec>{simple_job(0, 5, 0, 5.0, 0.0, 7)};
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  const RunMetrics m = driver.run();
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_FALSE(m.jobs[0].has_shuffle);
  EXPECT_NEAR(m.jobs[0].jct.sec(), 7.0, 1e-9);  // 5 maps fit in parallel
}

TEST(Driver, ZeroShuffleJobWithReducesStillRuns) {
  SimConfig cfg;
  cfg.topo = mini_topo();
  auto jobs = std::vector<JobSpec>{simple_job(0, 2, 2, 1.0, 0.0, 5, 6)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  const RunMetrics m = driver.run();
  // Maps 5 s (+ possibly a remote-read penalty of 0.4 s on a 0.5 GB
  // block), reduces placed after maps, compute 6 s, no fetch wait.
  EXPECT_GE(m.jobs[0].jct.sec(), 11.0 - 1e-9);
  EXPECT_LE(m.jobs[0].jct.sec(), 11.5);
  EXPECT_FALSE(m.jobs[0].has_shuffle);
}

TEST(Driver, AvailabilityOracleCountsFreeSlotsAndRemainders) {
  SimConfig cfg;
  cfg.topo = mini_topo(4, 1, 2);  // 2 slots per rack
  // One job with two 10 s maps pinned to rack 0 fills it.
  auto jobs = std::vector<JobSpec>{simple_job(0, 2, 0, 1.0, 0.0, 10)};
  SimulationDriver driver(
      cfg, jobs, std::make_unique<PinToRackScheduler>(RackId{0}, 0));
  // Probe availability mid-run via the oracle interface.
  AvailabilityOracle& oracle = driver;
  // Before the run, everything is free.
  EXPECT_DOUBLE_EQ(oracle.estimate_availability(RackId{0}, 2).sec(), 0.0);
  const RunMetrics m = driver.run();
  EXPECT_EQ(m.jobs.size(), 1u);
  // Impossible request: more containers than a rack has.
  EXPECT_FALSE(oracle.estimate_availability(RackId{0}, 3).is_finite());
}

TEST(Driver, TrafficSplitsAcrossPathsForMixedFlows) {
  // 2 map racks (forced via CoScheduler guideline), large shuffle: all
  // cross-rack demand rides the OCS; the local share stays local.
  SimConfig cfg;
  cfg.topo = mini_topo(9, 2, 30);
  auto jobs = std::vector<JobSpec>{simple_job(0, 8, 4, 8.0, 1.0, 10, 10)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  const RunMetrics m = driver.run();
  const double total = m.ocs_bytes.in_gigabytes() +
                       m.eps_bytes.in_gigabytes() +
                       m.local_bytes.in_gigabytes();
  EXPECT_NEAR(total, 8.0, 0.1);
}

TEST(Driver, ReduceDemandMaterializesOncePerReduce) {
  // Overlap scheduler: some reduces placed before maps finish, some after.
  // Conservation then proves demand was added exactly once per reduce.
  SimConfig cfg;
  cfg.topo = mini_topo(6, 1, 3);  // tight cluster forces phased placement
  auto jobs = std::vector<JobSpec>{simple_job(0, 12, 6, 12.0, 1.0, 10, 5)};
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  const RunMetrics m = driver.run();
  const double moved = m.ocs_bytes.in_gigabytes() +
                       m.eps_bytes.in_gigabytes() +
                       m.local_bytes.in_gigabytes();
  EXPECT_NEAR(moved, 12.0, 0.15);
}

TEST(Driver, MakespanEqualsLastCompletion) {
  SimConfig cfg;
  cfg.topo = mini_topo();
  std::vector<JobSpec> jobs{simple_job(0, 2, 0, 1.0, 0.0, 5),
                            simple_job(1, 2, 0, 1.0, 0.0, 9)};
  jobs[1].arrival = SimTime::seconds(3);
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  const RunMetrics m = driver.run();
  EXPECT_NEAR(m.makespan.sec(), 12.0, 1e-9);
}

TEST(Driver, EventsExecutedReported) {
  SimConfig cfg;
  cfg.topo = mini_topo();
  auto jobs = std::vector<JobSpec>{simple_job(0, 1, 0, 1.0, 0.0, 5)};
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  const RunMetrics m = driver.run();
  EXPECT_GT(m.events_executed, 0u);
}

TEST(Driver, RetiresJobsAndKeepsRecordsInArrivalOrder) {
  // Job 1 arrives first and runs longest; job 0 arrives later and finishes
  // first. Records follow arrival order — not completion or workload
  // order — and no job outlives run().
  SimConfig cfg;
  cfg.topo = mini_topo();
  std::vector<JobSpec> jobs{simple_job(0, 2, 1, 1.0, 0.5, 5, 5),
                            simple_job(1, 2, 1, 1.0, 0.5, 30, 30)};
  jobs[0].arrival = SimTime::seconds(2);
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  EXPECT_EQ(driver.live_jobs(), 0u);
  const RunMetrics m = driver.run();
  EXPECT_EQ(driver.live_jobs(), 0u);
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].id, JobId{1});
  EXPECT_EQ(m.jobs[1].id, JobId{0});
  EXPECT_LT(m.jobs[1].completion, m.jobs[0].completion);
}

TEST(Driver, FaultFreeCoschedulerRunBreaksNoDeadlock) {
  ExperimentConfig cfg;
  cfg.sim.topo = mini_topo(10, 2, 6);
  cfg.workload.num_jobs = 16;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(2);
  cfg.workload.shuffle_heavy_fraction = 0.6;
  cfg.workload.max_maps = 40;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(40);
  cfg.base_seed = 19;
  const RunMetrics m =
      run_once(cfg, make_scheduler_factory("coscheduler"), 0);
  EXPECT_EQ(m.jobs.size(), 16u);
  EXPECT_EQ(m.deadlock_breaks, 0);
}

TEST(Driver, DeadlockBreaksAreCountedInRunMetrics) {
  // Five reduces, four containers: Co-scheduler defers the shuffle until
  // every reduce is placed, which can never happen, so the job finishes
  // only through the breaker. The exported count is the breaker's own —
  // the same engagements the trace records.
  Observability obs;
  SimConfig cfg;
  cfg.topo = mini_topo(2, 1, 2);
  cfg.obs = &obs;
  auto jobs = std::vector<JobSpec>{simple_job(0, 2, 5, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  const RunMetrics m = driver.run();
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_EQ(m.deadlock_breaks, 1);
  EXPECT_EQ(m.deadlock_breaks,
            obs.trace.count(TraceEventKind::kDeadlockBreak));
}

/// Declines every offer, so no task is ever placed.
class AlwaysDecline final : public oracle::ForwardingScheduler {
 public:
  using ForwardingScheduler::ForwardingScheduler;
  std::optional<TaskChoice> pick_task(RackId, SchedContext&) override {
    return std::nullopt;
  }
};

TEST(Driver, AlwaysDecliningSchedulerFailsInsteadOfHanging) {
  // No periodic re-offer: once the arrivals' waves decline, the event
  // queue drains with both jobs pending, the breaker finds no released
  // map phase to work with, and run() fails naming what is left.
  SimConfig cfg;
  cfg.topo = mini_topo();
  std::vector<JobSpec> jobs{simple_job(0, 2, 1, 1.0, 0.5),
                            simple_job(1, 2, 1, 1.0, 0.5)};
  jobs[1].arrival = SimTime::seconds(5);
  SimulationDriver driver(
      cfg, jobs,
      std::make_unique<AlwaysDecline>(std::make_unique<CoScheduler>()));
  try {
    driver.run();
    FAIL() << "run() returned with every offer declined";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("drained with 2 jobs incomplete (oldest: job 0)"),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace cosched
