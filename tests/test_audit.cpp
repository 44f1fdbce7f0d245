// The runtime invariant auditor (ctest -L audit): clean runs across
// schedulers and fault plans pass every check, a deliberately corrupted
// byte ledger is caught with a structured dump, audited runs are
// bit-for-bit identical to unaudited ones, and the event-queue consistency
// scan holds under cancel/compaction churn.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "faults/fault_spec.h"
#include "sched/coscheduler.h"
#include "sched/fair.h"
#include "sim/driver.h"
#include "sim/experiment.h"
#include "workload/generator.h"

namespace cosched {
namespace {

FaultPlan parse_plan(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

/// A small cluster + workload big enough to exercise both fabrics, plan
/// installs, and container churn, small enough to run in milliseconds.
ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 10;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.workload.num_jobs = 14;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 50;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(40);
  cfg.repetitions = 1;
  cfg.base_seed = seed;
  cfg.sim.audit = true;
  return cfg;
}

JobSpec shuffle_job(std::int64_t id, std::int32_t maps, std::int32_t reduces,
                    double input_gb, double sir) {
  JobSpec s;
  s.id = JobId{id};
  s.user = UserId{0};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(input_gb);
  s.sir = sir;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(5));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(5));
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- clean runs across schedulers and fault plans --------------------------

TEST(Audit, CleanRunsPassAcrossSchedulers) {
  const ExperimentConfig cfg = small_config(101);
  for (const std::string name :
       {"fair", "corral", "coscheduler", "mts+ocas", "ocas"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    EXPECT_NO_THROW((void)run_once(cfg, factory, 0)) << name;
  }
}

TEST(Audit, CleanRunsPassUnderFullFaultPlan) {
  ExperimentConfig cfg = small_config(202);
  cfg.sim.faults = parse_plan(
      "straggler:p=0.2:slow=2,container-kill:p=0.1,"
      "ocs-outage:at=40s:dur=30s,reconfig-jitter:pct=50,trem-noise:pct=20");
  for (const std::string name : {"fair", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    EXPECT_NO_THROW((void)run_once(cfg, factory, 0)) << name;
  }
}

TEST(Audit, AuditorActuallyRanAndDrainedItsLedgers) {
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  ASSERT_NE(driver.auditor(), nullptr);
  const RunMetrics m = driver.run();
  EXPECT_GT(driver.auditor()->checks_run(), 0);
  // The job had a shuffle, and its flows left the ledger when it retired.
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_TRUE(m.jobs[0].has_shuffle);
  EXPECT_EQ(driver.auditor()->tracked_flows(), 0u);
  EXPECT_EQ(driver.live_jobs(), 0u);
}

// ---- job retirement: finished jobs are freed mid-run -----------------------

TEST(Audit, KillHeavyRunsRetireEveryJobAndDrainTheLedger) {
  // Container kills re-place reduces whose coflow already drained, so
  // flows reopen late in a job's life; the auditor's heavy checks (job
  // ownership included) run at every job finish. Under the sanitizer
  // build any read of a freed job, coflow or flow aborts here.
  for (const std::string fabric : {"ocs:1", "rotor:100ms"}) {
    ExperimentConfig cfg = small_config(404);
    cfg.workload.num_jobs = 30;
    std::string error;
    const auto spec = FabricSpec::parse(fabric, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    cfg.sim.fabric = *spec;
    cfg.sim.faults = parse_plan(
        "straggler:p=0.2:slow=2,container-kill:p=0.3,"
        "ocs-outage:at=60s:dur=30s");
    Rng rng = Rng(cfg.base_seed).fork(1);
    SimulationDriver driver(cfg.sim, generate_workload(cfg.workload, rng),
                            make_scheduler_factory("coscheduler")());
    ASSERT_NE(driver.auditor(), nullptr);
    RunMetrics m;
    ASSERT_NO_THROW(m = driver.run()) << fabric;
    EXPECT_GT(m.faults.reduces_killed, 0) << fabric;
    EXPECT_EQ(m.jobs.size(), 30u) << fabric;
    EXPECT_EQ(driver.live_jobs(), 0u) << fabric;
    EXPECT_EQ(driver.auditor()->tracked_flows(), 0u) << fabric;
  }
}

// Invariant 7 skips a coflow reopened after it completed. Here one map
// feeds the reduces of one job under Fair, and a container kill lands in a
// reduce's 60 s compute, after its fetch (and the coflow) drained. Fair
// re-places the reduce on another rack, which re-fetches the map output:
// on ocs:1 its single reduce adds a second row entry, and on the mesh
// the re-fetch lands on the rack of the other reduce and doubles that
// entry. The final matrix's bound then exceeds the measured CCT, a
// window the re-fetch never rode in. The run must still pass the audit.
TEST(Audit, ReopenedCoflowIsSkippedByTheBoundCheck) {
  struct Case {
    const char* fabric;
    std::int32_t reduces;
  };
  for (const Case& c : {Case{"ocs:1", 1}, Case{"mesh", 2}}) {
    SimConfig cfg;
    cfg.topo.num_racks = 6;
    cfg.topo.servers_per_rack = 2;
    cfg.topo.slots_per_server = 4;
    cfg.audit = true;
    cfg.seed = 3;
    std::string error;
    const std::optional<FabricSpec> fabric =
        FabricSpec::parse(c.fabric, &error);
    ASSERT_TRUE(fabric.has_value()) << error;
    cfg.fabric = *fabric;
    cfg.faults = parse_plan("container-kill:p=0.3");
    JobSpec job = shuffle_job(0, 1, c.reduces, 16.0, 1.0);
    job.reduce_durations.assign(job.reduce_durations.size(),
                                Duration::seconds(60));
    SimulationDriver driver(cfg, {job}, std::make_unique<FairScheduler>());
    RunMetrics m;
    ASSERT_NO_THROW(m = driver.run()) << c.fabric;
    // The case was reached: a reduce was killed, every cross-rack flow
    // rode the fabric, and the final matrix bounds the coflow above the
    // CCT it achieved.
    EXPECT_GT(m.faults.reduces_killed, 0) << c.fabric;
    ASSERT_EQ(m.jobs.size(), 1u) << c.fabric;
    EXPECT_TRUE(m.jobs[0].all_flows_ocs) << c.fabric;
    EXPECT_LT(m.jobs[0].cct.sec(), m.jobs[0].cct_lower_bound.sec() - 1e-6)
        << c.fabric;
  }
}

TEST(Audit, JobOwnershipMismatchIsCaught) {
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  // Pretend the driver kept one job more than it has active — a finished
  // job that was never freed. The first heavy check must abort the run.
  const std::vector<Job*> none;
  driver.auditor()->watch_jobs([&driver] { return driver.live_jobs() + 1; },
                               none);
  try {
    (void)driver.run();
    FAIL() << "leaked job was not caught";
  } catch (const AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job-ownership"), std::string::npos) << what;
  }
}

TEST(Audit, FetchCountMismatchIsCaught) {
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  // Pretend the driver counted one undrained flow too many into rack 0 —
  // a fetch that would never be seen done. The first heavy check must
  // abort the run.
  driver.auditor()->watch_fetches(
      [&driver](JobId job, RackId rack) {
        return driver.undrained_fetches(job, rack) + (rack == RackId{0});
      },
      [&driver](JobId job) { return driver.undrained_fetches(job); });
  try {
    (void)driver.run();
    FAIL() << "corrupted fetch count was not caught";
  } catch (const AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fetch-counts"), std::string::npos) << what;
  }
}

/// A Co-scheduler whose maps-completed hook keeps the recorded no-grant
/// declines: the reduces it makes eligible stay hidden behind them.
class KeepsDeclinesOnMapsCompleted final : public CoScheduler {
 public:
  void on_maps_completed(Job& job, SchedContext& ctx) override {
    keep_ = true;
    CoScheduler::on_maps_completed(job, ctx);
    keep_ = false;
  }

 protected:
  void invalidate_no_grant_cache() override {
    if (!keep_) CoScheduler::invalidate_no_grant_cache();
  }

 private:
  bool keep_ = false;
};

TEST(Audit, StaleNoGrantDeclineIsCaught) {
  // A shuffle-light job's two maps start on racks 0 and 1; rack 2 declines
  // (nothing pending) and keeps its record while the maps run. When they
  // complete, the eligible reduces are class-3 grants on every rack, so
  // the surviving record on rack 2 is stale: the next dispatch boundary
  // must abort the run.
  SimConfig cfg;
  cfg.topo.num_racks = 3;
  cfg.topo.servers_per_rack = 1;
  cfg.topo.slots_per_server = 2;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 2, 2, 0.5, 1.0)};
  SimulationDriver driver(cfg, jobs,
                          std::make_unique<KeepsDeclinesOnMapsCompleted>());
  try {
    (void)driver.run();
    FAIL() << "stale no-grant decline was not caught";
  } catch (const AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sched-state-coherence"), std::string::npos) << what;
    EXPECT_NE(what.find("no-grant"), std::string::npos) << what;
  }
}

TEST(Audit, DisabledConfigHasNoAuditor) {
  SimConfig cfg;
  cfg.topo.num_racks = 4;
  cfg.topo.servers_per_rack = 1;
  cfg.topo.slots_per_server = 4;
  cfg.audit = false;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 2, 0, 1.0, 0.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  EXPECT_EQ(driver.auditor(), nullptr);
  EXPECT_NO_THROW((void)driver.run());
}

// ---- the auditor is passive: audit on == audit off, bit for bit ------------

TEST(Audit, AuditedRunIsBitIdenticalToUnaudited) {
  ExperimentConfig on = small_config(303);
  on.sim.faults = parse_plan("container-kill:p=0.1,ocs-outage:at=30s:dur=20s");
  ExperimentConfig off = on;
  off.sim.audit = false;
  for (const std::string name : {"fair", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const RunMetrics a = run_once(on, factory, 0);
    const RunMetrics b = run_once(off, factory, 0);
    EXPECT_EQ(bits(a.makespan.sec()), bits(b.makespan.sec())) << name;
    EXPECT_EQ(a.ocs_bytes.in_bytes(), b.ocs_bytes.in_bytes()) << name;
    EXPECT_EQ(a.eps_bytes.in_bytes(), b.eps_bytes.in_bytes()) << name;
    EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes()) << name;
    EXPECT_EQ(a.events_executed, b.events_executed) << name;
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << name;
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
      EXPECT_EQ(bits(a.jobs[j].jct.sec()), bits(b.jobs[j].jct.sec()))
          << name << " job#" << j;
      EXPECT_EQ(bits(a.jobs[j].cct.sec()), bits(b.jobs[j].cct.sec()))
          << name << " job#" << j;
    }
  }
}

// ---- a broken ledger is caught with a structured dump ----------------------

TEST(Audit, PhantomBytesAreCaughtWithStructuredDump) {
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  ASSERT_NE(driver.auditor(), nullptr);
  // Claim a gigabit was injected that no fabric will ever drain: the first
  // heavy conservation check (job finish) must abort the run.
  driver.auditor()->debug_inject_phantom_bits(1e9);
  try {
    (void)driver.run();
    FAIL() << "corrupted byte ledger was not caught";
  } catch (const AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("INVARIANT AUDIT FAILURE"), std::string::npos) << what;
    EXPECT_NE(what.find("byte-conservation"), std::string::npos) << what;
    EXPECT_NE(what.find("sim time"), std::string::npos) << what;
    EXPECT_NE(what.find("container ledger"), std::string::npos) << what;
    EXPECT_NE(what.find("byte ledger"), std::string::npos) << what;
  }
}

TEST(Audit, PhantomBitsBelowToleranceAreAccepted) {
  // The slack exists so sub-residual completion residue never false-alarms;
  // a corruption inside the documented tolerance is by design invisible.
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  driver.auditor()->debug_inject_phantom_bits(1.0);
  EXPECT_NO_THROW((void)driver.run());
}

TEST(Audit, AuditFailureIsACheckFailure) {
  // Callers with existing CheckFailure handlers also catch audit aborts.
  const AuditFailure f("boom");
  const CheckFailure* base = &f;
  EXPECT_STREQ(base->what(), "boom");
}

// ---- event-queue consistency under churn -----------------------------------

TEST(Audit, QueueConsistentThroughCancelAndCompactionChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      handles.push_back(sim.schedule_after(
          Duration::seconds(1.0 + round + 0.01 * i), [] {}));
    }
    // Cancel two of every three handles (re-cancelling is a no-op): with a
    // majority of the heap tombstoned, the queue must compact mid-churn.
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i % 3 != 0) handles[i].cancel();
    }
    ASSERT_TRUE(sim.queue_consistent()) << "round " << round;
    sim.run_until(SimTime::seconds(round + 0.5));
    ASSERT_TRUE(sim.queue_consistent()) << "round " << round;
  }
  sim.run();
  EXPECT_TRUE(sim.queue_consistent());
  EXPECT_GT(sim.queue_compactions(), 0);
}

}  // namespace
}  // namespace cosched
