// Scheduler equivalence regression (part of `ctest -L determinism`).
//
// CoScheduler's incremental decisions (cached OCAS candidate lists,
// memoized SBS explorations, epoch-cached no-grant answers, the PSRT
// surrogate matrix) must reproduce ReferenceCoScheduler (tests/oracles.h)
// *bit for bit*: identical RunMetrics, identical
// container-grant sequences (same task, same rack, same OCAS class, in the
// same order), and identical PSRT/SBS placement decisions — across
// randomized topologies, fault plans (container kills that requeue tasks
// mid-wave, T_rem noise that perturbs every availability estimate),
// thread counts, and the churn edge cases: a task killed and
// re-granted at the same sim instant, jobs retiring mid-dispatch-wave, and
// jobs with zero reduces. Any divergence here means the fast path changed
// simulation results.
//
// The NoGrantMemo cases pin the no-grant memo's contract one event at a
// time on hand-laid clusters (DESIGN.md §10): a placement revives recorded
// declines exactly when it opens an overflow gate, its own job's or
// another guided job's; a release drops only its own rack's record; maps
// completed, requeue and plan cleared drop every record. Each case runs
// the 2x2 grid {ReferenceCoScheduler, CoScheduler} x {ScanDispatch,
// production dispatch} and must match bit for bit, grant for grant.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/block_placement.h"
#include "cluster/cluster.h"
#include "cluster/job.h"
#include "common/rng.h"
#include "fabric/ocs_fabric.h"
#include "faults/fault_spec.h"
#include "obs/observability.h"
#include "ocs1_bound.h"
#include "oracles.h"
#include "sched/coscheduler.h"
#include "sim/driver.h"
#include "sim/experiment.h"
#include "simcore/simulator.h"
#include "workload/generator.h"

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
void expect_decisions_equal(const Observability& ref_obs,
                            const Observability& inc_obs,
                            const std::string& where) {
  const std::vector<TraceEvent> ref_grants = grant_events(ref_obs.trace);
  const std::vector<TraceEvent> inc_grants = grant_events(inc_obs.trace);
  ASSERT_EQ(ref_grants.size(), inc_grants.size()) << where;
  for (std::size_t i = 0; i < ref_grants.size(); ++i) {
    EXPECT_EQ(ref_grants[i], inc_grants[i]) << where << " grant#" << i;
  }
  const DecisionLog& ref = ref_obs.decisions;
  const DecisionLog& inc = inc_obs.decisions;
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
  return run_repetitions(cfg, make_scheduler_factory(scheduler), threads);
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
  EXPECT_GT(ref_obs.trace.count(TraceEventKind::kContainerGrant), 0);
  expect_decisions_equal(ref_obs, inc_obs, "grants");
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

/// Whether any job's JCT differs between two runs of one workload.
bool any_jct_differs(const std::vector<RunMetrics>& a,
                     const std::vector<RunMetrics>& b) {
  for (std::size_t rep = 0; rep < a.size() && rep < b.size(); ++rep) {
    for (std::size_t j = 0;
         j < a[rep].jobs.size() && j < b[rep].jobs.size(); ++j) {
      if (bits(a[rep].jobs[j].jct.sec()) != bits(b[rep].jobs[j].jct.sec())) {
        return true;
      }
    }
  }
  return false;
}

TEST(SchedEquivalence, NoisyAvailabilityMatchesBitForBit) {
  // Noisy T_rem estimates reach SBS through the rank-order fast path,
  // which queries the oracle in a different order and far fewer times
  // than the reference's per-candidate scans. The noise only moves a
  // plan when SBS must rank racks whose containers are busy, so this case
  // keeps the paper's rack size and offered load (90 min per 1000 jobs)
  // on a 4-rack cluster.
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 4;
  cfg.workload.num_jobs = 40;
  cfg.workload.num_users = 20;
  cfg.workload.arrival_window = Duration::minutes(3.6);
  cfg.repetitions = 1;
  cfg.base_seed = 21;
  cfg.sim.audit = true;
  cfg.sim.faults = parse_plan("trem-noise:pct=30");
  const auto ref = run_reference(cfg, "coscheduler");
  const auto inc = run_production(cfg, "coscheduler");
  expect_runs_bitwise_equal(ref, inc, "trem-noise");
  // Vacuity guard: the noise must change this run, or the case above
  // compares two clean runs.
  ExperimentConfig clean = cfg;
  clean.sim.faults = parse_plan("trem-noise:pct=0");
  EXPECT_TRUE(any_jct_differs(inc, run_production(clean, "coscheduler")))
      << "trem-noise:pct=30 changed no job: the case is vacuous";

  // Noise *and* kills together: a killed task's next attempt gets a fresh
  // factor.
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

// ---- the no-grant memo, one revival at a time -----------------------------

/// Input blocks (replica racks per map) and map guideline pinned for one
/// job; an empty guideline keeps the scheduler's own.
struct Layout {
  std::vector<std::vector<std::int32_t>> blocks;
  std::vector<std::int32_t> guideline;
};

/// Lays out the listed jobs' input exactly as given after the wrapped
/// scheduler's MTS placement ran, so a case can put a decline, a grant and
/// a gate on chosen racks. Same draws, same layout under every scheduler.
class PinnedLayout final : public oracle::ForwardingScheduler {
 public:
  PinnedLayout(std::unique_ptr<JobScheduler> inner,
               std::map<std::int64_t, Layout> layouts)
      : ForwardingScheduler(std::move(inner)), layouts_(std::move(layouts)) {}

  void on_job_submitted(Job& job, SchedContext& ctx) override {
    inner().on_job_submitted(job, ctx);
    const auto it = layouts_.find(job.id().value());
    if (it == layouts_.end()) return;
    std::vector<BlockReplicas> blocks;
    for (const auto& racks : it->second.blocks) {
      BlockReplicas b;
      for (std::int32_t r : racks) b.racks.push_back(RackId{r});
      blocks.push_back(std::move(b));
    }
    job.set_block_placement(std::move(blocks));
    if (it->second.guideline.empty()) return;
    std::vector<RackId> guideline;
    for (std::int32_t r : it->second.guideline) guideline.push_back(RackId{r});
    job.set_r_map_guideline(static_cast<std::int32_t>(guideline.size()));
    job.set_guideline_map_racks(std::move(guideline));
  }

 private:
  std::map<std::int64_t, Layout> layouts_;
};

/// What a MemoProbe saw; every count is of hook calls made while some
/// rack's decline was recorded.
struct MemoEvents {
  std::int64_t releases_on_recorded_rack = 0;
  std::int64_t releases_keeping_other_records = 0;
  std::int64_t maps_completed = 0;
  std::int64_t requeues = 0;
  std::int64_t plans_cleared = 0;
};

/// Sits directly on a CoScheduler and checks the memo's per-hook contract
/// around each notification: a release drops its own rack's record and
/// keeps every other, and maps completed, requeue and plan cleared drop
/// them all.
class MemoProbe final : public oracle::ForwardingScheduler {
 public:
  MemoProbe(std::unique_ptr<CoScheduler> inner, std::int32_t num_racks,
            MemoEvents& seen)
      : ForwardingScheduler(std::move(inner)),
        num_racks_(num_racks),
        seen_(seen) {}

  void on_task_completed(Job& job, Task& task, RackId rack) override {
    const std::vector<bool> before = records();
    inner().on_task_completed(job, task, rack);
    const std::vector<bool> after = records();
    bool kept_other = false;
    for (std::int32_t r = 0; r < num_racks_; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (RackId{r} == rack) {
        EXPECT_FALSE(after[i]) << "release on rack " << r
                               << " kept the rack's own record";
        if (before[i]) ++seen_.releases_on_recorded_rack;
      } else {
        EXPECT_EQ(before[i], after[i])
            << "release on rack " << rack << " changed rack " << r;
        kept_other = kept_other || after[i];
      }
    }
    if (kept_other) ++seen_.releases_keeping_other_records;
  }
  void on_maps_completed(Job& job, SchedContext& ctx) override {
    if (any_record()) ++seen_.maps_completed;
    inner().on_maps_completed(job, ctx);
    EXPECT_FALSE(any_record()) << "maps completed kept a record";
  }
  void on_task_requeued(Job& job, Task& task, RackId rack) override {
    if (any_record()) ++seen_.requeues;
    inner().on_task_requeued(job, task, rack);
    EXPECT_FALSE(any_record()) << "requeue kept a record";
  }
  void on_reduce_plan_cleared(Job& job) override {
    if (any_record()) ++seen_.plans_cleared;
    inner().on_reduce_plan_cleared(job);
    EXPECT_FALSE(any_record()) << "plan cleared kept a record";
  }

 private:
  [[nodiscard]] std::vector<bool> records() {
    const auto& co = static_cast<const CoScheduler&>(inner());
    std::vector<bool> out(static_cast<std::size_t>(num_racks_));
    for (std::int32_t r = 0; r < num_racks_; ++r) {
      out[static_cast<std::size_t>(r)] = co.no_grant_recorded(RackId{r});
    }
    return out;
  }
  [[nodiscard]] bool any_record() {
    for (bool b : records()) {
      if (b) return true;
    }
    return false;
  }

  std::int32_t num_racks_;
  MemoEvents& seen_;
};

struct Outcome {
  std::string cell;
  RunMetrics metrics;
  std::vector<TraceEvent> grants;
};

/// One trace under the 2x2 grid; the production cells run behind a
/// MemoProbe. Returns the cells reference/queue, reference/scan,
/// production/queue, production/scan.
std::vector<Outcome> run_memo_grid(const SimConfig& cfg,
                                   const std::vector<JobSpec>& jobs,
                                   const std::map<std::int64_t, Layout>& pins,
                                   MemoEvents& seen) {
  std::vector<Outcome> out;
  for (const bool production : {false, true}) {
    for (const bool scan : {false, true}) {
      std::unique_ptr<JobScheduler> sched;
      if (production) {
        sched = std::make_unique<MemoProbe>(std::make_unique<CoScheduler>(),
                                            cfg.topo.num_racks, seen);
      } else {
        sched = std::make_unique<oracle::ReferenceCoScheduler>();
      }
      sched = std::make_unique<PinnedLayout>(std::move(sched), pins);
      if (scan) sched = std::make_unique<oracle::ScanDispatch>(std::move(sched));
      Observability obs;
      SimConfig run_cfg = cfg;
      run_cfg.obs = &obs;
      SimulationDriver driver(run_cfg, jobs, std::move(sched));
      Outcome o;
      o.cell = std::string(production ? "production" : "reference") +
               (scan ? "/scan" : "/queue");
      o.metrics = driver.run();
      o.grants = grant_events(obs.trace);
      out.push_back(std::move(o));
    }
  }
  return out;
}

void expect_grid_equal(const std::vector<Outcome>& grid) {
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const std::string where = grid[i].cell + " vs " + grid[0].cell;
    expect_runs_bitwise_equal({grid[0].metrics}, {grid[i].metrics}, where);
    ASSERT_EQ(grid[0].grants.size(), grid[i].grants.size()) << where;
    for (std::size_t g = 0; g < grid[0].grants.size(); ++g) {
      EXPECT_EQ(grid[0].grants[g], grid[i].grants[g])
          << where << " grant#" << g;
    }
  }
}

SimConfig tiny_cluster(std::int32_t racks, std::int32_t slots) {
  SimConfig cfg;
  cfg.topo.num_racks = racks;
  cfg.topo.servers_per_rack = 1;
  cfg.topo.slots_per_server = slots;
  cfg.audit = true;
  return cfg;
}

/// A job arriving at t=0 whose maps take `map_secs` each. 8 GB at SIR 1
/// is shuffle-heavy (T_e = 1.125 GB); 0.5 GB is not.
JobSpec memo_job(std::int64_t id, std::int64_t user,
                 std::vector<double> map_secs, std::int32_t reduces,
                 double input_gb) {
  JobSpec s;
  s.id = JobId{id};
  s.user = UserId{user};
  s.num_maps = static_cast<std::int32_t>(map_secs.size());
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(input_gb);
  s.sir = 1.0;
  for (double sec : map_secs) s.map_durations.push_back(Duration::seconds(sec));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(5));
  return s;
}

/// Whether the grid's reference cells granted class `cls` on `rack` at t=0
/// (the case's revival happened as laid out).
bool granted_at_start(const std::vector<Outcome>& grid, std::int32_t rack,
                      std::int32_t cls) {
  for (const TraceEvent& g : grid[0].grants) {
    if (g.at == SimTime::zero() && g.src == RackId{rack} && g.a == cls) {
      return true;
    }
  }
  return false;
}

TEST(NoGrantMemo, GrantOpeningItsOwnJobsGateRevivesDeclines) {
  // Job 0 is guided onto rack 1, which holds its only conforming map; its
  // other map is local to rack 0. Wave at t=0 from rack 0: rack 0 declines
  // (gate closed: rack 1 is free with a local map), rack 1 grants that map
  // under class 2 and keeps a free slot. The job's gate is now open, so
  // the re-offer of rack 0 must grant the overflow map there.
  const SimConfig cfg = tiny_cluster(/*racks=*/2, /*slots=*/2);
  const std::vector<JobSpec> jobs = {memo_job(0, 0, {5, 5}, 1, 8.0)};
  MemoEvents seen;
  const auto grid =
      run_memo_grid(cfg, jobs, {{0, {{{1}, {0}}, {1}}}}, seen);
  EXPECT_TRUE(granted_at_start(grid, 1, 2));
  EXPECT_TRUE(granted_at_start(grid, 0, 6));
  expect_grid_equal(grid);
}

TEST(NoGrantMemo, GrantFillingAnotherJobsGuidelineRackRevivesDeclines) {
  // Jobs 0 (user 0) and 1 (user 1) are both guided onto rack 1, one slot
  // per rack. Rack 0 declines for both (gates closed by rack 1's free
  // slot); rack 1 grants job 0's only map, which leaves job 0 nothing
  // pending and rack 1 full. That opens job 1's gate, so the re-offer of
  // rack 0 must grant job 1's overflow map.
  const SimConfig cfg = tiny_cluster(/*racks=*/2, /*slots=*/1);
  const std::vector<JobSpec> jobs = {memo_job(0, 0, {5}, 1, 8.0),
                                     memo_job(1, 1, {5, 5}, 1, 8.0)};
  MemoEvents seen;
  const auto grid = run_memo_grid(
      cfg, jobs, {{0, {{{1}}, {1}}}, {1, {{{1}, {0}}, {1}}}}, seen);
  EXPECT_TRUE(granted_at_start(grid, 1, 2));
  EXPECT_TRUE(granted_at_start(grid, 0, 6));
  expect_grid_equal(grid);
}

TEST(NoGrantMemo, ReleaseDropsOnlyItsOwnRacksRecord) {
  // A shuffle-light job's three maps (9 s, 7 s, 5 s on racks 0, 1, 2)
  // start at t=0 and leave nothing pending, so every re-offer declines
  // until the last map ends and the reduces become eligible. The 5 s and
  // 7 s maps release on racks with a recorded decline while another rack
  // keeps its record.
  const SimConfig cfg = tiny_cluster(/*racks=*/3, /*slots=*/2);
  const std::vector<JobSpec> jobs = {memo_job(0, 0, {5, 7, 9}, 2, 0.5)};
  MemoEvents seen;
  const auto grid =
      run_memo_grid(cfg, jobs, {{0, {{{2}, {1}, {0}}, {}}}}, seen);
  expect_grid_equal(grid);
  EXPECT_GT(seen.releases_on_recorded_rack, 0);
  EXPECT_GT(seen.releases_keeping_other_records, 0);
  EXPECT_GT(seen.maps_completed, 0);
}

TEST(NoGrantMemo, MapsCompletedAndRequeueReviveEveryRack) {
  // Kills requeue tasks mid-run and the outage strands planned shuffles,
  // on a cluster small enough that free racks sit declined when maps
  // complete and when kills requeue.
  ExperimentConfig exp = base_config(19);
  exp.sim.topo.num_racks = 4;
  exp.sim.topo.servers_per_rack = 1;
  exp.sim.topo.slots_per_server = 4;
  exp.workload.num_jobs = 12;
  exp.workload.shuffle_heavy_fraction = 0.6;
  exp.sim.faults =
      parse_plan("container-kill:p=0.09,ocs-outage:at=20s:dur=60s");
  exp.sim.seed = exp.base_seed;
  Rng rng = Rng(exp.base_seed).fork(1);
  const std::vector<JobSpec> jobs = generate_workload(exp.workload, rng);
  MemoEvents seen;
  const auto grid = run_memo_grid(exp.sim, jobs, {}, seen);
  expect_grid_equal(grid);
  EXPECT_GT(seen.maps_completed, 0);
  EXPECT_GT(seen.requeues, 0);
}

/// AvailabilityOracle for hand-built contexts: every rack free now.
class NoWait final : public AvailabilityOracle {
 public:
  Duration estimate_availability(RackId rack, std::int64_t count) override {
    (void)rack, (void)count;
    return Duration::zero();
  }
};

TEST(NoGrantMemo, PlanClearedRevivesEveryRack) {
  // The deadlock breaker only runs once the event queue drains with work
  // pending. Nothing re-offers a free container on a timer, so a drained
  // run may reach this hook with declines recorded, but no fault-free run
  // drains that way (the fuzzer asserts zero breaks on each), so the case
  // is driven by hand here. A shuffle-heavy job's reduces are planned
  // onto rack 2 only, so racks 0 and 1 decline; clearing the plan opens
  // class 5 on every rack.
  HybridTopology topo;
  topo.num_racks = 3;
  topo.servers_per_rack = 1;
  topo.slots_per_server = 2;
  Cluster cluster(topo);
  NoWait availability;
  Rng rng(7);
  Simulator sim;
  const OcsFabric ocs(sim, topo, 1);
  IdAllocator<TaskId> task_ids;
  Job job(memo_job(0, 0, {5}, 2, 8.0), topo.elephant_threshold, task_ids,
          CoflowId{0});
  std::vector<Job*> active = {&job};
  SchedContext ctx{.now = SimTime::zero(),
                   .topo = topo,
                   .cluster = cluster,
                   .active_jobs = active,
                   .availability = availability,
                   .rng = rng,
                   .fabric = ocs};
  CoScheduler production;
  oracle::ReferenceCoScheduler reference;

  production.on_job_submitted(job, ctx);
  Task& map = job.maps()[0];
  const NodeId node = cluster.allocate_slot(RackId{0});
  map.place(RackId{0}, node, ctx.now);
  job.note_map_placed(RackId{0});
  production.on_task_placed(job, map, RackId{0});
  map.complete(ctx.now);
  cluster.release_slot(RackId{0}, node);
  job.note_map_completed(RackId{0}, job.spec().map_output_size());
  production.on_task_completed(job, map, RackId{0});
  production.on_maps_completed(job, ctx);
  job.set_reduce_plan({{RackId{2}, 2}}, Duration::seconds(1));

  for (const std::int32_t r : {0, 1}) {
    EXPECT_FALSE(reference.pick_task(RackId{r}, ctx).has_value()) << r;
    EXPECT_FALSE(production.pick_task(RackId{r}, ctx).has_value()) << r;
    EXPECT_TRUE(production.no_grant_recorded(RackId{r})) << r;
  }
  job.clear_reduce_plan();
  production.on_reduce_plan_cleared(job);
  for (const std::int32_t r : {0, 1}) {
    EXPECT_FALSE(production.no_grant_recorded(RackId{r})) << r;
    const auto want = reference.pick_task(RackId{r}, ctx);
    const auto got = production.pick_task(RackId{r}, ctx);
    ASSERT_TRUE(want.has_value()) << r;
    ASSERT_TRUE(got.has_value()) << r;
    EXPECT_EQ(want->task, got->task) << r;
    EXPECT_EQ(got->priority_class, 5) << r;
  }
}

TEST(PsrtEquivalence, FastPathBitEqualToReferenceOnRandomInputs) {
  // The production PSRT enumeration skips the m x R_red traffic
  // matrix entirely (extremal row/column collapse, DESIGN.md §11). That is
  // only legal if it reproduces the reference candidate list bit for bit:
  // same candidate count, same d vectors, same CCT lower-bound bits.
  Rng rng(0x95A7);
  const DataSize te = DataSize::gigabytes(1.125);  // the paper's T_e
  const CctBoundFn bound =
      ocs1_bound(Bandwidth::gbps(100.0), Duration::milliseconds(10.0));
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
        possible_reduce_schedules(sm, reduces, te, bound, racks);
    const auto fast = possible_reduce_schedules_incremental(
        sm, reduces, te, bound, racks);
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
