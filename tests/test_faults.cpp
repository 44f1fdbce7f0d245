// The fault-injection subsystem (ctest -L faults): the spec grammar, the
// determinism contract (fixed plans are reproducible and thread-count
// invariant; empty plans change nothing), and the recovery semantics —
// re-executed maps regenerate shuffle bytes exactly once, killed reduces
// release their containers, and an OCS outage mid-coflow degrades onto the
// EPS without losing bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/block_placement.h"
#include "cluster/job.h"
#include "faults/fault_injector.h"
#include "faults/fault_spec.h"
#include "obs/observability.h"
#include "sched/scheduler.h"
#include "sim/driver.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

// ---- spec grammar ----------------------------------------------------------

FaultPlan parse_ok(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

std::string parse_error(const std::string& spec) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse(spec, &error).has_value()) << spec;
  return error;
}

TEST(FaultSpec, EmptySpecIsEmptyPlan) {
  const FaultPlan plan = parse_ok("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.to_spec(), "");
}

TEST(FaultSpec, ParsesEveryClause) {
  const FaultPlan plan = parse_ok(
      "straggler:p=0.05:slow=2.0,container-kill:p=0.01,"
      "ocs-outage:at=300s:dur=60s,reconfig-jitter:pct=50,trem-noise:pct=30");
  ASSERT_TRUE(plan.straggler.has_value());
  EXPECT_DOUBLE_EQ(plan.straggler->p, 0.05);
  EXPECT_DOUBLE_EQ(plan.straggler->slow, 2.0);
  ASSERT_TRUE(plan.container_kill.has_value());
  EXPECT_DOUBLE_EQ(plan.container_kill->p, 0.01);
  ASSERT_EQ(plan.ocs_outages.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.ocs_outages[0].at.sec(), 300.0);
  EXPECT_DOUBLE_EQ(plan.ocs_outages[0].dur.sec(), 60.0);
  ASSERT_TRUE(plan.reconfig_jitter.has_value());
  EXPECT_DOUBLE_EQ(plan.reconfig_jitter->pct, 0.5);
  ASSERT_TRUE(plan.trem_noise.has_value());
  EXPECT_DOUBLE_EQ(plan.trem_noise->rate, 0.3);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultSpec, DurationsAcceptBareSeconds) {
  const FaultPlan plan = parse_ok("ocs-outage:at=300:dur=60");
  ASSERT_EQ(plan.ocs_outages.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.ocs_outages[0].at.sec(), 300.0);
  EXPECT_DOUBLE_EQ(plan.ocs_outages[0].dur.sec(), 60.0);
}

TEST(FaultSpec, OutagesAreRepeatable) {
  const FaultPlan plan =
      parse_ok("ocs-outage:at=10s:dur=5s,ocs-outage:at=100s:dur=20s");
  ASSERT_EQ(plan.ocs_outages.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.ocs_outages[1].at.sec(), 100.0);
}

TEST(FaultSpec, RoundTripsThroughToSpec) {
  const std::string spec =
      "straggler:p=0.1:slow=3,container-kill:p=0.02,"
      "ocs-outage:at=40s:dur=25s,reconfig-jitter:pct=50,trem-noise:pct=20";
  const FaultPlan plan = parse_ok(spec);
  const FaultPlan reparsed = parse_ok(plan.to_spec());
  EXPECT_EQ(plan.to_spec(), reparsed.to_spec());
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_NE(parse_error("bogus-fault:p=0.1"), "");
  EXPECT_NE(parse_error("straggler:p=1.5"), "");        // p out of range
  EXPECT_NE(parse_error("straggler:p=0.1:slow=0.5"), "");  // slow <= 1
  EXPECT_NE(parse_error("container-kill:p=1.0"), "");   // p must be < 1
  EXPECT_NE(parse_error("ocs-outage:at=10s"), "");      // missing dur
  EXPECT_NE(parse_error("ocs-outage:at=10s:dur=0s"), "");  // dur <= 0
  EXPECT_NE(parse_error("ocs-outage:at=-5s:dur=10s"), "");
  EXPECT_NE(parse_error("reconfig-jitter:pct=0"), "");
  EXPECT_NE(parse_error("reconfig-jitter:pct=150"), "");
  EXPECT_NE(parse_error("trem-noise:pct=-1"), "");
  EXPECT_NE(parse_error("straggler:p=abc"), "");
  EXPECT_NE(parse_error("straggler:p"), "");
  EXPECT_NE(parse_error("straggler:p=0.1,straggler:p=0.2"), "");  // dup
}

TEST(FaultSpec, TremErrorOrPrefersTheClause) {
  EXPECT_DOUBLE_EQ(FaultPlan{}.trem_noise_rate(), 0.0);
  EXPECT_DOUBLE_EQ(parse_ok("trem-noise:pct=30").trem_noise_rate(), 0.3);
}

// ---- injector determinism --------------------------------------------------

TEST(FaultInjector, DrawsAreReproducibleAcrossInstances) {
  const FaultPlan plan = parse_ok(
      "straggler:p=0.5:slow=2,container-kill:p=0.5,reconfig-jitter:pct=50");
  FaultInjector a(plan, 1234);
  FaultInjector b(plan, 1234);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.draw_straggler_multiplier()),
              std::bit_cast<std::uint64_t>(b.draw_straggler_multiplier()));
    EXPECT_EQ(a.draw_kill_point(), b.draw_kill_point());
    const Duration da = a.jittered_reconfig_delay(Duration::seconds(0.01));
    const Duration db = b.jittered_reconfig_delay(Duration::seconds(0.01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(da.sec()),
              std::bit_cast<std::uint64_t>(db.sec()));
  }
  EXPECT_EQ(a.stats().stragglers, b.stats().stragglers);
}

TEST(FaultInjector, StreamsAreIndependent) {
  // Consuming one fault family's stream must not shift another family's
  // draws — the property that keeps a plan's families composable.
  const FaultPlan plan = parse_ok("straggler:p=0.5:slow=2,container-kill:p=0.5");
  FaultInjector a(plan, 99);
  FaultInjector b(plan, 99);
  for (int i = 0; i < 64; ++i) (void)a.draw_straggler_multiplier();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.draw_kill_point(), b.draw_kill_point());
  }
}

// ---- run-level contracts ---------------------------------------------------

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 12;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.workload.num_jobs = 18;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 60;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(50);
  cfg.repetitions = 2;
  cfg.base_seed = seed;
  return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_run_bitwise_equal(const RunMetrics& a, const RunMetrics& b,
                              const std::string& where) {
  EXPECT_EQ(bits(a.makespan.sec()), bits(b.makespan.sec())) << where;
  EXPECT_EQ(a.ocs_bytes.in_bytes(), b.ocs_bytes.in_bytes()) << where;
  EXPECT_EQ(a.eps_bytes.in_bytes(), b.eps_bytes.in_bytes()) << where;
  EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes()) << where;
  EXPECT_EQ(a.events_executed, b.events_executed) << where;
  EXPECT_EQ(a.faults.stragglers, b.faults.stragglers) << where;
  EXPECT_EQ(a.faults.maps_killed, b.faults.maps_killed) << where;
  EXPECT_EQ(a.faults.reduces_killed, b.faults.reduces_killed) << where;
  EXPECT_EQ(a.faults.flows_evicted, b.faults.flows_evicted) << where;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << where;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(bits(a.jobs[j].jct.sec()), bits(b.jobs[j].jct.sec()))
        << where << " job#" << j;
    EXPECT_EQ(bits(a.jobs[j].cct.sec()), bits(b.jobs[j].cct.sec()))
        << where << " job#" << j;
    EXPECT_EQ(a.jobs[j].shuffle_bytes.in_bytes(),
              b.jobs[j].shuffle_bytes.in_bytes())
        << where << " job#" << j;
  }
}

// A plan exercising every fault family at rates high enough to fire in the
// small config.
const char* kFullSpec =
    "straggler:p=0.2:slow=2,container-kill:p=0.1,"
    "ocs-outage:at=40s:dur=30s,reconfig-jitter:pct=50,trem-noise:pct=20";

TEST(FaultRuns, ExplicitEmptyPlanMatchesDefault) {
  const ExperimentConfig base = small_config(42);
  ExperimentConfig with_empty = base;
  with_empty.sim.faults = parse_ok("");
  for (const std::string name : {"fair", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const std::vector<RunMetrics> a = run_repetitions(base, factory);
    const std::vector<RunMetrics> b = run_repetitions(with_empty, factory);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t rep = 0; rep < a.size(); ++rep) {
      expect_run_bitwise_equal(a[rep], b[rep], name + " (empty plan)");
      EXPECT_EQ(a[rep].faults.tasks_killed(), 0);
      EXPECT_EQ(a[rep].faults.stragglers, 0);
      EXPECT_EQ(a[rep].faults.flows_evicted, 0);
    }
  }
}

TEST(FaultRuns, FixedPlanRerunsAreByteIdentical) {
  ExperimentConfig cfg = small_config(7);
  cfg.sim.faults = parse_ok(kFullSpec);
  for (const std::string name : {"fair", "corral", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const std::vector<RunMetrics> first = run_repetitions(cfg, factory);
    const std::vector<RunMetrics> second = run_repetitions(cfg, factory);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t rep = 0; rep < first.size(); ++rep) {
      expect_run_bitwise_equal(first[rep], second[rep],
                               name + " rep" + std::to_string(rep));
    }
  }
}

TEST(FaultRuns, FixedPlanIsThreadCountInvariant) {
  ExperimentConfig cfg = small_config(11);
  cfg.repetitions = 3;
  cfg.sim.faults = parse_ok(kFullSpec);
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  const std::vector<RunMetrics> serial = run_repetitions(cfg, factory);
  const std::vector<RunMetrics> parallel = run_repetitions(cfg, factory, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    expect_run_bitwise_equal(serial[rep], parallel[rep],
                             "threads=4 rep" + std::to_string(rep));
  }
}

// The placement-accounting half of re-execution, at the Job level: a
// requeued map rolls back maps_placed_ and is findable by both pending-map
// lookups again, and completing the retry credits its output exactly once.
TEST(FaultRecovery, RequeuedMapIsSchedulableAgainAndCreditsOutputOnce) {
  JobSpec spec;
  spec.id = JobId{1};
  spec.user = UserId{0};
  spec.num_maps = 2;
  spec.num_reduces = 1;
  spec.input_size = DataSize::gigabytes(2);
  spec.map_durations = {Duration::seconds(10), Duration::seconds(10)};
  spec.reduce_durations = {Duration::seconds(5)};
  IdAllocator<TaskId> ids;
  Job job(spec, DataSize::gigabytes(1), ids, CoflowId{1});
  job.set_block_placement(
      {BlockReplicas{{RackId{0}}}, BlockReplicas{{RackId{1}}}});

  Task* m0 = job.next_pending_map_local(RackId{0});
  ASSERT_NE(m0, nullptr);
  m0->place(RackId{0}, NodeId{0}, SimTime::zero());
  job.note_map_placed(RackId{0});
  EXPECT_EQ(job.maps_placed(), 1);

  // The attempt dies; the task must be schedulable again on its replica
  // rack and through the any-rack cursor (which had already moved past it).
  ASSERT_NE(job.next_pending_map_any(), nullptr);  // advance cursor to m1
  m0->reset_for_retry();
  job.requeue_map(m0->index());
  EXPECT_EQ(job.maps_placed(), 0);
  EXPECT_EQ(m0->attempt(), 2);
  EXPECT_EQ(job.next_pending_map_local(RackId{0}), m0);
  EXPECT_EQ(job.next_pending_map_any(), m0);

  // Retry runs to completion: output credited exactly once.
  m0->place(RackId{1}, NodeId{2}, SimTime::seconds(1));
  job.note_map_placed(RackId{1});
  m0->complete(SimTime::seconds(11));
  job.note_map_completed(RackId{1}, spec.map_output_size());
  EXPECT_EQ(job.maps_completed(), 1);
  DataSize credited;
  for (const auto& [rack, output] : job.map_output_by_rack()) {
    credited += output;
  }
  EXPECT_EQ(credited.in_bytes(), spec.map_output_size().in_bytes());
}

// And the same for a reduce: requeueing rolls back the per-rack placement
// count (what re-opens the slot in OCAS's reduce plan).
TEST(FaultRecovery, RequeuedReduceRollsBackPerRackPlacement) {
  JobSpec spec;
  spec.id = JobId{2};
  spec.user = UserId{0};
  spec.num_maps = 1;
  spec.num_reduces = 2;
  spec.input_size = DataSize::gigabytes(2);
  spec.map_durations = {Duration::seconds(10)};
  spec.reduce_durations = {Duration::seconds(5), Duration::seconds(5)};
  IdAllocator<TaskId> ids;
  Job job(spec, DataSize::gigabytes(1), ids, CoflowId{2});

  Task* r0 = job.next_pending_reduce();
  ASSERT_NE(r0, nullptr);
  r0->place(RackId{3}, NodeId{30}, SimTime::zero());
  job.note_reduce_placed(RackId{3});
  EXPECT_EQ(job.reduces_placed(), 1);
  EXPECT_EQ(job.reduce_placed_by_rack().at(RackId{3}), 1);

  r0->reset_for_retry();
  job.requeue_reduce(r0->index(), RackId{3});
  EXPECT_EQ(job.reduces_placed(), 0);
  EXPECT_EQ(job.reduce_placed_by_rack().at(RackId{3}), 0);
  EXPECT_FALSE(job.all_reduces_placed());
  EXPECT_EQ(job.next_pending_reduce(), r0);
}

// Re-executed maps regenerate their output exactly once, end to end: under
// an aggressive kill plan every job's credited map output still equals the
// fault-free run's — a lost completion or a double-count would shift it by
// at least one map's output. (Shuffle *demand* may legitimately grow when a
// killed reduce retries on a different rack and re-fetches its partitions,
// so demand is only checked for no-loss.)
TEST(FaultRuns, KilledTasksRegenerateMapOutputExactlyOnce) {
  const ExperimentConfig clean = small_config(21);
  ExperimentConfig faulty = clean;
  faulty.sim.faults = parse_ok("container-kill:p=0.2");
  for (const std::string name : {"fair", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const std::vector<RunMetrics> a = run_repetitions(clean, factory);
    const std::vector<RunMetrics> b = run_repetitions(faulty, factory);
    ASSERT_EQ(a.size(), b.size());
    std::int64_t killed = 0;
    for (std::size_t rep = 0; rep < a.size(); ++rep) {
      killed += b[rep].faults.tasks_killed();
      ASSERT_EQ(a[rep].jobs.size(), b[rep].jobs.size());
      for (std::size_t j = 0; j < a[rep].jobs.size(); ++j) {
        EXPECT_EQ(a[rep].jobs[j].map_output_bytes.in_bytes(),
                  b[rep].jobs[j].map_output_bytes.in_bytes())
            << name << " rep" << rep << " job#" << j;
        // Demand never shrinks; re-fetches may add (within a few bytes of
        // incremental-materialization rounding).
        EXPECT_GE(b[rep].jobs[j].shuffle_bytes.in_bytes() + 16,
                  a[rep].jobs[j].shuffle_bytes.in_bytes())
            << name << " rep" << rep << " job#" << j;
      }
    }
    EXPECT_GT(killed, 0) << name;  // the plan actually fired
  }
}

// Killed reduces release their containers: the driver CHECKs at end of run
// that every slot is free again, so surviving a reduce-heavy kill plan to
// completion is the assertion. The kill counters prove reduces died.
TEST(FaultRuns, KilledReducesReleaseContainersAndJobsFinish) {
  ExperimentConfig cfg = small_config(33);
  cfg.sim.faults = parse_ok("container-kill:p=0.25");
  for (const std::string name : {"fair", "corral", "coscheduler"}) {
    const std::vector<RunMetrics> runs =
        run_repetitions(cfg, make_scheduler_factory(name));
    std::int64_t reduces_killed = 0;
    for (const RunMetrics& m : runs) {
      reduces_killed += m.faults.reduces_killed;
      for (const JobRecord& job : m.jobs) {
        EXPECT_GT(job.completion.sec(), 0.0) << name;
      }
    }
    EXPECT_GT(reduces_killed, 0) << name;
  }
}

// An OCS outage mid-coflow: circuit transfers are evicted and finish on the
// EPS. To make byte conservation exact, run a single job so every placement
// decision happens before the outage fires — until then the faulted run is
// bit-identical to the clean one (empty prefix of the plan), so the demand
// matrix is the same and the cross-fabric byte sum must match up to the
// ledgers' once-per-run fractional-byte truncation.
TEST(FaultRuns, OcsOutageFallsBackToEpsWithoutLosingBytes) {
  ExperimentConfig clean = small_config(55);
  clean.workload.num_jobs = 1;
  clean.workload.shuffle_heavy_fraction = 1.0;  // elephants ride the OCS
  clean.repetitions = 1;
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  const RunMetrics a = run_once(clean, factory, 0);
  ASSERT_EQ(a.jobs.size(), 1u);
  ASSERT_TRUE(a.jobs[0].has_shuffle);
  ASSERT_GT(a.ocs_bytes.in_bytes(), 0);

  // The coflow is released at the first reduce placement (deferred
  // semantics: all reduces of the lone job are granted in one dispatch
  // pass). The OCS elephants drain through their circuits in a small
  // fraction of the coflow's lifetime — the EPS mice dominate `cct` — so
  // probe instants shortly after the release until the outage catches a
  // circuit mid-transfer. Deterministic: a fixed seed selects a fixed probe.
  const double open = a.jobs[0].first_reduce_placement.sec();
  const double cct = a.jobs[0].cct.sec();
  ASSERT_GT(cct, 0.0);
  RunMetrics b;
  for (double frac : {0.02, 0.05, 0.1, 0.01, 0.2, 0.5, 0.005, 0.002}) {
    const double at = open + frac * cct;
    ExperimentConfig faulty = clean;
    faulty.sim.faults =
        parse_ok("ocs-outage:at=" + std::to_string(at) + "s:dur=1200s");
    b = run_once(faulty, factory, 0);
    if (b.faults.flows_evicted > 0) break;
  }
  ASSERT_GT(b.faults.flows_evicted, 0);  // some probe caught flows mid-circuit
  EXPECT_EQ(b.faults.ocs_outages, 1);
  // Placements predate the outage, so local traffic and per-job demand are
  // unchanged; the evicted flows' drained bits stay in the OCS ledger and
  // the remainder lands in the EPS ledger.
  EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes());
  EXPECT_EQ(a.jobs[0].shuffle_bytes.in_bytes(),
            b.jobs[0].shuffle_bytes.in_bytes());
  const std::int64_t cross_a = a.ocs_bytes.in_bytes() + a.eps_bytes.in_bytes();
  const std::int64_t cross_b = b.ocs_bytes.in_bytes() + b.eps_bytes.in_bytes();
  EXPECT_NEAR(static_cast<double>(cross_a), static_cast<double>(cross_b), 8.0);
  // Traffic visibly shifted off the OCS, and the slower path can only
  // delay the job, never speed it up.
  EXPECT_LT(b.ocs_bytes.in_bytes(), a.ocs_bytes.in_bytes());
  EXPECT_GT(b.eps_bytes.in_bytes(), a.eps_bytes.in_bytes());
  EXPECT_GE(b.makespan.sec(), a.makespan.sec());
}

// A killed-reduce rollback and an OCS outage eviction in the same sim tick:
// the hardest interleaving for the container and byte ledgers, since the
// rollback un-places a task while the eviction re-routes its job's flows.
// Probe a kill-only run for the exact instant of the first reduce kill,
// then pin an outage to that instant. Fault families draw from independent
// RNG streams, so adding the outage family leaves the kill schedule of the
// identical prefix untouched; the outage events are scheduled at run()
// start and thus carry lower sequence numbers, so at the shared timestamp
// the eviction fires first and the rollback lands inside the outage window.
TEST(FaultRuns, ReduceKillAndOutageEvictionShareATick) {
  ExperimentConfig cfg = small_config(77);
  cfg.workload.shuffle_heavy_fraction = 1.0;  // elephants ride the OCS
  cfg.repetitions = 1;
  cfg.sim.faults = parse_ok("container-kill:p=0.3");
  cfg.sim.audit = true;  // run the interleaving fully audited
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");

  Observability probe_obs;
  cfg.sim.obs = &probe_obs;
  const RunMetrics probe = run_once(cfg, factory, 0);
  ASSERT_GT(probe.faults.reduces_killed, 0);
  SimTime kill_at = SimTime::zero();
  bool found = false;
  for (const TraceEvent& ev : probe_obs.trace.events()) {
    if (ev.kind == TraceEventKind::kTaskKilled && ev.a == 1) {
      kill_at = ev.at;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  ExperimentConfig faulty = cfg;
  Observability obs;
  faulty.sim.obs = &obs;
  faulty.sim.faults.ocs_outages.push_back(
      OcsOutageFault{kill_at, Duration::seconds(15)});
  const RunMetrics b = run_once(faulty, factory, 0);
  EXPECT_EQ(b.faults.ocs_outages, 1);
  EXPECT_GT(b.faults.reduces_killed, 0);

  bool outage_at_tick = false;
  bool kill_at_tick = false;
  for (const TraceEvent& ev : obs.trace.events()) {
    if (ev.at != kill_at) continue;
    if (ev.kind == TraceEventKind::kOcsOutage && ev.a == 1) {
      outage_at_tick = true;
    }
    if (ev.kind == TraceEventKind::kTaskKilled && ev.a == 1) {
      // The outage family must not have shifted the kill out of its tick.
      kill_at_tick = true;
    }
  }
  EXPECT_TRUE(outage_at_tick);
  EXPECT_TRUE(kill_at_tick);
  for (const JobRecord& job : b.jobs) {
    EXPECT_GT(job.completion.sec(), 0.0);
  }
}

// Each kill's trace event carries where in its attempt the kill landed:
// strictly inside, since a killed attempt never also completes.
TEST(FaultRuns, KillEventsCarryTheirKillPoint) {
  ExperimentConfig cfg = small_config(21);
  cfg.sim.faults = parse_ok("container-kill:p=0.2");
  Observability obs;
  cfg.sim.obs = &obs;
  const RunMetrics run =
      run_once(cfg, make_scheduler_factory("coscheduler"), 0);
  const std::int64_t kills = run.faults.maps_killed + run.faults.reduces_killed;
  ASSERT_GT(kills, 0);
  EXPECT_EQ(obs.trace.count(TraceEventKind::kTaskKilled), kills);
  for (const TraceEvent& ev : obs.trace.events()) {
    if (ev.kind != TraceEventKind::kTaskKilled) continue;
    EXPECT_GT(ev.b, 0.0) << "task " << ev.task.value();
    EXPECT_LT(ev.b, 1.0) << "task " << ev.task.value();
  }
}

/// Runs a lone job's map on rack 2, its data rack, and its reduce on rack 1
/// at the first attempt and on rack 2 at every retry.
class RerunElsewhereScheduler : public JobScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "rerun"; }
  [[nodiscard]] bool defers_reduces() const override { return false; }

  void on_job_submitted(Job& job, SchedContext& ctx) override {
    job.set_block_placement(place_blocks_on_racks(job.spec().num_maps,
                                                  {RackId{2}}, 1, ctx.rng));
  }

  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    for (Job* job : ctx.active_jobs) {
      if (rack == RackId{2}) {
        if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t};
      }
      if (!job->all_maps_done()) continue;
      if (Task* t = job->next_pending_reduce()) {
        if (rack == RackId{t->attempt() == 1 ? 1 : 2}) {
          return TaskChoice{job, t};
        }
      }
    }
    return std::nullopt;
  }
};

// A reduce killed mid-fetch leaves its fetch in flight: the rerun fetches
// again on another rack, and nothing cancels the first attempt's flow. Here
// the orphan is a 1 GB EPS mouse into rack 1 (2 Gb/s of EPS per rack: 4 s),
// while the rerun reads its input locally on rack 2 (0.8 s at the 10 Gb/s
// NIC) and computes for 1 s, so the job's last reduce finishes while the
// orphan still drains. The job
// must then finish when the orphan does, not be freed with a flow in the
// fabric (the run used to abort there). Seeds vary the kill draws; the runs
// where exactly the first reduce attempt died are the case under test.
TEST(FaultRuns, OrphanedFetchOfAKilledReduceDelaysJobCompletion) {
  JobSpec job;
  job.id = JobId{0};
  job.user = UserId{0};
  job.num_maps = 1;
  job.num_reduces = 1;
  job.input_size = DataSize::gigabytes(1);
  job.sir = 1.0;
  job.map_durations = {Duration::seconds(1)};
  job.reduce_durations = {Duration::seconds(1)};
  std::int32_t orphaned = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimConfig cfg;
    cfg.topo.num_racks = 4;
    cfg.topo.servers_per_rack = 2;
    cfg.topo.slots_per_server = 2;
    cfg.faults = parse_ok("container-kill:p=0.5");
    cfg.seed = seed;
    cfg.audit = true;
    SimulationDriver driver(cfg, {job},
                            std::make_unique<RerunElsewhereScheduler>());
    const RunMetrics m = driver.run();
    ASSERT_EQ(m.jobs.size(), 1u);
    if (m.faults.maps_killed != 0 || m.faults.reduces_killed != 1) continue;
    ++orphaned;
    // The map ends at 1 s and the orphan drains 4 s later; the rerun, placed
    // at the kill (before 2 s), was done by 3.75 s.
    EXPECT_NEAR(m.jobs[0].completion.sec(), 5.0, 1e-6);
    EXPECT_EQ(m.eps_bytes.in_bytes(), DataSize::gigabytes(1).in_bytes());
  }
  // Vacuity guard: some seeds kill exactly the first reduce attempt.
  EXPECT_GT(orphaned, 0);
}

}  // namespace
}  // namespace cosched
