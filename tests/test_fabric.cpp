// The fabric layer (ctest -L fabric, docs/FABRICS.md): the --fabric spec
// grammar, direct unit tests of each fabric's timing model (K-core plane
// parallelism, rotor slot arithmetic, mesh FIFO service), the plane=
// outage grammar, and driver-level end-to-end runs — every fabric completes
// the paper workload under the invariant auditor, the default ocs:1 spec is
// bit-identical to an explicitly parsed one, and each fabric is
// deterministic under rerun.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "fabric/fabric_factory.h"
#include "fabric/ocs_fabric.h"
#include "fabric/rotor_fabric.h"
#include "faults/fault_spec.h"
#include "net/fabric.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- spec grammar ----------------------------------------------------------

FabricSpec spec_ok(const std::string& s) {
  std::string error;
  const std::optional<FabricSpec> spec = FabricSpec::parse(s, &error);
  EXPECT_TRUE(spec.has_value()) << s << ": " << error;
  return spec.value_or(FabricSpec{});
}

std::string spec_error(const std::string& s) {
  std::string error;
  EXPECT_FALSE(FabricSpec::parse(s, &error).has_value()) << s;
  EXPECT_NE(error, "") << s;
  return error;
}

TEST(FabricSpec, ParsesEveryKind) {
  EXPECT_EQ(spec_ok("ocs").to_spec(), "ocs:1");
  EXPECT_EQ(spec_ok("ocs:1").to_spec(), "ocs:1");
  EXPECT_EQ(spec_ok("ocs:4").planes, 4);
  EXPECT_EQ(spec_ok("ocs:64").planes, 64);
  EXPECT_EQ(spec_ok("rotor").to_spec(), "rotor:0.1s");
  EXPECT_DOUBLE_EQ(spec_ok("rotor:50ms").rotor_period.sec(), 0.05);
  EXPECT_DOUBLE_EQ(spec_ok("rotor:2s").rotor_period.sec(), 2.0);
  EXPECT_DOUBLE_EQ(spec_ok("rotor:0.25").rotor_period.sec(), 0.25);
  EXPECT_EQ(spec_ok("mesh").kind, FabricKind::kMesh);
}

TEST(FabricSpec, DefaultIsTheSingleCoreOcs) {
  const FabricSpec def;
  EXPECT_EQ(def, spec_ok("ocs:1"));
  EXPECT_EQ(def.to_spec(), "ocs:1");
}

TEST(FabricSpec, RoundTripsThroughToSpec) {
  for (const char* s : {"ocs:1", "ocs:4", "rotor:0.1s", "rotor:50ms",
                        "rotor:2s", "mesh"}) {
    const FabricSpec spec = spec_ok(s);
    EXPECT_EQ(spec, spec_ok(spec.to_spec())) << s;
  }
}

TEST(FabricSpec, RejectsMalformedInput) {
  spec_error("");
  spec_error("ocs:0");
  spec_error("ocs:65");
  spec_error("ocs:-1");
  spec_error("ocs:2x");       // trailing junk
  spec_error("ocs:1:2");      // extra field
  spec_error("ocs:abc");
  spec_error("rotor:abc");
  spec_error("rotor:0");
  spec_error("rotor:0ms");
  spec_error("rotor:-5ms");
  spec_error("rotor:10msx");  // trailing junk
  spec_error("mesh:1");       // the mesh takes no parameter
  spec_error("torus");
  spec_error("OCS:1");        // case-sensitive
}

TEST(FabricSpec, RingIsNotAFabric) {
  EXPECT_EQ(spec_error("ring"),
            "unknown fabric 'ring' (expected ocs[:K], rotor[:PERIOD], or "
            "mesh)");
  spec_error("ring:2");
}

// ---- direct fabric harness -------------------------------------------------

HybridTopology topo4() {
  HybridTopology t;
  t.num_racks = 4;
  t.ocs_link = Bandwidth::gbps(100);
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  return t;
}

struct FabricHarness {
  Simulator sim;
  std::unique_ptr<Fabric> fabric;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Coflow>> coflows;

  explicit FabricHarness(const std::string& spec)
      : fabric(make_fabric(sim, topo4(), spec_ok(spec))) {}

  Coflow& coflow(std::int64_t id) {
    coflows.push_back(std::make_unique<Coflow>(CoflowId{id}, JobId{id}));
    return *coflows.back();
  }

  void demand(Coflow& c, int s, int d, double gb) {
    c.add_demand(ids, RackId{s}, RackId{d}, DataSize::gigabytes(gb));
  }

  void go(Coflow& c) {
    c.mark_released(sim.now());
    for (const auto& f : c.flows()) {
      f->set_path(FlowPath::kOcs);
      fabric->submit(c, *f);
    }
  }

  double last_completion(const Coflow& c) {
    double last = 0;
    for (const auto& f : c.flows()) {
      EXPECT_TRUE(f->completed());
      last = std::max(last, f->completion_time().sec());
    }
    return last;
  }
};

// ---- K-core OCS ------------------------------------------------------------

TEST(OcsFabric, SinglePlaneMatchesSunflowTiming) {
  FabricHarness h("ocs:1");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);  // 10 Gbit at 100 Gb/s = 0.1 s + 10 ms delta
  h.go(c);
  h.sim.run();
  EXPECT_NEAR(h.last_completion(c), 0.11, 1e-9);
  EXPECT_EQ(h.fabric->self_check(), "");
}

TEST(OcsFabric, SecondPlaneUnblocksAContendedPort) {
  // Two single-flow coflows fighting for port 0 -> 1. On one plane the
  // shorter coflow runs first and the longer one queues behind it; with two
  // planes both transfer concurrently.
  auto run = [](const std::string& spec) {
    FabricHarness h(spec);
    Coflow& big = h.coflow(0);
    h.demand(big, 0, 1, 12.5);  // 1 s
    Coflow& small = h.coflow(1);
    h.demand(small, 0, 1, 1.25);  // 0.1 s
    h.go(big);
    h.go(small);
    h.sim.run();
    return std::pair{h.last_completion(big), h.last_completion(small)};
  };
  const auto [big1, small1] = run("ocs:1");
  const auto [big2, small2] = run("ocs:2");
  EXPECT_NEAR(small1, 0.11, 1e-9);
  EXPECT_NEAR(big1, 0.11 + 1.01, 1e-9);  // queued behind the short coflow
  EXPECT_NEAR(small2, 0.11, 1e-9);
  EXPECT_NEAR(big2, 1.01, 1e-9);  // its own plane, no queueing
}

TEST(OcsFabric, PlaneOutageEvictsOnlyThatPlane) {
  FabricHarness h("ocs:2");
  Coflow& a = h.coflow(0);
  h.demand(a, 0, 1, 12.5);
  Coflow& b = h.coflow(1);
  h.demand(b, 2, 3, 12.5);
  h.go(a);
  h.go(b);
  h.sim.run_until(SimTime::seconds(0.5));
  ASSERT_EQ(h.fabric->active_transfers(), 2u);
  // Plane 0 carries both (disjoint ports); plane 1 is idle. Fail plane 0.
  const std::vector<Flow*> evicted = h.fabric->begin_plane_outage(0);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_FALSE(h.fabric->plane_available(0));
  EXPECT_TRUE(h.fabric->plane_available(1));
  // Queued demand re-allocates onto the surviving plane (pending demand
  // stays with the fabric; the evicted in-flight remainder is the driver's
  // to reroute). Healing the plane later must be accepted.
  h.fabric->end_plane_outage(0);
  EXPECT_TRUE(h.fabric->plane_available(0));
  EXPECT_EQ(h.fabric->self_check(), "");
}

// ---- rotor -----------------------------------------------------------------

TEST(RotorFabric, FollowsTheSlotArithmetic) {
  // R=4, period 0.1 s, delta 10 ms, one 10 Gbit flow 0 -> 1 submitted at
  // t=0. Shift s(k) = 1 + (k mod 3), so pair (0,1) is served in slots
  // 3, 6, 9, ... Slot 3 ([0.3, 0.4)) pays delta at 0.3, transfers
  // 0.31..0.4 (9 Gbit); the remaining 1 Gbit completes in slot 6 at
  // 0.61 + 0.01 = 0.62 s.
  FabricHarness h("rotor:0.1s");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);
  h.go(c);
  h.sim.run();
  EXPECT_NEAR(h.last_completion(c), 0.62, 1e-9);
  auto& rotor = dynamic_cast<RotorFabric&>(*h.fabric);
  EXPECT_GE(rotor.slots_run(), 6);
  EXPECT_EQ(h.fabric->self_check(), "");
  EXPECT_DOUBLE_EQ(h.fabric->uncredited_settled_bits(), 0.0);
}

TEST(RotorFabric, IdlesWhenEmptyAndReruns) {
  // The rotor clock disarms when no demand is pending, so the simulation
  // drains instead of ticking forever; a later submission re-arms it.
  FabricHarness h("rotor:0.1s");
  Coflow& first = h.coflow(0);
  h.demand(first, 0, 1, 1.25);
  h.go(first);
  h.sim.run();  // would never return if the clock kept ticking
  EXPECT_NEAR(h.last_completion(first), 0.62, 1e-9);
  Coflow& second = h.coflow(1);
  h.demand(second, 0, 1, 1.25);
  h.go(second);
  h.sim.run();
  EXPECT_GT(h.last_completion(second), h.last_completion(first));
}

TEST(RotorFabric, PeriodChangesTheSchedule) {
  auto run = [](const std::string& spec) {
    FabricHarness h(spec);
    Coflow& c = h.coflow(0);
    h.demand(c, 0, 1, 1.25);
    h.go(c);
    h.sim.run();
    return h.last_completion(c);
  };
  const double base = run("rotor:0.1s");
  EXPECT_EQ(bits(run("rotor:0.1s")), bits(base));  // reproducible
  EXPECT_NE(bits(run("rotor:200ms")), bits(base));
}

TEST(RotorFabric, ServesEveryPairEventually) {
  FabricHarness h("rotor:50ms");
  Coflow& c = h.coflow(0);
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s != d) h.demand(c, s, d, 0.625);
    }
  }
  h.go(c);
  h.sim.run();
  EXPECT_GT(h.last_completion(c), 0.0);
  EXPECT_EQ(h.fabric->pending_flows(), 0u);
  EXPECT_EQ(h.fabric->active_transfers(), 0u);
  EXPECT_EQ(h.fabric->bytes_in_flight().in_bytes(), 0);
}

// ---- mesh ------------------------------------------------------------------

TEST(MeshFabric, DisjointPairsRunConcurrently) {
  FabricHarness h("mesh");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);
  h.demand(c, 2, 3, 1.25);
  h.go(c);
  h.sim.run();
  // Full mesh: no reconfiguration, both pairs at full link rate.
  EXPECT_NEAR(h.last_completion(c), 0.1, 1e-9);
}

TEST(MeshFabric, SamePairServesFifo) {
  FabricHarness h("mesh");
  Coflow& first = h.coflow(0);
  h.demand(first, 0, 1, 1.25);
  Coflow& second = h.coflow(1);
  h.demand(second, 0, 1, 1.25);
  h.go(first);
  h.go(second);
  h.sim.run();
  EXPECT_NEAR(h.last_completion(first), 0.1, 1e-9);
  EXPECT_NEAR(h.last_completion(second), 0.2, 1e-9);
  EXPECT_EQ(h.fabric->self_check(), "");
}

TEST(MeshFabric, EvictAllReturnsEverything) {
  FabricHarness h("mesh");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 12.5);
  h.demand(c, 2, 3, 12.5);
  // A second coflow on the same (0,1) pair queues behind the first.
  Coflow& c2 = h.coflow(1);
  h.demand(c2, 0, 1, 12.5);
  h.go(c);
  h.go(c2);
  h.sim.run_until(SimTime::seconds(0.1));
  const std::vector<Flow*> evicted = h.fabric->evict_all();
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(h.fabric->pending_flows(), 0u);
  EXPECT_EQ(h.fabric->active_transfers(), 0u);
  EXPECT_EQ(h.fabric->self_check(), "");
}

// ---- plane= outage grammar -------------------------------------------------

TEST(FabricFaults, PlaneClauseParsesAndRoundTrips) {
  std::string error;
  const std::optional<FaultPlan> plan =
      FaultPlan::parse("ocs-outage:at=10s:dur=5s:plane=2", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->ocs_outages.size(), 1u);
  EXPECT_EQ(plan->ocs_outages[0].plane, 2);
  EXPECT_NE(plan->to_spec().find(":plane=2"), std::string::npos);
  const std::optional<FaultPlan> reparsed =
      FaultPlan::parse(plan->to_spec(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->ocs_outages[0].plane, 2);
}

TEST(FabricFaults, PlaneDefaultsToWholeFabric) {
  std::string error;
  const std::optional<FaultPlan> plan =
      FaultPlan::parse("ocs-outage:at=10s:dur=5s", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->ocs_outages[0].plane, -1);
  EXPECT_EQ(plan->to_spec().find("plane"), std::string::npos);
}

TEST(FabricFaults, RejectsBadPlaneValues) {
  for (const char* s :
       {"ocs-outage:at=10s:dur=5s:plane=-1", "ocs-outage:at=10s:dur=5s:plane=1.5",
        "ocs-outage:at=10s:dur=5s:plane=abc", "ocs-outage:at=10s:dur=5s:plane=2s",
        "ocs-outage:at=10s:dur=5s:plane="}) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(s, &error).has_value()) << s;
  }
}

// ---- end-to-end driver runs ------------------------------------------------

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 12;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.workload.num_jobs = 15;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 60;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(50);
  cfg.repetitions = 1;
  cfg.base_seed = 17;
  cfg.sim.audit = true;
  return cfg;
}

void expect_run_bitwise_equal(const RunMetrics& a, const RunMetrics& b,
                              const std::string& where) {
  EXPECT_EQ(bits(a.makespan.sec()), bits(b.makespan.sec())) << where;
  EXPECT_EQ(a.ocs_bytes.in_bytes(), b.ocs_bytes.in_bytes()) << where;
  EXPECT_EQ(a.eps_bytes.in_bytes(), b.eps_bytes.in_bytes()) << where;
  EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes()) << where;
  EXPECT_EQ(a.events_executed, b.events_executed) << where;
  EXPECT_EQ(a.dispatch_waves, b.dispatch_waves) << where;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << where;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(bits(a.jobs[j].jct.sec()), bits(b.jobs[j].jct.sec()))
        << where << " job#" << j;
    EXPECT_EQ(bits(a.jobs[j].cct.sec()), bits(b.jobs[j].cct.sec()))
        << where << " job#" << j;
  }
}

TEST(FabricRuns, DefaultSpecIsBitIdenticalToExplicitOcs1) {
  ExperimentConfig def = small_config();  // fabric left at FabricSpec{}
  ExperimentConfig explicit_cfg = small_config();
  explicit_cfg.sim.fabric = spec_ok("ocs:1");
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  expect_run_bitwise_equal(run_once(def, factory, 0),
                           run_once(explicit_cfg, factory, 0), "ocs:1");
}

TEST(FabricRuns, EveryFabricCompletesUnderTheAuditor) {
  for (const char* spec : {"ocs:1", "ocs:4", "rotor:100ms", "mesh"}) {
    for (const char* sched : {"coscheduler", "fair"}) {
      ExperimentConfig cfg = small_config();
      cfg.sim.fabric = spec_ok(spec);
      const RunMetrics m = run_once(cfg, make_scheduler_factory(sched), 0);
      EXPECT_GT(m.makespan.sec(), 0.0) << spec << "/" << sched;
      EXPECT_EQ(m.jobs.size(), 15u) << spec << "/" << sched;
      for (const JobRecord& j : m.jobs) {
        EXPECT_GE(j.completion.sec(), j.arrival.sec())
            << spec << "/" << sched;
      }
    }
  }
}

TEST(FabricRuns, NonDefaultFabricsAreDeterministic) {
  for (const char* spec : {"ocs:4", "rotor:100ms", "mesh"}) {
    ExperimentConfig cfg = small_config();
    cfg.sim.fabric = spec_ok(spec);
    const SchedulerFactory factory = make_scheduler_factory("coscheduler");
    expect_run_bitwise_equal(run_once(cfg, factory, 0),
                             run_once(cfg, factory, 0), spec);
  }
}

TEST(FabricRuns, PlaneOutageOnKCoreCompletesUnderAudit) {
  ExperimentConfig cfg = small_config();
  cfg.sim.fabric = spec_ok("ocs:2");
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(
      "ocs-outage:at=30s:dur=60s:plane=1,ocs-outage:at=150s:dur=30s:plane=0",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  cfg.sim.faults = *plan;
  const RunMetrics m =
      run_once(cfg, make_scheduler_factory("coscheduler"), 0);
  EXPECT_EQ(m.jobs.size(), 15u);
  EXPECT_EQ(m.faults.ocs_outages, 2);
}

TEST(FabricRuns, OutOfRangePlaneDegradesToWholeFabricOutage) {
  // plane=7 on ocs:2 (and any plane= on rotor/mesh) has no such plane; the
  // driver degrades it to a whole-fabric outage instead of crashing, so
  // fault plans compose with every --fabric choice.
  for (const char* spec : {"ocs:2", "rotor:100ms", "mesh"}) {
    ExperimentConfig cfg = small_config();
    cfg.sim.fabric = spec_ok(spec);
    std::string error;
    const std::optional<FaultPlan> plan =
        FaultPlan::parse("ocs-outage:at=30s:dur=60s:plane=7", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    cfg.sim.faults = *plan;
    const RunMetrics m =
        run_once(cfg, make_scheduler_factory("coscheduler"), 0);
    EXPECT_EQ(m.jobs.size(), 15u) << spec;
    EXPECT_EQ(m.faults.ocs_outages, 1) << spec;
  }
}

TEST(FabricRuns, WholeFabricOutageCompletesOnEveryFabric) {
  for (const char* spec : {"ocs:4", "rotor:100ms"}) {
    ExperimentConfig cfg = small_config();
    cfg.sim.fabric = spec_ok(spec);
    std::string error;
    const std::optional<FaultPlan> plan =
        FaultPlan::parse("ocs-outage:at=30s:dur=60s", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    cfg.sim.faults = *plan;
    const RunMetrics m =
        run_once(cfg, make_scheduler_factory("coscheduler"), 0);
    EXPECT_EQ(m.jobs.size(), 15u) << spec;
    EXPECT_EQ(m.faults.ocs_outages, 1) << spec;
  }
}

}  // namespace
}  // namespace cosched
