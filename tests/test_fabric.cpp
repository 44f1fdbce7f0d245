// The fabric layer (ctest -L fabric, docs/FABRICS.md): the --fabric spec
// grammar, direct unit tests of each fabric's timing model (K-core plane
// parallelism, rotor slot arithmetic, mesh FIFO service), the plane=
// outage grammar, and driver-level end-to-end runs — every fabric completes
// the paper workload under the invariant auditor, the default ocs:1 spec is
// bit-identical to an explicitly parsed one, and each fabric is
// deterministic under rerun.
#include <gtest/gtest.h>

#include <algorithm>
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

HybridTopology topo(int racks) {
  HybridTopology t;
  t.num_racks = racks;
  t.ocs_link = Bandwidth::gbps(100);
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  return t;
}

struct FabricHarness {
  Simulator sim;
  std::unique_ptr<Fabric> fabric;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Coflow>> coflows;

  explicit FabricHarness(const std::string& spec, int racks = 4)
      : fabric(make_fabric(sim, topo(racks), spec_ok(spec))) {}

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
  const auto& ocs = static_cast<const OcsFabric&>(*h.fabric);
  EXPECT_FALSE(ocs.plane_available(0));
  EXPECT_TRUE(ocs.plane_available(1));
  // Queued demand re-allocates onto the surviving plane (pending demand
  // stays with the fabric; the evicted in-flight remainder is the driver's
  // to reroute). Healing the plane later must be accepted.
  h.fabric->end_plane_outage(0);
  EXPECT_TRUE(ocs.plane_available(0));
  EXPECT_EQ(h.fabric->self_check(), "");
}

TEST(OcsFabric, CircuitComesUpAfterReconfigDelay) {
  FabricHarness h("ocs:1");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);
  h.go(c);
  const Flow& f = *c.flows()[0];
  // Mid-delay the circuit holds its ports but carries nothing yet.
  h.sim.run_until(SimTime::seconds(0.005));
  EXPECT_EQ(h.fabric->active_transfers(), 1u);
  EXPECT_EQ(h.fabric->active_circuits(), 0);
  EXPECT_FALSE(f.started());
  EXPECT_EQ(h.fabric->self_check(), "");
  h.sim.run_until(SimTime::seconds(0.05));
  EXPECT_EQ(h.fabric->active_circuits(), 1);
  EXPECT_TRUE(f.started());
  EXPECT_NEAR(f.start_time().sec(), 0.01, 1e-12);
  EXPECT_EQ(h.fabric->self_check(), "");
  h.sim.run();
  EXPECT_EQ(h.fabric->active_circuits(), 0);
  EXPECT_EQ(h.fabric->active_transfers(), 0u);
}

TEST(OcsFabric, BusyPortWaitsForTeardown) {
  // 0->1 and 0->2 share output port 0; the later 3->1 shares input port 1
  // with the first. A busy port's contender waits, and the port frees the
  // instant its transfer drains: the waiter comes up delta later.
  FabricHarness h("ocs:1");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);
  h.demand(c, 0, 2, 2.5);
  h.go(c);
  Coflow& late = h.coflow(1);
  h.demand(late, 3, 1, 1.25);
  h.sim.schedule_at(SimTime::seconds(0.05), [&] {
    EXPECT_EQ(h.fabric->active_transfers(), 1u);
    EXPECT_EQ(h.fabric->pending_flows(), 1u);
    h.go(late);
  });
  h.sim.run();
  // The matching takes 0->1 first (edge order), so 0->2 waits for it, and
  // so does 3->1.
  EXPECT_NEAR(c.flows()[0]->completion_time().sec(), 0.11, 1e-9);
  EXPECT_NEAR(c.flows()[1]->completion_time().sec(), 0.11 + 0.21, 1e-9);
  EXPECT_NEAR(late.flows()[0]->completion_time().sec(), 0.11 + 0.11, 1e-9);
  EXPECT_EQ(h.fabric->self_check(), "");
}

TEST(OcsFabric, SetupStallsOnlyItsOwnPorts) {
  // Not-all-stop: a circuit set up mid-transfer on other ports neither
  // delays nor interrupts the running one.
  FabricHarness h("ocs:1");
  Coflow& a = h.coflow(0);
  h.demand(a, 0, 1, 12.5);  // 1 s
  h.go(a);
  Coflow& b = h.coflow(1);
  h.demand(b, 2, 3, 1.25);
  h.sim.schedule_at(SimTime::seconds(0.5), [&] { h.go(b); });
  h.sim.schedule_at(SimTime::seconds(0.505), [&] {
    EXPECT_EQ(h.fabric->active_transfers(), 2u);
    EXPECT_EQ(h.fabric->active_circuits(), 1);  // a up, b reconfiguring
    EXPECT_EQ(h.fabric->self_check(), "");
  });
  h.sim.run();
  EXPECT_NEAR(b.flows()[0]->start_time().sec(), 0.51, 1e-12);
  EXPECT_NEAR(b.flows()[0]->completion_time().sec(), 0.61, 1e-9);
  EXPECT_NEAR(a.flows()[0]->completion_time().sec(), 1.01, 1e-9);
}

TEST(OcsFabric, RejectsIntraRackFlow) {
  FabricHarness h("ocs:1");
  Coflow& c = h.coflow(0);
  h.demand(c, 1, 1, 1.25);
  EXPECT_THROW(h.go(c), CheckFailure);
}

TEST(OcsFabric, SelfCheckRecountsPortsOnEveryPlane) {
  // Three coflows contend for 0->1 and one rides 2->3: on ocs:2 the two
  // shortest 0->1 transfers take one plane each and the third waits. The
  // recount holds at every stage, mid-reconfiguration included.
  FabricHarness h("ocs:2");
  for (std::int64_t i = 0; i < 3; ++i) {
    Coflow& c = h.coflow(i);
    h.demand(c, 0, 1, 1.25 * static_cast<double>(i + 1));
    h.go(c);
  }
  Coflow& other = h.coflow(3);
  h.demand(other, 2, 3, 12.5);
  h.go(other);
  std::vector<std::string> reports;
  for (double t : {0.005, 0.05, 0.115, 0.13, 0.4}) {
    h.sim.schedule_at(SimTime::seconds(t),
                      [&] { reports.push_back(h.fabric->self_check()); });
  }
  h.sim.schedule_at(SimTime::seconds(0.05), [&] {
    EXPECT_EQ(h.fabric->active_circuits(), 3);
    EXPECT_EQ(h.fabric->pending_flows(), 1u);
  });
  h.sim.run();
  EXPECT_EQ(reports, std::vector<std::string>(5));
  EXPECT_NEAR(h.last_completion(*h.coflows[0]), 0.11, 1e-9);
  EXPECT_NEAR(h.last_completion(*h.coflows[1]), 0.21, 1e-9);
  // The third waits for the first plane to free at 0.11.
  EXPECT_NEAR(h.last_completion(*h.coflows[2]), 0.11 + 0.31, 1e-9);
  EXPECT_NEAR(h.last_completion(other), 1.01, 1e-9);
  EXPECT_EQ(h.fabric->self_check(), "");
}

// A transfer evicted while its circuit is still reconfiguring must never
// start: its setup event fires into a fabric that no longer holds it. The
// ports it held are free at once, and a new flow on them pays its own full
// delta. ocs:1 evicts with evict_all (a whole-fabric outage); ocs:2 fails
// the transfer's plane and heals it before the next submit, so the new
// flow reconfigures on the very plane and ports whose stale setup event
// is still queued.
TEST(OcsFabric, EvictionDuringReconfigurationStartsNoTransfer) {
  for (const std::string spec : {"ocs:1", "ocs:2"}) {
    SCOPED_TRACE(spec);
    FabricHarness h(spec);
    std::vector<FlowId> completed;
    h.fabric->set_on_flow_complete(
        [&](Flow& f) { completed.push_back(f.id()); });
    Coflow& a = h.coflow(0);
    h.demand(a, 0, 1, 1.25);
    h.go(a);
    Flow& evicted_flow = *a.flows()[0];
    h.sim.schedule_at(SimTime::seconds(0.005), [&] {
      ASSERT_EQ(h.fabric->active_transfers(), 1u);
      const std::vector<Flow*> evicted =
          spec == "ocs:1" ? h.fabric->evict_all()
                          : h.fabric->begin_plane_outage(0);
      EXPECT_EQ(evicted, std::vector<Flow*>{&evicted_flow});
      EXPECT_EQ(h.fabric->active_transfers(), 0u);
      EXPECT_EQ(h.fabric->self_check(), "");
      if (spec == "ocs:2") h.fabric->end_plane_outage(0);
    });
    Coflow& b = h.coflow(1);
    h.demand(b, 0, 1, 1.25);
    h.sim.schedule_at(SimTime::seconds(0.006), [&] { h.go(b); });
    // Past the evicted flow's stale setup instant (0.01), before b's.
    h.sim.schedule_at(SimTime::seconds(0.012), [&] {
      EXPECT_FALSE(evicted_flow.started());
      EXPECT_EQ(h.fabric->active_transfers(), 1u);
      EXPECT_EQ(h.fabric->active_circuits(), 0);
      EXPECT_EQ(h.fabric->self_check(), "");
    });
    h.sim.run();

    const Flow& fresh = *b.flows()[0];
    EXPECT_NEAR(fresh.start_time().sec(), 0.006 + 0.01, 1e-12);
    EXPECT_NEAR(fresh.completion_time().sec(), 0.016 + 0.1, 1e-9);
    EXPECT_FALSE(evicted_flow.started());
    EXPECT_FALSE(evicted_flow.completed());
    EXPECT_EQ(completed, std::vector<FlowId>{fresh.id()});
    EXPECT_EQ(h.fabric->self_check(), "");
  }
}

TEST(OcsFabric, PortsAreExclusiveWithinAPlane) {
  // 0->1 holds out-port 0 and in-port 1, so 0->2 and 3->1 both wait for it
  // even though neither conflicts with the other; once it drains, the two
  // come up together.
  FabricHarness h("ocs:1");
  Coflow& first = h.coflow(0);
  h.demand(first, 0, 1, 0.625);  // 0.05 s
  h.go(first);
  Coflow& rest = h.coflow(1);
  h.demand(rest, 0, 2, 1.25);
  h.demand(rest, 3, 1, 1.25);
  h.go(rest);
  h.sim.schedule_at(SimTime::seconds(0.03), [&] {
    EXPECT_EQ(h.fabric->active_transfers(), 1u);
    EXPECT_EQ(h.fabric->pending_flows(), 2u);
    EXPECT_EQ(h.fabric->self_check(), "");
  });
  h.sim.schedule_at(SimTime::seconds(0.1), [&] {
    EXPECT_EQ(h.fabric->active_transfers(), 2u);
    EXPECT_EQ(h.fabric->pending_flows(), 0u);
    EXPECT_EQ(h.fabric->active_circuits(), 2);
    EXPECT_EQ(h.fabric->self_check(), "");
  });
  h.sim.run();
  EXPECT_NEAR(h.last_completion(first), 0.06, 1e-9);
  EXPECT_NEAR(rest.flows()[0]->start_time().sec(), 0.07, 1e-12);
  EXPECT_NEAR(rest.flows()[1]->start_time().sec(), 0.07, 1e-12);
  EXPECT_NEAR(h.last_completion(rest), 0.17, 1e-9);
}

TEST(OcsFabric, CircuitHoldsOnlyItsOwnTwoPorts) {
  // A 0->3 circuit joins out-port 0 to in-port 3 and nothing else: of three
  // flows submitted while it runs, 1->0 comes up delta later, while 0->2
  // (out-port 0) and 2->3 (in-port 3) wait for it to drain.
  FabricHarness h("ocs:1");
  Coflow& a = h.coflow(0);
  h.demand(a, 0, 3, 12.5);  // 1 s
  h.go(a);
  Coflow& b = h.coflow(1);
  h.demand(b, 1, 0, 1.25);
  h.demand(b, 0, 2, 1.25);
  h.demand(b, 2, 3, 1.25);
  h.sim.schedule_at(SimTime::seconds(0.5), [&] { h.go(b); });
  h.sim.schedule_at(SimTime::seconds(0.55), [&] {
    EXPECT_EQ(h.fabric->active_circuits(), 2);
    EXPECT_EQ(h.fabric->pending_flows(), 2u);
    EXPECT_EQ(h.fabric->self_check(), "");
  });
  h.sim.run();
  EXPECT_NEAR(h.last_completion(a), 1.01, 1e-9);
  EXPECT_NEAR(b.flows()[0]->start_time().sec(), 0.51, 1e-12);
  EXPECT_NEAR(b.flows()[0]->completion_time().sec(), 0.61, 1e-9);
  EXPECT_NEAR(b.flows()[1]->start_time().sec(), 1.02, 1e-12);
  EXPECT_NEAR(b.flows()[2]->start_time().sec(), 1.02, 1e-12);
  EXPECT_NEAR(h.last_completion(b), 1.12, 1e-9);
  EXPECT_EQ(h.fabric->self_check(), "");
}

TEST(OcsFabric, PortsFreedByEvictionDuringReconfigurationServeNewPeers) {
  // 0->1 is evicted mid-reconfiguration. Its out-port serves 0->2 and its
  // in-port serves 3->1 at once, each delta after its own submit, and the
  // stale setup event for 0->1 at 0.01 disturbs neither.
  FabricHarness h("ocs:1");
  Coflow& a = h.coflow(0);
  h.demand(a, 0, 1, 1.25);
  h.go(a);
  Flow& evicted_flow = *a.flows()[0];
  Coflow& b = h.coflow(1);
  h.demand(b, 0, 2, 1.25);
  Coflow& c = h.coflow(2);
  h.demand(c, 3, 1, 1.25);
  h.sim.schedule_at(SimTime::seconds(0.002), [&] {
    EXPECT_EQ(h.fabric->evict_all(), std::vector<Flow*>{&evicted_flow});
    h.go(b);
  });
  h.sim.schedule_at(SimTime::seconds(0.003), [&] { h.go(c); });
  h.sim.schedule_at(SimTime::seconds(0.011), [&] {
    EXPECT_FALSE(evicted_flow.started());
    EXPECT_EQ(h.fabric->active_transfers(), 2u);
    EXPECT_EQ(h.fabric->active_circuits(), 0);
    EXPECT_EQ(h.fabric->self_check(), "");
  });
  h.sim.run();
  EXPECT_NEAR(b.flows()[0]->start_time().sec(), 0.012, 1e-12);
  EXPECT_NEAR(c.flows()[0]->start_time().sec(), 0.013, 1e-12);
  EXPECT_NEAR(h.last_completion(b), 0.112, 1e-9);
  EXPECT_NEAR(h.last_completion(c), 0.113, 1e-9);
  EXPECT_FALSE(evicted_flow.started());
  EXPECT_FALSE(evicted_flow.completed());
  EXPECT_EQ(h.fabric->self_check(), "");
}

TEST(OcsFabric, LoadedSunflowKeepsShortestCoflowFirstUnderRivals) {
  // Rack 0's output port is wanted by three rival coflows: H (one short
  // flow 0->1), M (K medium flows) and L (K long flows), submitted in
  // reverse priority order. Z's K one-second flows into rack 1 hold rack
  // 1's input port on every plane until 1.01 s, so H waits for it — and
  // H's unmet demand reserves rack 0's output port on every plane
  // meanwhile. Shortest-coflow-first then starts H the instant Z drains,
  // M before L, and no rival takes rack 0 while H waits.
  for (const int k : {1, 4}) {
    SCOPED_TRACE("ocs:" + std::to_string(k));
    FabricHarness h("ocs:" + std::to_string(k), 3 * k + 2);
    Coflow& z = h.coflow(0);
    for (int i = 0; i < k; ++i) h.demand(z, 2 + i, 1, 12.5);  // 1 s each
    h.go(z);
    Coflow& hc = h.coflow(1);
    h.demand(hc, 0, 1, 1.25);  // 0.1 s
    Coflow& m = h.coflow(2);
    for (int i = 0; i < k; ++i) h.demand(m, 0, k + 2 + i, 2.5);  // 0.2 s
    Coflow& l = h.coflow(3);
    for (int i = 0; i < k; ++i) h.demand(l, 0, 2 * k + 2 + i, 5.0);  // 0.4 s
    h.sim.schedule_at(SimTime::seconds(0.5), [&] {
      h.go(l);
      h.go(m);
      h.go(hc);
    });
    h.sim.run();
    EXPECT_NEAR(h.last_completion(z), 1.01, 1e-9);
    EXPECT_NEAR(hc.flows()[0]->start_time().sec(), 1.02, 1e-9);
    EXPECT_NEAR(h.last_completion(hc), 1.12, 1e-9);
    double m_last_start = 0.0;
    double rivals_first_start = 1e9;
    for (const auto& f : m.flows()) {
      m_last_start = std::max(m_last_start, f->start_time().sec());
      rivals_first_start = std::min(rivals_first_start, f->start_time().sec());
    }
    double l_first_start = 1e9;
    for (const auto& f : l.flows()) {
      l_first_start = std::min(l_first_start, f->start_time().sec());
    }
    rivals_first_start = std::min(rivals_first_start, l_first_start);
    EXPECT_GE(rivals_first_start, 1.02 - 1e-9);
    EXPECT_LT(m_last_start, l_first_start);
    EXPECT_EQ(h.fabric->self_check(), "");
  }
}

// ---- shared Fabric behaviour ----------------------------------------------

TEST(Fabric, AdmitsByElephantThreshold) {
  FabricHarness h("ocs:1");
  const Flow mouse(FlowId{0}, CoflowId{0}, JobId{0}, RackId{0}, RackId{1},
                   DataSize::gigabytes(1.0));
  const Flow elephant(FlowId{1}, CoflowId{0}, JobId{0}, RackId{0},
                      RackId{1}, DataSize::gigabytes(1.125));
  EXPECT_FALSE(h.fabric->admits(mouse));
  EXPECT_TRUE(h.fabric->admits(elephant));
}

TEST(Fabric, CreditsAccumulateIntoBytesTransferred) {
  FabricHarness h("ocs:1");
  h.fabric->credit_bytes(DataSize::gigabytes(2));
  h.fabric->credit_bytes(DataSize::gigabytes(3));
  EXPECT_NEAR(h.fabric->bytes_transferred().in_gigabytes(), 5.0, 1e-9);
  h.fabric->credit_drained_bits(8e9);  // 1 GB, partially drained
  EXPECT_NEAR(h.fabric->bytes_transferred().in_gigabytes(), 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.fabric->bits_transferred(), 48e9);
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
