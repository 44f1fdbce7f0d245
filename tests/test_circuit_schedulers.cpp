// Tests for the alternative circuit schedulers: FIFO (coflow-oblivious)
// and BvN/TMS (optimal per-coflow clearance, strict one-at-a-time), and a
// three-way behavioral comparison against Sunflow.
#include <gtest/gtest.h>

#include <memory>

#include "coflow/bvn_circuit.h"
#include "coflow/fifo_circuit.h"
#include "coflow/sunflow.h"
#include "common/rng.h"
#include "fabric/ocs_fabric.h"

namespace cosched {
namespace {

HybridTopology topo6() {
  HybridTopology t;
  t.num_racks = 6;
  t.ocs_link = Bandwidth::gbps(100);
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  return t;
}

struct Harness {
  Simulator sim;
  Network net;
  std::unique_ptr<CircuitScheduler> sched;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Coflow>> coflows;

  explicit Harness(const char* kind)
      : net(sim, topo6(), std::make_unique<OcsFabric>(sim, topo6(), 1)) {
    if (std::string(kind) == "fifo") {
      sched = std::make_unique<FifoCircuitScheduler>(sim, net,
                                                     *net.fabric().plane(0));
    } else if (std::string(kind) == "bvn") {
      sched = std::make_unique<BvnCircuitScheduler>(sim, net,
                                                    *net.fabric().plane(0));
    } else {
      sched = std::make_unique<SunflowScheduler>(sim, net.fabric());
    }
  }

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
      sched->submit(c, *f);
    }
  }

  double cct(const Coflow& c) {
    double last = 0;
    for (const auto& f : c.flows()) {
      EXPECT_TRUE(f->completed());
      last = std::max(last, f->completion_time().sec());
    }
    return last - c.release_time().sec();
  }
};

// ----------------------------------------------------------------- FIFO ---

TEST(FifoCircuit, SingleFlowMatchesSunflowTiming) {
  Harness h("fifo");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);
  h.go(c);
  h.sim.run();
  EXPECT_NEAR(h.cct(c), 0.11, 1e-9);
}

TEST(FifoCircuit, ServesInSubmissionOrderOnContendedPorts) {
  Harness h("fifo");
  Coflow& big = h.coflow(0);
  h.demand(big, 0, 1, 12.5);  // 1 s
  Coflow& small = h.coflow(1);
  h.demand(small, 0, 1, 1.25);  // 0.1 s — Sunflow would run this first
  h.go(big);
  h.go(small);
  h.sim.run();
  EXPECT_NEAR(h.cct(big), 1.01, 1e-9);
  EXPECT_NEAR(h.cct(small), 1.01 + 0.11, 1e-9);
}

TEST(FifoCircuit, AllFlowsComplete) {
  Harness h("fifo");
  Rng rng(3);
  for (int k = 0; k < 8; ++k) {
    Coflow& c = h.coflow(k);
    for (int e = 0; e < 3; ++e) {
      const int s = static_cast<int>(rng.uniform_int(0, 5));
      int d = static_cast<int>(rng.uniform_int(0, 5));
      if (d == s) d = (d + 1) % 6;
      h.demand(c, s, d, 1.25 * static_cast<double>(rng.uniform_int(1, 3)));
    }
    h.go(c);
  }
  h.sim.run();
  EXPECT_EQ(h.sched->pending_flows(), 0u);
  for (const auto& c : h.coflows) EXPECT_TRUE(c->all_flows_complete());
}

// ------------------------------------------------------------------ BvN ---

TEST(BvnCircuit, SingleFlowPaysOneSlot) {
  Harness h("bvn");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 1.25);
  h.go(c);
  h.sim.run();
  EXPECT_NEAR(h.cct(c), 0.11, 1e-9);
}

TEST(BvnCircuit, AllToAllMeetsBandwidthBoundWithSlotOverhead) {
  Harness h("bvn");
  Coflow& c = h.coflow(0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) h.demand(c, i, j, 1.25);
    }
  }
  h.go(c);
  h.sim.run();
  // Two rotations of 3 circuits: 2 slots x (0.01 + 0.1) = 0.22.
  EXPECT_NEAR(h.cct(c), 0.22, 1e-9);
}

TEST(BvnCircuit, SkewedMatrixBeatsNaiveSerialization) {
  Harness h("bvn");
  Coflow& c = h.coflow(0);
  h.demand(c, 0, 1, 12.5);
  h.demand(c, 2, 3, 12.5);
  h.demand(c, 4, 5, 12.5);
  h.go(c);
  h.sim.run();
  // One slot, 3 parallel circuits: 1.01 s (serialized would be 3.03).
  EXPECT_NEAR(h.cct(c), 1.01, 1e-9);
}

TEST(BvnCircuit, CoflowsRunStrictlyOneAtATime) {
  Harness h("bvn");
  Coflow& first = h.coflow(0);
  h.demand(first, 0, 1, 1.25);
  Coflow& second = h.coflow(1);
  h.demand(second, 2, 3, 1.25);  // disjoint ports, but must still wait
  h.go(first);
  h.go(second);
  h.sim.run();
  EXPECT_NEAR(h.cct(first), 0.11, 1e-9);
  EXPECT_NEAR(h.cct(second), 0.22, 1e-9);  // no work conservation
}

TEST(BvnCircuit, ShortestBoundFirst) {
  Harness h("bvn");
  Coflow& big = h.coflow(0);
  h.demand(big, 0, 1, 12.5);
  Coflow& small = h.coflow(1);
  h.demand(small, 0, 1, 1.25);
  h.go(big);
  h.go(small);
  h.sim.run();
  EXPECT_NEAR(h.cct(small), 0.11, 1e-9);
  EXPECT_NEAR(h.cct(big), 0.11 + 1.01, 1e-9);
}

TEST(BvnCircuit, ManyRandomCoflowsDrainCompletely) {
  Harness h("bvn");
  Rng rng(9);
  for (int k = 0; k < 10; ++k) {
    Coflow& c = h.coflow(k);
    for (int e = 0; e < 4; ++e) {
      const int s = static_cast<int>(rng.uniform_int(0, 5));
      int d = static_cast<int>(rng.uniform_int(0, 5));
      if (d == s) d = (d + 1) % 6;
      h.demand(c, s, d, 1.25 * static_cast<double>(rng.uniform_int(1, 4)));
    }
    h.go(c);
  }
  h.sim.run();
  EXPECT_EQ(h.sched->pending_flows(), 0u);
  for (const auto& c : h.coflows) EXPECT_TRUE(c->all_flows_complete());
}

// ---------------------------------------------------------- comparison ----

TEST(CircuitSchedulers, SunflowBeatsFifoOnAverageCct) {
  // One long coflow submitted first, many short ones after: FIFO lets the
  // long flow block, Sunflow reorders.
  double sunflow_avg = 0, fifo_avg = 0;
  for (const char* kind : {"sunflow", "fifo"}) {
    Harness h(kind);
    std::vector<Coflow*> cs;
    Coflow& big = h.coflow(0);
    h.demand(big, 0, 1, 125.0);  // 10 s
    cs.push_back(&big);
    h.go(big);
    for (int k = 1; k <= 5; ++k) {
      Coflow& c = h.coflow(k);
      h.demand(c, 0, 1, 1.25);
      cs.push_back(&c);
      h.go(c);
    }
    h.sim.run();
    double avg = 0;
    for (Coflow* c : cs) avg += h.cct(*c);
    avg /= static_cast<double>(cs.size());
    if (std::string(kind) == "sunflow") {
      sunflow_avg = avg;
    } else {
      fifo_avg = avg;
    }
  }
  EXPECT_LT(sunflow_avg, fifo_avg);
}

}  // namespace
}  // namespace cosched
