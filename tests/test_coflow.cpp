// Unit tests for the coflow module: traffic matrix, CCT lower bound,
// Hopcroft–Karp matching, BvN/Inukai clearance, and Sunflow as the ocs:1
// fabric schedules it.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "bvn_clearance.h"
#include "coflow/cct_bound.h"
#include "coflow/coflow.h"
#include "coflow/matching.h"
#include "coflow/traffic_matrix.h"
#include "common/rng.h"
#include "fabric/ocs_fabric.h"

namespace cosched {
namespace {

// -------------------------------------------------------------- matrix ----

TEST(TrafficMatrix, AccumulatesAndSums) {
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(1));
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(2));
  m.add(RackId{0}, RackId{2}, DataSize::gigabytes(4));
  m.add(RackId{1}, RackId{2}, DataSize::gigabytes(8));
  EXPECT_EQ(m.num_entries(), 3u);
  EXPECT_NEAR(m.at(RackId{0}, RackId{1}).in_gigabytes(), 3.0, 1e-9);
  EXPECT_NEAR(m.total().in_gigabytes(), 15.0, 1e-9);
  const TrafficMatrix::PortLoads loads = m.port_loads();
  ASSERT_EQ(loads.sources.size(), 2u);
  EXPECT_EQ(loads.sources[0].rack, RackId{0});
  EXPECT_NEAR(loads.sources[0].sum.in_gigabytes(), 7.0, 1e-9);
  EXPECT_EQ(loads.sources[0].degree, 2u);
  ASSERT_EQ(loads.destinations.size(), 2u);
  EXPECT_EQ(loads.destinations[1].rack, RackId{2});
  EXPECT_NEAR(loads.destinations[1].sum.in_gigabytes(), 12.0, 1e-9);
  EXPECT_EQ(loads.destinations[1].degree, 2u);
}

TEST(TrafficMatrix, PortLoads) {
  EXPECT_TRUE(TrafficMatrix{}.port_loads().sources.empty());
  EXPECT_TRUE(TrafficMatrix{}.port_loads().destinations.empty());

  // Destinations arrive out of order across rows (100 before 3 in row 0, 3
  // again in row 5), and ids reach PSRT's abstract 1000000 + j range, so
  // they differ in three bytes.
  TrafficMatrix m;
  m.add(RackId{5}, RackId{3}, DataSize::bytes(7));
  m.add(RackId{0}, RackId{100}, DataSize::bytes(1));
  m.add(RackId{0}, RackId{3}, DataSize::bytes(2));
  m.add(RackId{0}, RackId{1000001}, DataSize::bytes(4));
  m.add(RackId{0}, RackId{3}, DataSize::bytes(8));  // accumulates into (0,3)
  m.add(RackId{2}, RackId{1000001}, DataSize::bytes(16));
  using PL = TrafficMatrix::PortLoad;
  const TrafficMatrix::PortLoads loads = m.port_loads();
  EXPECT_EQ(loads.sources,
            (std::vector<PL>{{RackId{0}, DataSize::bytes(15), 3},
                             {RackId{2}, DataSize::bytes(16), 1},
                             {RackId{5}, DataSize::bytes(7), 1}}));
  EXPECT_EQ(loads.destinations,
            (std::vector<PL>{{RackId{3}, DataSize::bytes(17), 2},
                             {RackId{100}, DataSize::bytes(1), 1},
                             {RackId{1000001}, DataSize::bytes(20), 2}}));
}

TEST(TrafficMatrix, ZeroDemandIsIgnored) {
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::zero());
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.at(RackId{0}, RackId{1}), DataSize::zero());
}

// --------------------------------------------------------------- bound ----

TEST(CctBound, SingleFlowIsTransferPlusDelta) {
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  const Duration b =
      cct_lower_bound(m, Bandwidth::gbps(100), Duration::milliseconds(10));
  EXPECT_NEAR(b.sec(), 0.1 + 0.01, 1e-12);
}

TEST(CctBound, EmptyMatrixIsZero) {
  EXPECT_EQ(cct_lower_bound(TrafficMatrix{}, Bandwidth::gbps(100),
                            Duration::milliseconds(10)),
            Duration::zero());
}

TEST(CctBound, DominatedByBusiestPort) {
  // Paper example shape (Figure 2 Case 1): maps 3/3/3 racks {0,1,2}, two
  // reduces on rack 0 and one on rack 1, one "unit" = 1 GB per map-reduce
  // pair, unit bandwidth 1 GB/s = 8 Gb/s. Rack 0 receives 12 units over 2
  // flows: bound = 12 + 2 delta.
  TrafficMatrix m;
  m.add(RackId{1}, RackId{0}, DataSize::gigabytes(6));
  m.add(RackId{2}, RackId{0}, DataSize::gigabytes(6));
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(3));
  m.add(RackId{2}, RackId{1}, DataSize::gigabytes(3));
  const Duration delta = Duration::milliseconds(10);
  const Duration b = cct_lower_bound(m, Bandwidth::gbps(8), delta);
  EXPECT_NEAR(b.sec(), 12.0 + 2 * delta.sec(), 1e-9);
}

TEST(CctBound, AllToAllEqualsPerPortWork) {
  // 3x3 all-to-all, off-diagonal 3 GB each: every port moves 6 GB in 2
  // flows. At 1 GB/s: 6 + 2 delta (Figure 2 Case 2, Job 1).
  TrafficMatrix m;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) m.add(RackId{i}, RackId{j}, DataSize::gigabytes(3));
    }
  }
  const Duration delta = Duration::milliseconds(10);
  const Duration b = cct_lower_bound(m, Bandwidth::gbps(8), delta);
  EXPECT_NEAR(b.sec(), 6.0 + 2 * delta.sec(), 1e-9);
}

TEST(OcsFlowTime, ZeroSizeZeroTime) {
  EXPECT_EQ(ocs_flow_time(DataSize::zero(), Bandwidth::gbps(100),
                          Duration::milliseconds(10)),
            Duration::zero());
}

// ------------------------------------------------------------- matching ---

TEST(Matching, PerfectOnCompleteBipartite) {
  BipartiteGraph g(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) g.add_edge(i, j);
  }
  const MatchingResult m = maximum_bipartite_matching(g);
  EXPECT_EQ(m.size, 4u);
  std::set<std::size_t> rights(m.match_left.begin(), m.match_left.end());
  EXPECT_EQ(rights.size(), 4u);
}

TEST(Matching, AugmentingPathIsFound) {
  // Greedy would match l0-r0 and strand l1; Hopcroft–Karp augments.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const MatchingResult m = maximum_bipartite_matching(g);
  EXPECT_EQ(m.size, 2u);
  EXPECT_EQ(m.match_left[0], 1u);
  EXPECT_EQ(m.match_left[1], 0u);
}

TEST(Matching, RespectsMissingEdges) {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  const MatchingResult m = maximum_bipartite_matching(g);
  EXPECT_EQ(m.size, 1u);
}

TEST(Matching, EmptyGraph) {
  BipartiteGraph g(3, 2);
  const MatchingResult m = maximum_bipartite_matching(g);
  EXPECT_EQ(m.size, 0u);
  for (auto r : m.match_left) EXPECT_EQ(r, MatchingResult::kUnmatched);
}

TEST(Matching, ConsistencyLeftRight) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nl = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const std::size_t nr = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    BipartiteGraph g(nl, nr);
    for (std::size_t i = 0; i < nl; ++i) {
      for (std::size_t j = 0; j < nr; ++j) {
        if (rng.bernoulli(0.4)) g.add_edge(i, j);
      }
    }
    const MatchingResult m = maximum_bipartite_matching(g);
    std::size_t count = 0;
    for (std::size_t l = 0; l < nl; ++l) {
      if (m.match_left[l] == MatchingResult::kUnmatched) continue;
      ++count;
      EXPECT_EQ(m.match_right[m.match_left[l]], l);
    }
    EXPECT_EQ(count, m.size);
  }
}

TEST(Matching, ReusedGraphMatchesAFreshGraph) {
  // One graph cleared and regrown across random graphs of every size: each
  // result equals the fresh graph's.
  Rng rng(405);
  BipartiteGraph reused(0, 0);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t nl = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const std::size_t nr = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    BipartiteGraph fresh(nl, nr);
    reused.clear();
    for (std::size_t j = 0; j < nr; ++j) EXPECT_EQ(reused.add_right(), j);
    for (std::size_t i = 0; i < nl; ++i) {
      EXPECT_EQ(reused.add_left(), i);
      for (std::size_t j = 0; j < nr; ++j) {
        if (!rng.bernoulli(0.4)) continue;
        fresh.add_edge(i, j);
        reused.add_edge(i, j);
      }
    }
    const MatchingResult want = maximum_bipartite_matching(fresh);
    const MatchingResult got = maximum_bipartite_matching(reused);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.match_left, want.match_left);
    EXPECT_EQ(got.match_right, want.match_right);
  }
}

// -------------------------------------------------------------- BvN -------

void verify_clearance(const TrafficMatrix& matrix, Bandwidth bw) {
  const ClearanceSchedule sched = bvn_clearance(matrix, bw);

  // 1. Transfer time equals the bandwidth term of the lower bound.
  const Duration expected =
      max_over_ports(matrix, [&](const TrafficMatrix::PortLoad& p) {
        return transfer_time(p.sum, bw);
      });
  EXPECT_NEAR(sched.transfer_time().sec(), expected.sec(), 1e-9);

  // 2. Each slot is a valid circuit configuration (port-disjoint).
  for (const auto& slot : sched.slots) {
    std::set<RackId> outs, ins;
    for (const auto& [src, dst] : slot.circuits) {
      EXPECT_TRUE(outs.insert(src).second) << "output port reused in slot";
      EXPECT_TRUE(ins.insert(dst).second) << "input port reused in slot";
    }
  }

  // 3. Replaying the schedule drains every real entry exactly.
  std::map<std::pair<RackId, RackId>, double> left;
  for (const auto& [key, size] : matrix.entries()) {
    left[key] = static_cast<double>(size.in_bytes());
  }
  for (const auto& slot : sched.slots) {
    const double slot_bytes =
        slot.duration.sec() * bw.in_bits_per_sec() / 8.0;
    for (const auto& pair : slot.circuits) {
      auto it = left.find(pair);
      ASSERT_NE(it, left.end()) << "slot lists a circuit with no demand";
      it->second -= slot_bytes;
    }
  }
  for (const auto& [key, remaining] : left) {
    EXPECT_LE(remaining, 1.0) << "entry not fully cleared";
  }
}

TEST(BvnClearance, EmptyMatrixYieldsEmptySchedule) {
  const ClearanceSchedule s = bvn_clearance(TrafficMatrix{},
                                            Bandwidth::gbps(100));
  EXPECT_TRUE(s.slots.empty());
  EXPECT_EQ(s.transfer_time(), Duration::zero());
}

TEST(BvnClearance, SingleEntry) {
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(2));
  verify_clearance(m, Bandwidth::gbps(100));
  const ClearanceSchedule s = bvn_clearance(m, Bandwidth::gbps(100));
  EXPECT_EQ(s.slots.size(), 1u);
  EXPECT_NEAR(s.total_time(Duration::milliseconds(10)).sec(), 0.16 + 0.01,
              1e-9);
}

TEST(BvnClearance, UniformAllToAllUsesRotations) {
  TrafficMatrix m;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) m.add(RackId{i}, RackId{j}, DataSize::gigabytes(1));
    }
  }
  verify_clearance(m, Bandwidth::gbps(8));
  const ClearanceSchedule s = bvn_clearance(m, Bandwidth::gbps(8));
  // Two rotations of three circuits each clear the matrix in 2 s.
  EXPECT_NEAR(s.transfer_time().sec(), 2.0, 1e-9);
}

TEST(BvnClearance, RectangularMatrixIsPadded) {
  // 3 sources, 1 destination.
  TrafficMatrix m;
  m.add(RackId{0}, RackId{9}, DataSize::gigabytes(1));
  m.add(RackId{1}, RackId{9}, DataSize::gigabytes(2));
  m.add(RackId{2}, RackId{9}, DataSize::gigabytes(3));
  verify_clearance(m, Bandwidth::gbps(8));
  const ClearanceSchedule s = bvn_clearance(m, Bandwidth::gbps(8));
  EXPECT_NEAR(s.transfer_time().sec(), 6.0, 1e-9);
}

TEST(BvnClearance, SkewedMatrixStillMeetsBound) {
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(10));
  m.add(RackId{0}, RackId{2}, DataSize::gigabytes(1));
  m.add(RackId{3}, RackId{1}, DataSize::gigabytes(1));
  verify_clearance(m, Bandwidth::gbps(8));
}

TEST(BvnClearance, RandomMatricesProperty) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    TrafficMatrix m;
    const int racks = 2 + static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < racks; ++i) {
      for (int j = 0; j < racks; ++j) {
        if (i != j && rng.bernoulli(0.5)) {
          m.add(RackId{i}, RackId{j},
                DataSize::megabytes(
                    static_cast<double>(rng.uniform_int(1, 4000))));
        }
      }
    }
    if (m.empty()) continue;
    verify_clearance(m, Bandwidth::gbps(100));
  }
}

// ------------------------------------------------------------- coflow -----

TEST(Coflow, AggregatesDemandPerRackPair) {
  IdAllocator<FlowId> ids;
  Coflow c(CoflowId{1}, JobId{7});
  auto [f1, change1] =
      c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(1));
  auto [f2, change2] =
      c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(2));
  EXPECT_EQ(change1, Coflow::DemandChange::kCreated);
  EXPECT_EQ(change2, Coflow::DemandChange::kGrew);
  EXPECT_EQ(f1, f2);
  EXPECT_NEAR(f1->size().in_gigabytes(), 3.0, 1e-9);
  EXPECT_EQ(c.flows().size(), 1u);
}

// Growth of a drained flow reopens it: the driver routes it again instead
// of handing the extra demand to the fabric that finished it.
TEST(Coflow, DemandOnADrainedFlowReopensIt) {
  IdAllocator<FlowId> ids;
  Coflow c(CoflowId{1}, JobId{7});
  auto [f, created] =
      c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(1));
  f->mark_completed(SimTime::seconds(1));
  auto [again, change] =
      c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(2));
  EXPECT_EQ(again, f);
  EXPECT_EQ(change, Coflow::DemandChange::kReopened);
  EXPECT_FALSE(f->completed());
  EXPECT_EQ(
      c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(1)).second,
      Coflow::DemandChange::kGrew);
}

TEST(Coflow, CrossRackMatrixExcludesLocalFlows) {
  IdAllocator<FlowId> ids;
  Coflow c(CoflowId{1}, JobId{7});
  c.add_demand(ids, RackId{0}, RackId{0}, DataSize::gigabytes(5));
  c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(2));
  const TrafficMatrix m = c.cross_rack_matrix();
  EXPECT_EQ(m.num_entries(), 1u);
  EXPECT_NEAR(m.total().in_gigabytes(), 2.0, 1e-9);
  EXPECT_NEAR(c.total_demand().in_gigabytes(), 7.0, 1e-9);
}

TEST(Coflow, CctIsReleaseToCompletion) {
  Coflow c(CoflowId{1}, JobId{7});
  c.mark_released(SimTime::seconds(10));
  c.mark_released(SimTime::seconds(20));  // second release ignored
  c.mark_completed(SimTime::seconds(25));
  EXPECT_NEAR(c.cct().sec(), 15.0, 1e-12);
}

TEST(Coflow, AllFlowsCompleteTracksFlows) {
  IdAllocator<FlowId> ids;
  Coflow c(CoflowId{1}, JobId{7});
  auto [f, created] =
      c.add_demand(ids, RackId{0}, RackId{1}, DataSize::gigabytes(1));
  EXPECT_FALSE(c.all_flows_complete());
  f->mark_completed(SimTime::seconds(1));
  EXPECT_TRUE(c.all_flows_complete());
}

// ------------------------------------------------------------ sunflow -----

// Drives an ocs:1 fabric the way the driver does: flows go in through
// Fabric::submit, completions come out through set_on_flow_complete.
struct SunflowFixture {
  HybridTopology topo;
  Simulator sim;
  OcsFabric fabric;
  IdAllocator<FlowId> flow_ids;
  std::vector<std::unique_ptr<Coflow>> coflows;
  std::vector<const Flow*> submitted;
  std::vector<FlowId> completed;

  explicit SunflowFixture(HybridTopology t = make_topo())
      : topo(t), fabric(sim, topo, 1) {
    fabric.set_on_flow_complete(
        [this](Flow& f) { completed.push_back(f.id()); });
  }

  // Every scenario runs its simulation to the end, so the fabric must be
  // drained and its byte ledger closed: each submitted flow reported
  // complete once, each submitted byte credited exactly once (grown demand
  // included), no settled bit left uncredited.
  ~SunflowFixture() {
    EXPECT_EQ(completed.size(), submitted.size());
    EXPECT_EQ(fabric.self_check(), "");
    EXPECT_EQ(fabric.pending_flows(), 0u);
    EXPECT_EQ(fabric.active_transfers(), 0u);
    EXPECT_EQ(fabric.bytes_in_flight().in_bytes(), 0);
    EXPECT_EQ(fabric.uncredited_settled_bits(), 0.0);
    double submitted_bits = 0.0;
    for (const Flow* f : submitted) {
      submitted_bits += 8.0 * static_cast<double>(f->size().in_bytes());
    }
    EXPECT_DOUBLE_EQ(fabric.bits_transferred(), submitted_bits);
  }

  static HybridTopology make_topo() {
    HybridTopology t;
    t.num_racks = 6;
    t.ocs_link = Bandwidth::gbps(100);
    t.ocs_reconfig_delay = Duration::milliseconds(10);
    return t;
  }

  Coflow& make_coflow(JobId job) {
    coflows.push_back(
        std::make_unique<Coflow>(CoflowId{static_cast<std::int64_t>(
                                     coflows.size())},
                                 job));
    return *coflows.back();
  }

  Flow& demand(Coflow& c, int src, int dst, double gb) {
    auto [flow, created] = c.add_demand(flow_ids, RackId{src}, RackId{dst},
                                        DataSize::gigabytes(gb));
    return *flow;
  }

  void submit(Coflow& c, Flow& f) {
    f.set_path(FlowPath::kOcs);
    submitted.push_back(&f);
    fabric.submit(c, f);
  }

  void submit_all(Coflow& c) {
    for (const auto& f : c.flows()) submit(c, *f);
  }
};

TEST(Sunflow, SingleFlowPaysOneReconfiguration) {
  SunflowFixture fx;
  Coflow& c = fx.make_coflow(JobId{0});
  Flow& f = fx.demand(c, 0, 1, 1.25);  // 0.1 s at 100 Gb/s
  fx.submit_all(c);
  fx.sim.run();
  EXPECT_TRUE(f.completed());
  EXPECT_NEAR(f.completion_time().sec(), 0.01 + 0.1, 1e-9);
  EXPECT_NEAR(fx.fabric.bytes_transferred().in_gigabytes(), 1.25, 1e-9);
}

TEST(Sunflow, AllToAllFinishesAtLowerBound) {
  SunflowFixture fx;
  Coflow& c = fx.make_coflow(JobId{0});
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) fx.demand(c, i, j, 1.25);
    }
  }
  fx.submit_all(c);
  fx.sim.run();
  // Two rotations of 3 concurrent circuits: 2 * (0.01 + 0.1).
  double last = 0;
  for (const auto& f : c.flows()) {
    ASSERT_TRUE(f->completed());
    last = std::max(last, f->completion_time().sec());
  }
  EXPECT_NEAR(last, 0.22, 1e-9);
}

TEST(Sunflow, ShorterCoflowGoesFirstOnContendedPorts) {
  SunflowFixture fx;
  Coflow& big = fx.make_coflow(JobId{0});
  fx.demand(big, 0, 1, 12.5);  // bound: 1.0 s + delta
  Coflow& small = fx.make_coflow(JobId{1});
  fx.demand(small, 0, 1, 1.25);  // bound: 0.1 s + delta -> higher priority
  fx.submit_all(big);
  fx.submit_all(small);
  fx.sim.run();
  const Flow& fb = *big.flows()[0];
  const Flow& fs = *small.flows()[0];
  // small first: 0.01 + 0.1 = 0.11; big follows: +0.01 + 1.0.
  EXPECT_NEAR(fs.completion_time().sec(), 0.11, 1e-9);
  EXPECT_NEAR(fb.completion_time().sec(), 0.11 + 1.01, 1e-9);
}

TEST(Sunflow, NonPreemptiveOnceStarted) {
  SunflowFixture fx;
  Coflow& big = fx.make_coflow(JobId{0});
  fx.demand(big, 0, 1, 12.5);
  fx.submit_all(big);
  // Let the big transfer begin, then submit a shorter coflow.
  fx.sim.run_until(SimTime::seconds(0.05));
  Coflow& small = fx.make_coflow(JobId{1});
  fx.demand(small, 0, 1, 1.25);
  fx.submit_all(small);
  fx.sim.run();
  const Flow& fb = *big.flows()[0];
  const Flow& fs = *small.flows()[0];
  EXPECT_NEAR(fb.completion_time().sec(), 1.01, 1e-9);
  EXPECT_NEAR(fs.completion_time().sec(), 1.01 + 0.11, 1e-9);
}

TEST(Sunflow, WorkConservationUsesIdlePorts) {
  SunflowFixture fx;
  Coflow& high = fx.make_coflow(JobId{0});
  fx.demand(high, 0, 1, 1.25);
  Coflow& low = fx.make_coflow(JobId{1});
  fx.demand(low, 2, 3, 12.5);  // disjoint ports, lower priority
  fx.submit_all(high);
  fx.submit_all(low);
  fx.sim.run();
  // Both start immediately; the low-priority coflow is not delayed.
  EXPECT_NEAR(low.flows()[0]->completion_time().sec(), 1.01, 1e-9);
  EXPECT_NEAR(high.flows()[0]->completion_time().sec(), 0.11, 1e-9);
}

TEST(Sunflow, DemandGrowthDuringTransferExtendsIt) {
  SunflowFixture fx;
  Coflow& c = fx.make_coflow(JobId{0});
  Flow& f = fx.demand(c, 0, 1, 1.25);
  fx.submit_all(c);
  fx.sim.schedule_at(SimTime::seconds(0.05), [&] {
    f.add_demand(DataSize::gigabytes(1.25));
    fx.fabric.demand_added(f);
  });
  fx.sim.run();
  // Started at 0.01; by 0.05 moved 4 Gbit; remaining 6+10 = 16 Gbit
  // -> completes at 0.05 + 0.16 = 0.21.
  EXPECT_NEAR(f.completion_time().sec(), 0.21, 1e-9);
}

TEST(Sunflow, DemandGrowthWhilePendingIsPickedUpAtStart) {
  SunflowFixture fx;
  Coflow& blocker = fx.make_coflow(JobId{0});
  fx.demand(blocker, 0, 1, 1.25);
  Coflow& waiter = fx.make_coflow(JobId{1});
  Flow& wf = fx.demand(waiter, 0, 1, 12.5);
  fx.submit_all(blocker);
  fx.submit_all(waiter);
  fx.sim.schedule_at(SimTime::seconds(0.05), [&] {
    wf.add_demand(DataSize::gigabytes(12.5));
    fx.fabric.demand_added(wf);
  });
  fx.sim.run();
  // blocker: 0.11. waiter starts after: 0.11 + 0.01 + 2.0.
  EXPECT_NEAR(wf.completion_time().sec(), 2.12, 1e-9);
}

TEST(Sunflow, ReservationPreventsPriorityInversion) {
  // High-priority coflow has two flows that must share in-port 1
  // sequentially: (0->1) then (2->1). While (0->1) runs, out-port 2 and
  // in-port... the second flow's ports are momentarily free — without
  // reservation the long low-priority flow (2->1 for job B) would grab
  // them non-preemptively and stall the head coflow.
  SunflowFixture fx;
  Coflow& head = fx.make_coflow(JobId{0});
  fx.demand(head, 0, 1, 1.25);
  fx.demand(head, 2, 1, 1.25);  // waits for in-port 1
  Coflow& tail = fx.make_coflow(JobId{1});
  fx.demand(tail, 2, 1, 125.0);  // 10 s transfer; bound far larger
  fx.submit_all(head);
  fx.submit_all(tail);
  fx.sim.run();
  // Head coflow: 2 sequential flows on in-port 1: 2*(0.01+0.1).
  double head_done = 0;
  for (const auto& f : head.flows()) {
    head_done = std::max(head_done, f->completion_time().sec());
  }
  EXPECT_NEAR(head_done, 0.22, 1e-9);
  // Tail flow runs after: its ports were reserved for the head.
  EXPECT_NEAR(tail.flows()[0]->completion_time().sec(), 0.22 + 0.01 + 10.0,
              1e-9);
}

TEST(Sunflow, LateFlowsOfAdmittedCoflowAreScheduled) {
  SunflowFixture fx;
  Coflow& c = fx.make_coflow(JobId{0});
  Flow& first = fx.demand(c, 0, 1, 1.25);
  fx.submit(c, first);
  // Advance past the first circuit's setup (clock rests at t=0.05).
  fx.sim.run_until(SimTime::seconds(0.05));
  Flow& second = fx.demand(c, 2, 3, 1.25);
  fx.submit(c, second);
  fx.sim.run();
  EXPECT_TRUE(first.completed());
  EXPECT_TRUE(second.completed());
  // Submitted at 0.05: its own circuit setup (0.01), then 0.1 of transfer.
  EXPECT_NEAR(second.completion_time().sec(), 0.05 + 0.01 + 0.1, 1e-9);
}

// Figure 2 regression: the motivation example's placements and CCTs.
// 1 unit = 1 GB at 8 Gb/s (1 GB per unit time), delta = 0.01 units.
TEST(Sunflow, Figure2MotivationCcts) {
  auto build = [](const std::vector<int>& red1, const std::vector<int>& red2,
                  double* cct1, double* cct2) {
    HybridTopology t;
    t.num_racks = 3;
    t.ocs_link = Bandwidth::gbps(8);
    t.ocs_reconfig_delay = Duration::milliseconds(10);
    SunflowFixture fx(t);
    Coflow& job1 = fx.make_coflow(JobId{1});
    Coflow& job2 = fx.make_coflow(JobId{2});
    auto fill = [&](Coflow& c, const std::vector<int>& maps,
                    const std::vector<int>& reds) {
      for (std::size_t i = 0; i < maps.size(); ++i) {
        for (std::size_t j = 0; j < reds.size(); ++j) {
          if (i == j || reds[j] == 0) continue;
          fx.demand(c, static_cast<int>(i), static_cast<int>(j),
                    maps[i] * reds[j]);
        }
      }
      fx.submit_all(c);
    };
    fill(job1, {3, 3, 3}, red1);
    fill(job2, {5, 5, 5}, red2);
    fx.sim.run();
    auto cct = [](const Coflow& c) {
      double last = 0;
      for (const auto& f : c.flows()) {
        last = std::max(last, f->completion_time().sec());
      }
      return last;
    };
    *cct1 = cct(job1);
    *cct2 = cct(job2);
  };

  // Case 1 (packed reduces): paper reports 12+2d for Job1. Our Sunflow
  // needs one extra reconfiguration wave: 12+3d.
  double c1_j1 = 0, c1_j2 = 0;
  build({2, 1, 0}, {2, 1, 0}, &c1_j1, &c1_j2);
  EXPECT_NEAR(c1_j1, 12.03, 1e-6);
  // Job1's lower bound (12 + 2d) is never beaten.
  EXPECT_GE(c1_j1, 12.02 - 1e-9);

  // Case 2 (spread reduces): paper reports 6+2d and 16+3d. We measure
  // 6+2d exactly and 16+4d for Job2 (queueing behind Job1 plus setup).
  double c2_j1 = 0, c2_j2 = 0;
  build({1, 1, 1}, {1, 1, 1}, &c2_j1, &c2_j2);
  EXPECT_NEAR(c2_j1, 6.02, 1e-6);
  EXPECT_NEAR(c2_j2, 16.04, 1e-6);

  // The headline claim: spreading strictly shortens both CCTs.
  EXPECT_LT(c2_j1, c1_j1);
  EXPECT_LT(c2_j2, c1_j2);
}

TEST(Sunflow, ManyCoflowsAllComplete) {
  SunflowFixture fx;
  Rng rng(11);
  std::vector<Coflow*> cs;
  for (int k = 0; k < 10; ++k) {
    Coflow& c = fx.make_coflow(JobId{k});
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int e = 0; e < n; ++e) {
      const int src = static_cast<int>(rng.uniform_int(0, 5));
      int dst = static_cast<int>(rng.uniform_int(0, 5));
      if (dst == src) dst = (dst + 1) % 6;
      fx.demand(c, src, dst,
                1.25 * static_cast<double>(rng.uniform_int(1, 4)));
    }
    cs.push_back(&c);
  }
  for (Coflow* c : cs) fx.submit_all(*c);
  fx.sim.run();
  for (Coflow* c : cs) {
    EXPECT_TRUE(c->all_flows_complete());
  }
}

}  // namespace
}  // namespace cosched
