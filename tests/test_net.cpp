// Unit tests for the Hybrid-DCN network model: EPS max-min fairness and
// local paths. The circuit fabrics are tested in test_fabric.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/eps_fabric.h"
#include "net/topology.h"

namespace cosched {
namespace {

HybridTopology small_topo() {
  HybridTopology t;
  t.num_racks = 4;
  t.servers_per_rack = 10;
  t.server_nic = Bandwidth::gbps(10);
  t.eps_oversubscription = 10.0;  // rack link = 10 Gbps
  t.ocs_link = Bandwidth::gbps(100);
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  return t;
}

struct FlowFixture {
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Flow>> flows;

  Flow& make(RackId src, RackId dst, DataSize size) {
    flows.push_back(std::make_unique<Flow>(ids.next(), CoflowId{0}, JobId{0},
                                           src, dst, size));
    return *flows.back();
  }
};

// ---------------------------------------------------------------- topo ----

TEST(Topology, RackLinkFollowsOversubscription) {
  HybridTopology t = small_topo();
  EXPECT_DOUBLE_EQ(t.eps_rack_link().in_gbps(), 10.0);
  t.eps_oversubscription = 20.0;
  EXPECT_DOUBLE_EQ(t.eps_rack_link().in_gbps(), 5.0);
  t.eps_oversubscription = 3.0;
  EXPECT_NEAR(t.eps_rack_link().in_gbps(), 100.0 / 3.0, 1e-9);
}

TEST(Topology, SlotAccounting) {
  HybridTopology t = small_topo();
  t.slots_per_server = 20;
  EXPECT_EQ(t.slots_per_rack(), 200);
  EXPECT_EQ(t.total_slots(), 800);
}

TEST(Topology, ValidateRejectsNonsense) {
  HybridTopology t = small_topo();
  t.num_racks = 0;
  EXPECT_THROW(t.validate(), CheckFailure);
}

// ----------------------------------------------------------------- EPS ----

TEST(EpsFabric, SingleFlowGetsFullRackLink) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  // 10 Gb/s link, 1.25 GB = 10 Gbit => exactly 1 second.
  Flow& f = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  f.set_path(FlowPath::kEps);
  bool done = false;
  eps.set_on_flow_complete([&](Flow&) { done = true; });
  eps.start_flow(f);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.completed());
  EXPECT_NEAR(f.completion_time().sec(), 1.0, 1e-9);
}

TEST(EpsFabric, TwoFlowsSharingUplinkHalveTheRate) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& a = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  Flow& b = fx.make(RackId{0}, RackId{2}, DataSize::gigabytes(1.25));
  a.set_path(FlowPath::kEps);
  b.set_path(FlowPath::kEps);
  eps.start_flow(a);
  eps.start_flow(b);
  sim.run();
  // Both share rack 0's uplink at 5 Gb/s -> 2 s each.
  EXPECT_NEAR(a.completion_time().sec(), 2.0, 1e-9);
  EXPECT_NEAR(b.completion_time().sec(), 2.0, 1e-9);
}

TEST(EpsFabric, DownlinkContentionAlsoShares) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& a = fx.make(RackId{0}, RackId{2}, DataSize::gigabytes(1.25));
  Flow& b = fx.make(RackId{1}, RackId{2}, DataSize::gigabytes(1.25));
  a.set_path(FlowPath::kEps);
  b.set_path(FlowPath::kEps);
  eps.start_flow(a);
  eps.start_flow(b);
  sim.run();
  EXPECT_NEAR(a.completion_time().sec(), 2.0, 1e-9);
  EXPECT_NEAR(b.completion_time().sec(), 2.0, 1e-9);
}

TEST(EpsFabric, MaxMinGivesUnbottleneckedFlowTheResidual) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  // Two flows into rack 2 (downlink shared), one of which shares its source
  // uplink with a third flow. Progressive filling: the third flow is capped
  // at 5 (uplink share); classic max-min would then give flow `a` the
  // leftover downlink. With equal-split per link, a and b get 5 each.
  Flow& a = fx.make(RackId{0}, RackId{2}, DataSize::gigabytes(1.25));
  Flow& b = fx.make(RackId{1}, RackId{2}, DataSize::gigabytes(1.25));
  Flow& c = fx.make(RackId{1}, RackId{3}, DataSize::gigabytes(1.25));
  for (Flow* f : {&a, &b, &c}) f->set_path(FlowPath::kEps);
  eps.start_flow(a);
  eps.start_flow(b);
  eps.start_flow(c);
  sim.run_until(SimTime::zero());  // let the coalesced rate replan fire
  const auto rates = eps.current_rates();
  ASSERT_EQ(rates.size(), 3u);
  // Rack1 uplink carries b and c: 5 Gb/s each. Rack2 downlink carries a and
  // b: b is frozen at 5, a gets the remaining 5 Gb/s.
  EXPECT_NEAR(rates[0].second.in_gbps(), 5.0, 1e-9);
  EXPECT_NEAR(rates[1].second.in_gbps(), 5.0, 1e-9);
  EXPECT_NEAR(rates[2].second.in_gbps(), 5.0, 1e-9);
  sim.run();
  EXPECT_TRUE(a.completed());
  EXPECT_TRUE(b.completed());
  EXPECT_TRUE(c.completed());
}

TEST(EpsFabric, RatesReallocateWhenFlowFinishes) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& small = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(0.625));
  Flow& big = fx.make(RackId{0}, RackId{2}, DataSize::gigabytes(1.25));
  small.set_path(FlowPath::kEps);
  big.set_path(FlowPath::kEps);
  eps.start_flow(small);
  eps.start_flow(big);
  sim.run();
  // small: 5 Gbit at 5 Gb/s -> 1 s. big: 5 Gbit in first second, then the
  // remaining 5 Gbit at full 10 Gb/s -> 1.5 s total.
  EXPECT_NEAR(small.completion_time().sec(), 1.0, 1e-9);
  EXPECT_NEAR(big.completion_time().sec(), 1.5, 1e-9);
}

TEST(EpsFabric, LocalFlowRunsAtNicSpeedWithoutContention) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& local = fx.make(RackId{0}, RackId{0}, DataSize::gigabytes(1.25));
  Flow& cross = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  local.set_path(FlowPath::kLocal);
  cross.set_path(FlowPath::kEps);
  eps.start_flow(local);
  eps.start_flow(cross);
  sim.run();
  // Local does not consume the rack uplink: both take 1 s.
  EXPECT_NEAR(local.completion_time().sec(), 1.0, 1e-9);
  EXPECT_NEAR(cross.completion_time().sec(), 1.0, 1e-9);
}

TEST(EpsFabric, ZeroByteFlowCompletesImmediately) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& f = fx.make(RackId{0}, RackId{1}, DataSize::zero());
  f.set_path(FlowPath::kEps);
  bool done = false;
  eps.set_on_flow_complete([&](Flow&) { done = true; });
  eps.start_flow(f);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(f.completion_time().sec(), 0.0);
}

TEST(EpsFabric, ZeroByteFlowLeavesNoStaleGroup) {
  // A zero-byte flow joins its (src,dst) group and completes via an
  // immediate event; the completion must remove it from the group so no
  // stale group survives with zero members.
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& f = fx.make(RackId{0}, RackId{1}, DataSize::zero());
  f.set_path(FlowPath::kEps);
  eps.start_flow(f);
  EXPECT_EQ(eps.active_flows(), 1u);
  EXPECT_EQ(eps.active_groups(), 1u);
  sim.run();
  EXPECT_TRUE(f.completed());
  EXPECT_EQ(eps.active_flows(), 0u);
  EXPECT_EQ(eps.active_groups(), 0u);
}

TEST(EpsFabric, ZeroByteFlowGrownAtCreationInstantDoesNotCrash) {
  // Regression: a zero-byte flow schedules an immediate completion event,
  // and demand added within the same instant races that event — it fires
  // before the replan has assigned the flow a rate. The fabric must defer
  // to the replan instead of tripping a rate>0 check, and the flow must
  // still complete with the right byte count.
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& f = fx.make(RackId{0}, RackId{1}, DataSize::zero());
  f.set_path(FlowPath::kEps);
  eps.start_flow(f);
  // Same-instant growth: the immediate completion event is already queued
  // with a lower sequence number than any replan this triggers.
  f.add_demand(DataSize::gigabytes(1.25));
  eps.demand_added(f);
  sim.run();
  EXPECT_TRUE(f.completed());
  EXPECT_NEAR(f.completion_time().sec(), 1.0, 1e-9);
  EXPECT_EQ(eps.active_flows(), 0u);
  EXPECT_EQ(eps.active_groups(), 0u);
  EXPECT_NEAR(eps.eps_bytes_transferred().in_gigabytes(), 1.25, 1e-6);
}

TEST(EpsFabric, GroupEmptyingMidChurnLeavesNoStaleCount) {
  // Flows on the same rack pair share one group. Finishing them at
  // different times — with new same-pair flows arriving in between — must
  // keep the group count in lockstep with the live pair set.
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& a = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(0.625));
  Flow& b = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  Flow& c = fx.make(RackId{2}, RackId{3}, DataSize::gigabytes(1.25));
  for (Flow* f : {&a, &b, &c}) f->set_path(FlowPath::kEps);
  eps.start_flow(a);
  eps.start_flow(b);
  eps.start_flow(c);
  EXPECT_EQ(eps.active_groups(), 2u);
  // After (0,1) drains, start another (0,1) flow plus a zero-byte one that
  // vanishes within its creation instant.
  sim.schedule_at(SimTime::seconds(3.0), [&] {
    EXPECT_EQ(eps.active_groups(), 0u);
    Flow& d = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
    Flow& z = fx.make(RackId{0}, RackId{1}, DataSize::zero());
    d.set_path(FlowPath::kEps);
    z.set_path(FlowPath::kEps);
    eps.start_flow(d);
    eps.start_flow(z);
    EXPECT_EQ(eps.active_groups(), 1u);
  });
  sim.run();
  for (const auto& f : fx.flows) EXPECT_TRUE(f->completed());
  EXPECT_EQ(eps.active_flows(), 0u);
  EXPECT_EQ(eps.active_groups(), 0u);
}

TEST(EpsFabric, DemandAddedExtendsTransfer) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& f = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  f.set_path(FlowPath::kEps);
  eps.start_flow(f);
  sim.schedule_at(SimTime::seconds(0.5), [&] {
    f.add_demand(DataSize::gigabytes(1.25));
    eps.demand_added(f);
  });
  sim.run();
  EXPECT_NEAR(f.completion_time().sec(), 2.0, 1e-9);
}

TEST(EpsFabric, ByteAccountingSeparatesEpsAndLocal) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& cross = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(2));
  Flow& local = fx.make(RackId{2}, RackId{2}, DataSize::gigabytes(3));
  cross.set_path(FlowPath::kEps);
  local.set_path(FlowPath::kLocal);
  eps.start_flow(cross);
  eps.start_flow(local);
  sim.run();
  EXPECT_NEAR(eps.eps_bytes_transferred().in_gigabytes(), 2.0, 1e-6);
  EXPECT_NEAR(eps.local_bytes_transferred().in_gigabytes(), 3.0, 1e-6);
}

TEST(EpsFabric, OversubscriptionScalesRates) {
  // Same single flow, 20:1 vs 10:1 — double the transfer time.
  for (const auto& [ratio, expected_sec] :
       std::vector<std::pair<double, double>>{{10.0, 1.0}, {20.0, 2.0}}) {
    Simulator sim;
    HybridTopology t = small_topo();
    t.eps_oversubscription = ratio;
    EpsFabric eps(sim, t);
    FlowFixture fx;
    Flow& f = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
    f.set_path(FlowPath::kEps);
    eps.start_flow(f);
    sim.run();
    EXPECT_NEAR(f.completion_time().sec(), expected_sec, 1e-6)
        << "ratio " << ratio;
  }
}

TEST(EpsFabric, ManyFlowsAllCompleteAndConserveBytes) {
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Rng rng(5);
  double total_gb = 0;
  std::vector<Flow*> flows;
  for (int i = 0; i < 200; ++i) {
    const auto src = rng.uniform_int(0, 3);
    auto dst = rng.uniform_int(0, 3);
    if (dst == src) dst = (dst + 1) % 4;
    const double gb = 0.1 * static_cast<double>(rng.uniform_int(1, 20));
    total_gb += gb;
    Flow& f = fx.make(RackId{src}, RackId{dst}, DataSize::gigabytes(gb));
    f.set_path(FlowPath::kEps);
    flows.push_back(&f);
    eps.start_flow(f);
  }
  sim.run();
  for (Flow* f : flows) EXPECT_TRUE(f->completed());
  EXPECT_NEAR(eps.eps_bytes_transferred().in_gigabytes(), total_gb,
              total_gb * 0.01);
}

TEST(EpsFabric, DisjointStartReplansNoUnchangedGroup) {
  // Two flows on 0->1 and one on 2->3 hold one completion event per rack
  // pair. A flow starting on 1->0 shares no link with them, so the replan
  // it triggers leaves both groups' rates, and their events, alone: it
  // adds the new group's event, cancels nothing, and leaves no tombstone.
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& a = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  Flow& b = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(2.5));
  Flow& c = fx.make(RackId{2}, RackId{3}, DataSize::gigabytes(1.25));
  for (Flow* f : {&a, &b, &c}) {
    f->set_path(FlowPath::kEps);
    eps.start_flow(*f);
  }
  sim.run_until(SimTime::zero());
  ASSERT_EQ(eps.replans(), 1);
  EXPECT_EQ(sim.events_pending(), 2u);
  EXPECT_EQ(sim.events_pending_raw(), 2u);

  Flow& d = fx.make(RackId{1}, RackId{0}, DataSize::gigabytes(1.25));
  d.set_path(FlowPath::kEps);
  sim.schedule_at(SimTime::seconds(0.5), [&] { eps.start_flow(d); });
  sim.run_until(SimTime::seconds(0.5));
  ASSERT_EQ(eps.replans(), 2);
  EXPECT_EQ(sim.events_pending(), 3u);
  EXPECT_EQ(sim.events_pending_raw(), 3u) << "a replan cancelled an event";
  sim.run();
  EXPECT_NEAR(a.completion_time().sec(), 2.0, 1e-9);
  EXPECT_NEAR(c.completion_time().sec(), 1.0, 1e-9);
  EXPECT_NEAR(d.completion_time().sec(), 1.5, 1e-9);
}

TEST(EpsFabric, EqualTargetsCompleteInFlowIdOrder) {
  // Same pair, same size, same first replan: equal finish targets. The
  // higher id starts first; the lower id still completes first.
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& a = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  Flow& b = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  a.set_path(FlowPath::kEps);
  b.set_path(FlowPath::kEps);
  std::vector<FlowId> order;
  eps.set_on_flow_complete([&](Flow& f) { order.push_back(f.id()); });
  eps.start_flow(b);
  eps.start_flow(a);
  sim.run();
  EXPECT_EQ(order, (std::vector<FlowId>{a.id(), b.id()}));
  EXPECT_EQ(a.completion_time(), b.completion_time());
  EXPECT_NEAR(a.completion_time().sec(), 2.0, 1e-9);
}

TEST(EpsFabric, DemandOnHeadMovesItBehindItsPeer) {
  // a (10 Gbit) heads its group ahead of b (20 Gbit), both at 5 Gb/s. At
  // 0.5 s a grows by 20 Gbit: 27.5 Gbit left against b's 17.5, so b now
  // drains first (4.0 s) and a finishes alone at 10 Gb/s (5.0 s).
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& a = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  Flow& b = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(2.5));
  a.set_path(FlowPath::kEps);
  b.set_path(FlowPath::kEps);
  std::vector<FlowId> order;
  eps.set_on_flow_complete([&](Flow& f) { order.push_back(f.id()); });
  eps.start_flow(a);
  eps.start_flow(b);
  sim.schedule_at(SimTime::seconds(0.5), [&] {
    EXPECT_NEAR(eps.remaining_bits(a), 7.5e9, 1e-3);
    a.add_demand(DataSize::gigabytes(2.5));
    eps.demand_added(a);
    EXPECT_NEAR(eps.remaining_bits(a), 27.5e9, 1e-3);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<FlowId>{b.id(), a.id()}));
  EXPECT_NEAR(b.completion_time().sec(), 4.0, 1e-9);
  EXPECT_NEAR(a.completion_time().sec(), 5.0, 1e-9);
}

TEST(EpsFabric, LiveRemainingIsConsistentWithDrainedBits) {
  // Between replans the fabric's view of a flow moves with the clock, and
  // remaining plus drained stays equal to what was injected.
  Simulator sim;
  EpsFabric eps(sim, small_topo());
  FlowFixture fx;
  Flow& cross = fx.make(RackId{0}, RackId{1}, DataSize::gigabytes(1.25));
  Flow& local = fx.make(RackId{2}, RackId{2}, DataSize::gigabytes(1.25));
  cross.set_path(FlowPath::kEps);
  local.set_path(FlowPath::kLocal);
  eps.start_flow(cross);
  eps.start_flow(local);
  EXPECT_EQ(eps.remaining_bits(cross), 10e9);
  EXPECT_EQ(eps.rate(cross).in_bits_per_sec(), 0.0);
  sim.schedule_at(SimTime::seconds(0.25), [&] {
    EXPECT_NEAR(eps.remaining_bits(cross), 7.5e9, 1e-3);
    EXPECT_NEAR(eps.remaining_bits(local), 7.5e9, 1e-3);
    EXPECT_DOUBLE_EQ(eps.rate(cross).in_gbps(), 10.0);
    EXPECT_NEAR(eps.eps_bits(), 2.5e9, 1e-3);
    EXPECT_NEAR(eps.local_bits(), 2.5e9, 1e-3);
    EXPECT_NEAR(eps.bytes_in_flight().in_gigabytes(), 1.875, 1e-6);
  });
  sim.run();
  EXPECT_EQ(eps.remaining_bits(cross), 0.0);
  EXPECT_NEAR(eps.eps_bits(), 10e9, 1e-3);
  EXPECT_NEAR(eps.local_bits(), 10e9, 1e-3);
}

}  // namespace
}  // namespace cosched
