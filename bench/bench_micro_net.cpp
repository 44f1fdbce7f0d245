// Microbenchmarks for the network substrate: EPS max-min recomputation
// cost as a function of the active-flow count, OCS circuit churn, and
// Sunflow's allocation pass under load.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "coflow/coflow.h"
#include "common/check.h"
#include "common/rng.h"
#include "fabric/ocs_fabric.h"
#include "net/eps_fabric.h"

namespace cosched {
namespace {

HybridTopology topo_with_racks(std::int32_t racks) {
  HybridTopology t;  // paper defaults otherwise
  t.num_racks = racks;
  return t;
}

// Shared setup: `num_flows` concurrent EPS flows spread over `racks` racks
// (the paper's 60 by default), large enough that none of them drains
// during the bench: each iteration advances the clock 100 ms, and a small
// flow set runs ~10^5 iterations at a full rack link each.
struct ChurnFixture {
  Simulator sim;
  EpsFabric eps;
  Rng rng{1};
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Flow>> flows;

  explicit ChurnFixture(std::size_t num_flows, std::int32_t racks = 60)
      : eps(sim, topo_with_racks(racks)) {
    for (std::size_t i = 0; i < num_flows; ++i) {
      const auto src = rng.uniform_int(0, racks - 1);
      auto dst = rng.uniform_int(0, racks - 1);
      if (dst == src) dst = (dst + 1) % racks;
      flows.push_back(std::make_unique<Flow>(ids.next(), CoflowId{0}, JobId{0},
                                             RackId{src}, RackId{dst},
                                             DataSize::gigabytes(1e6)));
      flows.back()->set_path(FlowPath::kEps);
      eps.start_flow(*flows.back());
    }
    sim.run_until(sim.now());  // initial replan
  }

  /// Nudge one flow's demand and advance past the coalescing window so the
  /// deferred recompute_and_replan actually fires (one full replan per call).
  void one_replan(std::size_t idx) {
    flows[idx]->add_demand(DataSize::bytes(1));
    eps.demand_added(*flows[idx]);
    sim.run_until(sim.now() + Duration::milliseconds(100));
  }
};

void BM_EpsProgressiveFilling(benchmark::State& state) {
  ChurnFixture fx(static_cast<std::size_t>(state.range(0)));
  const std::int64_t before = fx.eps.replans();
  for (auto _ : state) {
    fx.one_replan(0);
    benchmark::DoNotOptimize(fx.eps.active_flows());
  }
  COSCHED_CHECK(fx.eps.replans() - before ==
                static_cast<std::int64_t>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EpsProgressiveFilling)->Range(8, 8192)->Complexity();

// Share churn over `racks` racks: each iteration a short probe flow joins
// a resident flow's rack pair and drains, so that group's share changes
// twice (once at the probe's start, once at its completion) and each
// change costs a fill plus re-planning the changed groups' events. The
// iteration is one 250 ms cycle: the start replans at once (the previous
// replan is 150 ms old, clear of the 100 ms coalescing window even after
// rounding), the probe drains within the cycle's first 100 ms, and the
// completion's coalesced replan fires at +100 ms.
void high_churn_replan(benchmark::State& state, std::int32_t racks) {
  ChurnFixture fx(static_cast<std::size_t>(state.range(0)), racks);
  fx.sim.run_until(fx.sim.now() + Duration::milliseconds(150));
  const std::int64_t before = fx.eps.replans();
  std::int64_t share_changes = 0;
  std::size_t idx = 0;
  for (auto _ : state) {
    const Flow& resident = *fx.flows[idx];
    const Bandwidth share = fx.eps.rate(resident);
    Flow probe(fx.ids.next(), CoflowId{0}, JobId{0}, resident.src(),
               resident.dst(), DataSize::kilobytes(64));
    probe.set_path(FlowPath::kEps);
    fx.eps.start_flow(probe);
    fx.sim.run_until(fx.sim.now());
    if (fx.eps.rate(resident) != share) ++share_changes;
    fx.sim.run_until(fx.sim.now() + Duration::milliseconds(250));
    COSCHED_CHECK(probe.completed());
    idx = (idx + 1) % fx.flows.size();
  }
  // Every iteration changed a share and paid exactly its two replans.
  COSCHED_CHECK(share_changes == static_cast<std::int64_t>(state.iterations()));
  COSCHED_CHECK(fx.eps.replans() - before ==
                2 * static_cast<std::int64_t>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}

// The acceptance scenario: >= 5k concurrent flows on the paper's 60 racks.
void BM_EpsHighChurnReplan(benchmark::State& state) {
  high_churn_replan(state, 60);
}
BENCHMARK(BM_EpsHighChurnReplan)
    ->Arg(5000)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// The same churn on the 256-rack scale topology: more links per filling
// round, and nearly one rack-pair group per flow.
void BM_EpsHighChurnReplan256Racks(benchmark::State& state) {
  high_churn_replan(state, 256);
}
BENCHMARK(BM_EpsHighChurnReplan256Racks)
    ->Arg(5000)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// bytes_in_flight() is sampled by the obs gauge every counter tick.
void BM_EpsBytesInFlight(benchmark::State& state) {
  ChurnFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.eps.bytes_in_flight().in_bytes());
  }
}
BENCHMARK(BM_EpsBytesInFlight)->Arg(5000);

// Start/complete churn: zero-byte flows enter and immediately drain, so
// this measures per-flow fabric bookkeeping plus event-pool turnover.
void BM_EpsFlowStartCompleteChurn(benchmark::State& state) {
  Simulator sim;
  EpsFabric eps(sim, topo_with_racks(60));
  IdAllocator<FlowId> ids;
  std::int64_t i = 0;
  for (auto _ : state) {
    Flow f(ids.next(), CoflowId{0}, JobId{0}, RackId{i % 60},
           RackId{(i + 11) % 60}, DataSize::zero());
    f.set_path(FlowPath::kEps);
    eps.start_flow(f);
    sim.run_until(sim.now());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpsFlowStartCompleteChurn);

// Circuit churn through the whole fabric: each iteration submits a
// one-flow coflow (priority bound, allocation pass, setup, delta, drain,
// teardown, completion) and runs it to completion.
void BM_OcsFabricSubmitToCompletion(benchmark::State& state) {
  Simulator sim;
  OcsFabric fabric(sim, topo_with_racks(60), 1);
  IdAllocator<FlowId> ids;
  std::int64_t i = 0;
  for (auto _ : state) {
    Coflow coflow(CoflowId{i}, JobId{i});
    Flow& flow = *coflow
                      .add_demand(ids, RackId{i % 60}, RackId{(i + 7) % 60},
                                  DataSize::gigabytes(1.25))
                      .first;
    flow.set_path(FlowPath::kOcs);
    fabric.submit(coflow, flow);
    sim.run();
    COSCHED_CHECK(flow.completed());
    ++i;
  }
  COSCHED_CHECK(fabric.active_coflows() == 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OcsFabricSubmitToCompletion);

// Sunflow under load: per block of 27 racks, a head coflow with 170 queued
// flows (17 source x 10 destination racks) and a rival with longer flows
// on the same ports; a 60-rack fabric holds 2 blocks, a 256-rack one 9. A
// drained flow reopens with fresh demand, so the queues stay full. Each
// iteration advances to the next completion: one teardown, and the
// allocation pass it requests, with its setups.
void BM_SunflowLoadedPass(benchmark::State& state) {
  const auto racks = static_cast<std::int32_t>(state.range(0));
  Simulator sim;
  OcsFabric fabric(sim, topo_with_racks(racks), 1);
  IdAllocator<FlowId> ids;
  Rng rng(7);
  std::vector<std::unique_ptr<Coflow>> coflows;
  const auto demand = [&](Coflow& c, std::int64_t src, std::int64_t dst) {
    // 0.5-2 GB: 40-160 ms at 100 Gb/s; the rival's flows are 4x longer.
    const double gb = rng.uniform(0.5, 2.0) * (c.id().value() % 2 == 0 ? 1 : 4);
    Flow& f =
        *c.add_demand(ids, RackId{src}, RackId{dst}, DataSize::gigabytes(gb))
             .first;
    f.set_path(FlowPath::kOcs);
    fabric.submit(c, f);
  };
  std::int64_t completions = 0;
  fabric.set_on_flow_complete([&](Flow& f) {
    ++completions;
    demand(*coflows[static_cast<std::size_t>(f.coflow().value())],
           f.src().value(), f.dst().value());
  });
  for (std::int32_t base = 0; base + 27 <= racks; base += 27) {
    for (int rival = 0; rival < 2; ++rival) {
      const auto id = static_cast<std::int64_t>(coflows.size());
      coflows.push_back(std::make_unique<Coflow>(CoflowId{id}, JobId{id}));
      for (std::int32_t s = 0; s < 17; ++s) {
        for (std::int32_t d = 17; d < 27; ++d) {
          demand(*coflows.back(), base + s, base + d);
        }
      }
    }
  }
  for (auto _ : state) {
    const std::int64_t before = completions;
    while (completions == before) sim.step();
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] =
      static_cast<double>(fabric.pending_flows());
}
BENCHMARK(BM_SunflowLoadedPass)->Arg(60)->Arg(256);

void BM_EpsSingleFlowLifecycle(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    EpsFabric eps(sim, topo_with_racks(60));
    IdAllocator<FlowId> ids;
    Flow f(ids.next(), CoflowId{0}, JobId{0}, RackId{0}, RackId{1},
           DataSize::gigabytes(1));
    f.set_path(FlowPath::kEps);
    eps.start_flow(f);
    sim.run();
    benchmark::DoNotOptimize(f.completed());
  }
}
BENCHMARK(BM_EpsSingleFlowLifecycle);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
