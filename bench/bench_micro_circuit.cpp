// Circuit-scheduler ablation (a DESIGN.md extension, not a paper figure):
// average CCT of random coflow batches under FIFO, Sunflow, and BvN/TMS.
//
// Measured shape: Sunflow < FIFO < BvN for average CCT on mixed batches.
// Shortest-first ordering wins; notably, BvN/TMS's per-coflow optimality
// loses to even FIFO because strict one-coflow-at-a-time service idles
// every port the active coflow does not use — work conservation matters
// more than clearance optimality at moderate load.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "coflow/bvn_circuit.h"
#include "coflow/fifo_circuit.h"
#include "coflow/sunflow.h"
#include "fabric/ocs_fabric.h"
#include "common/rng.h"
#include "common/stats.h"

using namespace cosched;

namespace {

HybridTopology topo() {
  HybridTopology t;
  t.num_racks = 20;
  return t;
}

double run_batch(const std::string& kind, std::uint64_t seed,
                 int num_coflows) {
  Simulator sim;
  const HybridTopology t = topo();
  Network net(sim, t, std::make_unique<OcsFabric>(sim, t, 1));
  std::unique_ptr<CircuitScheduler> sched;
  if (kind == "fifo") {
    sched = std::make_unique<FifoCircuitScheduler>(sim, net,
                                                   *net.fabric().plane(0));
  } else if (kind == "bvn") {
    sched = std::make_unique<BvnCircuitScheduler>(sim, net,
                                                  *net.fabric().plane(0));
  } else {
    sched = std::make_unique<SunflowScheduler>(sim, net.fabric());
  }

  Rng rng(seed);
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Coflow>> coflows;
  for (int k = 0; k < num_coflows; ++k) {
    coflows.push_back(
        std::make_unique<Coflow>(CoflowId{k}, JobId{k}));
    Coflow& c = *coflows.back();
    // Heavy-tailed widths and sizes.
    const int width = 1 + static_cast<int>(rng.zipf(8, 1.2));
    for (int e = 0; e < width; ++e) {
      const auto s = rng.uniform_int(0, 19);
      auto d = rng.uniform_int(0, 19);
      if (d == s) d = (d + 1) % 20;
      c.add_demand(ids, RackId{s}, RackId{d},
                   DataSize::gigabytes(
                       1.25 * static_cast<double>(rng.zipf(32, 1.3))));
    }
    c.mark_released(sim.now());
    for (const auto& f : c.flows()) {
      f->set_path(FlowPath::kOcs);
      sched->submit(c, *f);
    }
  }
  sim.run();

  RunningStat ccts;
  for (const auto& c : coflows) {
    double last = 0;
    for (const auto& f : c->flows()) {
      last = std::max(last, f->completion_time().sec());
    }
    ccts.add(last - c->release_time().sec());
  }
  return ccts.mean();
}

}  // namespace

int main() {
  std::printf("=== Circuit-scheduler ablation: avg CCT (s) over random "
              "coflow batches ===\n");
  std::printf("%-10s %10s %10s %10s\n", "batch", "sunflow", "bvn", "fifo");
  for (int n : {10, 30, 60}) {
    RunningStat sun, bvn, fifo;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      sun.add(run_batch("sunflow", seed, n));
      bvn.add(run_batch("bvn", seed, n));
      fifo.add(run_batch("fifo", seed, n));
    }
    std::printf("%-10d %10.3f %10.3f %10.3f\n", n, sun.mean(), bvn.mean(),
                fifo.mean());
  }
  std::printf(
      "\n(sunflow wins via shortest-first + work conservation; bvn/tms\n"
      " loses to fifo because one-coflow-at-a-time service idles ports)\n");
  return 0;
}
