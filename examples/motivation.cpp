// A walkthrough of the paper's motivation (Section III): how task
// placement changes the number of usable OCS circuits and hence the coflow
// completion time.
//
// We build the Figure 2 scenario by hand — two jobs, three racks — and let
// Sunflow schedule the circuits, printing each coflow's traffic matrix,
// lower bound, and simulated CCT for a "packed" and a "spread" reduce
// placement.
#include <cstdio>
#include <memory>
#include <vector>

#include "coflow/bvn_clearance.h"
#include "coflow/sunflow.h"
#include "common/ids.h"
#include "fabric/ocs_fabric.h"
#include "net/network.h"

using namespace cosched;

namespace {

HybridTopology three_racks() {
  HybridTopology t;
  t.num_racks = 3;
  t.ocs_link = Bandwidth::gbps(8);  // 1 GB ("unit") per second
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  t.elephant_threshold = DataSize::megabytes(1);
  return t;
}

void fill(Coflow& coflow, IdAllocator<FlowId>& ids,
          const std::vector<int>& maps, const std::vector<int>& reduces) {
  for (std::size_t i = 0; i < maps.size(); ++i) {
    for (std::size_t j = 0; j < reduces.size(); ++j) {
      if (i == j || maps[i] == 0 || reduces[j] == 0) continue;
      coflow.add_demand(ids, RackId{static_cast<std::int64_t>(i)},
                        RackId{static_cast<std::int64_t>(j)},
                        DataSize::gigabytes(maps[i] * reduces[j]));
    }
  }
}

void print_matrix(const Coflow& coflow) {
  const TrafficMatrix m = coflow.cross_rack_matrix();
  for (const auto& [key, size] : m.entries()) {
    std::printf("    rack %lld -> rack %lld : %4.0f units\n",
                static_cast<long long>(key.first.value()),
                static_cast<long long>(key.second.value()),
                size.in_gigabytes());
  }
}

void run_case(const char* title, const std::vector<int>& reduces1,
              const std::vector<int>& reduces2) {
  std::printf("\n--- %s ---\n", title);
  Simulator sim;
  const HybridTopology t = three_racks();
  Network net(sim, t, std::make_unique<OcsFabric>(sim, t, 1));
  SunflowScheduler sunflow(sim, net.fabric());
  IdAllocator<FlowId> ids;

  Coflow job1(CoflowId{1}, JobId{1});
  Coflow job2(CoflowId{2}, JobId{2});
  fill(job1, ids, {3, 3, 3}, reduces1);   // 9 maps
  fill(job2, ids, {5, 5, 5}, reduces2);   // 15 maps

  const OcsSwitch& ocs = *net.fabric().plane(0);
  for (Coflow* c : {&job1, &job2}) {
    std::printf("  Job%lld traffic matrix:\n",
                static_cast<long long>(c->id().value()));
    print_matrix(*c);
    const Duration bound =
        c->lower_bound(ocs.link_rate(), ocs.reconfig_delay());
    std::printf("  Job%lld lower bound T(C) = %.2f units\n",
                static_cast<long long>(c->id().value()), bound.sec());
    // The Inukai/BvN clearance certifies the bandwidth part of the bound
    // is achievable with port-disjoint circuit configurations:
    const ClearanceSchedule cs =
        bvn_clearance(c->cross_rack_matrix(), ocs.link_rate());
    std::printf("  Job%lld BvN clearance: %zu slots, %.2f units transfer\n",
                static_cast<long long>(c->id().value()), cs.slots.size(),
                cs.transfer_time().sec());
    c->mark_released(sim.now());
    for (const auto& f : c->flows()) {
      f->set_path(FlowPath::kOcs);
      sunflow.submit(*c, *f);
    }
  }

  sim.run();

  for (Coflow* c : {&job1, &job2}) {
    double last = 0;
    for (const auto& f : c->flows()) {
      last = std::max(last, f->completion_time().sec());
    }
    std::printf("  Job%lld simulated CCT under Sunflow = %.2f units\n",
                static_cast<long long>(c->id().value()),
                last - c->release_time().sec());
  }
}

}  // namespace

int main() {
  std::printf("Motivation (paper Section III / Figure 2): the same two\n"
              "jobs, two reduce placements. 1 unit = 1 GB at 1 GB/s.\n");
  run_case("Case 1: reduces packed (2 on rack 0, 1 on rack 1)", {2, 1, 0},
           {2, 1, 0});
  run_case("Case 2: reduces spread (1 per rack)", {1, 1, 1}, {1, 1, 1});
  std::printf("\nSpreading the reduce tasks lets each job use all three\n"
              "circuits concurrently: both CCTs drop sharply. This is\n"
              "Goal-2 of Co-scheduler's design.\n");
  return 0;
}
