// Microbenchmarks for the Co-scheduler's decisions: end-to-end dispatch
// cost of whole runs, one SBS exploration pass under the production and
// the unmemoized explore_schedules, and BestRackHeap churn.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "ocs1_bound.h"
#include "sched/best_rack_heap.h"
#include "sched/coscheduler.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

ExperimentConfig dispatch_config(std::int32_t jobs) {
  ExperimentConfig cfg;
  cfg.sim.topo = HybridTopology{};  // paper defaults: 60 racks
  cfg.workload.num_jobs = jobs;
  cfg.workload.num_users = 20;
  cfg.workload.arrival_window = Duration::minutes(90.0 * jobs / 1000.0);
  cfg.repetitions = 1;
  cfg.base_seed = 42;
  cfg.sim.audit = false;
  return cfg;
}

// One full coscheduler run per iteration: dominated by dispatch at this
// load (ocas.grant + sbs.explore were ~90% of wall at 10k jobs), so the
// end-to-end time is an honest proxy for scheduler cost.
void BM_SchedDispatchRun(benchmark::State& state) {
  const ExperimentConfig cfg =
      dispatch_config(static_cast<std::int32_t>(state.range(0)));
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(cfg, factory, 0).events_executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedDispatchRun)
    ->Arg(200)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// ---- SBS exploration: one pass over every PSRT candidate. ---------------

/// Deterministic oracle with the driver's real per-query cost profile:
/// SimulationDriver::estimate_availability walks every running task on the
/// rack, estimates its remaining time, and nth_elements the result — the
/// expensive part explore_schedules_incremental's memoization avoids
/// repeating.
/// A busy paper-scale rack runs ~200 tasks; emulate that work per call.
class DriverCostAvailability : public AvailabilityOracle {
 public:
  explicit DriverCostAvailability(std::int32_t num_racks)
      : num_racks_(num_racks) {}

  Duration estimate_availability(RackId rack, std::int64_t count) override {
    constexpr std::int64_t kRunning = 200;  // paper: 200 containers/rack
    remaining_.clear();
    for (std::int64_t t = 0; t < kRunning; ++t) {
      remaining_.push_back(static_cast<double>(
          (rack.value() * 131 + t * 37) % 1009));
    }
    const std::int64_t need = std::min(count, kRunning);
    std::nth_element(remaining_.begin(), remaining_.begin() + (need - 1),
                     remaining_.end());
    return Duration::seconds(
        remaining_[static_cast<std::size_t>(need - 1)] /
        static_cast<double>(num_racks_));
  }

 private:
  std::int32_t num_racks_;
  std::vector<double> remaining_;
};

std::vector<PossibleSchedule> wide_candidate_set() {
  // A large shuffle on 4 map racks: many R_red candidates, overlapping
  // counts — the shape that makes per-candidate full scans expensive.
  const auto te = DataSize::gigabytes(1.125);
  const std::vector<DataSize> sm{te * 20.0, te * 15.0, te * 10.0, te * 5.0};
  return possible_reduce_schedules(
      sm, 40, te,
      ocs1_bound(Bandwidth::gbps(100), Duration::milliseconds(10)), 60);
}

void BM_SbsExplorePass(benchmark::State& state) {
  const auto schedules = wide_candidate_set();
  DriverCostAvailability oracle(60);
  for (auto _ : state) {
    auto explored = explore_schedules_incremental(schedules, 60, oracle);
    benchmark::DoNotOptimize(explored.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedules.size()));
}
BENCHMARK(BM_SbsExplorePass);

void BM_SbsExplorePassReference(benchmark::State& state) {
  const auto schedules = wide_candidate_set();
  DriverCostAvailability oracle(60);
  for (auto _ : state) {
    auto explored = explore_schedules(schedules, 60, oracle);
    benchmark::DoNotOptimize(explored.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedules.size()));
}
BENCHMARK(BM_SbsExplorePassReference);

// ---- BestRackHeap: update + pop churn at paper scale. -------------------

void BM_BestRackHeapChurn(benchmark::State& state) {
  const std::int32_t racks = static_cast<std::int32_t>(state.range(0));
  BestRackHeap heap(racks);
  std::int64_t i = 0;
  for (auto _ : state) {
    heap.update(RackId{i % racks}, static_cast<double>((i * 31) % 997));
    if (i % 4 == 3) benchmark::DoNotOptimize(heap.pop_best().value());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BestRackHeapChurn)->Arg(60)->Arg(256);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
