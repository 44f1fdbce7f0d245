// Microbenchmarks for the driver's dispatch (DESIGN.md §11):
//
//   * Synthetic waves — one dispatch wave's rack iteration over a sparse
//     free set, as the Cluster's free-rack walk, at 60 / 256 / 1024 racks.
//     Pure index cost, no simulation. The benchmark name still says
//     "OfferQueue" so older result files stay comparable.
//   * Full runs — `driver.dispatch` *inclusive* time (the PerfMonitor
//     phase, scheduler pick_task included; not whole-run wall) of a 10k-job
//     coscheduler run at the paper's 60 racks and at 256. The benchmark
//     names still say "SelfTime" so older result files stay comparable.
//     These use manual timing so the reported number is exactly the
//     dispatch cost, and run a fixed single iteration (a full run each) to
//     keep the suite's cost bounded.
#include <benchmark/benchmark.h>

#include "cluster/cluster.h"
#include "obs/perf_monitor.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

// ---- Synthetic waves: one pass over a sparse free set. ------------------

/// The steady-state shape on a loaded cluster: nearly every rack is full,
/// a handful have a free container. One in 32 racks free (>= 2 so the
/// walk always wraps across words at 60+ racks).
constexpr std::int32_t kFreeStride = 32;

void BM_OfferQueueWave(benchmark::State& state) {
  const auto racks = static_cast<std::int32_t>(state.range(0));
  HybridTopology topo;
  topo.num_racks = racks;
  topo.servers_per_rack = 1;
  topo.slots_per_server = 1;
  Cluster cluster(topo);
  for (std::int32_t r = 0; r < racks; ++r) {
    if (r % kFreeStride != 0) cluster.allocate_slot(RackId{r});
  }
  std::int32_t start = 0;
  std::int64_t visited = 0;
  for (auto _ : state) {
    cluster.for_each_free_rack_from(start, [&](RackId rack) {
      benchmark::DoNotOptimize(rack.value());
      ++visited;
      return true;
    });
    start = (start + 1) % racks;  // the driver's rotating fairness start
  }
  state.SetItemsProcessed(visited);
}
BENCHMARK(BM_OfferQueueWave)->Arg(60)->Arg(256)->Arg(1024);

// ---- Full runs: driver.dispatch inclusive time at 10k jobs. -------------

ExperimentConfig dispatch_config(std::int32_t jobs, std::int32_t racks) {
  ExperimentConfig cfg;
  cfg.sim.topo = HybridTopology{};  // paper defaults: 60 racks
  cfg.sim.topo.num_racks = racks;
  cfg.workload.num_jobs = jobs;
  cfg.workload.num_users = 20;
  cfg.workload.arrival_window = Duration::minutes(90.0 * jobs / 1000.0);
  cfg.repetitions = 1;
  cfg.base_seed = 42;
  cfg.sim.audit = false;
  return cfg;
}

/// One full run per iteration; the reported (manual) time is the
/// `driver.dispatch` phase's total from a per-run capture — the inclusive
/// time of the wave loop, scheduler pick_task cost included, event
/// execution and flow bookkeeping excluded.
void BM_DriverDispatchSelfTime(benchmark::State& state) {
  const ExperimentConfig cfg =
      dispatch_config(static_cast<std::int32_t>(state.range(0)),
                      static_cast<std::int32_t>(state.range(1)));
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  for (auto _ : state) {
    PerfSnapshot perf;
    PerfMonitor::begin_capture(&perf);
    benchmark::DoNotOptimize(run_once(cfg, factory, 0).events_executed);
    PerfMonitor::end_capture();
    const double dispatch_ns = static_cast<double>(
        perf.phase(PerfPhase::kDriverDispatch).total_ns);
    state.SetIterationTime(dispatch_ns / 1e9);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DriverDispatchSelfTime)
    ->Args({10000, 60})
    ->Args({10000, 256})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
