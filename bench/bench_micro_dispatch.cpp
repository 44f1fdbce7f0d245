// Microbenchmarks for the driver dispatch engines (DESIGN.md §11):
//
//   * Synthetic wave pairs — one dispatch wave's rack iteration over a
//     sparse free set, as the OfferQueue bitset walk vs the reference
//     all-racks scan, at 60 / 256 / 1024 racks. Pure index cost, no
//     simulation.
//   * Full-run pairs — `driver.dispatch` *inclusive* time (the PerfMonitor
//     phase, scheduler pick_task included; not whole-run wall) of a 10k-job
//     coscheduler run under the offer-queue vs scan engines, at the
//     paper's 60 racks and at 256. The benchmark names still say
//     "SelfTime" so older result files stay comparable.
//     These use manual timing so the reported number is exactly the
//     dispatch cost the tentpole optimizes, and run a fixed single
//     iteration (a full run each) to keep the suite's cost bounded.
//
// The paired *Scan benchmarks run in the same binary, so their ratio is
// immune to machine-speed differences; tools/bench_engine.py extracts it
// into BENCH_engine.json.
//
// Baseline generation: COSCHED_DISPATCH_BENCH_FORCE_SCAN=1 makes the
// offer-queue-named benchmarks execute the scan engine instead, which is
// how results/bench_dispatch_before.json was produced — an honest
// "before" with matching benchmark names, from the same binary.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "obs/perf_monitor.h"
#include "sim/experiment.h"
#include "sim/offer_queue.h"

namespace cosched {
namespace {

DispatchEngine engine_or_forced(DispatchEngine engine) {
  const char* force = std::getenv("COSCHED_DISPATCH_BENCH_FORCE_SCAN");
  if (force != nullptr && *force != '\0' && *force != '0') {
    return DispatchEngine::kScan;
  }
  return engine;
}

// ---- Synthetic wave pairs: one pass over a sparse free set. -------------

/// The steady-state shape on a loaded cluster: nearly every rack is full,
/// a handful have a free container. One in 32 racks free (>= 2 so the
/// walk always wraps across words at 60+ racks).
constexpr std::int32_t kFreeStride = 32;

void BM_OfferQueueWave(benchmark::State& state) {
  const auto racks = static_cast<std::int32_t>(state.range(0));
  OfferQueue offers(racks);
  for (std::int32_t r = 0; r < racks; r += kFreeStride) {
    offers.mark_free(RackId{r});
  }
  std::int32_t start = 0;
  std::int64_t visited = 0;
  for (auto _ : state) {
    offers.for_each_free_from(start, [&](RackId rack) {
      benchmark::DoNotOptimize(rack.value());
      ++visited;
      return true;
    });
    start = (start + 1) % racks;  // the driver's rotating fairness start
  }
  state.SetItemsProcessed(visited);
}
BENCHMARK(BM_OfferQueueWave)->Arg(60)->Arg(256)->Arg(1024);

void BM_FullScanWave(benchmark::State& state) {
  // The reference scan's per-wave work: touch every rack, test for free
  // slots, visit the free ones. The free-slot test is a vector load, like
  // Cluster::free_slots.
  const auto racks = static_cast<std::int32_t>(state.range(0));
  std::vector<std::int64_t> free_slots(static_cast<std::size_t>(racks), 0);
  for (std::int32_t r = 0; r < racks; r += kFreeStride) {
    free_slots[static_cast<std::size_t>(r)] = 1;
  }
  std::int32_t start = 0;
  std::int64_t visited = 0;
  for (auto _ : state) {
    for (std::int32_t k = 0; k < racks; ++k) {
      const std::int32_t rack = (start + k) % racks;
      if (free_slots[static_cast<std::size_t>(rack)] == 0) continue;
      benchmark::DoNotOptimize(rack);
      ++visited;
    }
    start = (start + 1) % racks;
  }
  state.SetItemsProcessed(visited);
}
BENCHMARK(BM_FullScanWave)->Arg(60)->Arg(256)->Arg(1024);

// ---- Full-run pairs: driver.dispatch self time at 10k jobs. -------------

ExperimentConfig dispatch_config(std::int32_t jobs, std::int32_t racks,
                                 DispatchEngine engine) {
  ExperimentConfig cfg;
  cfg.sim.topo = HybridTopology{};  // paper defaults: 60 racks
  cfg.sim.topo.num_racks = racks;
  cfg.workload.num_jobs = jobs;
  cfg.workload.num_users = 20;
  cfg.workload.arrival_window = Duration::minutes(90.0 * jobs / 1000.0);
  cfg.repetitions = 1;
  cfg.base_seed = 42;
  cfg.sim.audit = false;
  cfg.sim.dispatch_engine = engine;
  return cfg;
}

/// One full run per iteration; the reported (manual) time is the
/// `driver.dispatch` phase's total from a per-run capture — the inclusive
/// time of the wave loop, scheduler pick_task cost included, event
/// execution and flow bookkeeping excluded.
void run_and_report_dispatch_time(benchmark::State& state,
                                  DispatchEngine engine) {
  const ExperimentConfig cfg =
      dispatch_config(static_cast<std::int32_t>(state.range(0)),
                      static_cast<std::int32_t>(state.range(1)), engine);
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

void BM_DriverDispatchSelfTime(benchmark::State& state) {
  run_and_report_dispatch_time(
      state, engine_or_forced(DispatchEngine::kOfferQueue));
}
BENCHMARK(BM_DriverDispatchSelfTime)
    ->Args({10000, 60})
    ->Args({10000, 256})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_DriverDispatchSelfTimeScan(benchmark::State& state) {
  run_and_report_dispatch_time(state, DispatchEngine::kScan);
}
BENCHMARK(BM_DriverDispatchSelfTimeScan)
    ->Args({10000, 60})
    ->Args({10000, 256})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
