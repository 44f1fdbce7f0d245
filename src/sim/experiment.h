// Experiment harness: repeated simulation runs over freshly generated
// workloads, aggregated per scheduler — the machinery behind every figure
// reproduction in bench/.
//
// Each repetition r uses an independently forked RNG stream for workload
// generation and seed base_seed + r for the simulation, so schedulers are
// compared on identical workloads within a repetition (paired comparison,
// as in the paper's normalized plots).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "sched/scheduler.h"
#include "sim/driver.h"
#include "workload/generator.h"

namespace cosched {

using SchedulerFactory = std::function<std::unique_ptr<JobScheduler>()>;

struct ExperimentConfig {
  SimConfig sim;
  WorkloadConfig workload;
  std::int32_t repetitions = 5;
  std::uint64_t base_seed = 42;
};

/// Build one of the standard schedulers by name: "fair", "corral",
/// "coscheduler", "mts+ocas", "ocas". Throws on unknown names.
[[nodiscard]] SchedulerFactory make_scheduler_factory(const std::string& name);

/// One run: a single repetition of `factory`'s scheduler on the workload
/// of repetition `rep`. The only runner that records into cfg.sim.obs.
[[nodiscard]] RunMetrics run_once(const ExperimentConfig& cfg,
                                  const SchedulerFactory& factory,
                                  std::int32_t rep);

// The sharded runners below spread their independent run_once calls over
// `threads` workers: 1 = the calling thread alone (the default), 0 = one
// per hardware thread, N > 1 = at most N. Results are bit-for-bit
// identical for every thread count (ctest -L determinism): each run derives
// its RNG streams from (base_seed, rep) alone and fills its own result
// slot, and aggregation walks the slots in order on the calling thread.
// An observability bundle records one run, so they require
// cfg.sim.obs == nullptr; attach one through run_once.

/// All repetitions for one scheduler, as raw per-repetition results in
/// repetition order (the granularity the determinism suite compares).
[[nodiscard]] std::vector<RunMetrics> run_repetitions(
    const ExperimentConfig& cfg, const SchedulerFactory& factory,
    std::int32_t threads = 1);

/// All repetitions for one scheduler, aggregated.
[[nodiscard]] AggregateMetrics run_experiment(const ExperimentConfig& cfg,
                                              const SchedulerFactory& factory,
                                              std::int32_t threads = 1);

/// Paired comparison across schedulers (same workloads per repetition):
/// one aggregate per name, in the order of `names`.
[[nodiscard]] std::vector<AggregateMetrics> compare_schedulers(
    const ExperimentConfig& cfg, const std::vector<std::string>& names,
    std::int32_t threads = 1);

}  // namespace cosched
