#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "sched/corral.h"
#include "sched/coscheduler.h"
#include "sched/fair.h"

namespace cosched {

SchedulerFactory make_scheduler_factory(const std::string& name) {
  if (name == "fair") {
    return [] { return std::make_unique<FairScheduler>(); };
  }
  if (name == "corral") {
    return [] { return std::make_unique<CorralScheduler>(); };
  }
  if (name == "coscheduler") {
    return [] { return std::make_unique<CoScheduler>(); };
  }
  if (name == "mts+ocas") {
    return [] {
      CoScheduler::Options opts;
      opts.enable_reduce_planning = false;
      return std::make_unique<CoScheduler>(opts);
    };
  }
  if (name == "ocas") {
    return [] {
      CoScheduler::Options opts;
      opts.enable_mts = false;
      opts.enable_reduce_planning = false;
      return std::make_unique<CoScheduler>(opts);
    };
  }
  COSCHED_CHECK_MSG(false, "unknown scheduler: " << name);
  return {};
}

RunMetrics run_once(const ExperimentConfig& cfg,
                    const SchedulerFactory& factory, std::int32_t rep) {
  Rng workload_rng =
      Rng(cfg.base_seed).fork(static_cast<std::uint64_t>(rep) + 1);
  std::vector<JobSpec> jobs = generate_workload(cfg.workload, workload_rng);

  SimConfig sim_cfg = cfg.sim;
  sim_cfg.seed = cfg.base_seed + static_cast<std::uint64_t>(rep) * 1000003ULL;
  SimulationDriver driver(sim_cfg, std::move(jobs), factory());
  return driver.run();
}

namespace {

/// Every (factory, repetition) run, one result slot each, factory-major:
/// slot f * repetitions + rep. The calling thread and min(threads, runs) - 1
/// helper threads take slot indices from one atomic cursor; with one worker
/// that is the plain in-order loop. The first exception stops further runs
/// and is rethrown on the caller once every helper has joined.
std::vector<RunMetrics> run_grid(const ExperimentConfig& cfg,
                                 const std::vector<SchedulerFactory>& factories,
                                 std::int32_t threads) {
  COSCHED_CHECK(cfg.repetitions >= 1);
  COSCHED_CHECK_MSG(threads >= 0, "thread count must be >= 0");
  COSCHED_CHECK_MSG(cfg.sim.obs == nullptr,
                    "an observability bundle records a single run: attach "
                    "it through run_once, not a sharded runner");
  const auto reps = static_cast<std::size_t>(cfg.repetitions);
  const std::size_t runs = factories.size() * reps;
  std::vector<RunMetrics> slots(runs);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= runs) return;
      try {
        slots[i] = run_once(cfg, factories[i / reps],
                            static_cast<std::int32_t>(i % reps));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t workers = std::min<std::size_t>(
      threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                   : static_cast<std::size_t>(threads),
      runs);
  {
    // jthread joins on destruction, also when starting a helper throws.
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);
  return slots;
}

}  // namespace

std::vector<RunMetrics> run_repetitions(const ExperimentConfig& cfg,
                                        const SchedulerFactory& factory,
                                        std::int32_t threads) {
  return run_grid(cfg, {factory}, threads);
}

AggregateMetrics run_experiment(const ExperimentConfig& cfg,
                                const SchedulerFactory& factory,
                                std::int32_t threads) {
  AggregateMetrics agg;
  for (const RunMetrics& run : run_repetitions(cfg, factory, threads)) {
    agg.add(run);
  }
  return agg;
}

std::vector<AggregateMetrics> compare_schedulers(
    const ExperimentConfig& cfg, const std::vector<std::string>& names,
    std::int32_t threads) {
  // Resolve every name up front so an unknown scheduler fails fast and
  // deterministically, before any simulation work starts.
  std::vector<SchedulerFactory> factories;
  factories.reserve(names.size());
  for (const std::string& name : names) {
    factories.push_back(make_scheduler_factory(name));
  }
  const std::vector<RunMetrics> slots = run_grid(cfg, factories, threads);

  const auto reps = static_cast<std::size_t>(cfg.repetitions);
  std::vector<AggregateMetrics> out(names.size());
  for (std::size_t i = 0; i < slots.size(); ++i) out[i / reps].add(slots[i]);
  return out;
}

}  // namespace cosched
