// The determinism contract of the experiment harness (ctest -L
// determinism): rerunning the same ExperimentConfig yields byte-identical
// RunMetrics, and the sharded runners (src/sim/experiment.cpp) give the
// same bits per (scheduler, repetition) for every thread count — threads
// may only change wall clock, never results.
//
// Comparisons go through std::bit_cast on every floating-point field, so
// even sign-of-zero or NaN-payload differences would fail; "close enough"
// does not exist here.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/observability.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

const std::vector<std::string> kAllSchedulers{
    "fair", "corral", "coscheduler", "mts+ocas", "ocas"};

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 12;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.workload.num_jobs = 18;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 60;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(50);
  cfg.repetitions = 3;
  cfg.base_seed = seed;
  return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_job_bitwise_equal(const JobRecord& a, const JobRecord& b,
                              const std::string& where) {
  EXPECT_EQ(a.id, b.id) << where;
  EXPECT_EQ(a.user, b.user) << where;
  EXPECT_EQ(a.shuffle_heavy, b.shuffle_heavy) << where;
  EXPECT_EQ(a.has_shuffle, b.has_shuffle) << where;
  EXPECT_EQ(bits(a.arrival.sec()), bits(b.arrival.sec())) << where;
  EXPECT_EQ(bits(a.completion.sec()), bits(b.completion.sec())) << where;
  EXPECT_EQ(bits(a.jct.sec()), bits(b.jct.sec())) << where;
  EXPECT_EQ(bits(a.cct.sec()), bits(b.cct.sec())) << where;
  EXPECT_EQ(a.shuffle_bytes.in_bytes(), b.shuffle_bytes.in_bytes()) << where;
  EXPECT_EQ(bits(a.last_map_completion.sec()),
            bits(b.last_map_completion.sec()))
      << where;
  EXPECT_EQ(bits(a.first_reduce_placement.sec()),
            bits(b.first_reduce_placement.sec()))
      << where;
  EXPECT_EQ(bits(a.cct_lower_bound.sec()), bits(b.cct_lower_bound.sec()))
      << where;
  EXPECT_EQ(a.all_flows_ocs, b.all_flows_ocs) << where;
}

void expect_run_bitwise_equal(const RunMetrics& a, const RunMetrics& b,
                              const std::string& where,
                              bool ignore_events_executed = false) {
  EXPECT_EQ(a.scheduler, b.scheduler) << where;
  EXPECT_EQ(a.seed, b.seed) << where;
  EXPECT_EQ(bits(a.makespan.sec()), bits(b.makespan.sec())) << where;
  EXPECT_EQ(a.ocs_bytes.in_bytes(), b.ocs_bytes.in_bytes()) << where;
  EXPECT_EQ(a.eps_bytes.in_bytes(), b.eps_bytes.in_bytes()) << where;
  EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes()) << where;
  if (!ignore_events_executed) {
    EXPECT_EQ(a.events_executed, b.events_executed) << where;
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << where;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    expect_job_bitwise_equal(a.jobs[j], b.jobs[j],
                             where + " job#" + std::to_string(j));
  }
}

void expect_stat_bitwise_equal(const RunningStat& a, const RunningStat& b,
                               const std::string& where) {
  EXPECT_EQ(a.count(), b.count()) << where;
  EXPECT_EQ(bits(a.mean()), bits(b.mean())) << where;
  EXPECT_EQ(bits(a.variance()), bits(b.variance())) << where;
  EXPECT_EQ(bits(a.min()), bits(b.min())) << where;
  EXPECT_EQ(bits(a.max()), bits(b.max())) << where;
  EXPECT_EQ(bits(a.sum()), bits(b.sum())) << where;
}

void expect_aggregate_bitwise_equal(const AggregateMetrics& a,
                                    const AggregateMetrics& b,
                                    const std::string& where) {
  EXPECT_EQ(a.scheduler, b.scheduler) << where;
  EXPECT_EQ(a.repetitions, b.repetitions) << where;
  expect_stat_bitwise_equal(a.makespan_sec, b.makespan_sec,
                            where + " makespan");
  expect_stat_bitwise_equal(a.avg_jct_sec, b.avg_jct_sec, where + " jct");
  expect_stat_bitwise_equal(a.avg_cct_sec, b.avg_cct_sec, where + " cct");
  expect_stat_bitwise_equal(a.avg_jct_heavy_sec, b.avg_jct_heavy_sec,
                            where + " jct_heavy");
  expect_stat_bitwise_equal(a.avg_jct_light_sec, b.avg_jct_light_sec,
                            where + " jct_light");
  expect_stat_bitwise_equal(a.avg_cct_heavy_sec, b.avg_cct_heavy_sec,
                            where + " cct_heavy");
  expect_stat_bitwise_equal(a.avg_cct_light_sec, b.avg_cct_light_sec,
                            where + " cct_light");
  expect_stat_bitwise_equal(a.ocs_fraction, b.ocs_fraction,
                            where + " ocs_fraction");
}

TEST(Determinism, SerialRerunIsByteIdentical) {
  const ExperimentConfig cfg = small_config(42);
  for (const std::string& name : kAllSchedulers) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const std::vector<RunMetrics> first = run_repetitions(cfg, factory);
    const std::vector<RunMetrics> second = run_repetitions(cfg, factory);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t rep = 0; rep < first.size(); ++rep) {
      expect_run_bitwise_equal(
          first[rep], second[rep],
          name + " rep" + std::to_string(rep) + " (serial rerun)");
    }
  }
}

TEST(Determinism, ParallelMatchesSerialPerRepetition) {
  const ExperimentConfig cfg = small_config(7);
  for (const std::string& name : kAllSchedulers) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const std::vector<RunMetrics> serial = run_repetitions(cfg, factory);
    const std::vector<RunMetrics> parallel = run_repetitions(cfg, factory, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t rep = 0; rep < serial.size(); ++rep) {
      expect_run_bitwise_equal(
          serial[rep], parallel[rep],
          name + " rep" + std::to_string(rep) + " (parallel vs serial)");
    }
  }
}

TEST(Determinism, ParallelCompareSchedulersMatchesSerial) {
  const ExperimentConfig cfg = small_config(1234);
  const std::vector<AggregateMetrics> serial =
      compare_schedulers(cfg, kAllSchedulers);
  const std::vector<AggregateMetrics> parallel =
      compare_schedulers(cfg, kAllSchedulers, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    expect_aggregate_bitwise_equal(serial[s], parallel[s],
                                   kAllSchedulers[s] + " (aggregate)");
  }
}

TEST(Determinism, HardwareConcurrencyMatchesSerial) {
  const ExperimentConfig cfg = small_config(99);
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  const std::vector<RunMetrics> serial = run_repetitions(cfg, factory);
  // threads = 0: one worker per hardware thread.
  const std::vector<RunMetrics> parallel = run_repetitions(cfg, factory, 0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    expect_run_bitwise_equal(serial[rep], parallel[rep],
                             "threads=0 rep" + std::to_string(rep));
  }
}

// Attaching an observability bundle must not perturb simulation results:
// every repetition recorded through run_once equals the dark sharded run
// of the same repetition. The one exemption is events_executed: the
// CounterRegistry samples gauges via extra simulator events, which are
// counted but never touch simulation state.
TEST(Determinism, ObservabilityAttachmentDoesNotPerturbParallelResults) {
  const ExperimentConfig cfg = small_config(5);
  const SchedulerFactory factory = make_scheduler_factory("coscheduler");
  const std::vector<RunMetrics> dark = run_repetitions(cfg, factory, 4);
  for (std::size_t rep = 0; rep < dark.size(); ++rep) {
    Observability obs;
    ExperimentConfig observed = cfg;
    observed.sim.obs = &obs;
    const RunMetrics run =
        run_once(observed, factory, static_cast<std::int32_t>(rep));
    expect_run_bitwise_equal(dark[rep], run,
                             "observed rep" + std::to_string(rep),
                             /*ignore_events_executed=*/true);
    EXPECT_GT(obs.trace.events().size(), 0u) << "rep" << rep;
  }
}

// An observability bundle records one run, so every sharded runner refuses
// one up front — before any run starts, whatever the thread count — and
// points to run_once.
TEST(Determinism, ShardedRunnersRefuseAnObservabilityBundle) {
  ExperimentConfig cfg = small_config(3);
  Observability obs;
  cfg.sim.obs = &obs;
  const SchedulerFactory factory = make_scheduler_factory("fair");
  for (const std::int32_t threads : {1, 4}) {
    const std::vector<std::function<void()>> runners{
        [&] { (void)run_repetitions(cfg, factory, threads); },
        [&] { (void)run_experiment(cfg, factory, threads); },
        [&] { (void)compare_schedulers(cfg, {"fair"}, threads); }};
    for (const auto& runner : runners) {
      try {
        runner();
        ADD_FAILURE() << "threads=" << threads << ": no CheckFailure";
      } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find("run_once"), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_TRUE(obs.trace.events().empty());
}

// A run that throws (COSCHED_CHECK throws CheckFailure) fails the whole
// sharded call on the calling thread, whichever worker it ran on. Serially
// the failing run is also the last one started.
TEST(Determinism, FailingRunRethrowsOnTheCaller) {
  const ExperimentConfig cfg = small_config(8);
  for (const std::int32_t threads : {1, 4}) {
    std::atomic<int> calls{0};
    const SchedulerFactory factory = [&calls]() {
      COSCHED_CHECK_MSG(calls.fetch_add(1) != 1, "second factory call");
      return make_scheduler_factory("fair")();
    };
    EXPECT_THROW((void)run_repetitions(cfg, factory, threads), CheckFailure)
        << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(calls.load(), 2);
    }
  }
}

}  // namespace
}  // namespace cosched
