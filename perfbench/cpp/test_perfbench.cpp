// Tests of the benchmark's own code: the layer timers leave simulated
// results bit-identical, the output checks reject doctored RunMetrics, and
// the latency histogram reads percentiles within its bucket width.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "checks.h"
#include "layer_trace.h"
#include "workloads.h"

using namespace cosched;
using namespace perfbench;

namespace {

constexpr std::int32_t kSmallJobs = 40;

/// One replay of `w`'s configuration on a small trace; traced when `layers`
/// is given, with the host seconds of its run() in `run_s`.
RunMetrics replay(const BenchWorkload& w, std::uint64_t seed,
                  LayerTrace* layers, double* run_s = nullptr) {
  SimConfig cfg = sim_config(w, kSmallJobs, seed);
  if (layers != nullptr) {
    TimedDriver driver(cfg, generate_trace(kSmallJobs),
                       std::make_unique<TimedScheduler>(make_scheduler(w),
                                                        *layers),
                       *layers);
    const auto t0 = Clock::now();
    RunMetrics m = driver.run();
    if (run_s != nullptr) {
      *run_s = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    return m;
  }
  SimulationDriver driver(cfg, generate_trace(kSmallJobs), make_scheduler(w));
  return driver.run();
}

class DecoratorIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoratorIdentity, TracedRunIsBitIdenticalToUntraced) {
  const BenchWorkload* w = find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  const bool defers = make_scheduler(*w)->defers_reduces();
  for (const std::uint64_t seed : {1u, 2u}) {
    LayerTrace layers;
    double run_s = 0.0;
    const RunMetrics dark = replay(*w, seed, nullptr);
    const RunMetrics traced = replay(*w, seed, &layers, &run_s);
    EXPECT_EQ(result_digest(dark), result_digest(traced)) << "seed " << seed;
    EXPECT_EQ(check_run(generate_trace(kSmallJobs), traced,
                        !sim_config(*w, kSmallJobs, seed)
                             .faults.container_kill.has_value())
                  .jobs_failed,
              0);

    EXPECT_EQ(layers.depth, 0);
    EXPECT_EQ(layers.submit.calls, kSmallJobs);
    EXPECT_EQ(layers.submit_spans.size(), std::size_t{kSmallJobs});
    EXPECT_GT(layers.pick.calls, 0);
    EXPECT_EQ(layers.pick_ns.count(),
              static_cast<std::uint64_t>(layers.pick.calls));
    EXPECT_GT(layers.hook.calls, 0);
    // Reduce planning runs only where reduces are deferred.
    EXPECT_EQ(layers.plan.calls > 0, defers);
    EXPECT_EQ(layers.plan_spans.size(),
              static_cast<std::size_t>(layers.plan.calls));
    EXPECT_EQ(layers.availability.calls > 0, defers);
    EXPECT_LE(layers.availability_in_sched_s,
              layers.availability.total_s + 1e-12);

    std::int64_t by_class = 0;
    for (const std::int64_t n : layers.grants_by_class) by_class += n;
    EXPECT_EQ(by_class, layers.grants);
    EXPECT_EQ(layers.grants_by_class[0] == layers.grants, !defers);

    // The timed parts fit inside the run they were timed in.
    EXPECT_GE(layers.engine_self_s(run_s), 0.0);
  }
}

TEST_P(DecoratorIdentity, SeedChangesTheSchedule) {
  const BenchWorkload* w = find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  EXPECT_NE(result_digest(replay(*w, 1, nullptr)),
            result_digest(replay(*w, 2, nullptr)));
}

INSTANTIATE_TEST_SUITE_P(Workloads, DecoratorIdentity,
                         ::testing::Values("cosched-ocs", "fair-eps",
                                           "cosched-rotor-faults"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class Checks : public ::testing::Test {
 protected:
  void SetUp() override {
    const BenchWorkload* w = find_workload("cosched-ocs");
    ASSERT_NE(w, nullptr);
    trace = generate_trace(kSmallJobs);
    run = replay(*w, 1, nullptr);
  }

  [[nodiscard]] CheckResult check(bool cct_bound_applies = true) const {
    return check_run(trace, run, cct_bound_applies);
  }

  std::vector<JobSpec> trace;
  RunMetrics run;
};

TEST_F(Checks, CleanRunPasses) {
  const CheckResult r = check();
  EXPECT_EQ(r.jobs_attempted, kSmallJobs);
  EXPECT_EQ(r.jobs_failed, 0);
  EXPECT_TRUE(r.messages.empty());
}

TEST_F(Checks, MissingRecordFailsItsJob) {
  const JobRecord dropped = run.jobs.back();
  run.jobs.pop_back();
  run.ocs_bytes = DataSize::bytes(run.ocs_bytes.in_bytes() -
                                  dropped.shuffle_bytes.in_bytes());
  const CheckResult r = check();
  EXPECT_EQ(r.jobs_failed, 1);
  ASSERT_FALSE(r.messages.empty());
  EXPECT_NE(r.messages[0].find("no record"), std::string::npos);
}

TEST_F(Checks, DuplicateRecordFailsItsJob) {
  const JobRecord copy = run.jobs.front();
  run.jobs.push_back(copy);
  run.ocs_bytes = DataSize::bytes(run.ocs_bytes.in_bytes() +
                                  copy.shuffle_bytes.in_bytes());
  EXPECT_EQ(check().jobs_failed, 1);
}

TEST_F(Checks, CompletionBeforeArrivalFailsItsJob) {
  run.jobs[3].completion = run.jobs[3].arrival - Duration::seconds(1);
  EXPECT_EQ(check().jobs_failed, 1);
}

TEST_F(Checks, ArrivalDifferentFromTraceFailsItsJob) {
  run.jobs[5].arrival = run.jobs[5].arrival + Duration::seconds(1);
  EXPECT_EQ(check().jobs_failed, 1);
}

TEST_F(Checks, UnconservedBytesFailEveryJob) {
  run.eps_bytes = DataSize::bytes(run.eps_bytes.in_bytes() +
                                  DataSize::gigabytes(1).in_bytes());
  EXPECT_EQ(check().jobs_failed, kSmallJobs);
}

TEST_F(Checks, RecordOutsideTheTraceFailsEveryJob) {
  run.jobs.front().id = JobId{1000000};
  EXPECT_EQ(check().jobs_failed, kSmallJobs);
}

TEST_F(Checks, CctBelowBoundFailsOnlyWhenTheBoundApplies) {
  JobRecord* circuit_job = nullptr;
  for (JobRecord& rec : run.jobs) {
    if (rec.has_shuffle && rec.all_flows_ocs &&
        rec.cct_lower_bound > Duration::zero()) {
      circuit_job = &rec;
      break;
    }
  }
  ASSERT_NE(circuit_job, nullptr);
  circuit_job->cct = circuit_job->cct_lower_bound * 0.5;
  EXPECT_EQ(check(/*cct_bound_applies=*/true).jobs_failed, 1);
  EXPECT_EQ(check(/*cct_bound_applies=*/false).jobs_failed, 0);
}

TEST_F(Checks, DigestSeesEveryRecordField) {
  const std::uint64_t clean = result_digest(run);
  RunMetrics doctored = run;
  doctored.jobs[7].cct_lower_bound =
      doctored.jobs[7].cct_lower_bound + Duration::microseconds(1);
  EXPECT_NE(result_digest(doctored), clean);
  doctored = run;
  doctored.dispatch_waves += 1;
  EXPECT_NE(result_digest(doctored), clean);
}

TEST(LatencyHistogramTest, BucketsCoverTheirValues) {
  for (std::uint64_t ns = 0; ns < 100000; ns += 7) {
    const std::size_t b = LatencyHistogram::bucket_of(ns);
    EXPECT_LE(LatencyHistogram::bucket_low(b), ns);
    EXPECT_GT(LatencyHistogram::bucket_low(b + 1), ns);
  }
  const std::uint64_t big = std::uint64_t{1} << 62;
  EXPECT_LE(LatencyHistogram::bucket_low(LatencyHistogram::bucket_of(big)),
            big);
}

TEST(LatencyHistogramTest, QuantilesWithinBucketWidth) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_ns(0.5), 0.0);
  for (std::uint64_t ns = 1; ns <= 10000; ++ns) h.add(ns);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.quantile_ns(0.50), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(h.quantile_ns(0.99), 9900.0, 9900.0 * 0.07);
}

}  // namespace
