// Layer timing from outside the library, for the benchmark's traced run.
//
//  * TimedScheduler decorates any JobScheduler: it forwards every decision
//    virtual, state-change hook, declines_are_stable, last_decline_was_global
//    and audit_invariants to the wrapped scheduler and times the calls. It
//    deliberately does not forward the engine selectors; the wrapped
//    scheduler keeps its own default engine, which is also the driver's.
//  * TimedDriver is a SimulationDriver whose availability oracle — the
//    AvailabilityOracle every SchedContext hands the scheduler — is timed.
//
// Neither touches simulation state, so a traced run's simulated results are
// bit-identical to an untraced run's; the benchmark checks that on every
// traced run. Time not spent in the scheduler or the oracle is the engine's
// (driver, event core, EPS, circuit fabric): run minus the two.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "sim/driver.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Log-linear histogram of nanosecond latencies: 16 sub-buckets per power
/// of two, so a percentile is read to within ~6 %.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns);
  /// The q-quantile (q in (0, 1]) in nanoseconds, at its bucket's midpoint;
  /// 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns);
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t bucket);

 private:
  static constexpr int kSubBits = 4;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

struct CallStats {
  std::int64_t calls = 0;
  /// Inclusive host seconds.
  double total_s = 0.0;
};

/// One timed call kept in full: when it started (host seconds since the
/// trace began), how long it took, and the job it served.
struct Span {
  double start_s = 0.0;
  double dur_s = 0.0;
  std::int64_t job = -1;
};

struct LayerTrace {
  /// on_job_submitted: MTS and input-block placement.
  CallStats submit;
  /// on_maps_completed of a reduce-deferring scheduler: PSRT + SBS. For an
  /// overlapping scheduler the call only notifies (its reduces are already
  /// placed), so it counts as a hook.
  CallStats plan;
  CallStats pick;
  /// The state-change hooks.
  CallStats hook;
  /// Availability-oracle (T_rem) queries, wherever they come from.
  CallStats availability;
  /// The part of availability.total_s spent inside a scheduler call.
  double availability_in_sched_s = 0.0;

  LatencyHistogram pick_ns;
  std::int64_t grants = 0;
  /// Grants by TaskChoice::priority_class: [0] unclassed, [1..6] the OCAS
  /// classes.
  std::array<std::int64_t, 7> grants_by_class{};

  std::vector<Span> submit_spans;
  std::vector<Span> plan_spans;

  /// Scheduler calls currently open (0 or 1: SimulationDriver never nests
  /// them).
  int depth = 0;
  Clock::time_point origin = Clock::now();

  /// Inclusive seconds of every scheduler call.
  [[nodiscard]] double sched_inclusive_s() const {
    return submit.total_s + plan.total_s + pick.total_s + hook.total_s;
  }
  /// Scheduler self time: inclusive minus the oracle queries it made.
  [[nodiscard]] double sched_self_s() const {
    return sched_inclusive_s() - availability_in_sched_s;
  }
  /// What is left of `run_s` outside the scheduler and the oracle.
  [[nodiscard]] double engine_self_s(double run_s) const {
    return run_s - sched_self_s() - availability.total_s;
  }
  /// The kept spans as CSV: layer,start_s,dur_s,job.
  void write_spans(std::ostream& os) const;
};

class TimedScheduler final : public cosched::JobScheduler {
 public:
  TimedScheduler(std::unique_ptr<cosched::JobScheduler> inner,
                 LayerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool defers_reduces() const override {
    return inner_->defers_reduces();
  }
  void on_job_submitted(cosched::Job& job,
                        cosched::SchedContext& ctx) override;
  void on_maps_completed(cosched::Job& job,
                         cosched::SchedContext& ctx) override;
  std::optional<cosched::TaskChoice> pick_task(
      cosched::RackId rack, cosched::SchedContext& ctx) override;
  [[nodiscard]] bool declines_are_stable() const override {
    return inner_->declines_are_stable();
  }
  [[nodiscard]] bool last_decline_was_global() const override {
    return inner_->last_decline_was_global();
  }

  void on_task_placed(cosched::Job& job, cosched::Task& task,
                      cosched::RackId rack) override;
  void on_task_completed(cosched::Job& job, cosched::Task& task,
                         cosched::RackId rack) override;
  void on_task_requeued(cosched::Job& job, cosched::Task& task,
                        cosched::RackId rack) override;
  void on_job_completed(cosched::Job& job) override;
  void on_reduce_plan_cleared(cosched::Job& job) override;

  [[nodiscard]] std::string audit_invariants(
      const std::vector<cosched::Job*>& active_jobs) const override {
    return inner_->audit_invariants(active_jobs);
  }

 private:
  Clock::time_point enter();
  /// Close the call opened at `start`, charge it to `stats`, and return its
  /// duration in seconds.
  double leave(Clock::time_point start, CallStats& stats);

  std::unique_ptr<cosched::JobScheduler> inner_;
  LayerTrace& trace_;
};

class TimedDriver final : public cosched::SimulationDriver {
 public:
  TimedDriver(cosched::SimConfig cfg, std::vector<cosched::JobSpec> trace,
              std::unique_ptr<cosched::JobScheduler> scheduler,
              LayerTrace& layers)
      : SimulationDriver(std::move(cfg), std::move(trace),
                         std::move(scheduler)),
        layers_(layers) {}

  cosched::Duration estimate_availability(cosched::RackId rack,
                                          std::int64_t count) override;

 private:
  LayerTrace& layers_;
};

}  // namespace perfbench
