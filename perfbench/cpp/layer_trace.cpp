#include "layer_trace.h"

#include <bit>
#include <ostream>

namespace perfbench {

using namespace cosched;

namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

// ----- LatencyHistogram -----------------------------------------------------

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  constexpr std::uint64_t kSub = 1ULL << kSubBits;
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int exp = std::bit_width(ns) - 1;  // >= kSubBits
  const std::uint64_t sub = (ns >> (exp - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>((exp - kSubBits + 1) << kSubBits) +
         static_cast<std::size_t>(sub);
}

std::uint64_t LatencyHistogram::bucket_low(std::size_t bucket) {
  constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  if (bucket < kSub) return bucket;
  const int exp = static_cast<int>(bucket >> kSubBits) + kSubBits - 1;
  const std::uint64_t sub = bucket & (kSub - 1);
  return (std::uint64_t{1} << exp) | (sub << (exp - kSubBits));
}

void LatencyHistogram::add(std::uint64_t ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
}

double LatencyHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= target) {
      const double low = static_cast<double>(bucket_low(b));
      const double high = b + 1 < kBuckets
                              ? static_cast<double>(bucket_low(b + 1))
                              : low;
      return (low + high) / 2.0;
    }
  }
  return static_cast<double>(bucket_low(kBuckets - 1));
}

// ----- LayerTrace -----------------------------------------------------------

void LayerTrace::write_spans(std::ostream& os) const {
  os << "layer,start_s,dur_s,job\n";
  const auto dump = [&os](const char* layer, const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      os << layer << ',' << s.start_s << ',' << s.dur_s << ',' << s.job
         << '\n';
    }
  };
  dump("sched.submit", submit_spans);
  dump("sched.plan", plan_spans);
}

// ----- TimedScheduler -------------------------------------------------------

Clock::time_point TimedScheduler::enter() {
  ++trace_.depth;
  return Clock::now();
}

double TimedScheduler::leave(Clock::time_point start, CallStats& stats) {
  const double d = seconds(Clock::now() - start);
  --trace_.depth;
  ++stats.calls;
  stats.total_s += d;
  return d;
}

void TimedScheduler::on_job_submitted(Job& job, SchedContext& ctx) {
  const auto t0 = enter();
  inner_->on_job_submitted(job, ctx);
  const double d = leave(t0, trace_.submit);
  trace_.submit_spans.push_back(
      {seconds(t0 - trace_.origin), d, job.id().value()});
}

void TimedScheduler::on_maps_completed(Job& job, SchedContext& ctx) {
  const bool plans = inner_->defers_reduces();
  const auto t0 = enter();
  inner_->on_maps_completed(job, ctx);
  const double d = leave(t0, plans ? trace_.plan : trace_.hook);
  if (plans) {
    trace_.plan_spans.push_back(
        {seconds(t0 - trace_.origin), d, job.id().value()});
  }
}

std::optional<TaskChoice> TimedScheduler::pick_task(RackId rack,
                                                    SchedContext& ctx) {
  ++trace_.depth;
  const auto t0 = Clock::now();
  auto choice = inner_->pick_task(rack, ctx);
  const auto elapsed = Clock::now() - t0;
  --trace_.depth;
  ++trace_.pick.calls;
  trace_.pick.total_s += seconds(elapsed);
  trace_.pick_ns.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  if (choice) {
    ++trace_.grants;
    const std::int32_t cls = choice->priority_class;
    ++trace_.grants_by_class[cls >= 1 && cls <= 6
                                 ? static_cast<std::size_t>(cls)
                                 : 0];
  }
  return choice;
}

void TimedScheduler::on_task_placed(Job& job, Task& task, RackId rack) {
  const auto t0 = enter();
  inner_->on_task_placed(job, task, rack);
  leave(t0, trace_.hook);
}

void TimedScheduler::on_task_completed(Job& job, Task& task, RackId rack) {
  const auto t0 = enter();
  inner_->on_task_completed(job, task, rack);
  leave(t0, trace_.hook);
}

void TimedScheduler::on_task_requeued(Job& job, Task& task, RackId rack) {
  const auto t0 = enter();
  inner_->on_task_requeued(job, task, rack);
  leave(t0, trace_.hook);
}

void TimedScheduler::on_job_completed(Job& job) {
  const auto t0 = enter();
  inner_->on_job_completed(job);
  leave(t0, trace_.hook);
}

void TimedScheduler::on_reduce_plan_cleared(Job& job) {
  const auto t0 = enter();
  inner_->on_reduce_plan_cleared(job);
  leave(t0, trace_.hook);
}

// ----- TimedDriver ----------------------------------------------------------

Duration TimedDriver::estimate_availability(RackId rack, std::int64_t count) {
  const auto t0 = Clock::now();
  const Duration d = SimulationDriver::estimate_availability(rack, count);
  const double s = seconds(Clock::now() - t0);
  ++layers_.availability.calls;
  layers_.availability.total_s += s;
  if (layers_.depth > 0) layers_.availability_in_sched_s += s;
  return d;
}

}  // namespace perfbench
