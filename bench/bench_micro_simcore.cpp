// Microbenchmarks for the discrete-event core: schedule/fire throughput,
// with small and 24-byte closures, cancellation tombstoning, the EPS-style
// cancel+reschedule churn that dominates event-queue traffic during
// flow-rate replans, and the driver's completion -> dispatch -> start
// chain, whose zero-delay half skips the heap.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "simcore/simulator.h"

namespace cosched {
namespace {

// Pure schedule+fire throughput: fill a queue, drain it.
void BM_SimScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::int64_t fired = 0;
  for (auto _ : state) {
    Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      // Spread timestamps so the heap actually reorders, with ties to
      // exercise the seq-number ordering too.
      sim.schedule_at(SimTime::seconds(static_cast<double>(i % 97)),
                      [&fired] { ++fired; });
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_SimScheduleFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// BM_SimScheduleFire with a 24-byte closure, the size of a task
// completion's [this, job, task]: past the 16 bytes std::function keeps
// inline, within EventAction's 32.
void BM_SimScheduleFire24(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::int64_t fired = 0;
  std::int64_t step = state.range(0) & 1;  // run-time data, not a constant
  for (auto _ : state) {
    Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      auto action = [&fired, id, step] { fired += id * step + 1; };
      static_assert(sizeof(action) == 24);
      sim.schedule_at(SimTime::seconds(static_cast<double>(i % 97)), action);
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(step);
}
BENCHMARK(BM_SimScheduleFire24)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Schedule a batch, cancel every other event, drain the rest: the pop loop
// must skip the tombstones.
void BM_SimScheduleCancelFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::int64_t fired = 0;
  std::vector<EventHandle> handles(n);
  for (auto _ : state) {
    Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      handles[i] = sim.schedule_at(
          SimTime::seconds(static_cast<double>(i % 97)), [&fired] { ++fired; });
    }
    for (std::size_t i = 0; i < n; i += 2) handles[i].cancel();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_SimScheduleCancelFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// The flow-replan pattern: n live completion events; every round cancels
// and reschedules all of them slightly later, then fires the earliest.
// Tombstones pile up ahead of the clock, so this is the scenario that
// rewards cheap cancellation and queue compaction.
void BM_SimReplanChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Simulator sim;
  std::vector<EventHandle> handles(n);
  std::int64_t fired = 0;
  double base = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    handles[i] = sim.schedule_at(
        SimTime::seconds(base + static_cast<double>(i)), [&fired] { ++fired; });
  }
  for (auto _ : state) {
    base += 1e-3;
    for (std::size_t i = 0; i < n; ++i) {
      handles[i].cancel();
      handles[i] = sim.schedule_at(
          SimTime::seconds(base + static_cast<double>(i)),
          [&fired] { ++fired; });
    }
    sim.step();  // fire the earliest so simulated time keeps advancing
  }
  // One item = one cancel+reschedule pair.
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_SimReplanChurn)->Arg(1 << 10)->Arg(1 << 12);

// The driver's per-task pattern over a resident heap of `n` timed events
// (2600 is the mean heap size of a 2000-job Co-scheduler replay): a
// completion fires and schedules a zero-delay dispatch, which fires and
// starts a task, scheduling its completion at a pseudo-random later time.
class DispatchChain {
 public:
  explicit DispatchChain(std::int64_t resident) {
    for (std::int64_t i = 0; i < resident; ++i) start_task();
  }
  void step() { sim_.step(); }
  [[nodiscard]] std::int64_t fired() const { return fired_; }

 private:
  void start_task() {
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const double delay = 1.0 + static_cast<double>(lcg_ >> 44) * 1e-4;
    sim_.schedule_after(Duration::seconds(delay), [this] { complete(); });
  }
  void complete() {
    ++fired_;
    sim_.schedule_after(Duration::zero(), [this] { dispatch(); });
  }
  void dispatch() {
    ++fired_;
    start_task();
  }

  Simulator sim_;
  std::uint64_t lcg_ = 1;
  std::int64_t fired_ = 0;
};

void BM_SimDispatchChain(benchmark::State& state) {
  DispatchChain chain(state.range(0));
  for (auto _ : state) {
    chain.step();  // a completion
    chain.step();  // its dispatch
  }
  // One item = one event fired.
  state.SetItemsProcessed(state.iterations() * 2);
  benchmark::DoNotOptimize(chain.fired());
}
BENCHMARK(BM_SimDispatchChain)->Arg(2600);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
