// Wall-clock cost attribution for the simulator's hot paths: the one
// in-process wall-clock profiler.
//
// Besides "how much total wall-clock did phase X burn", the PerfMonitor
// answers the scale-campaign question: *how does the cost of one
// invocation grow with problem size?* Every instrumented phase records a
// per-invocation latency into a log-bucketed LatencyHistogram
// (p50/p90/p99/max) and attributes the cost to a log2-bucketed *size*
// axis — jobs considered by an OCAS grant loop, racks scanned by an SBS
// explore, flows in an EPS replan — so one monitored run yields the whole
// cost-vs-scale curve per phase.
//
//   std::optional<TaskChoice> CoScheduler::pick_task(...) {
//     PerfScope perf(PerfPhase::kOcasGrant);
//     perf.set_size(ctx.active_jobs.size());
//     ...
//   }
//
// Monitoring is pay-for-what-you-use: a PerfScope constructed while its
// thread has no capture open is one thread-local load and never touches
// the clock. Monitoring changes nothing the simulation can see — the
// monitor only reads wall clocks and its own capture, so monitored runs are
// bit-for-bit identical to dark runs (test- and fuzzer-pinned, the same
// guarantee the auditor gives).
//
// Every record goes to the capture its thread has open, and nowhere else
// (hot paths live in leaf libraries that know nothing about the driver, so
// the capture is found through a thread-local). The driver brackets every
// run that carries an Observability bundle with begin_capture()/
// end_capture(), so attaching the bundle is what monitors a run, and a
// repetition's snapshot contains only its own invocations even when other
// repetitions share the process or run concurrently. A harness that runs
// without a bundle (bench_scale) opens its own capture.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>

#include "obs/latency_histogram.h"

namespace cosched {

/// The instrumented phases. Names (to_string) are stable identifiers used
/// in RunReport JSON and tools/run_report.py — extend, don't renumber.
enum class PerfPhase : std::uint8_t {
  kPsrtEnumerate = 0,  ///< PSRT R_red enumeration; size = map racks >= T_e
  kSbsExplore,         ///< SBS ExploreSchedule; size = candidates x racks
  kOcasGrant,          ///< OCAS per-class grant loop; size = active jobs
  kSchedPickTask,      ///< baseline pick_task (Fair/Corral); size = active jobs
  kSunflowAlloc,       ///< Sunflow circuit selection; size = pending flows
  kEpsReplan,          ///< EPS rate recompute + replan; size = active flows
  kEventDispatch,      ///< one simulator event; size = live events pending
  kDriverDispatch,     ///< driver container-grant pass; size = racks scanned
  /// EPS max-min rate fill; size = flow groups (grouped engine) or active
  /// flows (reference engine).
  kEpsFillRates,
  /// Hopcroft-Karp maximum bipartite matching; size = left + right vertices.
  kMatchingHopcroftKarp,
  /// T_rem rack-availability estimate; size = containers requested.
  kDriverEstimateAvailability,
};
inline constexpr std::size_t kPerfPhaseCount = 11;

[[nodiscard]] const char* to_string(PerfPhase phase);

/// Accumulated statistics for one phase: the per-invocation latency
/// distribution plus cost attributed to log2 size buckets.
struct PerfPhaseStats {
  /// by_size[b] aggregates invocations whose size has bit width b, i.e.
  /// size 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... (65 buckets).
  struct SizeBucket {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t total_size = 0;
  };
  static constexpr std::size_t kSizeBuckets = 65;

  LatencyHistogram latency;
  std::array<SizeBucket, kSizeBuckets> by_size{};
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;

  [[nodiscard]] static std::size_t size_bucket_index(std::uint64_t size);
  /// Inclusive lower bound of size bucket `b` (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static std::uint64_t size_bucket_lo(std::size_t b);
  /// Inclusive upper bound of size bucket `b` (0, 1, 3, 7, 15, ...).
  [[nodiscard]] static std::uint64_t size_bucket_hi(std::size_t b);

  void add(std::uint64_t ns, std::uint64_t size);
  void merge(const PerfPhaseStats& other);
};

/// A copyable view of every phase; what captures and the RunReport
/// exporter trade in.
struct PerfSnapshot {
  std::array<PerfPhaseStats, kPerfPhaseCount> phases{};

  [[nodiscard]] const PerfPhaseStats& phase(PerfPhase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] bool empty() const;
  void merge(const PerfSnapshot& other);
};

class PerfMonitor {
 public:
  /// True when this thread has a capture open, i.e. its scopes record.
  [[nodiscard]] static bool capturing() { return capture_ != nullptr; }

  /// Attribute one invocation to this thread's open capture; a no-op when
  /// none is open.
  static void record(PerfPhase phase, std::uint64_t ns, std::uint64_t size);

  /// Attribute this thread's record() calls into `out` until end_capture().
  /// `out` is cleared first and must outlive the capture. Thread-local:
  /// other threads' records never leak into the capture.
  static void begin_capture(PerfSnapshot* out);
  static void end_capture();

  /// Per-phase table: calls, total ms, p50/p99/max us, plus one row per
  /// populated size bucket (cost-vs-scale in text form).
  static void write_summary(std::ostream& os, const PerfSnapshot& snap);

 private:
  static constinit thread_local PerfSnapshot* capture_;
};

/// RAII per-invocation timer; inert unless its thread has a capture open.
/// set_size() tags the invocation's size axis (defaults to 0).
class PerfScope {
 public:
  explicit PerfScope(PerfPhase phase)
      : phase_(phase), active_(PerfMonitor::capturing()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~PerfScope() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    PerfMonitor::record(phase_, static_cast<std::uint64_t>(ns), size_);
  }
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

  /// True when a capture was open at construction — guard any non-trivial
  /// size computation on this.
  [[nodiscard]] bool active() const { return active_; }
  void set_size(std::uint64_t size) { size_ = size; }

 private:
  PerfPhase phase_;
  bool active_;
  std::uint64_t size_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Resident-set high-water mark of this process in bytes (VmHWM); 0 where
/// the platform offers no cheap way to read it. Used by the heartbeat.
[[nodiscard]] std::uint64_t rss_high_water_bytes();

}  // namespace cosched
