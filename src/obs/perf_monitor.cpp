#include "obs/perf_monitor.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <ostream>

#ifdef __linux__
#include <cstdio>
#include <cstring>
#endif

namespace cosched {

const char* to_string(PerfPhase phase) {
  switch (phase) {
    case PerfPhase::kPsrtEnumerate:
      return "psrt.enumerate";
    case PerfPhase::kSbsExplore:
      return "sbs.explore";
    case PerfPhase::kOcasGrant:
      return "ocas.grant";
    case PerfPhase::kSchedPickTask:
      return "sched.pick_task";
    case PerfPhase::kSunflowAlloc:
      return "sunflow.allocation";
    case PerfPhase::kEpsReplan:
      return "eps.replan";
    case PerfPhase::kEventDispatch:
      return "sim.event_dispatch";
    case PerfPhase::kDriverDispatch:
      return "driver.dispatch";
    case PerfPhase::kEpsFillRates:
      return "eps.fill_rates";
    case PerfPhase::kMatchingHopcroftKarp:
      return "matching.hopcroft_karp";
    case PerfPhase::kDriverEstimateAvailability:
      return "driver.estimate_availability";
  }
  return "unknown";
}

std::size_t PerfPhaseStats::size_bucket_index(std::uint64_t size) {
  return static_cast<std::size_t>(std::bit_width(size));
}

std::uint64_t PerfPhaseStats::size_bucket_lo(std::size_t b) {
  if (b == 0) return 0;
  return std::uint64_t{1} << (b - 1);
}

std::uint64_t PerfPhaseStats::size_bucket_hi(std::size_t b) {
  if (b == 0) return 0;
  if (b >= kSizeBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

void PerfPhaseStats::add(std::uint64_t ns, std::uint64_t size) {
  latency.add(ns);
  ++calls;
  total_ns += ns;
  max_ns = std::max(max_ns, ns);
  SizeBucket& sb = by_size[size_bucket_index(size)];
  ++sb.calls;
  sb.total_ns += ns;
  sb.max_ns = std::max(sb.max_ns, ns);
  sb.total_size += size;
}

void PerfPhaseStats::merge(const PerfPhaseStats& other) {
  latency.merge(other.latency);
  calls += other.calls;
  total_ns += other.total_ns;
  max_ns = std::max(max_ns, other.max_ns);
  for (std::size_t b = 0; b < kSizeBuckets; ++b) {
    SizeBucket& dst = by_size[b];
    const SizeBucket& src = other.by_size[b];
    dst.calls += src.calls;
    dst.total_ns += src.total_ns;
    dst.max_ns = std::max(dst.max_ns, src.max_ns);
    dst.total_size += src.total_size;
  }
}

bool PerfSnapshot::empty() const {
  for (const PerfPhaseStats& s : phases) {
    if (s.calls > 0) return false;
  }
  return true;
}

void PerfSnapshot::merge(const PerfSnapshot& other) {
  for (std::size_t p = 0; p < kPerfPhaseCount; ++p) {
    phases[p].merge(other.phases[p]);
  }
}

constinit thread_local PerfSnapshot* PerfMonitor::capture_ = nullptr;

void PerfMonitor::record(PerfPhase phase, std::uint64_t ns,
                         std::uint64_t size) {
  if (capture_ != nullptr) {
    capture_->phases[static_cast<std::size_t>(phase)].add(ns, size);
  }
}

void PerfMonitor::begin_capture(PerfSnapshot* out) {
  if (out != nullptr) *out = PerfSnapshot{};
  capture_ = out;
}

void PerfMonitor::end_capture() { capture_ = nullptr; }

namespace {

double us(double ns) { return ns / 1e3; }

}  // namespace

void PerfMonitor::write_summary(std::ostream& os, const PerfSnapshot& snap) {
  os << "--- perf phases (wall clock) ---\n";
  if (snap.empty()) {
    os << "  (no samples; was a capture open?)\n";
    return;
  }
  os << "  " << std::left << std::setw(30) << "phase" << std::right
     << std::setw(10) << "calls" << std::setw(12) << "total_ms"
     << std::setw(10) << "p50_us" << std::setw(10) << "p99_us"
     << std::setw(10) << "max_us" << "\n";
  const auto old_flags = os.flags();
  const auto old_prec = os.precision();
  os << std::fixed << std::setprecision(1);
  for (std::size_t p = 0; p < kPerfPhaseCount; ++p) {
    const PerfPhaseStats& s = snap.phases[p];
    if (s.calls == 0) continue;
    os << "  " << std::left << std::setw(30)
       << to_string(static_cast<PerfPhase>(p)) << std::right << std::setw(10)
       << s.calls << std::setw(12)
       << static_cast<double>(s.total_ns) / 1e6 << std::setw(10)
       << us(s.latency.p50()) << std::setw(10) << us(s.latency.p99())
       << std::setw(10) << us(static_cast<double>(s.latency.max())) << "\n";
    for (std::size_t b = 0; b < PerfPhaseStats::kSizeBuckets; ++b) {
      const PerfPhaseStats::SizeBucket& sb = s.by_size[b];
      if (sb.calls == 0) continue;
      os << "      size " << std::left << std::setw(6)
         << PerfPhaseStats::size_bucket_lo(b) << std::right << std::setw(18)
         << sb.calls << std::setw(12)
         << static_cast<double>(sb.total_ns) / 1e6 << std::setw(10)
         << us(static_cast<double>(sb.total_ns) /
               static_cast<double>(sb.calls))
         << std::setw(10) << "" << std::setw(10)
         << us(static_cast<double>(sb.max_ns)) << "\n";
    }
  }
  os.flags(old_flags);
  os.precision(old_prec);
}

std::uint64_t rss_high_water_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      if (std::sscanf(line + 6, "%lu", &kb) != 1) kb = 0;
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

}  // namespace cosched
