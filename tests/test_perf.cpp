// Performance-observability suite (ctest -L obs): the LatencyHistogram's
// fixed bucket layout and percentile math, PerfPhaseStats size attribution,
// PerfMonitor capture semantics, the RunReport JSON exporter, and —
// most importantly — the guarantee the whole subsystem rests on: a run with
// monitoring and heartbeat enabled is bit-for-bit identical to a dark run.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/run_report.h"
#include "obs/latency_histogram.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// ---- LatencyHistogram bucket layout ---------------------------------------

TEST(LatencyHistogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_lo(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_hi(v), v + 1);
  }
  EXPECT_EQ(LatencyHistogram::bucket_index(16), 16u);
  EXPECT_EQ(LatencyHistogram::bucket_index(kU64Max),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogram, BucketBoundariesAreConsistent) {
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::uint64_t lo = LatencyHistogram::bucket_lo(i);
    const std::uint64_t hi = LatencyHistogram::bucket_hi(i);
    EXPECT_LT(lo, hi) << "bucket " << i;
    // Both endpoints of [lo, hi) land in bucket i.
    EXPECT_EQ(LatencyHistogram::bucket_index(lo), i);
    EXPECT_EQ(LatencyHistogram::bucket_index(hi - 1), i);
    // Buckets tile the axis: hi(i) == lo(i+1).
    if (i + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_EQ(hi, LatencyHistogram::bucket_lo(i + 1)) << "bucket " << i;
    } else {
      EXPECT_EQ(hi, kU64Max);
    }
  }
}

TEST(LatencyHistogram, BucketRelativeWidthIsBounded) {
  // Four sub-buckets per octave: width / lo <= 1/4 for every log bucket,
  // which bounds the percentile estimation error.
  for (std::size_t i = 16; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    const double lo = static_cast<double>(LatencyHistogram::bucket_lo(i));
    const double hi = static_cast<double>(LatencyHistogram::bucket_hi(i));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "bucket " << i;
  }
}

// ---- LatencyHistogram percentiles -----------------------------------------

TEST(LatencyHistogram, EmptyHistogramIsAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.percentile(100), 0.0);
}

TEST(LatencyHistogram, SingleSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.add(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234u);
  EXPECT_EQ(h.max(), 1234u);
  EXPECT_EQ(h.mean(), 1234.0);
  // Interpolation is clamped to [min, max], so a lone sample is exact at
  // every percentile, not just p100.
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 1234.0) << "p" << p;
  }
}

TEST(LatencyHistogram, ExactValuesBelowSixteen) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.add(v);
  for (std::uint64_t v = 0; v < 16; ++v) EXPECT_EQ(h.bucket_count(v), 1u);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.sum(), 120u);
  EXPECT_EQ(h.percentile(100), 15.0);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndClamped) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; v += 7) h.add(v);
  double prev = -1.0;
  for (double p = 0; p <= 100.0; p += 0.5) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_GE(v, static_cast<double>(h.min()));
    EXPECT_LE(v, static_cast<double>(h.max()));
    prev = v;
  }
  EXPECT_EQ(h.percentile(100), static_cast<double>(h.max()));
}

TEST(LatencyHistogram, MergeMatchesCombinedSamples) {
  std::vector<std::uint64_t> xs, ys;
  for (std::uint64_t i = 0; i < 200; ++i) xs.push_back(i * i + 3);
  for (std::uint64_t i = 0; i < 300; ++i) ys.push_back(i * 31 + 1);

  LatencyHistogram a, b, combined;
  for (auto v : xs) { a.add(v); combined.add(v); }
  for (auto v : ys) { b.add(v); combined.add(v); }

  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  for (const LatencyHistogram* m : {&ab, &ba}) {
    EXPECT_EQ(m->count(), combined.count());
    EXPECT_EQ(m->sum(), combined.sum());
    EXPECT_EQ(m->min(), combined.min());
    EXPECT_EQ(m->max(), combined.max());
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      EXPECT_EQ(m->bucket_count(i), combined.bucket_count(i)) << "bucket " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m->p99()),
              std::bit_cast<std::uint64_t>(combined.p99()));
  }
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram a;
  a.add(42);
  a.add(7);
  LatencyHistogram merged = a;
  merged.merge(LatencyHistogram{});
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_EQ(merged.min(), 7u);
  EXPECT_EQ(merged.max(), 42u);

  LatencyHistogram empty;
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 7u);
  EXPECT_EQ(empty.max(), 42u);
}

TEST(LatencyHistogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.add(99);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
}

// ---- PerfPhaseStats size attribution --------------------------------------

TEST(PerfPhaseStats, SizeBucketIndexIsBitWidth) {
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(0), 0u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(1), 1u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(2), 2u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(3), 2u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(4), 3u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(7), 3u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(8), 4u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_index(kU64Max),
            PerfPhaseStats::kSizeBuckets - 1);
}

TEST(PerfPhaseStats, SizeBucketBoundsMatchIndex) {
  EXPECT_EQ(PerfPhaseStats::size_bucket_lo(0), 0u);
  EXPECT_EQ(PerfPhaseStats::size_bucket_hi(0), 0u);
  for (std::size_t b = 1; b < PerfPhaseStats::kSizeBuckets; ++b) {
    const std::uint64_t lo = PerfPhaseStats::size_bucket_lo(b);
    const std::uint64_t hi = PerfPhaseStats::size_bucket_hi(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(PerfPhaseStats::size_bucket_index(lo), b);
    EXPECT_EQ(PerfPhaseStats::size_bucket_index(hi), b);
  }
  EXPECT_EQ(PerfPhaseStats::size_bucket_hi(PerfPhaseStats::kSizeBuckets - 1),
            kU64Max);
}

TEST(PerfPhaseStats, AddAttributesToSizeBucket) {
  PerfPhaseStats s;
  s.add(100, 5);  // sizes 4..7 -> bucket 3
  s.add(300, 6);
  s.add(50, 0);  // -> bucket 0
  EXPECT_EQ(s.calls, 3u);
  EXPECT_EQ(s.total_ns, 450u);
  EXPECT_EQ(s.max_ns, 300u);
  EXPECT_EQ(s.latency.count(), 3u);
  EXPECT_EQ(s.by_size[3].calls, 2u);
  EXPECT_EQ(s.by_size[3].total_ns, 400u);
  EXPECT_EQ(s.by_size[3].max_ns, 300u);
  EXPECT_EQ(s.by_size[3].total_size, 11u);
  EXPECT_EQ(s.by_size[0].calls, 1u);
  EXPECT_EQ(s.by_size[0].total_ns, 50u);

  PerfPhaseStats other;
  other.add(1000, 7);
  s.merge(other);
  EXPECT_EQ(s.calls, 4u);
  EXPECT_EQ(s.max_ns, 1000u);
  EXPECT_EQ(s.by_size[3].calls, 3u);
  EXPECT_EQ(s.by_size[3].total_size, 18u);
}

// ---- PerfMonitor ----------------------------------------------------------

TEST(PerfMonitor, PhaseNamesAreStable) {
  EXPECT_STREQ(to_string(PerfPhase::kPsrtEnumerate), "psrt.enumerate");
  EXPECT_STREQ(to_string(PerfPhase::kSbsExplore), "sbs.explore");
  EXPECT_STREQ(to_string(PerfPhase::kOcasGrant), "ocas.grant");
  EXPECT_STREQ(to_string(PerfPhase::kSchedPickTask), "sched.pick_task");
  EXPECT_STREQ(to_string(PerfPhase::kSunflowAlloc), "sunflow.allocation");
  EXPECT_STREQ(to_string(PerfPhase::kEpsReplan), "eps.replan");
  EXPECT_STREQ(to_string(PerfPhase::kEventDispatch), "sim.event_dispatch");
  EXPECT_STREQ(to_string(PerfPhase::kDriverDispatch), "driver.dispatch");
  EXPECT_STREQ(to_string(PerfPhase::kEpsFillRates), "eps.fill_rates");
  EXPECT_STREQ(to_string(PerfPhase::kMatchingHopcroftKarp),
               "matching.hopcroft_karp");
  EXPECT_STREQ(to_string(PerfPhase::kDriverEstimateAvailability),
               "driver.estimate_availability");
  EXPECT_EQ(static_cast<std::size_t>(PerfPhase::kEpsFillRates), 8u);
  EXPECT_EQ(static_cast<std::size_t>(PerfPhase::kDriverEstimateAvailability),
            10u);
  EXPECT_EQ(kPerfPhaseCount, 11u);
}

TEST(PerfMonitor, DisabledScopeRecordsNothing) {
  // No capture open on this thread: the scope is inert, and a record made
  // outside a capture goes nowhere — not into the last capture closed.
  ASSERT_FALSE(PerfMonitor::capturing());
  PerfSnapshot cap;
  PerfMonitor::begin_capture(&cap);
  PerfMonitor::end_capture();
  {
    PerfScope scope(PerfPhase::kOcasGrant);
    EXPECT_FALSE(scope.active());
    scope.set_size(17);
  }
  PerfMonitor::record(PerfPhase::kOcasGrant, 10, 1);
  EXPECT_TRUE(cap.empty());
}

TEST(PerfMonitor, EnabledScopeRecordsIntoPhase) {
  PerfSnapshot snap;
  PerfMonitor::begin_capture(&snap);
  {
    PerfScope scope(PerfPhase::kSbsExplore);
    EXPECT_TRUE(scope.active());
    scope.set_size(12);
  }
  PerfMonitor::end_capture();

  EXPECT_FALSE(snap.empty());
  const PerfPhaseStats& s = snap.phase(PerfPhase::kSbsExplore);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.latency.count(), 1u);
  EXPECT_EQ(s.by_size[PerfPhaseStats::size_bucket_index(12)].calls, 1u);
  EXPECT_EQ(snap.phase(PerfPhase::kOcasGrant).calls, 0u);
}

TEST(PerfMonitor, CaptureSeesOnlyBracketedRecords) {
  PerfSnapshot cap;
  cap.phases[static_cast<std::size_t>(PerfPhase::kEpsReplan)].add(5, 1);
  PerfMonitor::record(PerfPhase::kEpsReplan, 10, 1);  // pre-capture
  PerfMonitor::begin_capture(&cap);                   // clears `cap`
  PerfMonitor::record(PerfPhase::kEpsReplan, 20, 2);
  PerfMonitor::end_capture();
  PerfMonitor::record(PerfPhase::kEpsReplan, 30, 3);  // post

  EXPECT_EQ(cap.phase(PerfPhase::kEpsReplan).calls, 1u);
  EXPECT_EQ(cap.phase(PerfPhase::kEpsReplan).total_ns, 20u);
}

TEST(PerfMonitor, OpenCaptureMonitorsItsThreadOnly) {
  // An attached Observability bundle relies on this: the driver's capture
  // monitors its own thread, and a worker thread running another
  // repetition meanwhile neither records into it nor is monitored.
  PerfSnapshot cap;
  PerfMonitor::begin_capture(&cap);
  bool other_active = true;
  std::thread other([&other_active] {
    PerfScope scope(PerfPhase::kEpsFillRates);
    other_active = scope.active();
    PerfMonitor::record(PerfPhase::kEpsFillRates, 10, 1);
  });
  other.join();
  {
    PerfScope scope(PerfPhase::kEpsFillRates);
    EXPECT_TRUE(scope.active());
    scope.set_size(3);
  }
  PerfMonitor::end_capture();
  EXPECT_FALSE(other_active);
  EXPECT_FALSE(PerfMonitor::capturing());
  EXPECT_EQ(cap.phase(PerfPhase::kEpsFillRates).calls, 1u);
}

TEST(PerfMonitor, WriteSummaryListsRecordedPhases) {
  PerfSnapshot snap;
  snap.phases[static_cast<std::size_t>(PerfPhase::kSunflowAlloc)].add(500, 9);
  std::ostringstream os;
  PerfMonitor::write_summary(os, snap);
  const std::string out = os.str();
  EXPECT_NE(out.find("sunflow.allocation"), std::string::npos);
  EXPECT_EQ(out.find("ocas.grant"), std::string::npos);
}

// ---- RunReport JSON -------------------------------------------------------

ExperimentConfig tiny_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 12;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.workload.num_jobs = 18;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 60;
  cfg.workload.max_reduces = 8;
  cfg.workload.max_input = DataSize::gigabytes(50);
  cfg.repetitions = 1;
  cfg.base_seed = seed;
  return cfg;
}

/// Structural JSON check without a parser: quotes, braces, and brackets
/// must balance, with string/escape state tracked.
void expect_balanced_json(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) { escaped = false; continue; }
    if (in_string) {
      if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(RunReport, EmitsAllSectionsAndBalances) {
  const ExperimentConfig cfg = tiny_config(7);
  // The attached bundle is what monitors the run.
  ASSERT_FALSE(PerfMonitor::capturing());
  Observability obs;
  ExperimentConfig observed = cfg;
  observed.sim.obs = &obs;
  const RunMetrics run =
      run_once(observed, make_scheduler_factory("coscheduler"), 0);
  EXPECT_FALSE(PerfMonitor::capturing());  // the capture closed with the run

  RunReportMeta meta;
  meta.num_jobs = 18;
  meta.num_racks = 12;
  meta.wall_time_sec = 0.25;
  meta.rss_high_water_bytes = 1 << 20;
  std::ostringstream os;
  write_run_report_json(os, run, meta, &obs.perf, &obs.counters);
  const std::string json = os.str();

  expect_balanced_json(json);
  for (const char* key :
       {"\"schema\": \"cosched.run_report\"", "\"version\": 4",
        "\"scheduler\": \"coscheduler\"", "\"config\": {\"jobs\": 18",
        "\"metrics\": {", "\"makespan_sec\": ", "\"jct_percentiles\": ",
        "\"jain_fairness\": ", "\"dispatch_waves\": ",
        "\"deadlock_breaks\": ", "\"faults\": {",
        "\"counters\": {", "\"phases\": ["}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // v4 dropped the flat profile section.
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);
  // Every phase appears by stable name, with histograms attached.
  for (std::size_t p = 0; p < kPerfPhaseCount; ++p) {
    const std::string name =
        std::string("\"name\": \"") + to_string(static_cast<PerfPhase>(p)) +
        '"';
    EXPECT_NE(json.find(name), std::string::npos) << "missing " << name;
  }
  EXPECT_NE(json.find("\"histogram\": ["), std::string::npos);
  EXPECT_NE(json.find("\"by_size\": ["), std::string::npos);
  // The coscheduler run must have exercised the key phases.
  EXPECT_GT(obs.perf.phase(PerfPhase::kOcasGrant).calls, 0u);
  EXPECT_GT(obs.perf.phase(PerfPhase::kSunflowAlloc).calls, 0u);
  EXPECT_GT(obs.perf.phase(PerfPhase::kEventDispatch).calls, 0u);
}

TEST(RunReport, DarkRunStillYieldsValidReport) {
  RunMetrics run;
  run.scheduler = "fair";
  run.seed = 3;
  std::ostringstream os;
  write_run_report_json(os, run, RunReportMeta{});
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"cosched.run_report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"phases\": []"), std::string::npos);
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);
}

TEST(RunReport, IdenticalInputsSerializeIdentically) {
  const ExperimentConfig cfg = tiny_config(11);
  const RunMetrics run = run_once(cfg, make_scheduler_factory("fair"), 0);
  RunReportMeta meta;
  meta.num_jobs = 18;
  meta.num_racks = 12;
  std::ostringstream a, b;
  write_run_report_json(a, run, meta);
  write_run_report_json(b, run, meta);
  EXPECT_EQ(a.str(), b.str());
}

// ---- Determinism: monitored == dark ---------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_run_bitwise_equal(const RunMetrics& a, const RunMetrics& b,
                              const std::string& where) {
  EXPECT_EQ(a.scheduler, b.scheduler) << where;
  EXPECT_EQ(a.seed, b.seed) << where;
  EXPECT_EQ(bits(a.makespan.sec()), bits(b.makespan.sec())) << where;
  EXPECT_EQ(a.ocs_bytes.in_bytes(), b.ocs_bytes.in_bytes()) << where;
  EXPECT_EQ(a.eps_bytes.in_bytes(), b.eps_bytes.in_bytes()) << where;
  EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes()) << where;
  EXPECT_EQ(a.events_executed, b.events_executed) << where;
  EXPECT_EQ(a.dispatch_waves, b.dispatch_waves) << where;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << where;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const std::string at = where + " job#" + std::to_string(j);
    EXPECT_EQ(a.jobs[j].id, b.jobs[j].id) << at;
    EXPECT_EQ(bits(a.jobs[j].completion.sec()),
              bits(b.jobs[j].completion.sec()))
        << at;
    EXPECT_EQ(bits(a.jobs[j].jct.sec()), bits(b.jobs[j].jct.sec())) << at;
    EXPECT_EQ(bits(a.jobs[j].cct.sec()), bits(b.jobs[j].cct.sec())) << at;
    EXPECT_EQ(a.jobs[j].shuffle_bytes.in_bytes(),
              b.jobs[j].shuffle_bytes.in_bytes())
        << at;
  }
}

TEST(PerfDeterminism, MonitoredHeartbeatRunIsBitIdenticalToDark) {
  const ExperimentConfig cfg = tiny_config(42);
  for (const char* name : {"fair", "coscheduler"}) {
    // Dark run: no capture, no heartbeat.
    ASSERT_FALSE(PerfMonitor::capturing());
    const RunMetrics dark = run_once(cfg, make_scheduler_factory(name), 0);

    // Fully lit run: a capture open, aggressive heartbeat into a sink.
    PerfSnapshot snap;
    std::ostringstream beats;
    ExperimentConfig lit = cfg;
    lit.sim.heartbeat_sec = 1e-9;  // beat at every stride check
    lit.sim.heartbeat_out = &beats;
    PerfMonitor::begin_capture(&snap);
    const RunMetrics monitored =
        run_once(lit, make_scheduler_factory(name), 0);
    PerfMonitor::end_capture();

    expect_run_bitwise_equal(dark, monitored, name);
    // The heartbeat fired (at minimum the final beat) and looks right.
    EXPECT_EQ(beats.str().rfind("[heartbeat] wall=", 0), 0u) << name;
    EXPECT_NE(beats.str().find("jobs=18/18"), std::string::npos) << name;
    // ...and the monitor actually saw the run.
    EXPECT_FALSE(snap.empty()) << name;
    if (std::string(name) == "coscheduler") {
      // The sub-phases below the scheduler passes saw the run too.
      for (PerfPhase p :
           {PerfPhase::kEpsFillRates, PerfPhase::kMatchingHopcroftKarp,
            PerfPhase::kDriverEstimateAvailability}) {
        EXPECT_GT(snap.phase(p).calls, 0u) << to_string(p);
      }
    }
  }
}

TEST(PerfDeterminism, HeartbeatOffWritesNothing) {
  ExperimentConfig cfg = tiny_config(5);
  std::ostringstream beats;
  cfg.sim.heartbeat_out = &beats;  // sink set, but heartbeat_sec stays 0
  (void)run_once(cfg, make_scheduler_factory("fair"), 0);
  EXPECT_TRUE(beats.str().empty());
}

}  // namespace
}  // namespace cosched
