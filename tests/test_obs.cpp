// Observability-layer tests: a dark run's instruments really are free,
// traces are deterministic and well-formed Chrome JSON, counter sampling
// tracks simulator state without keeping the queue alive, the decision log
// reports the same plan the trace's container grants executed, and the
// summary counts every event kind that occurred.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "net/flow.h"
#include "obs/observability.h"
#include "sim/driver.h"
#include "sim/experiment.h"

// ---------------------------------------------------------------------------
// Global allocation counting for the dark hot-path test. Every
// allocation in this binary bumps the counter; the test snapshots it around
// the recording loop. The replacements are malloc/free-matched pairs; GCC
// cannot see that across the replaced declarations and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates through operator new(size, nothrow). Leaving them on
// the default allocator while delete routes to free() trips ASan's
// alloc-dealloc-mismatch check.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cosched {
namespace {

HybridTopology mini_topo(std::int32_t racks = 6, std::int32_t servers = 2,
                         std::int32_t slots = 4) {
  HybridTopology t;
  t.num_racks = racks;
  t.servers_per_rack = servers;
  t.slots_per_server = slots;
  return t;
}

JobSpec simple_job(std::int64_t id, std::int32_t maps, std::int32_t reduces,
                   double input_gb, double sir, double map_sec = 10,
                   double reduce_sec = 10) {
  JobSpec s;
  s.id = JobId{id};
  s.user = UserId{0};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(input_gb);
  s.sir = sir;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(map_sec));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(reduce_sec));
  return s;
}

/// One shuffle-heavy job on the mini cluster: 20 GB input, SIR 1.0, so the
/// shuffle (20 GB) and each map rack's output clear T_e = 1.125 GB and the
/// coscheduler exercises MTS, PSRT/SBS, coflow release, and the OCS.
std::vector<JobSpec> heavy_workload() {
  return {simple_job(0, 4, 4, 20.0, 1.0)};
}

RunMetrics run_with_obs(Observability& obs, std::uint64_t seed = 7) {
  // Sample finely enough to catch sub-second circuit lifetimes: a 10 GB
  // flow drains in ~0.8 s at the 100 Gb/s OCS rate.
  obs.counters.set_interval(Duration::milliseconds(50));
  SimConfig cfg;
  cfg.topo = mini_topo();
  cfg.seed = seed;
  cfg.obs = &obs;
  SimulationDriver driver(cfg, heavy_workload(),
                          make_scheduler_factory("coscheduler")());
  return driver.run();
}

// --- Minimal JSON well-formedness checker ---------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!parse_value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool parse_value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
        return parse_literal("true");
      case 'f':
        return parse_literal("false");
      case 'n':
        return parse_literal("null");
      default:
        return parse_number();
    }
  }

  bool parse_object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool parse_array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool parse_string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- TraceRecorder basics --------------------------------------------------

TEST(TraceRecorder, EnabledCaptures) {
  TraceRecorder rec;
  rec.record({.kind = TraceEventKind::kJobArrival,
              .at = SimTime::seconds(1),
              .job = JobId{3}});
  rec.record({.kind = TraceEventKind::kJobComplete,
              .at = SimTime::seconds(2),
              .job = JobId{3}});
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.count(TraceEventKind::kJobArrival), 1);
  EXPECT_EQ(rec.events()[1].job, JobId{3});
}

TEST(TraceRecorder, DisabledRecorderAllocatesNothing) {
  // A dark run has no bundle, so its only instruments on the hot path are
  // PerfScopes with no capture open: no clock, no allocation.
  ASSERT_FALSE(PerfMonitor::capturing());
  const std::int64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) {
    PerfScope perf(PerfPhase::kEventDispatch);
    perf.set_size(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(g_allocations.load(), before);
}

// --- End-to-end trace through the driver -----------------------------------

TEST(Trace, DriverRunEmitsRequiredEventKinds) {
  Observability obs;
  const RunMetrics m = run_with_obs(obs);
  ASSERT_EQ(m.jobs.size(), 1u);

  const TraceRecorder& t = obs.trace;
  EXPECT_EQ(t.count(TraceEventKind::kJobArrival), 1);
  EXPECT_EQ(t.count(TraceEventKind::kJobComplete), 1);
  // 4 maps + 4 reduces: one grant and one start/finish pair each.
  EXPECT_EQ(t.count(TraceEventKind::kContainerGrant), 8);
  EXPECT_EQ(t.count(TraceEventKind::kTaskStart), 8);
  EXPECT_EQ(t.count(TraceEventKind::kTaskFinish), 8);
  EXPECT_EQ(t.count(TraceEventKind::kReduceComputeStart), 4);
  EXPECT_EQ(t.count(TraceEventKind::kCoflowRelease), 1);
  EXPECT_GT(t.count(TraceEventKind::kFlowRouted), 0);
  EXPECT_EQ(t.count(TraceEventKind::kFlowRouted),
            t.count(TraceEventKind::kFlowComplete));
  // The shuffle is heavy, so some flows must ride the OCS...
  std::int64_t ocs_flows = 0;
  for (const TraceEvent& ev : t.events()) {
    if (ev.kind == TraceEventKind::kFlowRouted &&
        ev.a == static_cast<std::int64_t>(FlowPath::kOcs)) {
      ++ocs_flows;
    }
  }
  EXPECT_GT(ocs_flows, 0);
  // ...which means circuits were configured, carried traffic, and came down.
  EXPECT_GT(t.count(TraceEventKind::kCircuitSetup), 0);
  EXPECT_GT(t.count(TraceEventKind::kCircuitUp), 0);
  EXPECT_EQ(t.count(TraceEventKind::kCircuitSetup),
            t.count(TraceEventKind::kCircuitTeardown));
  EXPECT_EQ(t.count(TraceEventKind::kDeadlockBreak), 0);

  // Timestamps are non-decreasing (recorded in execution order).
  for (std::size_t i = 1; i < t.events().size(); ++i) {
    EXPECT_GE(t.events()[i].at, t.events()[i - 1].at);
  }
}

TEST(Trace, DeterministicForFixedSeed) {
  Observability a;
  Observability b;
  run_with_obs(a, 11);
  run_with_obs(b, 11);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.events()[i], b.trace.events()[i]) << "event " << i;
  }
  EXPECT_EQ(a.decisions.placements().size(), b.decisions.placements().size());
  EXPECT_EQ(a.counters.rows(), b.counters.rows());
}

TEST(Trace, ChromeExportIsValidJsonWithRequiredEvents) {
  Observability obs;
  run_with_obs(obs);
  std::ostringstream os;
  obs.trace.write_chrome_trace(os, &obs.counters);
  const std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("container_grant"), std::string::npos);
  EXPECT_NE(json.find("coflow_release"), std::string::npos);
  EXPECT_NE(json.find("flow_ocs"), std::string::npos);
  EXPECT_NE(json.find("\"circuit\""), std::string::npos);
  // Counter tracks rode along.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("ocs.circuits_active"), std::string::npos);
}

TEST(Trace, CsvExportHasHeaderAndOneRowPerEvent) {
  Observability obs;
  run_with_obs(obs);
  std::ostringstream os;
  obs.trace.write_csv(os);
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, obs.trace.size() + 1);  // header + one per event
  EXPECT_EQ(csv.rfind("time_sec,kind,job,task,flow,src,dst,a,b", 0), 0u);
}

// --- Counter sampling ------------------------------------------------------

TEST(Counters, SamplesTrackSimStateAndStopWithTheQueue) {
  Simulator sim;
  int depth = 0;
  CounterRegistry reg;
  reg.add_gauge("depth", [&] { return static_cast<double>(depth); });
  reg.set_interval(Duration::seconds(1));
  sim.schedule_at(SimTime::seconds(0.5), [&] { depth = 5; });
  sim.schedule_at(SimTime::seconds(2.5), [&] { depth = 2; });
  sim.schedule_at(SimTime::seconds(10), [&] { depth = 0; });
  reg.arm(sim);
  sim.run();  // must terminate: the sampler cannot keep the queue alive

  ASSERT_EQ(reg.sample_times().size(), 11u);  // t = 0..10 inclusive
  EXPECT_EQ(reg.rows()[0][0], 0.0);
  EXPECT_EQ(reg.rows()[1][0], 5.0);   // after the 0.5 s bump
  EXPECT_EQ(reg.rows()[3][0], 2.0);   // after the 2.5 s drop
  EXPECT_EQ(reg.rows()[10][0], 0.0);  // the 10 s event fires first (FIFO)
  EXPECT_EQ(reg.last("depth"), 0.0);
  EXPECT_EQ(reg.last("missing"), 0.0);

  std::ostringstream os;
  reg.write_csv(os);
  EXPECT_EQ(os.str().rfind("time_sec,depth", 0), 0u);
}

TEST(Counters, DriverGaugesMatchRunState) {
  Observability obs;
  const RunMetrics m = run_with_obs(obs);
  const CounterRegistry& c = obs.counters;
  ASSERT_FALSE(c.rows().empty());

  const auto& names = c.names();
  auto col = [&](const std::string& name) {
    for (std::size_t j = 0; j < names.size(); ++j) {
      if (names[j] == name) return j;
    }
    ADD_FAILURE() << "gauge " << name << " not registered";
    return std::size_t{0};
  };
  const std::size_t jobs_col = col("jobs.active");
  const std::size_t used_col = col("cluster.containers_used");
  const std::size_t circ_col = col("ocs.circuits_active");
  const std::size_t live_col = col("sim.events_live");
  const std::size_t raw_col = col("sim.events_raw");

  double max_used = 0;
  double max_circuits = 0;
  for (std::size_t i = 0; i < c.rows().size(); ++i) {
    const auto& row = c.rows()[i];
    EXPECT_GE(row[jobs_col], 0.0);
    EXPECT_LE(row[jobs_col], 1.0);  // single-job workload
    EXPECT_GE(row[raw_col], row[live_col]);  // tombstones only ever add
    max_used = std::max(max_used, row[used_col]);
    max_circuits = std::max(max_circuits, row[circ_col]);
  }
  EXPECT_GT(max_used, 0.0);      // tasks held containers while sampled
  EXPECT_GT(max_circuits, 0.0);  // the heavy shuffle used the OCS
  // Samples cover the run (last sample at or before completion).
  EXPECT_LE(c.sample_times().back().sec(), m.makespan.sec() + 1.0);
  EXPECT_GE(c.sample_times().back().sec(), 1.0);
}

// --- Decision log ----------------------------------------------------------

TEST(DecisionLog, PlacementPlanMatchesExecutedGrants) {
  Observability obs;
  run_with_obs(obs);
  const DecisionLog& d = obs.decisions;

  ASSERT_EQ(d.placements().size(), 1u);  // one PSRT+SBS pass for one job
  const PlacementDecision& p = d.placements()[0];
  EXPECT_EQ(p.job, JobId{0});
  EXPECT_EQ(p.r_red, static_cast<std::int32_t>(p.plan.size()));
  EXPECT_GT(p.candidates, 0);
  EXPECT_GE(p.score_sec, p.planned_cct.sec());

  // The distribution D sums to the job's reduce count and matches the
  // concrete plan's counts.
  std::int32_t d_sum = 0;
  for (std::int32_t di : p.d) d_sum += di;
  EXPECT_EQ(d_sum, 4);
  std::vector<std::int32_t> plan_counts;
  for (const auto& [rack, count] : p.plan) plan_counts.push_back(count);
  std::sort(plan_counts.begin(), plan_counts.end(), std::greater<>());
  std::vector<std::int32_t> d_sorted = p.d;
  std::sort(d_sorted.begin(), d_sorted.end(), std::greater<>());
  EXPECT_EQ(plan_counts, d_sorted);

  // Every reduce grant landed on a plan rack, with the plan's multiplicity,
  // under OCAS class 1 (planned heavy reduce). A grant's kind is on the
  // kTaskStart recorded right after it for the same task.
  const std::vector<TraceEvent>& events = obs.trace.events();
  std::map<RackId, std::int32_t> granted;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != TraceEventKind::kContainerGrant) continue;
    ASSERT_LT(i + 1, events.size());
    const TraceEvent& start = events[i + 1];
    ASSERT_EQ(start.kind, TraceEventKind::kTaskStart);
    ASSERT_EQ(start.task, events[i].task);
    if (start.a != 1) continue;
    EXPECT_EQ(events[i].a, 1);
    granted[events[i].src] += 1;
  }
  const std::map<RackId, std::int32_t> plan_map(p.plan.begin(), p.plan.end());
  EXPECT_EQ(granted, plan_map);

  // Circuit setups carry the flow, its bytes and the coflow priority, on
  // real rack pairs.
  ASSERT_GT(obs.trace.count(TraceEventKind::kCircuitSetup), 0);
  for (const TraceEvent& c : events) {
    if (c.kind != TraceEventKind::kCircuitSetup) continue;
    EXPECT_EQ(c.job, JobId{0});
    EXPECT_TRUE(c.flow.valid());
    EXPECT_NE(c.src, c.dst);
    EXPECT_GT(c.a, 0);
    EXPECT_GT(c.b, 0.0);
  }

  std::ostringstream os;
  d.write_placements_csv(os);
  EXPECT_EQ(os.str().rfind("time_sec,job,r_map,r_red,", 0), 0u);
}

// --- Observability summary -------------------------------------------------

TEST(ObsSummary, MentionsEventsDecisionsAndCounters) {
  Observability obs;
  run_with_obs(obs);
  std::ostringstream os;
  print_obs_summary(os, obs);
  const std::string out = os.str();
  EXPECT_NE(out.find("trace events"), std::string::npos);
  EXPECT_NE(out.find("container_grant"), std::string::npos);
  EXPECT_NE(out.find("placements"), std::string::npos);
  EXPECT_NE(out.find("ocs.circuits_active"), std::string::npos);
  // Per-rack gauges stay out of the summary (CSV only).
  EXPECT_EQ(out.find("cluster.rack_used."), std::string::npos);
  // The attached bundle monitored the run, so the phase table is filled.
  EXPECT_NE(out.find("--- perf phases"), std::string::npos);
  EXPECT_NE(out.find("driver.dispatch"), std::string::npos);
}

TEST(ObsSummary, CountsFaultEvents) {
  // Fault events are trace kinds like any other: the summary counts them.
  SimConfig cfg;
  cfg.topo = mini_topo();
  cfg.seed = 3;
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(
      "container-kill:p=0.5,straggler:p=0.5:slow=2,ocs-outage:at=5s:dur=10s",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  cfg.faults = *plan;
  Observability obs;
  cfg.obs = &obs;
  SimulationDriver driver(cfg, heavy_workload(),
                          make_scheduler_factory("coscheduler")());
  const RunMetrics m = driver.run();
  ASSERT_GT(m.faults.maps_killed + m.faults.reduces_killed, 0);
  ASSERT_GT(m.faults.stragglers, 0);

  std::ostringstream os;
  print_obs_summary(os, obs);
  const std::string out = os.str();
  EXPECT_NE(out.find("task_killed: " +
                     std::to_string(obs.trace.count(
                         TraceEventKind::kTaskKilled))),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("task_straggle: "), std::string::npos) << out;
  EXPECT_NE(out.find("ocs_outage: 2"), std::string::npos) << out;
}

TEST(Trace, ChromeExportClosesKilledTaskSpans) {
  // A killed attempt's span must end at the kill, so every task row of the
  // export is balanced and the retry's span never nests inside it.
  SimConfig cfg;
  cfg.topo = mini_topo();
  cfg.seed = 3;
  std::string error;
  const std::optional<FaultPlan> plan =
      FaultPlan::parse("container-kill:p=0.5", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  cfg.faults = *plan;
  Observability obs;
  cfg.obs = &obs;
  SimulationDriver driver(cfg, heavy_workload(),
                          make_scheduler_factory("coscheduler")());
  const RunMetrics m = driver.run();
  ASSERT_GT(m.faults.maps_killed + m.faults.reduces_killed, 0);

  std::ostringstream os;
  obs.trace.write_chrome_trace(os, nullptr);
  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    const std::size_t from = at + key.size() + 3;
    return line.substr(from, line.find_first_of(",}", from) - from);
  };
  std::map<std::pair<std::string, std::string>, int> depth;
  std::int64_t spans = 0;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"cat\":\"task\"") == std::string::npos) continue;
    const std::string ph = field(line, "ph");
    if (ph != "\"B\"" && ph != "\"E\"") continue;
    int& d = depth[{field(line, "pid"), field(line, "tid")}];
    if (ph == "\"B\"") {
      ++d;
      ++spans;
      EXPECT_EQ(d, 1) << "span opened inside an open span: " << line;
    } else {
      EXPECT_EQ(d, 1) << "span closed with none open: " << line;
      --d;
    }
  }
  EXPECT_EQ(spans, obs.trace.count(TraceEventKind::kTaskStart));
  for (const auto& [row, d] : depth) {
    EXPECT_EQ(d, 0) << "task row pid " << row.first << " tid " << row.second
                    << " ends with an open span";
  }
}

}  // namespace
}  // namespace cosched
