// Golden-file regression tests (ctest -L determinism), tolerance 0:
//
//  * fig3_small.csv — a tiny fixed-seed Figure-3 configuration (2
//    repetitions x 20 jobs, seed 42, the paper's topology) whose
//    per-scheduler mean makespan / JCT / CCT / OCS fraction must match.
//  * faults_rotor_small.csv — one faulted Co-scheduler run on rotor:100ms
//    (stragglers, container kills, one whole-fabric OCS outage) whose
//    per-job JCT / CCT / CCT lower bound / all-flows-OCS rows must match.
//    Container kills re-place reduces after their coflow drained, so this
//    pins the reopen-after-completion lifetime the Figure-3 means never
//    reach.
//  * faults_ocs4_small.csv — the same faulted run on ocs:4 with the outage
//    aimed at plane 1 only (t=116s, 30s): Sunflow over several planes,
//    plane-wide port reservations, and a plane that fails and heals while
//    the others keep serving the queued demand.
//
// Values are serialized with %.17g, which round-trips IEEE doubles
// losslessly, so any change in simulation arithmetic, event ordering, RNG
// consumption, or workload generation shows up here as a hard failure.
//
// Regenerating after an intentional behavior change:
//
//   COSCHED_REGEN_GOLDEN=1 ./build/tests/test_golden
//
// then commit the rewritten tests/golden/*.csv (and explain the change in
// the PR). The golden paths are baked in at compile time from the source
// tree, so the one command works from any build directory.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "faults/fault_spec.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

#ifndef COSCHED_GOLDEN_DIR
#error "COSCHED_GOLDEN_DIR must be defined by the build"
#endif

const char* kGoldenPath = COSCHED_GOLDEN_DIR "/fig3_small.csv";
const char* kFaultGoldenPath = COSCHED_GOLDEN_DIR "/faults_rotor_small.csv";
const char* kOcs4FaultGoldenPath = COSCHED_GOLDEN_DIR "/faults_ocs4_small.csv";

const std::vector<std::string> kSchedulers{"fair", "corral", "coscheduler"};

/// The bench's paper_config at golden scale, so the golden run exercises
/// the exact topology/workload path of bench_fig3_overall.
ExperimentConfig golden_config() {
  bench::BenchArgs args;
  args.reps = 2;
  args.jobs = 20;
  args.seed = 42;
  return bench::paper_config(args);
}

struct GoldenRow {
  std::string scheduler;
  double makespan_sec = 0.0;
  double avg_jct_sec = 0.0;
  double avg_cct_sec = 0.0;
  double ocs_fraction = 0.0;
};

std::vector<GoldenRow> measure() {
  const std::vector<AggregateMetrics> results =
      compare_schedulers(golden_config(), kSchedulers);
  std::vector<GoldenRow> rows;
  for (const AggregateMetrics& m : results) {
    GoldenRow row;
    row.scheduler = m.scheduler;
    row.makespan_sec = m.makespan_sec.mean();
    row.avg_jct_sec = m.avg_jct_sec.mean();
    row.avg_cct_sec = m.avg_cct_sec.mean();
    row.ocs_fraction = m.ocs_fraction.mean();
    rows.push_back(row);
  }
  return rows;
}

std::string serialize(const std::vector<GoldenRow>& rows) {
  std::string out = "scheduler,makespan_sec,avg_jct_sec,avg_cct_sec,"
                    "ocs_fraction\n";
  for (const GoldenRow& r : rows) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s,%.17g,%.17g,%.17g,%.17g\n",
                  r.scheduler.c_str(), r.makespan_sec, r.avg_jct_sec,
                  r.avg_cct_sec, r.ocs_fraction);
    out += line;
  }
  return out;
}

std::vector<GoldenRow> parse_golden(std::istream& is) {
  std::vector<GoldenRow> rows;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    GoldenRow row;
    std::stringstream ss(line);
    std::string field;
    std::getline(ss, row.scheduler, ',');
    std::getline(ss, field, ',');
    row.makespan_sec = std::strtod(field.c_str(), nullptr);
    std::getline(ss, field, ',');
    row.avg_jct_sec = std::strtod(field.c_str(), nullptr);
    std::getline(ss, field, ',');
    row.avg_cct_sec = std::strtod(field.c_str(), nullptr);
    std::getline(ss, field, ',');
    row.ocs_fraction = std::strtod(field.c_str(), nullptr);
    rows.push_back(row);
  }
  return rows;
}

TEST(GoldenFig3Small, MeansMatchCommittedGoldenExactly) {
  const std::vector<GoldenRow> measured = measure();

  if (std::getenv("COSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(kGoldenPath);
    ASSERT_TRUE(os.good()) << "cannot write " << kGoldenPath;
    os << serialize(measured);
    GTEST_SKIP() << "regenerated " << kGoldenPath
                 << "; rerun without COSCHED_REGEN_GOLDEN to verify";
  }

  std::ifstream is(kGoldenPath);
  ASSERT_TRUE(is.good())
      << "missing golden file " << kGoldenPath
      << " — regenerate with COSCHED_REGEN_GOLDEN=1 ./tests/test_golden";
  const std::vector<GoldenRow> golden = parse_golden(is);

  ASSERT_EQ(golden.size(), measured.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("scheduler " + golden[i].scheduler);
    EXPECT_EQ(golden[i].scheduler, measured[i].scheduler);
    // Tolerance 0: %.17g round-trips doubles exactly, so == is well-defined.
    EXPECT_EQ(golden[i].makespan_sec, measured[i].makespan_sec);
    EXPECT_EQ(golden[i].avg_jct_sec, measured[i].avg_jct_sec);
    EXPECT_EQ(golden[i].avg_cct_sec, measured[i].avg_cct_sec);
    EXPECT_EQ(golden[i].ocs_fraction, measured[i].ocs_fraction);
  }
}

// The serializer itself must round-trip: a value written with %.17g and
// parsed with strtod compares equal bit-for-bit.
TEST(GoldenFig3Small, SerializationRoundTrips) {
  const std::vector<GoldenRow> measured = measure();
  std::stringstream ss(serialize(measured));
  const std::vector<GoldenRow> reparsed = parse_golden(ss);
  ASSERT_EQ(reparsed.size(), measured.size());
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_EQ(reparsed[i].scheduler, measured[i].scheduler);
    EXPECT_EQ(reparsed[i].makespan_sec, measured[i].makespan_sec);
    EXPECT_EQ(reparsed[i].avg_jct_sec, measured[i].avg_jct_sec);
    EXPECT_EQ(reparsed[i].avg_cct_sec, measured[i].avg_cct_sec);
    EXPECT_EQ(reparsed[i].ocs_fraction, measured[i].ocs_fraction);
  }
}

// ---- faulted runs: per-job records -----------------------------------------

/// A 12-rack cluster small enough to saturate, so kills hit tasks whose
/// coflows are mid-flight or already drained (several reduces re-fetch
/// into a completed coflow), and the outage evicts flows riding the
/// circuit fabric (by default t=120s, 30s, the whole fabric).
ExperimentConfig fault_golden_config(
    const std::string& fabric_spec = "rotor:100ms",
    const std::string& outage_clause = "ocs-outage:at=120s:dur=30s") {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 12;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  std::string error;
  const auto fabric = FabricSpec::parse(fabric_spec, &error);
  EXPECT_TRUE(fabric.has_value()) << error;
  cfg.sim.fabric = fabric.value_or(FabricSpec{});
  const auto plan = FaultPlan::parse(
      "straggler:p=0.2:slow=2,container-kill:p=0.2," + outage_clause, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  cfg.sim.faults = plan.value_or(FaultPlan{});
  cfg.workload.num_jobs = 40;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 60;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(50);
  cfg.base_seed = 42;
  return cfg;
}

std::string serialize_jobs(const RunMetrics& m) {
  std::string out = "job,jct_sec,cct_sec,cct_lower_bound_sec,all_flows_ocs\n";
  for (const JobRecord& r : m.jobs) {
    char line[256];
    std::snprintf(line, sizeof(line), "%lld,%.17g,%.17g,%.17g,%d\n",
                  static_cast<long long>(r.id.value()), r.jct.sec(),
                  r.cct.sec(), r.cct_lower_bound.sec(),
                  r.all_flows_ocs ? 1 : 0);
    out += line;
  }
  return out;
}

/// Runs the faulted Co-scheduler golden configuration and compares its
/// per-job rows with `path` (or rewrites `path` under COSCHED_REGEN_GOLDEN).
void expect_fault_golden(const ExperimentConfig& cfg, const char* path) {
  const RunMetrics m =
      run_once(cfg, make_scheduler_factory("coscheduler"), 0);
  // The golden only pins the kill/reopen lifetime if the faults fired.
  ASSERT_GT(m.faults.reduces_killed, 0);
  ASSERT_GT(m.faults.stragglers, 0);
  ASSERT_GT(m.faults.flows_evicted, 0);
  const std::string measured = serialize_jobs(m);

  if (std::getenv("COSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << measured;
    GTEST_SKIP() << "regenerated " << path
                 << "; rerun without COSCHED_REGEN_GOLDEN to verify";
  }

  std::ifstream is(path);
  ASSERT_TRUE(is.good())
      << "missing golden file " << path
      << " — regenerate with COSCHED_REGEN_GOLDEN=1 ./tests/test_golden";
  std::stringstream golden;
  golden << is.rdbuf();
  // Rows are %.17g text, so string equality is bit equality; gtest prints
  // a line diff of the rows that moved.
  EXPECT_EQ(golden.str(), measured);
}

TEST(GoldenFaultsRotorSmall, JobRecordsMatchCommittedGoldenExactly) {
  expect_fault_golden(fault_golden_config(), kFaultGoldenPath);
}

// The circuits of this workload are short (100 Gbps links), so the window
// is placed where it catches a transfer on plane 1: the eviction, the
// queued demand the other planes keep serving, and the healed plane all
// reach the records.
TEST(GoldenFaultsOcs4Small, JobRecordsMatchCommittedGoldenExactly) {
  expect_fault_golden(
      fault_golden_config("ocs:4", "ocs-outage:at=116s:dur=30s:plane=1"),
      kOcs4FaultGoldenPath);
}

}  // namespace
}  // namespace cosched
