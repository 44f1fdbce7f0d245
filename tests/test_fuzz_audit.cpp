// Randomized simulation fuzzing under the invariant auditor (ctest -L
// audit). Each iteration draws a seeded random topology x workload x fault
// plan x scheduler x thread count, runs it with every invariant check
// armed, and cross-checks the production fast paths against their
// references in tests/oracles.h, bit for bit: ReferenceCoScheduler (for
// the Co-scheduler family), the all-racks dispatch scan, both together,
// and serial vs parallel experiment sharding. A case whose fault plan is
// empty must also finish without the deadlock breaker. The EPS rate
// oracle is checked per replan by tests/test_rate_equivalence.cpp.
//
// Environment knobs (all optional; tools/fuzz_sim.py drives them):
//   COSCHED_FUZZ_RUNS       iterations (default 4 — keeps tier-1 fast)
//   COSCHED_FUZZ_SEED_BASE  base seed; iteration i uses base + i
//                           (both must be non-negative decimal integers;
//                           anything else fails the test)
//   COSCHED_FUZZ_AUDIT      "0" disables the auditor (perf triage only)
//   COSCHED_FUZZ_FABRIC     force one --fabric spec (e.g. "ocs:1",
//                           "rotor:50ms") instead of drawing it per case —
//                           with "ocs:1" every case matches the pre-fabric
//                           seam bit for bit
//
// A failure prints the full recipe (seed, topology, fault spec, scheduler,
// threads) so any crash reproduces with COSCHED_FUZZ_RUNS=1 and the seed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "bench_util.h"
#include "faults/fault_spec.h"
#include "oracles.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

/// A numeric knob's value: `fallback` when unset or empty, nullopt when
/// set to anything but a whole non-negative decimal integer ("ten", "-1",
/// "4x"), so a typo fails the test instead of running zero cases.
std::optional<std::uint64_t> parse_u64_knob(const char* value,
                                            std::uint64_t fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  std::uint64_t out = 0;
  if (!bench::parse_uint64(value, &out)) return std::nullopt;
  return out;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  const std::optional<std::uint64_t> parsed = parse_u64_knob(value, fallback);
  EXPECT_TRUE(parsed.has_value())
      << name << "='" << value << "' is not a non-negative integer";
  return parsed.value_or(0);
}

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::string(v) != "0";
}

struct FuzzCase {
  std::uint64_t seed = 0;
  ExperimentConfig cfg;
  std::string scheduler;
  std::int32_t threads = 1;
  std::string fault_spec;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " scheduler=" << scheduler
       << " fabric=" << cfg.sim.fabric.to_spec()
       << " threads=" << threads << " racks=" << cfg.sim.topo.num_racks
       << " servers=" << cfg.sim.topo.servers_per_rack
       << " slots=" << cfg.sim.topo.slots_per_server
       << " jobs=" << cfg.workload.num_jobs
       << " heavy=" << cfg.workload.shuffle_heavy_fraction
       << " faults='" << fault_spec << "'";
    return os.str();
  }
};

/// Everything about the case derives from the seed — rerunning a logged
/// seed reproduces the exact run, including its fault plan.
FuzzCase draw_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int32_t>(
        std::uniform_int_distribution<std::int64_t>(lo, hi)(rng));
  };
  const auto frac = [&] {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  };

  FuzzCase c;
  c.seed = seed;
  c.cfg.sim.topo.num_racks = pick(3, 8);
  c.cfg.sim.topo.servers_per_rack = pick(1, 3);
  c.cfg.sim.topo.slots_per_server = pick(2, 8);
  c.cfg.workload.num_jobs = pick(4, 14);
  c.cfg.workload.num_users = pick(1, 4);
  c.cfg.workload.arrival_window = Duration::seconds(pick(30, 180));
  c.cfg.workload.max_maps = pick(10, 50);
  c.cfg.workload.max_reduces = pick(2, 8);
  c.cfg.workload.shuffle_heavy_fraction = 0.5 * frac();
  c.cfg.workload.heavy_input_mu = 2.0 + frac();
  c.cfg.workload.heavy_input_sigma = 0.5 + 0.5 * frac();
  c.cfg.workload.max_input = DataSize::gigabytes(30);
  c.cfg.repetitions = 2;
  c.cfg.base_seed = seed;
  c.cfg.sim.audit = env_flag("COSCHED_FUZZ_AUDIT", true);

  // Compose a random fault plan clause by clause (possibly empty).
  std::ostringstream spec;
  const auto append = [&](const std::string& clause) {
    if (spec.tellp() > 0) spec << ",";
    spec << clause;
  };
  if (frac() < 0.5) {
    std::ostringstream s;
    s << "straggler:p=0." << pick(1, 3) << ":slow=" << pick(2, 4);
    append(s.str());
  }
  if (frac() < 0.5) {
    std::ostringstream s;
    s << "container-kill:p=0.0" << pick(1, 9);
    append(s.str());
  }
  if (frac() < 0.5) {
    std::ostringstream s;
    s << "ocs-outage:at=" << pick(10, 90) << "s:dur=" << pick(5, 40) << "s";
    append(s.str());
    if (frac() < 0.3) {
      std::ostringstream s2;
      s2 << "ocs-outage:at=" << pick(100, 200) << "s:dur=" << pick(5, 30)
         << "s";
      append(s2.str());
    }
  }
  if (frac() < 0.3) {
    std::ostringstream s;
    s << "reconfig-jitter:pct=" << pick(10, 90);
    append(s.str());
  }
  if (frac() < 0.3) {
    std::ostringstream s;
    s << "trem-noise:pct=" << pick(5, 40);
    append(s.str());
  }
  const char* schedulers[] = {"fair", "corral", "coscheduler", "mts+ocas",
                              "ocas"};
  c.scheduler = schedulers[pick(0, 4)];
  c.threads = pick(1, 3);

  // The fabric axis. Drawn last so every earlier draw — and therefore
  // every pre-existing fuzz case — is unchanged; COSCHED_FUZZ_FABRIC=ocs:1
  // forces the default fabric on the whole sweep (the pre-seam behavior).
  if (const char* forced = std::getenv("COSCHED_FUZZ_FABRIC");
      forced != nullptr && *forced != '\0') {
    std::string fab_error;
    const std::optional<FabricSpec> fs = FabricSpec::parse(forced, &fab_error);
    EXPECT_TRUE(fs.has_value()) << forced << ": " << fab_error;
    c.cfg.sim.fabric = fs.value_or(FabricSpec{});
  } else {
    const char* fabrics[] = {"ocs:1", "ocs:1",       "ocs:1",      "ocs:2",
                             "ocs:3", "rotor:100ms", "rotor:50ms", "mesh"};
    std::string fab_error;
    c.cfg.sim.fabric =
        FabricSpec::parse(fabrics[pick(0, 7)], &fab_error).value();
  }
  // K-core fabrics can lose a single plane: sometimes target one instead of
  // the whole switch (drawn after the fabric, so single-plane cases only
  // consume randomness when the fabric has planes to lose).
  if (c.cfg.sim.fabric.kind == FabricKind::kOcs &&
      c.cfg.sim.fabric.planes > 1 && frac() < 0.4) {
    std::ostringstream s;
    s << "ocs-outage:at=" << pick(20, 120) << "s:dur=" << pick(5, 40)
      << "s:plane=" << pick(0, c.cfg.sim.fabric.planes - 1);
    append(s.str());
  }

  c.fault_spec = spec.str();
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(c.fault_spec, &error);
  EXPECT_TRUE(plan.has_value()) << c.fault_spec << ": " << error;
  c.cfg.sim.faults = plan.value_or(FaultPlan{});
  return c;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const std::vector<RunMetrics>& a,
                          const std::vector<RunMetrics>& b,
                          const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t rep = 0; rep < a.size(); ++rep) {
    const std::string at = where + " rep" + std::to_string(rep);
    EXPECT_EQ(bits(a[rep].makespan.sec()), bits(b[rep].makespan.sec())) << at;
    EXPECT_EQ(a[rep].ocs_bytes.in_bytes(), b[rep].ocs_bytes.in_bytes()) << at;
    EXPECT_EQ(a[rep].eps_bytes.in_bytes(), b[rep].eps_bytes.in_bytes()) << at;
    EXPECT_EQ(a[rep].local_bytes.in_bytes(), b[rep].local_bytes.in_bytes())
        << at;
    EXPECT_EQ(a[rep].events_executed, b[rep].events_executed) << at;
    EXPECT_EQ(a[rep].dispatch_waves, b[rep].dispatch_waves) << at;
    ASSERT_EQ(a[rep].jobs.size(), b[rep].jobs.size()) << at;
    for (std::size_t j = 0; j < a[rep].jobs.size(); ++j) {
      EXPECT_EQ(bits(a[rep].jobs[j].jct.sec()), bits(b[rep].jobs[j].jct.sec()))
          << at << " job#" << j;
      EXPECT_EQ(bits(a[rep].jobs[j].cct.sec()), bits(b[rep].jobs[j].cct.sec()))
          << at << " job#" << j;
    }
  }
}

TEST(FuzzAudit, MalformedNumericKnobsAreRejected) {
  EXPECT_EQ(parse_u64_knob(nullptr, 4), std::optional<std::uint64_t>(4));
  EXPECT_EQ(parse_u64_knob("", 4), std::optional<std::uint64_t>(4));
  EXPECT_EQ(parse_u64_knob("25", 4), std::optional<std::uint64_t>(25));
  EXPECT_EQ(parse_u64_knob("ten", 4), std::nullopt);
  EXPECT_EQ(parse_u64_knob("-1", 4), std::nullopt);  // would wrap to 2^64-1
  EXPECT_EQ(parse_u64_knob("4x", 4), std::nullopt);
}

TEST(FuzzAudit, RandomConfigsHoldEveryInvariant) {
  const std::uint64_t runs = env_u64("COSCHED_FUZZ_RUNS", 4);
  const std::uint64_t base = env_u64("COSCHED_FUZZ_SEED_BASE", 0xF022'2026);
  ASSERT_FALSE(HasFailure()) << "malformed fuzz knob";
  for (std::uint64_t i = 0; i < runs; ++i) {
    const FuzzCase c = draw_case(base + i);
    SCOPED_TRACE(c.describe());
    const SchedulerFactory factory = make_scheduler_factory(c.scheduler);

    // Audited serial run of the production scheduler and dispatch.
    std::vector<RunMetrics> serial;
    try {
      serial = run_repetitions(c.cfg, factory);
    } catch (const AuditFailure& e) {
      FAIL() << "invariant violation\n" << e.what();
    } catch (const CheckFailure& e) {
      FAIL() << "check failure\n" << e.what();
    }

    // Liveness: without faults no scheduler may strand a run on work that
    // only the deadlock breaker can release (a failing case prints its
    // recipe through the scoped trace above).
    if (c.cfg.sim.faults.empty()) {
      for (std::size_t rep = 0; rep < serial.size(); ++rep) {
        EXPECT_EQ(serial[rep].deadlock_breaks, 0) << "rep" << rep;
      }
    }

    // Parallel sharding must be bit-identical to serial.
    if (c.threads > 1) {
      const std::vector<RunMetrics> sharded =
          run_repetitions(c.cfg, factory, c.threads);
      expect_bitwise_equal(serial, sharded, "serial-vs-parallel");
    }

    // Cross the oracle axes: the production dispatch against the all-racks
    // scan, and, where the scheduler has a reference, its incremental
    // decisions against the reference alone and stacked on the scan.
    const SchedulerFactory scan = oracle::scan_dispatch_factory(factory);
    expect_bitwise_equal(serial, run_repetitions(c.cfg, scan),
                         "dispatch-vs-scan");
    if (oracle::has_reference_scheduler(c.scheduler)) {
      const SchedulerFactory reference =
          oracle::reference_scheduler_factory(c.scheduler);
      expect_bitwise_equal(serial, run_repetitions(c.cfg, reference),
                           "sched-incremental-vs-reference");
      expect_bitwise_equal(
          serial,
          run_repetitions(c.cfg, oracle::scan_dispatch_factory(reference)),
          "all-fast-vs-all-reference");
    }
  }
}

}  // namespace
}  // namespace cosched
