// BenchArgs::parse_or_error: the benches' flag parser must reject garbage
// loudly instead of atoi-ing it to 0 (the bug this suite pins down).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace cosched::bench {
namespace {

std::optional<BenchArgs> parse(std::vector<std::string> flags,
                               std::string* error = nullptr,
                               bool* help = nullptr) {
  std::vector<char*> argv;
  std::string prog = "bench";
  argv.push_back(prog.data());
  for (std::string& f : flags) argv.push_back(f.data());
  std::string local_error;
  bool local_help = false;
  return BenchArgs::parse_or_error(static_cast<int>(argv.size()), argv.data(),
                                   error != nullptr ? error : &local_error,
                                   help != nullptr ? help : &local_help);
}

TEST(BenchArgsParse, DefaultsWithNoFlags) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->reps, 2);
  EXPECT_EQ(args->jobs, 200);
  EXPECT_EQ(args->seed, 42u);
  EXPECT_EQ(args->threads, 1);
  EXPECT_FALSE(args->observing());
}

TEST(BenchArgsParse, ValidFlagsParse) {
  const auto args = parse({"--reps=20", "--jobs=1000", "--seed=123456789",
                           "--threads=8", "--trace-out=/tmp/t.json",
                           "--counters-out=/tmp/c.csv"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->reps, 20);
  EXPECT_EQ(args->jobs, 1000);
  EXPECT_EQ(args->seed, 123456789u);
  EXPECT_EQ(args->threads, 8);
  EXPECT_EQ(args->trace_out, "/tmp/t.json");
  EXPECT_EQ(args->counters_out, "/tmp/c.csv");
  EXPECT_TRUE(args->observing());
}

TEST(BenchArgsParse, ThreadsZeroMeansHardwareConcurrency) {
  const auto args = parse({"--threads=0"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->threads, 0);
}

TEST(BenchArgsParse, RejectsNonNumericReps) {
  std::string error;
  EXPECT_FALSE(parse({"--reps=abc"}, &error).has_value());
  EXPECT_NE(error.find("--reps"), std::string::npos);
  EXPECT_NE(error.find("abc"), std::string::npos);
}

TEST(BenchArgsParse, RejectsNonPositiveReps) {
  EXPECT_FALSE(parse({"--reps=0"}).has_value());
  EXPECT_FALSE(parse({"--reps=-3"}).has_value());
  EXPECT_FALSE(parse({"--reps="}).has_value());
}

TEST(BenchArgsParse, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse({"--reps=12x"}).has_value());
  EXPECT_FALSE(parse({"--jobs=1e3"}).has_value());
  EXPECT_FALSE(parse({"--seed=42 "}).has_value());
}

TEST(BenchArgsParse, RejectsNonNumericSeed) {
  std::string error;
  EXPECT_FALSE(parse({"--seed=abc"}, &error).has_value());
  EXPECT_NE(error.find("--seed"), std::string::npos);
  EXPECT_FALSE(parse({"--seed=-1"}).has_value());
}

TEST(BenchArgsParse, RejectsOverflow) {
  EXPECT_FALSE(parse({"--reps=99999999999999999999"}).has_value());
  EXPECT_FALSE(parse({"--seed=99999999999999999999999"}).has_value());
}

TEST(BenchArgsParse, RejectsNegativeThreads) {
  EXPECT_FALSE(parse({"--threads=-1"}).has_value());
  EXPECT_FALSE(parse({"--threads=two"}).has_value());
}

TEST(BenchArgsParse, ValidFaultSpecParses) {
  const auto args = parse({"--faults=straggler:p=0.1:slow=2"});
  ASSERT_TRUE(args.has_value());
  ASSERT_TRUE(args->faults.straggler.has_value());
  EXPECT_DOUBLE_EQ(args->faults.straggler->p, 0.1);
  EXPECT_EQ(args->faults_spec, "straggler:p=0.1:slow=2");
}

TEST(BenchArgsParse, DefaultFaultPlanIsEmpty) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->faults.empty());
  EXPECT_TRUE(args->faults_spec.empty());
}

TEST(BenchArgsParse, RejectsMalformedFaultSpec) {
  std::string error;
  EXPECT_FALSE(parse({"--faults=bogus:p=1"}, &error).has_value());
  EXPECT_NE(error.find("--faults"), std::string::npos);
  EXPECT_FALSE(parse({"--faults=straggler:p=2"}).has_value());
}

TEST(BenchArgsParse, RejectsUnknownFlag) {
  std::string error;
  EXPECT_FALSE(parse({"--bogus=1"}, &error).has_value());
  EXPECT_NE(error.find("--bogus"), std::string::npos);
  // There is no profiling flag: attaching the observability bundle
  // (--trace-out=, --report-out=, ...) monitors the run.
  for (const char* gone : {"--profile", "--profile-out=x"}) {
    error.clear();
    EXPECT_FALSE(parse({gone}, &error).has_value()) << gone;
    EXPECT_NE(error.find("unknown flag: " + std::string(gone)),
              std::string::npos)
        << gone;
  }
}

TEST(BenchArgsParse, HelpFlagSetsHelp) {
  std::string error;
  bool help = false;
  const auto args = parse({"--help"}, &error, &help);
  EXPECT_TRUE(help);
  ASSERT_TRUE(args.has_value());
}

TEST(BenchArgsParse, SeedAcceptsFullU64Range) {
  const auto args = parse({"--seed=18446744073709551615"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->seed, 18446744073709551615ull);
}

TEST(ParseHelpers, ParseInt32Bounds) {
  std::int32_t v = -1;
  EXPECT_TRUE(parse_int32("5", 1, 10, &v));
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(parse_int32("0", 1, 10, &v));
  EXPECT_FALSE(parse_int32("11", 1, 10, &v));
  EXPECT_FALSE(parse_int32("", 1, 10, &v));
  EXPECT_FALSE(parse_int32(nullptr, 1, 10, &v));
  EXPECT_FALSE(parse_int32("5.0", 1, 10, &v));
}

TEST(ParseHelpers, ParseInt32RejectsStrtolLaundering) {
  // strtol silently skips leading whitespace and accepts '+'; a strict flag
  // value starts with a digit or '-' and nothing else.
  std::int32_t v = 0;
  EXPECT_FALSE(parse_int32(" 5", 1, 10, &v));
  EXPECT_FALSE(parse_int32("+5", 1, 10, &v));
  EXPECT_FALSE(parse_int32("\t5", 1, 10, &v));
  EXPECT_TRUE(parse_int32("-3", -10, 10, &v));
  EXPECT_EQ(v, -3);
}

TEST(ParseHelpers, ParseUint64RejectsNegativeWraparound) {
  // Regression: strtoull converts " -1" to 18446744073709551615 without
  // setting ERANGE, so a negative seed used to launder itself into a huge
  // valid one. The first character must now be a digit.
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_uint64("-1", &v));
  EXPECT_FALSE(parse_uint64(" -1", &v));
  EXPECT_FALSE(parse_uint64(" 5", &v));
  EXPECT_FALSE(parse_uint64("+5", &v));
  EXPECT_TRUE(parse_uint64("5", &v));
  EXPECT_EQ(v, 5u);
  // Genuine overflow still reports failure via ERANGE.
  EXPECT_FALSE(parse_uint64("99999999999999999999", &v));
}

TEST(BenchArgsParse, RejectsNegativeSeedInsteadOfWrapping) {
  std::string error;
  EXPECT_FALSE(parse({"--seed=-1"}, &error).has_value());
  EXPECT_NE(error.find("--seed"), std::string::npos);
  EXPECT_FALSE(parse({"--seed=+7"}).has_value());
}

// The engine flags are gone: production runs one implementation of each
// decision, and the references live in tests/oracles.h. Every former
// engine value, valid ones included, is now an unknown flag — never a
// silent no-op.
void expect_removed_flag(const std::vector<const char*>& values) {
  for (const char* v : values) {
    std::string error;
    EXPECT_FALSE(parse({v}, &error).has_value()) << v;
    EXPECT_NE(error.find("unknown flag"), std::string::npos) << v;
    EXPECT_NE(error.find(v), std::string::npos) << v;
  }
}

TEST(BenchArgsParse, RejectsUnknownSchedEngine) {
  expect_removed_flag({"--sched-engine=incremental",
                       "--sched-engine=reference", "--sched-engine=fast",
                       "--sched-engine="});
}

TEST(BenchArgsParse, RejectsUnknownEpsEngine) {
  expect_removed_flag({"--eps-engine=grouped", "--eps-engine=reference",
                       "--eps-engine="});
}

TEST(BenchArgsParse, RejectsUnknownDispatchEngine) {
  expect_removed_flag({"--dispatch-engine=offer-queue",
                       "--dispatch-engine=scan", "--dispatch-engine="});
}

// The planner always charges the active fabric's own bound, so the old
// planner-bound switch is gone too.
TEST(BenchArgsParse, RejectsDeletedBoundFlag) {
  for (const char* mode : {"fabric", "legacy", ""}) {
    const std::string flag = std::string("--bound") + "=" + mode;
    expect_removed_flag({flag.c_str()});
  }
}

TEST(ScaleCombo, RejectsNonPositiveValues) {
  EXPECT_FALSE(check_scale_combo(100, 0).ok);
  EXPECT_NE(check_scale_combo(100, 0).error.find("--racks"),
            std::string::npos);
  EXPECT_FALSE(check_scale_combo(100, -4).ok);
  EXPECT_FALSE(check_scale_combo(0, 60).ok);
  EXPECT_NE(check_scale_combo(0, 60).error.find("--jobs"),
            std::string::npos);
  EXPECT_FALSE(check_scale_combo(-1, 60).ok);
}

TEST(ScaleCombo, WarnsWhenJobsCannotCoverRacks) {
  const ScaleComboCheck sparse = check_scale_combo(100, 256);
  EXPECT_TRUE(sparse.ok);
  EXPECT_TRUE(sparse.error.empty());
  EXPECT_NE(sparse.warning.find("idle"), std::string::npos);

  // jobs == racks is the boundary: no warning.
  const ScaleComboCheck exact = check_scale_combo(256, 256);
  EXPECT_TRUE(exact.ok);
  EXPECT_TRUE(exact.warning.empty());

  const ScaleComboCheck dense = check_scale_combo(10000, 60);
  EXPECT_TRUE(dense.ok);
  EXPECT_TRUE(dense.warning.empty());
}

TEST(BenchArgsParse, AuditFlagToggles) {
  const auto defaults = parse({});
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->audit, kAuditDefaultOn);

  const auto on = parse({"--audit"});
  ASSERT_TRUE(on.has_value());
  EXPECT_TRUE(on->audit);
  EXPECT_TRUE(paper_config(*on).sim.audit);

  const auto off = parse({"--no-audit"});
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->audit);
  EXPECT_FALSE(paper_config(*off).sim.audit);
}

TEST(BenchArgsParse, FabricDefaultsToSingleCoreOcs) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->fabric_spec, "ocs:1");
  EXPECT_EQ(args->fabric, FabricSpec{});
  EXPECT_EQ(paper_config(*args).sim.fabric, FabricSpec{});
}

TEST(BenchArgsParse, FabricFlagParsesEveryKind) {
  const auto kcore = parse({"--fabric=ocs:4"});
  ASSERT_TRUE(kcore.has_value());
  EXPECT_EQ(kcore->fabric.kind, FabricKind::kOcs);
  EXPECT_EQ(kcore->fabric.planes, 4);
  EXPECT_EQ(kcore->fabric_spec, "ocs:4");
  EXPECT_EQ(paper_config(*kcore).sim.fabric.planes, 4);

  const auto rotor = parse({"--fabric=rotor:50ms"});
  ASSERT_TRUE(rotor.has_value());
  EXPECT_EQ(rotor->fabric.kind, FabricKind::kRotor);
  EXPECT_DOUBLE_EQ(rotor->fabric.rotor_period.sec(), 0.05);

  const auto mesh = parse({"--fabric=mesh"});
  ASSERT_TRUE(mesh.has_value());
  EXPECT_EQ(mesh->fabric.kind, FabricKind::kMesh);
}

TEST(BenchArgsParse, RejectsMalformedFabricSpecs) {
  for (const char* flag :
       {"--fabric=", "--fabric=ocs:0", "--fabric=ocs:65", "--fabric=ocs:2x",
        "--fabric=rotor:abc", "--fabric=rotor:0", "--fabric=mesh:1",
        "--fabric=ring", "--fabric=ring:2", "--fabric=torus"}) {
    std::string error;
    EXPECT_FALSE(parse({flag}, &error).has_value()) << flag;
    EXPECT_NE(error.find("--fabric"), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace cosched::bench
