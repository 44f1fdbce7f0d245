// Shared helpers for the figure-reproduction benches: a tiny flag parser,
// the paper's experiment defaults, and table printing.
//
// Every bench accepts:
//   --reps=N     repetitions (paper: 20; default 2 to keep CI fast)
//   --jobs=N     jobs per repetition (paper: 1000; default 200)
//   --seed=N     base seed
//   --threads=N  worker threads sharding independent runs (default 1 =
//                serial; 0 = one per hardware thread). Results are
//                bit-for-bit identical for every thread count — see
//                src/sim/experiment.h and ctest -L determinism.
//   --faults=SPEC fault-injection plan applied to every run (see
//                src/faults/fault_spec.h for the grammar, docs/FAULTS.md
//                for the model), e.g.
//                --faults=straggler:p=0.05:slow=2,ocs-outage:at=300s:dur=60s
//   --fabric=SPEC circuit fabric carrying the elephants: ocs[:K] (K circuit
//                planes; default ocs:1, the paper's single OCS), rotor[:P]
//                (fixed-period round-robin matchings), or mesh — see
//                docs/FABRICS.md
//   --audit / --no-audit
//                enable/disable the runtime invariant auditor (see
//                src/audit/). Default: on in Debug builds, off in Release.
//                Audited runs are bit-for-bit identical to unaudited ones;
//                the auditor only observes.
// and prints one table per figure panel, with values normalized exactly the
// way the paper normalizes them (to the Fair scheduler unless stated).
//
// Numeric flags are parsed strictly: non-numeric, trailing-garbage, or
// out-of-range values are errors, not silent zeros.
//
// Observability (benches that support it, currently bench_fig3_overall
// and bench_scale):
//   --trace-out=PATH      Chrome trace JSON of one coscheduler repetition
//   --counters-out=PATH   counter samples of that repetition as CSV
//   --heartbeat=SECS      wall-clock progress line every SECS seconds
//   --report-out=PATH     unified RunReport JSON (tools/run_report.py)
//   --racks=N             override the paper's 60-rack topology
//   --sched=NAME          scheduler for single-scheduler benches
//                         (bench_scale; default coscheduler)
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_spec.h"
#include "sim/experiment.h"

namespace cosched::bench {

/// Strict decimal parse of a whole C string into [min_value, max_value];
/// rejects empty input, any trailing characters, and overflow. The first
/// character must be a digit or '-': strtoll itself skips leading
/// whitespace and accepts '+', which would let " 5" or "+5" through a
/// parser documented as strict.
inline bool parse_int32(const char* s, std::int32_t min_value,
                        std::int32_t max_value, std::int32_t* out) {
  if (s == nullptr || *s == '\0') return false;
  const char* digits = (*s == '-') ? s + 1 : s;
  if (*digits < '0' || *digits > '9') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < min_value || v > max_value) return false;
  *out = static_cast<std::int32_t>(v);
  return true;
}

/// Strict decimal parse of a whole C string into a uint64. The first
/// character must be a digit: besides whitespace/'+' laundering, strtoull
/// parses a *negative* number by wrapping it into range without setting
/// ERANGE, so " -1" would sail through the old '-' prefix check (which the
/// skipped whitespace defeated) and come back as 18446744073709551615.
inline bool parse_uint64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strict decimal parse of a whole C string into [min_value, max_value];
/// same contract as parse_int32 — no leading whitespace, no '+', no
/// trailing characters, and inf/nan spellings are rejected (the first
/// character must be a digit, '-', or '.').
inline bool parse_double(const char* s, double min_value, double max_value,
                         double* out) {
  if (s == nullptr || *s == '\0') return false;
  const char* digits = (*s == '-') ? s + 1 : s;
  if ((*digits < '0' || *digits > '9') && *digits != '.') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (!(v >= min_value && v <= max_value)) return false;  // also rejects NaN
  *out = v;
  return true;
}

struct BenchArgs {
  std::int32_t reps = 2;
  std::int32_t jobs = 200;
  std::uint64_t seed = 42;
  /// 0 = the paper's 60-rack topology; > 0 overrides num_racks.
  std::int32_t racks = 0;
  /// Wall-clock heartbeat period (--heartbeat=SECS); 0 = off. Negative
  /// means "flag absent", letting benches pick their own default
  /// (bench_scale heartbeats every 10 s unless told otherwise).
  double heartbeat_sec = -1.0;
  /// RunReport JSON destination (--report-out=PATH); empty = none.
  std::string report_out;
  /// Scheduler for single-scheduler benches (bench_scale).
  std::string sched = "coscheduler";
  /// Workers for run_experiment / compare_schedulers: 1 = serial
  /// (default), 0 = all hardware threads, N > 1 = at most N.
  std::int32_t threads = 1;
  std::string trace_out;
  std::string counters_out;
  /// Validated fault plan from --faults= (empty plan when the flag is
  /// absent), plus the original spec string for display.
  FaultPlan faults;
  std::string faults_spec;
  /// Circuit fabric (--fabric=ocs[:K]|rotor[:PERIOD]|mesh; see
  /// docs/FABRICS.md). Default ocs:1 — the paper's fabric.
  FabricSpec fabric;
  std::string fabric_spec = "ocs:1";
  /// Runtime invariant auditor (--audit / --no-audit). Defaults on in
  /// Debug builds and off in Release, matching SimConfig.
  bool audit = kAuditDefaultOn;

  [[nodiscard]] bool observing() const {
    return !trace_out.empty() || !counters_out.empty() || !report_out.empty();
  }

  /// Parse argv. On any error, `*error` gets a message and nullopt is
  /// returned; `*help` is set when --help/-h was seen (caller prints usage).
  static std::optional<BenchArgs> parse_or_error(int argc, char** argv,
                                                 std::string* error,
                                                 bool* help) {
    BenchArgs args;
    *help = false;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&](const char* prefix) -> const char* {
        return a.rfind(prefix, 0) == 0 ? a.c_str() + std::strlen(prefix)
                                       : nullptr;
      };
      if (const char* reps = value("--reps=")) {
        if (!parse_int32(reps, 1, std::numeric_limits<std::int32_t>::max(),
                         &args.reps)) {
          *error = "--reps expects a positive integer, got '" +
                   std::string(reps) + "'";
          return std::nullopt;
        }
      } else if (const char* jobs = value("--jobs=")) {
        if (!parse_int32(jobs, 1, std::numeric_limits<std::int32_t>::max(),
                         &args.jobs)) {
          *error = "--jobs expects a positive integer, got '" +
                   std::string(jobs) + "'";
          return std::nullopt;
        }
      } else if (const char* seed = value("--seed=")) {
        if (!parse_uint64(seed, &args.seed)) {
          *error = "--seed expects a non-negative integer, got '" +
                   std::string(seed) + "'";
          return std::nullopt;
        }
      } else if (const char* threads = value("--threads=")) {
        if (!parse_int32(threads, 0, std::numeric_limits<std::int32_t>::max(),
                         &args.threads)) {
          *error = "--threads expects an integer >= 0 (0 = all hardware "
                   "threads), got '" +
                   std::string(threads) + "'";
          return std::nullopt;
        }
      } else if (const char* faults = value("--faults=")) {
        std::string parse_error;
        const std::optional<FaultPlan> plan =
            FaultPlan::parse(faults, &parse_error);
        if (!plan.has_value()) {
          *error = "--faults: " + parse_error;
          return std::nullopt;
        }
        args.faults = *plan;
        args.faults_spec = faults;
      } else if (const char* fabric = value("--fabric=")) {
        std::string parse_error;
        const std::optional<FabricSpec> spec =
            FabricSpec::parse(fabric, &parse_error);
        if (!spec.has_value()) {
          *error = "--fabric: " + parse_error;
          return std::nullopt;
        }
        args.fabric = *spec;
        args.fabric_spec = spec->to_spec();
      } else if (const char* racks = value("--racks=")) {
        if (!parse_int32(racks, 2, 100000, &args.racks)) {
          *error = "--racks expects an integer >= 2, got '" +
                   std::string(racks) + "'";
          return std::nullopt;
        }
      } else if (const char* hb = value("--heartbeat=")) {
        if (!parse_double(hb, 0.0, 1e9, &args.heartbeat_sec)) {
          *error = "--heartbeat expects seconds >= 0, got '" +
                   std::string(hb) + "'";
          return std::nullopt;
        }
      } else if (const char* report = value("--report-out=")) {
        args.report_out = report;
      } else if (const char* sched = value("--sched=")) {
        args.sched = sched;
      } else if (const char* trace = value("--trace-out=")) {
        args.trace_out = trace;
      } else if (const char* counters = value("--counters-out=")) {
        args.counters_out = counters;
      } else if (a == "--audit") {
        args.audit = true;
      } else if (a == "--no-audit") {
        args.audit = false;
      } else if (a == "--help" || a == "-h") {
        *help = true;
        return args;
      } else {
        *error = "unknown flag: " + a;
        return std::nullopt;
      }
    }
    return args;
  }

  static void print_usage(const char* prog) {
    std::printf(
        "usage: %s [--reps=N] [--jobs=N (paper: 1000)] [--seed=N]\n"
        "          [--threads=N (0 = all hardware threads)]\n"
        "          [--racks=N (default: paper's 60)]\n"
        "          [--sched=NAME (single-scheduler benches; default "
        "coscheduler)]\n"
        "          [--fabric=ocs[:K]|rotor[:PERIOD]|mesh (default "
        "ocs:1;\n"
        "           see docs/FABRICS.md)]\n"
        "          [--faults=SPEC (see docs/FAULTS.md)]\n"
        "          [--audit | --no-audit (invariant auditor; default %s)]\n"
        "          [--trace-out=PATH] [--counters-out=PATH]\n"
        "          [--heartbeat=SECS] [--report-out=PATH]\n",
        prog, kAuditDefaultOn ? "on" : "off");
  }

  static BenchArgs parse(int argc, char** argv) {
    std::string error;
    bool help = false;
    const std::optional<BenchArgs> args =
        parse_or_error(argc, argv, &error, &help);
    if (help) {
      print_usage(argv[0]);
      std::exit(0);
    }
    if (!args.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      print_usage(argv[0]);
      std::exit(2);
    }
    return *args;
  }
};

/// bench_scale's --jobs/--racks combination check, beyond per-flag
/// parsing: rejects non-positive values outright (the parser already
/// enforces jobs >= 1 and racks >= 2, but the helper is the single source
/// of truth for programmatic callers and tests), and warns when the sweep
/// point cannot keep the topology busy — fewer jobs than racks leaves
/// racks idle for the entire run, so per-rack scaling numbers from that
/// combo are noise, not signal.
struct ScaleComboCheck {
  bool ok = true;
  std::string error;    ///< set when !ok (combo rejected)
  std::string warning;  ///< set when ok but the combo is degenerate
};

inline ScaleComboCheck check_scale_combo(std::int32_t jobs,
                                         std::int32_t racks) {
  ScaleComboCheck check;
  if (racks <= 0) {
    check.ok = false;
    check.error = "--racks must be positive, got " + std::to_string(racks);
    return check;
  }
  if (jobs <= 0) {
    check.ok = false;
    check.error = "--jobs must be positive, got " + std::to_string(jobs);
    return check;
  }
  if (jobs < racks) {
    check.warning = "only " + std::to_string(jobs) + " jobs across " +
                    std::to_string(racks) +
                    " racks: most racks will sit idle, so per-rack scaling "
                    "numbers from this combo are not meaningful";
  }
  return check;
}

/// The paper's experimental setting (Section V-A): 60 racks x 10 servers,
/// 20 containers/server, 10 Gb/s NICs, 10:1 oversubscription, 100 Gb/s OCS,
/// delta = 10 ms, T_e = 1.125 GB, 1000 jobs in [0, 90] min, 20 users.
inline ExperimentConfig paper_config(const BenchArgs& args) {
  ExperimentConfig cfg;
  cfg.sim.topo = HybridTopology{};  // defaults mirror the paper
  if (args.racks > 0) cfg.sim.topo.num_racks = args.racks;
  cfg.workload.num_jobs = args.jobs;
  cfg.workload.num_users = 20;
  // Scale the arrival window with the job count so smaller --jobs runs
  // keep the paper's offered load.
  cfg.workload.arrival_window =
      Duration::minutes(90.0 * args.jobs / 1000.0);
  cfg.repetitions = args.reps;
  cfg.base_seed = args.seed;
  cfg.sim.faults = args.faults;
  cfg.sim.fabric = args.fabric;
  cfg.sim.audit = args.audit;
  cfg.sim.heartbeat_sec = std::max(0.0, args.heartbeat_sec);
  return cfg;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void print_row(const std::string& label,
                      const std::vector<double>& values) {
  std::printf("%-22s", label.c_str());
  for (double v : values) std::printf(" %10.3f", v);
  std::printf("\n");
}

inline void print_cols(const std::vector<std::string>& cols) {
  std::printf("%-22s", "");
  for (const auto& c : cols) std::printf(" %10s", c.c_str());
  std::printf("\n");
}

}  // namespace cosched::bench
