// Trace tooling: generate a SWIM-style synthetic workload trace, inspect
// one, or replay one through the simulator.
//
//   trace_tools generate <path> [num_jobs] [seed]   write a trace CSV
//   trace_tools stats    <path>                     print workload stats
//   trace_tools replay   <path> <scheduler> [obs]   simulate a trace
//
// Schedulers: fair | corral | coscheduler | mts+ocas | ocas
//
// Replay observability flags:
//   --trace-out=<path>      Chrome trace_event JSON (chrome://tracing or
//                           https://ui.perfetto.dev) with counter tracks
//   --trace-csv=<path>      flat CSV of every trace event, container
//                           grants, circuit setups and faults included
//   --counters-out=<path>   time-series counter samples as CSV
//   --decisions-out=<stem>  PSRT/SBS reduce placements: <stem>.placements.csv
//   --counter-interval=<s>  sim-seconds between counter samples (default 1;
//                           must be a positive number)
//
// Any observability flag also monitors the replay's wall clock: the
// summary printed after the run ends with the per-phase table.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.h"
#include "metrics/report.h"
#include "obs/observability.h"
#include "sim/experiment.h"
#include "workload/generator.h"
#include "workload/trace_io.h"

using namespace cosched;

namespace {

int cmd_generate(int argc, char** argv) {
  const std::string path = argv[2];
  WorkloadConfig cfg;
  cfg.num_jobs = argc > 3 ? std::atoi(argv[3]) : 1000;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10)
                                      : 42;
  Rng rng(seed);
  const auto jobs = generate_workload(cfg, rng);
  write_trace_file(path, jobs);
  std::printf("wrote %zu jobs to %s\n", jobs.size(), path.c_str());
  return 0;
}

int cmd_stats(const char* path) {
  const auto jobs = read_trace_file(path);
  const HybridTopology topo;
  const WorkloadStats s = compute_stats(jobs, topo.elephant_threshold);
  std::printf("jobs:            %lld\n", static_cast<long long>(s.num_jobs));
  std::printf("shuffle-heavy:   %lld (%.1f%%)\n",
              static_cast<long long>(s.num_shuffle_heavy),
              100.0 * static_cast<double>(s.num_shuffle_heavy) /
                  static_cast<double>(s.num_jobs));
  std::printf("map tasks:       %lld\n",
              static_cast<long long>(s.total_map_tasks));
  std::printf("reduce tasks:    %lld\n",
              static_cast<long long>(s.total_reduce_tasks));
  std::printf("total input:     %.1f GB\n", s.total_input.in_gigabytes());
  std::printf("total shuffle:   %.1f GB\n", s.total_shuffle.in_gigabytes());
  std::printf("arrival window:  [%.1f, %.1f] s\n", s.first_arrival.sec(),
              s.last_arrival.sec());
  return 0;
}

struct ObsFlags {
  std::string trace_out;
  std::string trace_csv;
  std::string counters_out;
  std::string decisions_out;
  double counter_interval_sec = 1.0;
  bool any() const {
    return !trace_out.empty() || !trace_csv.empty() ||
           !counters_out.empty() || !decisions_out.empty();
  }
};

/// Parse one replay flag into `flags`. Returns false with `*error` set on
/// an unknown flag or a malformed value.
bool parse_obs_flag(const std::string& arg, ObsFlags& flags,
                    std::string* error) {
  auto value_of = [&](const char* prefix, std::string& out) {
    const std::size_t n = std::string(prefix).size();
    if (arg.rfind(prefix, 0) != 0) return false;
    out = arg.substr(n);
    return true;
  };
  std::string interval;
  if (value_of("--trace-out=", flags.trace_out)) return true;
  if (value_of("--trace-csv=", flags.trace_csv)) return true;
  if (value_of("--counters-out=", flags.counters_out)) return true;
  if (value_of("--decisions-out=", flags.decisions_out)) return true;
  if (value_of("--counter-interval=", interval)) {
    // Strict, like the benches' numeric flags: atof would turn "abc" or
    // "-1" into 0, an interval at which the sampler never fires.
    if (!bench::parse_double(interval.c_str(), 0.0, 1e9,
                             &flags.counter_interval_sec) ||
        flags.counter_interval_sec <= 0.0) {
      *error = "--counter-interval expects a positive number of seconds, "
               "got '" + interval + "'";
      return false;
    }
    return true;
  }
  *error = "unknown flag " + arg;
  return false;
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& writer,
                const char* what) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  writer(os);
  std::printf("wrote %s to %s\n", what, path.c_str());
}

int cmd_replay(const char* path, const char* scheduler,
               const ObsFlags& flags) {
  auto jobs = read_trace_file(path);
  SimConfig cfg;
  cfg.seed = 1;

  std::unique_ptr<Observability> obs;
  if (flags.any()) {
    obs = std::make_unique<Observability>();
    obs->counters.set_interval(
        Duration::seconds(flags.counter_interval_sec));
    cfg.obs = obs.get();
  }

  SimulationDriver driver(cfg, std::move(jobs),
                          make_scheduler_factory(scheduler)());
  const RunMetrics m = driver.run();
  std::printf("scheduler:  %s\n", m.scheduler.c_str());
  std::printf("makespan:   %.1f s\n", m.makespan.sec());
  std::printf("avg JCT:    %.1f s\n", m.avg_jct_sec());
  std::printf("avg CCT:    %.2f s\n", m.avg_cct_sec());
  std::printf("OCS share:  %.1f%% of cross-rack bytes\n",
              100.0 * m.ocs_traffic_fraction());
  std::printf("heavy JCT:  %.1f s   light JCT: %.1f s\n",
              m.avg_jct_sec(true), m.avg_jct_sec(false));

  if (obs != nullptr) {
    if (!flags.trace_out.empty()) {
      write_file(flags.trace_out,
                 [&](std::ostream& os) {
                   obs->trace.write_chrome_trace(os, &obs->counters);
                 },
                 "Chrome trace");
    }
    if (!flags.trace_csv.empty()) {
      write_file(flags.trace_csv,
                 [&](std::ostream& os) { obs->trace.write_csv(os); },
                 "trace CSV");
    }
    if (!flags.counters_out.empty()) {
      write_file(flags.counters_out,
                 [&](std::ostream& os) { obs->counters.write_csv(os); },
                 "counter CSV");
    }
    if (!flags.decisions_out.empty()) {
      write_file(flags.decisions_out + ".placements.csv",
                 [&](std::ostream& os) {
                   obs->decisions.write_placements_csv(os);
                 },
                 "placement decisions");
    }
    print_obs_summary(std::cout, *obs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "generate" && argc >= 3) return cmd_generate(argc, argv);
    if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
    if (cmd == "replay" && argc >= 4) {
      ObsFlags flags;
      bool ok = true;
      for (int i = 4; i < argc; ++i) {
        std::string error;
        if (!parse_obs_flag(argv[i], flags, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          ok = false;
        }
      }
      if (ok) return cmd_replay(argv[2], argv[3], flags);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage:\n"
               "  %s generate <path> [num_jobs] [seed]\n"
               "  %s stats <path>\n"
               "  %s replay <path> <fair|corral|coscheduler|mts+ocas|ocas>\n"
               "     [--trace-out=f.json] [--trace-csv=f.csv]\n"
               "     [--counters-out=f.csv] [--decisions-out=stem]\n"
               "     [--counter-interval=sec]\n",
               argv[0], argv[0], argv[0]);
  return 2;
}
