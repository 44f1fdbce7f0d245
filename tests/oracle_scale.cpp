// bench_scale's single run under the references (tests/oracles.h): the
// scheduler named by --sched= with its reference decisions
// (ReferenceCoScheduler for the Co-scheduler family), dispatched by the
// all-racks scan. Takes bench_scale's flags and writes the same RunReport,
// so a production report and an oracle report of one run point must
// match under `tools/run_report.py diff`, which ignores wall-clock fields:
//
//   bench_scale  --jobs=1000 --report-out=fast.json
//   oracle_scale --jobs=1000 --report-out=oracle.json
//   python3 tools/run_report.py diff fast.json oracle.json
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "metrics/report.h"
#include "metrics/run_report.h"
#include "obs/perf_monitor.h"
#include "oracles.h"

using namespace cosched;
using namespace cosched::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  if (args.heartbeat_sec < 0.0) args.heartbeat_sec = 10.0;
  const ExperimentConfig cfg = paper_config(args);

  SchedulerFactory factory;
  try {
    factory = oracle::scan_dispatch_factory(
        oracle::reference_scheduler_factory(args.sched));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--sched: %s\n", e.what());
    return 2;
  }
  std::printf("oracle_scale: reference %s, scan dispatch, %d jobs on %d "
              "racks, seed %llu\n",
              args.sched.c_str(), args.jobs, cfg.sim.topo.num_racks,
              static_cast<unsigned long long>(args.seed));

  const auto wall_start = std::chrono::steady_clock::now();
  const RunMetrics run = run_once(cfg, factory, 0);
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
  print_summary(std::cout, run);
  std::printf("wall clock: %.2f s\n", wall_sec);

  if (!args.report_out.empty()) {
    RunReportMeta meta;
    meta.num_jobs = args.jobs;
    meta.num_racks = cfg.sim.topo.num_racks;
    meta.wall_time_sec = wall_sec;
    meta.rss_high_water_bytes = rss_high_water_bytes();
    std::ofstream os(args.report_out);
    if (!os) {
      std::fprintf(stderr, "cannot open --report-out=%s\n",
                   args.report_out.c_str());
      return 1;
    }
    write_run_report_json(os, run, meta);
    std::printf("wrote RunReport to %s\n", args.report_out.c_str());
  }
  return 0;
}
