// Scale-campaign harness (ROADMAP item 1): one large synthetic SWIM-like
// run — parameterized jobs x racks, 10k-100k jobs — with the wall-clock
// observability stack on: PerfMonitor phase histograms, a --heartbeat
// progress line (default: every 10 s), and a unified RunReport
// (--report-out=FILE, validated by tools/run_report.py).
//
//   bench_scale --jobs=10000 --report-out=r.json
//   bench_scale --jobs=100000 --racks=256 --heartbeat=30 --report-out=r.json
//
// Unlike the figure benches this runs a single repetition of a single
// scheduler (--sched=NAME, default coscheduler): the unit of interest is
// where one big run spends its wall clock, not cross-run statistics.
// Monitoring is always on here — it never perturbs simulation results
// (bit-for-bit, see tests/test_perf.cpp) — so every run yields the full
// cost-vs-scale curve per scheduling pass.
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "metrics/report.h"
#include "metrics/run_report.h"
#include "obs/perf_monitor.h"

using namespace cosched;
using namespace cosched::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  if (args.heartbeat_sec < 0.0) args.heartbeat_sec = 10.0;
  const ExperimentConfig cfg = paper_config(args);

  const ScaleComboCheck combo =
      check_scale_combo(args.jobs, cfg.sim.topo.num_racks);
  if (!combo.ok) {
    std::fprintf(stderr, "%s\n", combo.error.c_str());
    return 2;
  }
  if (!combo.warning.empty()) {
    std::fprintf(stderr, "warning: %s\n", combo.warning.c_str());
  }

  std::printf("bench_scale: %s, %d jobs on %d racks, seed %llu\n",
              args.sched.c_str(), args.jobs, cfg.sim.topo.num_racks,
              static_cast<unsigned long long>(args.seed));
  SchedulerFactory factory;
  try {
    factory = make_scheduler_factory(args.sched);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--sched: %s\n", e.what());
    return 2;
  }

  // The run carries no Observability bundle, so this capture is what
  // monitors it.
  PerfSnapshot perf;
  const auto wall_start = std::chrono::steady_clock::now();
  PerfMonitor::begin_capture(&perf);
  const RunMetrics run = run_once(cfg, factory, 0);
  PerfMonitor::end_capture();
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

  print_summary(std::cout, run);
  std::printf("wall clock: %.2f s (%.0f events/s), RSS high-water %.0f MB\n",
              wall_sec,
              static_cast<double>(run.events_executed) / wall_sec,
              static_cast<double>(rss_high_water_bytes()) / (1024 * 1024));

  PerfMonitor::write_summary(std::cout, perf);

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
    write_run_report_json(os, run, meta, &perf);
    std::printf("wrote RunReport to %s\n", args.report_out.c_str());
  }
  return 0;
}
