// Figure 3 reproduction.
//
// 3(a): makespan, average JCT, and average CCT of Fair, Corral, and
//       Co-scheduler, normalized to Fair.
// 3(b): fraction of cross-rack shuffle traffic carried by the OCS vs EPS.
//
// Paper's reported shape: Co-scheduler reduces makespan by 51.2% / 37.2%,
// average JCT by 54.6% / 33.8%, and average CCT by 73.6% / 54.8% vs Fair /
// Corral; OCS carries 92.2% (Co-scheduler), 33.0% (Corral), 2.2% (Fair) of
// the traffic.
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "metrics/report.h"
#include "metrics/run_report.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

/// Re-run repetition 0 of the coscheduler with the observability bundle
/// attached and export the requested artifacts. A separate pass keeps the
/// timed comparison runs free of recording overhead.
void run_observed_rep(const ExperimentConfig& cfg, const BenchArgs& args) {
  Observability obs;
  ExperimentConfig observed = cfg;
  observed.sim.obs = &obs;
  // The attached bundle monitors this repetition: the driver's
  // thread-local capture fills obs.perf for this run only (monitoring
  // never perturbs results).
  const auto wall_start = std::chrono::steady_clock::now();
  const RunMetrics run =
      run_once(observed, make_scheduler_factory("coscheduler"), 0);
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

  if (!args.trace_out.empty()) {
    std::ofstream os(args.trace_out);
    obs.trace.write_chrome_trace(os, &obs.counters);
    std::printf("wrote Chrome trace to %s\n", args.trace_out.c_str());
  }
  if (!args.counters_out.empty()) {
    std::ofstream os(args.counters_out);
    obs.counters.write_csv(os);
    std::printf("wrote counter CSV to %s\n", args.counters_out.c_str());
  }
  if (!args.report_out.empty()) {
    RunReportMeta meta;
    meta.num_jobs = args.jobs;
    meta.num_racks = cfg.sim.topo.num_racks;
    meta.wall_time_sec = wall_sec;
    meta.rss_high_water_bytes = rss_high_water_bytes();
    std::ofstream os(args.report_out);
    write_run_report_json(os, run, meta, &obs.perf, &obs.counters);
    std::printf("wrote RunReport to %s\n", args.report_out.c_str());
  }
  print_obs_summary(std::cout, obs);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const ExperimentConfig cfg = paper_config(args);

  const std::vector<std::string> names{"fair", "corral", "coscheduler"};
  const auto results = compare_schedulers(cfg, names, args.threads);
  const AggregateMetrics& fair = results[0];

  print_header("Figure 3(a): normalized to Fair (lower is better)");
  print_cols({"makespan", "avg JCT", "avg CCT"});
  for (const auto& r : results) {
    print_row(r.scheduler,
              {r.makespan_sec.mean() / fair.makespan_sec.mean(),
               r.avg_jct_sec.mean() / fair.avg_jct_sec.mean(),
               r.avg_cct_sec.mean() / fair.avg_cct_sec.mean()});
  }

  print_header("Figure 3(a): improvement over Fair (Equation 10)");
  print_cols({"makespan", "avg JCT", "avg CCT"});
  for (const auto& r : results) {
    print_row(r.scheduler,
              {improvement_over(fair.makespan_sec.mean(),
                                r.makespan_sec.mean()),
               improvement_over(fair.avg_jct_sec.mean(),
                                r.avg_jct_sec.mean()),
               improvement_over(fair.avg_cct_sec.mean(),
                                r.avg_cct_sec.mean())});
  }

  print_header("Figure 3(b): fraction of cross-rack traffic via OCS");
  print_cols({"ocs", "eps"});
  for (const auto& r : results) {
    print_row(r.scheduler,
              {r.ocs_fraction.mean(), 1.0 - r.ocs_fraction.mean()});
  }

  std::printf("\n(paper: Co-scheduler vs Fair: makespan -51.2%%, JCT -54.6%%,"
              " CCT -73.6%%; OCS share 92.2%% / 33.0%% / 2.2%%)\n");

  if (args.observing()) run_observed_rep(cfg, args);
  return 0;
}
