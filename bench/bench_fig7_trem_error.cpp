// Figure 7 reproduction: sensitivity of Co-scheduler to the T_rem
// estimation error rate (0% ... 50%). Fair and Corral do not use T_rem;
// they are shown as flat references, and everything is normalized to Fair
// (error 0) as in the paper's presentation.
//
// Paper's reported shape: makespan and average JCT improvements shrink as
// the error grows but stay substantial (>= 36% / 46% vs Fair at 50%);
// average CCT is nearly insensitive.
#include "bench_util.h"

using namespace cosched;
using namespace cosched::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::vector<double> errors{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  ExperimentConfig cfg = paper_config(args);
  const AggregateMetrics fair = run_experiment(
      cfg, make_scheduler_factory("fair"), args.threads);
  const AggregateMetrics corral = run_experiment(
      cfg, make_scheduler_factory("corral"), args.threads);

  std::vector<double> makespans, jcts, ccts;
  for (double err : errors) {
    ExperimentConfig ecfg = paper_config(args);
    // The error is injected through the faults layer's trem-noise clause,
    // which feeds the driver's TremEstimator.
    ecfg.sim.faults.trem_noise = TremNoiseFault{err};
    const AggregateMetrics m = run_experiment(
        ecfg, make_scheduler_factory("coscheduler"), args.threads);
    makespans.push_back(m.makespan_sec.mean() / fair.makespan_sec.mean());
    jcts.push_back(m.avg_jct_sec.mean() / fair.avg_jct_sec.mean());
    ccts.push_back(m.avg_cct_sec.mean() / fair.avg_cct_sec.mean());
  }

  std::vector<std::string> cols;
  for (double e : errors) {
    cols.push_back(std::to_string(static_cast<int>(e * 100)) + "%");
  }

  print_header("Figure 7(a): makespan vs T_rem error (normalized to Fair)");
  print_cols(cols);
  print_row("coscheduler", makespans);
  print_row("fair (ref)", std::vector<double>(errors.size(), 1.0));
  print_row("corral (ref)",
            std::vector<double>(errors.size(),
                                corral.makespan_sec.mean() /
                                    fair.makespan_sec.mean()));

  print_header("Figure 7(b): average JCT vs T_rem error");
  print_cols(cols);
  print_row("coscheduler", jcts);
  print_row("fair (ref)", std::vector<double>(errors.size(), 1.0));
  print_row("corral (ref)",
            std::vector<double>(errors.size(), corral.avg_jct_sec.mean() /
                                                   fair.avg_jct_sec.mean()));

  print_header("Figure 7(c): average CCT vs T_rem error");
  print_cols(cols);
  print_row("coscheduler", ccts);
  print_row("fair (ref)", std::vector<double>(errors.size(), 1.0));
  print_row("corral (ref)",
            std::vector<double>(errors.size(), corral.avg_cct_sec.mean() /
                                                   fair.avg_cct_sec.mean()));

  std::printf("\n(paper: improvements shrink with error but Co-scheduler "
              "still beats Fair by >=36%% makespan / 46%% JCT at 50%% "
              "error; CCT nearly insensitive)\n");
  return 0;
}
