// Figure 6 reproduction: sensitivity to the EPS oversubscription ratio
// (3:1 ... 20:1). All values normalized to Fair at 10:1, as in the paper.
//
// Paper's reported shape: Co-scheduler is insensitive (its traffic rides
// the OCS); Fair and Corral degrade markedly as the ratio grows.
#include "bench_util.h"

using namespace cosched;
using namespace cosched::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::vector<double> ratios{3, 5, 10, 15, 20};
  const std::vector<std::string> names{"fair", "corral", "coscheduler"};

  // Baseline: Fair at 10:1.
  ExperimentConfig base_cfg = paper_config(args);
  base_cfg.sim.topo.eps_oversubscription = 10.0;
  const AggregateMetrics fair10 =
      run_experiment(base_cfg, make_scheduler_factory("fair"),
                     args.threads);

  struct Series {
    std::vector<double> makespan, jct, cct;
  };
  std::vector<Series> series(names.size());

  for (double ratio : ratios) {
    ExperimentConfig cfg = paper_config(args);
    cfg.sim.topo.eps_oversubscription = ratio;
    for (std::size_t s = 0; s < names.size(); ++s) {
      const AggregateMetrics m = run_experiment(
          cfg, make_scheduler_factory(names[s]), args.threads);
      series[s].makespan.push_back(m.makespan_sec.mean() /
                                   fair10.makespan_sec.mean());
      series[s].jct.push_back(m.avg_jct_sec.mean() /
                              fair10.avg_jct_sec.mean());
      series[s].cct.push_back(m.avg_cct_sec.mean() /
                              fair10.avg_cct_sec.mean());
    }
  }

  auto panel = [&](const char* title,
                   std::vector<double> Series::*member) {
    print_header(title);
    std::vector<std::string> cols;
    for (double r : ratios) cols.push_back(std::to_string((int)r) + ":1");
    print_cols(cols);
    for (std::size_t s = 0; s < names.size(); ++s) {
      print_row(names[s], series[s].*member);
    }
  };

  panel("Figure 6(a): makespan (normalized to Fair at 10:1)",
        &Series::makespan);
  panel("Figure 6(b): average JCT (normalized to Fair at 10:1)",
        &Series::jct);
  panel("Figure 6(c): average CCT (normalized to Fair at 10:1)",
        &Series::cct);

  std::printf("\n(paper: Co-scheduler flat across ratios; Fair and Corral "
              "degrade as oversubscription grows)\n");
  return 0;
}
