// Figure 5 reproduction: contribution of Co-scheduler's mechanisms.
//
//   OCAS                      — grant policy only (no guideline, no plan);
//                               the paper notes this degenerates to Fair.
//   MTS + OCAS                — input/map guideline but unplanned reduces.
//   MTS + PSRT + SBS + OCAS   — full Co-scheduler.
//
// Paper's reported shape: MTS+OCAS improves over OCAS by 12% makespan /
// 14% JCT / 19% CCT; the full system is much better than both.
#include "bench_util.h"

using namespace cosched;
using namespace cosched::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const ExperimentConfig cfg = paper_config(args);

  const auto results =
      compare_schedulers(cfg, {"ocas", "mts+ocas", "coscheduler"},
                         args.threads);
  const AggregateMetrics& ocas = results[0];

  print_header("Figure 5: normalized to OCAS (lower is better)");
  print_cols({"makespan", "avg JCT", "avg CCT"});
  for (const auto& r : results) {
    print_row(r.scheduler,
              {r.makespan_sec.mean() / ocas.makespan_sec.mean(),
               r.avg_jct_sec.mean() / ocas.avg_jct_sec.mean(),
               r.avg_cct_sec.mean() / ocas.avg_cct_sec.mean()});
  }

  print_header("Figure 5: improvement over OCAS (Equation 10)");
  print_cols({"makespan", "avg JCT", "avg CCT"});
  for (const auto& r : results) {
    print_row(r.scheduler,
              {improvement_over(ocas.makespan_sec.mean(),
                                r.makespan_sec.mean()),
               improvement_over(ocas.avg_jct_sec.mean(),
                                r.avg_jct_sec.mean()),
               improvement_over(ocas.avg_cct_sec.mean(),
                                r.avg_cct_sec.mean())});
  }

  std::printf("\n(paper: MTS+OCAS -12%%/-14%%/-19%% vs OCAS; full "
              "Co-scheduler far ahead of both)\n");
  return 0;
}
