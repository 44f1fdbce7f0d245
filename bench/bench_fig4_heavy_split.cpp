// Figure 4 reproduction: performance improvements of Co-scheduler over
// Fair (4a) and Corral (4b), split into shuffle-heavy and non-shuffle-heavy
// jobs (average JCT and average CCT, Equation 10).
//
// Paper's reported shape: both job classes improve; shuffle-heavy jobs
// improve substantially more (they are the ones the OCS accelerates; the
// light jobs gain because containers free earlier).
#include "bench_util.h"

using namespace cosched;
using namespace cosched::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const ExperimentConfig cfg = paper_config(args);

  const auto results =
      compare_schedulers(cfg, {"fair", "corral", "coscheduler"},
                         args.threads);
  const AggregateMetrics& fair = results[0];
  const AggregateMetrics& corral = results[1];
  const AggregateMetrics& cosched = results[2];

  auto panel = [&](const char* title, const AggregateMetrics& base) {
    print_header(title);
    print_cols({"JCT", "CCT"});
    print_row("shuffle-heavy",
              {improvement_over(base.avg_jct_heavy_sec.mean(),
                                cosched.avg_jct_heavy_sec.mean()),
               improvement_over(base.avg_cct_heavy_sec.mean(),
                                cosched.avg_cct_heavy_sec.mean())});
    print_row("non-shuffle-heavy",
              {improvement_over(base.avg_jct_light_sec.mean(),
                                cosched.avg_jct_light_sec.mean()),
               improvement_over(base.avg_cct_light_sec.mean(),
                                cosched.avg_cct_light_sec.mean())});
  };

  panel("Figure 4(a): Co-scheduler improvement over Fair", fair);
  panel("Figure 4(b): Co-scheduler improvement over Corral", corral);

  std::printf("\n(paper: both classes improve; shuffle-heavy improves "
              "more)\n");
  return 0;
}
