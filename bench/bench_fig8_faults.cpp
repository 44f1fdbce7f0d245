// Figure 8 (robustness extension, not in the paper): how gracefully each
// scheduler degrades under injected faults.
//
// Two sweeps, both normalized to each scheduler's own fault-free run so the
// tables read as "x% slower than itself under faults" — the fair question
// for robustness (Co-scheduler already wins the absolute comparison in
// Figure 3):
//
//   (a/b) task faults: straggler probability p with slow=2.0, plus
//         container kills at p/4 (kills are rarer than stragglers);
//   (c/d) an OCS outage of increasing duration starting 20% into the
//         arrival window — shuffles mid-flight are evicted onto the EPS
//         and new elephants stay there until the OCS recovers.
//
// A --faults= plan given on the command line is the *base* plan: the sweep
// overrides only the clauses it varies (straggler/container-kill in a/b,
// ocs-outage in c/d), so e.g. reconfig-jitter can be layered underneath.
#include "bench_util.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

AggregateMetrics run_with(const BenchArgs& args, const FaultPlan& plan,
                          const std::string& sched) {
  ExperimentConfig cfg = paper_config(args);
  cfg.sim.faults = plan;
  return run_experiment(cfg, make_scheduler_factory(sched), args.threads);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::vector<std::string> scheds{"coscheduler", "fair", "corral"};
  const std::vector<double> rates{0.0, 0.05, 0.10, 0.20};

  // ---- sweep A: task faults (stragglers + container kills) ----------------
  std::vector<std::vector<AggregateMetrics>> task_runs(scheds.size());
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    for (double rate : rates) {
      FaultPlan plan = args.faults;
      plan.straggler.reset();
      plan.container_kill.reset();
      if (rate > 0.0) {
        plan.straggler = StragglerFault{rate, 2.0};
        plan.container_kill = ContainerKillFault{rate / 4.0};
      }
      task_runs[s].push_back(run_with(args, plan, scheds[s]));
    }
  }

  std::vector<std::string> rate_cols;
  for (double r : rates) {
    rate_cols.push_back("p=" + std::to_string(static_cast<int>(r * 100)) +
                        "%");
  }

  print_header(
      "Figure 8(a): makespan vs task-fault rate (each normalized to its own "
      "fault-free run)");
  print_cols(rate_cols);
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    std::vector<double> row;
    for (const AggregateMetrics& m : task_runs[s]) {
      row.push_back(m.makespan_sec.mean() /
                    task_runs[s][0].makespan_sec.mean());
    }
    print_row(scheds[s], row);
  }

  print_header("Figure 8(b): average CCT vs task-fault rate (normalized)");
  print_cols(rate_cols);
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    std::vector<double> row;
    for (const AggregateMetrics& m : task_runs[s]) {
      row.push_back(m.avg_cct_sec.mean() / task_runs[s][0].avg_cct_sec.mean());
    }
    print_row(scheds[s], row);
  }

  print_header("Fault accounting (mean per repetition, coscheduler)");
  print_cols(rate_cols);
  {
    std::vector<double> stragglers, killed;
    for (const AggregateMetrics& m : task_runs[0]) {
      stragglers.push_back(m.stragglers.mean());
      killed.push_back(m.tasks_killed.mean());
    }
    print_row("stragglers", stragglers);
    print_row("tasks killed", killed);
  }

  // ---- sweep B: OCS outage of increasing duration -------------------------
  // Placed 20% into the arrival window and sized as a fraction of it, so
  // the sweep stays meaningful for any --jobs.
  ExperimentConfig base_cfg = paper_config(args);
  const double window_sec = base_cfg.workload.arrival_window.sec();
  const std::vector<double> outage_fracs{0.05, 0.10, 0.20};

  std::vector<std::string> outage_cols{"none"};
  for (double f : outage_fracs) {
    outage_cols.push_back(std::to_string(static_cast<int>(f * 100)) +
                          "%win");
  }

  std::vector<std::vector<AggregateMetrics>> outage_runs(scheds.size());
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    outage_runs[s].push_back(task_runs[s][0]);  // fault-free baseline
    for (double frac : outage_fracs) {
      FaultPlan plan = args.faults;
      plan.straggler.reset();
      plan.container_kill.reset();
      plan.ocs_outages.clear();
      plan.ocs_outages.push_back(
          OcsOutageFault{SimTime::seconds(0.2 * window_sec),
                         Duration::seconds(frac * window_sec)});
      outage_runs[s].push_back(run_with(args, plan, scheds[s]));
    }
  }

  print_header(
      "Figure 8(c): makespan vs OCS outage duration (fraction of the "
      "arrival window; normalized to own fault-free run)");
  print_cols(outage_cols);
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    std::vector<double> row;
    for (const AggregateMetrics& m : outage_runs[s]) {
      row.push_back(m.makespan_sec.mean() /
                    outage_runs[s][0].makespan_sec.mean());
    }
    print_row(scheds[s], row);
  }

  print_header("Figure 8(d): average CCT vs OCS outage duration (normalized)");
  print_cols(outage_cols);
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    std::vector<double> row;
    for (const AggregateMetrics& m : outage_runs[s]) {
      row.push_back(m.avg_cct_sec.mean() /
                    outage_runs[s][0].avg_cct_sec.mean());
    }
    print_row(scheds[s], row);
  }

  std::printf(
      "\n(expected: Co-scheduler's relative degradation is no worse than "
      "Fair/Corral — re-granted containers flow through OCAS and evicted "
      "shuffles finish on the EPS without losing bytes)\n");
  return 0;
}
