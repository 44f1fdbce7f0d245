#include "workloads.h"

#include <stdexcept>

#include "common/rng.h"
#include "faults/fault_spec.h"
#include "net/fabric.h"
#include "sim/experiment.h"

namespace perfbench {

using namespace cosched;

const std::vector<BenchWorkload>& bench_workloads() {
  static const std::vector<BenchWorkload> kWorkloads = {
      {.name = "cosched-ocs",
       .scheduler = "coscheduler",
       .fabric = "ocs:1",
       .task_faults = "",
       .mid_trace_outage_s = 0.0,
       .num_jobs = 2000},
      {.name = "fair-eps",
       .scheduler = "fair",
       .fabric = "ocs:1",
       .task_faults = "",
       .mid_trace_outage_s = 0.0,
       .num_jobs = 200},
      {.name = "cosched-rotor-faults",
       .scheduler = "coscheduler",
       .fabric = "rotor:100ms",
       .task_faults = "straggler:p=0.05:slow=2.0,container-kill:p=0.01",
       .mid_trace_outage_s = 60.0,
       .num_jobs = 1000},
  };
  return kWorkloads;
}

const BenchWorkload* find_workload(const std::string& name) {
  for (const BenchWorkload& w : bench_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadConfig trace_config(std::int32_t num_jobs) {
  WorkloadConfig cfg;
  cfg.num_jobs = num_jobs;
  cfg.num_users = 20;
  cfg.arrival_window = Duration::minutes(90.0 * num_jobs / 1000.0);
  return cfg;
}

std::vector<JobSpec> generate_trace(std::int32_t num_jobs) {
  Rng rng = Rng(kTraceSeed).fork(1);
  return generate_workload(trace_config(num_jobs), rng);
}

SimConfig sim_config(const BenchWorkload& w, std::int32_t num_jobs,
                     std::uint64_t seed) {
  SimConfig cfg;
  cfg.topo = HybridTopology{};  // the paper's defaults
  cfg.seed = seed;
  cfg.audit = false;
  cfg.obs = nullptr;
  cfg.heartbeat_sec = 0.0;

  std::string error;
  const auto fabric = FabricSpec::parse(w.fabric, &error);
  if (!fabric) throw std::invalid_argument("fabric: " + error);
  cfg.fabric = *fabric;

  auto plan = FaultPlan::parse(w.task_faults, &error);
  if (!plan) throw std::invalid_argument("faults: " + error);
  if (w.mid_trace_outage_s > 0.0) {
    const Duration window = trace_config(num_jobs).arrival_window;
    plan->ocs_outages.push_back(
        {.at = SimTime::zero() + window / 2.0,
         .dur = Duration::seconds(w.mid_trace_outage_s)});
  }
  cfg.faults = *plan;
  return cfg;
}

std::unique_ptr<JobScheduler> make_scheduler(const BenchWorkload& w) {
  return make_scheduler_factory(w.scheduler)();
}

}  // namespace perfbench
