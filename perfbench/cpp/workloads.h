// The benchmark's workloads: one scheduler on one fabric over one fixed
// SWIM-style trace, on the paper's topology (60 racks, 10:1 EPS
// oversubscription, delta = 10 ms). Job arrivals form an open loop in
// simulated time: the trace fixes every arrival up front, whatever the
// schedule does. The run seed drives the simulation's own random streams
// (HDFS replica placement, tie-breaks, fault draws), so every seed replays
// the same offered work. perfbench/README.md says why each workload was
// chosen and why the trace is fixed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "sim/driver.h"
#include "workload/generator.h"
#include "workload/job_spec.h"

namespace perfbench {

struct BenchWorkload {
  std::string name;
  /// A name make_scheduler_factory accepts.
  std::string scheduler;
  /// A FabricSpec spelling ("ocs:1", "rotor:100ms", ...).
  std::string fabric;
  /// Task-level faults as a FaultPlan spec ("" = none). An OCS outage, when
  /// `mid_trace_outage_s` > 0, is added on top of it.
  std::string task_faults;
  /// Length of one OCS outage that starts halfway through the arrival
  /// window; 0 = no outage.
  double mid_trace_outage_s = 0.0;
  std::int32_t num_jobs = 0;
};

[[nodiscard]] const std::vector<BenchWorkload>& bench_workloads();
/// Null when no workload has that name.
[[nodiscard]] const BenchWorkload* find_workload(const std::string& name);

/// The seed every benchmark trace is generated from.
inline constexpr std::uint64_t kTraceSeed = 1;

/// The trace generator's settings at `num_jobs`: the paper's 1000 jobs in
/// 90 minutes, with the window scaled so every length keeps the paper's
/// offered load.
[[nodiscard]] cosched::WorkloadConfig trace_config(std::int32_t num_jobs);
[[nodiscard]] std::vector<cosched::JobSpec> generate_trace(
    std::int32_t num_jobs);

/// Simulation settings for run seed `seed`, with every in-program
/// instrument dark: no auditor, no observability bundle, no heartbeat.
[[nodiscard]] cosched::SimConfig sim_config(const BenchWorkload& w,
                                            std::int32_t num_jobs,
                                            std::uint64_t seed);
[[nodiscard]] std::unique_ptr<cosched::JobScheduler> make_scheduler(
    const BenchWorkload& w);

}  // namespace perfbench
