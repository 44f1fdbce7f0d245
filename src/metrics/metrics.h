// Result records for one simulation run, and aggregation across repeated
// runs — the quantities the paper's evaluation reports: makespan, average
// job completion time, average coflow completion time, OCS/EPS traffic
// split, with shuffle-heavy / non-shuffle-heavy breakdowns.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"
#include "faults/fault_stats.h"

namespace cosched {

struct JobRecord {
  JobId id;
  UserId user;
  bool shuffle_heavy = false;
  bool has_shuffle = false;  // produced at least one shuffle flow
  SimTime arrival = SimTime::zero();
  SimTime completion = SimTime::zero();
  Duration jct = Duration::zero();
  Duration cct = Duration::zero();  // valid iff has_shuffle
  DataSize shuffle_bytes;
  /// Total map output credited to racks. Always exactly
  /// num_maps * map_output_size: a map attempt killed and re-executed
  /// regenerates its output once, never zero or twice.
  DataSize map_output_bytes;

  /// Task-phase timing (for invariant checks and phase breakdowns).
  SimTime last_map_completion = SimTime::zero();
  /// Infinity when the job has no reduce tasks.
  SimTime first_reduce_placement = SimTime::infinity();
  /// Lower bound T(C) of the final cross-rack matrix at OCS rate (valid
  /// iff has_shuffle).
  Duration cct_lower_bound = Duration::zero();
  /// True if the shuffle had at least one cross-rack flow and every one
  /// used the circuit fabric (Coflow::rode_circuits_only): only then is
  /// cct_lower_bound a bound the achieved CCT must respect.
  bool all_flows_ocs = false;
};

struct RunMetrics {
  std::string scheduler;
  std::uint64_t seed = 0;

  Duration makespan = Duration::zero();
  std::vector<JobRecord> jobs;

  DataSize ocs_bytes;
  DataSize eps_bytes;
  DataSize local_bytes;

  std::uint64_t events_executed = 0;
  /// Dispatch waves that actually scanned (pending work existed at entry).
  /// Deterministic and engine-invariant: identical across rate, scheduler,
  /// and dispatch engines — `run_report.py diff` pins it like
  /// events_executed.
  std::uint64_t dispatch_waves = 0;
  /// Times the deadlock breaker had to release deferred shuffles because
  /// the event queue drained with jobs incomplete. Liveness recovery, not
  /// scheduling: a healthy fault-free run reports 0.
  std::int64_t deadlock_breaks = 0;

  /// Fault accounting (all zero when the run had an empty fault plan).
  FaultSummary faults;

  // ---- derived ------------------------------------------------------------
  [[nodiscard]] double avg_jct_sec() const;
  [[nodiscard]] double avg_cct_sec() const;
  /// Averages restricted to shuffle-heavy (or non-heavy) jobs.
  [[nodiscard]] double avg_jct_sec(bool shuffle_heavy) const;
  [[nodiscard]] double avg_cct_sec(bool shuffle_heavy) const;
  /// Fraction of cross-rack bytes that used the OCS.
  [[nodiscard]] double ocs_traffic_fraction() const;
};

/// Mean of a metric over repetitions.
struct AggregateMetrics {
  std::string scheduler;
  std::size_t repetitions = 0;
  RunningStat makespan_sec;
  RunningStat avg_jct_sec;
  RunningStat avg_cct_sec;
  RunningStat avg_jct_heavy_sec;
  RunningStat avg_jct_light_sec;
  RunningStat avg_cct_heavy_sec;
  RunningStat avg_cct_light_sec;
  RunningStat ocs_fraction;
  RunningStat tasks_killed;
  RunningStat stragglers;

  void add(const RunMetrics& run);
};

/// The paper's comparison metric (Equation 10), signed:
/// (baseline - subject) / baseline. Positive when the subject is faster;
/// a regression prints as a negative improvement.
[[nodiscard]] double improvement_over(double baseline, double subject);

}  // namespace cosched
