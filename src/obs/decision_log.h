// DecisionLog: an audit trail of the Co-scheduler's reduce placements with
// their inputs.
//
// One PlacementDecision per PSRT+SBS pass: the R_map guideline the job ran
// under, every candidate count considered, the chosen reduce distribution
// D, the concrete rack plan (R_red racks), and the CCT + t_max estimate the
// winner scored. A placement is variable-length, so it has no TraceEvent
// counterpart; every other decision the run makes (OCAS container grants,
// Sunflow circuits, faults) is a trace event and is recorded only there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace cosched {

struct PlacementDecision {
  SimTime at;
  JobId job = JobId::invalid();
  /// R_map guideline in force (0 = none).
  std::int32_t r_map = 0;
  /// Number of reduce racks in the chosen plan.
  std::int32_t r_red = 0;
  /// Chosen distribution D, descending (d[i] reduces on the i-th rack).
  std::vector<std::int32_t> d;
  /// Concrete rack -> reduce-count plan, sorted by rack.
  std::vector<std::pair<RackId, std::int32_t>> plan;
  /// The winner's CCT lower bound and container-availability wait.
  Duration planned_cct = Duration::zero();
  Duration t_max = Duration::zero();
  /// score = (planned_cct + t_max) in seconds — what SBS minimized.
  double score_sec = 0.0;
  /// Candidate schedules PSRT offered to SBS.
  std::int64_t candidates = 0;
};

class DecisionLog {
 public:
  void record(PlacementDecision d) { placements_.push_back(std::move(d)); }

  [[nodiscard]] const std::vector<PlacementDecision>& placements() const {
    return placements_;
  }

  void write_placements_csv(std::ostream& os) const;

 private:
  std::vector<PlacementDecision> placements_;
};

}  // namespace cosched
