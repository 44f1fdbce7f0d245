// Fault-injection plans: what can go wrong in a run, parsed from a spec
// string.
//
// A FaultPlan is a declarative description of every fault a run injects —
// task stragglers, container kills with re-execution, OCS outages with
// graceful hybrid→EPS-only degradation, circuit-reconfiguration jitter
// around delta, and structured T_rem estimator noise. Plans come from the
// shared `--faults=` bench flag (or are built directly in code) with the
// grammar
//
//   spec    := clause (',' clause)*
//   clause  := name (':' key '=' value)*
//   name    := straggler | container-kill | ocs-outage
//            | reconfig-jitter | trem-noise
//
//   straggler:p=0.05:slow=2.0      p: per-attempt probability, slow: service
//                                  multiplier (> 1)
//   container-kill:p=0.01          p: per-attempt probability of a mid-run
//                                  kill; the task re-executes
//   ocs-outage:at=300s:dur=60s     repeatable; OCS unavailable in
//                                  [at, at+dur), elephants fall back to EPS;
//                                  an optional plane=N (N >= 0) fails only
//                                  circuit plane N of an ocs:K fabric
//   reconfig-jitter:pct=50         each circuit setup pays
//                                  delta * U[1-pct/100, 1+pct/100]
//   trem-noise:pct=30              T_rem estimator error rate (the
//                                  Figure-7 knob)
//
// Durations accept an optional trailing 's'. The empty spec parses to the
// empty plan, and an empty plan is guaranteed bit-for-bit identical to a
// run without the faults layer at all (see docs/FAULTS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"

namespace cosched {

struct StragglerFault {
  /// Probability that one task *attempt* straggles.
  double p = 0.05;
  /// Service-time multiplier applied to a straggling attempt (> 1).
  double slow = 2.0;
};

struct ContainerKillFault {
  /// Probability that one task attempt is killed mid-run and re-executed.
  double p = 0.01;
};

struct OcsOutageFault {
  /// Outage window [at, at + dur): no new flow is routed to the OCS and
  /// every in-flight circuit transfer is evicted onto the EPS.
  SimTime at = SimTime::zero();
  Duration dur = Duration::zero();
  /// Target: -1 (the default) fails the whole fabric; >= 0 fails only that
  /// circuit plane of an ocs:K fabric — its in-flight transfers are evicted
  /// onto the EPS, queued demand stays for the surviving planes.
  std::int32_t plane = -1;
};

struct ReconfigJitterFault {
  /// Relative half-width: each setup pays delta * U[1 - pct, 1 + pct].
  double pct = 0.5;
};

struct TremNoiseFault {
  /// T_rem estimation error rate e (the paper's Figure-7 knob).
  double rate = 0.0;
};

/// The full fault description of one run. Default-constructed plans are
/// empty; empty plans inject nothing and perturb nothing.
struct FaultPlan {
  std::optional<StragglerFault> straggler;
  std::optional<ContainerKillFault> container_kill;
  std::vector<OcsOutageFault> ocs_outages;
  std::optional<ReconfigJitterFault> reconfig_jitter;
  std::optional<TremNoiseFault> trem_noise;

  [[nodiscard]] bool empty() const {
    return !straggler.has_value() && !container_kill.has_value() &&
           ocs_outages.empty() && !reconfig_jitter.has_value() &&
           !trem_noise.has_value();
  }

  /// The T_rem error rate in force: the trem-noise fault's rate, or 0.
  [[nodiscard]] double trem_noise_rate() const {
    return trem_noise.has_value() ? trem_noise->rate : 0.0;
  }

  /// Parse a spec string (see header comment for the grammar). Returns
  /// nullopt and sets *error on malformed input; "" yields the empty plan.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& spec,
                                                      std::string* error);

  /// Canonical round-trippable spec string ("" for the empty plan).
  [[nodiscard]] std::string to_spec() const;
};

}  // namespace cosched
