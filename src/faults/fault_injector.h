// FaultInjector: the runtime half of the fault layer — the deterministic
// randomness behind a FaultPlan, plus the run's fault accounting.
//
// Determinism contract (docs/FAULTS.md):
//   * Every fault family draws from its own RNG stream, forked from the
//     run seed with a fixed per-family stream id. Adding or removing one
//     fault family therefore never perturbs the draws of another.
//   * Draws happen inside simulation callbacks, whose order is totally
//     ordered by the event queue — so a fixed (plan, seed) pair replays
//     bit-for-bit, whatever thread count the experiment runner is given
//     (each run is single-threaded; threads only spread independent runs).
//   * An empty plan draws nothing and schedules nothing: the run is
//     bit-for-bit identical to one without the faults layer.
#pragma once

#include <optional>

#include "common/rng.h"
#include "common/units.h"
#include "faults/fault_spec.h"
#include "faults/fault_stats.h"

namespace cosched {

class FaultInjector {
 public:
  /// Stream ids for per-family RNG forks (documented in docs/FAULTS.md).
  static constexpr std::uint64_t kStragglerStream = 0xFA010001ULL;
  static constexpr std::uint64_t kKillStream = 0xFA010002ULL;
  static constexpr std::uint64_t kJitterStream = 0xFA010003ULL;

  FaultInjector(FaultPlan plan, std::uint64_t seed);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool enabled() const { return !plan_.empty(); }

  [[nodiscard]] bool has_straggler() const {
    return plan_.straggler.has_value();
  }
  [[nodiscard]] bool has_container_kill() const {
    return plan_.container_kill.has_value();
  }
  [[nodiscard]] bool has_reconfig_jitter() const {
    return plan_.reconfig_jitter.has_value();
  }

  /// Service-time multiplier for one task attempt (1.0 = no straggle).
  /// Requires has_straggler(); counts straggles into the summary.
  [[nodiscard]] double draw_straggler_multiplier();

  /// Kill point for one task attempt as a fraction of its run duration, or
  /// nullopt when this attempt survives. Requires has_container_kill().
  [[nodiscard]] std::optional<double> draw_kill_point();

  /// Jittered reconfiguration delay around the nominal delta. Requires
  /// has_reconfig_jitter().
  [[nodiscard]] Duration jittered_reconfig_delay(Duration nominal);

  [[nodiscard]] FaultSummary& stats() { return stats_; }
  [[nodiscard]] const FaultSummary& stats() const { return stats_; }

 private:
  FaultPlan plan_;
  Rng straggler_rng_;
  Rng kill_rng_;
  Rng jitter_rng_;
  FaultSummary stats_;
};

}  // namespace cosched
