// Remaining-processing-time (T_rem) estimation.
//
// The paper estimates every running task's remaining time with the linear
// progress model T_rem = t_elapsed * (1-P)/P (Equation 8) and reports that
// the model's error is ~2.9% in practice. In a simulator, the linear model
// applied to a constant-rate task reproduces the true remaining time
// exactly, so we model estimation *error* directly: each task attempt has
// a stable multiplicative factor in [1-e, 1+e) (e = configured error rate),
// and every estimate of that attempt is true_remaining * factor. This is
// the knob swept by the paper's Figure 7 sensitivity study.
//
// The factor is a pure hash of (run seed, task id, attempt): no draw
// order, no per-task state. An estimate therefore depends only on the
// simulation state it is asked about, so schedulers may query in any
// order (and memoize) without changing results. A killed task's next
// attempt gets a fresh factor. At e = 0 every factor is exactly 1.0.
//
// The AvailabilityOracle is the consumer-facing interface: schedulers ask
// "how long until k containers are simultaneously free on rack r?", which
// ExploreSchedule (Algorithm 1) needs.
#pragma once

#include <cstdint>

#include "cluster/task.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"

namespace cosched {

class TremEstimator {
 public:
  /// `error_rate` = e in the paper's |real - estimate| / real metric.
  TremEstimator(std::uint64_t seed, double error_rate)
      : salt_(SplitMix64(seed).next()), error_rate_(error_rate) {
    COSCHED_CHECK(error_rate >= 0.0);
  }

  /// Estimate of a running task's remaining time.
  [[nodiscard]] Duration estimate(const Task& task, SimTime now) const {
    return task.true_remaining(now) * factor_for(task.id(), task.attempt());
  }

  /// The error factor of one attempt of one task: a pure function of
  /// (seed, id, attempt), uniform in [1-e, 1+e).
  [[nodiscard]] double factor_for(TaskId id, std::int32_t attempt) const {
    std::uint64_t h =
        SplitMix64(salt_ ^ static_cast<std::uint64_t>(id.value())).next();
    h = SplitMix64(h ^ static_cast<std::uint64_t>(attempt)).next();
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    return 1.0 + error_rate_ * (2.0 * u - 1.0);
  }

 private:
  std::uint64_t salt_;
  double error_rate_;
};

/// How long until `count` containers are simultaneously free on `rack`?
/// Implemented by the simulation driver (which knows the running tasks).
class AvailabilityOracle {
 public:
  virtual ~AvailabilityOracle() = default;
  /// Non-const so that an implementation or a wrapper may keep per-query
  /// state (a query counter, a timer). The answer itself must be a pure
  /// function of the simulation state: SBS memoizes it per pass.
  [[nodiscard]] virtual Duration estimate_availability(RackId rack,
                                                       std::int64_t count) = 0;
};

}  // namespace cosched
