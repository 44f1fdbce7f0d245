// OfferQueue: the event-driven dispatch index (DESIGN.md §11).
//
// A dispatch wave offers free containers to the scheduler rack by rack.
// A plain all-racks scan visits every rack every pass; at 256+ racks
// with waves fired per event that scan is the dominant self-time of
// `driver.dispatch`. The OfferQueue keeps two pieces of state so a wave
// touches only the racks that can matter:
//
//   * free-set membership — a bitset over racks with at least one free
//     container, maintained by the driver at every allocate/release. A
//     wave iterates set bits in round-robin order from the rotating
//     start, so the visit order (and thus every scheduler decision) is
//     bit-for-bit the all-racks scan order with the free==0 `continue`s
//     deleted rather than skipped one by one.
//
//   * decline stamps — per-rack epoch stamps recording "the scheduler
//     declined this rack at epoch E". The driver bumps the epoch at
//     every scheduler-visible state change (grant, completion, kill,
//     arrival, plan change — the same sites that invalidate the PR 7
//     no-grant memo). A re-offer may be skipped only when the rack's
//     stamp equals the current epoch AND the scheduler declares its
//     declines stable (JobScheduler::declines_are_stable — every
//     production scheduler does). An all-racks scan would call
//     pick_task and get the identical nullopt with no side effects, so
//     skipping the call is invisible to the simulation.
//
// A rack-independent decline (JobScheduler::last_decline_was_global, e.g.
// an empty candidate index) needs no state here: the driver ends that
// wave after one pick instead of one per free rack — the decisive case on
// an underloaded cluster where the free set is nearly all racks — and the
// next wave follows a state change, which bumps the epoch anyway.
//
// The queue never decides anything by itself: it is a pure index over
// driver-owned state, and `audit()` recomputes the free set from the
// Cluster to prove coherence at every dispatch boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"

namespace cosched {

class Cluster;

class OfferQueue {
 public:
  explicit OfferQueue(std::int32_t num_racks);

  /// `rack` has at least one free container (idempotent).
  void mark_free(RackId rack);
  /// `rack` has no free containers (idempotent).
  void mark_full(RackId rack);
  [[nodiscard]] bool is_free(RackId rack) const;

  /// A scheduler-visible state change: previously-stamped declines may
  /// no longer hold.
  void note_state_changed() { ++epoch_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The scheduler declined an offer on `rack` at the current epoch.
  void note_declined(RackId rack);
  /// Whether `rack`'s last decline happened at the current epoch (no
  /// state change since — a stable-decline scheduler would decline again).
  [[nodiscard]] bool declined_at_current_epoch(RackId rack) const;

  /// Visit every rack in the free set exactly once, in round-robin order
  /// starting at `start` (start, start+1, ..., wrap). `fn(RackId)` returns
  /// false to stop early. `fn` may clear the visited rack's own bit (a
  /// grant consuming the rack's last slot); it must not set bits — no
  /// container is ever released inside a dispatch wave.
  template <typename Fn>
  void for_each_free_from(std::int32_t start, Fn&& fn) {
    if (visit_range(start, num_racks_, fn)) visit_range(0, start, fn);
  }

  /// Recompute the free set from the cluster and compare; empty when
  /// coherent, else a description of the first divergence (the invariant
  /// auditor turns it into an AuditFailure).
  [[nodiscard]] std::string audit(const Cluster& cluster) const;

 private:
  // Visit set bits in [lo, hi); false if fn stopped the iteration. Words
  // are re-read per step so a bit cleared by fn at the visited rack can
  // never be served from a stale cache.
  template <typename Fn>
  bool visit_range(std::int32_t lo, std::int32_t hi, Fn& fn) {
    std::int32_t i = lo;
    while (i < hi) {
      const std::uint64_t word =
          words_[static_cast<std::size_t>(i >> 6)] >>
          (static_cast<std::uint32_t>(i) & 63U);
      if (word == 0) {
        i = (i | 63) + 1;  // next word boundary
        continue;
      }
      i += count_trailing_zeros(word);
      if (i >= hi) return true;
      if (!fn(RackId{i})) return false;
      ++i;
    }
    return true;
  }

  [[nodiscard]] static std::int32_t count_trailing_zeros(std::uint64_t w);

  std::int32_t num_racks_;
  std::vector<std::uint64_t> words_;
  /// declined_at_[rack] == epoch at the rack's most recent decline; 0 (a
  /// value epoch_ never takes) means "never declined".
  std::vector<std::uint64_t> declined_at_;
  std::uint64_t epoch_ = 1;
};

}  // namespace cosched
