// Discrete-event simulation engine.
//
// A Simulator orders events by (timestamp, sequence number): equal
// timestamps fire in scheduling order, which makes every run deterministic.
// Timed events live in a binary heap. An event scheduled at now() goes into
// a FIFO lane instead and skips the heap's push and pop; dispatch waves and
// same-instant hand-offs make up about 40 % of a run's events. The two
// queues still fire in exact (when, seq) order, because any heap entry due
// at now() was scheduled before the clock reached now(), so its seq is lower
// than every lane entry's: step() fires the heap top first only when it is
// due at now(), and otherwise the lane front.
//
// Event records live in a pooled slab with a free list: scheduling an event
// allocates nothing beyond (amortized) vector growth, and a fired or
// cancelled slot is recycled for the next event. Each slot holds its action
// inline (EventAction, no heap fallback) and a generation counter; queue
// entries and EventHandles snapshot the generation at scheduling time, so a
// recycled slot invalidates them in O(1) without any shared_ptr/weak_ptr
// traffic.
//
// Scheduling returns an EventHandle that can cancel the event; cancellation
// is O(1) (the slot is released and the stale queue entry is skipped when
// popped). This is the mechanism the flow-level network model uses to
// re-plan flow completion times whenever rates change. When stale entries
// (tombstones) outnumber half of both queues the simulator compacts them,
// so replan-heavy workloads cannot grow the heap without bound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "simcore/event_action.h"

namespace cosched {

class Simulator;

namespace detail {

/// One pooled event slot. `gen` increments whenever the slot is consumed
/// (fired or cancelled), invalidating outstanding heap entries and handles.
struct EventSlot {
  EventAction action;
  std::uint32_t gen = 0;
};

/// Compact heap entry: ordering data plus a (slot, generation) ticket into
/// the slab. 24 bytes, no indirection during sift operations.
struct HeapEntry {
  SimTime when;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

/// Zero-delay lane entry. Every lane entry is due at now(); seq keeps the
/// scheduling order checkable (queue_consistent).
struct LaneEntry {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

/// Max-heap comparator on "fires later", so the heap top is the earliest
/// event; seq breaks timestamp ties in scheduling order.
struct FiresLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace detail

/// Cancellation token for a scheduled event. Default-constructed handles are
/// inert; cancel() on an already-fired or already-cancelled event is a no-op.
/// Handles stay safe (and inert) even if they outlive the Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe to call repeatedly.
  inline void cancel();

  /// True if the event is still queued and will fire.
  [[nodiscard]] inline bool pending() const;

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<Simulator*> owner, std::uint32_t slot,
              std::uint32_t gen)
      : owner_(std::move(owner)), slot_(slot), gen_(gen) {}

  /// Owning simulator, nulled by ~Simulator so late handles become inert.
  std::shared_ptr<Simulator*> owner_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event loop. Single-threaded; all model code runs inside callbacks.
class Simulator {
 public:
  Simulator() : self_(std::make_shared<Simulator*>(this)) {}
  ~Simulator() { *self_ = nullptr; }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` (a `void()` callable of at most
  /// EventAction::kInlineBytes) at absolute time `when` (>= now).
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& action) {
    return enqueue(when, EventAction(std::forward<F>(action)));
  }

  /// Schedule `action` after `delay` (>= 0).
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& action) {
    return enqueue(now_ + delay, EventAction(std::forward<F>(action)));
  }

  /// Run the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run every event due by `deadline` (events at exactly `deadline` do
  /// fire), then advance the clock to `deadline` if it is still earlier.
  void run_until(SimTime deadline);

  /// Number of events executed so far (diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of *live* events queued — events that will actually fire.
  /// Cancelled events leave tombstones in the queue but are not counted
  /// here; use events_pending_raw() for the physical queue size.
  [[nodiscard]] std::size_t events_pending() const {
    return static_cast<std::size_t>(live_);
  }

  /// Physical queue size, including tombstones awaiting pop or compaction
  /// (diagnostics: the gap to events_pending() is the tombstone backlog).
  [[nodiscard]] std::size_t events_pending_raw() const {
    return heap_.size() + lane_size();
  }

  /// Times the queue dropped its tombstones in one sweep (diagnostics).
  [[nodiscard]] std::uint64_t queue_compactions() const {
    return compactions_;
  }

  /// O(queue) consistency scan for the invariant auditor: every live entry's
  /// generation matches its slot, the live-entry count matches the ledger,
  /// stale entries match the tombstone count, no live event is scheduled
  /// before `now`, lane seqs increase, and every heap entry due at `now`
  /// precedes the lane front. True on a consistent queue.
  [[nodiscard]] bool queue_consistent() const;

 private:
  friend class EventHandle;

  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slab_[slot].gen == gen;
  }

  void cancel_slot(std::uint32_t slot, std::uint32_t gen) {
    detail::EventSlot& s = slab_[slot];
    if (s.gen != gen) return;  // already fired or cancelled
    ++s.gen;
    s.action.reset();
    free_.push_back(slot);
    --live_;
    ++tombstones_;
    if (tombstones_ * 2 > events_pending_raw()) compact();
  }

  EventHandle enqueue(SimTime when, EventAction action);

  [[nodiscard]] std::size_t lane_size() const {
    return lane_.size() - lane_head_;
  }

  /// Whether the next entry in (when, seq) order is the heap top (else the
  /// lane front, if any).
  [[nodiscard]] bool heap_fires_next() const {
    return !heap_.empty() && (lane_size() == 0 || heap_.front().when <= now_);
  }

  /// The next entry in (when, seq) order, as a ticket and its due time.
  /// Requires a non-empty queue.
  [[nodiscard]] std::pair<detail::LaneEntry, SimTime> peek_next() const;
  /// Remove the entry peek_next() returns.
  void pop_next();

  /// Drop every stale entry from both queues and re-heapify. Pop order is a
  /// total order on (when, seq), so compaction never changes what fires next.
  void compact();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::int64_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t compactions_ = 0;
  std::vector<detail::HeapEntry> heap_;
  /// The zero-delay lane: entries [lane_head_, end) are queued, in seq order.
  std::vector<detail::LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<detail::EventSlot> slab_;
  std::vector<std::uint32_t> free_;
  std::shared_ptr<Simulator*> self_;
};

inline void EventHandle::cancel() {
  if (owner_ == nullptr || *owner_ == nullptr) return;
  (*owner_)->cancel_slot(slot_, gen_);
}

inline bool EventHandle::pending() const {
  if (owner_ == nullptr || *owner_ == nullptr) return false;
  return (*owner_)->slot_pending(slot_, gen_);
}

}  // namespace cosched
