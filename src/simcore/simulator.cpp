#include "simcore/simulator.h"

#include "common/log.h"

namespace cosched {

namespace {

/// Consumed lane entries are dropped in one sweep once they are this many
/// and at least half the lane. The lane empties whenever the clock
/// advances, so this only bounds a long chain of zero-delay events.
constexpr std::size_t kLaneTrim = 4096;

}  // namespace

EventHandle Simulator::enqueue(SimTime when, EventAction action) {
  COSCHED_CHECK_MSG(when >= now_, "event scheduled in the past: " << when
                                                                  << " < "
                                                                  << now_);
  COSCHED_CHECK(when.is_finite());
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  detail::EventSlot& s = slab_[slot];
  s.action = std::move(action);
  if (when == now_) {
    lane_.push_back(detail::LaneEntry{next_seq_++, slot, s.gen});
  } else {
    heap_.push_back(detail::HeapEntry{when, next_seq_++, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), detail::FiresLater{});
  }
  ++live_;
  return EventHandle{self_, slot, s.gen};
}

std::pair<detail::LaneEntry, SimTime> Simulator::peek_next() const {
  if (heap_fires_next()) {
    const detail::HeapEntry& top = heap_.front();
    return {detail::LaneEntry{top.seq, top.slot, top.gen}, top.when};
  }
  return {lane_[lane_head_], now_};
}

void Simulator::pop_next() {
  if (heap_fires_next()) {
    std::pop_heap(heap_.begin(), heap_.end(), detail::FiresLater{});
    heap_.pop_back();
    return;
  }
  ++lane_head_;
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  } else if (lane_head_ >= kLaneTrim && lane_head_ * 2 >= lane_.size()) {
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
}

bool Simulator::step() {
  while (events_pending_raw() != 0) {
    const auto [next, when] = peek_next();
    pop_next();
    detail::EventSlot& s = slab_[next.slot];
    if (s.gen != next.gen) {
      --tombstones_;  // cancelled: the slot moved on, skip the stale entry
      continue;
    }
    // Consume the slot before running the action: the action may cancel its
    // own handle (EPS replan does), and the generation bump makes that a
    // no-op instead of a double-release. The action moves out because it
    // may schedule events that grow (and move) the slab.
    ++s.gen;
    EventAction action = std::move(s.action);
    free_.push_back(next.slot);
    --live_;
    now_ = when;
    ++events_executed_;
    if (events_executed_ % 1000000 == 0) {
      COSCHED_INFO() << "simulator: " << events_executed_ << " events, "
                     << now_ << ", " << events_pending_raw() << " queued";
    }
    action();
    return true;
  }
  return false;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  while (events_pending_raw() != 0) {
    const auto [next, when] = peek_next();
    if (slab_[next.slot].gen != next.gen) {
      pop_next();
      --tombstones_;
      continue;
    }
    if (when > deadline) break;
    step();
  }
  now_ = std::max(now_, deadline);
}

void Simulator::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const detail::HeapEntry& e) {
                               return slab_[e.slot].gen != e.gen;
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), detail::FiresLater{});
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
  lane_.erase(std::remove_if(lane_.begin(), lane_.end(),
                             [this](const detail::LaneEntry& e) {
                               return slab_[e.slot].gen != e.gen;
                             }),
              lane_.end());
  // Every surviving entry is live and every live event has exactly one
  // entry, so a size mismatch here means a live handle was dropped.
  COSCHED_CHECK_MSG(events_pending_raw() == static_cast<std::size_t>(live_),
                    "compaction dropped a live event: "
                        << events_pending_raw() << " entries vs " << live_
                        << " live");
  tombstones_ = 0;
  ++compactions_;
}

bool Simulator::queue_consistent() const {
  std::size_t live_entries = 0;
  for (const detail::HeapEntry& e : heap_) {
    if (slab_[e.slot].gen != e.gen) continue;
    ++live_entries;
    if (e.when < now_) return false;
  }
  if (lane_size() != 0) {
    // The lane holds events of the current instant in scheduling order,
    // all after every heap entry due now.
    const std::uint64_t front_seq = lane_[lane_head_].seq;
    for (const detail::HeapEntry& e : heap_) {
      if (e.when <= now_ && e.seq >= front_seq) return false;
    }
    for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
      if (i > lane_head_ && lane_[i].seq <= lane_[i - 1].seq) return false;
      if (slab_[lane_[i].slot].gen == lane_[i].gen) ++live_entries;
    }
  }
  if (live_entries != static_cast<std::size_t>(live_)) return false;
  if (events_pending_raw() - live_entries != tombstones_) return false;
  return true;
}

}  // namespace cosched
