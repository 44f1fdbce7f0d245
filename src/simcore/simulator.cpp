#include "simcore/simulator.h"

#include "common/log.h"

namespace cosched {

EventHandle Simulator::schedule_at(SimTime when, std::function<void()> action) {
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
  heap_.push_back(detail::HeapEntry{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), detail::FiresLater{});
  ++live_;
  return EventHandle{self_, slot, s.gen};
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const detail::HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), detail::FiresLater{});
    heap_.pop_back();
    detail::EventSlot& s = slab_[top.slot];
    if (s.gen != top.gen) {
      --tombstones_;  // cancelled: the slot moved on, skip the stale entry
      continue;
    }
    // Consume the slot before running the action: the action may cancel its
    // own handle (EPS replan does), and the generation bump makes that a
    // no-op instead of a double-release.
    ++s.gen;
    auto action = std::move(s.action);
    s.action = nullptr;
    free_.push_back(top.slot);
    --live_;
    now_ = top.when;
    ++events_executed_;
    if (events_executed_ % 1000000 == 0) {
      COSCHED_INFO() << "simulator: " << events_executed_ << " events, "
                     << now_ << ", " << heap_.size() << " queued";
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
  while (!heap_.empty()) {
    const detail::HeapEntry top = heap_.front();
    if (slab_[top.slot].gen != top.gen) {
      std::pop_heap(heap_.begin(), heap_.end(), detail::FiresLater{});
      heap_.pop_back();
      --tombstones_;
      continue;
    }
    if (top.when > deadline) break;
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
  // Every surviving entry is live and every live event has exactly one
  // entry, so a size mismatch here means a live handle was dropped.
  COSCHED_CHECK_MSG(heap_.size() == static_cast<std::size_t>(live_),
                    "compaction dropped a live event: " << heap_.size()
                                                        << " entries vs "
                                                        << live_ << " live");
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
  if (live_entries != static_cast<std::size_t>(live_)) return false;
  if (heap_.size() - live_entries != tombstones_) return false;
  return true;
}

}  // namespace cosched
