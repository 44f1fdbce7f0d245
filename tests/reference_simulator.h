// The single-heap event queue that Simulator's zero-delay lane is proved
// against.
//
// ReferenceSimulator is the engine as it was before events due at now()
// got their own FIFO: every event, timed or zero-delay, is pushed on one
// binary heap ordered by (when, seq), with std::function actions, pooled
// generation-checked slots, and tombstones compacted once they exceed half
// the heap. Its firing order, clock, live count and raw queue size are the
// specification; tests/test_simcore.cpp drives both engines with the same
// random scripts and compares them after every operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace cosched::oracle {

class ReferenceSimulator {
 public:
  /// Cancellation token; valid while the simulator lives.
  class Handle {
   public:
    Handle() = default;
    void cancel() {
      if (sim_ != nullptr) sim_->cancel_slot(slot_, gen_);
    }
    [[nodiscard]] bool pending() const {
      return sim_ != nullptr && sim_->slab_[slot_].gen == gen_;
    }

   private:
    friend class ReferenceSimulator;
    Handle(ReferenceSimulator* sim, std::uint32_t slot, std::uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen) {}
    ReferenceSimulator* sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  [[nodiscard]] SimTime now() const { return now_; }

  Handle schedule_at(SimTime when, std::function<void()> action) {
    COSCHED_CHECK(when >= now_);
    COSCHED_CHECK(when.is_finite());
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slab_[slot];
    s.action = std::move(action);
    heap_.push_back(Entry{when, next_seq_++, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
    ++live_;
    return Handle{this, slot, s.gen};
  }

  Handle schedule_after(Duration delay, std::function<void()> action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  bool step() {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
      heap_.pop_back();
      Slot& s = slab_[top.slot];
      if (s.gen != top.gen) {
        --tombstones_;
        continue;
      }
      ++s.gen;
      auto action = std::move(s.action);
      s.action = nullptr;
      free_.push_back(top.slot);
      --live_;
      now_ = top.when;
      ++events_executed_;
      action();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(SimTime deadline) {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      if (slab_[top.slot].gen != top.gen) {
        std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
        heap_.pop_back();
        --tombstones_;
        continue;
      }
      if (top.when > deadline) break;
      step();
    }
    now_ = std::max(now_, deadline);
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::size_t events_pending() const {
    return static_cast<std::size_t>(live_);
  }
  [[nodiscard]] std::size_t events_pending_raw() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t queue_compactions() const {
    return compactions_;
  }

 private:
  struct Slot {
    std::function<void()> action;
    std::uint32_t gen = 0;
  };
  struct Entry {
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct FiresLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void cancel_slot(std::uint32_t slot, std::uint32_t gen) {
    Slot& s = slab_[slot];
    if (s.gen != gen) return;
    ++s.gen;
    s.action = nullptr;
    free_.push_back(slot);
    --live_;
    ++tombstones_;
    if (tombstones_ * 2 > heap_.size()) compact();
  }

  void compact() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry& e) {
                                 return slab_[e.slot].gen != e.gen;
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), FiresLater{});
    COSCHED_CHECK(heap_.size() == static_cast<std::size_t>(live_));
    tombstones_ = 0;
    ++compactions_;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::int64_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t compactions_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_;
};

}  // namespace cosched::oracle
