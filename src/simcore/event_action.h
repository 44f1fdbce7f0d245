// The action an event runs when it fires: a move-only `void()` callable
// stored inline.
//
// Every scheduled event carries one, so its cost is paid per event. The
// standard library's type-erased function keeps only 16 bytes inline
// (libstdc++) and allocates for anything larger, which a task completion's
// `[this, job, task]` already is. EventAction keeps kInlineBytes of storage
// in place and has no heap fallback: a closure that does not fit is
// rejected at compile time, so scheduling an event never allocates.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cosched {

class EventAction {
 public:
  /// Inline capacity. The largest closure the simulator schedules is
  /// `[this, outage]` in SimulationDriver::run, at 32 bytes.
  static constexpr std::size_t kInlineBytes = 32;

  EventAction() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventAction>>>
  explicit EventAction(F&& f) {
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "an event action is called with no arguments");
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event closure exceeds EventAction::kInlineBytes; capture "
                  "less (a pointer to a struct) instead of growing the slot");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "event closure is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event closures must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    // A closure of pointers and values moves by memcpy and needs no
    // destructor; only the rest pay for a manager call.
    if constexpr (!std::is_trivially_copyable_v<Fn> ||
                  !std::is_trivially_destructible_v<Fn>) {
      manage_ = [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        if (dst != nullptr) ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
    }
  }

  EventAction(EventAction&& other) noexcept { take(other); }

  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;

  ~EventAction() { reset(); }

  /// Destroy the held closure, leaving the action empty.
  void reset() noexcept {
    if (manage_ != nullptr) manage_(nullptr, buf_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void operator()() { invoke_(buf_); }

 private:
  /// Move `other`'s closure in (this action is empty) and empty `other`.
  void take(EventAction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      other.manage_(buf_, other.buf_);
    }
    invoke_ = std::exchange(other.invoke_, nullptr);
    manage_ = std::exchange(other.manage_, nullptr);
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  void (*invoke_)(void*) = nullptr;
  /// Move-constructs the closure at `src` into `dst` (when non-null), then
  /// destroys it at `src`. Null for trivially copyable closures.
  void (*manage_)(void* dst, void* src) = nullptr;
};

}  // namespace cosched
