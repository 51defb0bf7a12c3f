// Realm-style events: the unit of synchronization in the deferred
// execution model. An Event names a point in virtual time that either has
// or has not triggered; callbacks subscribed to it run (in virtual time)
// when it triggers, in subscription order.
//
// An Event is a handle: one pointer to a pooled EventState carrying an
// intrusive reference count. Copying a handle bumps the count (relaxed),
// dropping one decrements it (acq_rel), and the state returns to its pool
// when the last handle — Event, UserEvent, or a closure capturing one —
// goes away, so a handle still reads trigger_time() after every UserEvent
// and waiter that referenced the state is gone. A null handle (the
// default-constructed Event) is the always-triggered NO_EVENT.
//
// Waiters are a FIFO intrusive list of pooled nodes, each holding a
// small-buffer Callback; merges keep their countdown inside the merged
// state. Threading (see DESIGN.md, "Event ownership"): states and waiter
// nodes are minted by unroll-time wiring or serial phases; any worker may
// trigger, subscribe to, and drop the last handle of an event.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"

namespace cr::sim {

class Simulator;
class Event;

using Time = uint64_t;  // virtual nanoseconds

namespace detail {
struct Waiter {
  Waiter* next = nullptr;
  Callback<void(Time)> fn;
};

struct EventState {
  std::atomic<uint32_t> refs{1};
  // Merged events only: inputs that have not triggered yet.
  std::atomic<uint32_t> pending{0};
  bool triggered = false;
  Time trigger_time = 0;
  uint64_t uid = 0;  // unique per simulator, for trace dependence edges
  Simulator* sim = nullptr;  // for happens-before cause propagation
  Waiter* head = nullptr;    // FIFO: run head first
  Waiter* tail = nullptr;
  // Event::merge_remote only: the inputs, scanned at completion.
  std::unique_ptr<std::vector<Event>> remote_inputs;
};

// Return a state whose last handle dropped to its pool (destroying any
// waiters that never ran).
void free_state(EventState* s);

inline void retain(EventState* s) {
  s->refs.fetch_add(1, std::memory_order_relaxed);
}
inline void release(EventState* s) {
  if (s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) free_state(s);
}
}  // namespace detail

class Event {
 public:
  // The no-event: always triggered at time 0.
  Event() = default;
  Event(const Event& o) : state_(o.state_) {
    if (state_ != nullptr) detail::retain(state_);
  }
  Event(Event&& o) noexcept : state_(std::exchange(o.state_, nullptr)) {}
  Event& operator=(const Event& o) {
    Event(o).swap(*this);
    return *this;
  }
  Event& operator=(Event&& o) noexcept {
    Event(std::move(o)).swap(*this);
    return *this;
  }
  ~Event() {
    if (state_ != nullptr) detail::release(state_);
  }

  bool has_triggered() const { return !state_ || state_->triggered; }
  // Only valid once triggered.
  Time trigger_time() const { return state_ ? state_->trigger_time : 0; }
  // Stable identity for trace dependence edges (0 for the no-event).
  uint64_t uid() const { return state_ ? state_->uid : 0; }

  // Run fn when the event triggers (immediately if already triggered).
  // fn receives the trigger time. Waiters run in subscription order.
  void subscribe(Callback<void(Time)> fn) const;

  // Merge: an event that triggers when all inputs have triggered, at the
  // max of their trigger times. The merged trigger runs synchronously in
  // the last input's trigger cascade, so under the windowed backend all
  // untriggered inputs must trigger on one node affinity (plus any
  // number of serial-phase/global events) — the engine's edge routing
  // guarantees this for every merge it builds.
  static Event merge(Simulator& sim, const std::vector<Event>& events);

  // Merge for inputs that trigger on *different* nodes (barrier and
  // collective fan-ins): the completion is deferred to a scheduled
  // serial-phase entry keyed by the merged event's uid, so the result is
  // identical no matter which host thread completes the countdown. The
  // critical-predecessor alias is chosen deterministically (latest
  // trigger time, ties by input order). Timing is unchanged: the merged
  // event still triggers at the max of the input trigger times.
  static Event merge_remote(Simulator& sim, const std::vector<Event>& events);

  friend bool operator==(const Event& a, const Event& b) {
    return a.state_ == b.state_;
  }

 private:
  friend class UserEvent;
  // Adopts one reference already counted for this handle.
  explicit Event(detail::EventState* adopt) : state_(adopt) {}
  void swap(Event& o) noexcept { std::swap(state_, o.state_); }
  detail::EventState* state_ = nullptr;
};

// An event triggered explicitly by its owner. Copies share the event.
class UserEvent {
 public:
  explicit UserEvent(Simulator& sim);
  Event event() const { return ev_; }
  bool has_triggered() const { return ev_.state_->triggered; }
  // Triggers at the simulator's current time. Must not already be
  // triggered. Waiters run synchronously (still at now()), in
  // subscription order.
  void trigger();

 private:
  friend class Event;
  Event ev_;  // never the no-event
};

}  // namespace cr::sim
