#include "sim/event.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/pool.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace cr::sim {

namespace detail {
void free_state(EventState* s) {
  // Waiters of an event that never triggered die with it.
  for (Waiter* w = s->head; w != nullptr;) {
    Waiter* next = w->next;
    pool_delete(w);
    w = next;
  }
  pool_delete(s);
}
}  // namespace detail

void Event::subscribe(Callback<void(Time)> fn) const {
  detail::EventState* s = state_;
  if (s == nullptr) {
    fn(0);
    return;
  }
  if (s->triggered) {
    // A subscription on an already-triggered event still establishes a
    // causal link: anything fn does is caused by this event.
    Simulator* sim = s->sim;
    if (sim != nullptr && sim->event_graph() != nullptr) {
      const uint64_t prev = sim->current_cause();
      sim->set_current_cause(s->uid);
      fn(s->trigger_time);
      sim->set_current_cause(prev);
    } else {
      fn(s->trigger_time);
    }
    return;
  }
  detail::Waiter* w = pool_new<detail::Waiter>(nullptr, std::move(fn));
  if (s->tail != nullptr) {
    s->tail->next = w;
  } else {
    s->head = w;
  }
  s->tail = w;
}

Event Event::merge(Simulator& sim, const std::vector<Event>& events) {
  // Count the untriggered inputs; if none, the merge is already complete.
  uint32_t pending = 0;
  for (const Event& e : events) {
    if (!e.has_triggered()) ++pending;
  }
  if (pending == 0) return Event();

  UserEvent merged(sim);
  detail::EventState* ms = merged.ev_.state_;
  // The countdown lives in the merged state. Atomic so a contract
  // violation under the windowed backend (inputs triggering on two node
  // workers at once) cannot corrupt the count silently.
  ms->pending.store(pending, std::memory_order_relaxed);
  if (EventGraph* g = sim.event_graph()) {
    // Every input — including ones already triggered by unroll-time
    // wiring — happens-before the merged event. Recording the triggered
    // ones too keeps the graph exact rather than schedule-dependent.
    for (const Event& e : events) g->edge(e.uid(), ms->uid);
  }
  for (const Event& e : events) {
    if (e.has_triggered()) continue;
    auto on_input = [merged, input_uid = e.uid()](Time) mutable {
      detail::EventState* m = merged.ev_.state_;
      if (m->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // The input that completes the merge is its critical
        // predecessor; record the identity for critical-path analysis.
        if (support::Tracer* t = m->sim->tracer()) {
          t->alias(m->uid, input_uid);
        }
        merged.trigger();
      }
    };
    static_assert(Callback<void(Time)>::fits_inline<decltype(on_input)>);
    e.subscribe(std::move(on_input));
  }
  return merged.event();
}

Event Event::merge_remote(Simulator& sim, const std::vector<Event>& events) {
  uint32_t pending = 0;
  for (const Event& e : events) {
    if (!e.has_triggered()) ++pending;
  }
  if (pending == 0) return Event();

  UserEvent merged(sim);
  detail::EventState* ms = merged.ev_.state_;
  ms->pending.store(pending, std::memory_order_relaxed);
  // The completion scans the inputs once everything triggered: the
  // alias choice depends only on trigger times and input order, never on
  // which worker's countdown decrement happened to be last.
  ms->remote_inputs = std::make_unique<std::vector<Event>>(events);
  if (EventGraph* g = sim.event_graph()) {
    for (const Event& e : events) g->edge(e.uid(), ms->uid);
  }
  for (const Event& e : events) {
    if (e.has_triggered()) continue;
    e.subscribe([merged](Time) mutable {
      detail::EventState* m = merged.ev_.state_;
      if (m->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      // All inputs have triggered (the acq_rel countdown orders their
      // state writes before this read); the merge completes at the max
      // trigger time regardless of which decrement arrived last.
      Time when = 0;
      for (const Event& in : *m->remote_inputs) {
        when = std::max(when, in.trigger_time());
      }
      m->sim->schedule_merge_completion(when, m->uid, [merged]() mutable {
        detail::EventState* c = merged.ev_.state_;
        const std::unique_ptr<std::vector<Event>> inputs =
            std::move(c->remote_inputs);
        if (support::Tracer* t = c->sim->tracer()) {
          // Latest trigger wins; ties keep the first input.
          Time best = 0;
          uint64_t critical = 0;
          for (const Event& in : *inputs) {
            if (in.uid() == 0) continue;
            if (critical == 0 || in.trigger_time() > best) {
              best = in.trigger_time();
              critical = in.uid();
            }
          }
          if (critical != 0) t->alias(c->uid, critical);
        }
        merged.trigger();
      });
    });
  }
  return merged.event();
}

UserEvent::UserEvent(Simulator& sim) {
  const uint64_t uid = sim.new_event_uid();
  detail::EventState* s = pool_new<detail::EventState>();
  s->uid = uid;
  s->sim = &sim;
  ev_ = Event(s);
}

void UserEvent::trigger() {
  detail::EventState* s = ev_.state_;
  CR_CHECK_MSG(!s->triggered, "UserEvent triggered twice");
  Simulator* sim = s->sim;
  const Time now = sim->now();
  s->triggered = true;
  s->trigger_time = now;
  // Detach the list first: a waiter that subscribes to this event runs
  // immediately, and nothing below touches the state again (a waiter may
  // drop its last handle).
  detail::Waiter* w = std::exchange(s->head, nullptr);
  s->tail = nullptr;
  EventGraph* g = sim->event_graph();
  uint64_t prev = 0;
  if (g != nullptr) {
    // Whatever caused this trigger happens-before it, and this event
    // is the cause of everything its waiters do (including callbacks
    // they schedule — schedule_at captures the ambient cause).
    prev = sim->current_cause();
    g->edge(prev, s->uid);
    sim->set_current_cause(s->uid);
  }
  while (w != nullptr) {
    detail::Waiter* next = w->next;
    w->fn(now);
    pool_delete(w);
    w = next;
  }
  if (g != nullptr) sim->set_current_cause(prev);
}

}  // namespace cr::sim
