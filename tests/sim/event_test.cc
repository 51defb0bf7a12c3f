#include "sim/event.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_graph.h"
#include "sim/simulator.h"

namespace cr::sim {
namespace {

TEST(Event, DefaultEventIsTriggered) {
  Event e;
  EXPECT_TRUE(e.has_triggered());
  EXPECT_EQ(e.trigger_time(), 0u);
  bool ran = false;
  e.subscribe([&](Time t) {
    ran = true;
    EXPECT_EQ(t, 0u);
  });
  EXPECT_TRUE(ran);
}

TEST(UserEvent, TriggerRunsWaitersAtNow) {
  Simulator sim;
  UserEvent ue(sim);
  Time seen = 0;
  bool ran = false;
  ue.event().subscribe([&](Time t) {
    ran = true;
    seen = t;
  });
  EXPECT_FALSE(ran);
  sim.schedule_at(42, [&] { ue.trigger(); });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(seen, 42u);
  EXPECT_TRUE(ue.event().has_triggered());
}

TEST(UserEvent, SubscribeAfterTriggerRunsImmediately) {
  Simulator sim;
  UserEvent ue(sim);
  ue.trigger();
  bool ran = false;
  ue.event().subscribe([&](Time) { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Event, MergeWaitsForAll) {
  Simulator sim;
  UserEvent a(sim), b(sim), c(sim);
  Event m = Event::merge(sim, {a.event(), b.event(), c.event()});
  Time seen = 0;
  m.subscribe([&](Time t) { seen = t; });

  sim.schedule_at(10, [&] { b.trigger(); });
  sim.schedule_at(30, [&] { a.trigger(); });
  sim.schedule_at(20, [&] { c.trigger(); });
  sim.run();
  EXPECT_TRUE(m.has_triggered());
  EXPECT_EQ(seen, 30u);  // max of trigger times
}

TEST(Event, MergeOfTriggeredIsTriggered) {
  Simulator sim;
  Event m = Event::merge(sim, {Event(), Event()});
  EXPECT_TRUE(m.has_triggered());
}

TEST(Event, MergeOfEmptyListIsTriggered) {
  Simulator sim;
  EXPECT_TRUE(Event::merge(sim, {}).has_triggered());
}

TEST(Event, MergeMixedTriggeredAndPending) {
  Simulator sim;
  UserEvent a(sim);
  Event m = Event::merge(sim, {Event(), a.event()});
  EXPECT_FALSE(m.has_triggered());
  sim.schedule_at(5, [&] { a.trigger(); });
  sim.run();
  EXPECT_TRUE(m.has_triggered());
  EXPECT_EQ(m.trigger_time(), 5u);
}

TEST(UserEvent, WaitersRunInSubscriptionOrder) {
  Simulator sim;
  UserEvent ue(sim);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    ue.event().subscribe([&order, i](Time) { order.push_back(i); });
  }
  sim.schedule_at(3, [&] { ue.trigger(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(UserEvent, SubscribeDuringCascadeRunsImmediately) {
  Simulator sim;
  UserEvent ue(sim);
  std::vector<int> order;
  const Event e = ue.event();
  e.subscribe([&order, e](Time) {
    order.push_back(0);
    e.subscribe([&order](Time) { order.push_back(1); });
  });
  e.subscribe([&order](Time) { order.push_back(2); });
  ue.trigger();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Event, HandleOutlivesUserEventAndClosures) {
  Simulator sim;
  Event kept;
  {
    UserEvent ue(sim);
    kept = ue.event();
    // A waiter holding another handle, and the trigger closure holding
    // the UserEvent: both are gone once the run drains.
    ue.event().subscribe([also = ue.event()](Time) {});
    sim.schedule_at(7, [ue]() mutable { ue.trigger(); });
  }
  sim.run();
  EXPECT_TRUE(kept.has_triggered());
  EXPECT_EQ(kept.trigger_time(), 7u);
  EXPECT_NE(kept.uid(), 0u);
}

TEST(Event, StateIsNotReusedWhileAHandleLives) {
  Simulator sim;
  Event kept;
  uint64_t uid = 0;
  {
    UserEvent ue(sim);
    kept = ue.event();
    uid = kept.uid();
    sim.schedule_at(5, [ue]() mutable { ue.trigger(); });
    sim.run();
  }
  // The pool recycles most-recently-freed storage first: a state freed
  // too early would come straight back as one of these.
  std::vector<UserEvent> fresh;
  for (int i = 0; i < 1000; ++i) {
    fresh.emplace_back(sim);
    EXPECT_FALSE(fresh.back().event() == kept);
  }
  fresh.clear();
  EXPECT_EQ(kept.uid(), uid);
  EXPECT_EQ(kept.trigger_time(), 5u);
  EXPECT_TRUE(kept.has_triggered());
}

TEST(Event, MergeCountdownOverMixedInputs) {
  Simulator sim;
  UserEvent done_early(sim), a(sim), b(sim);
  done_early.trigger();  // at time 0, before the merge is wired
  // Triggered, pending, the no-event, and a pending input listed twice:
  // the countdown covers exactly the pending entries.
  Event m = Event::merge(sim, {done_early.event(), a.event(), Event(),
                               b.event(), a.event()});
  int fired = 0;
  Time seen = 0;
  m.subscribe([&](Time t) {
    ++fired;
    seen = t;
  });
  sim.schedule_at(10, [&] { a.trigger(); });
  sim.schedule_at(15, [&] { EXPECT_FALSE(m.has_triggered()); });
  sim.schedule_at(20, [&] { b.trigger(); });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen, 20u);
  EXPECT_EQ(m.trigger_time(), 20u);
}

TEST(Event, SubscribeAfterTriggerRecordsCausalEdge) {
  Simulator sim;
  EventGraph graph;
  sim.set_event_graph(&graph);
  UserEvent cause(sim), effect(sim);
  cause.trigger();
  // The subscription runs inline; whatever it triggers is caused by the
  // already-triggered event.
  cause.event().subscribe([effect](Time) mutable { effect.trigger(); });
  bool found = false;
  for (const auto& [from, to] : graph.edges()) {
    if (from == cause.event().uid() && to == effect.event().uid()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  sim.set_event_graph(nullptr);
}

}  // namespace
}  // namespace cr::sim
