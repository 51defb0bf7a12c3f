#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace cr::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  Time end = sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(end, 30u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    sim.schedule_after(9, [&] {
      EXPECT_EQ(sim.now(), 10u);
      ++fired;
    });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, NowAdvancesMonotonically) {
  Simulator sim;
  Time last = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(static_cast<Time>(i * 3 % 17), [&, i] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
    });
  }
  sim.run();
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}


// Direct checks of the per-lane horizon solve
// (Simulator::compute_window_ends) on hand-built windowed programs: one
// worker, every boundary a full window whose per-lane ends follow the
// closed form in simulator.h (lookahead L = 100). Each entry records the
// window it ran in through the test lane hook, which pins every lane's
// window end between its last executed and its first deferred entry.
struct HorizonCase {
  std::vector<std::vector<Time>> lane_entries{};  // per lane, own-lane times
  std::vector<uint32_t> armed{};  // lanes holding an armed cross-node send
  Time floor = 0;               // global-influence floor (0 = none)
};

struct HorizonRun {
  std::vector<std::vector<uint64_t>> window_of;  // per lane, per entry
  uint64_t windows = 0;
};

HorizonRun run_horizon_case(const HorizonCase& c) {
  const uint32_t nodes = static_cast<uint32_t>(c.lane_entries.size());
  Simulator sim;
  sim.begin_windowed(nodes, /*lookahead=*/100);
  std::vector<uint64_t> current(nodes, 0);
  sim.set_test_lane_hook([&current, nodes](uint32_t lane, uint64_t window) {
    if (lane < nodes) current[lane] = window;
  });
  HorizonRun out;
  out.window_of.resize(nodes);
  for (const uint32_t n : c.armed) sim.note_cross_send_armed(n);
  if (c.floor > 0) sim.note_global_influence_floor(c.floor);
  for (uint32_t n = 0; n < nodes; ++n) {
    for (const Time t : c.lane_entries[n]) {
      sim.schedule_at_affine(t, n, [&out, &current, n] {
        out.window_of[n].push_back(current[n]);
      });
    }
  }
  sim.run_windowed(1);
  out.windows = sim.windows();
  return out;
}

using Windows = std::vector<uint64_t>;

// Three armed lanes. Window 0 (fronts 0/40/90): the lowest lane ends at
// min(h2 + L, h1 + 2L) = 140, the others at h1 + L = 100. Window 1
// (fronts 150/130/400): lane 1 is lowest, ends 250, the others 230.
// Window 2 (fronts 250/-/400): the relay term binds, lane 0 ends at
// h1 + 2L = 450 < h2 + L = 500, so its entry at 460 waits. Window 3
// (fronts 460/-/400): lane 2 ends 560, lane 0 500.
TEST(WindowHorizon, LowestLaneGetsSecondFrontOrRelayBound) {
  const HorizonRun r = run_horizon_case(
      {.lane_entries = {{0, 120, 150, 250, 460}, {40, 130}, {90, 400}},
       .armed = {0, 1, 2}});
  EXPECT_EQ(r.window_of[0], (Windows{0, 0, 1, 2, 3}));
  EXPECT_EQ(r.window_of[1], (Windows{0, 1}));
  EXPECT_EQ(r.window_of[2], (Windows{0, 3}));
  EXPECT_EQ(r.windows, 4u);
}

// One armed lane cannot be influenced by anyone else (nothing can relay
// back to it), so it runs to the cap — here unbounded — in window 0,
// while lane 1 stops at h1 + L = 110.
TEST(WindowHorizon, SingleArmedLaneRunsToTheCap) {
  const HorizonRun r = run_horizon_case(
      {.lane_entries = {{10, 500, 1000}, {20, 600}}, .armed = {0}});
  EXPECT_EQ(r.window_of[0], (Windows{0, 0, 0}));
  EXPECT_EQ(r.window_of[1], (Windows{0, 1}));
  EXPECT_EQ(r.windows, 2u);
}

// No armed lanes, but a registered global-influence floor of 300: every
// lane stops at node_min + 300 (310 in window 0, 700 in window 1).
TEST(WindowHorizon, InfluenceFloorCapsEveryLane) {
  const HorizonRun r = run_horizon_case(
      {.lane_entries = {{10, 200, 400}, {50}}, .floor = 300});
  EXPECT_EQ(r.window_of[0], (Windows{0, 0, 1}));
  EXPECT_EQ(r.window_of[1], (Windows{0}));
  EXPECT_EQ(r.windows, 2u);
}

}  // namespace
}  // namespace cr::sim
