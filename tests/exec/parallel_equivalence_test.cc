// Cross-mode equivalence harness for the windowed multi-worker backend
// (DESIGN.md "Deterministic multi-worker backend"): for each of the four
// paper apps, every worker count must produce the same virtual timeline
// as the single-worker windowed run — bit-identical makespans, metrics
// snapshots, and race-checker verdicts. The worker count may change
// which host thread delivers an event, never what the event does or
// when it happens in virtual time.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "testing/window_shape.h"

namespace cr::exec {
namespace {

using testing::without_window_shape;

ir::Program build_app(rt::Runtime& rt, const std::string& app,
                      uint32_t nodes) {
  if (app == "stencil") {
    apps::stencil::Config cfg;
    cfg.nodes = nodes;
    cfg.tasks_per_node = 2;
    cfg.tile_x = 16;
    cfg.tile_y = 16;
    cfg.steps = 2;
    return apps::stencil::build(rt, cfg).program;
  }
  if (app == "circuit") {
    apps::circuit::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.nodes_per_piece = 16;
    cfg.wires_per_piece = 32;
    cfg.steps = 2;
    return apps::circuit::build(rt, cfg).program;
  }
  if (app == "pennant") {
    apps::pennant::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.zones_x_per_piece = 6;
    cfg.zones_y = 6;
    cfg.steps = 2;
    return apps::pennant::build(rt, cfg).program;
  }
  apps::miniaero::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 4;
  cfg.steps = 2;
  return apps::miniaero::build(rt, cfg).program;
}

ExecutionResult run_app(const std::string& app, uint32_t workers,
                        bool replay = false, bool host_profile = false,
                        bool watchdog = false) {
  CostModel cost;
  cost.track_dependences = false;
  const uint32_t nodes = 4;
  rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
  ir::Program program = build_app(rt, app, nodes);
  for (auto& t : program.tasks) t.kernel = nullptr;
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kSpmd;
  cfg.workers = workers;
  cfg.check = true;
  cfg.trace_replay = replay;
  cfg.host_profile = host_profile;
  // A budget far above any test run's wall time: the watchdog thread
  // runs but must never fire (and must never perturb the timeline).
  cfg.watchdog_ms = watchdog ? 60000 : 0;
  PreparedRun run = prepare(rt, std::move(program), cfg);
  return run.run();
}

// Worker counts required by the equivalence contract: 1, 2, 4 and the
// host's hardware concurrency (deduplicated).
std::vector<uint32_t> worker_counts() {
  std::vector<uint32_t> counts = {1, 2, 4};
  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw > 0 && hw != 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

void expect_bit_identical(const std::string& app) {
  // Reference point: one worker. Every other worker count must match it
  // in full, window-shaped gauges included; the sequential reference
  // loop (workers = 0), the oracle, must match everything except the
  // window-shaped gauges — same timeline, no synchronization schedule.
  const ExecutionResult ref = run_app(app, 1);
  ASSERT_GT(ref.makespan_ns, 0u);
  ASSERT_GT(ref.point_tasks, 0u);
  ASSERT_NE(ref.check, nullptr);
  const ExecutionResult seq = run_app(app, 0);
  EXPECT_EQ(seq.makespan_ns, ref.makespan_ns) << app << " vs workers=0";
  EXPECT_EQ(without_window_shape(seq.metrics),
            without_window_shape(ref.metrics))
      << app << " vs workers=0";
  ASSERT_NE(seq.check, nullptr);
  EXPECT_EQ(seq.check->ok(), ref.check->ok()) << app << " vs workers=0";
  EXPECT_EQ(seq.check->races.size(), ref.check->races.size())
      << app << " vs workers=0";
  for (const uint32_t w : worker_counts()) {
    if (w == 1) continue;
    const ExecutionResult res = run_app(app, w);
    const std::string where = app + " workers=" + std::to_string(w);
    EXPECT_EQ(res.makespan_ns, ref.makespan_ns) << where;
    EXPECT_EQ(res.point_tasks, ref.point_tasks) << where;
    EXPECT_EQ(res.bytes_moved, ref.bytes_moved) << where;
    EXPECT_EQ(res.messages, ref.messages) << where;
    // The full metrics snapshot — every sim./rt./exec./check. counter —
    // must match key for key, value for value.
    EXPECT_EQ(res.metrics, ref.metrics) << where;
    // Identical race-checker verdict.
    ASSERT_NE(res.check, nullptr) << where;
    EXPECT_EQ(res.check->ok(), ref.check->ok()) << where;
    EXPECT_EQ(res.check->races.size(), ref.check->races.size()) << where;
    EXPECT_EQ(res.check->stats.accesses, ref.check->stats.accesses)
        << where;
    EXPECT_EQ(res.check->stats.pairs_checked,
              ref.check->stats.pairs_checked)
        << where;
  }
}

TEST(ParallelEquivalence, Stencil) { expect_bit_identical("stencil"); }
TEST(ParallelEquivalence, Circuit) { expect_bit_identical("circuit"); }
TEST(ParallelEquivalence, Pennant) { expect_bit_identical("pennant"); }
TEST(ParallelEquivalence, MiniAero) { expect_bit_identical("miniaero"); }

// ExecConfig::trace_replay must be a structural no-op in SPMD mode
// (dependence analysis does not run there): with the flag on, every
// worker count still matches the replay-off single-worker reference in
// full — including the metrics snapshot, which must not grow
// exec.replay.* keys.
TEST(ParallelEquivalence, ReplayFlagIsInertInSpmd) {
  for (const std::string app : {"stencil", "circuit"}) {
    const ExecutionResult ref = run_app(app, 1, /*replay=*/false);
    ASSERT_NE(ref.check, nullptr);
    for (const uint32_t w : worker_counts()) {
      const ExecutionResult res = run_app(app, w, /*replay=*/true);
      EXPECT_EQ(res.makespan_ns, ref.makespan_ns) << app << " workers=" << w;
      EXPECT_EQ(res.metrics, ref.metrics) << app << " workers=" << w;
      ASSERT_NE(res.check, nullptr) << app << " workers=" << w;
      EXPECT_EQ(res.check->ok(), ref.check->ok()) << app << " workers=" << w;
      EXPECT_EQ(res.check->stats.pairs_checked,
                ref.check->stats.pairs_checked)
          << app << " workers=" << w;
    }
  }
}

// The host-phase profiler and stall watchdog are pure observers: with
// both enabled, every virtual-time quantity — makespan, the full
// metrics snapshot, the checker verdict — must be bit-identical to the
// unobserved run at the same worker count, including workers=0 (the
// sequential SPMD path, where both features are inert no-ops). The
// wall-clock profile must also stay out of the metrics snapshot: that
// map is the bit-stable cross-machine diff surface.
TEST(ParallelEquivalence, HostProfilerAndWatchdogAreObserverNeutral) {
  for (const std::string app : {"stencil", "circuit"}) {
    for (const uint32_t w : {0u, 1u, 4u}) {
      const std::string where = app + " workers=" + std::to_string(w);
      const ExecutionResult ref = run_app(app, w);
      const ExecutionResult res =
          run_app(app, w, /*replay=*/false, /*host_profile=*/true,
                  /*watchdog=*/true);
      EXPECT_EQ(res.makespan_ns, ref.makespan_ns) << where;
      EXPECT_EQ(res.point_tasks, ref.point_tasks) << where;
      EXPECT_EQ(res.bytes_moved, ref.bytes_moved) << where;
      EXPECT_EQ(res.messages, ref.messages) << where;
      EXPECT_EQ(res.metrics, ref.metrics) << where;
      ASSERT_NE(res.check, nullptr) << where;
      ASSERT_NE(ref.check, nullptr) << where;
      EXPECT_EQ(res.check->ok(), ref.check->ok()) << where;
      EXPECT_EQ(res.check->races.size(), ref.check->races.size()) << where;
      EXPECT_EQ(res.check->stats.accesses, ref.check->stats.accesses)
          << where;
      for (const auto& [key, value] : res.metrics) {
        EXPECT_NE(key.rfind("host.", 0), 0u)
            << where << ": wall-clock key leaked into metrics: " << key;
      }
      if (w >= 1) {
        // The windowed backend ran: the profile artifact must exist and
        // cover the whole run.
        ASSERT_NE(res.host_profile, nullptr) << where;
        EXPECT_EQ(res.host_profile->workers, w) << where;
        EXPECT_GT(res.host_profile->wall_ns, 0u) << where;
        EXPECT_EQ(res.host_profile->windows,
                  static_cast<uint64_t>(res.metrics.at("sim.windows")))
            << where;
      } else {
        // Sequential path: nothing to profile.
        EXPECT_EQ(res.host_profile, nullptr) << where;
      }
      EXPECT_EQ(ref.host_profile, nullptr) << where;
    }
  }
}


// Window shape at one worker: sim.windows for each app on 16 nodes.
// The shape is a pure function of the per-lane horizon solve
// (Simulator::compute_window_ends), not of the worker count, and it is
// invisible to every timeline comparison above, so it is pinned here: a
// change to the solve that keeps the timeline but moves a window end
// fails this test (the sim-level WindowHorizon tests pin the individual
// terms).
TEST(ParallelEquivalence, WindowShapeIsPinned) {
  struct Shape {
    const char* app;
    double windows;
  };
  const Shape pinned[] = {
      {"stencil", 658},
      {"circuit", 712},
      {"pennant", 603},
      {"miniaero", 740},
  };
  for (const Shape& want : pinned) {
    CostModel cost;
    cost.track_dependences = false;
    const uint32_t nodes = 16;
    rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
    ir::Program program = build_app(rt, want.app, nodes);
    for (auto& t : program.tasks) t.kernel = nullptr;
    PreparedRun run =
        prepare(rt, std::move(program), {.cost = cost, .workers = 1});
    const ExecutionResult res = run.run();
    EXPECT_EQ(res.metrics.at("sim.windows"), want.windows) << want.app;
  }
}

}  // namespace
}  // namespace cr::exec
