// Host-phase profiler and stall watchdog on a direct windowed
// Simulator program (no runtime/engine in the loop): the profiler must
// see every phase — including the global-lane serial drain, which the
// paper apps' point-to-point sync rarely exercises — with contiguous
// per-worker timelines, and neither the profiler nor the watchdog may
// perturb virtual time. The watchdog must turn a deliberately wedged
// lane into a flight-recorder dump naming every lane, and must stay
// silent on a healthy run.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "support/host_clock.h"

namespace cr::sim {
namespace {

constexpr uint32_t kNodes = 4;
constexpr Time kLookahead = 100;

struct RunResult {
  Time final_time = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  std::array<uint64_t, kNodes> node_execs{};
  uint64_t serial_execs = 0;
  std::vector<std::vector<ExecRecord>> log;
};

// A small multi-window program: per-node entry chains (each entry
// reschedules itself in-lane a few times, so windows stay busy) plus
// global entries on the coordinator lane — both the plain global path
// and a merge completion, so the serial phase definitely runs.
void unroll_program(Simulator& sim, RunResult& out) {
  for (uint32_t n = 0; n < kNodes; ++n) {
    for (int k = 0; k < 4; ++k) {
      std::function<void()> hop = [&out, n, &sim]() {
        ++out.node_execs[n];
        if (out.node_execs[n] % 3 != 0) {
          sim.schedule_after(40 + n, [&out, n] { ++out.node_execs[n]; });
        }
      };
      sim.schedule_at_affine(10 + 90 * static_cast<Time>(k) + n, n, hop);
    }
  }
  // Global-lane entries (creator kNoAffinity): run in serial phases
  // strictly before node entries at or after their time.
  for (const Time t : {150, 330}) {
    sim.schedule_at(t, [&out] { ++out.serial_execs; });
  }
  // A deferred merge completion (kMergeCreator key) — the other serial
  // producer; the window planner requires a registered influence floor.
  sim.note_global_influence_floor(kLookahead);
  sim.schedule_merge_completion(250, /*merge_uid=*/7,
                                [&out] { ++out.serial_execs; });
}

RunResult run_program(uint32_t workers, support::HostProfiler* prof,
                      Simulator::WatchdogOptions wd = {}) {
  Simulator sim;
  RunResult out;
  sim.begin_windowed(kNodes, kLookahead);
  unroll_program(sim, out);
  if (prof != nullptr) sim.set_host_profiler(prof);
  if (wd.budget_ms > 0) sim.set_watchdog(std::move(wd));
  sim.set_exec_log(&out.log);
  out.final_time = sim.run_windowed(workers);
  out.events = sim.events_processed();
  out.windows = sim.windows();
  return out;
}

void expect_same_timeline(const RunResult& a, const RunResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.final_time, b.final_time) << where;
  EXPECT_EQ(a.events, b.events) << where;
  EXPECT_EQ(a.node_execs, b.node_execs) << where;
  EXPECT_EQ(a.serial_execs, b.serial_execs) << where;
  EXPECT_EQ(a.log, b.log) << where;
}

TEST(HostProfile, RecordsEveryPhaseIncludingSerialDrain) {
  // run_windowed() owns the profiler's begin()/end() bracket; the test
  // only attaches it and reads the aggregate afterwards.
  support::HostProfiler prof;
  const RunResult r = run_program(2, &prof);
  const support::HostProfile p = prof.profile();

  EXPECT_EQ(r.serial_execs, 3u);  // 2 global entries + 1 merge completion
  ASSERT_GT(r.windows, 1u);
  EXPECT_EQ(p.workers, 2u);
  EXPECT_GT(p.wall_ns, 0u);
  // One window row per planned window: the final drain iteration's plan
  // span carries one-past-the-last index and must not add a row.
  EXPECT_EQ(p.windows, r.windows);

  auto ns = [&p](support::HostPhase ph) {
    return p.phase_ns[static_cast<size_t>(ph)];
  };
  EXPECT_GT(ns(support::HostPhase::kPlan), 0.0);
  EXPECT_GT(ns(support::HostPhase::kSerialDrain), 0.0);
  EXPECT_GT(ns(support::HostPhase::kLaneDrain), 0.0);
  EXPECT_GT(ns(support::HostPhase::kBarrierWait), 0.0);
  EXPECT_GT(ns(support::HostPhase::kBarrierWake), 0.0);

  EXPECT_GT(p.coordinator_recorded_ns, 0u);
  EXPECT_LE(p.coordinator_recorded_ns, p.wall_ns);
  EXPECT_GE(p.serial_fraction, 0.0);
  EXPECT_LE(p.serial_fraction, 1.0);
}

TEST(HostProfile, SpansTileEachWorkerTimeline) {
  // The reconciliation guarantee: each mark closes the segment opened
  // by the previous one, so a worker's spans are contiguous and
  // monotonic — recorded time equals last_end - first_start exactly.
  support::HostProfiler prof;
  run_program(2, &prof);
  const support::HostProfile p = prof.profile();
  ASSERT_EQ(p.spans.size(), 2u);
  for (uint32_t w = 0; w < 2; ++w) {
    const auto& lane = p.spans[w];
    ASSERT_FALSE(lane.empty()) << "worker " << w;
    for (size_t i = 0; i < lane.size(); ++i) {
      EXPECT_LE(lane[i].t0, lane[i].t1) << "worker " << w << " span " << i;
      if (i + 1 < lane.size()) {
        EXPECT_EQ(lane[i].t1, lane[i + 1].t0)
            << "worker " << w << " gap after span " << i;
      }
    }
    EXPECT_EQ(p.worker_recorded_ns[w],
              lane.back().t1 - lane.front().t0)
        << "worker " << w;
  }
}

TEST(HostProfile, ProfilerAndWatchdogAreVirtualTimeNeutral) {
  // Reference: no observers, 1 worker.
  const RunResult ref = run_program(1, nullptr);
  ASSERT_GT(ref.events, 0u);
  ASSERT_EQ(ref.serial_execs, 3u);

  // Profiled at several worker counts.
  for (const uint32_t w : {1u, 2u, 4u}) {
    support::HostProfiler prof;
    const RunResult r = run_program(w, &prof);
    expect_same_timeline(ref, r, "profiled workers=" + std::to_string(w));
  }

  // Profiler + watchdog together (generous budget: it must stay quiet).
  support::HostProfiler prof;
  Simulator::WatchdogOptions wd;
  wd.budget_ms = 60000;
  wd.abort_on_stall = false;
  const RunResult r = run_program(4, &prof, std::move(wd));
  expect_same_timeline(ref, r, "profiled+watchdog workers=4");
}

TEST(HostProfile, WatchdogDumpsFlightRecorderOnStuckLane) {
  std::mutex mu;
  std::string captured;
  std::atomic<bool> wedged{false};

  Simulator sim;
  RunResult out;
  sim.begin_windowed(kNodes, kLookahead);
  unroll_program(sim, out);
  Simulator::WatchdogOptions wd;
  wd.budget_ms = 100;
  wd.abort_on_stall = false;  // test mode: record + re-arm, don't abort
  wd.sink = [&mu, &captured](const std::string& dump) {
    std::lock_guard<std::mutex> lock(mu);
    captured += dump;
  };
  sim.set_watchdog(std::move(wd));
  sim.set_exec_log(&out.log);
  // Wedge lane 3's worker once, well past the watchdog budget.
  sim.set_test_lane_hook([&wedged](uint32_t lane, uint64_t window) {
    if (lane == 3 && window >= 1 && !wedged.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  });
  const Time final_time = sim.run_windowed(2);

  EXPECT_TRUE(wedged.load());
  EXPECT_TRUE(sim.watchdog_fired());
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(captured.empty());
  EXPECT_NE(captured.find("simulator stall watchdog"), std::string::npos);
  EXPECT_NE(captured.find("budget 100 ms"), std::string::npos);
  // Every lane's flight-recorder line, with front and window-end times.
  for (uint32_t n = 0; n < kNodes; ++n) {
    const std::string line = "lane " + std::to_string(n) + ": front t=";
    EXPECT_NE(captured.find(line), std::string::npos) << captured;
  }
  EXPECT_NE(captured.find("window end t="), std::string::npos);
  EXPECT_NE(captured.find("armed sends"), std::string::npos);
  // Barrier state and per-worker last-executed state.
  EXPECT_NE(captured.find("barrier epoch"), std::string::npos);
  EXPECT_NE(captured.find("parked workers"), std::string::npos);
  EXPECT_NE(captured.find("worker 0: last window"), std::string::npos);
  EXPECT_NE(captured.find("worker 1: last window"), std::string::npos);

  // The stall was transient: the run still completes with the same
  // virtual timeline as an unobserved one.
  const RunResult ref = run_program(1, nullptr);
  EXPECT_EQ(final_time, ref.final_time);
  EXPECT_EQ(out.node_execs, ref.node_execs);
  EXPECT_EQ(out.serial_execs, ref.serial_execs);
  EXPECT_EQ(out.log, ref.log);
}

TEST(HostProfile, WatchdogSurvivesLongSerialDrain) {
  // Regression: the serial phase used to run its whole drain loop
  // without touching the heartbeat, so a boundary with many global
  // entries could exceed the budget while making perfectly good
  // progress — a spurious stall dump. The coordinator now beats once
  // per drained entry (and exposes each iteration to the test hook as
  // lane == nodes()), so a drain that is long in aggregate but live per
  // entry must keep the watchdog silent.
  std::mutex mu;
  std::string captured;
  std::atomic<uint32_t> serial_iterations{0};

  Simulator sim;
  RunResult out;
  sim.begin_windowed(kNodes, kLookahead);
  // A little lane work so windows form, then a pile of global-lane
  // entries that one boundary drains back to back.
  for (uint32_t n = 0; n < kNodes; ++n) {
    sim.schedule_at_affine(10 + n, n, [&out, n] { ++out.node_execs[n]; });
  }
  sim.note_global_influence_floor(kLookahead);
  for (int k = 0; k < 10; ++k) {
    sim.schedule_at(150 + k, [&out] { ++out.serial_execs; });
  }
  Simulator::WatchdogOptions wd;
  wd.budget_ms = 100;
  wd.abort_on_stall = false;
  wd.sink = [&mu, &captured](const std::string& dump) {
    std::lock_guard<std::mutex> lock(mu);
    captured += dump;
  };
  sim.set_watchdog(std::move(wd));
  // Stretch every serial-drain iteration: ~10 x 40ms = ~400ms inside
  // one serial phase, far past the 100ms budget, but with a beat
  // between every sleep.
  sim.set_test_lane_hook([&serial_iterations](uint32_t lane, uint64_t) {
    if (lane == kNodes) {
      ++serial_iterations;
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });
  sim.run_windowed(2);

  EXPECT_EQ(out.serial_execs, 10u);
  EXPECT_GE(serial_iterations.load(), 10u);
  EXPECT_FALSE(sim.watchdog_fired());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(captured.empty()) << captured;
}

TEST(HostProfile, WatchdogStaysSilentOnHealthyRun) {
  std::mutex mu;
  std::string captured;
  Simulator sim;
  RunResult out;
  sim.begin_windowed(kNodes, kLookahead);
  unroll_program(sim, out);
  Simulator::WatchdogOptions wd;
  wd.budget_ms = 2000;  // far above this run's total wall time
  wd.abort_on_stall = false;
  wd.sink = [&mu, &captured](const std::string& dump) {
    std::lock_guard<std::mutex> lock(mu);
    captured += dump;
  };
  sim.set_watchdog(std::move(wd));
  sim.run_windowed(4);
  EXPECT_FALSE(sim.watchdog_fired());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(captured.empty()) << captured;
}

}  // namespace
}  // namespace cr::sim
