// HostProfiler/HostProfile aggregation on a synthetic span set: phase
// totals, per-worker busy time, per-window rows (serial vs parallel
// segments), the host.* metric view, and both JSON artifact writers.
// The span layout mirrors what sim/simulator.cc records — contiguous
// per-worker timelines with the coordinator carrying plan/serial/wake
// segments around each window's parallel block.
#include "support/host_clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"
#include "support/rng.h"

namespace cr::support {
namespace {

// Two workers, two real windows plus the final drain iteration.
// Coordinator (worker 0) timeline, ns offsets from the profile origin:
//   win 0: plan[0,100) serial[100,250) plan[250,300) wake[300,320)
//          lane[320,700) flush[700,750) wait[750,800)
//   win 1: plan[800,850) lane[850,1000) flush[1000,1010) wait[1010,1100)
//   final: plan[1100,1150) under window index 2 (no lane drain -> no row)
// Worker 1:
//   win 0: wait[0,330) lane[330,680) flush[680,720) wake[720,740)
//   win 1: wait[740,860) lane[860,990) flush[990,1000) wake[1000,1005)
HostProfiler make_profiler() {
  HostProfiler prof;
  prof.begin(2);
  const uint64_t o = prof.origin_ns();
  auto rec = [&](uint32_t w, uint64_t win, HostPhase p, uint64_t t0,
                 uint64_t t1) { prof.record(w, win, p, o + t0, o + t1); };
  rec(0, 0, HostPhase::kPlan, 0, 100);
  rec(0, 0, HostPhase::kSerialDrain, 100, 250);
  rec(0, 0, HostPhase::kPlan, 250, 300);
  rec(0, 0, HostPhase::kBarrierWake, 300, 320);
  rec(0, 0, HostPhase::kLaneDrain, 320, 700);
  rec(0, 0, HostPhase::kOutboxFlush, 700, 750);
  rec(0, 0, HostPhase::kBarrierWait, 750, 800);
  rec(0, 1, HostPhase::kPlan, 800, 850);
  rec(0, 1, HostPhase::kLaneDrain, 850, 1000);
  rec(0, 1, HostPhase::kOutboxFlush, 1000, 1010);
  rec(0, 1, HostPhase::kBarrierWait, 1010, 1100);
  rec(0, 2, HostPhase::kPlan, 1100, 1150);
  rec(1, 0, HostPhase::kBarrierWait, 0, 330);
  rec(1, 0, HostPhase::kLaneDrain, 330, 680);
  rec(1, 0, HostPhase::kOutboxFlush, 680, 720);
  rec(1, 0, HostPhase::kBarrierWake, 720, 740);
  rec(1, 1, HostPhase::kBarrierWait, 740, 860);
  rec(1, 1, HostPhase::kLaneDrain, 860, 990);
  rec(1, 1, HostPhase::kOutboxFlush, 990, 1000);
  rec(1, 1, HostPhase::kBarrierWake, 1000, 1005);
  // Spin past the last synthetic offset so wall_ns (a real clock
  // distance) covers the fake spans and serial = wall - parallel stays
  // a meaningful identity.
  while (host_now_ns() - o < 2000) {
  }
  prof.end();
  return prof;
}

size_t idx(HostPhase p) { return static_cast<size_t>(p); }

TEST(HostClock, PhaseNamesAreStable) {
  EXPECT_STREQ(host_phase_name(HostPhase::kPlan), "plan");
  EXPECT_STREQ(host_phase_name(HostPhase::kSerialDrain), "serial_drain");
  EXPECT_STREQ(host_phase_name(HostPhase::kLaneDrain), "lane_drain");
  EXPECT_STREQ(host_phase_name(HostPhase::kOutboxFlush), "outbox_flush");
  EXPECT_STREQ(host_phase_name(HostPhase::kBarrierWait), "barrier_wait");
  EXPECT_STREQ(host_phase_name(HostPhase::kBarrierWake), "barrier_wake");
}

TEST(HostClock, MonotonicClockAdvances) {
  const uint64_t a = host_now_ns();
  const uint64_t b = host_now_ns();
  EXPECT_GE(b, a);
}

TEST(HostClock, AggregatesPhaseTotalsAndBusyTime) {
  const HostProfile p = make_profiler().profile();
  ASSERT_EQ(p.workers, 2u);
  EXPECT_DOUBLE_EQ(p.phase_ns[idx(HostPhase::kPlan)], 250.0);
  EXPECT_DOUBLE_EQ(p.phase_ns[idx(HostPhase::kSerialDrain)], 150.0);
  EXPECT_DOUBLE_EQ(p.phase_ns[idx(HostPhase::kLaneDrain)], 1010.0);
  EXPECT_DOUBLE_EQ(p.phase_ns[idx(HostPhase::kOutboxFlush)], 110.0);
  EXPECT_DOUBLE_EQ(p.phase_ns[idx(HostPhase::kBarrierWait)], 590.0);
  EXPECT_DOUBLE_EQ(p.phase_ns[idx(HostPhase::kBarrierWake)], 45.0);
  ASSERT_EQ(p.worker_busy_ns.size(), 2u);
  EXPECT_EQ(p.worker_busy_ns[0], 590u);  // lane 380+150 + flush 50+10
  EXPECT_EQ(p.worker_busy_ns[1], 530u);  // lane 350+130 + flush 40+10
  EXPECT_EQ(p.worker_recorded_ns[0], 1150u);
  EXPECT_EQ(p.worker_recorded_ns[1], 1005u);
  EXPECT_EQ(p.coordinator_recorded_ns, 1150u);
}

TEST(HostClock, BuildsWindowRowsAndDropsFinalDrainIteration) {
  const HostProfile p = make_profiler().profile();
  // The window-2 plan span (final drain iteration, no lane drain) must
  // not produce a row.
  ASSERT_EQ(p.window_rows.size(), 2u);
  EXPECT_EQ(p.windows, 2u);

  const HostWindowRow& r0 = p.window_rows[0];
  EXPECT_EQ(r0.window, 0u);
  EXPECT_EQ(r0.start_ns, 0u);
  EXPECT_EQ(r0.end_ns, 800u);
  EXPECT_EQ(r0.parallel_span_ns, 480u);  // lane drain start 320 -> 800
  EXPECT_EQ(r0.serial_ns, 320u);
  EXPECT_EQ(r0.busy_ns, 820u);  // 380+50 (w0) + 350+40 (w1)

  const HostWindowRow& r1 = p.window_rows[1];
  EXPECT_EQ(r1.window, 1u);
  EXPECT_EQ(r1.start_ns, 800u);
  EXPECT_EQ(r1.end_ns, 1100u);
  EXPECT_EQ(r1.parallel_span_ns, 250u);
  EXPECT_EQ(r1.serial_ns, 50u);
  EXPECT_EQ(r1.busy_ns, 300u);  // 150+10 (w0) + 130+10 (w1)

  EXPECT_EQ(p.window_span_hist.count(), 2u);
  EXPECT_EQ(p.window_span_hist.sum(), 730u);
  EXPECT_EQ(p.window_busy_hist.count(), 2u);
  EXPECT_EQ(p.window_busy_hist.sum(), 1120u);

  // wall_ns is the real begin->end distance (the test body itself), so
  // only the identity serial = wall - sum(parallel) is checkable.
  EXPECT_GT(p.wall_ns, 0u);
  ASSERT_GE(p.wall_ns, 730u);
  EXPECT_EQ(p.serial_ns, p.wall_ns - 730u);
  EXPECT_GE(p.serial_fraction, 0.0);
  EXPECT_LE(p.serial_fraction, 1.0);
}

TEST(HostClock, RecordClampsBelowOriginToZero) {
  HostProfiler prof;
  prof.begin(1);
  const uint64_t o = prof.origin_ns();
  // A worker whose first boundary was stamped before begin() (thread
  // spawn order) must clamp, not wrap.
  prof.record(0, 0, HostPhase::kBarrierWait, o > 50 ? o - 50 : 0, o + 10);
  prof.end();
  const HostProfile p = prof.profile();
  ASSERT_EQ(p.spans[0].size(), 1u);
  EXPECT_EQ(p.spans[0][0].t0, 0u);
  EXPECT_EQ(p.spans[0][0].t1, 10u);
}

TEST(HostClock, HostMetricsViewHasExpectedKeys) {
  const std::map<std::string, double> m = make_profiler().profile()
                                              .host_metrics();
  for (const char* key :
       {"host.profile.wall_ns", "host.profile.windows",
        "host.profile.workers", "host.profile.serial_ns",
        "host.profile.serial_fraction", "host.phase.plan_ns",
        "host.phase.serial_drain_ns", "host.phase.lane_drain_ns",
        "host.phase.outbox_flush_ns", "host.phase.barrier_wait_ns",
        "host.phase.barrier_wake_ns", "host.worker.busy_frac_min",
        "host.worker.busy_frac_max", "host.worker.busy_frac_mean",
        "host.window.span_ns.count", "host.window.span_ns.sum",
        "host.window.busy_ns.count", "host.window.busy_ns.sum"}) {
    EXPECT_TRUE(m.count(key)) << key;
  }
  // Every key is host.-prefixed: nothing here may leak into the
  // bit-stable MetricsRegistry namespace.
  for (const auto& [key, value] : m) {
    EXPECT_EQ(key.rfind("host.", 0), 0u) << key;
  }
  EXPECT_DOUBLE_EQ(m.at("host.profile.workers"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("host.profile.windows"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("host.phase.lane_drain_ns"), 1010.0);
  EXPECT_DOUBLE_EQ(m.at("host.window.busy_ns.sum"), 1120.0);
  EXPECT_GE(m.at("host.worker.busy_frac_max"),
            m.at("host.worker.busy_frac_min"));
}

// A longer synthetic timeline in the simulator's shape: three workers,
// serial drains on some windows, the coordinator's mailbox pre-drain
// (a second outbox_flush) on others, a worker that sits some windows
// out, and the final drain iteration's row-less plan span.
HostProfiler make_long_profiler(uint64_t windows) {
  HostProfiler prof;
  constexpr uint32_t kWorkers = 3;
  prof.begin(kWorkers);
  const uint64_t o = prof.origin_ns();
  Rng rng(17);
  uint64_t now[kWorkers] = {};
  auto rec = [&](uint32_t w, uint64_t win, HostPhase p) {
    const uint64_t t0 = now[w];
    now[w] += 1 + rng.next_below(100);
    prof.record(w, win, p, o + t0, o + now[w]);
  };
  for (uint64_t win = 0; win < windows; ++win) {
    rec(0, win, HostPhase::kPlan);
    if (win % 3 == 0) rec(0, win, HostPhase::kSerialDrain);
    rec(0, win, HostPhase::kPlan);
    rec(0, win, HostPhase::kBarrierWake);
    for (uint32_t w = 0; w < kWorkers; ++w) {
      if (w > 0) rec(w, win, HostPhase::kBarrierWait);
      const bool idle = w == 2 && win % 5 == 4;  // never drains
      if (!idle) {
        rec(w, win, HostPhase::kLaneDrain);
        rec(w, win, HostPhase::kOutboxFlush);
      }
      if (w == 0 && rng.next_below(2) == 0) {
        rec(w, win, HostPhase::kOutboxFlush);  // mailbox pre-drain
      }
      rec(w, win, w == 0 ? HostPhase::kBarrierWait : HostPhase::kBarrierWake);
    }
  }
  rec(0, windows, HostPhase::kPlan);
  const uint64_t last = *std::max_element(now, now + kWorkers);
  while (host_now_ns() - o < last) {
  }
  prof.end();
  return prof;
}

bool is_busy(HostPhase p) {
  return p == HostPhase::kLaneDrain || p == HostPhase::kOutboxFlush;
}

TEST(HostClock, LongTimelineMatchesBruteForceAggregation) {
  const HostProfile p = make_long_profiler(300).profile();
  const auto& lanes = p.spans;
  ASSERT_EQ(lanes.size(), 3u);

  double phase_ns[kNumHostPhases] = {};
  std::vector<uint64_t> busy(3, 0), recorded(3, 0);
  for (uint32_t w = 0; w < 3; ++w) {
    for (const HostSpan& s : lanes[w]) {
      phase_ns[static_cast<size_t>(s.phase)] += s.duration();
      recorded[w] += s.duration();
      if (is_busy(s.phase)) busy[w] += s.duration();
    }
  }
  for (size_t k = 0; k < kNumHostPhases; ++k) {
    EXPECT_DOUBLE_EQ(p.phase_ns[k], phase_ns[k]) << k;
  }
  EXPECT_EQ(p.worker_busy_ns, busy);
  EXPECT_EQ(p.worker_recorded_ns, recorded);

  // Rows, window by window, each rescanning every span of every lane.
  std::vector<HostWindowRow> rows;
  for (uint64_t win = 0; win <= 300; ++win) {
    HostWindowRow r;
    r.window = win;
    bool any = false, drained = false;
    uint64_t parallel_start = 0;
    for (const HostSpan& s : lanes[0]) {
      if (s.window != win) continue;
      r.start_ns = any ? std::min(r.start_ns, s.t0) : s.t0;
      r.end_ns = any ? std::max(r.end_ns, s.t1) : s.t1;
      any = true;
      if (s.phase == HostPhase::kLaneDrain && !drained) {
        parallel_start = s.t0;
        drained = true;
      }
    }
    if (!drained) continue;
    r.parallel_span_ns = r.end_ns - parallel_start;
    r.serial_ns = (r.end_ns - r.start_ns) - r.parallel_span_ns;
    for (const auto& lane : lanes) {
      for (const HostSpan& s : lane) {
        if (s.window == win && is_busy(s.phase)) r.busy_ns += s.duration();
      }
    }
    rows.push_back(r);
  }
  ASSERT_EQ(rows.size(), 300u);  // the final drain iteration has no row
  ASSERT_EQ(p.window_rows.size(), rows.size());
  EXPECT_EQ(p.windows, rows.size());
  uint64_t span_sum = 0, busy_sum = 0;
  for (size_t k = 0; k < rows.size(); ++k) {
    const HostWindowRow& got = p.window_rows[k];
    const HostWindowRow& want = rows[k];
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.start_ns, want.start_ns) << "window " << want.window;
    EXPECT_EQ(got.end_ns, want.end_ns) << "window " << want.window;
    EXPECT_EQ(got.serial_ns, want.serial_ns) << "window " << want.window;
    EXPECT_EQ(got.parallel_span_ns, want.parallel_span_ns)
        << "window " << want.window;
    EXPECT_EQ(got.busy_ns, want.busy_ns) << "window " << want.window;
    span_sum += want.parallel_span_ns;
    busy_sum += want.busy_ns;
  }
  EXPECT_EQ(p.window_span_hist.count(), rows.size());
  EXPECT_EQ(p.window_span_hist.sum(), span_sum);
  EXPECT_EQ(p.window_busy_hist.count(), rows.size());
  EXPECT_EQ(p.window_busy_hist.sum(), busy_sum);
  ASSERT_GE(p.wall_ns, span_sum);
  EXPECT_EQ(p.serial_ns, p.wall_ns - span_sum);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(HostClock, WriteJsonRoundTripsThroughParser) {
  const std::string path = testing::TempDir() + "/host_phases_test.json";
  make_profiler().profile().write_json(path, "synthetic");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(slurp(path), doc, error)) << error;
  ASSERT_NE(doc.get("kind"), nullptr);
  EXPECT_EQ(doc.get("kind")->str, "host_phases");
  EXPECT_EQ(doc.get("app")->str, "synthetic");
  EXPECT_DOUBLE_EQ(doc.get("workers")->num, 2.0);
  EXPECT_DOUBLE_EQ(doc.get("windows")->num, 2.0);
  const JsonValue* phases = doc.get("phase_ns");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->get("serial_drain"), nullptr);
  EXPECT_DOUBLE_EQ(phases->get("serial_drain")->num, 150.0);
  const JsonValue* rows = doc.get("windows_detail");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(rows->arr[0].get("parallel_span_ns")->num, 480.0);
  const JsonValue* workers = doc.get("workers_detail");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(workers->arr[1].get("busy_ns")->num, 530.0);
}

TEST(HostClock, ChromeTraceIsValidJsonWithSerialTrack) {
  const std::string path = testing::TempDir() + "/host_trace_test.json";
  make_profiler().profile().write_chrome_json(path);
  const std::string text = slurp(path);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(text, doc, error)) << error;
  ASSERT_TRUE(doc.is_array());
  // Metadata: process name + one thread_name per track (serial + 2
  // workers), then one X event per span (12 + 8).
  EXPECT_EQ(doc.arr.size(), 4u + 20u);
  // Coordinator plan/serial spans land on tid 0 (the serial-phase
  // track); lane drains land on the worker tracks (tid = worker + 1).
  size_t serial_track_events = 0, worker_track_events = 0;
  for (const JsonValue& ev : doc.arr) {
    const JsonValue* ph = ev.get("ph");
    if (ph == nullptr || ph->str != "X") continue;
    if (ev.get("tid")->num == 0.0) {
      ++serial_track_events;
      const std::string name = ev.get("name")->str;
      EXPECT_TRUE(name == "plan" || name == "serial_drain") << name;
    } else {
      ++worker_track_events;
    }
  }
  EXPECT_EQ(serial_track_events, 5u);   // 4 plan + 1 serial_drain
  EXPECT_EQ(worker_track_events, 15u);  // everything else
}

}  // namespace
}  // namespace cr::support
