// Host-phase profiling for the windowed multi-worker DES backend.
//
// The virtual-time tracer (support/trace.h) and the MetricsRegistry
// observe the *simulated* machine; this file observes the *host*: where
// the backend's wall-clock cycles go inside each conservative window.
// The simulator (sim/simulator.cc) timestamps the boundaries between
// its phases with a monotonic clock and records one HostSpan per phase
// per worker per window into a HostProfiler; the aggregated HostProfile
// is the input to tools/window_report, the bench --host-trace Chrome
// export, and the serial-fraction gate.
//
// Phase taxonomy (one timeline segment per worker per window; spans on
// a worker's timeline are contiguous by construction — each phase ends
// where the next begins, so per-worker recorded time reconciles with
// the run's wall clock up to the pre-loop setup and post-loop teardown
// slivers):
//
//   plan          coordinator only: mailbox drain, lane-front heap
//                 maintenance, window-horizon solve, boundary gauges
//   serial_drain  coordinator only: the global-lane serial phase
//                 (barrier fan-ins, merge completions)
//   lane_drain    a worker executing its node-lane block
//   outbox_flush  a worker publishing staged cross-lane pushes
//   barrier_wait  blocked: a worker in await_release, or the
//                 coordinator in wait_arrivals
//   barrier_wake  signaling: the coordinator's release, a worker's
//                 arrival propagation
//
// Everything here is host-side observation only: recording reads the
// host clock but never virtual time, and nothing in the simulator's
// virtual-time ordering ever reads the host clock, so a profiled run's
// virtual results are bit-identical to an unprofiled one (enforced by
// the parallel-equivalence tests). The disabled path is a null-pointer
// check at every hook site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/metrics.h"

namespace cr::support {

// Monotonic host clock in nanoseconds (std::chrono::steady_clock).
// Never feed this into anything that decides virtual-time ordering.
uint64_t host_now_ns();

enum class HostPhase : uint8_t {
  kPlan = 0,
  kSerialDrain = 1,
  kLaneDrain = 2,
  kOutboxFlush = 3,
  kBarrierWait = 4,
  kBarrierWake = 5,
};
inline constexpr size_t kNumHostPhases = 6;
const char* host_phase_name(HostPhase p);

struct HostSpan {
  uint64_t window = 0;  // conservative-window index the phase served
  HostPhase phase = HostPhase::kPlan;
  uint64_t t0 = 0;  // ns since profile begin
  uint64_t t1 = 0;
  uint64_t duration() const { return t1 - t0; }
};

// Per-window rollup derived from the coordinator's (worker 0) spans.
struct HostWindowRow {
  uint64_t window = 0;
  uint64_t start_ns = 0;  // coordinator timeline, relative to begin
  uint64_t end_ns = 0;
  // Serial segment: plan + serial drain + release signaling — the part
  // of the window during which every other worker is necessarily idle.
  uint64_t serial_ns = 0;
  // Parallel segment: release complete -> all arrivals observed (with
  // one worker: the coordinator's own lane drain + outbox flush).
  uint64_t parallel_span_ns = 0;
  // Sum over workers of lane_drain + outbox_flush inside this window.
  uint64_t busy_ns = 0;
};

// The aggregated result of one profiled run_windowed().
struct HostProfile {
  uint32_t workers = 0;
  uint64_t windows = 0;
  uint64_t wall_ns = 0;  // begin() .. end() on the coordinator

  // Raw spans, one vector per worker (index 0 = coordinator), each in
  // recording (= time) order.
  std::vector<std::vector<HostSpan>> spans;

  // --- derived aggregates (filled by HostProfiler::profile()) ---------
  double phase_ns[kNumHostPhases] = {};     // totals over all workers
  std::vector<uint64_t> worker_busy_ns;     // lane_drain + outbox_flush
  std::vector<uint64_t> worker_recorded_ns; // all spans (busy + waits)
  uint64_t coordinator_recorded_ns = 0;     // = worker_recorded_ns[0]
  uint64_t serial_ns = 0;                   // wall - sum(parallel spans)
  double serial_fraction = 0;               // serial_ns / wall_ns
  std::vector<HostWindowRow> window_rows;
  // Log2 histograms over the per-window rows (for the host.* rollup).
  Histogram window_span_hist;  // parallel_span_ns per window
  Histogram window_busy_hist;  // busy_ns per window

  // Flat "host."-prefixed key/value view (per-phase totals, per-worker
  // busy/idle fractions, per-window histogram stats, serial fraction).
  // Deliberately NOT merged into the runtime's MetricsRegistry: that
  // registry's snapshot is the bit-stable cross-machine diff surface
  // (ExecutionResult::metrics), and these are wall-clock quantities.
  // Artifact writers (parallel_speedup --json, write_json) consume this.
  std::map<std::string, double> host_metrics() const;

  // Chrome trace_event JSON of the host timeline: one track per worker
  // plus a separate serial-phase track carrying the coordinator's plan
  // and serial-drain segments. Complements the virtual-time trace.
  void write_chrome_json(const std::string& path) const;

  // The tools/window_report input: aggregates plus one row per window.
  // `app` tags the artifact; pass "" when unknown.
  void write_json(const std::string& path, const std::string& app) const;
};

// Accumulates spans during a windowed run. One writer per worker lane,
// no locks: begin() sizes the lanes before the worker threads start and
// profile() is called after they join, so the thread-create/join edges
// order everything. Recording cost is one vector push; the caller pays
// two host-clock reads per phase boundary.
class HostProfiler {
 public:
  void begin(uint32_t workers);
  void end();
  bool active() const { return active_; }
  uint64_t origin_ns() const { return origin_ns_; }

  void record(uint32_t worker, uint64_t window, HostPhase phase,
              uint64_t abs_t0, uint64_t abs_t1);

  // Aggregate everything recorded so far (call after end()).
  HostProfile profile() const;

 private:
  bool active_ = false;
  uint32_t workers_ = 0;
  uint64_t origin_ns_ = 0;
  uint64_t end_ns_ = 0;
  std::vector<std::vector<HostSpan>> lanes_;
};

}  // namespace cr::support
