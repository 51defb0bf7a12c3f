// The discrete-event simulator: a virtual clock plus an event queue.
//
// This is the substitute for a physical cluster. All runtime activity —
// task execution, copies, synchronization, network messages — is expressed
// as callbacks scheduled at virtual times.
//
// Two execution backends drain the queue:
//
//  - run(): the sequential reference loop. One global queue ordered by
//    (time, insertion sequence), so a given program unrolling always
//    produces the same timeline (bit-for-bit deterministic results).
//
//  - begin_windowed(nodes, lookahead) + run_windowed(workers): the
//    multi-worker backend. Every scheduled entry carries an *affinity*
//    (the simulated node whose state its callback touches, or the global
//    coordinator), and the queue is partitioned per node. Workers execute
//    node partitions concurrently inside conservative windows: a callback
//    running at time t can influence another node no earlier than
//    t + lookahead (the minimum cross-node network delay), so nodes are
//    independent within a window. Global entries (barrier fan-ins, merge
//    completions) run in a serial phase at window boundaries, strictly
//    before the window's node entries. Ties are broken by a (time,
//    creator affinity, creator sequence) key assigned at creation: each
//    affinity's creations are numbered by its own deterministic execution
//    order, so the full schedule — and therefore every virtual-time
//    result, metrics snapshot and trace — is bit-identical for any worker
//    count.
//
//    Window ends are per-lane horizons: only lanes that still hold
//    *armed* (wired but not yet injected) cross-node sends can
//    influence other lanes — Network maintains the per-lane armed
//    counts, and arming happens only at unroll time, so the armed set
//    never grows during the run. Influence chains, though: a message
//    sent during a window lowers its receiver's effective front, and
//    the receiver can relay one lookahead later. Solving the fixed
//    point eff_m = min(front_m, min_{armed x != m} eff_x + lookahead)
//    gives, with h1 <= h2 the two smallest fronts among armed lanes
//    and a* the lane at h1:
//      B_n (n != a*) = h1 + lookahead
//      B_{a*}        = min(h2 + lookahead, h1 + 2*lookahead)
//    each clamped by the global-feedback cap
//      min(next global entry time, node_min + max(floor, lookahead))
//    where the global-influence floor is the minimum delay from any
//    merge completion to its first possible node-side effect
//    (registered by barriers/collectives at wiring). Lanes whose armed
//    peers are far in the future — and every lane once the armed sends
//    drain — run deep into their own queues instead of stopping at
//    node_min + lookahead.
//
//    Safety is CHECK-enforced twice: a worker's cross-lane push must land
//    at or after the destination lane's current window end, and every
//    executed entry must not move its lane's clock backwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "sim/callback.h"
#include "sim/event.h"
#include "sim/event_graph.h"
#include "sim/window_barrier.h"
#include "support/host_clock.h"

namespace cr::support {
class Tracer;
}

namespace cr::sim {

// Affinity tags. Node affinities are the node index; kNoAffinity marks
// the global coordinator (unroll-time scheduling, serial phases);
// kMergeCreator keys deferred merge completions by merge uid so the
// completing host thread never influences the schedule.
inline constexpr uint32_t kNoAffinity = UINT32_MAX;
inline constexpr uint32_t kMergeCreator = UINT32_MAX - 1;

namespace detail {
// A scheduled callable, pooled (sim/pool.h) and owned by its queue entry.
struct Task {
  Callback<void()> fn;
};
struct TaskDelete {
  void operator()(Task* t) const;
};
using TaskPtr = std::unique_ptr<Task, TaskDelete>;
}  // namespace detail

// Chunks carved by the event engine's pools (event states, waiter nodes,
// queue callables), summed. Test-only: repeated runs must reuse blocks
// released on worker threads instead of carving new chunks.
size_t event_pool_chunks_for_testing();

// One executed entry, as recorded by set_exec_log (windowed mode only):
// the per-node execution orders are the determinism witness the property
// tests compare across worker counts.
struct ExecRecord {
  Time time = 0;
  uint32_t creator = 0;
  uint64_t cseq = 0;
  friend bool operator==(const ExecRecord&, const ExecRecord&) = default;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const;

  // Attach (or detach with nullptr) a trace recorder. Every component
  // holding a Simulator reference reaches the tracer through here; a
  // null tracer is the zero-cost disabled path.
  void set_tracer(support::Tracer* tracer) { tracer_ = tracer; }
  support::Tracer* tracer() const { return tracer_; }

  // Attach (or detach with nullptr) a happens-before edge recorder.
  // Same contract as the tracer: null means disabled and free.
  void set_event_graph(EventGraph* graph) { graph_ = graph; }
  EventGraph* event_graph() const { return graph_; }

  // The uid of the event whose trigger (or triggered-subscription) is
  // causally responsible for the code currently running; 0 when none.
  // Captured by schedule_at so causality crosses deferred callbacks.
  uint64_t current_cause() const;
  void set_current_cause(uint64_t cause);

  // Unique id for a new event's trace identity. Events are created by
  // unroll-time wiring (single-threaded); worker callbacks must not mint
  // uids (CHECK-enforced in windowed mode).
  uint64_t new_event_uid();

  // Schedule fn at absolute virtual time t (>= now()). In windowed mode
  // the entry inherits the ambient affinity (callbacks stay on the node
  // that scheduled them; coordinator/unroll scheduling is global).
  void schedule_at(Time t, Callback<void()> fn);
  // Schedule fn dt ns from now.
  void schedule_after(Time dt, Callback<void()> fn);
  // Schedule fn at t with an explicit node affinity: the callback runs
  // on (and may touch the state of) node `node`. Cross-node scheduling
  // from a worker requires t >= the destination's window boundary —
  // which the network latency guarantees (CHECK-enforced).
  void schedule_at_affine(Time t, uint32_t node, Callback<void()> fn);
  // Schedule a merge completion at t, keyed (t, kMergeCreator,
  // merge_uid): any worker may request it, the key never depends on
  // which one did. Runs in the serial phase (global affinity).
  void schedule_merge_completion(Time t, uint64_t merge_uid,
                                 Callback<void()> fn);

  // Run until the queue drains (sequential reference loop). Returns the
  // final time. Must not be mixed with begin_windowed().
  Time run();

  // Switch to the windowed backend. Call before any scheduling (i.e.
  // before the program unroll); `lookahead` is the minimum cross-node
  // influence delay (network latency + handler cost) and must be > 0.
  void begin_windowed(uint32_t nodes, Time lookahead);
  bool windowed() const { return windowed_; }
  // Drain the partitioned queues with `workers` host threads (>= 1).
  // Bit-identical results for any worker count. Returns the final time.
  Time run_windowed(uint32_t workers);

  // Pin plan for the windowed run's host threads: worker w pins to
  // cpus[w % cpus.size()] (worker 0 is the coordinator thread, whose
  // prior affinity is restored when run_windowed returns). Empty (the
  // default) disables pinning.
  void set_worker_cpus(std::vector<int> cpus) {
    worker_cpus_ = std::move(cpus);
  }

  // --- window-horizon bookkeeping (Network / sync primitives) ----------
  // A cross-node send has been wired whose injection will run on node
  // `src` (Network::send, at subscription time). While a lane has armed
  // sends its queue front bounds its outbound influence; once the count
  // drops to zero the lane cannot reach other nodes and stops
  // constraining their windows.
  void note_cross_send_armed(uint32_t src);
  // The armed send's injection callback ran (the delivery is scheduled).
  void note_cross_send_fired(uint32_t src);
  // A deferred merge completion wired at unroll time can influence node
  // state no earlier than `delay` after the completion time. Every
  // merge_remote wirer must register its floor (CHECK-enforced when a
  // completion is scheduled in windowed mode); the minimum across
  // registrations caps how far any lane may run past the window start.
  void note_global_influence_floor(Time delay);

  // Record every executed entry per affinity lane (nodes_ + 1 lanes,
  // last = global). Windowed mode only; pass nullptr to disable.
  void set_exec_log(std::vector<std::vector<ExecRecord>>* log) {
    exec_log_ = log;
  }

  // --- host-phase profiling (observability; see support/host_clock.h) --
  // Attach (or detach with nullptr) a host-phase span recorder for the
  // next run_windowed(). The simulator stamps phase boundaries with the
  // monotonic host clock and records one contiguous span per phase per
  // worker per window; nothing read from the host clock ever feeds
  // virtual-time ordering, so profiled runs stay bit-identical. The
  // disabled path is one null-pointer check per phase boundary.
  void set_host_profiler(support::HostProfiler* prof) { host_prof_ = prof; }
  support::HostProfiler* host_profiler() const { return host_prof_; }

  // --- stall watchdog --------------------------------------------------
  // A monitor thread that turns a hung windowed run (lookahead bug,
  // barrier deadlock, stuck lane) into an actionable flight-recorder
  // dump instead of a silent hang: if no entry executes and no window
  // boundary is crossed for `budget_ms` of wall time, the dump (per-lane
  // fronts and window ends, armed-send counts, barrier epoch/parked
  // state, last-executed state per worker) goes to `sink` (stderr when
  // unset) and the process aborts (unless abort_on_stall is false, in
  // which case the watchdog records that it fired and re-arms).
  struct WatchdogOptions {
    uint64_t budget_ms = 0;  // 0 = disabled
    bool abort_on_stall = true;
    std::function<void(const std::string&)> sink;
  };
  void set_watchdog(WatchdogOptions opts) { wd_opts_ = std::move(opts); }
  bool watchdog_fired() const {
    return wd_fired_.load(std::memory_order_acquire);
  }

  // Test-only: invoked at the top of every lane's share of a window
  // (lane index, window index) on the worker thread that owns the lane,
  // and — with lane == nodes() (the global lane) — at the top of every
  // serial-drain iteration on the coordinator. Lets tests wedge a lane
  // or stretch the serial phase deliberately to exercise the watchdog.
  void set_test_lane_hook(
      std::function<void(uint32_t lane, uint64_t window)> hook) {
    test_lane_hook_ = std::move(hook);
  }
  uint32_t nodes() const { return nodes_; }

  // True while run() / run_windowed() is processing events.
  bool running() const { return running_; }

  // The calling thread's current execution affinity (kNoAffinity when
  // not inside a node partition — unroll, serial phase, or outside the
  // simulator entirely). Debugging/diagnostic aid.
  static uint32_t debug_affinity();

  uint64_t events_processed() const { return events_processed_; }

  // High-water mark of pending entries: per push in the sequential loop,
  // per window boundary (total over all partitions) in windowed mode.
  uint64_t max_queue_depth() const { return max_queue_depth_; }

  // Conservative windows executed by run_windowed (0 for sequential
  // runs): the cheap proxy for barrier overhead. Every window ends in a
  // full boundary: mailbox drain, serial phase, horizon solve.
  uint64_t windows() const { return windows_; }

 private:
  // A queue entry is its ordering key plus an owning handle to the
  // pooled callable, so heap sifts move 40 bytes and never a closure.
  struct Entry {
    Time time;
    uint64_t seq;    // legacy: global insertion seq; windowed: creator seq
    uint64_t cause;  // ambient current_cause() at schedule time
    uint32_t creator = kNoAffinity;  // windowed tie-break: creating affinity
    detail::TaskPtr task;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.creator != b.creator) return a.creator > b.creator;
      return a.seq > b.seq;
    }
  };
  using Queue = std::priority_queue<Entry, std::vector<Entry>, Later>;
  struct Mailbox {
    std::mutex mu;
    std::vector<Entry> items;
    // Cheap emptiness probe so drain_inboxes skips the lock for idle
    // lanes; synchronization rides on the window barrier, the flag is
    // only a filter.
    std::atomic<bool> nonempty{false};
  };
  // A worker's staged cross-lane pushes, flushed to the destination
  // mailboxes in one locked batch per destination at the end of the
  // worker's window share (instead of one lock round-trip per push).
  struct alignas(64) OutBuffer {
    std::vector<std::pair<uint32_t, Entry>> staged;  // (lane, entry)
  };
  // Per-thread execution context (windowed mode): the entry being
  // executed provides the clock, the ambient cause and the affinity.
  struct ExecCtx {
    const Simulator* owner = nullptr;
    Time now = 0;
    uint64_t cause = 0;
    uint32_t affinity = kNoAffinity;
    uint32_t worker = 0;
  };
  static thread_local ExecCtx tls_;

  bool in_context() const { return tls_.owner == this; }
  void push_windowed(Time t, uint32_t target, uint32_t creator,
                     uint64_t cseq, Callback<void()> fn);
  void execute(const Entry& e, uint32_t affinity, uint64_t* processed,
               Time* max_time);
  void process_nodes(uint32_t worker, uint64_t* processed, Time* max_time);
  void flush_outbox(uint32_t worker);
  // Fold mailboxes [lo, hi) into their queues (index nodes_ is the
  // global lane's), keeping the lane-front heap current. Coordinator
  // only.
  void drain_inboxes(uint32_t lo, uint32_t hi);
  // Record that lane n gained an entry at time t (serial contexts only):
  // keeps the lane-front heap's lower-bound invariant.
  void note_lane_front(uint32_t n, Time t);
  // Minimum queue front across node lanes, maintained incrementally by a
  // lazy min-heap over lane fronts (amortized O(log nodes) per window
  // instead of an O(nodes) rescan per serial-phase iteration).
  Time node_min_time();
  // The per-lane horizon fixed point (see the file comment) over the
  // armed lanes' queue fronts: fill win_end_lane_ for the window
  // starting at node_min, and bump the window counter. Serial contexts
  // only (workers parked).
  void compute_window_ends(Time node_min);
  void worker_main(uint32_t worker);
  // Close the current host-phase segment for `worker` (one clock read;
  // the segment began where the previous mark ended).
  void prof_mark(uint32_t worker, uint64_t window, support::HostPhase phase);
  void watchdog_main();
  std::string watchdog_dump(uint64_t stalled_ns) const;

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_event_uid_ = 0;
  uint64_t current_cause_ = 0;
  support::Tracer* tracer_ = nullptr;
  EventGraph* graph_ = nullptr;
  uint64_t events_processed_ = 0;
  uint64_t max_queue_depth_ = 0;
  bool running_ = false;
  Queue queue_;  // legacy (sequential) queue

  // --- windowed backend state ------------------------------------------
  bool windowed_ = false;
  uint32_t nodes_ = 0;
  Time lookahead_ = 0;
  std::vector<Queue> node_q_;          // per-node partitions
  Queue global_q_;                     // coordinator partition
  std::vector<Mailbox> inbox_;         // nodes_ + 1, last = global
  std::vector<uint64_t> creator_seq_;  // per-node creation counters
  uint64_t global_creator_seq_ = 0;
  // Current per-lane window boundaries B_n. Written by the coordinator
  // between windows, read by workers for the cross-push CHECK; the
  // barrier's release/arrive ordering publishes it.
  std::vector<Time> win_end_lane_;
  // Last executed time per lane (nodes_ + 1, last = global): the
  // conservative-safety invariant — no window plan may let a lane's clock run
  // backwards (CHECK-enforced in execute()).
  std::vector<Time> lane_last_exec_;
  uint64_t windows_ = 0;
  std::vector<std::vector<ExecRecord>>* exec_log_ = nullptr;

  // Window-horizon inputs. Armed counts are bumped at wiring and
  // decremented from whichever worker runs the injection; they only
  // decrease during a window, so a boundary read is conservative.
  std::unique_ptr<std::atomic<uint64_t>[]> armed_cross_;
  Time global_floor_ = 0;  // min registered floor; 0 = none registered

  // Lane-front heap: (front, lane) pairs, lazily repaired. front_hint_
  // holds the smallest time currently enqueued for the lane (or inf);
  // stale pairs are discarded on pop.
  std::vector<std::pair<Time, uint32_t>> front_heap_;
  std::vector<Time> front_hint_;

  // Pending-entry gauge for windowed mode: pushes increment, executions
  // decrement; sampled only at window boundaries (workers parked), where
  // its value is deterministic.
  std::atomic<uint64_t> pending_windowed_{0};

  // Worker rendezvous: the coordinator publishes the window's lane
  // boundaries, releases an epoch through the barrier, processes its own
  // lane block, then waits for the arrival tree. Workers spin briefly
  // and then park (the backend must degrade gracefully when host cores
  // < workers).
  uint32_t num_workers_ = 0;
  WindowBarrier barrier_;
  uint64_t epoch_seq_ = 0;
  std::atomic<bool> quit_{false};
  std::vector<std::thread> threads_;
  std::vector<uint64_t> worker_processed_;
  std::vector<Time> worker_max_time_;
  std::vector<uint32_t> lane_lo_;  // per-worker contiguous lane blocks
  std::vector<uint32_t> lane_hi_;
  std::vector<OutBuffer> outbox_;  // per-worker staged cross pushes
  std::vector<int> worker_cpus_;   // pin plan; empty = no pinning

  // --- host-phase profiler (null = disabled) ---------------------------
  support::HostProfiler* host_prof_ = nullptr;
  // Per-worker phase-boundary cursor: each mark's span starts where the
  // previous one ended, so a worker's spans tile its timeline. Each slot
  // is written only by its own thread.
  std::vector<uint64_t> prof_cursor_;

  // --- stall watchdog --------------------------------------------------
  // Flight-recorder state, published only when the watchdog is enabled
  // (wd_enabled_ guards every hook). All atomics so the monitor thread
  // reads valid (possibly one-cycle-stale) values without touching the
  // backend's plain state.
  WatchdogOptions wd_opts_;
  std::atomic<bool> wd_enabled_{false};
  std::atomic<bool> wd_quit_{false};
  std::atomic<bool> wd_fired_{false};
  std::atomic<uint64_t> wd_heartbeat_{0};  // bumped per execute + boundary
  std::atomic<uint64_t> wd_window_{0};     // windows_ mirror for the monitor
  std::unique_ptr<std::atomic<uint64_t>[]> wd_lane_front_;   // nodes_
  std::unique_ptr<std::atomic<uint64_t>[]> wd_lane_winend_;  // nodes_
  std::unique_ptr<std::atomic<uint64_t>[]> wd_worker_uid_;   // last cause uid
  std::unique_ptr<std::atomic<uint64_t>[]> wd_worker_time_;  // last exec time
  std::unique_ptr<std::atomic<uint64_t>[]> wd_worker_win_;   // last window
  std::thread wd_thread_;
  std::function<void(uint32_t, uint64_t)> test_lane_hook_;
};

}  // namespace cr::sim
