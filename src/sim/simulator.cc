#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "sim/pool.h"
#include "support/check.h"
#include "support/topology.h"
#include "support/trace.h"

namespace cr::sim {

namespace {
constexpr Time kInfTime = std::numeric_limits<Time>::max();

// t + dt without wrapping past the infinite horizon.
Time sat_add(Time t, Time dt) {
  return t > kInfTime - dt ? kInfTime : t + dt;
}

// Min-heap ordering for (front, lane) pairs.
struct FrontLater {
  bool operator()(const std::pair<Time, uint32_t>& a,
                  const std::pair<Time, uint32_t>& b) const {
    return a.first > b.first;
  }
};
}  // namespace

namespace detail {
void TaskDelete::operator()(Task* t) const { pool_delete(t); }
}  // namespace detail

size_t event_pool_chunks_for_testing() {
  return Pool<detail::EventState>::chunks_for_testing() +
         Pool<detail::Waiter>::chunks_for_testing() +
         Pool<detail::Task>::chunks_for_testing();
}

namespace {
detail::TaskPtr make_task(Callback<void()>&& fn) {
  return detail::TaskPtr(pool_new<detail::Task>(std::move(fn)));
}
}  // namespace

thread_local Simulator::ExecCtx Simulator::tls_;

Simulator::~Simulator() {
  // Tear down the worker pool if a windowed run was interrupted (CHECK
  // failures abort, so this is belt-and-braces for tests).
  if (!threads_.empty()) {
    quit_.store(true, std::memory_order_release);
    barrier_.release(++epoch_seq_);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  if (wd_thread_.joinable()) {
    wd_quit_.store(true, std::memory_order_release);
    wd_thread_.join();
  }
}

Time Simulator::now() const {
  return in_context() ? tls_.now : now_;
}

uint64_t Simulator::current_cause() const {
  return in_context() ? tls_.cause : current_cause_;
}

void Simulator::set_current_cause(uint64_t cause) {
  if (in_context()) {
    tls_.cause = cause;
  } else {
    current_cause_ = cause;
  }
}

uint32_t Simulator::debug_affinity() { return tls_.affinity; }

uint64_t Simulator::new_event_uid() {
  // Events are minted by unroll-time wiring or serial phases; a node
  // worker creating one would race the counter and the schedule.
  CR_CHECK_MSG(!in_context() || tls_.affinity == kNoAffinity,
               "event created from a worker callback");
  return ++next_event_uid_;
}

void Simulator::schedule_at(Time t, Callback<void()> fn) {
  if (!windowed_) {
    CR_CHECK_MSG(t >= now_, "cannot schedule into the past");
    queue_.push(Entry{t, next_seq_++, current_cause_, kNoAffinity,
                      make_task(std::move(fn))});
    if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
    return;
  }
  // Default target: stay on the scheduling affinity.
  const uint32_t target =
      in_context() ? tls_.affinity : kNoAffinity;
  uint32_t creator = kNoAffinity;
  uint64_t cseq = 0;
  if (in_context() && tls_.affinity != kNoAffinity) {
    CR_CHECK_MSG(t >= tls_.now, "cannot schedule into the past");
    creator = tls_.affinity;
    cseq = ++creator_seq_[creator];
  } else {
    if (in_context()) CR_CHECK_MSG(t >= tls_.now, "schedule into the past");
    cseq = ++global_creator_seq_;
  }
  push_windowed(t, target, creator, cseq, std::move(fn));
}

void Simulator::schedule_after(Time dt, Callback<void()> fn) {
  schedule_at(now() + dt, std::move(fn));
}

void Simulator::schedule_at_affine(Time t, uint32_t node,
                                   Callback<void()> fn) {
  if (!windowed_) {
    schedule_at(t, std::move(fn));
    return;
  }
  CR_CHECK(node < nodes_);
  uint32_t creator = kNoAffinity;
  uint64_t cseq = 0;
  if (in_context() && tls_.affinity != kNoAffinity) {
    CR_CHECK_MSG(t >= tls_.now, "cannot schedule into the past");
    creator = tls_.affinity;
    cseq = ++creator_seq_[creator];
  } else {
    if (in_context()) CR_CHECK_MSG(t >= tls_.now, "schedule into the past");
    cseq = ++global_creator_seq_;
  }
  push_windowed(t, node, creator, cseq, std::move(fn));
}

void Simulator::schedule_merge_completion(Time t, uint64_t merge_uid,
                                          Callback<void()> fn) {
  if (!windowed_) {
    schedule_at(t, std::move(fn));
    return;
  }
  // The window planner's feedback cap relies on every merge wirer
  // having declared how soon its completion can touch node state; a
  // completion from an undeclared wirer could slip inside a lane's
  // already-executed horizon.
  CR_CHECK_MSG(global_floor_ > 0,
               "merge completion scheduled with no registered "
               "global-influence floor");
  // Key by the merge's unroll-assigned uid: whichever host thread
  // happens to complete the countdown, the entry is identical.
  push_windowed(t, kNoAffinity, kMergeCreator, merge_uid, std::move(fn));
}

void Simulator::note_cross_send_armed(uint32_t src) {
  if (!windowed_) return;
  CR_CHECK(src < nodes_);
  armed_cross_[src].fetch_add(1, std::memory_order_relaxed);
}

void Simulator::note_cross_send_fired(uint32_t src) {
  if (!windowed_) return;
  CR_CHECK(src < nodes_);
  const uint64_t prev =
      armed_cross_[src].fetch_sub(1, std::memory_order_relaxed);
  CR_CHECK_MSG(prev > 0, "cross-send fired without being armed");
}

void Simulator::note_global_influence_floor(Time delay) {
  if (!windowed_) return;
  // A zero floor (single-participant tree) still means "next serial
  // phase at the earliest"; clamp to 1 so it stays a valid registration
  // and the lookahead clamp in compute_window_ends takes over.
  const Time d = std::max<Time>(delay, 1);
  global_floor_ = global_floor_ == 0 ? d : std::min(global_floor_, d);
}

void Simulator::note_lane_front(uint32_t n, Time t) {
  if (t < front_hint_[n]) {
    front_hint_[n] = t;
    front_heap_.emplace_back(t, n);
    std::push_heap(front_heap_.begin(), front_heap_.end(), FrontLater{});
  }
}

void Simulator::push_windowed(Time t, uint32_t target, uint32_t creator,
                              uint64_t cseq, Callback<void()> fn) {
  Entry e{t, cseq, current_cause(), creator, make_task(std::move(fn))};
  const bool from_worker =
      running_ && in_context() && tls_.affinity != kNoAffinity;
  pending_windowed_.fetch_add(1, std::memory_order_relaxed);
  if (!from_worker) {
    // Unroll-time wiring or a serial phase: workers are parked, push
    // straight into the target partition (and keep the front heap's
    // lower bound fresh — only serial contexts may lower a lane front).
    if (target == kNoAffinity) {
      global_q_.push(std::move(e));
    } else {
      note_lane_front(target, t);
      node_q_[target].push(std::move(e));
    }
    return;
  }
  if (target == tls_.affinity) {
    // Own lane: t >= tls_.now >= the lane's front at window start, so
    // the heap's lower-bound invariant holds without touching it.
    node_q_[target].push(std::move(e));
    return;
  }
  // Cross-affinity from a worker: staged in the worker's outbox, flushed
  // to the destination mailboxes at the end of this window share and
  // drained at the barrier. Node-to-node influence must respect the
  // destination's conservative window — anything scheduled inside it
  // would have been missed.
  if (target != kNoAffinity && t < win_end_lane_[target]) {
    const std::string msg =
        "cross-node schedule inside the lookahead window (from node " +
        std::to_string(tls_.affinity) + " to node " + std::to_string(target) +
        ", t=" + std::to_string(t) + ", window end=" +
        std::to_string(win_end_lane_[target]) + ", cause uid=" +
        std::to_string(e.cause) + ")";
    support::check_failed("t >= win_end_lane_[target]", __FILE__, __LINE__,
                          msg.c_str());
  }
  outbox_[tls_.worker].staged.emplace_back(
      target == kNoAffinity ? nodes_ : target, std::move(e));
}

void Simulator::flush_outbox(uint32_t worker) {
  auto& staged = outbox_[worker].staged;
  if (staged.empty()) return;
  // One lock round-trip per destination lane, not per entry. Insertion
  // order within a mailbox is irrelevant: the (time, creator, seq) key
  // is a total order, so the destination heap ordering is unaffected.
  std::stable_sort(staged.begin(), staged.end(),
                   [](const std::pair<uint32_t, Entry>& a,
                      const std::pair<uint32_t, Entry>& b) {
                     return a.first < b.first;
                   });
  size_t i = 0;
  while (i < staged.size()) {
    const uint32_t lane = staged[i].first;
    size_t j = i;
    while (j < staged.size() && staged[j].first == lane) ++j;
    Mailbox& box = inbox_[lane];
    std::lock_guard<std::mutex> lock(box.mu);
    for (size_t k = i; k < j; ++k) {
      box.items.push_back(std::move(staged[k].second));
    }
    box.nonempty.store(true, std::memory_order_release);
    i = j;
  }
  staged.clear();
}

Time Simulator::run() {
  CR_CHECK(!running_);
  CR_CHECK_MSG(!windowed_, "begin_windowed() active: use run_windowed()");
  running_ = true;
  while (!queue_.empty()) {
    // Entry must be moved out before pop; priority_queue::top is const.
    auto& top = const_cast<Entry&>(queue_.top());
    Time t = top.time;
    uint64_t cause = top.cause;
    detail::TaskPtr task = std::move(top.task);
    queue_.pop();
    CR_CHECK(t >= now_);
    now_ = t;
    current_cause_ = cause;
    ++events_processed_;
    task->fn();
    current_cause_ = 0;
  }
  running_ = false;
  return now_;
}

void Simulator::begin_windowed(uint32_t nodes, Time lookahead) {
  CR_CHECK(!running_ && !windowed_);
  CR_CHECK_MSG(queue_.empty(), "begin_windowed() after scheduling started");
  CR_CHECK(nodes > 0 && nodes < kMergeCreator);
  CR_CHECK_MSG(lookahead > 0, "windowed backend needs a positive lookahead");
  windowed_ = true;
  nodes_ = nodes;
  lookahead_ = lookahead;
  node_q_.resize(nodes);
  inbox_ = std::vector<Mailbox>(nodes + 1);
  creator_seq_.assign(nodes, 0);
  win_end_lane_.assign(nodes, 0);
  front_hint_.assign(nodes, kInfTime);
  front_heap_.clear();
  armed_cross_ = std::make_unique<std::atomic<uint64_t>[]>(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    armed_cross_[n].store(0, std::memory_order_relaxed);
  }
}

void Simulator::drain_inboxes(uint32_t lo, uint32_t hi) {
  for (uint32_t i = lo; i < hi; ++i) {
    Mailbox& box = inbox_[i];
    if (!box.nonempty.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(box.mu);
    Queue& q = i == nodes_ ? global_q_ : node_q_[i];
    for (Entry& e : box.items) {
      if (i != nodes_) note_lane_front(i, e.time);
      q.push(std::move(e));
    }
    box.items.clear();
    box.nonempty.store(false, std::memory_order_relaxed);
  }
}

Time Simulator::node_min_time() {
  // Lazy repair: pop superseded and stale pairs until the top matches a
  // live lane front. Invariant: a nonempty lane always has a heap pair
  // at or below its actual front (serial pushes go through
  // note_lane_front; worker own-lane pushes never lower a front below
  // the window start the heap already covers).
  while (!front_heap_.empty()) {
    const auto [t, n] = front_heap_.front();
    if (t != front_hint_[n]) {
      // Superseded by a lower pair for the same lane.
      std::pop_heap(front_heap_.begin(), front_heap_.end(), FrontLater{});
      front_heap_.pop_back();
      continue;
    }
    const Queue& q = node_q_[n];
    if (q.empty()) {
      std::pop_heap(front_heap_.begin(), front_heap_.end(), FrontLater{});
      front_heap_.pop_back();
      front_hint_[n] = kInfTime;
      continue;
    }
    const Time front = q.top().time;
    if (front == t) return t;
    CR_CHECK_MSG(front > t, "lane front below its heap lower bound");
    // Stale: the lane advanced past the recorded front. Re-key it.
    std::pop_heap(front_heap_.begin(), front_heap_.end(), FrontLater{});
    front_heap_.pop_back();
    front_hint_[n] = front;
    front_heap_.emplace_back(front, n);
    std::push_heap(front_heap_.begin(), front_heap_.end(), FrontLater{});
  }
  return kInfTime;
}

void Simulator::compute_window_ends(Time node_min) {
  ++windows_;
  // Feedback cap: a merge completion minted during this window completes
  // at >= node_min and reaches node state no earlier than the registered
  // floor after that (clamped to the lookahead so a degenerate
  // single-participant tree keeps the one-lookahead envelope).
  const Time global_cap =
      global_q_.empty() ? kInfTime : global_q_.top().time;
  const Time cap = std::min(
      global_cap, global_floor_ == 0
                      ? kInfTime
                      : sat_add(node_min, std::max(global_floor_,
                                                   lookahead_)));
  // The fixed point of
  //   eff_m = min(front_m, min_{x armed, x != m} eff_x + lookahead)
  // over the armed lanes (the only ones that can influence another
  // lane; arming is unroll-time-only, so the armed set never grows
  // during the run) collapses to: the armed lane with the smallest
  // front (h1, at lane arg1) keeps eff = h1, and every other armed lane
  // m (including ones with nothing queued) has eff_m = min(front_m,
  // h1 + lookahead), because arg1 can reach it in one hop. A lane's
  // window end is then min over the *other* armed lanes of
  // eff + lookahead:
  //   n != arg1:  B_n = h1 + lookahead      (arg1 influences n directly)
  //   n == arg1:  B_n = min(h2 + lookahead, h1 + 2*lookahead)
  //               (direct from the second-lowest armed front, or a
  //                relay of arg1's own output through any armed lane)
  // each clamped by `cap`. Basing horizons on the fronts alone (the
  // obvious formula) is unsound: lane A at t sends to lane B (arrive
  // t + L, below B's front), B reacts and sends back at t + 2L — below
  // where A was allowed to run. An armed lane with an empty queue
  // bounds nothing until a delivery arrives, which the h1 relay
  // already covers.
  Time h1 = kInfTime;
  Time h2 = kInfTime;
  uint32_t arg1 = kNoAffinity;
  uint32_t armed_lanes = 0;
  for (uint32_t m = 0; m < nodes_; ++m) {
    if (armed_cross_[m].load(std::memory_order_relaxed) == 0) continue;
    ++armed_lanes;
    const Time h = node_q_[m].empty() ? kInfTime : node_q_[m].top().time;
    if (h < h1) {
      h2 = h1;
      h1 = h;
      arg1 = m;
    } else if (h < h2) {
      h2 = h;
    }
  }
  const Time b_other = std::min(cap, sat_add(h1, lookahead_));
  Time b_min = cap;
  if (arg1 != kNoAffinity && armed_lanes >= 2) {
    b_min = std::min(b_min, std::min(sat_add(h2, lookahead_),
                                     sat_add(h1, 2 * lookahead_)));
  }
  std::fill(win_end_lane_.begin(), win_end_lane_.end(), b_other);
  if (arg1 != kNoAffinity) win_end_lane_[arg1] = b_min;
  // Every component strictly exceeds node_min: fronts of armed lanes are
  // >= node_min, the serial phase drained every global entry at or below
  // node_min (so global_cap > node_min), and the lookahead is positive.
  // Every lane therefore makes progress.
  for (uint32_t n = 0; n < nodes_; ++n) CR_CHECK(win_end_lane_[n] > node_min);
}

void Simulator::execute(const Entry& e, uint32_t affinity,
                        uint64_t* processed, Time* max_time) {
  const uint32_t lane = affinity == kNoAffinity ? nodes_ : affinity;
  // The conservative-safety invariant, independent of the window plan: no
  // entry may run before something its lane already executed.
  if (e.time < lane_last_exec_[lane]) {
    const std::string msg =
        "lane clock moved backwards (lane " + std::to_string(lane) +
        ", entry t=" + std::to_string(e.time) + ", lane already at t=" +
        std::to_string(lane_last_exec_[lane]) + ", cause uid=" +
        std::to_string(e.cause) + ")";
    support::check_failed("e.time >= lane_last_exec_[lane]", __FILE__,
                          __LINE__, msg.c_str());
  }
  lane_last_exec_[lane] = e.time;
  tls_.now = e.time;
  tls_.cause = e.cause;
  if (exec_log_ != nullptr) {
    (*exec_log_)[lane].push_back(ExecRecord{e.time, e.creator, e.seq});
  }
  ++*processed;
  if (e.time > *max_time) *max_time = e.time;
  pending_windowed_.fetch_sub(1, std::memory_order_relaxed);
  if (wd_enabled_.load(std::memory_order_relaxed)) {
    // Flight recorder: last-executed state per worker, plus the
    // liveness heartbeat the monitor thread watches. Relaxed stores —
    // the monitor only needs internally-valid snapshots.
    const uint32_t w = tls_.worker;
    wd_worker_uid_[w].store(e.cause, std::memory_order_relaxed);
    wd_worker_time_[w].store(e.time, std::memory_order_relaxed);
    wd_worker_win_[w].store(windows_, std::memory_order_relaxed);
    wd_heartbeat_.fetch_add(1, std::memory_order_relaxed);
  }
  e.task->fn();
  tls_.cause = 0;
}

void Simulator::prof_mark(uint32_t worker, uint64_t window,
                          support::HostPhase phase) {
  const uint64_t t = support::host_now_ns();
  host_prof_->record(worker, window, phase, prof_cursor_[worker], t);
  prof_cursor_[worker] = t;
}

void Simulator::process_nodes(uint32_t worker, uint64_t* processed,
                              Time* max_time) {
  support::Tracer* tracer = tracer_;
  for (uint32_t n = lane_lo_[worker]; n < lane_hi_[worker]; ++n) {
    if (test_lane_hook_) test_lane_hook_(n, windows_ - 1);
    Queue& q = node_q_[n];
    const Time window_end = win_end_lane_[n];
    if (q.empty() || q.top().time >= window_end) continue;
    tls_.owner = this;
    tls_.affinity = n;
    tls_.worker = worker;
    if (tracer != nullptr) support::Tracer::set_thread_lane(n);
    while (!q.empty() && q.top().time < window_end) {
      auto& top = const_cast<Entry&>(q.top());
      Entry e{top.time, top.seq, top.cause, top.creator, std::move(top.task)};
      q.pop();
      execute(e, n, processed, max_time);
    }
    if (tracer != nullptr) support::Tracer::set_thread_lane(-1);
    tls_.owner = nullptr;
    tls_.affinity = kNoAffinity;
  }
  if (host_prof_ != nullptr) {
    prof_mark(worker, windows_ - 1, support::HostPhase::kLaneDrain);
  }
  flush_outbox(worker);
  if (host_prof_ != nullptr) {
    prof_mark(worker, windows_ - 1, support::HostPhase::kOutboxFlush);
  }
}

void Simulator::worker_main(uint32_t worker) {
  if (!worker_cpus_.empty()) {
    support::pin_current_thread(
        worker_cpus_[worker % worker_cpus_.size()]);
  }
  uint64_t seen = 0;
  for (;;) {
    seen = barrier_.await_release(seen);
    if (quit_.load(std::memory_order_acquire)) return;
    // windows_ was bumped by compute_window_ends before this release and
    // is stable until every worker arrives; the release/acquire pair
    // publishes it, so windows_ - 1 is this window's index.
    const uint64_t win = windows_ - 1;
    if (host_prof_ != nullptr) {
      prof_mark(worker, win, support::HostPhase::kBarrierWait);
    }
    process_nodes(worker, &worker_processed_[worker],
                  &worker_max_time_[worker]);
    barrier_.arrive(worker - 1, seen);
    if (host_prof_ != nullptr) {
      prof_mark(worker, win, support::HostPhase::kBarrierWake);
    }
  }
}

Time Simulator::run_windowed(uint32_t workers) {
  CR_CHECK(!running_);
  CR_CHECK_MSG(windowed_, "run_windowed() without begin_windowed()");
  if (workers == 0) workers = 1;
  num_workers_ = std::min(workers, nodes_);
  running_ = true;
  if (exec_log_ != nullptr) {
    exec_log_->assign(nodes_ + 1, {});
  }
  support::Tracer* tracer = tracer_;
  if (tracer != nullptr) tracer->begin_sharded(nodes_ + 1);

  // Contiguous lane blocks: worker w owns [w*N/W, (w+1)*N/W). Neighboring
  // lanes exchange the most mailbox traffic in the apps' halo patterns,
  // so blocks beat round-robin for locality — and the per-lane execution
  // order (the determinism witness) is identical either way.
  lane_lo_.assign(num_workers_, 0);
  lane_hi_.assign(num_workers_, 0);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    lane_lo_[w] = static_cast<uint32_t>(
        (static_cast<uint64_t>(nodes_) * w) / num_workers_);
    lane_hi_[w] = static_cast<uint32_t>(
        (static_cast<uint64_t>(nodes_) * (w + 1)) / num_workers_);
  }
  outbox_ = std::vector<OutBuffer>(num_workers_);
  lane_last_exec_.assign(nodes_ + 1, 0);
  worker_processed_.assign(num_workers_, 0);
  worker_max_time_.assign(num_workers_, 0);

  // Optional topology pinning: the coordinator takes slot 0 and restores
  // its prior affinity on exit; workers pin in worker_main.
  std::vector<int> saved_affinity;
  if (!worker_cpus_.empty()) {
    saved_affinity = support::current_thread_affinity();
    support::pin_current_thread(worker_cpus_[0]);
  }

  quit_.store(false, std::memory_order_release);
  barrier_.init(num_workers_ - 1);
  epoch_seq_ = 0;

  // Host-phase profiler: begin before the workers spawn so every lane's
  // first span starts at the shared origin.
  if (host_prof_ != nullptr) {
    host_prof_->begin(num_workers_);
    prof_cursor_.assign(num_workers_, host_prof_->origin_ns());
  }
  // Stall watchdog: allocate the flight-recorder slots, then start the
  // monitor. wd_enabled_ gates every recorder store in the hot path.
  if (wd_opts_.budget_ms > 0) {
    wd_lane_front_ = std::make_unique<std::atomic<uint64_t>[]>(nodes_);
    wd_lane_winend_ = std::make_unique<std::atomic<uint64_t>[]>(nodes_);
    wd_worker_uid_ = std::make_unique<std::atomic<uint64_t>[]>(num_workers_);
    wd_worker_time_ = std::make_unique<std::atomic<uint64_t>[]>(num_workers_);
    wd_worker_win_ = std::make_unique<std::atomic<uint64_t>[]>(num_workers_);
    for (uint32_t n = 0; n < nodes_; ++n) {
      wd_lane_front_[n].store(kInfTime, std::memory_order_relaxed);
      wd_lane_winend_[n].store(0, std::memory_order_relaxed);
    }
    for (uint32_t w = 0; w < num_workers_; ++w) {
      wd_worker_uid_[w].store(0, std::memory_order_relaxed);
      wd_worker_time_[w].store(0, std::memory_order_relaxed);
      wd_worker_win_[w].store(0, std::memory_order_relaxed);
    }
    wd_heartbeat_.store(0, std::memory_order_relaxed);
    wd_window_.store(0, std::memory_order_relaxed);
    wd_fired_.store(false, std::memory_order_relaxed);
    wd_quit_.store(false, std::memory_order_release);
    wd_enabled_.store(true, std::memory_order_release);
    wd_thread_ = std::thread([this] { watchdog_main(); });
  }

  for (uint32_t w = 1; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }

  uint64_t serial_processed = 0;
  Time serial_max_time = 0;
  for (;;) {
    // windows_ counts completed compute_window_ends calls, so at the top
    // of an iteration it is the index of the window being planned.
    const uint64_t win = windows_;
    drain_inboxes(0, nodes_ + 1);
    // Serial phase: global entries (barrier fan-ins and releases, merge
    // completions) run strictly before any node entry at or after their
    // time. Their callbacks may push node entries directly — workers
    // are parked — so the frontier is recomputed as they run (the heap
    // makes each recomputation O(log nodes) amortized).
    Time node_min = node_min_time();
    if (host_prof_ != nullptr) {
      prof_mark(0, win, support::HostPhase::kPlan);
    }
    uint64_t serial_before = serial_processed;
    while (!global_q_.empty() && global_q_.top().time <= node_min) {
      // The global lane's share of the test hook (lane == nodes_), so
      // tests can stretch a serial drain the way they wedge a lane.
      if (test_lane_hook_) test_lane_hook_(nodes_, win);
      if (wd_enabled_.load(std::memory_order_relaxed)) {
        // Defense in depth for long global bursts: execute() beats
        // before each callback, but an iteration also spends time in
        // frontier recomputation the heartbeat should witness.
        wd_heartbeat_.fetch_add(1, std::memory_order_relaxed);
      }
      auto& top = const_cast<Entry&>(global_q_.top());
      Entry e{top.time, top.seq, top.cause, top.creator, std::move(top.task)};
      global_q_.pop();
      tls_.owner = this;
      tls_.affinity = kNoAffinity;
      if (tracer != nullptr) support::Tracer::set_thread_lane(
          static_cast<int32_t>(nodes_));
      execute(e, kNoAffinity, &serial_processed, &serial_max_time);
      if (tracer != nullptr) support::Tracer::set_thread_lane(-1);
      tls_.owner = nullptr;
      node_min = node_min_time();
    }
    if (host_prof_ != nullptr && serial_processed != serial_before) {
      prof_mark(0, win, support::HostPhase::kSerialDrain);
    }
    if (node_min == kInfTime) {
      CR_CHECK(global_q_.empty());
      break;
    }
    // Publish this window's per-lane boundaries (see
    // compute_window_ends) before releasing the workers.
    compute_window_ends(node_min);

    // Queue-depth gauge: entries pushed minus executed, sampled at the
    // boundary where the value is deterministic (same instant the old
    // O(nodes) rescan measured, without the rescan).
    const uint64_t pending =
        pending_windowed_.load(std::memory_order_relaxed);
    if (pending > max_queue_depth_) max_queue_depth_ = pending;

    if (wd_enabled_.load(std::memory_order_relaxed)) {
      // Boundary snapshot for the flight recorder: lane fronts and the
      // window just planned. Costs O(nodes) per window, watchdog only.
      for (uint32_t n = 0; n < nodes_; ++n) {
        wd_lane_front_[n].store(
            node_q_[n].empty() ? kInfTime : node_q_[n].top().time,
            std::memory_order_relaxed);
        wd_lane_winend_[n].store(win_end_lane_[n],
                                 std::memory_order_relaxed);
      }
      wd_window_.store(windows_, std::memory_order_relaxed);
      wd_heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }
    if (host_prof_ != nullptr) {
      prof_mark(0, win, support::HostPhase::kPlan);
    }

    if (num_workers_ > 1) {
      barrier_.release(++epoch_seq_);
      if (host_prof_ != nullptr) {
        prof_mark(0, win, support::HostPhase::kBarrierWake);
      }
      process_nodes(0, &worker_processed_[0], &worker_max_time_[0]);
      // Double-buffered boundary work: while the stragglers finish
      // their shares, pre-stage the coordinator's own block of mailbox
      // merges for the next boundary. Whatever lands after this peek
      // is caught by the drain at the loop top; entries folded in now
      // come off the next serial segment. The coordinator owns the
      // front heap, so recording fronts here is race-free.
      drain_inboxes(lane_lo_[0], lane_hi_[0]);
      if (host_prof_ != nullptr) {
        prof_mark(0, win, support::HostPhase::kOutboxFlush);
      }
      barrier_.wait_arrivals(epoch_seq_);
      if (host_prof_ != nullptr) {
        prof_mark(0, win, support::HostPhase::kBarrierWait);
      }
    } else {
      process_nodes(0, &worker_processed_[0], &worker_max_time_[0]);
    }
  }

  // Close the profile as the drain loop exits: wall time measures the
  // windowed drain, not the pool teardown below (joining parked workers
  // can cost milliseconds of scheduler latency that no phase owns).
  // Workers have recorded their final span by their last arrive; their
  // threads are joined before profile() can run.
  if (host_prof_ != nullptr) host_prof_->end();

  if (!threads_.empty()) {
    quit_.store(true, std::memory_order_release);
    barrier_.release(++epoch_seq_);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }
  if (wd_enabled_.load(std::memory_order_relaxed)) {
    wd_enabled_.store(false, std::memory_order_release);
    wd_quit_.store(true, std::memory_order_release);
    wd_thread_.join();
  }
  if (!saved_affinity.empty()) {
    support::set_current_thread_affinity(saved_affinity);
  }
  uint64_t processed = serial_processed;
  Time max_time = serial_max_time;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    processed += worker_processed_[w];
    max_time = std::max(max_time, worker_max_time_[w]);
  }
  events_processed_ += processed;
  now_ = max_time;
  if (tracer != nullptr) tracer->end_sharded();
  running_ = false;
  return now_;
}

std::string Simulator::watchdog_dump(uint64_t stalled_ns) const {
  auto fmt_time = [](uint64_t t) {
    return t == static_cast<uint64_t>(kInfTime) ? std::string("inf")
                                                : std::to_string(t);
  };
  std::string out;
  out.reserve(512 + 96 * nodes_);
  out += "=== simulator stall watchdog ===\n";
  out += "no execution progress for " +
         std::to_string(stalled_ns / 1000000) + " ms (budget " +
         std::to_string(wd_opts_.budget_ms) + " ms)\n";
  out += "window " + std::to_string(wd_window_.load(std::memory_order_acquire)) +
         ", heartbeat " +
         std::to_string(wd_heartbeat_.load(std::memory_order_acquire)) +
         ", barrier epoch " + std::to_string(barrier_.current_epoch()) +
         " (completed " + std::to_string(barrier_.last_completed_epoch()) +
         "), parked workers " + std::to_string(barrier_.parked_workers()) +
         "\n";
  for (uint32_t w = 0; w < num_workers_; ++w) {
    out += "worker " + std::to_string(w) + ": last window " +
           std::to_string(wd_worker_win_[w].load(std::memory_order_acquire)) +
           ", last exec t=" +
           std::to_string(wd_worker_time_[w].load(std::memory_order_acquire)) +
           ", cause uid " +
           std::to_string(wd_worker_uid_[w].load(std::memory_order_acquire)) +
           "\n";
  }
  for (uint32_t n = 0; n < nodes_; ++n) {
    out += "lane " + std::to_string(n) + ": front t=" +
           fmt_time(wd_lane_front_[n].load(std::memory_order_acquire)) +
           ", window end t=" +
           fmt_time(wd_lane_winend_[n].load(std::memory_order_acquire)) +
           ", armed sends " +
           std::to_string(
               armed_cross_[n].load(std::memory_order_acquire)) +
           "\n";
  }
  out += "=== end watchdog dump ===\n";
  return out;
}

void Simulator::watchdog_main() {
  const uint64_t budget_ns = wd_opts_.budget_ms * 1000000ull;
  // Poll at a quarter of the budget (capped at 10ms) so a stall is
  // caught within ~1.25x the budget without burning a core.
  const uint64_t poll_ns =
      std::min<uint64_t>(std::max<uint64_t>(budget_ns / 4, 100000ull),
                         10000000ull);
  uint64_t last_beat = wd_heartbeat_.load(std::memory_order_acquire);
  uint64_t last_change = support::host_now_ns();
  while (!wd_quit_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(poll_ns));
    const uint64_t beat = wd_heartbeat_.load(std::memory_order_acquire);
    if (beat != last_beat) {
      last_beat = beat;
      last_change = support::host_now_ns();
      continue;
    }
    const uint64_t stalled = support::host_now_ns() - last_change;
    if (stalled < budget_ns) continue;
    const std::string dump = watchdog_dump(stalled);
    if (wd_opts_.sink) {
      wd_opts_.sink(dump);
    } else {
      std::fputs(dump.c_str(), stderr);
      std::fflush(stderr);
    }
    wd_fired_.store(true, std::memory_order_release);
    if (wd_opts_.abort_on_stall) std::abort();
    // Non-aborting (test) mode: re-arm and keep monitoring.
    last_change = support::host_now_ns();
  }
}

}  // namespace cr::sim
