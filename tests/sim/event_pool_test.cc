// The event engine's pools under cross-thread release: one thread mints
// event states, waiter nodes and queue callables, other threads drop the
// last handles (the windowed backend's pattern). Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/network.h"
#include "sim/pool.h"
#include "sim/processor.h"
#include "sim/simulator.h"

namespace cr::sim {
namespace {

TEST(EventPool, ReleasedStorageIsReused) {
  Simulator sim;
  const size_t before = event_pool_chunks_for_testing();
  for (int i = 0; i < 100000; ++i) {
    UserEvent ue(sim);
    ue.event().subscribe([](Time) {});
    sim.schedule_at(0, [ue]() mutable { ue.trigger(); });
    sim.run();
  }
  // One live event, waiter and task at a time: a chunk per pool at most.
  EXPECT_LE(event_pool_chunks_for_testing(), before + 3);
}

TEST(EventPool, CrossThreadReleaseOfMintedObjects) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  std::atomic<int> waiters_run{0};
  std::atomic<int> tasks_destroyed{0};
  struct Counted {
    std::atomic<int>* n;
    bool live = true;
    explicit Counted(std::atomic<int>* c) : n(c) {}
    Counted(Counted&& o) noexcept : n(o.n), live(o.live) { o.live = false; }
    ~Counted() {
      if (live) n->fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (int round = 0; round < 4; ++round) {
    Simulator sim;
    struct Share {
      std::vector<UserEvent> to_trigger;  // waiters run on the worker
      std::vector<Event> to_drop;         // waiters die untriggered
      std::vector<detail::TaskPtr> tasks;
    };
    std::vector<Share> shares(kThreads);
    Event shared_tail;  // one state referenced from every thread
    {
      UserEvent tail(sim);
      shared_tail = tail.event();
    }
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kPerThread; ++i) {
        UserEvent fire(sim);
        fire.event().subscribe([&waiters_run, keep = shared_tail](Time) {
          waiters_run.fetch_add(1, std::memory_order_relaxed);
        });
        shares[t].to_trigger.push_back(fire);
        UserEvent idle(sim);
        idle.event().subscribe([keep = shared_tail](Time) {});
        shares[t].to_drop.push_back(idle.event());
        shares[t].tasks.emplace_back(
            pool_new<detail::Task>([c = Counted(&tasks_destroyed)] {}));
      }
    }
    shared_tail = Event();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&shares, t] {
        Share& s = shares[t];
        for (UserEvent& ue : s.to_trigger) ue.trigger();
        s.to_trigger.clear();
        s.to_drop.clear();
        s.tasks.clear();
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(waiters_run.load(), 4 * kThreads * kPerThread);
  EXPECT_EQ(tasks_destroyed.load(), 4 * kThreads * kPerThread);
}

// One windowed run: per-node processor chains plus a ring of cross-node
// sends, all wired on this thread and released on the workers.
Time run_windowed_ring(uint32_t workers) {
  constexpr uint32_t kNodes = 4;
  constexpr int kSteps = 250;
  Simulator sim;
  NetworkConfig cfg;
  Network net(sim, kNodes, cfg);
  sim.begin_windowed(kNodes, net.min_cross_node_delay());
  std::vector<Processor> procs;
  for (uint32_t n = 0; n < kNodes; ++n) procs.emplace_back(sim, ProcId{n, 0});
  std::vector<Event> ready(kNodes);
  for (int s = 0; s < kSteps; ++s) {
    std::vector<Event> done(kNodes);
    for (uint32_t n = 0; n < kNodes; ++n) {
      done[n] = procs[n].spawn(ready[n], 100 + n);
    }
    for (uint32_t n = 0; n < kNodes; ++n) {
      const uint32_t from = (n + kNodes - 1) % kNodes;
      Event msg = net.send(from, n, 64, done[from]);
      ready[n] = Event::merge(sim, {done[n], msg});
    }
  }
  return sim.run_windowed(workers);
}

TEST(EventPool, RepeatedWindowedRunsKeepChunkCountBounded) {
  // Worker threads exit after every run; the blocks they freed must
  // reach the depot for the next run to reuse. Losing them would carve
  // a few chunks per run (each run executes ~3k queue callables on
  // the workers, 1024 blocks per chunk), so after a warm-up the count
  // must stay flat up to worker-cache jitter.
  const Time makespan = run_windowed_ring(4);
  for (int run = 1; run < 10; ++run) run_windowed_ring(4);
  const size_t warm = event_pool_chunks_for_testing();
  for (int run = 10; run < 20; ++run) {
    EXPECT_EQ(run_windowed_ring(4), makespan);
  }
  EXPECT_LE(event_pool_chunks_for_testing(), warm + 4);
}

#if defined(__SANITIZE_ADDRESS__)
// AddressSanitizer cannot see a pool's recycling on its own; the pool
// poisons free blocks so a use after release still aborts.
TEST(EventPoolDeathTest, UseAfterReleaseIsReportedUnderAsan) {
  EXPECT_DEATH(
      {
        detail::Waiter* w = pool_new<detail::Waiter>();
        pool_delete(w);
        volatile bool live = static_cast<bool>(w->fn);
        (void)live;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace cr::sim
