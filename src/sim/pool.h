// Fixed-size object pools for the event engine's hot allocations (event
// states, waiter nodes, queue callables).
//
// Blocks are carved from chunks that the pool keeps for the life of the
// process and recycled through per-thread free lists, so steady-state
// allocation and release touch no lock and no allocator. Any thread may
// allocate or release any block: under the windowed backend the
// coordinator mints most objects and node workers drop the last handles.
// A thread's free list spills half its blocks to a shared depot once it
// grows past two batches, takes a batch back from the depot when it runs
// dry, and hands the whole list to the depot when the thread exits. The
// windowed backend creates and joins its workers on every run, so the
// depot is what keeps repeated runs from carving fresh chunks each time.
//
// Under AddressSanitizer a free block is poisoned past its free-list link,
// so a use of a pooled object after its release still aborts the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CR_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CR_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CR_POOL_POISON(p, n) ((void)(p), (void)(n))
#define CR_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace cr::sim {

template <typename T>
class Pool {
 public:
  // Raw storage for one T (construct with placement new).
  static void* allocate() {
    Cache& c = cache_;
    if (c.head == nullptr) refill(c);
    Free* f = c.head;
    c.head = f->next;
    --c.count;
    CR_POOL_UNPOISON(f, kBlock);
    return f;
  }

  // Return storage whose T has been destroyed. Any thread.
  static void deallocate(void* p) {
    Cache& c = cache_;
    if (!c.armed) arm(c);
    Free* f = static_cast<Free*>(p);
    f->next = c.head;
    CR_POOL_POISON(reinterpret_cast<char*>(f) + sizeof(Free),
                   kBlock - sizeof(Free));
    c.head = f;
    if (++c.count > 2 * kBatch) spill(c, kBatch);
  }

  // Chunks carved so far (test-only: the bounded-growth check).
  static size_t chunks_for_testing() {
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    return d.chunks.size();
  }

 private:
  static constexpr size_t kBlock =
      (sizeof(T) + alignof(std::max_align_t) - 1) /
      alignof(std::max_align_t) * alignof(std::max_align_t);
  static constexpr size_t kBatch = 256;
  static constexpr size_t kChunkBlocks = 1024;

  struct Free {
    Free* next;
  };
  static_assert(sizeof(T) >= sizeof(Free));

  // Trivially constructible and destructible, so the hot paths read it
  // without a TLS guard; `armed` registers the exit flush lazily.
  struct Cache {
    Free* head = nullptr;
    size_t count = 0;
    bool armed = false;
  };
  struct Batch {
    Free* head;
    size_t count;
  };
  struct Depot {
    std::mutex mu;
    std::vector<Batch> batches;
    std::vector<void*> chunks;
  };
  // Runs at thread exit: the thread's free blocks go back to the depot.
  struct ExitFlush {
    bool used = false;
    ~ExitFlush() { spill(cache_, cache_.count); }
  };

  // Never destroyed: threads and static objects may release blocks
  // during process teardown.
  static Depot& depot() {
    static Depot* d = new Depot();
    return *d;
  }

  static void arm(Cache& c) {
    exit_flush_.used = true;  // first odr-use registers the destructor
    c.armed = true;
  }

  static void refill(Cache& c) {
    if (!c.armed) arm(c);
    Depot& d = depot();
    {
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.batches.empty()) {
        const Batch b = d.batches.back();
        d.batches.pop_back();
        c.head = b.head;
        c.count = b.count;
        return;
      }
    }
    char* chunk = static_cast<char*>(::operator new(
        kBlock * kChunkBlocks, std::align_val_t{alignof(std::max_align_t)}));
    {
      std::lock_guard<std::mutex> lock(d.mu);
      d.chunks.push_back(chunk);
    }
    for (size_t i = kChunkBlocks; i-- > 0;) {
      Free* f = reinterpret_cast<Free*>(chunk + i * kBlock);
      f->next = c.head;
      c.head = f;
    }
    c.count = kChunkBlocks;
  }

  // Move the first n blocks of the thread's list to the depot.
  static void spill(Cache& c, size_t n) {
    if (n == 0) return;
    Free* head = c.head;
    Free* last = head;
    for (size_t i = 1; i < n; ++i) last = last->next;
    c.head = last->next;
    c.count -= n;
    last->next = nullptr;
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    d.batches.push_back({head, n});
  }

  static inline thread_local Cache cache_{};
  static inline thread_local ExitFlush exit_flush_{};
};

// Allocate and construct a T from its pool / destroy it and return the
// storage (from any thread).
template <typename T, typename... A>
T* pool_new(A&&... args) {
  return ::new (Pool<T>::allocate()) T(std::forward<A>(args)...);
}
template <typename T>
void pool_delete(T* p) {
  p->~T();
  Pool<T>::deallocate(p);
}

}  // namespace cr::sim
