// A move-only callable with a small inline buffer: the closure type every
// simulator hook stores (event waiters, queue entries). Closures up to
// kInlineBytes that are nothrow-movable and at most pointer-aligned live
// inside the object; larger ones fall back to one heap allocation. Unlike
// std::function (whose libstdc++ buffer only takes trivially copyable
// closures of two words), a closure capturing a few event handles and
// ids stays inline, so wiring an event costs no allocation beyond the
// pooled node that holds the Callback.
//
// Hot wiring sites assert `Callback<Sig>::fits_inline<decltype(fn)>` so
// a closure that grows past the buffer fails to compile instead of
// silently allocating.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cr::sim {

template <typename Sig>
class Callback;

template <typename R, typename... Args>
class Callback<R(Args...)> {
 public:
  static constexpr size_t kInlineBytes = 48;

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, Callback> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  Callback(F&& f) {  // NOLINT: implicit, so callers pass plain lambdas
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& o) noexcept { take(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  // Destroy the held closure (if any); the Callback becomes empty.
  void reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  // relocate == nullptr: the buffer is trivially relocatable (a
  // trivially copyable inline closure, or the heap pointer), so a move
  // is a memcpy. destroy == nullptr: nothing to run on destruction.
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static R invoke_inline(void* p, Args&&... args) {
    return (*std::launder(static_cast<D*>(p)))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void relocate_inline(void* from, void* to) noexcept {
    D* src = std::launder(static_cast<D*>(from));
    ::new (to) D(std::move(*src));
    src->~D();
  }
  template <typename D>
  static void destroy_inline(void* p) noexcept {
    std::launder(static_cast<D*>(p))->~D();
  }
  template <typename D>
  static D* heap_ptr(void* p) {
    D* heap = nullptr;
    std::memcpy(&heap, p, sizeof(heap));
    return heap;
  }
  template <typename D>
  static R invoke_heap(void* p, Args&&... args) {
    return (*heap_ptr<D>(p))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void destroy_heap(void* p) noexcept {
    delete heap_ptr<D>(p);
  }

  template <typename D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;
  template <typename D>
  static constexpr Ops kInlineOps{
      &invoke_inline<D>, kTrivial<D> ? nullptr : &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&invoke_heap<D>, nullptr, &destroy_heap<D>};

  void take(Callback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(o.buf_, buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace cr::sim
