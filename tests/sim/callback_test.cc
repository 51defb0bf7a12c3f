#include "sim/callback.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <utility>

namespace cr::sim {
namespace {

// A capture that counts how many live copies were destroyed: moved-from
// shells do not count, so a correct owner destroys each capture once.
struct Token {
  int* destroyed;
  bool live = true;
  explicit Token(int* d) : destroyed(d) {}
  Token(Token&& o) noexcept : destroyed(o.destroyed), live(o.live) {
    o.live = false;
  }
  Token(const Token&) = delete;
  ~Token() {
    if (live) ++*destroyed;
  }
};

using Fn = Callback<int(int)>;

static_assert(!std::is_copy_constructible_v<Fn>);
static_assert(std::is_nothrow_move_constructible_v<Fn>);

TEST(Callback, EmptyAndReset) {
  Fn a;
  EXPECT_FALSE(a);
  Fn c = [](int x) { return x + 1; };
  EXPECT_TRUE(c);
  c.reset();
  EXPECT_FALSE(c);
}

TEST(Callback, InlineClosureIsMoveOnlyAndDestroyedOnce) {
  int destroyed = 0;
  {
    auto small = [t = Token(&destroyed), p = std::make_unique<int>(40)](
                     int x) { return *p + x; };
    static_assert(Fn::fits_inline<decltype(small)>);
    Fn a = std::move(small);
    EXPECT_EQ(destroyed, 0);
    Fn b = std::move(a);
    EXPECT_FALSE(a);
    EXPECT_EQ(b(2), 42);
    Fn c;
    c = std::move(b);
    EXPECT_EQ(c(1), 41);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, LargeClosureFallsBackToHeapAndDestroyedOnce) {
  int destroyed = 0;
  {
    std::array<int, 32> big{};
    big[31] = 7;
    auto large = [t = Token(&destroyed), big](int x) { return big[31] * x; };
    static_assert(!Fn::fits_inline<decltype(large)>);
    Fn a = std::move(large);
    Fn b = std::move(a);
    EXPECT_EQ(b(6), 42);
    Fn c = [](int) { return 0; };
    c = std::move(b);  // replaces (and destroys) the small closure
    EXPECT_EQ(c(2), 14);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, AssignmentDestroysThePreviousClosure) {
  int first = 0;
  int second = 0;
  Fn f = [t = Token(&first)](int x) { return x; };
  f = [t = Token(&second)](int x) { return -x; };
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(f(3), -3);
  f.reset();
  EXPECT_EQ(second, 1);
}

TEST(Callback, MutableStateSurvivesMoves) {
  Callback<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  Callback<int()> moved = std::move(counter);
  EXPECT_EQ(moved(), 2);
}

}  // namespace
}  // namespace cr::sim
