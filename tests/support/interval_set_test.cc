#include "support/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace cr::support {
namespace {

TEST(IntervalSet, EmptyBasics) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.interval_count(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(IntervalSet, RangeConstruction) {
  auto s = IntervalSet::range(3, 10);
  EXPECT_EQ(s.size(), 7u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(9));
  EXPECT_FALSE(s.contains(10));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.bounds(), (Interval{3, 10}));
}

TEST(IntervalSet, EmptyRangeIsEmpty) {
  EXPECT_TRUE(IntervalSet::range(5, 5).empty());
  EXPECT_TRUE(IntervalSet::range(7, 5).empty());
}

TEST(IntervalSet, FromPointsCoalesces) {
  auto s = IntervalSet::from_points({5, 1, 2, 3, 9, 2});
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.interval_count(), 3u);  // [1,4) [5,6) [9,10)
  EXPECT_TRUE(s.contains(1) && s.contains(2) && s.contains(3));
  EXPECT_TRUE(s.contains(5) && s.contains(9));
  EXPECT_FALSE(s.contains(4) && s.contains(0));
}

TEST(IntervalSet, AddCoalescesAdjacent) {
  IntervalSet s;
  s.add(0, 5);
  s.add(5, 10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.size(), 10u);
}

TEST(IntervalSet, AddOutOfOrder) {
  IntervalSet s;
  s.add(10, 20);
  s.add(0, 5);
  s.add(4, 12);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.size(), 20u);
}

TEST(IntervalSet, AppendFastPath) {
  IntervalSet s;
  for (uint64_t i = 0; i < 100; i += 2) s.append_point(i);
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(s.interval_count(), 50u);
}

TEST(IntervalSet, UnionDisjointAndOverlap) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(20, 30);
  auto u = a.set_union(b);
  EXPECT_EQ(u.size(), 20u);
  EXPECT_EQ(u.interval_count(), 2u);

  auto c = IntervalSet::range(5, 25);
  auto u2 = u.set_union(c);
  EXPECT_EQ(u2.interval_count(), 1u);
  EXPECT_EQ(u2.size(), 30u);
}

TEST(IntervalSet, IntersectBasic) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(5, 15);
  auto i = a.set_intersect(b);
  EXPECT_EQ(i, IntervalSet::range(5, 10));
}

TEST(IntervalSet, IntersectDisjointIsEmpty) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(10, 20);
  EXPECT_TRUE(a.set_intersect(b).empty());
  EXPECT_TRUE(a.disjoint(b));
}

TEST(IntervalSet, SubtractSplitsInterval) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(3, 7);
  auto d = a.set_subtract(b);
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(d.interval_count(), 2u);
  EXPECT_TRUE(d.contains(2) && d.contains(7));
  EXPECT_FALSE(d.contains(3) || d.contains(6));
}

TEST(IntervalSet, ContainsAll) {
  auto a = IntervalSet::range(0, 100);
  auto b = IntervalSet::from_points({1, 50, 99});
  EXPECT_TRUE(a.contains_all(b));
  EXPECT_FALSE(b.contains_all(a));
  b.add_point(100);
  EXPECT_FALSE(a.contains_all(b));
}

TEST(IntervalSet, NthPoint) {
  auto s = IntervalSet::from_points({2, 3, 10, 11, 12});
  EXPECT_EQ(s.nth_point(0), 2u);
  EXPECT_EQ(s.nth_point(1), 3u);
  EXPECT_EQ(s.nth_point(2), 10u);
  EXPECT_EQ(s.nth_point(4), 12u);
}

TEST(IntervalSet, ForEachPointVisitsInOrder) {
  auto s = IntervalSet::from_points({7, 1, 3});
  std::vector<uint64_t> seen;
  s.for_each_point([&](uint64_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 3, 7}));
}

// ---- Property tests against a brute-force std::set oracle. ----

IntervalSet random_set(Rng& rng, uint64_t universe, int ops) {
  IntervalSet s;
  for (int i = 0; i < ops; ++i) {
    uint64_t lo = rng.next_below(universe);
    uint64_t hi = lo + rng.next_below(universe / 4 + 1);
    s.add(lo, std::min(hi, universe));
  }
  return s;
}

std::set<uint64_t> to_oracle(const IntervalSet& s) {
  std::set<uint64_t> out;
  s.for_each_point([&](uint64_t p) { out.insert(p); });
  return out;
}

class IntervalSetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetProperty, AlgebraMatchesSetOracle) {
  Rng rng(GetParam());
  const uint64_t universe = 200;
  auto a = random_set(rng, universe, 6);
  auto b = random_set(rng, universe, 6);
  auto oa = to_oracle(a);
  auto ob = to_oracle(b);

  // union
  std::set<uint64_t> ou = oa;
  ou.insert(ob.begin(), ob.end());
  EXPECT_EQ(to_oracle(a.set_union(b)), ou);

  // intersect
  std::set<uint64_t> oi;
  for (uint64_t p : oa) {
    if (ob.count(p)) oi.insert(p);
  }
  EXPECT_EQ(to_oracle(a.set_intersect(b)), oi);

  // subtract
  std::set<uint64_t> od;
  for (uint64_t p : oa) {
    if (!ob.count(p)) od.insert(p);
  }
  EXPECT_EQ(to_oracle(a.set_subtract(b)), od);

  // predicates
  EXPECT_EQ(a.overlaps(b), !oi.empty());
  EXPECT_EQ(a.size(), oa.size());

  // representation invariants: sorted, disjoint, coalesced
  const IntervalSet u3 = a.set_union(b);
  const auto& ivs = u3.intervals();
  for (size_t i = 1; i < ivs.size(); ++i) {
    EXPECT_LT(ivs[i - 1].hi, ivs[i].lo);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range<uint64_t>(0, 50));

// ---- Size-ratio property tests: the galloping merges against a sorted
// point-vector reference, from 1:1 up to 1:10^4 interval counts. ----

// About `count` sorted, disjoint intervals with endpoints in
// [base, base + span]. With `snap` set, half the endpoints sit on or one
// off an endpoint of `snap`, so the two sides touch and abut often.
IntervalSet ratio_set(Rng& rng, uint64_t base, uint64_t span, size_t count,
                      const IntervalSet* snap) {
  std::vector<uint64_t> ends;
  for (size_t k = 0; k < 2 * count; ++k) {
    uint64_t e = base + rng.next_below(span + 1);
    if (snap != nullptr && !snap->empty() && rng.next_bool()) {
      const auto& ivs = snap->intervals();
      const Interval& iv = ivs[rng.next_below(ivs.size())];
      e = rng.next_bool() ? iv.lo : iv.hi;
      const uint64_t nudge = rng.next_below(3);  // -1, 0, +1
      if (nudge == 0 && e > base) --e;
      if (nudge == 2 && e < base + span) ++e;
    }
    ends.push_back(e);
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  IntervalSet out;
  for (size_t k = 0; k + 1 < ends.size(); k += 2) {
    out.append(ends[k], ends[k + 1]);
  }
  return out;
}

// Random sub-ranges of random intervals of `of`: a set it contains.
IntervalSet subset_of(Rng& rng, const IntervalSet& of, size_t count) {
  std::vector<Interval> picks;
  for (size_t k = 0; k < count && !of.empty(); ++k) {
    const auto& ivs = of.intervals();
    const Interval& iv = ivs[rng.next_below(ivs.size())];
    const uint64_t lo = iv.lo + rng.next_below(iv.size());
    picks.push_back({lo, lo + 1 + rng.next_below(iv.hi - lo)});
  }
  IntervalSet out;
  for (const Interval& iv : picks) out.add(iv.lo, iv.hi);
  return out;
}

std::vector<uint64_t> points_of(const IntervalSet& s) {
  std::vector<uint64_t> out;
  for (const Interval& iv : s.intervals()) {
    for (uint64_t p = iv.lo; p < iv.hi; ++p) out.push_back(p);
  }
  return out;
}

void expect_canonical(const IntervalSet& s, const char* what) {
  const auto& ivs = s.intervals();
  for (size_t k = 0; k < ivs.size(); ++k) {
    EXPECT_LT(ivs[k].lo, ivs[k].hi) << what << ": empty interval " << k;
    if (k > 0) {
      EXPECT_LT(ivs[k - 1].hi, ivs[k].lo)
          << what << ": unsorted or uncoalesced at " << k;
    }
  }
}

void expect_algebra_matches(const IntervalSet& a, const IntervalSet& b) {
  const std::vector<uint64_t> pa = points_of(a), pb = points_of(b);
  std::vector<uint64_t> inter, diff_ab, diff_ba;
  std::set_intersection(pa.begin(), pa.end(), pb.begin(), pb.end(),
                        std::back_inserter(inter));
  std::set_difference(pa.begin(), pa.end(), pb.begin(), pb.end(),
                      std::back_inserter(diff_ab));
  std::set_difference(pb.begin(), pb.end(), pa.begin(), pa.end(),
                      std::back_inserter(diff_ba));

  const IntervalSet i_ab = a.set_intersect(b), i_ba = b.set_intersect(a);
  const IntervalSet d_ab = a.set_subtract(b), d_ba = b.set_subtract(a);
  expect_canonical(i_ab, "a & b");
  expect_canonical(d_ab, "a - b");
  expect_canonical(d_ba, "b - a");
  EXPECT_EQ(points_of(i_ab), inter);
  EXPECT_EQ(i_ba, i_ab);
  EXPECT_EQ(points_of(d_ab), diff_ab);
  EXPECT_EQ(points_of(d_ba), diff_ba);
  EXPECT_EQ(a.overlaps(b), !inter.empty());
  EXPECT_EQ(b.overlaps(a), !inter.empty());
  EXPECT_EQ(a.contains_all(b), diff_ba.empty());
  EXPECT_EQ(b.contains_all(a), diff_ab.empty());
  EXPECT_TRUE(a.contains_all(i_ab));
  EXPECT_TRUE(b.contains_all(i_ab));
}

class IntervalSetRatioProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetRatioProperty, MatchesPointSetReference) {
  // (small, large) interval counts: empty sides, 1:1, and 1:10 .. 1:10^4.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0},   {0, 40},    {1, 1},    {40, 40},   {200, 200}, {20, 200},
      {10, 1000}, {3, 3000}, {2, 10000}, {1, 10000}};
  for (const auto& [m, n] : shapes) {
    // Low ids and ids whose intervals end at UINT64_MAX itself.
    for (const bool near_max : {false, true}) {
      Rng rng(GetParam() * 1009 + m * 31 + n + (near_max ? 7 : 0));
      const uint64_t span = 8 * std::max<uint64_t>(n, 1);
      const uint64_t base = near_max ? UINT64_MAX - span : 0;
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                   (near_max ? " near UINT64_MAX" : ""));
      const IntervalSet large = ratio_set(rng, base, span, n, nullptr);
      const IntervalSet small = ratio_set(rng, base, span, m, &large);
      expect_algebra_matches(small, large);
      expect_algebra_matches(large, small);
      expect_algebra_matches(subset_of(rng, large, m), large);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetRatioProperty,
                         ::testing::Range<uint64_t>(0, 8));

TEST(IntervalSet, UnionIdentityAndIdempotence) {
  Rng rng(42);
  auto a = random_set(rng, 500, 10);
  EXPECT_EQ(a.set_union(IntervalSet()), a);
  EXPECT_EQ(a.set_union(a), a);
  EXPECT_EQ(a.set_intersect(a), a);
  EXPECT_TRUE(a.set_subtract(a).empty());
}

TEST(IntervalSet, FromPointsEmptyInput) {
  EXPECT_TRUE(IntervalSet::from_points({}).empty());
}

TEST(IntervalSet, FromPointsAdjacentPointsCoalesce) {
  auto s = IntervalSet::from_points({7, 8, 9});
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.bounds(), (Interval{7, 10}));
}

TEST(IntervalSet, FromPointsNearMaxValues) {
  // The duplicate check used to compute `back().hi >= p + 1`, which
  // wraps at p == UINT64_MAX - 1 only after the point is inserted (hi
  // becomes UINT64_MAX); these must survive without overflow.
  auto s = IntervalSet::from_points(
      {UINT64_MAX - 2, UINT64_MAX - 1, UINT64_MAX - 2});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.contains(UINT64_MAX - 1));
  EXPECT_FALSE(s.contains(UINT64_MAX));
  EXPECT_EQ(s.bounds(), (Interval{UINT64_MAX - 2, UINT64_MAX}));
}

TEST(IntervalSetDeath, MaxPointIsRejectedLoudly) {
  // UINT64_MAX is unrepresentable as a half-open point ([MAX, MAX+1)
  // wraps to [MAX, 0)); it used to be dropped silently, corrupting any
  // set algebra downstream. Now it aborts.
  EXPECT_DEATH(IntervalSet::from_points({UINT64_MAX}), "UINT64_MAX");
  EXPECT_DEATH(
      [] {
        IntervalSet s;
        s.add_point(UINT64_MAX);
      }(),
      "UINT64_MAX");
}

}  // namespace
}  // namespace cr::support
