#include "rt/dependence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "rt/partition.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace cr::rt {
namespace {

struct Fixture {
  sim::Simulator sim;
  RegionForest forest;
  std::shared_ptr<FieldSpace> fs = std::make_shared<FieldSpace>();
  FieldId v;
  RegionId r;
  PartitionId p;
  Fixture() {
    v = fs->add_field("v");
    r = forest.create_region(IndexSpace::dense(100), fs);
    p = partition_equal(forest, r, 4);
  }
  Requirement req(RegionId region, Privilege priv,
                  ReduceOp op = ReduceOp::kSum) {
    return Requirement{region, priv, op, {v}};
  }
};

TEST(Privileges, ConflictMatrix) {
  using P = Privilege;
  auto c = [](P a, P b) {
    return privileges_conflict(a, ReduceOp::kSum, b, ReduceOp::kSum);
  };
  EXPECT_FALSE(c(P::kReadOnly, P::kReadOnly));
  EXPECT_TRUE(c(P::kReadOnly, P::kReadWrite));
  EXPECT_TRUE(c(P::kReadWrite, P::kReadWrite));
  EXPECT_TRUE(c(P::kWriteDiscard, P::kReadOnly));
  EXPECT_FALSE(c(P::kReduce, P::kReduce));  // same op commutes
  EXPECT_TRUE(privileges_conflict(P::kReduce, ReduceOp::kSum, P::kReduce,
                                  ReduceOp::kMin));
  EXPECT_TRUE(c(P::kReduce, P::kReadOnly));
}

TEST(Privileges, SubsumptionIsStrict) {
  using P = Privilege;
  auto s = [](P sup, P sub) {
    return privilege_subsumes(sup, ReduceOp::kSum, sub, ReduceOp::kSum);
  };
  EXPECT_TRUE(s(P::kReadWrite, P::kReadOnly));
  EXPECT_TRUE(s(P::kReadWrite, P::kReduce));
  EXPECT_TRUE(s(P::kReadWrite, P::kWriteDiscard));
  EXPECT_FALSE(s(P::kReadOnly, P::kReadWrite));
  EXPECT_FALSE(s(P::kReduce, P::kReadOnly));
  EXPECT_TRUE(s(P::kReduce, P::kReduce));
  EXPECT_FALSE(privilege_subsumes(P::kReduce, ReduceOp::kSum, P::kReduce,
                                  ReduceOp::kMin));
}

TEST(Dependence, ReadersDontConflict) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  auto d1 = deps.record(1, f.req(f.r, Privilege::kReadOnly), e1.event());
  auto d2 = deps.record(2, f.req(f.r, Privilege::kReadOnly), e2.event());
  EXPECT_TRUE(d1.empty());
  EXPECT_TRUE(d2.empty());
}

TEST(Dependence, WriteAfterReadOrders) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  deps.record(1, f.req(f.r, Privilege::kReadOnly), e1.event());
  auto d = deps.record(2, f.req(f.r, Privilege::kReadWrite), e2.event());
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], e1.event());
}

TEST(Dependence, DisjointSubregionsRunInParallel) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
              e1.event());
  auto d = deps.record(
      2, f.req(f.forest.subregion(f.p, 1), Privilege::kReadWrite),
      e2.event());
  EXPECT_TRUE(d.empty());
}

TEST(Dependence, OverlappingWritesSerialize) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
              e1.event());
  auto d = deps.record(2, f.req(f.r, Privilege::kReadWrite), e2.event());
  ASSERT_EQ(d.size(), 1u);  // parent overlaps the subregion
}

TEST(Dependence, SameOpReductionsCommute) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim), e3(f.sim);
  deps.record(1, f.req(f.r, Privilege::kReduce, ReduceOp::kSum), e1.event());
  auto d2 =
      deps.record(2, f.req(f.r, Privilege::kReduce, ReduceOp::kSum),
                  e2.event());
  EXPECT_TRUE(d2.empty());
  // A different operator must serialize against both.
  auto d3 =
      deps.record(3, f.req(f.r, Privilege::kReduce, ReduceOp::kMin),
                  e3.event());
  EXPECT_EQ(d3.size(), 2u);
}

TEST(Dependence, CoveringWriterPrunesEpoch) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim), e3(f.sim), e4(f.sim);
  // Four readers of subregions, then a full write, then another write:
  // the second write should only depend on the first (pruned epoch).
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadOnly),
              e1.event());
  deps.record(2, f.req(f.forest.subregion(f.p, 1), Privilege::kReadOnly),
              e2.event());
  auto d3 = deps.record(3, f.req(f.r, Privilege::kReadWrite), e3.event());
  EXPECT_EQ(d3.size(), 2u);
  auto d4 = deps.record(4, f.req(f.r, Privilege::kReadWrite), e4.event());
  ASSERT_EQ(d4.size(), 1u);
  EXPECT_EQ(d4[0], e3.event());
}

// A user spanning two pieces retires by accumulated coverage: one
// piecewise writer leaves it live, the second retires it, and later
// readers of each half then order only after that half's writer.
TEST(Dependence, SpanningUserRetiresAfterPiecewiseCover) {
  Fixture f;
  const PartitionId halves = partition_equal(f.forest, f.r, 2);
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim), e3(f.sim), e4(f.sim), e5(f.sim);
  // Reader of [0, 50): pieces 0 and 1 of the quarter partition.
  deps.record(1, f.req(f.forest.subregion(halves, 0), Privilege::kReadOnly),
              e1.event());
  auto d2 = deps.record(
      2, f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
      e2.event());
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0], e1.event());
  // Still live: the second piece's writer orders after the reader.
  auto d3 = deps.record(
      3, f.req(f.forest.subregion(f.p, 1), Privilege::kReadWrite),
      e3.event());
  ASSERT_EQ(d3.size(), 1u);
  EXPECT_EQ(d3[0], e1.event());
  // Retired: only the two writers remain live.
  const uint64_t scanned0 = deps.pairs_scanned();
  auto d4 = deps.record(
      4, f.req(f.forest.subregion(f.p, 0), Privilege::kReadOnly),
      e4.event());
  EXPECT_EQ(deps.pairs_scanned() - scanned0, 2u);
  ASSERT_EQ(d4.size(), 1u);
  EXPECT_EQ(d4[0], e2.event());
  auto d5 = deps.record(
      5, f.req(f.forest.subregion(f.p, 1), Privilege::kReadOnly),
      e5.event());
  ASSERT_EQ(d5.size(), 1u);
  EXPECT_EQ(d5[0], e3.event());
}

// Reducers never retire other users, but are retired like readers.
TEST(Dependence, SpanningReducerRetiresAfterPiecewiseCover) {
  Fixture f;
  const PartitionId halves = partition_equal(f.forest, f.r, 2);
  const RegionId half = f.forest.subregion(halves, 1);  // pieces 2 and 3
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim), e3(f.sim), e4(f.sim), e5(f.sim);
  deps.record(1, f.req(half, Privilege::kReduce), e1.event());
  auto d2 = deps.record(
      2, f.req(f.forest.subregion(f.p, 2), Privilege::kReadWrite),
      e2.event());
  ASSERT_EQ(d2.size(), 1u);
  // Still live: a reader of the other piece conflicts with the reducer.
  auto d3 = deps.record(
      3, f.req(f.forest.subregion(f.p, 3), Privilege::kReadOnly),
      e3.event());
  ASSERT_EQ(d3.size(), 1u);
  EXPECT_EQ(d3[0], e1.event());
  auto d4 = deps.record(
      4, f.req(f.forest.subregion(f.p, 3), Privilege::kWriteDiscard),
      e4.event());
  EXPECT_EQ(d4, (std::vector<sim::Event>{e1.event(), e3.event()}));
  // Retired: a reader of the whole half sees only the piece writers.
  auto d5 = deps.record(5, f.req(half, Privilege::kReadOnly), e5.event());
  EXPECT_EQ(d5, (std::vector<sim::Event>{e2.event(), e4.event()}));
}

TEST(Dependence, ReaderDoesNotPruneWriter) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim), e3(f.sim);
  deps.record(1, f.req(f.r, Privilege::kReadWrite), e1.event());
  deps.record(2, f.req(f.r, Privilege::kReadOnly), e2.event());
  // A second reader must still see the writer (readers don't retire it).
  auto d = deps.record(3, f.req(f.r, Privilege::kReadOnly), e3.event());
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], e1.event());
}

TEST(Dependence, FieldsAreIndependent) {
  Fixture f;
  const FieldId w = f.fs->add_field("w");
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  deps.record(1, Requirement{f.r, Privilege::kReadWrite, ReduceOp::kSum,
                             {f.v}},
              e1.event());
  auto d = deps.record(
      2, Requirement{f.r, Privilege::kReadWrite, ReduceOp::kSum, {w}},
      e2.event());
  EXPECT_TRUE(d.empty());
}

TEST(Dependence, StatsCountPairs) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  deps.record(1, f.req(f.r, Privilege::kReadWrite), e1.event());
  deps.record(2, f.req(f.r, Privilege::kReadWrite), e2.event());
  EXPECT_EQ(deps.pairs_tested(), 1u);
  EXPECT_EQ(deps.pairs_scanned(), 1u);
  EXPECT_EQ(deps.dependences_found(), 1u);
  deps.reset();
  EXPECT_EQ(deps.pairs_tested(), 0u);
  EXPECT_EQ(deps.pairs_scanned(), 0u);
}

// Capture/replay roundtrip at the tracker level: a second tracker fed
// the captured outcomes through replay() must end in the same state,
// return the same preconditions (resolved from its own live users, in
// captured order — including a predecessor the same record retires),
// and charge the same pairs_scanned — while testing zero pairs itself.
TEST(Dependence, ReplayReproducesCapturedAnalysis) {
  Fixture f;
  DependenceTracker analyzed(f.forest);
  DependenceTracker replayed(f.forest);
  std::vector<sim::UserEvent> events;
  events.reserve(16);
  bool retired_a_predecessor = false;

  const Privilege privs[] = {Privilege::kReadOnly, Privilege::kReadWrite,
                             Privilege::kReadOnly, Privilege::kReadWrite,
                             Privilege::kWriteDiscard, Privilege::kReduce};
  const RegionId targets[] = {f.forest.subregion(f.p, 0),
                              f.forest.subregion(f.p, 1), f.r, f.r,
                              f.forest.subregion(f.p, 2), f.r};
  for (uint64_t op = 1; op <= 6; ++op) {
    events.emplace_back(f.sim);
    const sim::Event done = events.back().event();
    const Requirement req = f.req(targets[op - 1], privs[op - 1]);

    DependenceTracker::Capture cap;
    const uint64_t scanned0 = analyzed.pairs_scanned();
    const uint64_t found0 = analyzed.dependences_found();
    const auto pre = analyzed.record(op, req, done, &cap);
    const uint64_t found = analyzed.dependences_found() - found0;

    std::vector<sim::Event> resolved;
    const uint64_t scanned =
        replayed.replay(op, req, done, cap, found, resolved);
    EXPECT_EQ(scanned, analyzed.pairs_scanned() - scanned0) << "op " << op;
    EXPECT_EQ(resolved, pre) << "op " << op;
    for (const auto& c : cap.covers) {
      retired_a_predecessor |=
          c.retired && std::find(cap.dep_ops.begin(), cap.dep_ops.end(),
                                 c.op_id) != cap.dep_ops.end();
    }
  }
  EXPECT_TRUE(retired_a_predecessor);
  EXPECT_EQ(replayed.pairs_scanned(), analyzed.pairs_scanned());
  EXPECT_EQ(replayed.dependences_found(), analyzed.dependences_found());
  EXPECT_EQ(replayed.pairs_tested(), 0u);
  EXPECT_EQ(replayed.index_queries(), 0u);
  EXPECT_GT(analyzed.dependences_found(), 0u);

  // And analysis can resume on the replayed tracker seamlessly: the
  // same next record must observe the same state in both.
  events.emplace_back(f.sim);
  const Requirement next = f.req(f.r, Privilege::kReadWrite);
  auto da = analyzed.record(7, next, events.back().event());
  auto dr = replayed.record(7, next, events.back().event());
  EXPECT_EQ(da, dr);
  EXPECT_EQ(replayed.pairs_scanned(), analyzed.pairs_scanned());
}

// Capture/replay of a partial cover: the capture records each coverage
// step with its retire outcome, replay applies the partial step (the
// user stays live, with fewer uncovered points) and then the retiring
// one, and analysis resumes on the replayed tracker in the same state.
TEST(Dependence, ReplayReproducesPartialCover) {
  Fixture f;
  const PartitionId halves = partition_equal(f.forest, f.r, 2);
  DependenceTracker analyzed(f.forest);
  DependenceTracker replayed(f.forest);
  std::vector<sim::UserEvent> events;
  events.reserve(8);
  const Requirement reqs[] = {
      f.req(f.forest.subregion(halves, 0), Privilege::kReadOnly),
      f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
      f.req(f.forest.subregion(f.p, 1), Privilege::kReadWrite)};
  std::vector<DependenceTracker::Capture> caps(3);
  for (uint64_t op = 1; op <= 3; ++op) {
    events.emplace_back(f.sim);
    const Requirement& req = reqs[op - 1];
    const uint64_t found0 = analyzed.dependences_found();
    analyzed.record(op, req, events.back().event(), &caps[op - 1]);
    std::vector<sim::Event> pre;
    replayed.replay(op, req, events.back().event(), caps[op - 1],
                    analyzed.dependences_found() - found0, pre);
    EXPECT_EQ(replayed.pairs_scanned(), analyzed.pairs_scanned())
        << "op " << op;
  }
  using Cover = DependenceTracker::Capture::Cover;
  const RegionId spanning = reqs[0].region;
  EXPECT_TRUE(caps[0].covers.empty());
  EXPECT_EQ(caps[1].covers,
            (std::vector<Cover>{{f.v, 1, spanning, Privilege::kReadOnly,
                                 ReduceOp::kSum, /*retired=*/false}}));
  EXPECT_EQ(caps[2].covers,
            (std::vector<Cover>{{f.v, 1, spanning, Privilege::kReadOnly,
                                 ReduceOp::kSum, /*retired=*/true}}));

  events.emplace_back(f.sim);
  const Requirement next = f.req(f.r, Privilege::kReadOnly);
  auto da = analyzed.record(4, next, events.back().event());
  auto dr = replayed.record(4, next, events.back().event());
  EXPECT_EQ(da, dr);
  EXPECT_EQ(da.size(), 2u);
  EXPECT_EQ(replayed.pairs_scanned(), analyzed.pairs_scanned());
}

// A replayed step whose retire outcome differs from the live state's is
// a divergence from the captured iteration, never silently applied.
TEST(DependenceDeath, ReplayDivergentCoverAborts) {
  Fixture f;
  const PartitionId halves = partition_equal(f.forest, f.r, 2);
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  const RegionId spanning = f.forest.subregion(halves, 0);
  deps.record(1, f.req(spanning, Privilege::kReadOnly), e1.event());
  // One piece of two cannot retire the spanning reader.
  DependenceTracker::Capture wrong;
  wrong.dep_ops = {1};
  wrong.covers = {{f.v, 1, spanning, Privilege::kReadOnly, ReduceOp::kSum,
                   /*retired=*/true}};
  std::vector<sim::Event> pre;
  EXPECT_DEATH(deps.replay(2,
                           f.req(f.forest.subregion(f.p, 0),
                                 Privilege::kReadWrite),
                           e2.event(), wrong, 1, pre),
               "coverage diverged");
}

// A replayed predecessor that is not a live user cannot come from the
// captured iteration: it aborts instead of dropping the dependence.
TEST(DependenceDeath, ReplayUnknownPredecessorAborts) {
  Fixture f;
  DependenceTracker deps(f.forest);
  sim::UserEvent e1(f.sim), e2(f.sim);
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
              e1.event());
  DependenceTracker::Capture wrong;
  wrong.dep_ops = {7};  // never recorded
  std::vector<sim::Event> pre;
  EXPECT_DEATH(deps.replay(2,
                           f.req(f.forest.subregion(f.p, 0),
                                 Privilege::kReadOnly),
                           e2.event(), wrong, 1, pre),
               "predecessor is not a live user");
}

// The rebuild amortization must be bounded by accumulated tail-scan
// work, not by the staleness ratio alone: a short unindexed tail that
// every query rescans has to trigger a rebuild once the total touched
// count rivals the live list, even while stale * 8 < alive.
TEST(Dependence, TailScanWorkTriggersRebuild) {
  Fixture f;
  DependenceTracker deps(f.forest);
  std::vector<sim::UserEvent> events;
  events.reserve(1200);
  uint64_t op = 0;
  // Phase 1: a large live epoch of disjoint-region readers.
  for (int i = 0; i < 1000; ++i) {
    events.emplace_back(f.sim);
    deps.record(++op, f.req(f.forest.subregion(f.p, i % 4),
                            Privilege::kReadOnly),
                events.back().event());
  }
  const uint64_t rebuilds_before = deps.index_rebuilds();
  // Phase 2: 100 more readers. Staleness stays below alive/8 the whole
  // time (stale <= 100+64 vs alive ~1100), but each record rescans the
  // growing tail: ~5000 touched slots, far more than one rebuild pass.
  for (int i = 0; i < 100; ++i) {
    events.emplace_back(f.sim);
    deps.record(++op, f.req(f.forest.subregion(f.p, i % 4),
                            Privilege::kReadOnly),
                events.back().event());
  }
  EXPECT_GT(deps.index_rebuilds(), rebuilds_before)
      << "tail-scan work did not amortize into a rebuild";
}

// Property: the indexed tracker must return the identical precondition
// vectors (same events, same order), make the identical coverage steps
// (partial covers and retirements), and
// charge the identical pairs_scanned as the exhaustive linear scan, on
// randomized launch sequences over a randomized forest — while testing
// no more pairs than the scan would.
class DependenceIndexEquivalence : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DependenceIndexEquivalence, IndexedMatchesLinearScan) {
  support::Rng rng(GetParam() * 131 + 11);
  sim::Simulator sim;
  RegionForest forest;
  auto fields = std::make_shared<FieldSpace>();
  const FieldId fv = fields->add_field("v");
  const FieldId fw = fields->add_field("w");
  const RegionId root =
      forest.create_region(IndexSpace::dense(256), fields);
  std::vector<RegionId> regions{root};
  for (int step = 0; step < 6; ++step) {
    RegionId target = regions[rng.next_below(regions.size())];
    if (forest.region(target).ispace.size() < 8) continue;
    PartitionId p;
    if (rng.next_bool()) {
      p = partition_equal(forest, target, 2 + rng.next_below(6));
    } else {
      const uint64_t shift = 1 + rng.next_below(16);
      PartitionId base = partition_equal(forest, target, 4);
      p = partition_image(
          forest, target, base,
          [&, shift](uint64_t x, std::vector<uint64_t>& out) {
            out.push_back(x + shift);
          });
    }
    for (RegionId sub : forest.partition(p).subregions) {
      regions.push_back(sub);
    }
  }

  DependenceTracker linear(forest);
  linear.set_linear_scan(true);
  DependenceTracker indexed(forest);
  ASSERT_FALSE(indexed.linear_scan());

  const Privilege privs[] = {Privilege::kReadOnly, Privilege::kReadWrite,
                             Privilege::kWriteDiscard, Privilege::kReduce};
  std::vector<sim::UserEvent> events;
  events.reserve(400);
  uint64_t partial_covers = 0;
  for (uint64_t op = 1; op <= 400; ++op) {
    // Some operations (like copies) record several requirements.
    const int nreqs = 1 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < nreqs; ++k) {
      Requirement req;
      req.region = regions[rng.next_below(regions.size())];
      req.privilege = privs[rng.next_below(4)];
      req.redop = rng.next_bool() ? ReduceOp::kSum : ReduceOp::kMin;
      req.fields = rng.next_bool(0.8) ? std::vector<FieldId>{fv}
                                      : std::vector<FieldId>{fv, fw};
      events.emplace_back(sim);
      const sim::Event done = events.back().event();
      DependenceTracker::Capture c1, c2;
      auto d1 = linear.record(op, req, done, &c1);
      auto d2 = indexed.record(op, req, done, &c2);
      ASSERT_EQ(d1, d2) << "op " << op << " (seed " << GetParam() << ")";
      ASSERT_EQ(c1.covers, c2.covers) << "op " << op;
      for (const auto& c : c1.covers) partial_covers += c.retired ? 0 : 1;
    }
  }
  // The random forest's overlapping and spanning regions must exercise
  // accumulated coverage, not only single-writer retirement.
  EXPECT_GT(partial_covers, 0u);
  EXPECT_EQ(linear.dependences_found(), indexed.dependences_found());
  EXPECT_EQ(linear.pairs_scanned(), indexed.pairs_scanned());
  EXPECT_EQ(linear.pairs_tested(), linear.pairs_scanned());
  EXPECT_LE(indexed.pairs_tested(), linear.pairs_tested());
  EXPECT_GT(indexed.index_queries(), 0u);
  // Rebuilds merged tails into the previous trees along the way.
  EXPECT_GT(indexed.index_rebuilds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependenceIndexEquivalence,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace cr::rt
