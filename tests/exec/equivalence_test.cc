// End-to-end correctness: for the Figure 2 program, implicit execution
// and control-replicated SPMD execution must produce exactly the data the
// sequential oracle produces, across machine shapes and pipeline options.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

struct Shape {
  uint32_t nodes;
  uint64_t elements;
  uint64_t colors;
  uint64_t steps;
};

// Brute-force copy-pair counts of a transformed program: every dynamic
// execution of every copy statement issues each of its (src, dst)
// subregion pairs exactly once, whichever shard issues it. A copy
// restricted to an intersection table moves only its overlapping pairs;
// the all-pairs and root forms also pay for the empty ones, as skips.
struct PairCounts {
  uint64_t issued = 0;
  uint64_t skipped = 0;
};

std::vector<std::set<uint64_t>> copy_side(const rt::RegionForest& forest,
                                          rt::PartitionId part,
                                          rt::RegionId root) {
  std::vector<rt::RegionId> regions{root};
  if (part != rt::kNoId) regions = forest.partition(part).subregions;
  std::vector<std::set<uint64_t>> out;
  for (rt::RegionId r : regions) {
    std::set<uint64_t>& pts = out.emplace_back();
    forest.region(r).ispace.points().for_each_point(
        [&](uint64_t p) { pts.insert(p); });
  }
  return out;
}

void count_pairs(const rt::RegionForest& forest,
                 const std::vector<ir::Stmt>& body, uint64_t times,
                 PairCounts& out) {
  for (const ir::Stmt& s : body) {
    if (s.kind == ir::StmtKind::kForTime) {
      count_pairs(forest, s.body, times * s.trip_count, out);
    } else if (s.kind == ir::StmtKind::kShardBody) {
      count_pairs(forest, s.body, times, out);
    } else if (s.kind == ir::StmtKind::kCopy) {
      for (const auto& src : copy_side(forest, s.copy_src, s.src_root)) {
        for (const auto& dst : copy_side(forest, s.copy_dst, s.dst_root)) {
          const bool meet = std::any_of(
              src.begin(), src.end(), [&](uint64_t p) { return dst.count(p); });
          if (meet) {
            out.issued += times;
          } else if (s.isect == ir::kNoIntersect) {
            out.skipped += times;
          }
        }
      }
    }
  }
}

// With `result` set, also hands back the run's result and the
// program's brute-force pair counts.
struct OracleRun {
  ExecutionResult res;
  PairCounts pairs;
};

void expect_matches_oracle(const Shape& shape,
                           passes::PipelineOptions options, bool spmd,
                           OracleRun* result = nullptr) {
  rt::Runtime rt(runtime_config(shape.nodes, 4, CostModel{},
                                /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), shape.elements, shape.colors, shape.steps);
  SequentialResult oracle = run_sequential(fig.program);

  PreparedRun run = prepare(
      rt, fig.program,
      {.pipeline = options,
       .mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit});
  ExecutionResult res = run.run();
  EXPECT_GT(res.makespan_ns, 0u);
  EXPECT_GT(res.point_tasks, 0u);

  for (uint64_t p = 0; p < shape.elements; ++p) {
    ASSERT_EQ(run.engine->read_root_f64(fig.a, fig.fa, p),
              oracle.read_f64(fig.a, fig.fa, p))
        << "A[" << p << "] diverged";
    ASSERT_EQ(run.engine->read_root_f64(fig.b, fig.fb, p),
              oracle.read_f64(fig.b, fig.fb, p))
        << "B[" << p << "] diverged";
  }
  if (result != nullptr) {
    result->res = res;
    count_pairs(rt.forest(), run.program->body, 1, result->pairs);
  }
}

TEST(Equivalence, ImplicitMatchesOracle) {
  expect_matches_oracle({4, 48, 8, 3}, {}, /*spmd=*/false);
}

TEST(Equivalence, SpmdMatchesOracle) {
  expect_matches_oracle({4, 48, 8, 3}, {}, /*spmd=*/true);
}

TEST(Equivalence, SpmdSingleNode) {
  expect_matches_oracle({1, 24, 4, 2}, {}, /*spmd=*/true);
}

TEST(Equivalence, SpmdMoreShardsThanColorsWorks) {
  // More shards (one per node) than source colors: some shards own
  // nothing, so their copy-issue buckets are empty. Every pair must still
  // be issued exactly once. The makespans are pinned: issue bookkeeping
  // is host-side only and must never move the virtual timeline.
  struct Case {
    Shape shape;
    bool intersection_opt;
    sim::Time makespan_ns;
  };
  for (const Case& c : {Case{{8, 36, 6, 3}, true, 346782},
                        Case{{16, 40, 5, 3}, true, 312748},
                        Case{{16, 40, 5, 3}, false, 364238}}) {
    SCOPED_TRACE(std::to_string(c.shape.nodes) + " nodes, " +
                 std::to_string(c.shape.colors) + " colors, isect " +
                 std::to_string(c.intersection_opt));
    passes::PipelineOptions opt;
    opt.intersection_opt = c.intersection_opt;
    OracleRun run;
    expect_matches_oracle(c.shape, opt, /*spmd=*/true, &run);
    EXPECT_GT(run.pairs.issued, 0u);
    EXPECT_EQ(run.res.copies_issued, run.pairs.issued);
    EXPECT_EQ(run.res.copies_skipped, run.pairs.skipped);
    EXPECT_EQ(run.res.makespan_ns, c.makespan_ns);
  }
}

TEST(Equivalence, SpmdBarrierSync) {
  passes::PipelineOptions opt;
  opt.p2p_sync = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdNoIntersectionOpt) {
  passes::PipelineOptions opt;
  opt.intersection_opt = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdNoCopyPlacement) {
  passes::PipelineOptions opt;
  opt.copy_placement = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdFlatAliasing) {
  passes::PipelineOptions opt;
  opt.hierarchical = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdManyStepsManyShards) {
  expect_matches_oracle({16, 160, 16, 6}, {}, /*spmd=*/true);
}

// The headline property: CR exists to make SPMD *faster* than a single
// control thread at scale while staying equivalent. Check the scaling
// direction on a virtual-only run large enough for the control
// bottleneck to bite.
TEST(Scaling, SpmdBeatsImplicitAtScale) {
  const uint32_t nodes = 64;
  auto run_mode = [&](bool spmd) {
    CostModel cost;
    cost.track_dependences = false;
    rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
    testing::Fig2 fig(rt.forest(), 64 * 64, nodes, 10);
    // Kill kernels: virtual-only.
    for (auto& t : fig.program.tasks) t.kernel = nullptr;
    PreparedRun run = prepare(
        rt, fig.program,
        {.cost = cost, .mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit});
    return run.run().makespan_ns;
  };
  const sim::Time implicit_ns = run_mode(false);
  const sim::Time spmd_ns = run_mode(true);
  EXPECT_LT(spmd_ns * 2, implicit_ns)
      << "control replication should win clearly at 64 nodes";
}

TEST(Stats, SpmdSkipsEmptyPairsWithIntersections) {
  rt::Runtime rt(runtime_config(4, 4, CostModel{}, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 64, 8, 2);
  PreparedRun run = prepare(rt, fig.program, {});
  ExecutionResult res = run.run();
  // The halo image only touches neighbor blocks: far fewer than 8x8
  // pairs per iteration move data.
  EXPECT_GT(res.intersection_pairs, 0u);
  EXPECT_LE(res.intersection_pairs, 3 * 8u);
}


// Control replication is a *local* transformation (paper §1): a program
// with two separate parallel phases split by a single task gets two
// independent shard launches, with data flowing between them through the
// parent regions — and still matches the oracle exactly.
TEST(MultiFragment, TwoLoopsSplitBySingleTaskMatchOracle) {
  rt::Runtime rt(runtime_config(4, 4, CostModel{}, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, 2);

  // Append: a single task on root A (not replicable), then another
  // parallel phase.
  ir::Program p = fig.program;
  ir::Stmt single;
  single.kind = ir::StmtKind::kSingleTask;
  single.task = fig.t_init;  // WD on A: rewrites A's master
  single.regions = {fig.a};
  single.label = "bump";
  p.body.push_back(single);
  ir::Stmt loop2;
  loop2.kind = ir::StmtKind::kForTime;
  loop2.trip_count = 2;
  {
    ir::Stmt tf;
    tf.kind = ir::StmtKind::kIndexLaunch;
    tf.task = fig.t_f;
    tf.launch_colors = 8;
    tf.args = p.body[1].body[0].args;  // PB rw, PA ro
    loop2.body.push_back(tf);
    ir::Stmt tg;
    tg.kind = ir::StmtKind::kIndexLaunch;
    tg.task = fig.t_g;
    tg.launch_colors = 8;
    tg.args = p.body[1].body[1].args;  // PA rw, QB ro
    loop2.body.push_back(tg);
  }
  p.body.push_back(loop2);

  SequentialResult oracle = run_sequential(p);
  PreparedRun run = prepare(rt, p, {});
  ASSERT_TRUE(run.report.applied) << run.report.failure;

  // Two shard bodies in the transformed program.
  size_t shard_bodies = 0;
  for (const ir::Stmt& s : run.program->body) {
    if (s.kind == ir::StmtKind::kShardBody) ++shard_bodies;
  }
  EXPECT_EQ(shard_bodies, 2u);

  run.run();
  for (uint64_t pt = 0; pt < 48; ++pt) {
    ASSERT_EQ(run.engine->read_root_f64(fig.a, fig.fa, pt),
              oracle.read_f64(fig.a, fig.fa, pt))
        << "A[" << pt << "]";
    ASSERT_EQ(run.engine->read_root_f64(fig.b, fig.fb, pt),
              oracle.read_f64(fig.b, fig.fb, pt))
        << "B[" << pt << "]";
  }
}

}  // namespace
}  // namespace cr::exec
