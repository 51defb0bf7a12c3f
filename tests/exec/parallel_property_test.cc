// Property test for the windowed multi-worker backend: for randomized
// small IR programs (the fuzz generator's region/partition/task soup),
// every worker count must replay the exact per-node event execution
// order of the single-worker windowed run — not just the same final
// metrics. The ExecRecord log (sim::Simulator::set_exec_log) is the
// witness: one lane per simulated node plus the global lane, each entry
// the (time, creator, cseq) key the scheduler ordered by.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/implicit_exec.h"
#include "support/rng.h"
#include "testing/random_program.h"
#include "testing/window_shape.h"

namespace cr::exec {
namespace {

using testing::RandomProgram;
using testing::make_random_program;
using testing::without_window_shape;

struct WitnessedRun {
  std::vector<std::vector<sim::ExecRecord>> log;
  ExecutionResult result;
};

WitnessedRun run_witnessed(uint64_t seed, uint32_t workers) {
  support::Rng rng(seed * 9176 + 3);
  const uint32_t nodes = 2 + static_cast<uint32_t>(rng.next_below(3));
  const uint64_t colors = nodes + rng.next_below(nodes + 1);

  CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(nodes, 3, cost, /*real_data=*/false));
  support::Rng rng_prog = rng.split(1);
  RandomProgram rp = make_random_program(rt.forest(), rng_prog, colors);
  for (auto& t : rp.program.tasks) t.kernel = nullptr;

  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kSpmd;
  cfg.workers = workers;
  PreparedRun run = prepare(rt, rp.program, cfg);
  WitnessedRun out;
  rt.sim().set_exec_log(&out.log);
  out.result = run.run();
  rt.sim().set_exec_log(nullptr);
  return out;
}

class ParallelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelProperty, WorkerCountsReplayIdenticalEventOrders) {
  const uint64_t seed = GetParam();
  const WitnessedRun ref = run_witnessed(seed, 1);
  ASSERT_FALSE(ref.log.empty());
  size_t total = 0;
  for (const auto& lane : ref.log) total += lane.size();
  ASSERT_GT(total, 0u) << "seed " << seed << ": nothing executed";

  for (const uint32_t workers : {2u, 4u}) {
    const WitnessedRun res = run_witnessed(seed, workers);
    ASSERT_EQ(res.log.size(), ref.log.size())
        << "seed " << seed << " workers=" << workers;
    for (size_t lane = 0; lane < ref.log.size(); ++lane) {
      EXPECT_EQ(res.log[lane], ref.log[lane])
          << "seed " << seed << " workers=" << workers << " lane " << lane;
    }
    EXPECT_EQ(res.result.makespan_ns, ref.result.makespan_ns)
        << "seed " << seed << " workers=" << workers;
    EXPECT_EQ(res.result.metrics, ref.result.metrics)
        << "seed " << seed << " workers=" << workers;
  }
}

// The per-lane horizons are a synchronization schedule, not a semantic
// input: every windowed run, at every worker count, must reproduce the
// sequential reference loop's timeline — makespan and metrics, minus
// the window-shape gauges. A violation of the horizon's
// conservative-safety invariant (a cross-node message landing inside a
// lane's already-executed past, or a lane clock moving backwards) aborts
// via CR_CHECK, so these seeds double as a randomized soundness probe
// for the fixed point in Simulator::compute_window_ends: the random
// programs exercise cross-node send/react feedback chains, scalar
// reductions through collectives, and region reductions the four paper
// apps don't.
TEST_P(ParallelProperty, AdaptiveWindowsReplayReferenceOrders) {
  const uint64_t seed = GetParam();
  const WitnessedRun ref = run_witnessed(seed, 0);
  ASSERT_GT(ref.result.makespan_ns, 0u) << "seed " << seed;
  for (const uint32_t workers : {1u, 2u, 4u}) {
    const WitnessedRun res = run_witnessed(seed, workers);
    const std::string where =
        "seed " + std::to_string(seed) + " workers=" + std::to_string(workers);
    EXPECT_EQ(res.result.makespan_ns, ref.result.makespan_ns) << where;
    EXPECT_EQ(without_window_shape(res.result.metrics),
              without_window_shape(ref.result.metrics))
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelProperty,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace cr::exec
