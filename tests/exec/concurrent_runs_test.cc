// Independent executions on concurrent host threads. Two runs of
// different apps, each on its own std::thread, must each produce exactly
// its serial result: makespan and metrics snapshot. Executions share
// only process-global state — the function-static rt::MapperRegistry,
// support/log's threshold, the sim::Pool depots — and thread-locals
// (the simulator's execution context, the pools' per-thread caches, the
// tracer's lane), so this is the audit that sweep points may run
// concurrently. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "apps/circuit/circuit.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"

namespace cr::exec {
namespace {

// Stencil with CR, traced, under the race checker and a non-default
// mapper policy.
ExecutionResult run_stencil() {
  CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/false));
  apps::stencil::Config cfg;
  cfg.nodes = 4;
  cfg.tasks_per_node = 2;
  cfg.tile_x = 16;
  cfg.tile_y = 16;
  cfg.steps = 3;
  ir::Program program = apps::stencil::build(rt, cfg).program;
  for (auto& t : program.tasks) t.kernel = nullptr;
  ExecConfig ec;
  ec.cost = cost;
  ec.mode = ExecMode::kSpmd;
  ec.check = true;
  ec.mapper.name = "balanced";
  PreparedRun run = prepare(rt, std::move(program), ec);
  run.engine->enable_trace();
  return run.run();
}

// Circuit without CR, with the dependence tracker and trace replay.
ExecutionResult run_circuit() {
  CostModel cost;
  cost.track_dependences = true;
  rt::Runtime rt(runtime_config(2, 4, cost, /*real_data=*/false));
  apps::circuit::Config cfg;
  cfg.nodes = 2;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 16;
  cfg.wires_per_piece = 32;
  cfg.steps = 3;
  ir::Program program = apps::circuit::build(rt, cfg).program;
  for (auto& t : program.tasks) t.kernel = nullptr;
  ExecConfig ec;
  ec.cost = cost;
  ec.mode = ExecMode::kImplicit;
  ec.trace_replay = true;
  return prepare(rt, std::move(program), ec).run();
}

TEST(ConcurrentRuns, TwoAppsOnTwoThreadsMatchTheirSerialRuns) {
  const ExecutionResult stencil_serial = run_stencil();
  const ExecutionResult circuit_serial = run_circuit();
  ASSERT_NE(stencil_serial.check, nullptr);
  ASSERT_TRUE(stencil_serial.check->ok());

  ExecutionResult stencil, circuit;
  std::thread a([&] { stencil = run_stencil(); });
  std::thread b([&] { circuit = run_circuit(); });
  a.join();
  b.join();

  EXPECT_EQ(stencil.makespan_ns, stencil_serial.makespan_ns);
  EXPECT_EQ(stencil.metrics, stencil_serial.metrics);
  ASSERT_NE(stencil.check, nullptr);
  EXPECT_TRUE(stencil.check->ok());
  EXPECT_EQ(circuit.makespan_ns, circuit_serial.makespan_ns);
  EXPECT_EQ(circuit.metrics, circuit_serial.metrics);
}

}  // namespace
}  // namespace cr::exec
