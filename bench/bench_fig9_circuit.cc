// Figure 9: weak scaling for Circuit (sparse circuit simulation on a
// random graph, 100k edges + 25k vertices per node). Series: Regent
// (with CR) and Regent (w/o CR) — the paper has no MPI reference for
// this application.
#include <cstdio>

#include "apps/circuit/circuit.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
using apps::circuit::Config;

constexpr double kPaperNodesPerMachineNode = 25000.0;

Config make_config(uint32_t nodes, uint64_t steps) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;  // one piece per compute core
  cfg.nodes_per_piece = 128;
  cfg.wires_per_piece = 512;
  cfg.pct_cross = 0.05;
  cfg.window = 2;
  cfg.steps = steps;
  // Paper single-node rate ~80e3 graph nodes/s => ~0.31 s per iteration
  // per machine node; the CNC + DC wire loops dominate.
  cfg.ns_per_wire =
      0.31e9 / (1.6 * static_cast<double>(cfg.wires_per_piece));
  cfg.ns_per_node = 0.2 * cfg.ns_per_wire;
  // Ghost voltage exchange: a few hundred shared nodes per piece in the
  // paper's graph; scale the per-element width to a ~1 MB/node/iter
  // exchange.
  cfg.voltage_virtual_bytes = 2048;
  return cfg;
}

ir::Program build_app(rt::Runtime& rt, uint32_t nodes, uint64_t steps) {
  return apps::circuit::build(rt, make_config(nodes, steps)).program;
}

// --mapper-matrix: the heterogeneous scenario with the cores
// oversubscribed (3 pieces per compute core).
int run_matrix(const bench::Bench& bench) {
  return bench::run_mapper_matrix(
      bench, /*nodes=*/8,
      [](rt::Runtime& rt, uint32_t nodes, uint64_t steps) {
        Config cfg = make_config(nodes, steps);
        cfg.pieces_per_node = 33;
        return apps::circuit::build(rt, cfg).program;
      });
}

}  // namespace

int main(int argc, char** argv) {
  cr::bench::Bench bench("circuit", argc, argv);
  if (bench.options().mapper_matrix) return run_matrix(bench);
  const std::vector<cr::bench::SeriesSpec> specs = cr::bench::regent_series(
      bench, {cr::bench::regent_cost(300000), 2, 5, build_app});
  const cr::bench::Sweep sweep = bench.sweep(
      "Figure 9: Circuit weak scaling (100k edges + 25k vertices/node)",
      "10^3 nodes/s per node", 1e3, kPaperNodesPerMachineNode, 1.0, specs);
  std::printf("%s\n", sweep.report.to_table().c_str());
  bench.write_analysis_json(sweep.report);
  bench.write_metrics_json(sweep.report);
  return bench.finish(sweep.records);
}
