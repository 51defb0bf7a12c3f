// Compiles the figure bench's source into this translation unit, with
// its main() renamed, so that its make_config() is the one calibration
// of the circuit problem for both the bench and this benchmark.
#include <chrono>
#include <cstdio>

#include "apps/circuit/circuit.h"
#include "calibration.h"
#include "common.h"
#include "mapper_matrix.h"

#define main perfbench_bench_fig9_circuit_main
#include "bench_fig9_circuit.cc"
#undef main

namespace cr::perfbench {

apps::circuit::Config circuit_config(uint32_t nodes, uint64_t steps) {
  return make_config(nodes, steps);
}

}  // namespace cr::perfbench
