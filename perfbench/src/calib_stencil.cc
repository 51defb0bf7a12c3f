// Compiles the figure bench's source into this translation unit, with
// its main() renamed, so that its make_config() is the one calibration
// of the stencil problem for both the bench and this benchmark.
#include <chrono>
#include <cstdio>

#include "apps/stencil/stencil.h"
#include "calibration.h"
#include "common.h"
#include "mapper_matrix.h"

#define main perfbench_bench_fig6_stencil_main
#include "bench_fig6_stencil.cc"
#undef main

namespace cr::perfbench {

apps::stencil::Config stencil_config(uint32_t nodes, uint64_t steps) {
  return make_config(nodes, steps);
}

}  // namespace cr::perfbench
