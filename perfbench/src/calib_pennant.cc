// Compiles the figure bench's source into this translation unit, with
// its main() renamed, so that its make_config() is the one calibration
// of the pennant problem for both the bench and this benchmark.
#include <chrono>
#include <cstdio>

#include "apps/pennant/pennant.h"
#include "calibration.h"
#include "common.h"
#include "mapper_matrix.h"

#define main perfbench_bench_fig8_pennant_main
#include "bench_fig8_pennant.cc"
#undef main

namespace cr::perfbench {

apps::pennant::Config pennant_config(uint32_t nodes, uint64_t steps) {
  return make_config(nodes, steps);
}

apps::Noise pennant_noise() { return kNoiseMpi; }

}  // namespace cr::perfbench
