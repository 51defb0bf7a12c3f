// The figure benches' per-app calibrations (bench/bench_fig*.cc
// make_config), exposed to the benchmark so that it runs exactly
// the problem sizes that regenerate the paper instead of keeping a
// table of its own.
#pragma once

#include <cstdint>

#include "apps/circuit/circuit.h"
#include "apps/common/bsp.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"

namespace cr::perfbench {

apps::stencil::Config stencil_config(uint32_t nodes, uint64_t steps);
apps::pennant::Config pennant_config(uint32_t nodes, uint64_t steps);
apps::circuit::Config circuit_config(uint32_t nodes, uint64_t steps);

// The heavy-tailed task noise the PENNANT figure bench gives the Regent
// runs (bench_fig8_pennant.cc kNoiseMpi).
apps::Noise pennant_noise();

}  // namespace cr::perfbench
