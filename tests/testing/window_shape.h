// Shared test helper: the metrics that depend on the windowed backend's
// synchronization schedule rather than on the simulated timeline — the
// boundary-sampled queue-depth gauge and the window count. They differ
// between the sequential loop and the windowed backend; everything else
// must not.
#pragma once

#include <map>
#include <string>

namespace cr::testing {

inline std::map<std::string, double> without_window_shape(
    std::map<std::string, double> m) {
  m.erase("sim.queue.max_depth");
  m.erase("sim.windows");
  return m;
}

}  // namespace cr::testing
