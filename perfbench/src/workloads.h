// The benchmark's workloads and the runs it makes of them.
//
// Every run goes through the entry points the figure benches use:
// apps::<app>::build, exec::prepare and PreparedRun::run. A traced run
// makes the same calls as exec::prepare one layer at a time, so that
// each layer's public call can be timed from here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/exec_config.h"
#include "support/host_clock.h"

namespace cr::perfbench {

enum class App { kStencil, kPennant, kCircuit };

struct Workload {
  std::string name;
  App app = App::kStencil;
  exec::ExecMode mode = exec::ExecMode::kSpmd;
  uint32_t nodes = 0;
  uint64_t steps = 0;
  uint32_t workers = 0;
  bool track_dependences = false;
  // Only Circuit's random graph takes the seed; the Stencil and PENNANT
  // meshes are structured.
  bool seeded = false;
};

// Looks a workload up by name; null when there is none.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

// What one timed run of a workload measured.
struct RunTimes {
  double setup_s = 0;  // rt::Runtime construction through exec::prepare
  double run_s = 0;    // PreparedRun::run()
};

// Host seconds per layer of a traced run, each timed around the layer's
// public call.
struct LayerTimes {
  double runtime_init_s = 0;  // rt::Runtime construction
  double build_s = 0;         // apps::<app>::build
  double compile_s = 0;       // control_replicate / prepare_distributed
  double engine_init_s = 0;   // exec::Engine construction
  double run_s = 0;           // Engine::run
  double wall_s = 0;          // first to last of the above
  // Windowed backend only (< 0 otherwise): from entering Engine::run to
  // the start of the windowed drain, i.e. the engine's unroll.
  double unroll_s = -1;
};

// One span of a traced run: a call into a layer. parent is the index
// of the enclosing span, or -1.
struct Span {
  std::string name;
  double t0_s = 0;
  double t1_s = 0;
  int parent = -1;
};

struct RunOutput {
  exec::ExecutionResult result;
  RunTimes times;
  // Traced runs only.
  LayerTimes layers;
  std::vector<Span> spans;
  size_t p2p_copies = 0;
  size_t barriers = 0;
  size_t collectives = 0;
  size_t isect_tables = 0;
  // Windowed backend with aggregate_profile only.
  std::shared_ptr<support::HostProfile> profile;
};

// One untraced run with every instrumentation sink off: virtual-only
// data, kernels stripped, as in the figure benches. setup_only stops
// after exec::prepare.
RunOutput timed_run(const Workload& w, uint64_t seed, bool setup_only);

// One traced run: the same program, with each layer's call timed. On
// the windowed backend a support::HostProfiler records the backend's
// phases; aggregate_profile aggregates them into RunOutput::profile
// after the run. HostProfiler::profile() costs O(windows x spans), which
// is minutes at the full PENNANT size, so run.py aggregates only at a
// small node count.
RunOutput traced_run(const Workload& w, uint64_t seed,
                     bool aggregate_profile);

// The outcome of comparing a small real-data run of the workload's app
// and mode with exec::run_sequential.
struct OracleOutcome {
  bool ok = false;
  uint64_t values_compared = 0;
  double max_abs_err = 0;
  std::string first_mismatch;  // empty when ok
};

// Runs `w` (already shrunk to a small size by the caller) on real data
// and compares every root field and scalar with the sequential oracle.
// inject_mismatch perturbs one engine value first, to show that a
// mismatch is caught.
OracleOutcome oracle_check(const Workload& w, uint64_t seed,
                           bool inject_mismatch);

}  // namespace cr::perfbench
