// Host-speedup measurement for the windowed multi-worker DES backend:
// run an app at a fixed node count under the legacy sequential event
// loop (workers=0) and under the windowed backend at increasing worker
// counts, timing each run's host wall clock. All windowed runs must
// report identical makespans (the determinism contract); the tool exits
// nonzero if they diverge, or — with --require-speedup — if the largest
// worker count fails to beat one worker by the given factor.
//
// Timing is warmup + median-of-N: the first (warmup) run per
// configuration is discarded (page faults, allocator growth, frequency
// ramp) and the run time reported is the median of the following
// --reps measurements, so the CI speedup gate tolerates shared-runner
// noise.
//
//   parallel_speedup [--app=stencil|circuit|pennant|miniaero]
//                    [--nodes=<n>] [--steps=<n>]
//                    [--max-workers=<n>] [--reps=<n>] [--warmup=<n>]
//                    [--pin] [--json=<path>]
//                    [--require-speedup=<x>] [--host-trace=<path>]
//                    [--host-report=<path>]
//
// --json writes a bench_diff-compatible document: one series per worker
// count ("w0" = legacy loop, "wN" = windowed), a single point at the
// node count, with wall-clock results under "host." metric keys (gated
// by bench_diff --host) and context under "info." keys (never gated).
// When any artifact is requested, each windowed worker count gets one
// extra host-profiled run *after* its timed reps (so profiling overhead
// never pollutes the speedup numbers); its serial fraction and
// per-phase breakdown land in the JSON as info.* keys — explaining why
// a speedup number moved, not just that it did. --host-trace /
// --host-report additionally write the top worker count's host Chrome
// trace and HOST_phases report (the tools/window_report input).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "support/host_clock.h"

namespace {

struct ToolOptions {
  std::string app = "stencil";
  uint32_t nodes = 64;
  uint64_t steps = 8;
  uint32_t max_workers = 4;
  uint32_t reps = 3;
  uint32_t warmup = 1;
  bool pin = false;
  std::string json_path;
  std::string host_trace_path;
  std::string host_report_path;
  double require_speedup = 0;  // 0 = report only

  bool want_profile() const {
    return !json_path.empty() || !host_trace_path.empty() ||
           !host_report_path.empty();
  }
};

struct Measured {
  uint32_t workers = 0;  // 0 = legacy sequential loop
  cr::sim::Time makespan_ns = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  // Setup (runtime construction + program build + prepare) and the run
  // itself are timed in separate steady_clock windows: the speedup
  // denominator must only contain work the worker count can affect.
  // run_seconds is the median over reps; setup_seconds the median of the
  // same runs' setup phases.
  double setup_seconds = 0;
  double run_seconds = 0;
  uint32_t reps = 0;
  // Host-phase profile from the extra (untimed) profiled run.
  std::shared_ptr<cr::support::HostProfile> profile;
};

struct OneRun {
  cr::sim::Time makespan_ns = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  double setup_seconds = 0;
  double run_seconds = 0;
  std::shared_ptr<cr::support::HostProfile> profile;
};

OneRun run_once(const ToolOptions& opt, uint32_t workers,
                bool profile = false) {
  const auto setup_begin = std::chrono::steady_clock::now();
  cr::exec::CostModel cost = cr::exec::CostModel::piz_daint();
  cost.track_dependences = false;
  cr::rt::Runtime rt(
      cr::exec::runtime_config(opt.nodes, 12, cost, /*real_data=*/false));
  cr::ir::Program program;
  if (opt.app == "circuit") {
    cr::apps::circuit::Config cfg;
    cfg.nodes = opt.nodes;
    cfg.pieces_per_node = 4;
    cfg.nodes_per_piece = 32;
    cfg.wires_per_piece = 64;
    cfg.steps = opt.steps;
    program = cr::apps::circuit::build(rt, cfg).program;
  } else if (opt.app == "pennant") {
    cr::apps::pennant::Config cfg;
    cfg.nodes = opt.nodes;
    cfg.pieces_per_node = 2;
    cfg.zones_x_per_piece = 12;
    cfg.zones_y = 12;
    cfg.steps = opt.steps;
    program = cr::apps::pennant::build(rt, cfg).program;
  } else if (opt.app == "miniaero") {
    cr::apps::miniaero::Config cfg;
    cfg.nodes = opt.nodes;
    cfg.pieces_per_node = 2;
    cfg.cells_x_per_piece = 6;
    cfg.cells_y = 8;
    cfg.cells_z = 8;
    cfg.steps = opt.steps;
    program = cr::apps::miniaero::build(rt, cfg).program;
  } else {
    cr::apps::stencil::Config cfg;
    cfg.nodes = opt.nodes;
    cfg.tasks_per_node = 4;
    cfg.tile_x = 32;
    cfg.tile_y = 32;
    cfg.steps = opt.steps;
    program = cr::apps::stencil::build(rt, cfg).program;
  }
  for (auto& t : program.tasks) t.kernel = nullptr;
  cr::exec::ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = cr::exec::ExecMode::kSpmd;
  ecfg.workers = workers;
  ecfg.pin_workers = opt.pin;
  ecfg.host_profile = profile && workers >= 1;
  cr::exec::PreparedRun run = cr::exec::prepare(rt, std::move(program), ecfg);
  const auto run_begin = std::chrono::steady_clock::now();
  const cr::exec::ExecutionResult res = run.run();
  const auto run_end = std::chrono::steady_clock::now();
  OneRun out;
  out.makespan_ns = res.makespan_ns;
  out.profile = res.host_profile;
  auto metric = [&res](const char* key) -> uint64_t {
    auto it = res.metrics.find(key);
    return it != res.metrics.end() ? static_cast<uint64_t>(it->second) : 0;
  };
  out.events = metric("sim.events_processed");
  out.windows = metric("sim.windows");
  out.setup_seconds =
      std::chrono::duration<double>(run_begin - setup_begin).count();
  out.run_seconds = std::chrono::duration<double>(run_end - run_begin).count();
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Measured measure(const ToolOptions& opt, uint32_t workers) {
  Measured out;
  out.workers = workers;
  out.reps = opt.reps;
  for (uint32_t i = 0; i < opt.warmup; ++i) (void)run_once(opt, workers);
  std::vector<double> setup, runs;
  for (uint32_t i = 0; i < opt.reps; ++i) {
    const OneRun r = run_once(opt, workers);
    if (i == 0) {
      out.makespan_ns = r.makespan_ns;
      out.events = r.events;
      out.windows = r.windows;
    } else if (r.makespan_ns != out.makespan_ns) {
      std::fprintf(stderr,
                   "FAIL: makespan diverged across reps at workers=%u\n",
                   workers);
      std::exit(1);
    }
    setup.push_back(r.setup_seconds);
    runs.push_back(r.run_seconds);
  }
  out.setup_seconds = median(setup);
  out.run_seconds = median(runs);
  // One extra profiled run, after the timed reps so the profiler's
  // clock reads never touch the timing. The profiled run must replay
  // the same makespan — profiling is virtual-time-neutral by contract.
  if (workers >= 1 && opt.want_profile()) {
    const OneRun r = run_once(opt, workers, /*profile=*/true);
    if (r.makespan_ns != out.makespan_ns) {
      std::fprintf(stderr,
                   "FAIL: host-profiled run changed the makespan at "
                   "workers=%u\n",
                   workers);
      std::exit(1);
    }
    out.profile = r.profile;
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--app=stencil|circuit|pennant|miniaero]\n"
      "          [--nodes=<n>] [--steps=<n>]\n"
      "          [--max-workers=<n>] [--reps=<n>] [--warmup=<n>] [--pin]\n"
      "          [--json=<path>] [--require-speedup=<x>]\n"
      "          [--host-trace=<path>] [--host-report=<path>]\n",
      argv0);
  return 2;
}

void write_json(const ToolOptions& opt, const std::vector<Measured>& runs,
                double w1_run_seconds) {
  FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"app\": \"%s\",\n", opt.app.c_str());
  std::fprintf(f, "  \"steps\": %llu,\n",
               static_cast<unsigned long long>(opt.steps));
  std::fprintf(f, "  \"pin\": %s,\n", opt.pin ? "true" : "false");
  std::fprintf(f, "  \"series\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Measured& m = runs[i];
    const double evps =
        m.run_seconds > 0 ? static_cast<double>(m.events) / m.run_seconds : 0;
    // "host.slowdown_vs_w1" rather than speedup: bench_diff gates growth,
    // and the quantity that must not grow is how much slower this worker
    // count is than one worker. Dimensionless, so it is comparable
    // across runner hardware in a way raw seconds are not.
    const double slowdown =
        w1_run_seconds > 0 && m.run_seconds > 0
            ? m.run_seconds / w1_run_seconds
            : 0;
    std::fprintf(f, "    {\"name\": \"w%u\", \"points\": [\n", m.workers);
    std::fprintf(f, "      {\"nodes\": %u,\n", opt.nodes);
    std::fprintf(f, "       \"makespan_ns\": %llu,\n",
                 static_cast<unsigned long long>(m.makespan_ns));
    std::fprintf(f, "       \"metrics\": {\n");
    std::fprintf(f, "         \"host.run_seconds\": %.6f,\n", m.run_seconds);
    std::fprintf(f, "         \"host.setup_seconds\": %.6f,\n",
                 m.setup_seconds);
    std::fprintf(f, "         \"host.slowdown_vs_w1\": %.4f,\n", slowdown);
    std::fprintf(f, "         \"info.events_per_sec\": %.1f,\n", evps);
    std::fprintf(f, "         \"info.windows\": %llu,\n",
                 static_cast<unsigned long long>(m.windows));
    if (m.profile != nullptr) {
      // Why the number moved: the measured serial fraction and where
      // the host cycles went, from the extra profiled run. info.* keys
      // are context — bench_diff never gates them.
      std::fprintf(f, "         \"info.serial_fraction\": %.6f,\n",
                   m.profile->serial_fraction);
      for (size_t p = 0; p < cr::support::kNumHostPhases; ++p) {
        std::fprintf(f, "         \"info.phase.%s_ns\": %.0f,\n",
                     cr::support::host_phase_name(
                         static_cast<cr::support::HostPhase>(p)),
                     m.profile->phase_ns[p]);
      }
    }
    std::fprintf(f, "         \"info.reps\": %u\n", m.reps);
    std::fprintf(f, "       }}\n");
    std::fprintf(f, "    ]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&arg](const char* prefix) {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--app=", 0) == 0) {
      opt.app = val("--app=");
      if (opt.app != "stencil" && opt.app != "circuit" &&
          opt.app != "pennant" && opt.app != "miniaero") {
        return usage(argv[0]);
      }
    } else if (arg.rfind("--nodes=", 0) == 0) {
      opt.nodes = static_cast<uint32_t>(std::atoi(val("--nodes=")));
    } else if (arg.rfind("--steps=", 0) == 0) {
      opt.steps = static_cast<uint64_t>(std::atoll(val("--steps=")));
    } else if (arg.rfind("--max-workers=", 0) == 0) {
      opt.max_workers =
          static_cast<uint32_t>(std::atoi(val("--max-workers=")));
    } else if (arg.rfind("--reps=", 0) == 0) {
      opt.reps = static_cast<uint32_t>(std::atoi(val("--reps=")));
      if (opt.reps == 0) return usage(argv[0]);
    } else if (arg.rfind("--warmup=", 0) == 0) {
      opt.warmup = static_cast<uint32_t>(std::atoi(val("--warmup=")));
    } else if (arg == "--pin") {
      opt.pin = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = val("--json=");
    } else if (arg.rfind("--host-trace=", 0) == 0) {
      opt.host_trace_path = val("--host-trace=");
    } else if (arg.rfind("--host-report=", 0) == 0) {
      opt.host_report_path = val("--host-report=");
    } else if (arg.rfind("--require-speedup=", 0) == 0) {
      opt.require_speedup = std::atof(val("--require-speedup="));
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<Measured> runs;
  runs.push_back(measure(opt, 0));  // legacy reference loop
  for (uint32_t w = 1; w <= opt.max_workers; w *= 2) {
    runs.push_back(measure(opt, w));
  }

  std::printf("%s, %u nodes, %llu steps%s, median of %u\n",
              opt.app.c_str(), opt.nodes,
              static_cast<unsigned long long>(opt.steps),
              opt.pin ? ", pinned" : "", opt.reps);
  std::printf("%-10s %16s %10s %12s %12s %10s %12s\n", "backend",
              "makespan_ns", "windows", "setup_s", "run_s", "speedup",
              "events/s");
  double windowed1 = 0;
  for (const Measured& m : runs) {
    if (m.workers == 1) windowed1 = m.run_seconds;
  }
  bool diverged = false;
  cr::sim::Time windowed_makespan = 0;
  double top_speedup = 0;
  uint32_t top_workers = 0;
  for (const Measured& m : runs) {
    const std::string name =
        m.workers == 0 ? "legacy" : "workers=" + std::to_string(m.workers);
    const double speedup =
        m.workers >= 1 && m.run_seconds > 0 ? windowed1 / m.run_seconds : 0;
    const double evps =
        m.run_seconds > 0 ? static_cast<double>(m.events) / m.run_seconds : 0;
    std::printf("%-10s %16llu %10llu %12.3f %12.3f %10.2f %12.0f\n",
                name.c_str(),
                static_cast<unsigned long long>(m.makespan_ns),
                static_cast<unsigned long long>(m.windows),
                m.setup_seconds, m.run_seconds, speedup, evps);
    if (m.workers >= 1) {
      if (windowed_makespan == 0) windowed_makespan = m.makespan_ns;
      if (m.makespan_ns != windowed_makespan) diverged = true;
      if (m.workers >= top_workers) {
        top_workers = m.workers;
        top_speedup = speedup;
      }
    }
  }
  if (!opt.json_path.empty()) write_json(opt, runs, windowed1);
  // Host artifacts come from the largest worker count's profiled run —
  // the configuration the CI serial-fraction ratchet watches.
  const Measured* top_profiled = nullptr;
  for (const Measured& m : runs) {
    if (m.profile != nullptr &&
        (top_profiled == nullptr || m.workers > top_profiled->workers)) {
      top_profiled = &m;
    }
  }
  if (top_profiled != nullptr) {
    std::printf("workers=%u serial fraction: %.4f over %llu windows\n",
                top_profiled->workers, top_profiled->profile->serial_fraction,
                (unsigned long long)top_profiled->profile->windows);
    if (!opt.host_trace_path.empty()) {
      top_profiled->profile->write_chrome_json(opt.host_trace_path);
      std::printf("wrote %s\n", opt.host_trace_path.c_str());
    }
    if (!opt.host_report_path.empty()) {
      top_profiled->profile->write_json(opt.host_report_path, opt.app);
      std::printf("wrote %s\n", opt.host_report_path.c_str());
    }
  }
  if (diverged) {
    std::fprintf(stderr,
                 "FAIL: windowed makespans diverged across worker counts\n");
    return 1;
  }
  if (opt.require_speedup > 0 && top_speedup < opt.require_speedup) {
    std::fprintf(stderr,
                 "FAIL: speedup at workers=%u is %.2fx, required %.2fx\n",
                 top_workers, top_speedup, opt.require_speedup);
    return 1;
  }
  return 0;
}
