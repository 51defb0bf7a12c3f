#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "calibration.h"
#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "passes/pipeline.h"
#include "rt/runtime.h"
#include "support/check.h"
#include "support/host_clock.h"

namespace cr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Why each workload is here: see README.md.
const std::vector<Workload> kWorkloads = {
    {"stencil-cr-512", App::kStencil, exec::ExecMode::kSpmd,
     /*nodes=*/512, /*steps=*/6, /*workers=*/0,
     /*track_dependences=*/false, /*seeded=*/false},
    {"pennant-cr-w1", App::kPennant, exec::ExecMode::kSpmd,
     /*nodes=*/256, /*steps=*/6, /*workers=*/1,
     /*track_dependences=*/false, /*seeded=*/false},
    {"circuit-nocr-deps", App::kCircuit, exec::ExecMode::kImplicit,
     /*nodes=*/64, /*steps=*/6, /*workers=*/0,
     /*track_dependences=*/true, /*seeded=*/true},
};

// Cores per simulated node, as in the figure benches (one runtime core
// plus 11 compute cores).
constexpr uint32_t kCoresPerNode = 12;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The cost model of the figure bench's run_engine() for this app.
exec::CostModel cost_model(const Workload& w) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  cost.track_dependences = w.track_dependences;
  switch (w.app) {
    case App::kStencil:
      cost.implicit_launch_ns = 2.0e6;
      break;
    case App::kPennant: {
      cost.implicit_launch_ns = 330000;
      const apps::Noise noise = pennant_noise();
      cost.task_slow_prob = noise.slow_prob;
      cost.task_slow_frac = noise.slow_frac;
      break;
    }
    case App::kCircuit:
      cost.implicit_launch_ns = 300000;
      break;
  }
  return cost;
}

exec::ExecConfig exec_config(const Workload& w, const exec::CostModel& cost) {
  exec::ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = w.mode;
  cfg.workers = w.workers;
  return cfg;
}

ir::Program build_program(const Workload& w, rt::Runtime& rt,
                          uint64_t seed) {
  switch (w.app) {
    case App::kStencil:
      return apps::stencil::build(rt, stencil_config(w.nodes, w.steps))
          .program;
    case App::kPennant:
      return apps::pennant::build(rt, pennant_config(w.nodes, w.steps))
          .program;
    case App::kCircuit: {
      apps::circuit::Config cfg = circuit_config(w.nodes, w.steps);
      cfg.seed = seed;
      return apps::circuit::build(rt, cfg).program;
    }
  }
  CR_CHECK_MSG(false, "unknown app");
  return {};
}

// Virtual-only runs carry no kernels, as in the figure benches.
void strip_kernels(ir::Program& program) {
  for (auto& t : program.tasks) t.kernel = nullptr;
}

// Records the traced run's spans, in seconds since construction.
class SpanLog {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.t1_s = now();
    return s.t1_s - s.t0_s;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunOutput timed_run(const Workload& w, uint64_t seed, bool setup_only) {
  RunOutput out;
  const exec::CostModel cost = cost_model(w);
  const Clock::time_point t0 = Clock::now();
  rt::Runtime rt(exec::runtime_config(w.nodes, kCoresPerNode, cost,
                                      /*real_data=*/false));
  ir::Program program = build_program(w, rt, seed);
  strip_kernels(program);
  exec::PreparedRun run =
      exec::prepare(rt, std::move(program), exec_config(w, cost));
  const Clock::time_point t1 = Clock::now();
  out.times.setup_s = seconds_between(t0, t1);
  if (setup_only) return out;
  out.result = run.run();
  out.times.run_s = seconds_between(t1, Clock::now());
  return out;
}

RunOutput traced_run(const Workload& w, uint64_t seed,
                     bool aggregate_profile) {
  RunOutput out;
  const exec::CostModel cost = cost_model(w);
  exec::ExecConfig cfg = exec_config(w, cost);
  SpanLog log;
  const int root = log.open(w.name, -1);

  int span = log.open("rt.runtime_init", root);
  rt::Runtime rt(exec::runtime_config(w.nodes, kCoresPerNode, cost,
                                      /*real_data=*/false));
  out.layers.runtime_init_s = log.close(span);

  span = log.open("apps.build", root);
  ir::Program source = build_program(w, rt, seed);
  strip_kernels(source);
  out.layers.build_s = log.close(span);

  // The steps of exec::prepare, one layer at a time. run.py checks
  // that this run reproduces the makespan and metrics snapshot of an
  // untraced run through exec::prepare.
  span = log.open("passes.compile", root);
  cfg.pipeline.metrics = &rt.metrics();
  auto program = std::make_unique<ir::Program>(std::move(source));
  passes::PipelineReport report;
  if (cfg.mode == exec::ExecMode::kSpmd) {
    cfg.pipeline.num_shards = rt.machine().nodes();
    report = passes::control_replicate(*program, cfg.pipeline);
    CR_CHECK_MSG(report.applied, report.failure.c_str());
  } else {
    report = passes::prepare_distributed(*program, cfg.pipeline);
  }
  out.layers.compile_s = log.close(span);

  span = log.open("exec.engine_init", root);
  auto engine = std::make_unique<exec::Engine>(rt, *program, cfg);
  out.layers.engine_init_s = log.close(span);

  // The profiler is attached through the simulator rather than
  // ExecConfig::host_profile, which would aggregate it inside
  // Engine::run (see aggregate_profile).
  support::HostProfiler profiler;
  if (w.workers > 0) rt.sim().set_host_profiler(&profiler);
  span = log.open("exec.run", root);
  const uint64_t run_entry_ns = support::host_now_ns();
  out.result = engine->run();
  out.layers.run_s = log.close(span);
  out.layers.wall_s = log.close(root);
  if (w.workers > 0) {
    rt.sim().set_host_profiler(nullptr);
    out.layers.unroll_s =
        static_cast<double>(profiler.origin_ns() - run_entry_ns) * 1e-9;
    if (aggregate_profile) {
      out.profile =
          std::make_shared<support::HostProfile>(profiler.profile());
    }
  }

  out.times.setup_s = out.layers.runtime_init_s + out.layers.build_s +
                      out.layers.compile_s + out.layers.engine_init_s;
  out.times.run_s = out.layers.run_s;
  out.p2p_copies = report.p2p_copies;
  out.barriers = report.barriers;
  out.collectives = report.collectives;
  out.isect_tables = report.intersection_tables;
  out.spans = log.take();
  return out;
}

OracleOutcome oracle_check(const Workload& w, uint64_t seed,
                           bool inject_mismatch) {
  const exec::CostModel cost = cost_model(w);
  rt::Runtime rt(exec::runtime_config(w.nodes, kCoresPerNode, cost,
                                      /*real_data=*/true));
  ir::Program program = build_program(w, rt, seed);
  const exec::SequentialResult oracle = exec::run_sequential(program);
  exec::PreparedRun run = exec::prepare(rt, program, exec_config(w, cost));
  run.run();

  OracleOutcome out;
  bool inject = inject_mismatch;
  auto mismatch = [&out](const std::string& what, double expected,
                         double got) {
    if (!out.first_mismatch.empty()) return;
    char buf[64];
    std::snprintf(buf, sizeof buf, ": expected %.17g, got %.17g", expected,
                  got);
    out.first_mismatch = what + buf;
  };
  auto compare_f64 = [&](double expected, double got,
                         const std::string& what) {
    if (std::exchange(inject, false)) got += 1.0;
    ++out.values_compared;
    const double err = std::fabs(expected - got);
    if (!(err <= 1e-9 * std::max(1.0, std::fabs(expected)))) {
      mismatch(what, expected, got);
    }
    if (!std::isnan(err)) out.max_abs_err = std::max(out.max_abs_err, err);
  };
  auto compare_i64 = [&](int64_t expected, int64_t got,
                         const std::string& what) {
    if (std::exchange(inject, false)) got += 1;
    ++out.values_compared;
    if (expected != got) {
      mismatch(what, static_cast<double>(expected),
               static_cast<double>(got));
    }
  };
  auto where = [](rt::RegionId root, rt::FieldId field, uint64_t point) {
    return "region " + std::to_string(root) + " field " +
           std::to_string(field) + " point " + std::to_string(point);
  };
  for (const auto& [root, store] : oracle.stores_) {
    const uint64_t n = store.domain->size();
    for (const auto& [field, column] : store.f64) {
      for (uint64_t r = 0; r < n; ++r) {
        const uint64_t p = store.domain->point_at(r);
        compare_f64(column[r], run.engine->read_root_f64(root, field, p),
                    where(root, field, p));
      }
    }
    for (const auto& [field, column] : store.i64) {
      for (uint64_t r = 0; r < n; ++r) {
        const uint64_t p = store.domain->point_at(r);
        compare_i64(column[r], run.engine->read_root_i64(root, field, p),
                    where(root, field, p));
      }
    }
  }
  for (size_t id = 0; id < oracle.scalars_.size(); ++id) {
    const auto sid = static_cast<ir::ScalarId>(id);
    compare_f64(oracle.scalar(sid), run.engine->scalar(sid),
                "scalar " + std::to_string(id));
  }
  out.ok = out.first_mismatch.empty() && out.values_compared > 0;
  return out;
}

}  // namespace cr::perfbench
