// Figure 6: weak scaling for Stencil (PRK 2D star stencil, radius 2).
//
// Paper configuration: 40k^2 grid points per node, 12-core nodes; series
// Regent (with CR), Regent (w/o CR), MPI, MPI+OpenMP; MPI references run
// only at node counts with square process grids (even powers of two).
//
// The simulated problem is geometrically scaled down (11 tiles of 32^2
// per node, one tile per compute core) with per-point cost and per-halo-
// element width calibrated so that per-node iteration time and the
// communication/computation ratio match the paper's problem; throughput
// is reported in *paper-scale* points per second per node. See
// EXPERIMENTS.md for the calibration table.
#include <chrono>
#include <cstdio>

#include "apps/stencil/stencil.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
using apps::stencil::Config;

// Paper problem: 40000^2 points/node at ~1500e6 points/s/node.
constexpr double kPaperPointsPerNode = 40000.0 * 40000.0;
constexpr uint32_t kTilesPerNode = 11;  // one per compute core
constexpr uint64_t kTile = 32;

Config make_config(uint32_t nodes, uint64_t steps) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = kTilesPerNode;
  cfg.tile_x = kTile;
  cfg.tile_y = kTile;
  cfg.steps = steps;
  // Calibration: per-node per-iteration compute ~= 1.07 s (the paper's
  // single-node rate), spread over the scaled points; stencil + the two
  // increment launches weigh ~1.3x the base per-point cost.
  cfg.ns_per_point = 1.067e9 / static_cast<double>(kTile * kTile) / 1.15;
  // Halo width: the paper's node boundary is ~40000 x 2(radius) x 2 dirs
  // x 8 B ~= 2.6 MB/iter; our scaled ring moves ~5.5k elements per node.
  cfg.halo_virtual_bytes = 480;
  return cfg;
}

ir::Program build_app(rt::Runtime& rt, uint32_t nodes, uint64_t steps) {
  return apps::stencil::build(rt, make_config(nodes, steps)).program;
}

// --selftime dependence study: the implicit master's dynamic dependence
// analysis with the full tracker enabled, indexed vs exhaustive linear
// scan, plus trace capture & replay on top of the index. Virtual time
// is charged on pairs_scanned in every mode, so the makespans must be
// bit-identical; the index reduces how many exact conflict tests
// (pairs_tested) the host performs, and replay removes the steady-state
// remainder entirely. Returns false if any makespan diverged.
bool dependence_study(const bench::Bench& bench,
                      exec::ScalingReport& analysis_report) {
  if (!bench.options().selftime) return true;
  const uint32_t nodes = cr::bench::node_counts().back();
  // One implicit run with the tracker on; analysis.host_seconds is the
  // host wall-clock of the run itself (not of its preparation).
  auto run_one = [&](bool linear, bool replay, uint64_t steps) {
    exec::CostModel cost = exec::CostModel::piz_daint();
    cost.track_dependences = true;
    rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
    rt.deps().set_linear_scan(linear);
    ir::Program program = build_app(rt, nodes, steps);
    for (auto& t : program.tasks) t.kernel = nullptr;
    exec::ExecConfig ecfg = bench.config(exec::ExecMode::kImplicit, cost);
    // The study compares replay against plain indexing, so each leg
    // pins the flag regardless of --replay on the command line.
    ecfg.trace_replay = replay;
    exec::PreparedRun run = exec::prepare(rt, std::move(program), ecfg);
    const auto begin = std::chrono::steady_clock::now();
    exec::ExecutionResult res = run.run();
    res.analysis.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    return res;
  };
  // Each study run is one point of its own series in the analysis
  // artifact.
  auto add_series = [&](const char* name, const exec::ExecutionResult& r,
                        uint64_t iterations) {
    exec::ScalingPoint pt;
    pt.nodes = nodes;
    pt.seconds = exec::to_seconds(r.makespan_ns);
    pt.work_per_node = kPaperPointsPerNode;
    pt.iterations = static_cast<double>(iterations);
    pt.has_analysis = true;
    pt.analysis = r.analysis;
    analysis_report.series.push_back({name, {pt}});
  };
  std::fprintf(stderr, "  [dependence study] %u nodes...\n", nodes);
  const exec::ExecutionResult linear = run_one(true, false, 4);
  const exec::ExecutionResult indexed = run_one(false, false, 4);
  bool same = linear.makespan_ns == indexed.makespan_ns;
  const double drop =
      indexed.analysis.dep_pairs_tested > 0
          ? static_cast<double>(linear.analysis.dep_pairs_tested) /
                static_cast<double>(indexed.analysis.dep_pairs_tested)
          : 0;
  std::printf(
      "dependence study [implicit stencil, %u nodes, tracker on]\n"
      "  linear scan:\n%s  indexed:\n%s"
      "  pairs_tested reduction: %.1fx; makespans %s (%llu ns)\n\n",
      nodes, linear.analysis.to_text().c_str(),
      indexed.analysis.to_text().c_str(), drop,
      same ? "identical" : "DIFFER",
      static_cast<unsigned long long>(indexed.makespan_ns));
  add_series("dep-study linear", linear, 4);
  add_series("dep-study indexed", indexed, 4);

  // Replay study: indexed vs indexed+replay at two step counts. The
  // per-step difference isolates the steady state (capture warmup and
  // the init launches cancel out), which is where iterative apps spend
  // their time and where replay should drive pairs_tested to zero.
  const uint64_t lo = 6, hi = 22;
  std::fprintf(stderr, "  [replay study] %u nodes...\n", nodes);
  const exec::ExecutionResult idx_lo = run_one(false, false, lo);
  const exec::ExecutionResult idx_hi = run_one(false, false, hi);
  const exec::ExecutionResult rep_lo = run_one(false, true, lo);
  const exec::ExecutionResult rep_hi = run_one(false, true, hi);
  same = same && idx_lo.makespan_ns == rep_lo.makespan_ns &&
         idx_hi.makespan_ns == rep_hi.makespan_ns;
  auto steady = [&](const exec::ExecutionResult& l,
                    const exec::ExecutionResult& h) {
    return static_cast<double>(h.analysis.dep_pairs_tested -
                               l.analysis.dep_pairs_tested) /
           static_cast<double>(hi - lo);
  };
  const double idx_rate = steady(idx_lo, idx_hi);
  const double rep_rate = steady(rep_lo, rep_hi);
  auto metric = [&](const char* key) {
    auto it = rep_hi.metrics.find(key);
    return it == rep_hi.metrics.end() ? 0.0 : it->second;
  };
  std::printf(
      "replay study [implicit stencil, %u nodes, steps %llu vs %llu]\n"
      "  steady-state pairs_tested/step: indexed %.0f, replay %.0f",
      nodes, static_cast<unsigned long long>(lo),
      static_cast<unsigned long long>(hi), idx_rate, rep_rate);
  if (rep_rate > 0) {
    std::printf(" (%.1fx reduction)\n", idx_rate / rep_rate);
  } else {
    std::printf(" (fully replayed)\n");
  }
  std::printf(
      "  host seconds (%llu steps): indexed %.3f, replay %.3f\n"
      "  replay counters: captures=%.0f replays=%.0f invalidations=%.0f "
      "pairs_skipped=%.0f\n"
      "  makespans %s\n\n",
      static_cast<unsigned long long>(hi), idx_hi.analysis.host_seconds,
      rep_hi.analysis.host_seconds, metric("exec.replay.captures"),
      metric("exec.replay.replays"), metric("exec.replay.invalidations"),
      metric("exec.replay.pairs_skipped"), same ? "identical" : "DIFFER");
  add_series("replay-study indexed", idx_hi, hi);
  add_series("replay-study replay", rep_hi, hi);
  if (!same) {
    std::fprintf(stderr,
                 "FAIL: dependence/replay study makespans diverged\n");
  }
  return same;
}

// --mapper-matrix: the heterogeneous scenario with the cores
// oversubscribed (4 tiles per compute core) so placement quality shows
// up as queueing rather than vanishing behind idle cores.
int run_matrix(const bench::Bench& bench) {
  return bench::run_mapper_matrix(
      bench, /*nodes=*/8,
      [](rt::Runtime& rt, uint32_t nodes, uint64_t steps) {
        Config cfg = make_config(nodes, steps);
        cfg.tasks_per_node = 4 * kTilesPerNode;
        return apps::stencil::build(rt, cfg).program;
      });
}

double run_mpi(uint32_t nodes, bool openmp) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  auto total = [&](uint64_t steps) {
    Config cfg = make_config(nodes, steps);
    return exec::to_seconds(
        apps::stencil::run_mpi_baseline(cfg, openmp, cost));
  };
  return bench::steady_seconds(total, 2, 6);
}

}  // namespace

int main(int argc, char** argv) {
  cr::bench::Bench bench("stencil", argc, argv);
  if (bench.options().mapper_matrix) return run_matrix(bench);
  // Master-side per-point-task cost without CR: dynamic dependence +
  // physical analysis + remote mapping, see EXPERIMENTS.md.
  std::vector<cr::bench::SeriesSpec> specs = cr::bench::regent_series(
      bench, {cr::bench::regent_cost(2.0e6), 2, 6, build_app});
  specs.push_back(cr::bench::reference_series(
      "MPI", [](uint32_t n) { return run_mpi(n, false); },
      cr::bench::is_square_power));
  specs.push_back(cr::bench::reference_series(
      "MPI+OpenMP", [](uint32_t n) { return run_mpi(n, true); },
      cr::bench::is_square_power));
  cr::bench::Sweep sweep = bench.sweep(
      "Figure 6: Stencil weak scaling (40k^2 points/node)",
      "10^6 points/s per node", 1e6, kPaperPointsPerNode, 1.0, specs);
  std::printf("%s\n", sweep.report.to_table().c_str());
  const bool study_ok = dependence_study(bench, sweep.report);
  bench.write_analysis_json(sweep.report);
  bench.write_metrics_json(sweep.report);
  const int rc = bench.finish(sweep.records);
  return rc != 0 ? rc : (study_ok ? 0 : 1);
}
