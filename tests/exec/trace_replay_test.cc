// Trace capture & replay neutrality: replayed iterations must be
// bit-identical to analyzed ones in everything virtual — makespans,
// output data, the metrics snapshot (minus host-side analysis-effort
// counters), the traced timeline, and race-checker verdicts — while
// host-side work (pairs_tested, index queries) collapses. Covers the
// Fig2 workload, forced mid-run invalidation, engine reuse on one
// runtime, and randomized iterative programs.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "apps/circuit/circuit.h"
#include "exec/implicit_exec.h"
#include "support/rng.h"
#include "testing/fig2.h"
#include "testing/random_program.h"

namespace cr::exec {
namespace {

// Keys whose values legitimately change under replay: how much analysis
// work the host did, and the replay counters themselves. Everything
// else — virtual times, event counts, dependence counts, checker and
// barrier activity — must be bit-equal.
bool host_side_key(const std::string& k) {
  return k.rfind("exec.replay.", 0) == 0 || k.rfind("rt.alias.", 0) == 0 ||
         k.rfind("rt.overlap.", 0) == 0 ||
         k.rfind("rt.isect_cache.", 0) == 0 ||
         k == "rt.dep.pairs_tested" || k.rfind("rt.dep.index", 0) == 0;
}

std::map<std::string, double> virtual_metrics(
    const std::map<std::string, double>& m) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : m) {
    if (!host_side_key(k)) out[k] = v;
  }
  return out;
}

double metric(const ExecutionResult& res, const char* key) {
  auto it = res.metrics.find(key);
  return it == res.metrics.end() ? 0.0 : it->second;
}

struct Fig2Out {
  ExecutionResult res;
  std::vector<double> data;
  std::string trace_text;
};

Fig2Out run_fig2(bool replay, uint64_t invalidate_every, uint64_t steps) {
  CostModel cost;
  cost.track_dependences = true;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, steps);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kImplicit;
  cfg.check = true;
  cfg.trace = true;
  cfg.trace_replay = replay;
  cfg.replay_invalidate_every = invalidate_every;
  PreparedRun run = prepare(rt, fig.program, cfg);
  Fig2Out out;
  out.res = run.run();
  out.trace_text = run.engine->trace_summary().to_text();
  for (uint64_t p = 0; p < 48; ++p) {
    out.data.push_back(run.engine->read_root_f64(fig.a, fig.fa, p));
    out.data.push_back(run.engine->read_root_f64(fig.b, fig.fb, p));
  }
  return out;
}

void expect_fig2_identical(const Fig2Out& ref, const Fig2Out& got,
                           const char* what) {
  EXPECT_EQ(got.res.makespan_ns, ref.res.makespan_ns) << what;
  EXPECT_EQ(got.data, ref.data) << what;
  EXPECT_EQ(got.trace_text, ref.trace_text) << what;
  EXPECT_EQ(virtual_metrics(got.res.metrics),
            virtual_metrics(ref.res.metrics))
      << what;
  ASSERT_NE(got.res.check, nullptr);
  ASSERT_NE(ref.res.check, nullptr);
  EXPECT_EQ(got.res.check->ok(), ref.res.check->ok()) << what;
  EXPECT_EQ(got.res.check->stats.races, ref.res.check->stats.races) << what;
  EXPECT_EQ(got.res.check->stats.accesses, ref.res.check->stats.accesses)
      << what;
  EXPECT_EQ(got.res.check->stats.pairs_checked,
            ref.res.check->stats.pairs_checked)
      << what;
}

TEST(TraceReplay, Fig2BitIdenticalAndSkipsAnalysis) {
  constexpr uint64_t kSteps = 12;
  const Fig2Out ref = run_fig2(/*replay=*/false, 0, kSteps);
  const Fig2Out rep = run_fig2(/*replay=*/true, 0, kSteps);
  expect_fig2_identical(ref, rep, "replay");

  // Replay actually engaged: most iterations skipped analysis and the
  // host-side test count dropped, with the virtual charge unchanged.
  EXPECT_GE(metric(rep.res, "exec.replay.captures"), 1.0);
  EXPECT_GE(metric(rep.res, "exec.replay.replays"), 5.0);
  EXPECT_EQ(metric(rep.res, "exec.replay.invalidations"), 0.0);
  EXPECT_GT(metric(rep.res, "exec.replay.pairs_skipped"), 0.0);
  EXPECT_LT(rep.res.analysis.dep_pairs_tested,
            ref.res.analysis.dep_pairs_tested);
  EXPECT_EQ(rep.res.analysis.dep_pairs_scanned,
            ref.res.analysis.dep_pairs_scanned);
  EXPECT_EQ(rep.res.analysis.dep_dependences,
            ref.res.analysis.dep_dependences);
}

TEST(TraceReplay, ForcedInvalidationStaysBitIdentical) {
  constexpr uint64_t kSteps = 12;
  const Fig2Out ref = run_fig2(/*replay=*/false, 0, kSteps);
  const Fig2Out rep = run_fig2(/*replay=*/true, /*invalidate_every=*/3,
                               kSteps);
  expect_fig2_identical(ref, rep, "forced invalidation");
  // The template was dropped and re-captured mid-run, and iterations
  // kept replaying between invalidations.
  EXPECT_GE(metric(rep.res, "exec.replay.invalidations"), 2.0);
  EXPECT_GE(metric(rep.res, "exec.replay.captures"), 2.0);
  EXPECT_GE(metric(rep.res, "exec.replay.replays"), 1.0);
}

// Engine reuse on one runtime: the dependence tracker is a Runtime
// member, so without the per-run reset a second engine's op ids would
// collide with the first run's users and the counters would accumulate.
TEST(TraceReplay, EngineReuseStartsAnalysisClean) {
  CostModel cost;
  cost.track_dependences = true;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 48, 8, 4);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kImplicit;
  PreparedRun first = prepare(rt, fig.program, cfg);
  const ExecutionResult r1 = first.run();
  PreparedRun second = prepare(rt, fig.program, cfg);
  const ExecutionResult r2 = second.run();
  // The analysis and the copy/network tallies are per-run: nothing from
  // run 1 may leak into run 2's counters.
  EXPECT_EQ(r1.analysis.dep_pairs_scanned, r2.analysis.dep_pairs_scanned);
  EXPECT_EQ(r1.analysis.dep_pairs_tested, r2.analysis.dep_pairs_tested);
  EXPECT_EQ(r1.analysis.dep_dependences, r2.analysis.dep_dependences);
  EXPECT_EQ(r1.copies_issued, r2.copies_issued);
  EXPECT_EQ(r1.bytes_moved, r2.bytes_moved);
  EXPECT_EQ(r1.messages, r2.messages);
  // The makespan is this run's elapsed virtual time, not the absolute
  // simulator end time. Run 2 starts mid-world (its launch-time events
  // clamp to "now" instead of staggering from t=0), so it may differ by
  // a launch offset — but never by anything near a whole first run,
  // which is what the absolute end time would report.
  EXPECT_GT(r2.makespan_ns, 0u);
  EXPECT_LT(r2.makespan_ns, r1.makespan_ns + r1.makespan_ns / 2);
}

// Circuit without CR: ghost readers and reducers of `charge` span
// several pieces and retire by accumulated coverage, so every captured
// iteration carries partial coverage steps. No template installs here
// yet (readers of the wire fields the loop never writes keep growing,
// so no two iterations match), which this pins as neutral too.
TEST(TraceReplay, CircuitBitIdentical) {
  auto run_circuit = [](bool replay) {
    CostModel cost;
    cost.track_dependences = true;
    rt::Runtime rt(runtime_config(2, 4, cost, /*real_data=*/true));
    apps::circuit::Config cc;
    cc.nodes = 2;
    cc.nodes_per_piece = 32;
    cc.wires_per_piece = 96;
    cc.pct_cross = 0.15;
    cc.steps = 6;
    apps::circuit::App app = apps::circuit::build(rt, cc);
    ExecConfig cfg;
    cfg.cost = cost;
    cfg.mode = ExecMode::kImplicit;
    cfg.check = true;
    cfg.trace_replay = replay;
    PreparedRun run = prepare(rt, app.program, cfg);
    return run.run();
  };
  const ExecutionResult ref = run_circuit(false);
  const ExecutionResult got = run_circuit(true);
  EXPECT_EQ(got.makespan_ns, ref.makespan_ns);
  EXPECT_EQ(virtual_metrics(got.metrics), virtual_metrics(ref.metrics));
  ASSERT_NE(got.check, nullptr);
  ASSERT_NE(ref.check, nullptr);
  EXPECT_TRUE(ref.check->ok());
  EXPECT_EQ(got.check->ok(), ref.check->ok());
  EXPECT_EQ(got.check->stats.races, ref.check->stats.races);
  EXPECT_EQ(got.check->stats.accesses, ref.check->stats.accesses);
  EXPECT_EQ(got.check->stats.pairs_checked, ref.check->stats.pairs_checked);
}

// Property test: randomized iterative programs (random regions, aliased
// image partitions, random privileges, scalar reductions) run
// bit-identically with replay off, on, and on-with-forced-invalidation.
TEST(TraceReplayProperty, RandomProgramsBitIdentical) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    struct Out {
      ExecutionResult res;
      std::vector<double> scalars;
    };
    auto run_one = [&](bool replay, uint64_t invalidate_every) {
      support::Rng rng(0xA11CE + seed * 977);
      CostModel cost;
      cost.track_dependences = true;
      rt::Runtime rt(runtime_config(4, 2, cost, /*real_data=*/true));
      testing::RandomProgram prog =
          testing::make_random_program(rt.forest(), rng, 4, /*min_steps=*/7);
      ExecConfig cfg;
      cfg.cost = cost;
      cfg.mode = ExecMode::kImplicit;
      cfg.check = true;
      cfg.trace_replay = replay;
      cfg.replay_invalidate_every = invalidate_every;
      PreparedRun run = prepare(rt, prog.program, cfg);
      Out out{run.run(), {}};
      for (ir::ScalarId s : prog.scalars) {
        out.scalars.push_back(run.engine->scalar(s));
      }
      return out;
    };
    const Out ref = run_one(false, 0);
    for (const uint64_t inval : {uint64_t{0}, uint64_t{2}}) {
      const Out got = run_one(true, inval);
      EXPECT_EQ(got.res.makespan_ns, ref.res.makespan_ns)
          << "seed=" << seed << " inval=" << inval;
      EXPECT_EQ(got.scalars, ref.scalars) << "seed=" << seed;
      EXPECT_EQ(virtual_metrics(got.res.metrics),
                virtual_metrics(ref.res.metrics))
          << "seed=" << seed << " inval=" << inval;
      ASSERT_NE(got.res.check, nullptr);
      EXPECT_EQ(got.res.check->ok(), ref.res.check->ok()) << "seed=" << seed;
      EXPECT_EQ(got.res.check->stats.accesses, ref.res.check->stats.accesses)
          << "seed=" << seed;
      EXPECT_EQ(got.res.check->stats.pairs_checked,
                ref.res.check->stats.pairs_checked)
          << "seed=" << seed;
      EXPECT_EQ(got.res.check->stats.races, ref.res.check->stats.races)
          << "seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace cr::exec
