// The figure benches' driver (bench/common.h): flag parsing, the
// CR_BENCH_MAX_NODES cap, the sweep's point records (one per applicable
// node count, engine points reporting their hi run), and the exit codes
// finish() computes over every run of every record.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "apps/stencil/stencil.h"
#include "common.h"

namespace cr::bench {
namespace {

// argv-style storage for a command line (argv[0] is the program name).
struct Args {
  explicit Args(std::vector<std::string> flags) : strings(std::move(flags)) {
    strings.insert(strings.begin(), "bench_driver_test");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

bool parses(std::vector<std::string> flags, BenchOptions* out = nullptr) {
  BenchOptions options;
  FlagSet set;
  options.register_flags(set, "stencil");
  Args args(std::move(flags));
  const bool ok = set.parse(args.argc(), args.argv());
  if (out != nullptr) *out = options;
  return ok;
}

Bench make_bench(std::vector<std::string> flags) {
  Args args(std::move(flags));
  return Bench("stencil", args.argc(), args.argv());
}

// Sets CR_BENCH_MAX_NODES for one test and restores it afterwards.
class MaxNodes {
 public:
  explicit MaxNodes(const char* value) {
    if (const char* old = std::getenv(kVar)) old_ = old;
    setenv(kVar, value, 1);
  }
  ~MaxNodes() {
    if (old_.has_value()) {
      setenv(kVar, old_->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }

 private:
  static constexpr const char* kVar = "CR_BENCH_MAX_NODES";
  std::optional<std::string> old_;
};

TEST(BenchFlags, AcceptsRegisteredFlags) {
  BenchOptions o;
  ASSERT_TRUE(parses({"--workers=4", "--check-mutate=3", "--metrics",
                      "--trace=t.json", "--mapper=balanced"},
                     &o));
  EXPECT_EQ(o.workers, 4);
  EXPECT_EQ(o.check_mutate, 3);
  EXPECT_TRUE(o.check);  // --check-mutate implies --check
  EXPECT_EQ(o.metrics_path, "BENCH_metrics.stencil.json");
  EXPECT_EQ(o.trace_path, "t.json");
  EXPECT_EQ(o.mapper, "balanced");
}

TEST(BenchFlags, RejectsUnknownFlagsAndBadValues) {
  EXPECT_FALSE(parses({"--nope"}));
  EXPECT_FALSE(parses({"check"}));           // not a flag
  EXPECT_FALSE(parses({"--check=1"}));       // a switch takes no value
  EXPECT_FALSE(parses({"--workers"}));       // value required
  EXPECT_FALSE(parses({"--workers="}));
  EXPECT_FALSE(parses({"--workers=4x"}));
  EXPECT_FALSE(parses({"--check-mutate=-1"}));
  EXPECT_FALSE(parses({"--mapper="}));
  EXPECT_FALSE(parses({"--host-report"}));
  // One bad argument fails the whole command line.
  EXPECT_FALSE(parses({"--check", "--nope", "--metrics"}));
}

TEST(BenchFlagsDeathTest, BenchExitsWithUsageOnBadFlag) {
  EXPECT_EXIT(make_bench({"--workers=lots"}), ::testing::ExitedWithCode(2),
              "bad argument '--workers=lots'");
}

TEST(BenchNodes, ParsesWholePositiveCaps) {
  EXPECT_EQ(parse_max_nodes("1"), 1u);
  EXPECT_EQ(parse_max_nodes("4"), 4u);
  EXPECT_EQ(parse_max_nodes("1024"), 1024u);
  EXPECT_EQ(parse_max_nodes("2147483647"), kMaxNodesCap);
}

TEST(BenchNodes, RejectsNonNumbersZeroNegativesAndWrappingCaps) {
  for (const char* bad :
       {"", "0", "-1", "+4", " 4", "4 ", "4abc", "abc", "0x10",
        "2147483648",   // 2^31: the doubling loop would wrap to 0
        "4294967295", "4294967296", "99999999999999999999999"}) {
    EXPECT_FALSE(parse_max_nodes(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_max_nodes(nullptr).has_value());
}

TEST(BenchNodes, SweepsPowersOfTwoUpToTheCap) {
  MaxNodes cap("5");
  EXPECT_EQ(node_counts(), (std::vector<uint32_t>{1, 2, 4}));
}

TEST(BenchNodesDeathTest, RejectedCapIsAUsageError) {
  // The child exits in node_counts() before building any sweep.
  EXPECT_EXIT(
      {
        setenv("CR_BENCH_MAX_NODES", "-1", 1);
        node_counts();
      },
      ::testing::ExitedWithCode(2), "CR_BENCH_MAX_NODES='-1'");
}

TEST(BenchSweep, OneRecordPerApplicablePointInSweepOrder) {
  MaxNodes cap("8");
  const Bench bench = make_bench({});
  const Sweep sweep = bench.sweep(
      "t", "u", 1.0, 1.0, 1.0,
      {reference_series("all", [](uint32_t n) { return 1.0 * n; }),
       reference_series("square", [](uint32_t n) { return 100.0 + n; },
                        is_square_power)});
  ASSERT_EQ(sweep.records.size(), 6u);
  const std::vector<double> seconds = {1, 2, 4, 8, 101, 104};
  for (size_t i = 0; i < seconds.size(); ++i) {
    EXPECT_EQ(sweep.records[i].seconds, seconds[i]) << i;
    EXPECT_TRUE(sweep.records[i].runs.empty());
  }
  ASSERT_EQ(sweep.report.series.size(), 2u);
  std::vector<uint32_t> nodes;
  for (const exec::ScalingSeries& s : sweep.report.series) {
    for (const exec::ScalingPoint& p : s.points) nodes.push_back(p.nodes);
  }
  EXPECT_EQ(nodes, (std::vector<uint32_t>{1, 2, 4, 8, 1, 4}));
  EXPECT_EQ(sweep.report.series[1].points[1].seconds, 104);
}

ir::Program small_stencil(rt::Runtime& rt, uint32_t nodes, uint64_t steps) {
  apps::stencil::Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = 2;
  cfg.tile_x = 8;
  cfg.tile_y = 8;
  cfg.steps = steps;
  return apps::stencil::build(rt, cfg).program;
}

TEST(BenchSweep, EnginePointReportsItsHiRun) {
  MaxNodes cap("2");
  const std::string trace = ::testing::TempDir() + "bench_driver_trace.json";
  const Bench bench =
      make_bench({"--metrics", "--selftime", "--check", "--trace=" + trace});
  const EngineApp app{regent_cost(40000), 2, 5, small_stencil};
  const Sweep sweep = bench.sweep("t", "u", 1.0, 1.0, 1.0,
                                  regent_series(bench, app));
  ASSERT_EQ(sweep.records.size(), 4u);  // {with, w/o CR} x {1, 2} nodes

  size_t i = 0;
  for (bool spmd : {true, false}) {
    const exec::ExecConfig cfg = bench.config(
        spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit, app.cost);
    for (uint32_t nodes : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << "spmd=" << spmd
                                        << " nodes=" << nodes);
      auto standalone = [&](uint64_t steps) {
        rt::Runtime rt(exec::runtime_config(nodes, 12, app.cost, false));
        return run_timing(rt, small_stencil(rt, nodes, steps), cfg);
      };
      const exec::ExecutionResult lo = standalone(app.steps_lo);
      const exec::ExecutionResult hi = standalone(app.steps_hi);
      ASSERT_NE(lo.makespan_ns, hi.makespan_ns);
      ASSERT_NE(lo.metrics, hi.metrics);

      const PointRecord& rec = sweep.records[i];
      ASSERT_EQ(rec.runs.size(), 2u);  // lo, then hi; both are checked
      EXPECT_EQ(rec.runs[0].makespan_ns, lo.makespan_ns);
      EXPECT_EQ(rec.runs[1].makespan_ns, hi.makespan_ns);
      EXPECT_NE(rec.runs[0].check, nullptr);
      EXPECT_NE(rec.runs[1].check, nullptr);
      EXPECT_TRUE(rec.trace.has_value());
      EXPECT_EQ(rec.seconds,
                per_step(exec::to_seconds(lo.makespan_ns),
                         exec::to_seconds(hi.makespan_ns), app.steps_lo,
                         app.steps_hi));

      const exec::ScalingPoint& pt =
          sweep.report.series[spmd ? 0 : 1].points[nodes == 1 ? 0 : 1];
      EXPECT_EQ(pt.nodes, nodes);
      EXPECT_EQ(pt.seconds, rec.seconds);
      ASSERT_TRUE(pt.has_metrics);
      EXPECT_EQ(pt.makespan_ns, static_cast<double>(hi.makespan_ns));
      EXPECT_EQ(pt.metrics, hi.metrics);
      ASSERT_TRUE(pt.has_analysis);
      exec::AnalysisStats hi_analysis = hi.analysis;
      hi_analysis.host_seconds = pt.analysis.host_seconds;
      EXPECT_EQ(pt.analysis.to_json(), hi_analysis.to_json());
      EXPECT_GE(pt.analysis.host_seconds, 0);
      EXPECT_TRUE(pt.has_breakdown);
      ++i;
    }
  }
}

// A point record of two checked runs; only the first (lo) one has
// `races` races: the point reports its hi run, but both runs count.
PointRecord checked_record(uint64_t races) {
  PointRecord rec;
  for (uint64_t n : {races, uint64_t{0}}) {
    exec::ExecutionResult& r = rec.runs.emplace_back();
    r.check = std::make_shared<check::CheckResult>();
    r.check->stats.races = n;
    r.check->races.resize(n);
  }
  return rec;
}

TEST(BenchFinish, CheckExitCodeComesFromEveryRunOfEveryRecord) {
  std::vector<PointRecord> clean, raced;
  for (int i = 0; i < 3; ++i) clean.push_back(checked_record(0));
  raced = clean;
  raced.push_back(checked_record(2));  // only the last point races

  EXPECT_EQ(make_bench({}).finish(raced), 0);  // checker off
  const Bench check = make_bench({"--check"});
  EXPECT_EQ(check.finish(clean), 0);
  EXPECT_EQ(check.finish(raced), 1);
  const Bench mutate = make_bench({"--check-mutate=3"});
  EXPECT_EQ(mutate.finish(clean), 1);  // the mutant went undetected
  EXPECT_EQ(mutate.finish(raced), 0);
}

// Only the last host profile is ever written, so records keep just it.
TEST(BenchFinish, RecordsKeepOnlyTheLastHostProfile) {
  std::vector<PointRecord> records;
  std::vector<std::shared_ptr<support::HostProfile>> profiles;
  for (int i = 0; i < 3; ++i) {
    PointRecord rec;
    for (int run = 0; run < 2; ++run) {
      profiles.push_back(std::make_shared<support::HostProfile>());
      rec.runs.emplace_back().host_profile = profiles.back();
    }
    append_record(records, std::move(rec));
    append_record(records, PointRecord{});  // a reference-model point
  }
  ASSERT_EQ(records.size(), 6u);
  for (size_t i = 0; i + 1 < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].use_count(), 1) << i;  // released
  }
  EXPECT_EQ(records[4].runs[1].host_profile, profiles.back());
}

}  // namespace
}  // namespace cr::bench
