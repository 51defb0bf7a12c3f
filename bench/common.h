// Shared driver for the figure-regeneration benches: weak-scaling sweeps
// of the Regent (with/without CR) executions and the app-specific MPI
// reference models, reported in the paper's throughput-per-node form.
//
// Command lines are described declaratively with a FlagSet (usage text
// is generated from the registrations). A Bench object holds only the
// parsed options; every sweep point returns a self-contained
// PointRecord, and the report, the artifacts and the exit code are
// built from those records — no run leaves state behind for the next.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/common/bsp.h"
#include "exec/implicit_exec.h"
#include "exec/report.h"
#include "rt/runtime.h"
#include "support/trace.h"

namespace cr::bench {

// --- declarative command-line flags -----------------------------------

// A set of `--name` / `--name=<value>` flags. Registrations carry the
// value spec and help text, so usage output is generated rather than
// maintained by hand.
class FlagSet {
 public:
  // `value` receives the text after '='; `has_value` distinguishes
  // `--flag=` (empty value) from a bare `--flag`. Return false to
  // reject the argument.
  using Handler = std::function<bool(const std::string& value,
                                     bool has_value)>;

  // `value_spec` is the usage-text suffix: "" for a plain switch,
  // "=<path>" for a required value, "[=<path>]" for an optional one.
  void add(std::string name, std::string value_spec, std::string help,
           Handler handler) {
    flags_.push_back({std::move(name), std::move(value_spec),
                      std::move(help), std::move(handler)});
  }

  // A plain presence switch.
  void add_flag(std::string name, std::string help, bool* out) {
    add(std::move(name), "", std::move(help),
        [out](const std::string&, bool has_value) {
          if (has_value) return false;
          *out = true;
          return true;
        });
  }

  // A string flag whose value may be omitted: bare `--name` (or an
  // empty `--name=`) stores `bare_value`.
  void add_string(std::string name, std::string value_name,
                  std::string help, std::string* out,
                  std::string bare_value) {
    add(std::move(name), "[=" + value_name + "]", std::move(help),
        [out, bare_value](const std::string& value, bool has_value) {
          *out = (has_value && !value.empty()) ? value : bare_value;
          return true;
        });
  }

  // An integer flag with a required value.
  void add_int(std::string name, std::string value_name, std::string help,
               int64_t* out) {
    add(std::move(name), "=" + value_name, std::move(help),
        [out](const std::string& value, bool has_value) {
          if (!has_value || value.empty()) return false;
          char* end = nullptr;
          const long long v = std::strtoll(value.c_str(), &end, 10);
          if (end == nullptr || *end != '\0') return false;
          *out = v;
          return true;
        });
  }

  std::string usage(const char* argv0) const {
    std::string out = "usage: ";
    out += argv0;
    for (const Flag& f : flags_) {
      out += " [--" + f.name + f.value_spec + "]";
    }
    out += "\n";
    for (const Flag& f : flags_) {
      char line[256];
      std::snprintf(line, sizeof line, "  --%-24s %s\n",
                    (f.name + f.value_spec).c_str(), f.help.c_str());
      out += line;
    }
    return out;
  }

  // Parses every argument; on an unknown flag or a bad value, prints
  // the offender plus the generated usage to stderr and returns false.
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!parse_one(arg)) {
        std::fprintf(stderr, "%s: bad argument '%s'\n%s", argv[0],
                     arg.c_str(), usage(argv[0]).c_str());
        return false;
      }
    }
    return true;
  }

 private:
  struct Flag {
    std::string name;
    std::string value_spec;
    std::string help;
    Handler handler;
  };

  bool parse_one(const std::string& arg) const {
    if (arg.rfind("--", 0) != 0) return false;
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    }
    for (const Flag& f : flags_) {
      if (f.name == name) return f.handler(value, has_value);
    }
    return false;
  }

  std::vector<Flag> flags_;
};

// --- the standard bench options ---------------------------------------

struct BenchOptions {
  // Prefix for trace artifacts; empty means tracing is disabled (the
  // default: runs record nothing and pay only a null-pointer check).
  std::string trace_path;
  // --selftime: profile the *host-side* dynamic analysis (dependence
  // index, aliasing memo, intersection cache) — wall-clock per point,
  // counter blocks in the table, and a BENCH_analysis.json artifact.
  // Purely observational: virtual makespans are identical either way.
  bool selftime = false;
  std::string analysis_path = "BENCH_analysis.json";
  // --check: run the cross-shard happens-before race checker on every
  // engine run (host-side; virtual makespans are unchanged).
  bool check = false;
  // --check-mutate=<id>: delete/weaken sync op <id> (ir::SyncId) in the
  // SPMD runs; the checker must then report a race. Implies --check.
  int64_t check_mutate = -1;
  // --metrics[=<path>]: write every recorded point's registry snapshot
  // (ExecutionResult::metrics) plus makespan and attribution as one
  // BENCH_metrics JSON document — the bench_diff input. Empty = off.
  std::string metrics_path;
  // --workers=<n>: run SPMD executions on the windowed multi-worker
  // simulation backend with <n> host threads. 0 (default) keeps the
  // sequential reference loop. Any n produces bit-identical results.
  int64_t workers = 0;
  // --pin: topology-pin the windowed backend's host threads to distinct
  // physical cores (ExecConfig::pin_workers). Host-side only.
  bool pin = false;
  // --replay: capture & replay steady-state dependence-analysis traces
  // (ExecConfig::trace_replay). Only engages for implicit runs that
  // track dependences; virtual results are bit-identical either way.
  bool replay = false;
  // --mapper=<name>: placement policy for every engine run, resolved
  // through rt::MapperRegistry ("default", "balanced", "adversarial",
  // "random"). --mapper-seed seeds the "random" policy.
  std::string mapper = "default";
  int64_t mapper_seed = 0;
  // --mapper-matrix: instead of the weak-scaling sweep, run the fixed
  // heterogeneous/faulty-node scenario once per registered policy and
  // emit one BENCH_mapper.<app>.<policy>.json artifact per cell.
  bool mapper_matrix = false;
  // --host-trace[=<path>]: host-phase profiling of the windowed backend
  // (requires --workers >= 1 to have any effect). Writes a second Chrome
  // trace of the host timeline at <path> plus the HOST_phases report
  // (host_report_path) that tools/window_report consumes. Host-side
  // only: virtual results are bit-identical either way. Empty = off.
  std::string host_trace_path;
  // --host-report=<path>: where the HOST_phases JSON goes (defaults to
  // HOST_phases.<app>.json; only written when --host-trace is on).
  std::string host_report_path;
  // --watchdog=<ms>: stall watchdog for the windowed backend — abort
  // with a flight-recorder dump if no execution progress for this many
  // wall milliseconds (0 = off).
  int64_t watchdog_ms = 0;

  // Default artifact names carry the app name so several benches run
  // from one directory (CI) never clobber each other's output.
  void register_flags(FlagSet& flags, const std::string& app) {
    analysis_path = "BENCH_analysis." + app + ".json";
    host_report_path = "HOST_phases." + app + ".json";
    flags.add_string("trace", "<path>",
                     "write Chrome trace JSON + breakdown per run",
                     &trace_path, "trace." + app + ".json");
    flags.add_string("metrics", "<path>",
                     "write per-point metrics snapshot JSON (bench_diff)",
                     &metrics_path, "BENCH_metrics." + app + ".json");
    flags.add("selftime", "[=<path>]",
              "profile host-side dynamic analysis (JSON artifact)",
              [this](const std::string& value, bool has_value) {
                selftime = true;
                if (has_value && !value.empty()) analysis_path = value;
                return true;
              });
    flags.add_flag("check", "run the happens-before race checker",
                   &check);
    flags.add_flag("replay",
                   "capture & replay steady-state dependence traces",
                   &replay);
    flags.add_int("workers", "<n>",
                  "simulation worker threads for SPMD runs (0 = sequential)",
                  &workers);
    flags.add_flag("pin",
                   "pin simulation workers to distinct physical cores",
                   &pin);
    flags.add_string("host-trace", "<path>",
                     "host-phase profile of the windowed backend "
                     "(Chrome trace + HOST_phases report)",
                     &host_trace_path, "host_trace." + app + ".json");
    flags.add("host-report", "=<path>",
              "HOST_phases JSON path (with --host-trace)",
              [this](const std::string& value, bool has_value) {
                if (!has_value || value.empty()) return false;
                host_report_path = value;
                return true;
              });
    flags.add_int("watchdog", "<ms>",
                  "stall watchdog budget for the windowed backend "
                  "(0 = off)",
                  &watchdog_ms);
    flags.add("mapper", "=<name>",
              "placement policy (default, balanced, adversarial, random)",
              [this](const std::string& value, bool has_value) {
                if (!has_value || value.empty()) return false;
                mapper = value;
                return true;
              });
    flags.add_int("mapper-seed", "<n>",
                  "seed for the random placement policy", &mapper_seed);
    flags.add_flag("mapper-matrix",
                   "run the heterogeneous scenario across all policies "
                   "and write one artifact per (app, mapper) cell",
                   &mapper_matrix);
    flags.add("check-mutate", "=<sync-id>",
              "delete sync op <sync-id>; expect the checker to race",
              [this](const std::string& value, bool has_value) {
                if (!has_value || value.empty()) return false;
                char* end = nullptr;
                const long long v = std::strtoll(value.c_str(), &end, 10);
                if (end == nullptr || *end != '\0' || v < 0) return false;
                check_mutate = v;
                check = true;
                return true;
              });
  }
};

// --- sweep node counts ------------------------------------------------

// Largest accepted CR_BENCH_MAX_NODES: the sweep doubles a uint32_t node
// count while it stays at or below the cap, so a cap of 2^31 or more
// would wrap that count to 0 and never end.
constexpr uint32_t kMaxNodesCap = 0x7fffffffu;

// Parses a CR_BENCH_MAX_NODES value: a whole decimal number from 1 to
// kMaxNodesCap, nothing else (no sign, blanks or suffix).
inline std::optional<uint32_t> parse_max_nodes(const char* text) {
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v == 0 || v > kMaxNodesCap) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(v);
}

// Node counts of the paper's weak-scaling plots, capped by the
// CR_BENCH_MAX_NODES environment variable (default 1024). A value
// parse_max_nodes rejects is a usage error (exit 2).
inline std::vector<uint32_t> node_counts() {
  uint32_t max_nodes = 1024;
  if (const char* env = std::getenv("CR_BENCH_MAX_NODES")) {
    const std::optional<uint32_t> parsed = parse_max_nodes(env);
    if (!parsed) {
      std::fprintf(stderr,
                   "CR_BENCH_MAX_NODES='%s': expected a whole number from "
                   "1 to %u\n",
                   env, kMaxNodesCap);
      std::exit(2);
    }
    max_nodes = *parsed;
  }
  std::vector<uint32_t> out;
  for (uint32_t n = 1; n <= max_nodes; n *= 2) out.push_back(n);
  return out;
}

// --- what runs report -------------------------------------------------

// Everything one sweep point produced: sweep() builds the point's
// exec::ScalingPoint from this record alone, and finish() reads the
// checker verdicts and host profiles of every record's runs. A
// reference model fills only `seconds`. An engine point runs its app
// twice, at a lo and a hi step count (steady-state differencing), and
// follows the hi-run rule: it reports the hi run (`runs.back()`, and
// `trace`), `seconds` is the per-step difference of the two runs, and
// both runs count for --check, so a race in either one fails the bench.
struct PointRecord {
  double seconds = 0;
  std::vector<exec::ExecutionResult> runs;  // in run order
  std::optional<support::TraceSummary> trace;  // the hi run's (--trace)
};

// Appends `rec` to `records`, keeping one host profile in all: finish()
// writes only the last one, and a windowed run's profile can take tens
// of megabytes, so every earlier profile is released.
inline void append_record(std::vector<PointRecord>& records,
                          PointRecord rec) {
  records.push_back(std::move(rec));
  std::shared_ptr<support::HostProfile>* last = nullptr;
  for (PointRecord& r : records) {
    for (exec::ExecutionResult& run : r.runs) {
      if (run.host_profile == nullptr) continue;
      if (last != nullptr) last->reset();
      last = &run.host_profile;
    }
  }
}

struct SeriesSpec {
  std::string name;
  // Runs one configuration point and returns its record.
  std::function<PointRecord(uint32_t nodes)> run;
  // Restrict to node counts where the reference can run (the paper's
  // MPI stencil references require square grids: even powers of two).
  std::function<bool(uint32_t)> applicable = [](uint32_t) { return true; };
};

// A reference-model series: `seconds(nodes)` is all a point records.
inline SeriesSpec reference_series(
    std::string name, std::function<double(uint32_t)> seconds,
    std::function<bool(uint32_t)> applicable = [](uint32_t) {
      return true;
    }) {
  return {std::move(name),
          [seconds = std::move(seconds)](uint32_t n) {
            PointRecord rec;
            rec.seconds = seconds(n);
            return rec;
          },
          std::move(applicable)};
}

// A sweep: the reported figure, and the records it was built from, one
// per point in sweep order (finish() takes `records`).
struct Sweep {
  exec::ScalingReport report;
  std::vector<PointRecord> records;
};

// --- the per-process bench driver -------------------------------------

// Holds the parsed options and nothing else: results travel in the
// records that runs return. Construct one in main() and pass it by
// reference.
class Bench {
 public:
  // `app` scopes the default artifact filenames (trace.<app>.json,
  // BENCH_analysis.<app>.json, BENCH_metrics.<app>.json).
  Bench(std::string app, int argc, char** argv) : app_(std::move(app)) {
    FlagSet flags;
    options_.register_flags(flags, app_);
    if (!flags.parse(argc, argv)) std::exit(2);
  }

  const BenchOptions& options() const { return options_; }
  const std::string& app() const { return app_; }

  // The ExecConfig for one engine run, honoring --check/--check-mutate
  // (the mutation applies to SPMD runs only; sync ids do not exist
  // before sync insertion).
  exec::ExecConfig config(exec::ExecMode mode, const exec::CostModel& cost,
                          passes::PipelineOptions pipeline = {}) const {
    exec::ExecConfig cfg;
    cfg.pipeline = pipeline;
    cfg.cost = cost;
    cfg.mode = mode;
    cfg.check = options_.check;
    if (mode == exec::ExecMode::kSpmd && options_.check_mutate >= 0) {
      cfg.check_mutate = static_cast<ir::SyncId>(options_.check_mutate);
    }
    if (mode == exec::ExecMode::kSpmd && options_.workers > 0) {
      cfg.workers = static_cast<uint32_t>(options_.workers);
      cfg.pin_workers = options_.pin;
      cfg.host_profile = !options_.host_trace_path.empty();
      if (options_.watchdog_ms > 0) {
        cfg.watchdog_ms = static_cast<uint64_t>(options_.watchdog_ms);
      }
    }
    cfg.trace_replay = options_.replay;
    cfg.mapper.name = options_.mapper;
    cfg.mapper.seed = static_cast<uint64_t>(options_.mapper_seed);
    return cfg;
  }

  // Weak-scaling sweep over node_counts() for each series: runs every
  // applicable point, keeps its record, and builds the report's point
  // from that record (analysis counters with --selftime, the metrics
  // snapshot with --metrics, the breakdown and attribution with
  // --trace).
  Sweep sweep(const std::string& title, const std::string& unit,
              double unit_scale, double work_per_node, double iterations,
              const std::vector<SeriesSpec>& specs) const;

  // Write the --selftime artifact: one JSON object per recorded point
  // with the analysis counters and host wall-clock. No-op unless
  // --selftime.
  void write_analysis_json(const exec::ScalingReport& report) const;

  // Write the --metrics artifact: every recorded point's registry
  // snapshot, makespan and attribution rows. Strictly virtual-time
  // quantities (no host wall-clock), so the output is bit-stable across
  // machines and safe to commit as a bench_diff baseline. No-op unless
  // --metrics.
  void write_metrics_json(const exec::ScalingReport& report) const;

  // Over every run of `records`, in order: writes the --host-trace
  // artifacts from the last run that carries a host profile, prints the
  // checker tally (and the reports of the first raced runs) and returns
  // the process exit code: with --check, nonzero when a race was found;
  // with --check-mutate, nonzero when the mutant was NOT detected.
  int finish(const std::vector<PointRecord>& records) const;

 private:
  std::string app_;
  BenchOptions options_;
};

inline Sweep Bench::sweep(const std::string& title, const std::string& unit,
                          double unit_scale, double work_per_node,
                          double iterations,
                          const std::vector<SeriesSpec>& specs) const {
  Sweep out;
  out.report.title = title;
  out.report.unit = unit;
  out.report.unit_scale = unit_scale;
  for (const SeriesSpec& spec : specs) {
    exec::ScalingSeries series;
    series.name = spec.name;
    for (uint32_t n : node_counts()) {
      if (!spec.applicable(n)) continue;
      std::fprintf(stderr, "  [%s] %u nodes...\n", spec.name.c_str(), n);
      const auto host_begin = std::chrono::steady_clock::now();
      PointRecord rec = spec.run(n);
      const double host_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        host_begin)
              .count();
      exec::ScalingPoint pt;
      pt.nodes = n;
      pt.seconds = rec.seconds;
      pt.work_per_node = work_per_node;
      pt.iterations = iterations;
      const exec::ExecutionResult* hi =
          rec.runs.empty() ? nullptr : &rec.runs.back();
      if (hi != nullptr && options_.selftime) {
        pt.has_analysis = true;
        pt.analysis = hi->analysis;
        pt.analysis.host_seconds = host_seconds;
      }
      if (hi != nullptr && !options_.metrics_path.empty()) {
        pt.has_metrics = true;
        pt.makespan_ns = static_cast<double>(hi->makespan_ns);
        pt.metrics = hi->metrics;
      }
      if (rec.trace) {
        const support::TraceBreakdown& b = rec.trace->breakdown;
        pt.has_breakdown = true;
        pt.compute_frac = b.compute_frac();
        pt.copy_frac = b.copy_frac();
        pt.sync_frac = b.sync_frac();
        pt.idle_frac = b.idle_frac();
        pt.attribution = rec.trace->attribution;
      }
      series.points.push_back(std::move(pt));
      append_record(out.records, std::move(rec));
    }
    out.report.series.push_back(std::move(series));
  }
  return out;
}

inline int Bench::finish(const std::vector<PointRecord>& records) const {
  constexpr size_t kShownRaces = 3;
  const support::HostProfile* hp = nullptr;
  uint64_t checked_runs = 0;
  check::CheckStats sum;
  std::vector<const check::CheckResult*> shown;
  for (const PointRecord& rec : records) {
    for (const exec::ExecutionResult& r : rec.runs) {
      if (r.host_profile != nullptr) hp = r.host_profile.get();
      if (r.check == nullptr) continue;
      ++checked_runs;
      sum.accesses += r.check->stats.accesses;
      sum.pairs_checked += r.check->stats.pairs_checked;
      sum.races += r.check->stats.races;
      if (!r.check->ok() && shown.size() < kShownRaces) {
        shown.push_back(r.check.get());
      }
    }
  }
  if (hp != nullptr && !options_.host_trace_path.empty()) {
    hp->write_chrome_json(options_.host_trace_path);
    hp->write_json(options_.host_report_path, app_);
    std::fprintf(stderr,
                 "  host phases: %s (serial fraction %.3f over %llu "
                 "windows), trace: %s\n",
                 options_.host_report_path.c_str(), hp->serial_fraction,
                 (unsigned long long)hp->windows,
                 options_.host_trace_path.c_str());
  }
  if (!options_.check) return 0;
  for (const check::CheckResult* r : shown) {
    std::fprintf(stderr, "%s\n", r->to_text().c_str());
  }
  const bool mutating = options_.check_mutate >= 0;
  const bool detected = sum.races > 0;
  std::fprintf(stderr,
               "[check] %llu runs, %llu accesses, %llu pairs, %llu "
               "races%s\n",
               (unsigned long long)checked_runs,
               (unsigned long long)sum.accesses,
               (unsigned long long)sum.pairs_checked,
               (unsigned long long)sum.races,
               mutating ? (detected ? " — mutant detected"
                                    : " — mutant NOT detected")
                        : (detected ? " — RACES" : " — ok"));
  return mutating ? (detected ? 0 : 1) : (detected ? 1 : 0);
}

inline void Bench::write_analysis_json(
    const exec::ScalingReport& report) const {
  if (!options_.selftime) return;
  FILE* f = std::fopen(options_.analysis_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n",
                 options_.analysis_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"title\": \"%s\",\n  \"series\": [\n",
               report.title.c_str());
  for (size_t si = 0; si < report.series.size(); ++si) {
    const exec::ScalingSeries& s = report.series[si];
    std::fprintf(f, "    {\"name\": \"%s\", \"points\": [\n",
                 s.name.c_str());
    bool first = true;
    for (const exec::ScalingPoint& p : s.points) {
      if (!p.has_analysis) continue;
      std::fprintf(f, "%s      {\"nodes\": %u, \"virtual_seconds\": %.9g, "
                      "\"analysis\": %s}",
                   first ? "" : ",\n", p.nodes, p.seconds,
                   p.analysis.to_json().c_str());
      first = false;
    }
    std::fprintf(f, "\n    ]}%s\n",
                 si + 1 < report.series.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "  analysis counters: %s\n",
               options_.analysis_path.c_str());
}

namespace detail {

// JSON number with integral values printed exactly (no fraction), so
// counter snapshots diff cleanly.
inline void write_json_number(FILE* f, double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::fprintf(f, "%lld", static_cast<long long>(v));
  } else {
    std::fprintf(f, "%.17g", v);
  }
}

// One point of a metrics artifact: nodes, virtual seconds, makespan,
// registry snapshot and attribution rows (bench_diff's input).
inline void write_point_json(FILE* f, const exec::ScalingPoint& p) {
  std::fprintf(f, "{\"nodes\": %u, \"virtual_seconds\": %.9g, "
                  "\"makespan_ns\": ",
               p.nodes, p.seconds);
  write_json_number(f, p.makespan_ns);
  std::fprintf(f, ",\n       \"metrics\": {");
  bool first_m = true;
  for (const auto& [key, value] : p.metrics) {
    std::fprintf(f, "%s\"%s\": ", first_m ? "" : ", ", key.c_str());
    write_json_number(f, value);
    first_m = false;
  }
  std::fprintf(f, "},\n       \"attribution\": [");
  for (size_t ai = 0; ai < p.attribution.size(); ++ai) {
    const support::TraceAttributionRow& r = p.attribution[ai];
    std::fprintf(f, "%s{\"source\": %u, \"label\": \"%s\", \"copy_ns\": ",
                 ai == 0 ? "" : ", ", r.source, r.label.c_str());
    write_json_number(f, r.copy_ns);
    std::fprintf(f, ", \"sync_ns\": ");
    write_json_number(f, r.sync_ns);
    std::fprintf(f, ", \"spans\": %llu}",
                 static_cast<unsigned long long>(r.spans));
  }
  std::fprintf(f, "]}");
}

}  // namespace detail

inline void Bench::write_metrics_json(
    const exec::ScalingReport& report) const {
  if (options_.metrics_path.empty()) return;
  FILE* f = std::fopen(options_.metrics_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", options_.metrics_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"app\": \"%s\",\n  \"series\": [\n", app_.c_str());
  for (size_t si = 0; si < report.series.size(); ++si) {
    const exec::ScalingSeries& s = report.series[si];
    std::fprintf(f, "    {\"name\": \"%s\", \"points\": [\n", s.name.c_str());
    bool first_pt = true;
    for (const exec::ScalingPoint& p : s.points) {
      if (!p.has_metrics) continue;
      std::fprintf(f, "%s      ", first_pt ? "" : ",\n");
      detail::write_point_json(f, p);
      first_pt = false;
    }
    std::fprintf(f, "\n    ]}%s\n", si + 1 < report.series.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "  metrics snapshot: %s\n",
               options_.metrics_path.c_str());
}

// Per-step virtual seconds from the totals of two runs that differ only
// in their step counts (initialization, intersections and final copies
// cancel out).
inline double per_step(double t_lo, double t_hi, uint64_t steps_lo,
                       uint64_t steps_hi) {
  return (t_hi - t_lo) / static_cast<double>(steps_hi - steps_lo);
}

// Measure the steady-state per-iteration time of an execution by
// differencing two runs with different step counts.
inline double steady_seconds(const std::function<double(uint64_t)>& total,
                             uint64_t steps_lo, uint64_t steps_hi) {
  const double t_lo = total(steps_lo);
  const double t_hi = total(steps_hi);
  return per_step(t_lo, t_hi, steps_lo, steps_hi);
}

inline bool is_square_power(uint32_t n) {
  // Even powers of two: 1, 4, 16, 64, ...
  int bits = 0;
  uint32_t v = n;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return (1u << bits) == n && bits % 2 == 0;
}

// --- engine runs of the figures' Regent series ------------------------

// Builds an app's program on `rt` for `nodes` machine nodes and `steps`
// time steps.
using BuildFn =
    std::function<ir::Program(rt::Runtime& rt, uint32_t nodes, uint64_t steps)>;

// The figures' engine cost model: Piz Daint without the dependence
// tracker (the implicit master's per-launch analysis is charged as the
// app's calibrated implicit_launch_ns instead) plus the app's task
// noise.
inline exec::CostModel regent_cost(double implicit_launch_ns,
                                   apps::Noise noise = {}) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  cost.track_dependences = false;
  cost.implicit_launch_ns = implicit_launch_ns;
  cost.task_slow_prob = noise.slow_prob;
  cost.task_slow_frac = noise.slow_frac;
  return cost;
}

// Runs `program` on `rt` with its kernels stripped (the benches time
// the simulated machine, not host kernels); `report`, if given, gets
// the pipeline's report.
inline exec::ExecutionResult run_timing(
    rt::Runtime& rt, ir::Program program, const exec::ExecConfig& cfg,
    passes::PipelineReport* report = nullptr) {
  for (auto& t : program.tasks) t.kernel = nullptr;
  exec::PreparedRun run = exec::prepare(rt, std::move(program), cfg);
  if (report != nullptr) *report = run.report;
  return run.run();
}

// Writes a finished run's --trace artifacts,
// <trace_path minus .json>.<label>.<nodes>n.{json,txt} (Chrome trace JSON
// and text summary), prints the breakdown to stderr and returns the
// summary for the run's record. An engine point's two runs share these
// names, so the files end up holding the hi run's trace.
inline support::TraceSummary write_trace(const support::Tracer& tracer,
                                         sim::Time now,
                                         std::string trace_path,
                                         const std::string& label,
                                         uint32_t nodes) {
  const support::TraceSummary sum = tracer.summarize(now);
  if (trace_path.size() > 5 && trace_path.ends_with(".json")) {
    trace_path.resize(trace_path.size() - 5);
  }
  const std::string base =
      trace_path + "." + label + "." + std::to_string(nodes) + "n";
  tracer.write_chrome_json(base + ".json");
  const std::string text = sum.to_text();
  if (FILE* f = std::fopen((base + ".txt").c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  std::fprintf(stderr, "  [%s, %u nodes]\n%s  trace: %s.json\n",
               label.c_str(), nodes, text.c_str(), base.c_str());
  return sum;
}

// How a figure runs its app on the engine.
struct EngineApp {
  exec::CostModel cost;
  uint64_t steps_lo = 0;  // the two step counts steady-state
  uint64_t steps_hi = 0;  // differencing compares
  BuildFn build;
};

// One engine point: the app at steps_lo and then at steps_hi, with CR
// (`spmd`) or without, on 12-core nodes; returns the point's record
// under the hi-run rule (PointRecord). Traces are labelled
// <app>-cr / <app>-nocr.
inline PointRecord run_engine(const Bench& bench, const EngineApp& app,
                              uint32_t nodes, bool spmd) {
  const exec::ExecConfig cfg = bench.config(
      spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit, app.cost);
  const std::string label = bench.app() + (spmd ? "-cr" : "-nocr");
  const std::string& trace_path = bench.options().trace_path;
  PointRecord rec;
  auto run_once = [&](uint64_t steps) {
    rt::Runtime rt(exec::runtime_config(nodes, 12, app.cost, false));
    std::optional<support::Tracer> tracer;
    if (!trace_path.empty()) rt.sim().set_tracer(&tracer.emplace());
    rec.runs.push_back(run_timing(rt, app.build(rt, nodes, steps), cfg));
    if (tracer) {
      rt.sim().set_tracer(nullptr);
      rec.trace =
          write_trace(*tracer, rt.sim().now(), trace_path, label, nodes);
    }
  };
  run_once(app.steps_lo);
  run_once(app.steps_hi);
  rec.seconds = per_step(exec::to_seconds(rec.runs[0].makespan_ns),
                         exec::to_seconds(rec.runs[1].makespan_ns),
                         app.steps_lo, app.steps_hi);
  return rec;
}

// A figure's two Regent series, with and without CR.
inline std::vector<SeriesSpec> regent_series(const Bench& bench,
                                             const EngineApp& app) {
  return {
      {"Regent (with CR)",
       [&bench, app](uint32_t n) { return run_engine(bench, app, n, true); }},
      {"Regent (w/o CR)",
       [&bench, app](uint32_t n) { return run_engine(bench, app, n, false); }},
  };
}

}  // namespace cr::bench
