// The benchmark binary: one process makes one run of one workload and
// prints what it measured as one JSON line. run.py starts a process per
// run, so each run's peak resident memory is its own.
//
//   crbench list
//   crbench run|setup|traced|oracle --workload=<name> [--seed=<n>]
//       [--nodes=<n>] [--steps=<n>] [--workers=<n>]
//       [--aggregate-profile] [--inject-mismatch]
//
//   list    print the workload names
//   run     one run with all instrumentation off (the end-to-end metrics)
//   setup   the same run, stopped after exec::prepare
//   traced  one run with each layer timed and, on the windowed backend,
//           its host phases recorded (--aggregate-profile: and summed)
//   oracle  a real-data run compared with exec::run_sequential
//           (--inject-mismatch: perturb one value first)
//
// --nodes, --steps and --workers override the workload's own values
// (oracle runs and the smoke test use small sizes; the PENNANT checks
// use other worker counts). A run that does not quiesce aborts inside
// the engine, so the process exits nonzero and run.py counts it failed.
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using cr::perfbench::Workload;

// Window-shape gauges: only these may differ between worker counts.
bool window_shape_key(const std::string& key) {
  return key == "sim.windows" || key == "sim.windows_elided" ||
         key == "sim.queue.max_depth";
}

// FNV-1a over the snapshot's keys and the bits of its values.
std::string digest(const std::map<std::string, double>& metrics,
                   bool skip_window_shape) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [key, value] : metrics) {
    if (skip_window_shape && window_shape_key(key)) continue;
    mix(key.data(), key.size() + 1);
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(&bits, sizeof bits);
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// This process's peak resident set, in kB.
uint64_t peak_rss_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

uint64_t metric(const cr::exec::ExecutionResult& res, const char* key) {
  auto it = res.metrics.find(key);
  return it == res.metrics.end() ? 0 : static_cast<uint64_t>(it->second);
}

// Builds one flat JSON object.
class JsonLine {
 public:
  void num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void count(const char* key, uint64_t v) { raw(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    raw(key, quoted + "\"");
  }
  void raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"";
    out_ += key;
    out_ += "\": " + json;
  }
  std::string close() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

void add_run(JsonLine& j, const cr::perfbench::RunOutput& out) {
  const cr::exec::ExecutionResult& r = out.result;
  j.num("setup_s", out.times.setup_s);
  j.num("run_s", out.times.run_s);
  j.count("makespan_ns", r.makespan_ns);
  j.str("digest", digest(r.metrics, false));
  j.str("digest_no_window_shape", digest(r.metrics, true));
  j.count("events", metric(r, "sim.events_processed"));
  j.count("windows", metric(r, "sim.windows"));
  j.count("windows_elided", metric(r, "sim.windows_elided"));
}

void add_traced(JsonLine& j, const cr::perfbench::RunOutput& out) {
  const cr::exec::ExecutionResult& r = out.result;
  JsonLine layers;
  layers.num("runtime_init_s", out.layers.runtime_init_s);
  layers.num("build_s", out.layers.build_s);
  layers.num("compile_s", out.layers.compile_s);
  layers.num("engine_init_s", out.layers.engine_init_s);
  layers.num("run_s", out.layers.run_s);
  layers.num("wall_s", out.layers.wall_s);
  if (out.layers.unroll_s >= 0) {
    layers.num("unroll_s", out.layers.unroll_s);
  } else {
    layers.raw("unroll_s", "null");
  }
  j.raw("layers", layers.close());

  JsonLine counts;
  counts.count("passes.p2p_copies", out.p2p_copies);
  counts.count("passes.barriers", out.barriers);
  counts.count("passes.collectives", out.collectives);
  counts.count("passes.isect_tables", out.isect_tables);
  counts.count("exec.point_tasks", r.point_tasks);
  counts.count("exec.copies_issued", r.copies_issued);
  counts.count("exec.messages", r.messages);
  counts.count("exec.bytes_moved", r.bytes_moved);
  for (const char* key :
       {"sim.events_processed", "sim.windows", "sim.windows_elided",
        "rt.dep.pairs_tested", "rt.dep.pairs_scanned", "rt.dep.dependences",
        "rt.dep.index_queries", "rt.alias.queries", "rt.alias.fast",
        "rt.alias.cache_hits", "rt.overlap.exact", "rt.isect_cache.hits",
        "rt.isect_cache.misses", "rt.barrier.generations",
        "rt.collective.rounds"}) {
    counts.count(key, metric(r, key));
  }
  j.raw("counts", counts.close());

  if (out.profile != nullptr) {
    const cr::support::HostProfile& p = *out.profile;
    JsonLine host;
    host.count("workers", p.workers);
    host.count("wall_ns", p.wall_ns);
    uint64_t busy = 0;
    for (uint64_t b : p.worker_busy_ns) busy += b;
    host.count("busy_ns", busy);
    for (size_t i = 0; i < cr::support::kNumHostPhases; ++i) {
      host.num(cr::support::host_phase_name(
                   static_cast<cr::support::HostPhase>(i)),
               p.phase_ns[i]);
    }
    j.raw("host", host.close());
  } else {
    j.raw("host", "null");
  }

  std::string spans = "[";
  for (const cr::perfbench::Span& s : out.spans) {
    JsonLine span;
    span.str("name", s.name);
    span.num("t0_s", s.t0_s);
    span.num("t1_s", s.t1_s);
    span.raw("parent", std::to_string(s.parent));
    spans += (spans.size() > 1 ? ", " : "") + span.close();
  }
  j.raw("spans", spans + "]");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s run|setup|traced|oracle --workload=<name> "
               "[--seed=<n>]\n"
               "    [--nodes=<n>] [--steps=<n>] [--workers=<n>]\n"
               "    [--aggregate-profile] [--inject-mismatch]\n",
               argv0, argv0);
  return 2;
}

bool parse_u64(const char* text, uint64_t* out, uint64_t max) {
  if (*text < '0' || *text > '9') return false;  // strtoull takes "-1"
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "list") {
    for (const Workload& w : cr::perfbench::workloads()) {
      std::printf("%s\n", w.name.c_str());
    }
    return 0;
  }
  if (mode != "run" && mode != "setup" && mode != "traced" &&
      mode != "oracle") {
    return usage(argv[0]);
  }
  std::string name;
  uint64_t seed = 0;
  uint64_t nodes = 0, steps = 0, workers = 0;
  bool set_workers = false;
  bool inject = false;
  bool aggregate = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    bool ok = true;
    if (const char* v = value("--workload=")) {
      name = v;
    } else if (const char* v = value("--seed=")) {
      ok = parse_u64(v, &seed, UINT64_MAX);
    } else if (const char* v = value("--nodes=")) {
      ok = parse_u64(v, &nodes, UINT32_MAX) && nodes > 0;
    } else if (const char* v = value("--steps=")) {
      ok = parse_u64(v, &steps, UINT64_MAX) && steps > 0;
    } else if (const char* v = value("--workers=")) {
      ok = parse_u64(v, &workers, UINT32_MAX);
      set_workers = true;
    } else if (arg == "--inject-mismatch") {
      inject = true;
    } else if (arg == "--aggregate-profile") {
      aggregate = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  const Workload* found = cr::perfbench::find_workload(name);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", name.c_str());
    for (const Workload& w : cr::perfbench::workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  Workload w = *found;
  if (nodes > 0) w.nodes = static_cast<uint32_t>(nodes);
  if (steps > 0) w.steps = steps;
  if (set_workers) w.workers = static_cast<uint32_t>(workers);

  JsonLine j;
  j.str("mode", mode);
  j.str("workload", w.name);
  j.count("seed", seed);
  j.raw("seeded", w.seeded ? "true" : "false");
  j.count("nodes", w.nodes);
  j.count("steps", w.steps);
  j.count("workers", w.workers);
  if (mode == "oracle") {
    const cr::perfbench::OracleOutcome o =
        cr::perfbench::oracle_check(w, seed, inject);
    j.raw("ok", o.ok ? "true" : "false");
    j.count("values_compared", o.values_compared);
    j.num("max_abs_err", o.max_abs_err);
    j.str("first_mismatch", o.first_mismatch);
  } else if (mode == "setup") {
    j.num("setup_s", cr::perfbench::timed_run(w, seed, true).times.setup_s);
  } else if (mode == "run") {
    add_run(j, cr::perfbench::timed_run(w, seed, false));
  } else {
    const cr::perfbench::RunOutput out =
        cr::perfbench::traced_run(w, seed, aggregate);
    add_run(j, out);
    add_traced(j, out);
  }
  j.count("peak_rss_kb", peak_rss_kb());
  std::printf("%s\n", j.close().c_str());
  return 0;
}
