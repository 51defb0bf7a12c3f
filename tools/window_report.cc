// window_report: turn a HOST_phases JSON artifact (bench --host-trace,
// parallel_speedup --host-report, or HostProfile::write_json) into the
// numbers the windowed backend is gated against: a host-phase breakdown
// table, per-worker busy/idle fractions, per-window parallel efficiency
// (busy / workers*span), the measured serial fraction, and the Amdahl
// ceiling it implies for a range of worker counts.
//
//   window_report <HOST_phases.json> [--json=<out>]
//                 [--max-serial-fraction=<f>] [--tolerance-pct=<p>]
//
// Exit status is nonzero when the artifact does not reconcile — the
// coordinator's recorded phase time must cover total wall time within
// --tolerance-pct (default 2%; the spans tile the coordinator timeline
// by construction, so a larger gap means broken instrumentation) — or
// when --max-serial-fraction is given and the measured fraction exceeds
// it (the CI ratchet).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"

namespace {

using cr::support::JsonValue;

double num_of(const JsonValue* v) {
  return v != nullptr && v->is_number() ? v->num : 0;
}

struct Options {
  std::string input;
  std::string json_out;
  double max_serial_fraction = -1;  // < 0 = no gate
  double tolerance_pct = 2.0;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      opt.json_out = arg.substr(7);
    } else if (arg.rfind("--max-serial-fraction=", 0) == 0) {
      opt.max_serial_fraction = std::atof(arg.c_str() + 22);
    } else if (arg.rfind("--tolerance-pct=", 0) == 0) {
      opt.tolerance_pct = std::atof(arg.c_str() + 16);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    } else if (opt.input.empty()) {
      opt.input = arg;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opt.input.empty()) {
    std::fprintf(stderr,
                 "usage: window_report <HOST_phases.json> [--json=<out>] "
                 "[--max-serial-fraction=<f>] [--tolerance-pct=<p>]\n");
    return false;
  }
  return true;
}

double amdahl(double serial_fraction, double workers) {
  return 1.0 / (serial_fraction + (1.0 - serial_fraction) / workers);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  std::ifstream in(opt.input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.input.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue doc;
  std::string error;
  if (!cr::support::json_parse(buf.str(), doc, error)) {
    std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), error.c_str());
    return 2;
  }
  const JsonValue* kind = doc.get("kind");
  if (kind == nullptr || !kind->is_string() || kind->str != "host_phases") {
    std::fprintf(stderr, "%s: not a host_phases artifact\n",
                 opt.input.c_str());
    return 2;
  }

  const std::string app =
      doc.get("app") != nullptr ? doc.get("app")->str : "";
  const double workers = num_of(doc.get("workers"));
  const double windows = num_of(doc.get("windows"));
  const double wall_ns = num_of(doc.get("wall_ns"));
  const double serial_ns = num_of(doc.get("serial_ns"));
  const double serial_fraction = num_of(doc.get("serial_fraction"));
  const double coord_recorded = num_of(doc.get("coordinator_recorded_ns"));
  // workers is the efficiency denominator below: a zero or negative
  // count would turn every per-window efficiency into inf/NaN, so it is
  // a hard artifact error, reported as such rather than as "empty".
  if (workers <= 0) {
    std::fprintf(stderr, "%s: invalid worker count %g\n", opt.input.c_str(),
                 workers);
    return 2;
  }
  if (wall_ns <= 0) {
    std::fprintf(stderr, "%s: empty profile\n", opt.input.c_str());
    return 2;
  }

  std::printf("host-phase report: %s (%g workers, %g windows, %.3f ms wall)\n",
              app.empty() ? opt.input.c_str() : app.c_str(), workers,
              windows, wall_ns / 1e6);

  // --- phase breakdown -------------------------------------------------
  // Totals are summed over every worker timeline, so the denominator is
  // total recorded time (~ workers * wall), not wall.
  double recorded_total = 0;
  std::vector<std::pair<std::string, double>> phases;
  if (const JsonValue* pn = doc.get("phase_ns"); pn != nullptr) {
    for (const auto& [name, v] : pn->obj) {
      phases.emplace_back(name, v.num);
      recorded_total += v.num;
    }
  }
  std::printf("\n  %-14s %14s %8s\n", "phase", "total ns", "share");
  for (const auto& [name, ns] : phases) {
    std::printf("  %-14s %14.0f %7.2f%%\n", name.c_str(), ns,
                recorded_total > 0 ? 100.0 * ns / recorded_total : 0.0);
  }

  // --- per-worker busy/idle --------------------------------------------
  std::printf("\n  %-10s %14s %14s %8s\n", "worker", "busy ns",
              "recorded ns", "busy");
  if (const JsonValue* wd = doc.get("workers_detail");
      wd != nullptr && wd->is_array()) {
    for (const JsonValue& w : wd->arr) {
      const double busy = num_of(w.get("busy_ns"));
      std::printf("  %-10.0f %14.0f %14.0f %7.2f%%\n",
                  num_of(w.get("worker")), busy,
                  num_of(w.get("recorded_ns")), 100.0 * busy / wall_ns);
    }
  }

  // --- per-window efficiency -------------------------------------------
  // busy / (workers * parallel span): 1.0 means every worker executed
  // lane work for the window's whole parallel segment.
  double eff_sum = 0, eff_min = 1e9, eff_max = 0;
  uint64_t eff_count = 0, eff_dropped = 0;
  if (const JsonValue* rows = doc.get("windows_detail");
      rows != nullptr && rows->is_array()) {
    for (const JsonValue& r : rows->arr) {
      const double span = num_of(r.get("parallel_span_ns"));
      if (span <= 0) {
        // A window whose parallel span rounded to zero (or a malformed
        // row) has no defined efficiency. Dropping it is correct, but
        // it must not be silent: the mean is then over fewer windows
        // than the artifact reports, and a report where most rows are
        // dropped is measuring noise.
        ++eff_dropped;
        continue;
      }
      const double eff = num_of(r.get("busy_ns")) / (workers * span);
      eff_sum += eff;
      eff_min = std::min(eff_min, eff);
      eff_max = std::max(eff_max, eff);
      ++eff_count;
    }
  }
  const double eff_mean = eff_count > 0 ? eff_sum / eff_count : 0;
  if (eff_count > 0) {
    std::printf(
        "\n  window efficiency (busy / workers*span): mean %.3f, "
        "min %.3f, max %.3f over %llu windows\n",
        eff_mean, eff_min, eff_max, (unsigned long long)eff_count);
  }
  if (eff_dropped > 0) {
    std::printf("  (%llu zero-span window row%s excluded from the mean)\n",
                (unsigned long long)eff_dropped, eff_dropped == 1 ? "" : "s");
  }

  // --- serial fraction + Amdahl ceiling --------------------------------
  std::printf("\n  serial fraction: %.4f (%.3f ms of %.3f ms)\n",
              serial_fraction, serial_ns / 1e6, wall_ns / 1e6);
  std::printf("  implied Amdahl ceiling:");
  for (const double w : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    std::printf("  %gw=%.2fx", w, amdahl(serial_fraction, w));
  }
  std::printf("\n");

  // --- reconciliation --------------------------------------------------
  // The coordinator's spans tile its timeline (each phase boundary is a
  // single clock read shared by the adjacent spans), so recorded time
  // must match wall time up to the pre-loop setup and teardown slivers.
  const double gap_pct =
      100.0 * std::fabs(wall_ns - coord_recorded) / wall_ns;
  std::printf(
      "  reconciliation: coordinator recorded %.3f ms vs wall %.3f ms "
      "(gap %.2f%%, tolerance %.2f%%)\n",
      coord_recorded / 1e6, wall_ns / 1e6, gap_pct, opt.tolerance_pct);

  int rc = 0;
  if (gap_pct > opt.tolerance_pct) {
    std::fprintf(stderr,
                 "FAIL: phase sums do not reconcile with wall time "
                 "(gap %.2f%% > %.2f%%)\n",
                 gap_pct, opt.tolerance_pct);
    rc = 1;
  }
  if (opt.max_serial_fraction >= 0 &&
      serial_fraction > opt.max_serial_fraction) {
    std::fprintf(stderr,
                 "FAIL: serial fraction %.4f exceeds gate %.4f\n",
                 serial_fraction, opt.max_serial_fraction);
    rc = 1;
  }

  if (!opt.json_out.empty()) {
    FILE* f = std::fopen(opt.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.json_out.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"kind\": \"window_report\",\n");
    std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
    std::fprintf(f, "  \"workers\": %.0f,\n  \"windows\": %.0f,\n",
                 workers, windows);
    std::fprintf(f, "  \"wall_ns\": %.0f,\n  \"serial_ns\": %.0f,\n",
                 wall_ns, serial_ns);
    std::fprintf(f, "  \"serial_fraction\": %.6f,\n", serial_fraction);
    std::fprintf(f, "  \"reconciliation_gap_pct\": %.4f,\n", gap_pct);
    std::fprintf(f, "  \"efficiency\": {\"mean\": %.6f, \"min\": %.6f, "
                    "\"max\": %.6f, \"windows\": %llu, \"dropped\": %llu},\n",
                 eff_mean, eff_count > 0 ? eff_min : 0,
                 eff_count > 0 ? eff_max : 0,
                 (unsigned long long)eff_count,
                 (unsigned long long)eff_dropped);
    std::fprintf(f, "  \"phase_ns\": {");
    for (size_t i = 0; i < phases.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.0f", i == 0 ? "" : ", ",
                   phases[i].first.c_str(), phases[i].second);
    }
    std::fprintf(f, "},\n  \"amdahl_ceiling\": {");
    bool first = true;
    for (const double w : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
      std::fprintf(f, "%s\"%.0f\": %.4f", first ? "" : ", ", w,
                   amdahl(serial_fraction, w));
      first = false;
    }
    std::fprintf(f, "},\n  \"ok\": %s\n}\n", rc == 0 ? "true" : "false");
    std::fclose(f);
    std::fprintf(stderr, "  report: %s\n", opt.json_out.c_str());
  }
  return rc;
}
