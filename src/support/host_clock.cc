#include "support/host_clock.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "support/check.h"

namespace cr::support {

uint64_t host_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* host_phase_name(HostPhase p) {
  switch (p) {
    case HostPhase::kPlan: return "plan";
    case HostPhase::kSerialDrain: return "serial_drain";
    case HostPhase::kLaneDrain: return "lane_drain";
    case HostPhase::kOutboxFlush: return "outbox_flush";
    case HostPhase::kBarrierWait: return "barrier_wait";
    case HostPhase::kBarrierWake: return "barrier_wake";
  }
  return "?";
}

void HostProfiler::begin(uint32_t workers) {
  CR_CHECK(!active_);
  CR_CHECK(workers > 0);
  workers_ = workers;
  lanes_.assign(workers, {});
  for (auto& lane : lanes_) lane.reserve(1024);
  end_ns_ = 0;
  active_ = true;
  origin_ns_ = host_now_ns();
}

void HostProfiler::end() {
  CR_CHECK(active_);
  end_ns_ = host_now_ns();
  active_ = false;
}

void HostProfiler::record(uint32_t worker, uint64_t window, HostPhase phase,
                          uint64_t abs_t0, uint64_t abs_t1) {
  // Clamp to the profile origin: a worker's first boundary may have been
  // cut before begin() stamped the origin (thread spawn order).
  const uint64_t t0 = abs_t0 > origin_ns_ ? abs_t0 - origin_ns_ : 0;
  const uint64_t t1 = abs_t1 > origin_ns_ ? abs_t1 - origin_ns_ : 0;
  lanes_[worker].push_back(HostSpan{window, phase, t0, t1});
}

HostProfile HostProfiler::profile() const {
  CR_CHECK_MSG(!active_, "profile() before end()");
  HostProfile out;
  out.workers = workers_;
  out.wall_ns = end_ns_ > origin_ns_ ? end_ns_ - origin_ns_ : 0;
  out.spans = lanes_;
  out.worker_busy_ns.assign(workers_, 0);
  out.worker_recorded_ns.assign(workers_, 0);

  // One pass over every lane: phase totals, per-worker totals, and the
  // per-window busy sums the rows below pick up.
  std::map<uint64_t, uint64_t> window_busy;
  for (uint32_t w = 0; w < workers_; ++w) {
    for (const HostSpan& s : lanes_[w]) {
      out.phase_ns[static_cast<size_t>(s.phase)] +=
          static_cast<double>(s.duration());
      out.worker_recorded_ns[w] += s.duration();
      if (s.phase == HostPhase::kLaneDrain ||
          s.phase == HostPhase::kOutboxFlush) {
        out.worker_busy_ns[w] += s.duration();
        window_busy[s.window] += s.duration();
      }
    }
  }
  if (workers_ > 0) out.coordinator_recorded_ns = out.worker_recorded_ns[0];

  // Per-window rows from the coordinator timeline. Coordinator spans
  // arrive in time order and each window's group is contiguous:
  // plan [serial_drain] plan [wake] lane_drain outbox_flush
  // [outbox_flush] [wait], where the second outbox_flush is the
  // coordinator's mailbox pre-drain for the next boundary. The final
  // drain iteration (queues empty, no window started) records
  // plan spans under one-past-the-last window index and produces no
  // row: it has no lane_drain.
  if (!lanes_.empty()) {
    std::map<uint64_t, HostWindowRow> rows;
    std::map<uint64_t, uint64_t> parallel_start;  // first lane_drain t0
    for (const HostSpan& s : lanes_[0]) {
      HostWindowRow& r = rows.try_emplace(s.window).first->second;
      if (r.end_ns == 0 && r.start_ns == 0) r.start_ns = s.t0;
      r.window = s.window;
      r.start_ns = std::min(r.start_ns, s.t0);
      r.end_ns = std::max(r.end_ns, s.t1);
      if (s.phase == HostPhase::kLaneDrain) {
        // Parallel segment start: the coordinator enters its lane block
        // immediately after the release.
        parallel_start[s.window] = s.t0;
      }
    }
    for (auto& [win, r] : rows) {
      auto ps = parallel_start.find(win);
      if (ps == parallel_start.end()) continue;  // final drain iteration
      r.parallel_span_ns = r.end_ns - ps->second;
      r.serial_ns = (r.end_ns - r.start_ns) - r.parallel_span_ns;
      out.window_rows.push_back(r);
    }
    for (HostWindowRow& r : out.window_rows) {
      auto busy = window_busy.find(r.window);
      if (busy != window_busy.end()) r.busy_ns = busy->second;
      out.window_span_hist.record(r.parallel_span_ns);
      out.window_busy_hist.record(r.busy_ns);
    }
  }
  out.windows = out.window_rows.size();

  uint64_t parallel_total = 0;
  for (const HostWindowRow& r : out.window_rows) {
    parallel_total += r.parallel_span_ns;
  }
  out.serial_ns =
      out.wall_ns > parallel_total ? out.wall_ns - parallel_total : 0;
  out.serial_fraction =
      out.wall_ns > 0
          ? static_cast<double>(out.serial_ns) / static_cast<double>(out.wall_ns)
          : 0;
  return out;
}

std::map<std::string, double> HostProfile::host_metrics() const {
  std::map<std::string, double> m;
  m["host.profile.wall_ns"] = static_cast<double>(wall_ns);
  m["host.profile.windows"] = static_cast<double>(windows);
  m["host.profile.workers"] = static_cast<double>(workers);
  m["host.profile.serial_ns"] = static_cast<double>(serial_ns);
  m["host.profile.serial_fraction"] = serial_fraction;
  for (size_t p = 0; p < kNumHostPhases; ++p) {
    m["host.phase." + std::string(host_phase_name(
                          static_cast<HostPhase>(p))) + "_ns"] = phase_ns[p];
  }
  double busy_min = 1, busy_max = 0, busy_sum = 0;
  for (uint64_t b : worker_busy_ns) {
    const double f =
        wall_ns > 0 ? static_cast<double>(b) / static_cast<double>(wall_ns)
                    : 0;
    busy_min = std::min(busy_min, f);
    busy_max = std::max(busy_max, f);
    busy_sum += f;
  }
  if (worker_busy_ns.empty()) busy_min = 0;
  m["host.worker.busy_frac_min"] = busy_min;
  m["host.worker.busy_frac_max"] = busy_max;
  m["host.worker.busy_frac_mean"] =
      worker_busy_ns.empty() ? 0 : busy_sum / worker_busy_ns.size();
  auto hist = [&m](const char* stem, const Histogram& h) {
    const std::string base = std::string("host.window.") + stem;
    m[base + ".count"] = static_cast<double>(h.count());
    m[base + ".sum"] = static_cast<double>(h.sum());
    m[base + ".min"] = static_cast<double>(h.min());
    m[base + ".max"] = static_cast<double>(h.max());
  };
  hist("span_ns", window_span_hist);
  hist("busy_ns", window_busy_hist);
  return m;
}

void HostProfile::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  CR_CHECK_MSG(f != nullptr, "cannot open host trace file");
  std::fprintf(f, "[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host backend (%u workers)\"}},\n",
               workers);
  std::fputs(
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"serial phase\"}}",
      f);
  for (uint32_t w = 0; w < workers; ++w) {
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                 "\"name\":\"thread_name\",\"args\":{\"name\":\"worker "
                 "%u\"}}",
                 w + 1, w);
  }
  for (uint32_t w = 0; w < spans.size(); ++w) {
    for (const HostSpan& s : spans[w]) {
      // Coordinator plan/serial segments go to the dedicated serial
      // track; everything else to the worker's own track.
      const bool serial_track =
          w == 0 && (s.phase == HostPhase::kPlan ||
                     s.phase == HostPhase::kSerialDrain);
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"window\":%llu}}",
                   serial_track ? 0 : w + 1, s.t0 / 1000.0,
                   (s.t1 - s.t0) / 1000.0, host_phase_name(s.phase),
                   static_cast<unsigned long long>(s.window));
    }
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
}

void HostProfile::write_json(const std::string& path,
                             const std::string& app) const {
  FILE* f = std::fopen(path.c_str(), "w");
  CR_CHECK_MSG(f != nullptr, "cannot open host phases file");
  std::fprintf(f, "{\n  \"kind\": \"host_phases\",\n");
  std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
  std::fprintf(f, "  \"workers\": %u,\n", workers);
  std::fprintf(f, "  \"windows\": %llu,\n",
               static_cast<unsigned long long>(windows));
  std::fprintf(f, "  \"wall_ns\": %llu,\n",
               static_cast<unsigned long long>(wall_ns));
  std::fprintf(f, "  \"serial_ns\": %llu,\n",
               static_cast<unsigned long long>(serial_ns));
  std::fprintf(f, "  \"serial_fraction\": %.6f,\n", serial_fraction);
  std::fprintf(f, "  \"coordinator_recorded_ns\": %llu,\n",
               static_cast<unsigned long long>(coordinator_recorded_ns));
  std::fprintf(f, "  \"phase_ns\": {");
  for (size_t p = 0; p < kNumHostPhases; ++p) {
    std::fprintf(f, "%s\"%s\": %.0f", p == 0 ? "" : ", ",
                 host_phase_name(static_cast<HostPhase>(p)), phase_ns[p]);
  }
  std::fprintf(f, "},\n  \"workers_detail\": [\n");
  for (uint32_t w = 0; w < workers; ++w) {
    std::fprintf(f,
                 "    {\"worker\": %u, \"busy_ns\": %llu, "
                 "\"recorded_ns\": %llu, \"spans\": %llu}%s\n",
                 w, static_cast<unsigned long long>(worker_busy_ns[w]),
                 static_cast<unsigned long long>(worker_recorded_ns[w]),
                 static_cast<unsigned long long>(spans[w].size()),
                 w + 1 < workers ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"windows_detail\": [\n");
  for (size_t i = 0; i < window_rows.size(); ++i) {
    const HostWindowRow& r = window_rows[i];
    std::fprintf(f,
                 "    {\"window\": %llu, \"start_ns\": %llu, \"end_ns\": "
                 "%llu, \"serial_ns\": %llu, \"parallel_span_ns\": %llu, "
                 "\"busy_ns\": %llu}%s\n",
                 static_cast<unsigned long long>(r.window),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns),
                 static_cast<unsigned long long>(r.serial_ns),
                 static_cast<unsigned long long>(r.parallel_span_ns),
                 static_cast<unsigned long long>(r.busy_ns),
                 i + 1 < window_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace cr::support
