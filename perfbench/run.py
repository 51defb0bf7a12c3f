#!/usr/bin/env python3
"""Host-time benchmark of the control-replication simulator.

Runs one workload for a fixed time, checks its outputs, and prints every
metric by name and unit; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n>
                             --seconds <n> --trace <0|1>
    python3 perfbench/run.py --smoke

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
all instrumentation off; --trace 1 reports its per-layer metrics, from
traced runs made next to untraced ones. --smoke runs every workload at a
tiny size and checks the benchmark itself (see README.md).

The benchmark binary, crbench, is built from source on first use, under
$CARGO_TARGET_DIR (default .bench_build) in the checkout. Every run of the
program is a process of its own, so each run's peak memory is its own and
the order of runs cannot change another run's numbers.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
         / "perfbench")
BINARY = BUILD / "crbench"

# A benchmark run must end within 180 s; no one process may take longer
# than this.
PROCESS_TIMEOUT_S = 150
# Timed runs per measurement, at least (trace 0: untraced runs; trace 1:
# cycles of untraced + traced runs).
MIN_RUNS = {0: 3, 1: 2}
# Where a set-up costs less than this share of a run, set-up-only runs
# between the timed runs, up to this share of the time, give it more
# samples than the full runs do. Spread over the whole measurement, they
# see the same host load as the full runs.
SETUP_SHARE = 0.1
MAX_SETUPS = 50
# The real-data run compared with the sequential oracle.
ORACLE_SIZE = ["--nodes=8", "--steps=3"]
# A workload on the windowed backend runs one worker thread: its run time
# is steady. Under --trace 1 it is also run with this many workers, which
# is where the backend's cross-thread synchronisation costs show; on a
# shared 4-vCPU host those runs vary by 2x from one minute to the next.
PARALLEL_WORKERS = 4
# HostProfiler::profile() costs O(windows x spans): minutes at the full
# PENNANT size. The backend's phase split at PARALLEL_WORKERS is
# therefore summed over a traced run of the same input at this node
# count.
PHASE_PROFILE_NODES = 16
HOST_PHASES = ("plan", "serial_drain", "lane_drain", "outbox_flush",
               "barrier_wait", "barrier_wake", "elided")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics():
    """(end_to_end, per_layer): lists of (name, unit) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def build():
    """Configures and builds crbench; a no-op when it is up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no program sources next to perfbench/ "
                           "(run from the root of a full checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)


def crbench(*args):
    """Runs crbench once. Returns its JSON line, or None if it failed."""
    try:
        p = subprocess.run([str(BINARY), *args], capture_output=True,
                           text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"crbench {' '.join(args)}: timed out")
        return None
    if p.returncode != 0:
        log(f"crbench {' '.join(args)}: exit {p.returncode}\n"
            f"{p.stderr[-2000:]}")
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"crbench {' '.join(args)}: unreadable output")
        return None


def ratio(num, den):
    """None when the base is zero: null in the report, 0 on the result
    line (whose values must be numbers)."""
    return num / den if den else None


class Tally:
    """Attempted and failed runs. A run fails if it aborts (which covers
    not quiescing: the engine aborts then) or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def same_program(ref, got, digest_key="digest"):
    return (got["makespan_ns"] == ref["makespan_ns"]
            and got[digest_key] == ref[digest_key])


def measure(name, seed, seconds, trace, size, inject=False):
    """Runs one workload for `seconds`; returns (result, tally) where
    result holds the raw runs, or (None, tally) if no run succeeded."""
    common = [f"--workload={name}", f"--seed={seed}", *size]
    tally = Tally()

    oracle = crbench("oracle", f"--workload={name}", f"--seed={seed}",
                     *ORACLE_SIZE, *(["--inject-mismatch"] if inject else []))
    tally.record(oracle is not None and oracle["ok"],
                 "oracle: " + (oracle["first_mismatch"] if oracle
                               else "run failed"))

    untraced, traced, parallel, setups = [], [], [], []
    ref = None
    begin = time.monotonic()
    deadline = begin + seconds
    setup_time = 0.0
    while True:
        start = time.monotonic()
        r = crbench("run", *common)
        if r is not None and ref is None:
            ref = r
        if tally.record(r is not None and same_program(ref, r),
                        "untraced run differs from the first"):
            untraced.append(r)
            setups.append(r["setup_s"])
        if trace and ref is not None:
            t = crbench("traced", *common)
            if tally.record(t is not None and same_program(ref, t),
                            "traced run differs from the untraced run"):
                traced.append(t)
            if ref["workers"] > 0:
                # More workers: the same timeline, only the window-shape
                # gauges may differ.
                rp = crbench("run", *common,
                             f"--workers={PARALLEL_WORKERS}")
                if tally.record(rp is not None and same_program(
                        ref, rp, "digest_no_window_shape"),
                        f"workers={PARALLEL_WORKERS} run differs from "
                        f"the workload's"):
                    parallel.append(rp)
        cycle = time.monotonic() - start
        if ref is None:
            return None, tally
        cheap = ref["setup_s"] < SETUP_SHARE * ref["run_s"]
        while (cheap and len(setups) < MAX_SETUPS and setup_time
               < SETUP_SHARE * (time.monotonic() - begin)):
            t0 = time.monotonic()
            s = crbench("setup", *common)
            if tally.record(s is not None, "set-up-only run failed"):
                setups.append(s["setup_s"])
            setup_time += time.monotonic() - t0
        done = len(untraced) if not trace else min(len(untraced),
                                                   len(traced))
        # Stop before the next cycle would overrun; once a run has
        # failed, do not insist on the minimum number of runs.
        if (time.monotonic() + cycle > deadline
                and (done >= MIN_RUNS[trace] or tally.failed)):
            break

    extra = {}
    if ref["workers"] > 0:
        # The windowed backend must replay the sequential event loop.
        r0 = crbench("run", *common, "--workers=0")
        tally.record(r0 is not None
                     and same_program(ref, r0, "digest_no_window_shape"),
                     "workers=0 run differs from the workload's")
        if trace:
            nodes = min(ref["nodes"], PHASE_PROFILE_NODES)
            prof = crbench("traced", *common, f"--nodes={nodes}",
                           f"--workers={PARALLEL_WORKERS}",
                           "--aggregate-profile")
            if tally.record(prof is not None and prof["host"] is not None,
                            "profiled run failed"):
                extra["profile"] = prof
    return {"ref": ref, "untraced": untraced, "traced": traced,
            "parallel": parallel,
            "setups": setups, **extra}, tally


def median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(res):
    u = res["untraced"]
    return {
        "setup_s": median(res["setups"]),
        "run_s": median([r["run_s"] for r in u]),
        "peak_rss_mb": median([r["peak_rss_kb"] for r in u]) / 1024.0,
        "virtual_makespan": res["ref"]["makespan_ns"] * 1e-9,
    }


def per_layer_metrics(res):
    ref = res["ref"]
    tr = res["traced"]
    c = tr[0]["counts"] if tr else {}
    run_s = median([r["run_s"] for r in res["untraced"]])

    def layer(key):
        values = [t["layers"][key] for t in tr
                  if t["layers"].get(key) is not None]
        return median(values)

    m = {"apps.build_s": layer("build_s")}
    m["passes.compile_s"] = layer("compile_s")
    for k in ("p2p_copies", "barriers", "collectives", "isect_tables"):
        m["passes." + k] = c.get("passes." + k)
    m["exec.engine_init_s"] = layer("engine_init_s")
    m["exec.unroll_s"] = layer("unroll_s")
    m["exec.host_ns_per_node_step"] = (
        run_s * 1e9 / (ref["nodes"] * ref["steps"]))
    for k in ("point_tasks", "copies_issued", "messages", "bytes_moved"):
        m["exec." + k] = c.get("exec." + k)
    for k in ("dep.pairs_tested", "dep.pairs_scanned", "dep.index_queries",
              "overlap.exact", "barrier.generations", "collective.rounds"):
        m["rt." + k] = c.get("rt." + k)
    if c:
        m["rt.dep.useful_ratio"] = ratio(c["rt.dep.dependences"],
                                         c["rt.dep.pairs_tested"])
        m["rt.alias.hit_ratio"] = ratio(
            c["rt.alias.fast"] + c["rt.alias.cache_hits"],
            c["rt.alias.queries"])
        m["rt.isect_cache.hit_ratio"] = ratio(
            c["rt.isect_cache.hits"],
            c["rt.isect_cache.hits"] + c["rt.isect_cache.misses"])
    events = ref["events"]
    syncs = ref["windows"] + ref["windows_elided"]
    m["sim.events"] = events
    m["sim.events_per_s"] = ratio(events, run_s)
    m["sim.windows"] = ref["windows"]
    m["sim.windows_elided"] = ref["windows_elided"]
    # Per worker of the PARALLEL_WORKERS run; the sync points are the
    # same at every worker count.
    m["sim.events_per_sync"] = ratio(events, syncs * PARALLEL_WORKERS)

    # The windowed backend's phases, from the raw HostProfile totals (not
    # HostProfile::serial_fraction, which counts elided rendezvous as
    # parallel). A workload on the sequential loop spends 0 s in them.
    host = res.get("profile", {}).get("host") or {}
    for p in HOST_PHASES:
        m[f"sim.phase.{p}_s"] = host.get(p, 0) * 1e-9
    slots = host.get("workers", 0) * host.get("wall_ns", 0)
    m["sim.busy_frac"] = ratio(host.get("busy_ns", 0), slots)
    m["sim.sync_frac"] = ratio(
        sum(host.get(p, 0) for p in ("barrier_wait", "barrier_wake",
                                     "elided")), slots)
    # The workload itself runs one worker.
    m["sim.speedup_vs_w1"] = (
        ratio(run_s, median([r["run_s"] for r in res["parallel"]]))
        if res["parallel"] else None)

    if tr:
        m["trace.overhead_s"] = median([t["run_s"] for t in tr]) - run_s
        m["trace.unaccounted_s"] = median([
            t["layers"]["wall_s"] - (t["layers"]["build_s"]
                                     + t["layers"]["compile_s"]
                                     + t["layers"]["engine_init_s"]
                                     + t["layers"]["run_s"])
            for t in tr])
    return m


def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(name, res, tally, trace, seed, declared):
    """Prints the human-readable report; returns (metrics, result line).
    The report holds every metric this mode measures, both kinds under
    --trace 1; the result line holds the declared kind only."""
    e2e, per_layer = declared
    ref = res["ref"]
    seed_note = ("passed to the random graph generator" if ref["seeded"]
                 else "not used: the mesh is structured")
    print(f"== {name}: {ref['nodes']} simulated nodes, {ref['steps']} steps,"
          f" workers={ref['workers']}; seed {seed} ({seed_note})")
    print(f"   runs: {len(res['untraced'])} untraced, {len(res['traced'])} "
          f"traced, {len(res['setups'])} set-ups; attempted "
          f"{tally.attempted}, failed {tally.failed}")
    for why in tally.failures:
        print(f"   FAILED: {why}")
    metrics = end_to_end_metrics(res)
    metrics["fail_ratio"] = tally.failed / tally.attempted
    if trace:
        metrics.update(per_layer_metrics(res))
        shown = e2e + per_layer
    else:
        shown = e2e + [m for m in per_layer if m[0] == "fail_ratio"]
    for metric, unit in shown:
        print(f"   {metric:<28} {fmt(metrics.get(metric)):>14} {unit}")
    declared_kind = per_layer if trace else e2e
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": 0 if metrics.get(metric) is None
                     else metrics[metric], "unit": unit}
            for metric, unit in declared_kind},
    }
    return metrics, line


def write_spans(name, seed, res):
    """Writes the last traced run's layer spans next to the build."""
    if not res["traced"]:
        return
    out = BUILD / "spans" / f"{name}.seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(res["traced"][-1]["spans"], indent=1) + "\n")


def run_one(name, seed, seconds, trace, size, declared, inject=False):
    """Measures and reports one workload; returns (metrics, line) or None
    when no run succeeded."""
    res, tally = measure(name, seed, seconds, trace, size, inject)
    if res is None:
        print(f"== {name}: no run succeeded")
        for why in tally.failures:
            print(f"   FAILED: {why}")
        return None
    write_spans(name, seed, res)
    return report(name, res, tally, trace, seed, declared)


def workload_names():
    p = subprocess.run([str(BINARY), "list"], capture_output=True,
                       text=True, check=True)
    return p.stdout.split()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check the benchmark itself at tiny sizes")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    declared = declared_metrics()
    build()
    if args.smoke:
        from smoke import smoke  # perfbench/smoke.py
        return smoke(run_one, workload_names(), declared)

    known = workload_names()
    names = known if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        ap.error(f"unknown workload; known: {' '.join(known)}")
    lines = {}
    for name in names:
        out = run_one(name, args.seed, args.seconds, args.trace, [],
                      declared)
        if out is None:
            return 1
        lines[name] = out[1]
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{n}/{k}": v for n, x in lines.items()
                        for k, v in x["metrics"].items()},
        }
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
