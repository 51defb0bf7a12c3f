"""The benchmark's own test: `python3 perfbench/run.py --smoke`.

Runs every workload at a tiny size in both modes and checks that
 - every declared metric is on the result line with its declared unit,
   as a finite number, and the report prints every metric of the mode;
 - a ratio whose base is zero prints as null, never as NaN or inf;
 - an injected output mismatch is counted in fail_ratio;
 - the order in which workloads run does not change their numbers.
Prints one line per problem and returns 1 if there is any.
"""

import json
import math

TINY = ["--nodes=4", "--steps=2"]
SECONDS = 0.1
# The windowed backend's ratios, undefined on the sequential event loop.
WINDOWED_RATIOS = ("sim.events_per_sync", "sim.busy_frac", "sim.sync_frac",
                   "sim.speedup_vs_w1")


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def smoke(run_one, names, declared):
    e2e, per_layer = declared
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        return ok

    traced = {}
    for name in names:
        for trace in (0, 1):
            out = run_one(name, 1, SECONDS, trace, TINY, declared)
            if not expect(out is not None, f"{name} --trace {trace}: no run"):
                continue
            metrics, line = out
            tag = f"{name} --trace {trace}"
            kind = per_layer if trace else e2e
            expect(set(line["metrics"]) == {m for m, _ in kind},
                   f"{tag}: result line does not hold exactly the "
                   f"declared metrics")
            for metric, unit in kind:
                v = line["metrics"].get(metric, {})
                expect(v.get("unit") == unit and is_number(v.get("value")),
                       f"{tag}: {metric} is {v} on the result line")
            for metric, _ in (e2e + per_layer) if trace else e2e:
                expect(metric in metrics, f"{tag}: {metric} not reported")
            expect(all(v is None or is_number(v) for v in metrics.values()),
                   f"{tag}: a reported value is NaN or inf")
            try:
                json.dumps(line, allow_nan=False)
            except ValueError:
                problems.append(f"{tag}: result line is not plain JSON")
            expect(line["correct"] and line["failed"] == 0
                   and line["attempted"] >= 1,
                   f"{tag}: correct={line['correct']} "
                   f"failed={line['failed']}")
            if trace:
                traced[name] = metrics

    # Zero bases: dependence pairs on the CR workloads, windows on the
    # sequential event loop.
    zero_bases = 0
    for name, m in traced.items():
        if m.get("rt.dep.pairs_tested") == 0:
            zero_bases += 1
            expect(m["rt.dep.useful_ratio"] is None,
                   f"{name}: rt.dep.useful_ratio with 0 pairs tested is "
                   f"{m['rt.dep.useful_ratio']}, not null")
        if m.get("sim.windows") == 0 and m.get("sim.windows_elided") == 0:
            zero_bases += 1
            for metric in WINDOWED_RATIOS:
                expect(m[metric] is None,
                       f"{name}: {metric} without windows is {m[metric]}, "
                       f"not null")
    expect(zero_bases > 0, "no workload exercised a zero-base ratio")

    out = run_one(names[0], 1, SECONDS, 0, TINY, declared, inject=True)
    if expect(out is not None, "injected mismatch: no run"):
        metrics, line = out
        expect(metrics["fail_ratio"] > 0 and not line["correct"],
               f"injected mismatch: fail_ratio {metrics['fail_ratio']}, "
               f"correct {line['correct']}")

    # Order independence: the same runs, forward then in reverse.
    by_order = []
    for order in (names, names[::-1]):
        seen = {}
        for name in order:
            out = run_one(name, 1, SECONDS, 0, TINY, declared)
            if out is not None:
                seen[name] = out[0]
        by_order.append(seen)
    for name in names:
        a, b = (x.get(name) for x in by_order)
        if not expect(a is not None and b is not None,
                      f"order check: {name} did not run"):
            continue
        expect(a["virtual_makespan"] == b["virtual_makespan"],
               f"order check: {name} makespan depends on the order")
        expect(abs(a["peak_rss_mb"] - b["peak_rss_mb"])
               <= 0.1 * max(a["peak_rss_mb"], b["peak_rss_mb"]),
               f"order check: {name} peak memory {a['peak_rss_mb']:.1f} vs "
               f"{b['peak_rss_mb']:.1f} MB")

    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0
