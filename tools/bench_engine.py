#!/usr/bin/env python3
"""Run the engine microbenches and maintain BENCH_engine.json.

Two modes:

  run    (default) Execute every bench in SUITES (bench_micro_net,
         _simcore, _sched, _dispatch and _coflow) from a build directory,
         merge the fresh numbers with the committed pre-optimization
         baselines (results/bench_*_before.json), compute per-benchmark
         speedups, record each suite's fitted BigO complexities before and
         after, and write BENCH_engine.json.

  check  Execute the benches with a short --benchmark_min_time and compare
         against the "after" numbers committed in BENCH_engine.json. Exits
         non-zero when a bench crashes or any benchmark regressed by more
         than --max-regression (default 3x). Intended as a CI smoke guard,
         not a precise gate: shared runners are noisy, so the threshold is
         deliberately loose and the CI job is continue-on-error.

Only the Python standard library is used.
"""

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUITES = {
    "bench_micro_net": "results/bench_net_before.json",
    "bench_micro_simcore": "results/bench_simcore_before.json",
    "bench_micro_sched": "results/bench_sched_before.json",
    "bench_micro_dispatch": "results/bench_dispatch_before.json",
    "bench_micro_coflow": "results/bench_coflow_before.json",
}

_NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_bench(build_dir, name, min_time, bench_filter=""):
    exe = os.path.join(build_dir, "bench", name)
    if not os.path.exists(exe):
        sys.exit(f"error: {exe} not found (build the benches first)")
    cmd = [exe, f"--benchmark_min_time={min_time}", "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {name} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def extract(report):
    """Map benchmark name -> normalized numbers, skipping aggregates."""
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if name.endswith("_BigO") or name.endswith("_RMS"):
            continue
        unit = _NS_PER.get(b.get("time_unit", "ns"), 1.0)
        entry = {"real_time_ns": b["real_time"] * unit}
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        out[name] = entry
    return out


def extract_big_o(report):
    """Map family name -> fitted BigO, e.g. {"BM_CctLowerBound": "N^2"}."""
    out = {}
    for b in report.get("benchmarks", []):
        name = b["name"]
        if name.endswith("_BigO") and "big_o" in b:
            out[name[:-len("_BigO")]] = b["big_o"]
    return out


def load_before(path):
    full = os.path.join(REPO, path)
    if not os.path.exists(full):
        return {}, {}
    with open(full) as f:
        report = json.load(f)
    return extract(report), extract_big_o(report)


def speedups(before, after):
    out = {}
    for name, b in before.items():
        a = after.get(name)
        if a is None or a["real_time_ns"] <= 0:
            continue
        out[name] = round(b["real_time_ns"] / a["real_time_ns"], 3)
    return out


def cmd_run(args):
    doc = {
        "comment": "Engine micro-benchmark record. 'before' is the "
                   "pre-optimization engine (committed baselines in "
                   "results/); 'speedup' is before/after wall time. "
                   "Regenerate with tools/bench_engine.py run.",
        "min_time_sec": args.min_time,
        "suites": {},
    }
    for suite, before_path in SUITES.items():
        report = run_bench(args.build_dir, suite, args.min_time, args.filter)
        after = extract(report)
        before, before_big_o = load_before(before_path)
        doc["suites"][suite] = {
            "before": before,
            "after": after,
            "speedup": speedups(before, after),
        }
        after_big_o = extract_big_o(report)
        if before_big_o or after_big_o:
            doc["suites"][suite]["big_o"] = {
                "before": before_big_o,
                "after": after_big_o,
            }
        print(f"{suite}: {len(after)} benchmarks", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


def cmd_check(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = []
    for suite in SUITES:
        fresh = extract(
            run_bench(args.build_dir, suite, args.min_time, args.filter))
        committed = baseline.get("suites", {}).get(suite, {}).get("after", {})
        for name, ref in committed.items():
            cur = fresh.get(name)
            if cur is None:
                # With an explicit --filter the committed entries outside
                # the filter are intentionally absent, not regressions.
                if not args.filter:
                    failures.append(f"{suite}: {name} missing from fresh run")
                continue
            ratio = cur["real_time_ns"] / max(ref["real_time_ns"], 1e-9)
            status = "FAIL" if ratio > args.max_regression else "ok"
            print(f"[{status}] {name}: {ratio:.2f}x committed time")
            if ratio > args.max_regression:
                failures.append(
                    f"{suite}: {name} is {ratio:.2f}x slower than the "
                    f"committed number (limit {args.max_regression}x)")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)
    print("bench check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", nargs="?", default="run", choices=["run", "check"])
    p.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    p.add_argument("--out", default=os.path.join(REPO, "BENCH_engine.json"))
    p.add_argument("--baseline",
                   default=os.path.join(REPO, "BENCH_engine.json"))
    p.add_argument("--min-time", default="0.2",
                   help="--benchmark_min_time per bench binary")
    p.add_argument("--filter", default="",
                   help="--benchmark_filter regex passed to every bench "
                        "(check mode skips committed entries it excludes; "
                        "use '-SelfTime' to drop the full-run dispatch "
                        "pairs on time-constrained runners)")
    p.add_argument("--max-regression", type=float, default=3.0)
    args = p.parse_args()
    if args.mode == "run":
        cmd_run(args)
    else:
        cmd_check(args)


if __name__ == "__main__":
    main()
