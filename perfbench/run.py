#!/usr/bin/env python3
"""The repository benchmark: host cost and schedule quality of the cosched
simulator on three fixed SWIM-style traces, with each layer timed from
outside the library.

    python3 perfbench/run.py --workload cosched-ocs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. The first run builds `perfbench_sim` (the
library compiled from src/ plus the benchmark's own C++) into .bench_build/.
Each repetition is one `perfbench_sim` process that replays the workload's
whole trace; repetitions continue until --seconds have passed.

  --trace 0  untraced repetitions only; prints the end-to-end metrics:
             medians of the host costs, schedule quality of the seed.
  --trace 1  alternates untraced and traced repetitions; prints the
             per-layer metrics: the layer timers and the parts of the run
             from the median traced repetition, whose simulated results
             must equal the untraced ones bit for bit, and the rest from
             the median untraced one.

End-to-end host seconds are read at the reference host's speed: every
repetition times a fixed reference kernel around its replay, and its
seconds are scaled by REFERENCE_S over that kernel time.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (jobs of the trace, summed over repetitions) and `metrics`; with
`--workload all`, one object per workload, keyed by name. A repetition that
aborts fails all of its jobs; so does one whose digest differs from the
first untraced repetition's. perfbench/README.md documents every metric.
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
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_sim"

# Workload and metric names and units are those of BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# The reference kernel's time on the host the benchmark was defined on, a
# 4-vCPU Xeon VM: end-to-end host seconds are reported at that speed.
REFERENCE_S = 0.33

MIN_REPS = {0: 3, 1: 4}  # by --trace
# No repetition starts after HARD_STOP_S, and none runs past DEADLINE_S, so
# a run ends within three minutes even on a slow host.
HARD_STOP_S = 120.0
DEADLINE_S = 165.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench_sim; False when that fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_sim",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return BINARY.exists()


def json_lines(text):
    """The JSON objects among the lines of `text`; a torn line is skipped."""
    objects = []
    for line in text.splitlines():
        try:
            objects.append(json.loads(line))
        except ValueError:
            pass
    return objects


def run_rep(workload, seed, mode, spans=None, timeout=DEADLINE_S):
    """One perfbench_sim process. Returns its result dict; a process that
    fails or prints no result becomes {"jobs": N, "jobs_failed": N}."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        out, err, code = out or "", "timed out", -1
    objects = json_lines(out)
    announced = objects[0].get("jobs", 1) if objects else 1
    if code == 0 and len(objects) == 2 and "metrics" in objects[1]:
        result = objects[1]
        result["mode"] = mode
        return result
    log(f"{mode} repetition failed (exit {code}): {err.strip()[-500:]}")
    return {"jobs": announced, "jobs_failed": announced, "mode": mode,
            "messages": [f"exit {code}"]}


def repetitions(workload, seed, seconds, trace):
    """Repeat until `seconds` have passed (and at least MIN_REPS times):
    untraced only, or alternating untraced/traced."""
    modes = ["dark"] if not trace else ["dark", "traced"]
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS[trace] or time.monotonic() - start < seconds:
        elapsed = time.monotonic() - start
        if elapsed > HARD_STOP_S:
            break
        mode = modes[len(reps) % len(modes)]
        spans = (spans_dir / f"{workload}-{seed}-{len(reps)}.csv"
                 if mode == "traced" else None)
        reps.append(run_rep(workload, seed, mode, spans,
                            timeout=DEADLINE_S - elapsed))
    return reps


def check_digests(reps):
    """Fail every completed repetition whose simulated results differ from
    the first completed untraced repetition's."""
    done = [r for r in reps if "digest" in r]
    ref = next((r["digest"] for r in done if r["mode"] == "dark"), None)
    for r in done:
        if ref is not None and r["digest"] != ref:
            r["jobs_failed"] = r["jobs"]
            r["messages"].append(
                f"{r['mode']} digest {r['digest']} differs from {ref}")


def at_reference_speed(reps, key):
    """Median over `reps` of host seconds `key`, each scaled to the
    reference host's speed by the kernel time measured around it."""
    return statistics.median(
        REFERENCE_S * r["metrics"][key] / r["metrics"]["host.reference_s"]
        for r in reps)


def median_rep(reps):
    """The repetition whose run time at the reference speed is the (lower)
    median."""
    ranked = sorted(reps, key=lambda r: r["metrics"]["sim.run_s"] /
                    r["metrics"]["host.reference_s"])
    return ranked[(len(ranked) - 1) // 2]


def from_traced(name):
    """Whether per-layer metric `name` comes from the traced repetition:
    the layer timers and the split that adds up to its run. The others
    come from the untraced one, free of the timers' overhead."""
    return (name.startswith(("sched.", "cluster.")) or
            name in ("sim.run_s", "sim.engine_self_s"))


def summarize(reps, trace):
    """The result object: verdict, job counts, and the metric set of the
    mode, each as {"value", "unit"}; metrics is empty when no repetition
    of the needed kind passed."""
    check_digests(reps)
    attempted = sum(r["jobs"] for r in reps)
    failed = sum(r["jobs_failed"] for r in reps)
    good = [r for r in reps if "metrics" in r and r["jobs_failed"] == 0]
    dark = [r for r in good if r["mode"] == "dark"]
    traced = [r for r in good if r["mode"] == "traced"]
    values = {}
    if not trace and dark:
        first = dark[0]["metrics"]
        values = {
            "wall_s": at_reference_speed(dark, "sim.run_s"),
            "setup_s": at_reference_speed(dark, "setup_s"),
            "peak_rss_mb": statistics.median(
                r["metrics"]["peak_rss_mb"] for r in dark),
            "jct_p50_s": first["jct_p50_s"],
            "jct_p90_s": first["jct_p90_s"],
        }
    elif trace and dark and traced:
        d = median_rep(dark)["metrics"]
        t = median_rep(traced)["metrics"]
        values = {name: (t if from_traced(name) else d)[name]
                  for name in PER_LAYER if name != "trace.overhead_share"}
        values["trace.overhead_share"] = (
            at_reference_speed(traced, "sim.run_s") /
            at_reference_speed(dark, "sim.run_s") - 1.0)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def run_workload(workload, seed, seconds, trace):
    """Run, summarize and report one workload on stderr."""
    reps = repetitions(workload, seed, seconds, trace)
    result = summarize(reps, trace)
    for r in reps:
        for msg in r.get("messages", []):
            log(f"check failed ({r['mode']}): {msg}")
    dark = sum(r["mode"] == "dark" for r in reps)
    log(f"{workload} seed {seed}: {len(reps)} repetitions "
        f"({dark} untraced), failed_share "
        f"{result['failed'] / result['attempted']:.4g}")
    for name, m in result["metrics"].items():
        log(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not build():
        log("perfbench: build failed")
        return 1
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in WORKLOADS}
        print(json.dumps(results), flush=True)
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
