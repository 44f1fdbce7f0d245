#!/usr/bin/env python3
"""Validate, pretty-print, and diff cosched RunReport JSON documents.

Usage:
  tools/run_report.py check  REPORT... [--require-phases p1,p2,...]
  tools/run_report.py show   REPORT [--phases]
  tools/run_report.py diff   REPORT_A REPORT_B [--tolerance=REL]

`check` validates the schema of every named report (exit 0/1) — pass
--require-phases to also demand that the named PerfMonitor phases recorded
samples with size attribution.  It also enforces liveness: a report whose
`faults` values are all zero must have no `metrics.deadlock_breaks` (a
fault-free run never needs the breaker).  `show` prints a human summary.
`diff` compares the result metrics of two reports (wall-clock fields are
informational only and never diffed), failing if any metric differs by more
than --tolerance relative (default 0: bit-exact decimal representation).
"""

import argparse
import json
import sys

SCHEMA = "cosched.run_report"
# v1 reports lack metrics.dispatch_waves (added in v2 together with the
# dispatch-engine work), v2 reports lack metrics.deadlock_breaks (added in
# v3), and v4 dropped the flat "profile" list (the PerfMonitor phases cover
# its scopes). Every version validates, and `diff` skips a field that one
# document predates.
VERSIONS = {1, 2, 3, 4}

# The five scheduling passes the scale campaign cares about (ISSUE 6
# acceptance); `check --require-phases=default` expands to these.
DEFAULT_REQUIRED_PHASES = [
    "psrt.enumerate",
    "sbs.explore",
    "ocas.grant",
    "sunflow.allocation",
    "eps.replan",
]

TOP_LEVEL_KEYS = {
    "schema": str,
    "version": int,
    "scheduler": str,
    "seed": int,
    "config": dict,
    "wall_time_sec": (int, float),
    "rss_high_water_bytes": int,
    "metrics": dict,
    "faults": dict,
    "counters": dict,
    "phases": list,
}

METRIC_KEYS = [
    "makespan_sec",
    "avg_jct_sec",
    "avg_cct_sec",
    "avg_jct_heavy_sec",
    "avg_jct_light_sec",
    "avg_cct_heavy_sec",
    "avg_cct_light_sec",
    "jct_percentiles",
    "cct_percentiles",
    "jain_fairness",
    "ocs_traffic_fraction",
    "ocs_gb",
    "eps_gb",
    "local_gb",
    "jobs",
    "events_executed",
]

# Metric fields added after v1, by the version that added them; each is
# required from that version on.
METRIC_KEYS_SINCE = {
    "dispatch_waves": 2,
    "deadlock_breaks": 3,
}

PHASE_KEYS = ["name", "calls", "total_ns", "max_ns", "latency_ns",
              "histogram", "by_size"]


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate(doc, errors):
    expected = dict(TOP_LEVEL_KEYS)
    version = doc.get("version")
    if isinstance(version, int) and version < 4:
        expected["profile"] = list  # the flat profile list v4 dropped
    for key, typ in expected.items():
        if key not in doc:
            errors.append(f"missing top-level key: {key}")
        elif not isinstance(doc[key], typ):
            errors.append(f"key {key!r} has type {type(doc[key]).__name__}")
    if errors:
        return
    if doc["schema"] != SCHEMA:
        errors.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if doc["version"] not in VERSIONS:
        errors.append(f"version is {doc['version']}, expected one of "
                      f"{sorted(VERSIONS)}")
    required = list(METRIC_KEYS)
    required += [k for k, v in METRIC_KEYS_SINCE.items()
                 if doc["version"] >= v]
    for key in required:
        if key not in doc["metrics"]:
            errors.append(f"missing metrics key: {key}")
    for digest in ("jct_percentiles", "cct_percentiles"):
        d = doc["metrics"].get(digest, {})
        for p in ("p50", "p90", "p99", "max"):
            if p not in d:
                errors.append(f"metrics.{digest} missing {p}")
    for i, phase in enumerate(doc["phases"]):
        for key in PHASE_KEYS:
            if key not in phase:
                errors.append(f"phases[{i}] missing key: {key}")
                continue
        name = phase.get("name", f"#{i}")
        count = phase.get("latency_ns", {}).get("count")
        if count != phase.get("calls"):
            errors.append(f"phase {name}: histogram count {count} != "
                          f"calls {phase.get('calls')}")
        hist_total = sum(n for _, _, n in phase.get("histogram", []))
        if hist_total != phase.get("calls"):
            errors.append(f"phase {name}: bucket sum {hist_total} != "
                          f"calls {phase.get('calls')}")
        size_calls = sum(b.get("calls", 0) for b in phase.get("by_size", []))
        if size_calls != phase.get("calls"):
            errors.append(f"phase {name}: by_size calls {size_calls} != "
                          f"calls {phase.get('calls')}")


def check_liveness(doc, errors):
    breaks = doc["metrics"].get("deadlock_breaks", 0)
    if breaks > 0 and not any(doc["faults"].values()):
        errors.append(f"fault-free run engaged the deadlock breaker "
                      f"{breaks} times")


def check_required_phases(doc, required, errors):
    by_name = {p.get("name"): p for p in doc.get("phases", [])}
    for name in required:
        phase = by_name.get(name)
        if phase is None:
            errors.append(f"required phase absent: {name}")
            continue
        if phase.get("calls", 0) == 0:
            errors.append(f"required phase recorded no samples: {name}")
            continue
        if not phase.get("histogram"):
            errors.append(f"required phase has empty histogram: {name}")
        if not phase.get("by_size"):
            errors.append(f"required phase has no size attribution: {name}")


def cmd_check(args):
    status = 0
    for report in args.reports:
        status |= check_one(report, args)
    return status


def check_one(report, args):
    try:
        doc = load(report)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL {report}: {exc}", file=sys.stderr)
        return 1
    errors = []
    validate(doc, errors)
    if not errors:
        check_liveness(doc, errors)
    if args.require_phases:
        spec = args.require_phases
        required = (DEFAULT_REQUIRED_PHASES if spec == "default"
                    else [p for p in spec.split(",") if p])
        check_required_phases(doc, required, errors)
    if args.max_rss_gb > 0:
        rss_gb = doc.get("rss_high_water_bytes", 0) / 2**30
        if rss_gb > args.max_rss_gb:
            errors.append(f"rss_high_water {rss_gb:.2f}GB exceeds "
                          f"--max-rss-gb={args.max_rss_gb}")
    if errors:
        for e in errors:
            print(f"FAIL {report}: {e}", file=sys.stderr)
        return 1
    print(f"OK {report}: schema v{doc['version']}, "
          f"scheduler={doc['scheduler']}, jobs={doc['metrics']['jobs']}, "
          f"{len(doc['phases'])} phases")
    return 0


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def cmd_show(args):
    doc = load(args.report)
    m = doc["metrics"]
    cfg = doc["config"]
    print(f"{doc['scheduler']} seed={doc['seed']} "
          f"jobs={cfg['jobs']} racks={cfg['racks']}")
    print(f"  wall {doc['wall_time_sec']:.2f}s  "
          f"rss_hwm {doc['rss_high_water_bytes'] / 2**20:.0f}MB  "
          f"events {m['events_executed']}")
    print(f"  makespan {m['makespan_sec']:.1f}s  "
          f"avg JCT {m['avg_jct_sec']:.1f}s  avg CCT {m['avg_cct_sec']:.1f}s")
    jp = m["jct_percentiles"]
    print(f"  JCT p50/p90/p99/max: {jp['p50']:.1f} {jp['p90']:.1f} "
          f"{jp['p99']:.1f} {jp['max']:.1f} s")
    print(f"  OCS fraction {m['ocs_traffic_fraction']:.3f}  "
          f"ocs/eps/local GB: {m['ocs_gb']:.1f}/{m['eps_gb']:.1f}/"
          f"{m['local_gb']:.1f}")
    if m.get("deadlock_breaks"):
        print(f"  deadlock breaker engaged {m['deadlock_breaks']} times")
    f = doc["faults"]
    if any(v for v in f.values()):
        print(f"  faults: {f}")
    phases = [p for p in doc["phases"] if p["calls"] > 0]
    if phases:
        print(f"  {'phase':<30}{'calls':>10}{'total':>10}"
              f"{'p50':>10}{'p99':>10}{'max':>10}")
        for p in sorted(phases, key=lambda p: -p["total_ns"]):
            lat = p["latency_ns"]
            print(f"  {p['name']:<30}{p['calls']:>10}"
                  f"{fmt_ns(p['total_ns']):>10}{fmt_ns(lat['p50']):>10}"
                  f"{fmt_ns(lat['p99']):>10}{fmt_ns(lat['max']):>10}")
            if args.phases:
                for b in p["by_size"]:
                    mean_ns = b["total_ns"] / b["calls"]
                    print(f"    size>={b['size_lo']:<8}{b['calls']:>12} calls"
                          f"{fmt_ns(mean_ns):>12} mean"
                          f"{fmt_ns(b['max_ns']):>12} max")
    return 0


def walk(prefix, value, out):
    if isinstance(value, dict):
        for k, v in sorted(value.items()):
            walk(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = value


def cmd_diff(args):
    a, b = load(args.report_a), load(args.report_b)
    flat_a, flat_b = {}, {}
    # Result metrics and faults only: wall-clock cost, counters, and
    # profiles legitimately differ between bit-identical runs.
    for doc, flat in ((a, flat_a), (b, flat_b)):
        walk("metrics", doc.get("metrics", {}), flat)
        walk("faults", doc.get("faults", {}), flat)
        flat["seed"] = doc.get("seed")
        flat["scheduler#"] = hash(doc.get("scheduler"))
    tol = args.tolerance
    bad = []
    for key in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(key), flat_b.get(key)
        if va is None or vb is None:
            since = METRIC_KEYS_SINCE.get(key.removeprefix("metrics."), 0)
            if min(a.get("version", 0), b.get("version", 0)) < since:
                continue  # one report predates the field
            bad.append((key, va, vb))
            continue
        if va == vb:
            continue
        denom = max(abs(va), abs(vb))
        if denom == 0 or abs(va - vb) / denom > tol:
            bad.append((key, va, vb))
    if bad:
        for key, va, vb in bad:
            print(f"DIFF {key}: {va} != {vb}")
        return 1
    print(f"MATCH {args.report_a} == {args.report_b} "
          f"({len(flat_a)} fields, tolerance={tol})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a report's schema")
    p_check.add_argument("reports", nargs="+", metavar="report")
    p_check.add_argument("--require-phases", default="",
                         help="comma-separated phase names that must have "
                              "samples ('default' = the five scheduler "
                              "passes)")
    p_check.add_argument("--max-rss-gb", type=float, default=0.0,
                         help="fail if the run's peak RSS (VmHWM) exceeds "
                              "this many GiB (0 = no limit); the CI "
                              "scale-smoke memory-regression guard")
    p_check.set_defaults(func=cmd_check)

    p_show = sub.add_parser("show", help="human-readable summary")
    p_show.add_argument("report")
    p_show.add_argument("--phases", action="store_true",
                        help="include per-phase size breakdowns")
    p_show.set_defaults(func=cmd_show)

    p_diff = sub.add_parser("diff", help="compare two reports' metrics")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.add_argument("--tolerance", type=float, default=0.0,
                        help="relative tolerance (default 0 = exact)")
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
