#!/usr/bin/env python3
"""Drive the randomized simulation fuzzer (tests/test_fuzz_audit) seed by seed.

Each run invokes the fuzz binary with COSCHED_FUZZ_RUNS=1 and a distinct
COSCHED_FUZZ_SEED_BASE, so every seed gets its own process: one crashing or
invariant-violating configuration cannot mask the seeds after it, and the
failing seed is known exactly. The binary derives the whole configuration
(topology, workload, fault plan, scheduler, thread count) from the seed, runs
it with the invariant auditor armed, and cross-checks serial sharding against
parallel plus the production fast paths against the test-side oracles
(tests/oracles.h) — production dispatch against the all-racks scan, and for
the Co-scheduler family its incremental decisions against
ReferenceCoScheduler, alone and stacked on the scan — bit for bit
(DESIGN.md sections 10-11). The EPS rate oracle is checked replan by replan
in tests/test_rate_equivalence.cpp instead.

On failure the full test output — including the auditor's structured dump and
the seed recipe line — is appended to --report (default fuzz_failures.txt) so
CI can upload it as an artifact, and the exit code is non-zero.

Reproduce a failing seed directly:

  COSCHED_FUZZ_RUNS=1 COSCHED_FUZZ_SEED_BASE=<seed> build/tests/test_fuzz_audit

Only the Python standard library is used.
"""

import argparse
import os
import subprocess
import sys

DEFAULT_SEED_BASE = 0xF0222026


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=25,
                    help="number of seeds to fuzz (default 25)")
    ap.add_argument("--build-dir", default="build",
                    help="build directory containing tests/test_fuzz_audit")
    ap.add_argument("--seed-base", type=lambda s: int(s, 0),
                    default=DEFAULT_SEED_BASE,
                    help="first seed; run i uses seed-base + i "
                         f"(default {DEFAULT_SEED_BASE:#x})")
    ap.add_argument("--audit", dest="audit", action="store_true", default=True,
                    help="arm the invariant auditor (default)")
    ap.add_argument("--no-audit", dest="audit", action="store_false",
                    help="disable the auditor (perf triage only)")
    ap.add_argument("--report", default="fuzz_failures.txt",
                    help="file collecting failing seeds and their dumps")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="per-seed timeout in seconds (default 300)")
    args = ap.parse_args()

    exe = os.path.join(args.build_dir, "tests", "test_fuzz_audit")
    if not os.path.exists(exe):
        sys.exit(f"error: {exe} not found (build the tests first)")

    failures = []
    for i in range(args.runs):
        seed = args.seed_base + i
        env = dict(os.environ)
        env["COSCHED_FUZZ_RUNS"] = "1"
        env["COSCHED_FUZZ_SEED_BASE"] = str(seed)
        env["COSCHED_FUZZ_AUDIT"] = "1" if args.audit else "0"
        try:
            proc = subprocess.run([exe], env=env, capture_output=True,
                                  text=True, timeout=args.timeout)
            ok = proc.returncode == 0
            detail = proc.stdout + proc.stderr
        except subprocess.TimeoutExpired as e:
            ok = False
            detail = ((e.stdout or "") + (e.stderr or "") +
                      f"\n*** timed out after {args.timeout:.0f}s\n")
        status = "ok" if ok else "FAIL"
        print(f"[{i + 1:>3}/{args.runs}] seed={seed} {status}", flush=True)
        if not ok:
            failures.append((seed, detail))

    if failures:
        with open(args.report, "a") as f:
            for seed, detail in failures:
                f.write(f"==== seed {seed} ====\n{detail}\n")
        print(f"\n{len(failures)}/{args.runs} seeds failed; "
              f"dumps appended to {args.report}", file=sys.stderr)
        print("reproduce with: COSCHED_FUZZ_RUNS=1 "
              f"COSCHED_FUZZ_SEED_BASE={failures[0][0]} {exe}",
              file=sys.stderr)
        return 1
    print(f"\nall {args.runs} seeds clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
