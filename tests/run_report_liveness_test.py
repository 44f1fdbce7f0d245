#!/usr/bin/env python3
"""`run_report.py check` must reject a fault-free report that used the
deadlock breaker, and accept the same report once a fault was injected.

Usage: run_report_liveness_test.py RUN_REPORT_PY REPORT

REPORT is a valid committed RunReport; copies of it are doctored in a
temporary directory and checked with RUN_REPORT_PY. Exit 0 on success.
"""

import json
import os
import subprocess
import sys
import tempfile


def check(tool, doc, tmp, name):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return subprocess.run([sys.executable, tool, "check", path],
                          capture_output=True, text=True)


def main():
    tool, report = sys.argv[1], sys.argv[2]
    with open(report, "r", encoding="utf-8") as f:
        doc = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        doc["faults"] = {k: 0 for k in doc["faults"]}
        doc["metrics"]["deadlock_breaks"] = 0
        if check(tool, doc, tmp, "clean.json").returncode != 0:
            failures.append("a fault-free report with 0 breaks was rejected")

        doc["metrics"]["deadlock_breaks"] = 2
        proc = check(tool, doc, tmp, "stuck.json")
        if proc.returncode == 0:
            failures.append("a fault-free report with 2 breaks was accepted")
        elif "deadlock breaker" not in proc.stderr:
            failures.append(f"rejection does not name the breaker: "
                            f"{proc.stderr.strip()}")

        doc["faults"]["maps_killed"] = 1
        if check(tool, doc, tmp, "faulted.json").returncode != 0:
            failures.append("a faulted report with 2 breaks was rejected")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
