#!/usr/bin/env python3
"""Self-test of the pipeline benchmark's output checks.

    python3 pipebench/selftest.py

Run it from the repository root. A wrong golden row and a corrupted bundle
byte must each show up as failed ops: the benchmark still exits 0 and
prints its result line, with "correct": false, "failed" > 0 and
success_ratio < 1. It must neither crash nor pass silently. A clean run
of the same length must pass. Exits 1 if any expectation fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(workload, *extra):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", SECONDS, "--trace", "0", *extra]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"exit {out.returncode}: {out.stderr[-500:]}"
    return json.loads(lines[-1]), ""


def wrong_golden():
    """The golden table with one row's fidelity changed."""
    rows = (HERE / "golden_rows.txt").read_text().splitlines()
    for i, row in enumerate(rows):
        if row.startswith("msgdrop|msgdrop/perfect|"):
            fields = row.split("|")
            fields[9] = "0.5"
            rows[i] = "|".join(fields)
    path = ROOT / ".bench_build" / "selftest-golden.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def main():
    golden = wrong_golden()
    cases = [
        ("clean serve_read", True, ["serve_read"]),
        ("wrong golden row, build", False, ["build", "--golden", golden]),
        ("wrong golden row, serve_replay", False, ["serve_replay", "--golden", golden]),
        ("corrupted bundle byte, serve_read", False, ["serve_read", "--corrupt"]),
        ("corrupted bundle byte, serve_replay", False, ["serve_replay", "--corrupt"]),
    ]
    bad = 0
    for name, should_pass, args in cases:
        result, error = run(*args)
        if result is None:
            ok = False
            detail = error
        else:
            ratio = result["metrics"]["success_ratio"]["value"]
            passed = result["correct"] and result["failed"] == 0 and ratio == 1
            failed_loudly = (not result["correct"] and result["failed"] > 0
                             and ratio < 1)
            ok = passed if should_pass else failed_loudly
            detail = (f"correct={result['correct']} failed={result['failed']}"
                      f"/{result['attempted']} success_ratio={ratio:.4f}")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        bad += not ok
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
