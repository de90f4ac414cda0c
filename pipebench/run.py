#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 pipebench/run.py --workload build|serve_replay|serve_read \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
pipebench/CMakeLists.txt (the repository's library, Release) into
.bench_build/pipebench; later runs rebuild incrementally. Bundles and
sockets live in .bench_build/work-<pid>, removed when the run ends. A
traced run (--trace 1) dumps its spans to
.bench_build/spans/<workload>-seed<N>.tsv; summarize a dump with
.bench_build/pipebench/pipebench --summarize FILE.

The last stdout line is the result JSON that pipebench prints. Any build
failure exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "pipebench"
BINARY = BUILD_DIR / "pipebench"
RUN_TIMEOUT_S = 170
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds pipebench; exits 1 on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "pipebench",
                  "-j", JOBS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("pipebench build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "serve_replay", "serve_read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--golden", default=str(HERE / "golden_rows.txt"),
                        help="RowSignature table the outputs are checked against")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one byte of the served bundle (self-test)")
    args = parser.parse_args()

    build()
    work_dir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", args.golden,
               # Relative, so the server's socket path stays short.
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.trace:
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans_dir / f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt:
        command.append("--corrupt")
    try:
        code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"pipebench: no result within {RUN_TIMEOUT_S} s\n")
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
