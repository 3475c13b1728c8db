"""Benchmark entry point for locclone.

    python3 bench/run.py --workload ghz-clone --seed 1 --seconds 15 --trace 0

Runs one workload in a child process (``worker.py``) with BLAS threads pinned
to one and ``src`` on its import path, relays what the child prints, and
exits non-zero without a result line if the child fails or the source tree
is missing. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ghz-clone", "w-audit", "simplex-scan", "report-cli")
TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "locclone" / "__init__.py").is_file():
        print(f"error: no locclone source under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stderr.decode() if isinstance(exc.stderr, bytes) else "")
        print(f"error: worker ran past {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        print(f"error: worker exited {done.returncode} without a result", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
