"""Run one workload of the qsteiner benchmark and print its metrics.

    python3 bench/run.py --workload {rebuild,search} \
        --seed N --seconds S --trace 0|1

Run it from anywhere; the library is imported from src/ of the checkout
that holds this file, and nothing needs to be installed.  The workload
runs in its own single-threaded process (bench/workload.py); this
process only times interpreter starts and collects the result.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  Traced runs also write their
spans and full per-call table to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("rebuild", "search")
# Extra interpreter starts timed per run; with the workload process's own
# start they give the median start-up part of setup_s.
START_PROBES = 4
START_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start bench/workload.py; return it and the seconds until it was ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workload.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, START_TIMEOUT_S)
        raise RuntimeError(f"workload process failed to start (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> list[str]:
    """Wait for proc, killing it after timeout; return its remaining stdout lines."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out.splitlines()


def measure(args: argparse.Namespace) -> dict:
    starts = []
    if not args.trace:
        for _ in range(START_PROBES):
            proc, ready = start(["--probe"])
            finish(proc, START_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"start-up probe exited with {proc.returncode}")
            starts.append(ready)
    proc, ready = start(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    )
    starts.append(ready)
    lines = finish(proc, RUN_TIMEOUT_S)
    for line in lines[:-1]:
        print(line)
    if not lines:
        raise RuntimeError(
            f"workload process printed no result (exit {proc.returncode})"
        )
    child = json.loads(lines[-1])
    failures = child["failures"]
    if proc.returncode != 0 and not failures:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    for name in failures:
        print(f"FAILED CHECK: {name}", file=sys.stderr)
    if failures:
        metrics = {}  # a wrong answer is never reported as a time
    elif args.trace:
        metrics = child["metrics"]
    else:
        metrics = {
            "wall_s": child["wall_s"],
            "setup_s": statistics.median(starts) + child["workload_setup_s"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        print(
            f"passes {' '.join(f'{t:.3f}' for t in child['pass_times'])}, "
            f"start-up median {statistics.median(starts):.3f} of {len(starts)}, "
            f"workload set-up {child['workload_setup_s']:.3f}"
        )
    return {
        "correct": not failures,
        "attempted": child["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qsteiner benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsteiner" / "__init__.py").is_file():
        print(
            f"error: no qsteiner sources under {ROOT / 'src'}; "
            "run the benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    try:
        result = measure(args)
    except (
        RuntimeError,
        subprocess.TimeoutExpired,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
