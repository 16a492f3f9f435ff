"""queuenet benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh interpreter (bench/worker.py) with a fixed
hash seed and single-threaded BLAS, and prints its result as the last line
of standard output: a JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `--trace 0` gives the end-to-end metrics, `--trace 1` the
per-layer ones from a traced run.  `--workload all` runs every workload
both ways and prints one table.  The package is imported from `src/` of
the checkout this script sits in; without it the script exits with 2.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: as in workloads.py, which this script does not import: it must run, and
#: fail cleanly, without the package on the path
WORKLOADS = ("sixnode_demand_sweep", "grid15_enum", "grid20_paths")
CHILD_TIMEOUT_S = 170

#: fixed for every run and recorded in its output; QUEUELIB_THREADS is unset
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run one workload in a child interpreter; returns its result object."""
    env = {k: v for k, v in os.environ.items() if k != "QUEUELIB_THREADS"}
    env.update(PINNED_ENV, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, size: str) -> dict:
    """Every workload, untraced then traced; one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_worker(workload, seed, seconds, trace, size)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
        m = merged["metrics"]
        # tracing overhead as the difference of the traced and untraced runs
        m[f"{workload}.trace.minus_untraced_s"] = {
            "value": m[f"{workload}.trace.total_s"]["value"] - m[f"{workload}.total_s"]["value"],
            "unit": "s",
        }
    print(f"{'metric':<60}{'value':>16}  unit")
    for name, metric in merged["metrics"].items():
        print(f"{name:<60}{metric['value']:>16.6g}  {metric['unit']}")
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="queuenet benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a 5x5 grid with 3 OD pairs and a 3-point sweep")
    args = parser.parse_args(argv)
    if not (SRC / "queuenet" / "__init__.py").is_file():
        print(f"error: no queuenet package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.size)
        else:
            result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.size)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
