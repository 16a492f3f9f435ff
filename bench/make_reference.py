"""Store the reference solutions the benchmark's fingerprints compare with.

    PYTHONPATH=src python3 bench/make_reference.py [--size full|tiny]

Solves each workload once (seed 0; every seed is the same instance up to
relabelling) and writes bench/reference/[tiny-]<workload>.json with each
solve's link throughflows and queues keyed by base-instance link id.
Refuses to store a solve that fails the audit.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import audit
import workloads
import worker
from spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    audit.REFERENCE_DIR.mkdir(exist_ok=True)
    worker.OUT_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        sc = worker.scenario(name, 0, args.size)
        with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as tmp:
            worker.write_inputs(sc, Path(tmp))
            op = worker.run_op(sc, Path(tmp), Tracer("reference", enabled=False))
        bad = [s.failures for s in op.solved if s.failures]
        if bad:
            print(f"{name}: not storing a failing solve: {bad[0]}", file=sys.stderr)
            return 1
        points = [audit.reference_point(s.state, sc.base_link_id) for s in op.solved]
        out = audit.REFERENCE_DIR / f"{worker.reference_name(name, args.size)}.json"
        out.write_text(json.dumps({"workload": name, "size": args.size, "points": points}))
        iterations = sum(s.iterations for s in op.solved)
        print(f"{out.name}: {len(points)} solves, {iterations} outer iterations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
