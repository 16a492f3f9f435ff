"""Bit-identity of this tree's solves against another revision.

    python tests/identity.py --against REV

It checks REV out with `git worktree` into a temporary directory, then runs
one fixed list of solves and six-node CLI commands in both trees, each tree
in a fresh interpreter that imports its own `src`.  It prints one sha256
digest per field over all cases for each tree, and exits 1 naming the first
field that differs and the first case where it does (0 when none does).
pytest does not collect it: the name has no `test_` prefix.

The 32 cases, every solve with `history=True`:
- the six-node scenario under each variant, in both queue modes, at
  gamma 0, 0.5 and 0.9 (24);
- criterion 10's grid (`grid_network()`) and `grid_network(8, 12, 900)`,
  paths enumerated at k = 3, in both modes (4);
- criterion 10's grid at m = 0.5 and gamma = 0.9, capped at 60 outer
  iterations, in both modes (2);
- the six-node demand sweep: OD 1->3 over 1000:6000:250, OD 2->4 off (21
  solves, one case);
- four random starts as `analysis.uniqueness_probe` draws them, seed 3
  (one case).
The fields of a solve are its path flows, per-entry queues, x, Q, v, link
times, history rows, iterations, GP passes and termination.  The CLI
bundles (`solve` in both modes, `compare`, and `sweep` over gamma on the
six-node scenario) are digested file by file, as one more field.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MODES = ("fixed_point", "smoothed_gradient")
FIELDS = (
    "path_flows", "queues", "x", "Q", "v", "link_times",
    "history", "iterations", "inner_passes", "termination", "bundles",
)
CLI_RUNS = {
    "solve_fixed_point": ["solve", "--mode", "fixed_point"],
    "solve_smoothed_gradient": ["solve", "--mode", "smoothed_gradient"],
    "compare": ["compare"],
    "sweep": [
        "sweep", "--param", "gamma", "--values", "0,0.2,0.5,0.7", "--track", "4",
        "--trend", "flow:decreasing,queue:increasing",
    ],
}


def _cases():
    """(name, [(state, report), ...]) for each case, solved as it is asked for."""
    import numpy as np
    from queuenet import fixtures
    from queuenet.cost import CostParams
    from queuenet.net import enumerate_paths
    from queuenet.solver import VARIANTS, SolverOptions, _random_split, solve

    six = fixtures.six_node_path_set()
    for variant in VARIANTS:
        for mode in MODES:
            for gamma in (0.0, 0.5, 0.9):
                options = SolverOptions(queue_mode=mode, variant=variant)
                yield f"six_node {variant} {mode} gamma={gamma}", [
                    solve(six, CostParams(gamma=gamma), options, history=True)
                ]
    criterion_10 = enumerate_paths(fixtures.grid_network(), 3)
    grid_8 = enumerate_paths(fixtures.grid_network(8, 12, 900.0), 3)
    for name, path_set in (("criterion_10", criterion_10), ("grid 8/12/900", grid_8)):
        for mode in MODES:
            options = SolverOptions(queue_mode=mode)
            yield f"{name} {mode}", [solve(path_set, options=options, history=True)]
    for mode in MODES:
        options = SolverOptions(queue_mode=mode, max_outer_iterations=60)
        params = CostParams(m=0.5, gamma=0.9)
        yield f"criterion_10 m=0.5 gamma=0.9 60 iterations {mode}", [
            solve(criterion_10, params, options, history=True)
        ]
    yield "six_node demand sweep", [
        solve(six, demands=[demand, 0.0], history=True)
        for demand in np.arange(1000.0, 6001.0, 250.0)
    ]
    rng = np.random.default_rng(3)
    yield "uniqueness_probe 4 starts seed 3", [
        solve(six, initial_flows=_random_split(six, rng), history=True) for _ in range(4)
    ]


def _solve_digests(solves) -> dict[str, str]:
    import numpy as np

    sums = {name: hashlib.sha256() for name in FIELDS[:-1]}
    for state, report in solves:
        values = {
            "path_flows": state.path_flows,
            "queues": state.queue_alloc,
            "x": state.link_flows,
            "Q": state.link_queues,
            "v": state.throughflows,
            "link_times": state.link_times,
            "history": np.array(report.history, dtype=float),
            "iterations": report.iterations,
            "inner_passes": report.inner_passes,
            "termination": report.termination,
        }
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                sums[name].update(np.ascontiguousarray(value, dtype=float).tobytes())
            else:
                sums[name].update(repr(value).encode())
    return {name: digest.hexdigest() for name, digest in sums.items()}


def _bundle_digests(directory: Path) -> dict[str, str]:
    from queuenet import cli, fixtures

    config = str(fixtures.write_six_node_scenario(directory / "scenario"))
    with contextlib.redirect_stdout(io.StringIO()):
        for out, argv in CLI_RUNS.items():
            status = cli.main([*argv, "--config", config, "--out", str(directory / out)])
            if status != 0:
                raise SystemExit(f"queuenet {' '.join(argv)} exited {status}")
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for out in CLI_RUNS
        for path in sorted((directory / out).rglob("*"))
        if path.is_file()
    }


def _worker(tree: Path, result: Path) -> None:
    """Digest every case and bundle with the `queuenet` under tree/src."""
    import queuenet

    if Path(queuenet.__file__).resolve().parent != (tree / "src" / "queuenet").resolve():
        raise SystemExit(f"imported {queuenet.__file__}, not the one under {tree}")
    cases = [(name, _solve_digests(solves)) for name, solves in _cases()]
    with tempfile.TemporaryDirectory() as tmp:
        bundles = _bundle_digests(Path(tmp))
    result.write_text(json.dumps({"cases": cases, "bundles": bundles}))


def _per_field(result: dict) -> dict[str, list[tuple[str, str]]]:
    """Per field, the (case, digest) pairs in case order."""
    fields = {
        name: [(case, digests[name]) for case, digests in result["cases"]]
        for name in FIELDS[:-1]
    }
    fields["bundles"] = sorted(result["bundles"].items())
    return fields


def _compare(rev: str) -> int:
    short = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", rev],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp) / "tree"
        subprocess.run(
            ["git", "-C", str(REPO), "worktree", "add", "--quiet", "--detach", str(other), rev],
            check=True,
        )
        try:
            # both trees at once, each in its own interpreter
            runs = {}
            for label, tree in ((short, other), ("this tree", REPO)):
                out = Path(tmp) / f"{len(runs)}.json"
                env = dict(os.environ, PYTHONPATH=str(tree / "src"))
                argv = [sys.executable, __file__, "--worker", str(tree), str(out)]
                runs[label] = (subprocess.Popen(argv, env=env, cwd=tree), out)
            if any([proc.wait() != 0 for proc, _ in runs.values()]):  # wait for both
                return 2
            theirs, ours = (_per_field(json.loads(out.read_text())) for _, out in runs.values())
        finally:
            subprocess.run(
                ["git", "-C", str(REPO), "worktree", "remove", "--force", str(other)], check=True
            )

    print(f"{'field':<13} {short:<16} {'this tree':<16}")
    first = None
    for name in FIELDS:
        digest = [hashlib.sha256(repr(pairs).encode()).hexdigest() for pairs in (theirs[name], ours[name])]
        same = digest[0] == digest[1]
        print(f"{name:<13} {digest[0][:16]} {digest[1][:16]} {'same' if same else 'DIFFERS'}")
        if not same and first is None:
            cases = [a[0] for a, b in zip(theirs[name], ours[name]) if a != b]
            first = f"{name}, first in case {cases[0] if cases else '(the case lists differ)'}"
    n_cases, n_files = len(ours["path_flows"]), len(ours["bundles"])
    if first:
        print(f"first field that differs: {first}")
        return 1
    print(f"{n_cases} cases and {n_files} bundle files: every field identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV", help="the revision to compare with")
    group.add_argument("--worker", nargs=2, metavar=("TREE", "RESULT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(Path(args.worker[0]), Path(args.worker[1]))
        return 0
    t0 = time.perf_counter()
    status = _compare(args.against)
    print(f"took {time.perf_counter() - t0:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
