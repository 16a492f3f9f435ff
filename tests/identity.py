"""Bit-identity of this tree's solves against another revision.

    python tests/identity.py --against REV

It extracts REV with `git archive` into a temporary directory, then runs
one fixed list of solves, six-node CLI commands and path enumerations in
both trees, each tree in a fresh interpreter that imports its own `src`.
It prints one sha256 digest per field over all cases for each tree, and
exits 1 naming the first field that differs and the first case where it
does (0 when none does).  For each case whose solve fields differ it also
prints how far the change moved it: both trees' outer iterations and GP
passes, and the largest |dv| (veh/h) and |dQ| (veh) over its solves.  The
harness runs REV's `src` under this file, so it calls only names that REV
has too.  pytest does not collect it: the name has no `test_` prefix.

The 37 cases, every solve but the benchmark's with `history=True`:
- the six-node scenario under each variant, in both queue modes, at
  gamma 0, 0.5 and 0.9 (24);
- criterion 10's grid (`grid_network()`) and `grid_network(8, 12, 900)`,
  paths enumerated at k = 3, in both modes (4);
- criterion 10's grid at m = 0.5 and gamma = 0.9, capped at 60 outer
  iterations, in both modes (2);
- `grid_network(10, 40, 900)`, whose overlapping paths make the link
  precedence cyclic, at k = 3, capped at 30 outer iterations, in both
  modes (2);
- the six-node demand sweep: OD 1->3 over 1000:6000:250, OD 2->4 off (21
  solves, one case);
- four random starts as `analysis.uniqueness_probe` draws them, seed 3
  (one case);
- the benchmark's three base instances, from `bench/workloads.py`, solved
  with `history=False` as the benchmark solves them: the six-node demand
  sweep (21 solves, one case), grid15_enum's enumerated paths and
  grid20_paths' staircase paths (3).
The fields of a solve are its path flows, per-entry queues, x, Q, v, link
times, history rows, iterations, GP passes, termination, and its audit
(`kkt_report`'s relative gap, largest capacity and complementarity
residuals, and per-link capacity residuals).  Three more fields, each
digested item by item:
- bundles: the CLI bundles (`solve` in both modes, `compare`, and `sweep`
  over gamma on the six-node scenario), file by file;
- validate: `queuenet validate` at seeds 7, 20-29 and 50-59, on the
  six-node scenario and on it at demands of 1 and 0.4 veh/h (where the
  random queues are cut to half of each path's flow), its stdout and the
  random state it checks the slopes at;
- path_sets: `write_path_set` of the paths enumerated for criterion 10
  (k = 3), for the benchmark's 15x15 grid (`grid_network(15, 12, 1100)`)
  at k = 1..6, and for `grid_network(20, 100)` at k = 3.
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
#: the fields of each solve, then those digested item by item
SOLVE_FIELDS = (
    "path_flows", "queues", "x", "Q", "v", "link_times",
    "history", "iterations", "inner_passes", "termination", "audit",
)
ITEM_FIELDS = ("bundles", "validate", "path_sets")
FIELDS = SOLVE_FIELDS + ITEM_FIELDS
VALIDATE_SEEDS = (7, *range(20, 30), *range(50, 60))
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
    from queuenet.net import PathSet, enumerate_paths
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
    cyclic = enumerate_paths(fixtures.grid_network(10, 40, 900.0), 3)
    for mode in MODES:
        options = SolverOptions(queue_mode=mode, max_outer_iterations=30)
        yield f"cyclic grid 10/40/900 30 iterations {mode}", [
            solve(cyclic, options=options, history=True)
        ]
    yield "six_node demand sweep", [
        solve(six, demands=[demand, 0.0], history=True)
        for demand in np.arange(1000.0, 6001.0, 250.0)
    ]
    rng = np.random.default_rng(3)
    yield "uniqueness_probe 4 starts seed 3", [
        solve(six, initial_flows=_random_split(six, rng), history=True) for _ in range(4)
    ]
    sys.path.insert(0, str(REPO / "bench"))
    try:
        from workloads import GRID15, GRID20, GRID_SEED, K_PATHS, SWEEP_VALUES, staircase_paths
    finally:
        sys.path.pop(0)
    yield "bench sixnode_demand_sweep", [
        solve(six, demands=[demand, 0.0]) for demand in SWEEP_VALUES
    ]
    grid_15 = fixtures.grid_network(GRID15.size, GRID15.n_od, GRID15.demand, GRID_SEED)
    yield "bench grid15_enum", [solve(enumerate_paths(grid_15, K_PATHS))]
    grid_20 = fixtures.grid_network(GRID20.size, GRID20.n_od, GRID20.demand, GRID_SEED)
    yield "bench grid20_paths", [solve(PathSet(grid_20, staircase_paths(grid_20)))]


def _moves(solves) -> dict:
    """What `_report_moves` compares of a case: its outer iterations and GP
    passes, and v and Q over its solves."""
    import numpy as np

    return {
        "iterations": sum(report.iterations for _, report in solves),
        "inner_passes": sum(report.inner_passes for _, report in solves),
        "v": np.concatenate([state.throughflows for state, _ in solves]).tolist(),
        "Q": np.concatenate([state.link_queues for state, _ in solves]).tolist(),
    }


def _solve_digests(solves) -> dict[str, str]:
    import numpy as np
    from queuenet.analysis import kkt_report

    sums = {name: hashlib.sha256() for name in SOLVE_FIELDS}
    for state, report in solves:
        audit = kkt_report(state)
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
            "audit": np.array([
                audit.relative_gap, audit.max_capacity_residual,
                audit.max_complementarity_residual, *audit.capacity_residuals,
            ]),
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


def _validate_digests(directory: Path) -> dict[str, str]:
    """Per scenario and seed, validate's stdout and the (path flows,
    per-entry queues) it hands `gradient_check`."""
    import numpy as np
    from queuenet import cli, fixtures

    low = fixtures.write_six_node_scenario(directory / "low_demand")
    (low.parent / "demands.csv").write_text("origin,destination,demand\n1,3,1\n2,4,0.4\n")
    configs = {
        "six_node": fixtures.write_six_node_scenario(directory / "six_node"),
        "six_node demands 1/0.4": low,
    }
    check = cli.gradient_check
    states = []

    def recording_check(path_set, f, queues, params):
        states.append(np.concatenate([f, queues]))
        return check(path_set, f, queues, params)

    digests = {}
    cli.gradient_check = recording_check
    try:
        for name, config in configs.items():
            for seed in VALIDATE_SEEDS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    status = cli.main(["validate", "--config", str(config), "--seed", str(seed)])
                if status != 0:
                    raise SystemExit(f"queuenet validate ({name}) --seed {seed} exited {status}")
                digest = hashlib.sha256(stdout.getvalue().encode())
                digest.update(states.pop().tobytes())
                digests[f"{name} seed {seed}"] = digest.hexdigest()
    finally:
        cli.gradient_check = check
    return digests


def _path_set_digests() -> dict[str, str]:
    """`write_path_set` of each enumerated path set."""
    from queuenet import fixtures
    from queuenet.net import enumerate_paths, write_path_set

    grid_15 = fixtures.grid_network(15, 12, 1100.0)
    networks = [("criterion_10", fixtures.grid_network(), 3)]
    networks += [("grid 15/12/1100", grid_15, k) for k in range(1, 7)]
    networks += [("grid 20/100", fixtures.grid_network(20, 100), 3)]
    digests = {}
    for name, network, k in networks:
        sink = io.StringIO()
        write_path_set(enumerate_paths(network, k), sink)
        digests[f"{name} k={k}"] = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    return digests


def _worker(tree: Path, result: Path) -> None:
    """Digest every case and bundle with the `queuenet` under tree/src."""
    import queuenet

    if Path(queuenet.__file__).resolve().parent != (tree / "src" / "queuenet").resolve():
        raise SystemExit(f"imported {queuenet.__file__}, not the one under {tree}")
    cases, moves = [], {}
    for name, solves in _cases():
        cases.append((name, _solve_digests(solves)))
        moves[name] = _moves(solves)
    with tempfile.TemporaryDirectory() as tmp:
        items = {
            "bundles": _bundle_digests(Path(tmp)),
            "validate": _validate_digests(Path(tmp)),
            "path_sets": _path_set_digests(),
        }
    result.write_text(json.dumps({"cases": cases, "moves": moves, **items}))


def _per_field(result: dict) -> dict[str, list[tuple[str, str]]]:
    """Per field, the (case or item, digest) pairs in order."""
    fields = {
        name: [(case, digests[name]) for case, digests in result["cases"]]
        for name in SOLVE_FIELDS
    }
    for name in ITEM_FIELDS:
        fields[name] = sorted(result[name].items())
    return fields


def _report_moves(label: str, theirs: dict, ours: dict) -> None:
    """For each case whose solve fields differ, both trees' counts and the
    largest |dv| and |dQ| between their answers."""
    import numpy as np

    moved = [
        name for (name, a), (_, b) in zip(theirs["cases"], ours["cases"]) if a != b
    ]
    if not moved:
        return
    print(
        f"moved cases (iterations/GP passes, {label} -> this tree; "
        "largest |dv| veh/h, |dQ| veh):"
    )
    for name in moved:
        a, b = theirs["moves"][name], ours["moves"][name]
        dv, dq = (
            f"{np.abs(np.subtract(a[k], b[k])).max(initial=0.0):.2g}"
            if len(a[k]) == len(b[k]) else "(shapes differ)"
            for k in ("v", "Q")
        )
        print(
            f"  {name}: {a['iterations']}/{a['inner_passes']} -> "
            f"{b['iterations']}/{b['inner_passes']}, |dv| {dv}, |dQ| {dq}"
        )


def _compare(rev: str) -> int:
    short = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", rev],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp) / "tree"
        other.mkdir()
        archive = subprocess.Popen(
            ["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", str(other)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            return 2
        # both trees at once, each in its own interpreter
        runs = {}
        for label, tree in ((short, other), ("this tree", REPO)):
            out = Path(tmp) / f"{len(runs)}.json"
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            argv = [sys.executable, __file__, "--worker", str(tree), str(out)]
            runs[label] = (subprocess.Popen(argv, env=env, cwd=tree), out)
        if any([proc.wait() != 0 for proc, _ in runs.values()]):  # wait for both
            return 2
        results = [json.loads(out.read_text()) for _, out in runs.values()]

    theirs, ours = (_per_field(result) for result in results)
    print(f"{'field':<13} {short:<16} {'this tree':<16}")
    first = None
    for name in FIELDS:
        digest = [hashlib.sha256(repr(pairs).encode()).hexdigest() for pairs in (theirs[name], ours[name])]
        same = digest[0] == digest[1]
        print(f"{name:<13} {digest[0][:16]} {digest[1][:16]} {'same' if same else 'DIFFERS'}")
        if not same and first is None:
            cases = [a[0] for a, b in zip(theirs[name], ours[name]) if a != b]
            first = f"{name}, first in case {cases[0] if cases else '(the case lists differ)'}"
    counts = (
        f"{len(ours['path_flows'])} cases, {len(ours['bundles'])} bundle files, "
        f"{len(ours['validate'])} validate runs and {len(ours['path_sets'])} path sets"
    )
    _report_moves(short, *results)
    if first:
        print(f"first field that differs: {first}")
        return 1
    print(f"{counts}: every field identical")
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
