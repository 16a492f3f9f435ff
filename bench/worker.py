"""Run one benchmark workload in this process and print its result.

`run.py` starts this script in a fresh interpreter with a fixed hash seed
and single-threaded BLAS, so each workload gets its own process and its
own peak RSS.  Everything is imported before the first clock reading.

The workload runs as a closed loop: one client, and each pipeline run
(CSV files -> path set -> solve -> kkt_report) starts after the previous
one ends, until `--seconds` have passed.  Layers are timed from outside,
around the benchmark's own calls into each module's public functions.
The end-to-end times are scaled to a reference host speed by a
calibration loop timed between pipeline runs (`calibration_s`).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import networkx
import numpy as np

from queuenet import analysis, cli, cost, net, solver, sweep
from queuenet.cost import CostParams
from queuenet.net import ODPair, PathSet
from queuenet.solver import SolutionState, SolverOptions

import audit
import workloads
from spans import Tracer, self_times, span_cost_s

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: metric name -> unit; trace 0 prints END_TO_END, trace 1 prints PER_LAYER
END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("bench", "net", "sweep", "solver", "analysis")
PER_LAYER = {
    "net.load_s": "s",
    "net.load_path_set_s": "s",
    "net.enumerate_paths_s": "s",
    "net.pathset_build_s": "s",
    "net.n_links": "count",
    "net.n_paths": "count",
    "net.path_link_entries": "count",
    "net.dense_bytes": "bytes",
    "solver.solve_s": "s",
    "solver.outer_iterations": "count",
    "solver.s_per_iteration": "s",
    "solver.assemble_link_state_us": "us",
    "solver.peak_alloc_mb": "MB",
    "cost.link_travel_time_us": "us",
    "cost.objective_us": "us",
    "analysis.kkt_report_s": "s",
    "analysis.relative_gap": "ratio",
    "analysis.max_capacity_residual": "veh/h",
    "analysis.max_complementarity_residual": "veh2/h2",
    "analysis.fingerprint_dv": "veh/h",
    "analysis.fingerprint_dq": "veh/h",
    "sweep.points": "count",
    "sweep.point_s_mean": "s",
    "sweep.max_point_iterations": "count",
    "cli.main_s": "s",
    "trace.total_s": "s",
    "host.calibration_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}

#: the smoke test's sizes: a 5x5 grid with 3 OD pairs and a 3-point sweep
TINY_GRID = workloads.GridSpec(5, 3, 600.0)
TINY_SWEEP = workloads.SWEEP_VALUES[::10]
MIN_SETUP_SAMPLES = 3
SETUP_SLICE_SECONDS = 0.15  # extra set-ups after each pipeline run
#: the tracemalloc pass stops the solve early; every outer iteration
#: allocates the same temporaries, so the peak is reached in the first few
TRACEMALLOC_ITERATIONS = 3
MICRO_SECONDS = 0.2  # time budget per per-call micro-timing
#: reported where a failure left nothing to measure (the run is incorrect)
NOT_MEASURED = -1.0
#: the calibration loop's time on the machine of the first baseline (a
#: 2-vCPU Xeon VM at 2.0 GHz, quiet); end-to-end times are scaled to it
CALIBRATION_REF_S = 0.1
CALIBRATION_STEPS = 30000


@dataclass
class Solved:
    """One solve as the pipeline saw it."""

    state: SolutionState | None
    converged: bool
    iterations: int
    demands: list[float]
    eq: analysis.EquilibriumReport | None = None
    failures: list[str] = field(default_factory=list)


@dataclass
class Op:
    """One pipeline run: set-up, every solve of the workload, kkt_report."""

    path_set: PathSet
    setup_s: float
    load_s: float
    paths_s: float
    solve_s: float  # solver.solve, or sweep.demand_sweep on a sweep workload
    kkt_s: float
    solved: list[Solved]

    @property
    def total_s(self) -> float:
        return self.setup_s + self.solve_s + self.kkt_s


def scenario(name: str, seed: int, size: str) -> workloads.Scenario:
    """The workload's inputs at the benchmark's size or the smoke test's."""
    if size == "full":
        return workloads.make(name, seed)
    sc = workloads.make(name, seed, TINY_GRID)
    if sc.sweep_values:
        sc.sweep_values = TINY_SWEEP
    return sc


def reference_name(name: str, size: str) -> str:
    return name if size == "full" else f"{size}-{name}"


def setup(sc: workloads.Scenario, inputs: Path, tr: Tracer) -> tuple[PathSet, float, float]:
    """CSV files on disk -> ready PathSet; returns (path set, load s, paths s)."""
    t0 = time.perf_counter()
    with tr.span("net.load_network", "net"):
        with open(inputs / "nodes.csv") as nf, open(inputs / "links.csv") as lf:
            network = net.load_network(nf, lf)
    with tr.span("net.load_demands", "net"):
        with open(inputs / "demands.csv") as df:
            network = net.load_demands(df, network)
    t1 = time.perf_counter()
    if sc.has_paths_file:
        with tr.span("net.load_path_set", "net"):
            with open(inputs / "paths.csv") as pf:
                path_set = net.load_path_set(pf, network)
    else:
        with tr.span("net.enumerate_paths", "net"):
            path_set = net.enumerate_paths(network, sc.k)
    t2 = time.perf_counter()
    return path_set, t1 - t0, t2 - t1


def calibration_s() -> float:
    """Wall time of a fixed loop of interpreter work and small numpy calls.

    The loop calls nothing in the package, so only the host's speed moves
    it.  On a shared host that speed drifts by tens of percent within
    minutes; the end-to-end times are scaled by CALIBRATION_REF_S / this,
    measured before and after each pipeline run, so that they measure the
    program, not the host.
    """
    a = np.linspace(0.0, 1.0, 16)
    b = np.ones(16)
    t0 = time.perf_counter()
    state, acc = 12345, 0.0
    for _ in range(CALIBRATION_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        x = (state % 1000) / 1000.0
        acc += float(np.maximum(a * x - b, 0.0).sum()) + x * x
    return time.perf_counter() - t0


class Calibrated:
    """Scales wall times to the reference speed, calibrating between pipeline runs."""

    def __init__(self) -> None:
        self.samples = [calibration_s()]

    def next_scale(self) -> float:
        """Call after each pipeline run: the scale for what ran since the last call."""
        self.samples.append(calibration_s())
        return CALIBRATION_REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


def timed_setup(sc: workloads.Scenario, inputs: Path, tr: Tracer) -> float:
    t0 = time.perf_counter()
    setup(sc, inputs, tr)
    return time.perf_counter() - t0


def _failed(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"raised {type(exc).__name__}: {exc}"


def _state_from_row(path_set: PathSet, row: sweep.SweepRow, demands: list[float]) -> SolutionState:
    """Rebuild a sweep point's state for kkt_report.

    A SweepRow keeps link-level results but not the per-path queues;
    kkt_report reads only the link-level fields, so those are zero here.
    """
    network = path_set.network.with_demands(
        ODPair(od.origin, od.destination, d)
        for od, d in zip(path_set.network.od_pairs, demands)
    )
    return SolutionState(
        path_set=PathSet(network, path_set.paths),
        params=CostParams().for_links(network.links),
        variant="queue_dependent",
        path_flows=row.path_flows,
        queue_alloc=np.zeros((path_set.n_links, path_set.n_paths)),
        link_flows=row.link_flows,
        link_queues=row.link_queues,
        upstream_queues=row.link_flows - row.link_queues - row.throughflows,
        throughflows=row.throughflows,
        link_times=row.link_times,
    )


def run_op(sc: workloads.Scenario, inputs: Path, tr: Tracer) -> Op:
    if sc.sweep_values:
        demand_sets = [sc.point_demands(v) for v in sc.sweep_values]
    else:
        demand_sets = [list(sc.demands)]
    with tr.span("pipeline", "bench"):
        t0 = time.perf_counter()
        path_set, load_s, paths_s = setup(sc, inputs, tr)
        setup_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        crash = None
        try:
            if sc.sweep_values:
                with tr.span("sweep.demand_sweep", "sweep"):
                    rows = sweep.demand_sweep(path_set, sc.sweep_values, sc.sweep_od)
            else:
                with tr.span("solver.solve", "solver"):
                    state, report = solver.solve(path_set)
        except Exception as exc:  # a crash fails every solve of this run
            crash = exc
        solve_s = time.perf_counter() - t1
        if crash is not None:
            reason = _failed(crash)
            solved = [Solved(None, False, 0, d, failures=[reason]) for d in demand_sets]
        elif sc.sweep_values:
            solved = [
                Solved(_state_from_row(path_set, row, d), row.converged, row.iterations, d)
                for row, d in zip(rows, demand_sets)
            ]
        else:
            solved = [Solved(state, report.converged, report.iterations, demand_sets[0])]
        kkt_s = 0.0
        for s in solved:
            if s.state is None:
                continue
            t2 = time.perf_counter()
            with tr.span("analysis.kkt_report", "analysis"):
                s.eq = analysis.kkt_report(s.state)
            kkt_s += time.perf_counter() - t2
    for s in solved:
        if s.state is not None:
            s.failures += audit.audit(s.state, s.converged, s.eq, s.demands)
    return Op(path_set, setup_s, load_s, paths_s, solve_s, kkt_s, solved)


def check_fingerprints(sc: workloads.Scenario, op: Op, reference: list[dict] | None) -> tuple[float, float]:
    """Largest |dv| and |dQ| against the reference; failing solves get a reason."""
    if reference is None or len(reference) != len(op.solved):
        for s in op.solved:
            s.failures.append("no stored reference for this workload")
        return NOT_MEASURED, NOT_MEASURED
    dv_max = dq_max = 0.0
    for s, ref in zip(op.solved, reference):
        if s.state is None:
            continue
        dv, dq = audit.fingerprint(s.state, sc.base_link_id, ref)
        if max(dv, dq) > audit.FINGERPRINT_TOL:
            s.failures.append(f"answer differs from reference: dv {dv:.3g}, dq {dq:.3g}")
        dv_max, dq_max = max(dv_max, dv), max(dq_max, dq)
    return dv_max, dq_max


def per_call_us(fn, *args) -> float:
    """Median wall time of one call, in microseconds."""
    samples = []
    deadline = time.perf_counter() + MICRO_SECONDS
    while len(samples) < 20 or (time.perf_counter() < deadline and len(samples) < 5000):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def settings() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "env": {
            key: os.environ.get(key)
            for key in ("PYTHONHASHSEED", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "QUEUELIB_THREADS")
        },
        "loop": "closed, one client, one single-threaded process",
    }


def write_inputs(sc: workloads.Scenario, directory: Path) -> None:
    for name, text in sc.files.items():
        (directory / name).write_text(text)
    (directory / "scenario.cfg").write_text(sc.config_text())


def untraced(sc, inputs: Path, seconds: float, reference):
    tr = Tracer("untraced", enabled=False)
    totals, setups, outcomes = [], [], []  # wall seconds
    scales = []  # one per pipeline run, for its total and its set-ups
    cal = Calibrated()
    t_start = time.perf_counter()
    while not totals or time.perf_counter() - t_start < seconds:
        # keep numbers only: holding every run's states would make peak
        # RSS grow with the number of runs, that is, with machine speed
        op = run_op(sc, inputs, tr)
        check_fingerprints(sc, op, reference)
        totals.append(op.total_s)
        run_setups = [op.setup_s]
        outcomes += [s.failures for s in op.solved]
        del op
        # a cheap set-up gets extra samples, spread over the whole run
        t_slice = time.perf_counter()
        while time.perf_counter() - t_slice + run_setups[-1] <= SETUP_SLICE_SECONDS:
            run_setups.append(timed_setup(sc, inputs, tr))
        setups.append(run_setups)
        scales.append(cal.next_scale())
    while sum(map(len, setups)) < MIN_SETUP_SAMPLES:
        setups.append([timed_setup(sc, inputs, tr)])
        scales.append(cal.next_scale())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    flat_setups = [s for run_setups in setups for s in run_setups]
    print(f"{sc.name} wall: setup_s = {statistics.median(flat_setups):.6g} s, "
          f"total_s = {statistics.median(totals):.6g} s over {len(totals)} pipeline runs; "
          f"calibration {statistics.median(cal.samples) * 1e3:.4g} ms "
          f"(reference {CALIBRATION_REF_S * 1e3:.4g} ms)")
    return {
        "setup_s": statistics.median(
            s * k for run_setups, k in zip(setups, scales) for s in run_setups),
        "total_s": statistics.median(t * k for t, k in zip(totals, scales)),
        "peak_rss_mb": peak_rss_mb,
    }, outcomes, []


def traced(sc, inputs: Path, seconds: float, reference, run_dir: Path, seed: int):
    tr = Tracer(f"{sc.name}-seed{seed}")
    ops: list[Op] = []
    scales = []
    cal = Calibrated()
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        ops.append(run_op(sc, inputs, tr))
        scales.append(cal.next_scale())
    n_pipeline = len(tr.spans)
    fps = [check_fingerprints(sc, op, reference) for op in ops]
    op = ops[-1]
    ps = op.path_set

    def med(values) -> float:
        return float(statistics.median(values))

    m: dict[str, float] = dict.fromkeys(PER_LAYER, NOT_MEASURED)
    paths_s = med(o.paths_s for o in ops)
    m["net.load_s"] = med(o.load_s for o in ops)
    m["net.load_path_set_s"] = paths_s if sc.has_paths_file else 0.0
    m["net.enumerate_paths_s"] = 0.0 if sc.has_paths_file else paths_s
    m["net.n_links"] = ps.n_links
    m["net.n_paths"] = ps.n_paths
    m["net.path_link_entries"] = sum(len(p.links) for p in ps.paths)
    m["net.dense_bytes"] = 2 * ps.n_links * ps.n_paths * 8  # computed, not measured
    m["solver.outer_iterations"] = med(sum(s.iterations for s in o.solved) for o in ops)
    m["analysis.kkt_report_s"] = med(o.kkt_s for o in ops)
    eqs = [s.eq for o in ops for s in o.solved if s.eq is not None]
    if eqs:
        m["analysis.relative_gap"] = max(e.relative_gap for e in eqs)
        m["analysis.max_capacity_residual"] = max(e.max_capacity_residual for e in eqs)
        m["analysis.max_complementarity_residual"] = max(
            e.max_complementarity_residual for e in eqs)
    m["analysis.fingerprint_dv"] = max(dv for dv, _ in fps)
    m["analysis.fingerprint_dq"] = max(dq for _, dq in fps)
    if sc.sweep_values:
        m["sweep.points"] = len(sc.sweep_values)
        m["sweep.point_s_mean"] = med(o.solve_s for o in ops) / len(sc.sweep_values)
        m["sweep.max_point_iterations"] = max(s.iterations for s in op.solved)
    else:
        m["sweep.points"] = m["sweep.point_s_mean"] = m["sweep.max_point_iterations"] = 0
        m["solver.solve_s"] = med(o.solve_s for o in ops)
        m["solver.s_per_iteration"] = m["solver.solve_s"] / max(m["solver.outer_iterations"], 1)
    m["trace.total_s"] = med(o.total_s * k for o, k in zip(ops, scales))  # scaled, as total_s
    m["host.calibration_ms"] = med(cal.samples) * 1e3
    m["trace.spans"] = n_pipeline / len(ops)
    pipeline_self = self_times(tr.spans[:n_pipeline])
    for layer in LAYERS:
        m[f"self.{layer}_s"] = pipeline_self.get(layer, 0.0) / len(ops)

    errors = []
    if all(s.state is not None for s in op.solved):
        errors = probe(sc, op, tr, inputs, run_dir, m)
    cost_per_span = span_cost_s()
    m["trace.overhead_s"] = m["trace.spans"] * cost_per_span
    tr.write(run_dir / "spans.jsonl")
    write_self_time_table(tr, run_dir / "self_time.txt", len(ops), len(tr.spans) * cost_per_span)
    return m, [s.failures for o in ops for s in o.solved], errors


def probe(sc, op: Op, tr: Tracer, inputs: Path, run_dir: Path, m: dict) -> list[str]:
    """Layer timings taken after the traced pipeline runs; fills `m`.

    Returns errors that make the run incorrect.
    """
    ps = op.path_set
    with tr.span("probes", "bench"):
        with tr.span("net.PathSet", "net"):
            builds = []
            for _ in range(5):
                t0 = time.perf_counter()
                PathSet(ps.network, ps.paths)
                builds.append(time.perf_counter() - t0)
        m["net.pathset_build_s"] = statistics.median(builds)
        state = op.solved[-1].state
        if sc.sweep_values:
            # the sweep layer gives no per-point clock: solve each point directly
            solve_s, iterations = 0.0, 0
            for value in sc.sweep_values:
                t0 = time.perf_counter()
                with tr.span("solver.solve", "solver"):
                    state, report = solver.solve(ps, demands=sc.point_demands(value))
                solve_s += time.perf_counter() - t0
                iterations += report.iterations
            m["solver.solve_s"] = solve_s
            m["solver.s_per_iteration"] = solve_s / max(iterations, 1)
        v, q = state.throughflows, state.link_queues
        with tr.span("solver.assemble_link_state", "solver"):
            m["solver.assemble_link_state_us"] = per_call_us(
                solver.assemble_link_state, state.path_set, state.path_flows, state.queue_alloc)
        with tr.span("cost.link_travel_time", "cost"):
            m["cost.link_travel_time_us"] = per_call_us(
                cost.link_travel_time, v, q, state.t_f, state.c_max, state.params)
        with tr.span("cost.objective", "cost"):
            m["cost.objective_us"] = per_call_us(
                cost.objective, v, q, state.t_f, state.c_max, state.params)

    # allocation peak of the solve layer; this pass's timings are discarded
    with tr.span("tracemalloc pass", "tracemalloc"):
        capped = SolverOptions(max_outer_iterations=TRACEMALLOC_ITERATIONS)
        tracemalloc.start()
        try:
            if sc.sweep_values:
                sweep.demand_sweep(ps, sc.sweep_values, sc.sweep_od, options=capped)
            else:
                solver.solve(ps, options=capped)
            m["solver.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    cli_dir = run_dir / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    argv = ["--config", str(inputs / "scenario.cfg"), "--out", str(cli_dir)]
    if sc.sweep_values:
        argv = ["sweep", *argv, "--param", "demand",
                "--values", ",".join(repr(v) for v in sc.sweep_values),
                "--od", ",".join(sc.od_pairs[sc.sweep_od][:2])]
    else:
        argv = ["solve", *argv]
    t0 = time.perf_counter()
    with tr.span("cli.main", "cli"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    m["cli.main_s"] = time.perf_counter() - t0
    return [] if code == 0 else [f"queuenet {argv[0]} exited with code {code}"]


def write_self_time_table(tr: Tracer, path: Path, n_ops: int, overhead_s: float) -> None:
    rows = sorted(self_times(tr.spans).items(), key=lambda kv: -kv[1])
    total = sum(t for _, t in rows)
    lines = [f"# self time by layer over the whole traced run ({n_ops} pipeline runs,"
             " then probes, the tracemalloc pass and the CLI)",
             f"{'layer':<16}{'self_s':>12}{'share':>8}"]
    for layer, t in rows:
        lines.append(f"{layer:<16}{t:>12.6f}{t / total:>8.1%}")
    lines.append(f"{'tracing (est.)':<16}{overhead_s:>12.6f}{overhead_s / total:>8.1%}")
    path.write_text("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    sc = scenario(args.workload, args.seed, args.size)
    reference = audit.load_reference(reference_name(sc.name, args.size))
    run_dir = OUT_DIR / f"{args.size}-{sc.name}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    print("settings " + json.dumps(settings(), sort_keys=True))
    with tempfile.TemporaryDirectory(dir=run_dir) as tmp:
        inputs = Path(tmp)
        write_inputs(sc, inputs)
        if args.trace:
            values, outcomes, errors = traced(sc, inputs, args.seconds, reference, run_dir, args.seed)
            units = PER_LAYER
        else:
            values, outcomes, errors = untraced(sc, inputs, args.seconds, reference)
            units = END_TO_END
    failed = [reasons for reasons in outcomes if reasons]
    for reasons in failed[:5]:
        print("failed solve: " + "; ".join(reasons), file=sys.stderr)
    for error in errors:
        print(error, file=sys.stderr)
    for name, unit in units.items():
        print(f"{sc.name} {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not failed and not errors,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
