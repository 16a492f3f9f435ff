"""Command-line front end: solve, compare, sweep, validate.

Scenarios are described by a flat key=value config file (paths resolved
relative to the config file) with command-line flags taking precedence:

    nodes=nodes.csv        links=links.csv
    demands=demands.csv    paths=paths.csv   (or k=3 for enumeration)
    alpha=0.5 beta=0.5 m=1 n=4 gamma=0.5     out=out
    mode=fixed_point variant=queue_dependent max_iter=2000

Any other key is refused before anything is loaded.  Blank lines and lines
whose first non-blank character is `#` are skipped (`net.input_lines`).

Exit codes: 0 converged/clean, 1 input error, 2 not converged, including
a state that discharges above C(Q) (or a declared sweep trend failed).
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import cost as _cost
from .analysis import compare_models, gradient_check, kkt_report
from .cost import PARAM_NAMES, CostParams
from .net import (
    Network, PathSet, enumerate_paths, input_lines, load_demands, load_network, load_path_set
)
from .solver import VARIANTS, SolverOptions, _random_split, solve
from .sweep import _DIRECTIONS, SweepSpec, run_sweep, trend_check

#: every key a config file may set
_CONFIG_KEYS = frozenset(
    ("nodes", "links", "demands", "paths", "k", "out", "mode", "variant", "max_iter")
    + PARAM_NAMES
)
#: the series `sweep --trend` can check on the first tracked link, and
#: the `SweepRow` field each one reads
_TREND_SERIES = {"flow": "throughflows", "queue": "link_queues", "cost": "link_times"}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class ConfigError(ValueError):
    pass


def _read_config(path: str) -> dict[str, str]:
    cfg_path = FsPath(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg: dict[str, str] = {"_dir": str(cfg_path.parent)}
    key_line: dict[str, int] = {}
    for line_no, line in input_lines(cfg_path.read_text().splitlines()):
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key '{key}'")
        if key in key_line:
            raise ConfigError(
                f"{path}: config key '{key}' given twice, on lines {key_line[key]} and {line_no}"
            )
        key_line[key] = line_no
        cfg[key] = value
    return cfg


def _resolve(cfg: dict[str, str], key: str) -> FsPath:
    if key not in cfg:
        raise ConfigError(f"config is missing '{key}'")
    p = FsPath(cfg[key])
    if not p.is_absolute():
        p = FsPath(cfg["_dir"]) / p
    if not p.is_file():
        raise ConfigError(f"{key} file not found: {p}")
    return p


def _build_scenario(cfg: dict[str, str]) -> tuple[Network, PathSet]:
    with open(_resolve(cfg, "nodes")) as nf, open(_resolve(cfg, "links")) as lf:
        network = load_network(nf, lf)
    with open(_resolve(cfg, "demands")) as df:
        network = load_demands(df, network)
    if "paths" in cfg:
        with open(_resolve(cfg, "paths")) as pf:
            path_set = load_path_set(pf, network)
    elif "k" in cfg:
        path_set = enumerate_paths(network, _config_number(cfg, "k", int))
    else:
        raise ConfigError("config needs 'paths' (file) or 'k' (enumeration depth)")
    return network, path_set


def _config_number(cfg: dict[str, str], key: str, kind: type[int] | type[float]):
    """`cfg[key]` converted by `kind`; a bad value is a ConfigError naming the key."""
    try:
        return kind(cfg[key])
    except ValueError as exc:
        what = "an integer" if kind is int else "numeric"
        raise ConfigError(f"config field '{key}' is not {what}") from exc


def _build_params(cfg: dict[str, str]) -> CostParams:
    return CostParams(
        **{key: _config_number(cfg, key, float) for key in PARAM_NAMES if key in cfg}
    )


def _build_options(cfg: dict[str, str], args: argparse.Namespace) -> SolverOptions:
    """The options a flag or its config key gives, the flag first; the rest
    keep their `SolverOptions` defaults."""
    given = {}
    for name, key, kind in (
        ("queue_mode", "mode", str),
        ("variant", "variant", str),
        ("max_outer_iterations", "max_iter", int),
    ):
        # compare takes no --variant: `compare_models` sets each variant
        value = getattr(args, key, None)
        if value is None and key in cfg:
            value = cfg[key] if kind is str else _config_number(cfg, key, kind)
        if value is not None:
            given[name] = value
    return SolverOptions(**given)


def _load(args: argparse.Namespace):
    """The config, network, path set, cost parameters and solver options."""
    cfg = _read_config(args.config)
    network, path_set = _build_scenario(cfg)
    return cfg, network, path_set, _build_params(cfg), _build_options(cfg, args)


def _tracked_links(args: argparse.Namespace, network: Network) -> list[str]:
    """The link ids named by --track (all links without it), each stripped,
    checked and named once."""
    ids = [l.id for l in network.links]
    track = [lid.strip() for lid in args.track.split(",")] if args.track else ids
    known, seen = set(ids), set()
    for lid in track:
        if not lid:
            raise ConfigError(f"empty link id in --track: {args.track!r}")
        if lid not in known:
            raise ConfigError(f"unknown link id in --track: {lid}")
        if lid in seen:
            raise ConfigError(f"link id given twice in --track: {lid}")
        seen.add(lid)
    return track


def _out_dir(cfg: dict[str, str], args: argparse.Namespace) -> FsPath:
    out = FsPath(args.out or cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_result_bundle(out: FsPath, state, report) -> None:
    network = state.path_set.network
    rep = kkt_report(state)
    congested = set(rep.congested_links)
    with open(out / "links.csv", "w") as fh:
        fh.write(
            "link_id,flow,queue,capacity,travel_time,queuing_delay,"
            "generalized_cost,congested\n"
        )
        caps = _cost.capacity(state.link_queues, state.c_max, state.params)
        delays = _cost.queuing_delay(state.link_queues, state.c_max, state.params)
        for i, link in enumerate(network.links):
            fh.write(
                ",".join(
                    [
                        link.id,
                        _fmt(state.throughflows[i]),
                        _fmt(state.link_queues[i]),
                        _fmt(caps[i]),
                        _fmt(state.link_times[i] - delays[i]),
                        _fmt(delays[i]),
                        _fmt(state.link_times[i]),
                        "1" if link.id in congested else "0",
                    ]
                )
                + "\n"
            )
    costs = state.path_costs()
    completing = state.completing_flows()
    with open(out / "paths.csv", "w") as fh:
        fh.write(
            "origin,destination,links,oversaturated_flow,completing_flow,"
            "generalized_cost\n"
        )
        for j, p in enumerate(state.path_set.paths):
            od = network.od_pairs[p.od_index]
            fh.write(
                f"{od.origin},{od.destination},{';'.join(p.links)},"
                f"{_fmt(state.path_flows[j])},{_fmt(completing[j])},"
                f"{_fmt(costs[j])}\n"
            )
    with open(out / "convergence.csv", "w") as fh:
        fh.write("iteration,merit_half,merit,flow_change,queue_change,gap\n")
        for it, j_half, j_full, df, dq, gap in report.history:
            fh.write(
                f"{it},{_fmt(j_half)},{_fmt(j_full)},{_fmt(df)},{_fmt(dq)},"
                f"{_fmt(gap)}\n"
            )
    with open(out / "summary.txt", "w") as fh:
        fh.write(
            f"status: {'converged' if report.converged else report.termination}\n"
            f"iterations: {report.iterations}\n"
            f"inner_passes: {report.inner_passes}\n"
            f"total_generalized_cost: {_fmt(state.total_cost())}\n"
            f"congested_links: {len(congested)}\n"
            f"relative_gap: {_fmt(rep.relative_gap)}\n"
            f"max_capacity_residual: {_fmt(rep.max_capacity_residual)}\n"
            f"max_complementarity_residual: {_fmt(rep.max_complementarity_residual)}\n"
        )


def cmd_solve(args: argparse.Namespace) -> int:
    cfg, _, path_set, params, options = _load(args)
    state, report = solve(path_set, params, options, history=True)
    out = _out_dir(cfg, args)
    _write_result_bundle(out, state, report)
    print(
        f"{'converged' if report.converged else report.termination.replace('_', ' ')} after "
        f"{report.iterations} iterations; outputs in {out}"
    )
    return 0 if report.converged else 2


def cmd_compare(args: argparse.Namespace) -> int:
    cfg, network, path_set, params, options = _load(args)
    track = _tracked_links(args, network)
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant: {v}")
    rows = compare_models(path_set, params, options, variants)
    out = _out_dir(cfg, args)
    all_converged = True
    with open(out / "compare.csv", "w") as fh:
        fh.write("variant,link_id,flow,capacity,queue,queuing_delay,generalized_cost\n")
        for row in rows:
            all_converged &= row.report.converged
            st = row.state
            caps = _cost.capacity(st.link_queues, st.c_max, st.params)
            delays = _cost.queuing_delay(st.link_queues, st.c_max, st.params)
            for lid in track:
                i = path_set.link_index(lid)
                fh.write(
                    f"{row.variant},{lid},{_fmt(st.throughflows[i])},"
                    f"{_fmt(caps[i])},{_fmt(st.link_queues[i])},"
                    f"{_fmt(delays[i])},{_fmt(st.link_times[i])}\n"
                )
    print(f"wrote {out / 'compare.csv'} ({len(rows)} variants x {len(track)} links)")
    return 0 if all_converged else 2


def _parse_range(spec: str) -> tuple[float, ...]:
    try:
        lo, hi, step = (float(s) for s in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--range must be lo:hi:step, got {spec!r}") from exc
    if step <= 0 or hi < lo:
        raise ConfigError("--range requires step > 0 and hi >= lo")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(lo + i * step for i in range(count))


def _parse_trends(text: str) -> dict[str, str]:
    """--trend as {series: direction}, each item checked."""
    expectations = {}
    for item in text.split(","):
        name, _, direction = (s.strip() for s in item.partition(":"))
        if name not in _TREND_SERIES or direction not in _DIRECTIONS:
            raise ConfigError(
                f"bad --trend item '{item}': expected series:direction with series "
                f"{'|'.join(_TREND_SERIES)} and direction {'|'.join(_DIRECTIONS)}"
            )
        expectations[name] = direction
    return expectations


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, network, path_set, params, options = _load(args)
    if not args.param:
        raise ConfigError("--param is required for sweep")
    if args.od and args.param != "demand":
        raise ConfigError("--od applies only to --param demand")
    expectations = _parse_trends(args.trend) if args.trend else {}
    if args.values:
        try:
            values = tuple(float(s) for s in args.values.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError("--values must be comma-separated numbers") from exc
    elif args.range:
        values = _parse_range(args.range)
    else:
        raise ConfigError("sweep needs --values or --range")
    od_index = 0
    if args.param == "demand":
        if args.od:
            want = tuple(s.strip() for s in args.od.split(","))
            if len(want) != 2:
                raise ConfigError("--od must be origin,destination")
            matches = [
                i
                for i, od in enumerate(network.od_pairs)
                if (od.origin, od.destination) == want
            ]
            if not matches:
                raise ConfigError(f"no OD pair {want[0]}->{want[1]} in the scenario")
            od_index = matches[0]
    spec = SweepSpec(args.param, values, od_index)
    # checked before any point is solved
    track = _tracked_links(args, network)

    point_rows = run_sweep(path_set, spec, params, options)
    idx = {lid: path_set.link_index(lid) for lid in track}
    out = _out_dir(cfg, args)
    with open(out / "sweep.csv", "w") as fh:
        cols = [args.param, "converged", "termination"]
        for lid in track:
            cols += [f"{name}_{lid}" for name in ("flow", "queue", "delay", "time", "cost")]
        fh.write(",".join(cols) + "\n")
        for row in point_rows:
            cells = [_fmt(row.value), "1" if row.converged else "0", row.termination]
            for lid in track:
                i = idx[lid]
                cells += [
                    _fmt(row.throughflows[i]),
                    _fmt(row.link_queues[i]),
                    _fmt(row.queue_delays[i]),
                    _fmt(row.link_times[i] - row.queue_delays[i]),
                    _fmt(row.link_times[i]),
                ]
            fh.write(",".join(cells) + "\n")

    all_converged = all(r.converged for r in point_rows)
    trends_ok = True
    if expectations:
        lid = track[0]
        i = idx[lid]
        series = {
            name: [getattr(r, field)[i] for r in point_rows]
            for name, field in _TREND_SERIES.items()
        }
        result = trend_check(series, expectations)
        trends_ok = result.passed
        for violation in result.violations:
            print(f"trend violation on link {lid}: {violation}", file=sys.stderr)
    print(f"wrote {out / 'sweep.csv'} ({len(point_rows)} points)")
    return 0 if (all_converged and trends_ok) else 2


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _read_config(args.config)
    network, path_set = _build_scenario(cfg)
    params = _build_params(cfg).for_links(network.links)
    rng = np.random.default_rng(args.seed)

    f = _random_split(path_set, rng)
    q_ap = _scale_feasible(path_set, f, rng.uniform(0.0, 1.0, len(path_set.entry_link)))

    max_rel = gradient_check(path_set, f, q_ap, params)

    ok = max_rel <= 1e-5
    print(
        f"validation: {len(network.links)} links, {path_set.n_paths} paths; "
        f"gradient max relative error {max_rel:.2e} "
        f"({'ok' if ok else 'FAIL'})"
    )
    return 0 if ok else 1


def _scale_feasible(path_set, f, q_ap):
    held = np.bincount(path_set.entry_path, q_ap, path_set.n_paths)
    cap = 0.5 * f  # keep queues well inside the feasible interior
    scale = np.where(held > cap, cap / np.maximum(held, 1e-300), 1.0)
    return q_ap * scale[path_set.entry_path]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queuenet",
        description="Traffic assignment with residual queues and "
        "queue-dependent link capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # validate reads only --config and --seed; compare solves every variant
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="scenario config file")
    runs = argparse.ArgumentParser(add_help=False, parents=[config])
    runs.add_argument("--out", help="output directory (default from config or 'out')")
    runs.add_argument(
        "--mode",
        help="queue mode: fixed_point (relaxed queue sweep, default) | "
        "smoothed_gradient (the sweep under a merit-decrease safeguard)",
    )
    runs.add_argument("--max-iter", type=int, help="outer iteration limit")
    one_variant = argparse.ArgumentParser(add_help=False, parents=[runs])
    one_variant.add_argument("--variant", help=f"model variant: {', '.join(VARIANTS)}")

    sub.add_parser("solve", parents=[one_variant], help="solve one scenario")
    # no abbreviations, so --variant is refused rather than read as --variants
    p_cmp = sub.add_parser(
        "compare", parents=[runs], allow_abbrev=False, help="compare model variants"
    )
    p_cmp.add_argument("--track", help="comma-separated link ids (default: all)")
    p_cmp.add_argument("--variants", help="comma-separated variant subset")
    p_sw = sub.add_parser("sweep", parents=[one_variant], help="parameter/demand sweep")
    p_sw.add_argument("--param", help="|".join(PARAM_NAMES + ("demand",)))
    # one list of values: --values and --range exclude each other
    values = p_sw.add_mutually_exclusive_group()
    values.add_argument("--values", help="comma-separated sweep values")
    values.add_argument("--range", help="lo:hi:step (alternative to --values)")
    p_sw.add_argument("--od", help="origin,destination (only with --param demand)")
    p_sw.add_argument("--track", help="comma-separated link ids (default: all)")
    p_sw.add_argument(
        "--trend",
        help=f"declared trends ({'|'.join(_TREND_SERIES)}:direction) for the "
        "first tracked link, e.g. 'flow:decreasing,queue:increasing'",
    )
    p_val = sub.add_parser("validate", parents=[config], help="input + gradient checks")
    p_val.add_argument(
        "--seed", type=int, default=42, help="seed of the random test state (default 42)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
