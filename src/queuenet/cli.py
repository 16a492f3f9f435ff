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
from dataclasses import replace
from pathlib import Path as FsPath
from typing import Iterable, Sequence

import numpy as np

from . import cost as _cost
from .analysis import compare_models, gradient_check, kkt_report
from .cost import PARAM_NAMES, CostParams
from .net import (
    _PATH_COLUMNS, _PATH_RESULT_COLUMNS, Network, NetworkError, PathSet, _path_cells, _write_table,
    enumerate_paths, input_lines, load_demands, load_network, load_path_set,
)
from .solver import VARIANTS, SolverOptions, _random_state, solve
from .sweep import _DIRECTIONS, SweepSpec, run_sweep, trend_check

#: every key a config file may set
_CONFIG_KEYS = frozenset(
    ("nodes", "links", "demands", "paths", "k", "out", "mode", "variant", "max_iter")
    + PARAM_NAMES
)
#: the series `sweep --trend` can check on the first tracked link, and
#: the `SweepRow` field each one reads
_TREND_SERIES = {"flow": "throughflows", "queue": "link_queues", "cost": "link_times"}
#: the most values one `sweep --range` may hold
_MAX_RANGE_POINTS = 10_000


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class ConfigError(ValueError):
    pass


class _Config(dict):
    """A config file's values by key, and under `_dir` the directory its
    file names are relative to; `line[key]` is the line that sets `key`."""

    def __init__(self, path: str):
        super().__init__(_dir=str(FsPath(path).parent))
        self.path = path
        self.line: dict[str, int] = {}


def _read_config(path: str) -> _Config:
    cfg_path = FsPath(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = _Config(path)
    for line_no, line in input_lines(cfg_path.read_text().splitlines()):
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key '{key}'")
        if key in cfg.line:
            raise ConfigError(
                f"{path}: config key '{key}' given twice, on lines {cfg.line[key]} and {line_no}"
            )
        cfg.line[key] = line_no
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


def _build_scenario(cfg: _Config) -> tuple[Network, PathSet]:
    if "paths" in cfg and "k" in cfg:
        raise ConfigError(
            f"{cfg.path}: config sets both 'paths' (line {cfg.line['paths']}) and 'k' "
            f"(line {cfg.line['k']}); give one"
        )
    with open(_resolve(cfg, "nodes")) as nf, open(_resolve(cfg, "links")) as lf:
        network = load_network(nf, lf)
    with open(_resolve(cfg, "demands")) as df:
        network = load_demands(df, network)
    if "paths" in cfg:
        with open(_resolve(cfg, "paths")) as pf:
            path_set = load_path_set(pf, network)
    elif "k" in cfg:
        path_set = _config_value(cfg, "k", int, lambda k: enumerate_paths(network, k))
    else:
        raise ConfigError("config needs 'paths' (file) or 'k' (enumeration depth)")
    return network, path_set


def _config_value(cfg: _Config, key: str, kind: type, use):
    """`use(kind(cfg[key]))`.  A value `kind` cannot convert, or one that
    `use` refuses, is a ConfigError naming the config file, the line and
    the key; an error in the network's data (`NetworkError`) names its own
    file."""
    try:
        value = kind(cfg[key])
    except ValueError:
        problem = f" is not {'an integer' if kind is int else 'numeric'}"
    else:
        try:
            return use(value)
        except NetworkError:
            raise
        except ValueError as exc:
            problem = f": {exc}"
    raise ConfigError(f"{cfg.path}:{cfg.line[key]}: config field '{key}'{problem}")


def _build_params(cfg: _Config) -> CostParams:
    """The cost parameters the config sets, one key at a time, so that
    `CostParams` refuses a bad value on its line."""
    params = CostParams()
    for key in PARAM_NAMES:
        if key in cfg:
            params = _config_value(cfg, key, float, lambda v: params.replace(**{key: v}))
    return params


def _build_options(cfg: _Config, args: argparse.Namespace) -> SolverOptions:
    """The options a flag or its config key gives, the flag first; the rest
    keep their `SolverOptions` defaults, which check each value as it is set."""
    options = SolverOptions()
    for name, key, kind in (
        ("queue_mode", "mode", str),
        ("variant", "variant", str),
        ("max_outer_iterations", "max_iter", int),
    ):
        # compare takes no --variant: `compare_models` sets each variant
        value = getattr(args, key, None)
        if value is not None:
            options = replace(options, **{name: value})
        elif key in cfg:
            options = _config_value(cfg, key, kind, lambda v: replace(options, **{name: v}))
    return options


def _load(args: argparse.Namespace):
    """The config, network, path set, cost parameters and solver options."""
    cfg = _read_config(args.config)
    network, path_set = _build_scenario(cfg)
    return cfg, network, path_set, _build_params(cfg), _build_options(cfg, args)


def _items(flag: str, text: str | None, what: str, known=None, key=lambda item: item) -> list:
    """The items of a comma-separated list flag, each stripped, or without
    the flag every `known` item.  An empty item, one not in `known` (where
    given) and one whose `key` an earlier item has are refused."""
    if not text:
        return list(known)
    items, seen = [s.strip() for s in text.split(",")], set()
    for item in items:
        if not item:
            raise ConfigError(f"empty {what} in {flag}: {text!r}")
        if known is not None and item not in known:
            raise ConfigError(f"unknown {what} in {flag}: {item}")
        if key(item) in seen:
            raise ConfigError(f"{what} given twice in {flag}: {item}")
        seen.add(key(item))
    return items


def _out_dir(cfg: dict[str, str], args: argparse.Namespace) -> FsPath:
    out = FsPath(args.out or cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: FsPath, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """An output table (`net._write_table`), each float cell as `_fmt` gives it."""
    rows = ([_fmt(c) if isinstance(c, float) else c for c in row] for row in rows)
    with open(path, "w", newline="") as fh:
        _write_table(fh, header, rows)


def _write_result_bundle(out: FsPath, state, report) -> None:
    network = state.path_set.network
    rep = kkt_report(state)
    congested = set(rep.congested_links)
    caps = _cost.capacity(state.link_queues, state.c_max, state.params)
    delays = _cost.queuing_delay(state.link_queues, state.c_max, state.params)
    _write_csv(
        out / "links.csv",
        ("link_id", "flow", "queue", "capacity", "travel_time", "queuing_delay",
         "generalized_cost", "congested"),
        zip(
            [l.id for l in network.links], state.throughflows, state.link_queues, caps,
            state.link_times - delays, delays, state.link_times,
            [int(l.id in congested) for l in network.links],
        ),
    )
    # a path table that `load_path_set` reads back, with three more columns
    numbers = zip(state.path_flows, state.completing_flows(), state.path_costs())
    _write_csv(
        out / "paths.csv",
        _PATH_COLUMNS + _PATH_RESULT_COLUMNS,
        (cells + row for cells, row in zip(_path_cells(state.path_set), numbers)),
    )
    _write_csv(
        out / "convergence.csv",
        ("iteration", "merit_half", "merit", "flow_change", "queue_change", "gap"),
        report.history,
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
    track = _items("--track", args.track, "link id", [l.id for l in network.links])
    variants = _items("--variants", args.variants, "variant", VARIANTS)
    rows = compare_models(path_set, params, options, variants)
    at = [path_set.link_index(lid) for lid in track]
    cells = []
    for row in rows:
        st = row.state
        caps = _cost.capacity(st.link_queues, st.c_max, st.params)
        delays = _cost.queuing_delay(st.link_queues, st.c_max, st.params)
        cells += zip([row.variant] * len(at), track, st.throughflows[at], caps[at],
                     st.link_queues[at], delays[at], st.link_times[at])
    out = _out_dir(cfg, args)
    _write_csv(
        out / "compare.csv",
        ("variant", "link_id", "flow", "capacity", "queue", "queuing_delay", "generalized_cost"),
        cells,
    )
    print(f"wrote {out / 'compare.csv'} ({len(rows)} variants x {len(track)} links)")
    return 0 if all(row.report.converged for row in rows) else 2


def _parse_range(spec: str) -> tuple[float, ...]:
    try:
        lo, hi, step = (float(s) for s in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--range must be lo:hi:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"--range needs a finite lo, hi and step, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ConfigError("--range requires step > 0 and hi >= lo")
    # not finite when (hi - lo) / step overflows
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_RANGE_POINTS:
        raise ConfigError(f"--range may hold at most {_MAX_RANGE_POINTS} values, got {spec!r}")
    return tuple(lo + i * step for i in range(int(span) + 1))


def _sweep_value(item: str) -> float:
    try:
        return float(item)
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, got {item!r}") from None


def _parse_trends(text: str) -> dict[str, str]:
    """--trend as {series: direction}, each item checked (`_items`)."""
    expectations = {}
    items = _items("--trend", text, "series", key=lambda item: item.partition(":")[0].strip())
    for item in items:
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
        values = tuple(map(float, _items("--values", args.values, "value", key=_sweep_value)))
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
    track = _items("--track", args.track, "link id", [l.id for l in network.links])

    point_rows = run_sweep(path_set, spec, params, options)
    at = [path_set.link_index(lid) for lid in track]
    out = _out_dir(cfg, args)
    names = ("flow", "queue", "delay", "time", "cost")
    header = [args.param, "converged", "termination"]
    header += [f"{name}_{lid}" for lid in track for name in names]
    rows = []
    for r in point_rows:
        # per tracked link, the columns `names` heads
        per_link = (r.throughflows, r.link_queues, r.queue_delays,
                    r.link_times - r.queue_delays, r.link_times)
        cells = np.column_stack(per_link)[at].ravel()
        rows.append([r.value, int(r.converged), r.termination, *cells])
    _write_csv(out / "sweep.csv", header, rows)

    all_converged = all(r.converged for r in point_rows)
    trends_ok = True
    if expectations:
        lid, i = track[0], at[0]
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
    _, network, path_set, params, _ = _load(args)
    params = params.for_links(network.links)
    f, q_ap = _random_state(path_set, params, np.random.default_rng(args.seed))
    max_rel = gradient_check(path_set, f, q_ap, params)

    ok = max_rel <= 1e-5
    print(
        f"validation: {len(network.links)} links, {path_set.n_paths} paths; "
        f"slope max relative error {max_rel:.2e} "
        f"({'ok' if ok else 'FAIL'})"
    )
    return 0 if ok else 1


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
    p_val = sub.add_parser("validate", parents=[config], help="input + slope checks")
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
