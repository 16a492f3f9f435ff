"""Command-line interface: subcommands, exit codes, output files."""

import csv
import math
import shutil
import sys
from pathlib import Path

import pytest

from queuenet import analysis, cli
from queuenet import sweep as sweep_module
from queuenet.analysis import kkt_report
from queuenet.cli import main
from queuenet.solver import SolverOptions, solve


def run(argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def cfg(scenario_dir):
    return str(scenario_dir / "scenario.cfg")


class TestSolve:
    def test_solve_writes_bundle(self, cfg, tmp_path, capsys):
        rc = run(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert "converged" in capsys.readouterr().out
        for name in ("links.csv", "paths.csv", "convergence.csv", "summary.txt"):
            assert (tmp_path / name).is_file(), name

    def test_links_csv_contents(self, cfg, tmp_path):
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = {r["link_id"]: r for r in read_csv(tmp_path / "links.csv")}
        assert len(rows) == 7
        l4 = rows["4"]
        assert float(l4["flow"]) == pytest.approx(2350.0, abs=5.0)
        assert float(l4["queue"]) == pytest.approx(100.0, abs=2.0)
        assert l4["congested"] == "1"
        assert rows["1"]["congested"] == "0"
        # discharge capacity equals flow on the queued link
        assert float(l4["capacity"]) == pytest.approx(float(l4["flow"]), abs=1e-3)

    def test_paths_csv_costs_uniform(self, cfg, tmp_path):
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "paths.csv")
        costs = [float(r["generalized_cost"]) for r in rows]
        assert max(costs) - min(costs) <= 0.002

    def test_summary_counts_inner_passes(self, cfg, tmp_path):
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        passes = [l for l in lines if l.startswith("inner_passes: ")]
        assert len(passes) == 1 and int(passes[0].split(": ")[1]) > 0

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    def test_convergence_csv_has_a_row_per_iteration(self, cfg, tmp_path, mode):
        # solve fills the history only on request; the CLI asks for it
        assert run(["solve", "--config", cfg, "--out", str(tmp_path), "--mode", mode]) == 0
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        iterations = int(next(l for l in summary if l.startswith("iterations: ")).split(": ")[1])
        rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == iterations > 0
        for row in rows:
            for column in ("merit_half", "merit", "gap"):
                assert math.isfinite(float(row[column])), (row["iteration"], column)

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    def test_summary_residuals_are_the_audit(self, cfg, tmp_path, six_node, mode):
        # summary.txt reports the audit of the state the solve returned
        assert run(["solve", "--config", cfg, "--out", str(tmp_path), "--mode", mode]) == 0
        summary = dict(
            l.split(": ", 1) for l in (tmp_path / "summary.txt").read_text().splitlines()
        )
        state, _ = solve(six_node, options=SolverOptions(queue_mode=mode))
        eq = kkt_report(state)
        assert summary["relative_gap"] == cli._fmt(eq.relative_gap)
        assert summary["max_capacity_residual"] == cli._fmt(eq.max_capacity_residual)
        assert summary["max_complementarity_residual"] == cli._fmt(
            eq.max_complementarity_residual
        )

    def test_deterministic_output(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["solve", "--config", cfg, "--out", str(a)]) == 0
        assert run(["solve", "--config", cfg, "--out", str(b)]) == 0
        for name in ("links.csv", "paths.csv", "convergence.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_iteration_limit_exit_code(self, cfg, tmp_path):
        rc = run(
            ["solve", "--config", cfg, "--out", str(tmp_path), "--max-iter", "2"]
        )
        assert rc == 2
        assert "iteration_limit" in (tmp_path / "summary.txt").read_text()

    def test_infeasible_exit_code(self, scenario_dir, tmp_path):
        # 9000 veh/h from node 1 overloads links 1 and 3 past their queue cap
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        demands = (work / "demands.csv").read_text().replace("1,3,3000", "1,3,9000")
        (work / "demands.csv").write_text(demands)
        out = tmp_path / "out"
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(out)])
        assert rc == 2
        assert "status: infeasible" in (out / "summary.txt").read_text()

    def test_mode_flag(self, cfg, tmp_path):
        # both queue modes converge to one equilibrium: links.csv agrees
        # within criterion 9c's 1 veh/h
        rows = {}
        for mode in ("fixed_point", "smoothed_gradient"):
            out = tmp_path / mode
            assert run(["solve", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
            rows[mode] = {r["link_id"]: r for r in read_csv(out / "links.csv")}
        for link_id, fixed in rows["fixed_point"].items():
            smoothed = rows["smoothed_gradient"][link_id]
            for column in ("flow", "queue"):
                assert float(smoothed[column]) == pytest.approx(float(fixed[column]), abs=1.0)

    def test_variant_flag(self, cfg, tmp_path):
        rc = run(
            [
                "solve",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--variant",
                "traditional_ue",
            ]
        )
        assert rc == 0
        rows = {r["link_id"]: r for r in read_csv(tmp_path / "links.csv")}
        assert float(rows["4"]["queue"]) == 0.0
        assert float(rows["4"]["flow"]) > 2400.0


def test_options_default_to_solver_options(cfg):
    # without a flag or a config key the options are SolverOptions' own;
    # the six-node config names no solver option
    args = cli._build_parser().parse_args(["solve", "--config", cfg])
    assert cli._build_options(cli._read_config(cfg), args) == SolverOptions()
    args = cli._build_parser().parse_args(
        ["solve", "--config", cfg, "--mode", "smoothed_gradient", "--max-iter", "7"]
    )
    options = cli._build_options({"variant": "traditional_ue", "max_iter": "9"}, args)
    assert options == SolverOptions(
        queue_mode="smoothed_gradient", variant="traditional_ue", max_outer_iterations=7
    )


class TestErrors:
    def test_missing_config(self, capsys):
        rc = run(["solve", "--config", "/nonexistent/scenario.cfg"])
        assert rc == 1
        assert "/nonexistent/scenario.cfg" in capsys.readouterr().err

    def test_missing_input_file_named(self, scenario_dir, tmp_path, capsys):
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        text = (work / "scenario.cfg").read_text()
        (work / "scenario.cfg").write_text(text.replace("links.csv", "gone.csv"))
        rc = run(["solve", "--config", str(work / "scenario.cfg")])
        assert rc == 1
        assert "gone.csv" in capsys.readouterr().err

    def test_corrupt_capacity(self, scenario_dir, tmp_path, capsys):
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        links = (work / "links.csv").read_text().replace("2400", "-2400")
        (work / "links.csv").write_text(links)
        rc = run(["solve", "--config", str(work / "scenario.cfg")])
        assert rc == 1
        assert "capacity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, column, cell", [("links.csv", "length", "abc"), ("nodes.csv", "y_coord", "oops")]
    )
    def test_row_error_names_its_file(
        self, scenario_dir, tmp_path, capsys, table, column, cell
    ):
        # every table of a scenario has a row 2, and the error named only
        # the row: the first data row's cell becomes no number
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / table, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(column)] = cell
        with open(work / table, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{work / table}: row 2: {column}={cell!r} is not a finite number" in err

    def test_non_finite_cost_parameter(self, scenario_dir, tmp_path, capsys):
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / "scenario.cfg", "a") as fh:
            fh.write("alpha=nan\n")
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "alpha must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, what",
        [
            ("alpha", "abc", "is not numeric"),
            ("max_iter", "2.5", "is not an integer"),
            ("k", "2.5", "is not an integer"),
        ],
    )
    def test_bad_config_number_names_the_key(
        self, scenario_dir, tmp_path, capsys, key, value, what
    ):
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        text = (work / "scenario.cfg").read_text()
        if key == "k":
            # k is read only when the config names no paths file
            text = text.replace("paths=paths.csv\n", "")
        (work / "scenario.cfg").write_text(text + f"{key}={value}\n")
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"config field '{key}' {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["gama=0.9", "phi=2", "epsilon=1e-3"])
    def test_unknown_config_key_refused(self, scenario_dir, tmp_path, capsys, line):
        # a misspelt key used to solve at the default; phi is no cost
        # parameter, and the step tolerance is the constant solver.STEP_TOL
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / "scenario.cfg", "a") as fh:
            fh.write(line + "\n")
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        key = line.partition("=")[0]
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_refused_before_loading(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nodes=missing.csv\nmax_iters=3\n")
        assert run(["solve", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "unknown config key 'max_iters'" in err and "missing.csv" not in err

    def test_bundled_config_accepted(self, cfg):
        assert set(cli._read_config(cfg)) == {"_dir", "nodes", "links", "demands", "paths"}

    def test_readme_config_example_loads(self, scenario_dir, tmp_path):
        # its comments sat after the values, so `paths` named the file
        # "paths.csv        # or: k=3  to enumerate paths instead"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        (work / "scenario.cfg").write_text(example)
        cfg = cli._read_config(str(work / "scenario.cfg"))
        network, path_set = cli._build_scenario(cfg)
        assert cfg["paths"] == "paths.csv" and cfg["gamma"] == "0.5"
        assert path_set.n_paths == 4

    def test_benchmark_config_accepted(self, tmp_path):
        # the config the benchmark writes, with a path file and with
        # enumeration
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        try:
            from workloads import Scenario
        finally:
            sys.path.pop(0)
        for scenario in (
            Scenario("paths", {"paths.csv": ""}, ()),
            Scenario("enum", {}, (), k=3),
        ):
            path = tmp_path / f"{scenario.name}.cfg"
            path.write_text(scenario.config_text())
            assert set(cli._read_config(str(path))) > {"nodes", "links", "demands"}

    def test_every_config_key_accepted(self, scenario_dir, tmp_path):
        values = {
            "k": "3", "out": str(tmp_path / "out"), "mode": "fixed_point",
            "variant": "queue_dependent", "max_iter": "2000",
            "alpha": "0.5", "beta": "0.5", "m": "1", "n": "4", "gamma": "0.5",
        }
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / "scenario.cfg", "a") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in values.items())
        assert set(values) | {"nodes", "links", "demands", "paths"} == cli._CONFIG_KEYS
        assert run(["solve", "--config", str(work / "scenario.cfg")]) == 0
        assert (tmp_path / "out" / "summary.txt").is_file()

    def test_repeated_config_key_refused(self, scenario_dir, tmp_path, capsys):
        # the second value used to win silently
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / "scenario.cfg", "a") as fh:
            fh.write("gamma=0.5\ngamma=0.9\n")
        n_lines = len((work / "scenario.cfg").read_text().splitlines())
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config key 'gamma' given twice, on lines {n_lines - 1} and {n_lines}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("route", ["paths", "k"])
    def test_repeated_od_pair_refused(self, scenario_dir, tmp_path, capsys, route):
        # with a paths file OD 1->3 was reported to have no path; with k=2
        # the file solved as three OD pairs
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / "demands.csv", "a") as fh:
            fh.write("1,3,500\n")
        if route == "k":
            text = (work / "scenario.cfg").read_text()
            (work / "scenario.cfg").write_text(text.replace("paths=paths.csv\n", "k=2\n"))
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "OD pair 1->3 given twice, on rows 2 and 4" in capsys.readouterr().err

    def test_empty_demands_refused(self, scenario_dir, tmp_path, capsys):
        # with k=2 a demands table of only its header solved, "converged"
        # at total cost 0
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        (work / "demands.csv").write_text("origin,destination,demand\n")
        text = (work / "scenario.cfg").read_text()
        (work / "scenario.cfg").write_text(text.replace("paths=paths.csv\n", "k=2\n"))
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "no OD pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mode", "--variant"])
    def test_bad_option_value_named(self, cfg, tmp_path, capsys, flag):
        rc = run(["solve", "--config", cfg, flag, "bogus", "--out", str(tmp_path / "out")])
        assert rc == 1
        name = "queue_mode" if flag == "--mode" else "variant"
        assert capsys.readouterr().err == f"error: unknown {name}: bogus\n"

    def test_bad_config_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nodes nodes.csv\n")
        assert run(["solve", "--config", str(bad)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_unknown_track_link(self, cfg, tmp_path, capsys):
        rc = run(
            [
                "compare",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--track",
                "99",
            ]
        )
        assert rc == 1
        assert "99" in capsys.readouterr().err

    def test_unknown_variant(self, cfg, tmp_path, capsys):
        rc = run(
            [
                "compare",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--variants",
                "bogus",
            ]
        )
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


class TestCompare:
    def test_compare_two_variants(self, cfg, tmp_path):
        rc = run(
            [
                "compare",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--track",
                "4",
                "--variants",
                "queue_dependent,fixed_capacity_queue",
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "compare.csv")
        by_variant = {r["variant"]: r for r in rows}
        assert float(by_variant["queue_dependent"]["flow"]) == pytest.approx(
            2350.0, abs=5.0
        )
        assert float(by_variant["fixed_capacity_queue"]["flow"]) == pytest.approx(
            2400.0, abs=5.0
        )


class TestSweep:
    def test_gamma_sweep_with_trends(self, cfg, tmp_path):
        rc = run(
            [
                "sweep",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--param",
                "gamma",
                "--values",
                "0,0.2,0.5,0.7,0.9",
                "--track",
                "4",
                "--trend",
                "flow:decreasing,queue:increasing",
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 5
        assert float(rows[0]["flow_4"]) == pytest.approx(2400.0, abs=1.0)

    def test_trend_violation_exit_code(self, cfg, tmp_path, capsys):
        rc = run(
            [
                "sweep",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--param",
                "gamma",
                "--values",
                "0,0.5",
                "--track",
                "4",
                "--trend",
                "flow:increasing",
            ]
        )
        assert rc == 2
        assert "trend violation" in capsys.readouterr().err

    def test_demand_sweep_range_and_od(self, cfg, tmp_path):
        rc = run(
            [
                "sweep",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--param",
                "demand",
                "--range",
                "1000:3000:1000",
                "--od",
                "1,3",
                "--track",
                "4",
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r["demand"]) for r in rows] == [1000.0, 2000.0, 3000.0]

    def test_termination_column(self, cfg, tmp_path):
        argv = ["sweep", "--config", cfg, "--param", "demand", "--od", "1,3"]
        argv += ["--values", "1000,3000,5000", "--track", "4"]
        assert run(argv + ["--out", str(tmp_path / "full")]) == 0
        rows = read_csv(tmp_path / "full" / "sweep.csv")
        assert list(rows[0])[:3] == ["demand", "converged", "termination"]
        assert [r["termination"] for r in rows] == ["tolerance"] * 3
        # one outer iteration cannot converge: the column names the limit
        assert run(argv + ["--out", str(tmp_path / "capped"), "--max-iter", "1"]) == 2
        rows = read_csv(tmp_path / "capped" / "sweep.csv")
        assert [(r["converged"], r["termination"]) for r in rows] == [
            ("0", "iteration_limit")
        ] * 3

    def test_sweep_output_is_deterministic(self, cfg, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        args = [
            "sweep",
            "--config",
            cfg,
            "--param",
            "m",
            "--values",
            "0.5,1,2",
            "--track",
            "4",
        ]
        assert run(args + ["--out", str(first)]) == 0
        assert run(args + ["--out", str(second)]) == 0
        assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()

    def test_unknown_track_link_fails_before_solving(
        self, cfg, tmp_path, capsys, monkeypatch
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_solve)
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "m"]
        assert run(argv + ["--values", "1,2", "--track", "nosuchlink"]) == 1
        assert "unknown link id in --track: nosuchlink" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_repeated_track_link_fails_before_solving(
        self, cfg, tmp_path, capsys, monkeypatch, command
    ):
        # a repeated id repeated its sweep.csv columns and compare.csv rows
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(cli, "run_sweep", no_solve)
        monkeypatch.setattr(cli, "compare_models", no_solve)
        argv = [command, "--config", cfg, "--out", str(tmp_path), "--track", "4,2,4"]
        if command == "sweep":
            argv += ["--param", "gamma", "--values", "0.1"]
        assert run(argv) == 1
        assert "link id given twice in --track: 4" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_track_ids_are_stripped(self, cfg, tmp_path, command):
        argv = [command, "--config", cfg, "--out", str(tmp_path), "--track", "4, 2"]
        if command == "sweep":
            argv += ["--param", "gamma", "--values", "0.1"]
        assert run(argv) == 0
        if command == "sweep":
            (row,) = read_csv(tmp_path / "sweep.csv")
            assert {"flow_4", "flow_2"} <= set(row)
        else:
            rows = read_csv(tmp_path / "compare.csv")
            assert [r["link_id"] for r in rows[:2]] == ["4", "2"]

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("track", ["4,", "4,,2", " "])
    def test_empty_track_item_fails_before_solving(
        self, cfg, tmp_path, capsys, monkeypatch, command, track
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(cli, "run_sweep", no_solve)
        monkeypatch.setattr(cli, "compare_models", no_solve)
        argv = [command, "--config", cfg, "--out", str(tmp_path), "--track", track]
        if command == "sweep":
            argv += ["--param", "gamma", "--values", "0.1"]
        assert run(argv) == 1
        assert f"empty link id in --track: {track!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("m", "1,2,0", "m and n must be > 0"),
            ("demand", "1000,2000,-5", "sweep value -5.0: demand must be finite and >= 0"),
        ],
    )
    def test_every_value_checked_before_solving(
        self, cfg, tmp_path, capsys, monkeypatch, param, values, message
    ):
        # the bad value is the last: no earlier point is solved either
        solves = []
        solve_point = sweep_module.solve
        monkeypatch.setattr(
            sweep_module, "solve", lambda *a, **k: solves.append(1) or solve_point(*a, **k)
        )
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", param]
        assert run(argv + ["--values", values, "--track", "4"]) == 1
        assert message in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_values_and_range_exclude_each_other(self, cfg, tmp_path, capsys):
        # --range was dropped in silence: one point, exit 0
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "gamma"]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--values", "0.1", "--range", "0:0.4:0.1", "--track", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--range" in err and "--values" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_phi_sweep_refused(self, cfg, tmp_path, capsys):
        # phi is no cost parameter, so it is refused like any unknown name
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "phi"]
        assert run(argv + ["--values", "1,2.718281828459045"]) == 1
        assert "parameter must be 'demand' or one of" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "trend", ["dely:increasing", "flow:upward"], ids=["series", "direction"]
    )
    def test_bad_trend_fails_before_solving(
        self, cfg, tmp_path, capsys, monkeypatch, trend
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_solve)
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "gamma"]
        assert run(argv + ["--values", "0,0.5", "--track", "4", "--trend", trend]) == 1
        assert f"bad --trend item '{trend}'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_od_needs_demand_sweep(self, cfg, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_solve)
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "gamma"]
        assert run(argv + ["--values", "0,0.5", "--od", "1,3"]) == 1
        assert "--od applies only to --param demand" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_argument_errors(self, cfg, capsys):
        assert run(["sweep", "--config", cfg, "--values", "1,2"]) == 1
        assert run(["sweep", "--config", cfg, "--param", "m"]) == 1
        assert (
            run(["sweep", "--config", cfg, "--param", "m", "--range", "oops"]) == 1
        )
        assert (
            run(
                [
                    "sweep",
                    "--config",
                    cfg,
                    "--param",
                    "demand",
                    "--values",
                    "100",
                    "--od",
                    "9,9",
                ]
            )
            == 1
        )
        capsys.readouterr()


class TestValidate:
    def test_gradient_validation_passes(self, cfg, capsys):
        rc = run(["validate", "--config", cfg])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_seed_is_validate_only(self, cfg, capsys):
        # only validate draws random numbers, so only validate takes a seed
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--config", cfg, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--out", "x"],
            ["validate", "--variant", "system_optimum"],
            ["validate", "--mode", "smoothed_gradient"],
            ["validate", "--epsilon", "0.1"],
            ["validate", "--max-iter", "5"],
            ["compare", "--variant", "system_optimum"],
            *([command, "--epsilon", "1e-3"] for command in ("solve", "compare", "sweep")),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_options_a_subcommand_would_ignore_are_refused(self, cfg, capsys, argv):
        # validate reads only the config and the seed, and compare solves
        # every variant (or --variants), so these options used to be ignored;
        # no subcommand takes --epsilon, the step tolerance being the
        # constant solver.STEP_TOL
        with pytest.raises(SystemExit) as exc:
            run([argv[0], "--config", cfg, *argv[1:]])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(50, 60))
    def test_seeds_pass(self, cfg, capsys, seed):
        # seed 53 draws a flow component of -0.1 whose central difference
        # carries round-off of 1e-6 against J = 1.4e6: a correct gradient
        # must not fail by what the probe cannot resolve
        assert run(["validate", "--config", cfg, "--seed", str(seed)]) == 0
        assert "(ok)" in capsys.readouterr().out

    def test_a_gradient_one_percent_off_fails(self, cfg, capsys, monkeypatch):
        # negative control: a gradient 1% off on its first component
        gradient = analysis.merit_gradient

        def off(*args, **kwargs):
            grad_f, grad_q = gradient(*args, **kwargs)
            grad_f = grad_f.copy()
            grad_f[0] *= 1.01
            return grad_f, grad_q

        monkeypatch.setattr(analysis, "merit_gradient", off)
        assert run(["validate", "--config", cfg, "--seed", "53"]) == 1
        assert "(FAIL)" in capsys.readouterr().out

    def test_seeded(self, cfg, capsys):
        assert run(["validate", "--config", cfg, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["validate", "--config", cfg, "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
