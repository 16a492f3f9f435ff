"""Command-line interface: subcommands, exit codes, output files."""

import csv
import math
import shutil

import pytest

from queuenet import cli
from queuenet.cli import main


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
            for column in ("objective_half", "objective", "gap"):
                assert math.isfinite(float(row[column])), (row["iteration"], column)

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

    def test_non_finite_cost_parameter(self, scenario_dir, tmp_path, capsys):
        work = tmp_path / "scen"
        shutil.copytree(scenario_dir, work)
        with open(work / "scenario.cfg", "a") as fh:
            fh.write("alpha=nan\n")
        rc = run(["solve", "--config", str(work / "scenario.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "alpha must be finite" in capsys.readouterr().err

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

    def test_parallel_matches_serial(self, cfg, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "s", tmp_path / "p"
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
        assert run(args + ["--out", str(serial)]) == 0
        monkeypatch.setenv("QUEUELIB_THREADS", "3")
        assert run(args + ["--out", str(parallel)]) == 0
        assert (serial / "sweep.csv").read_bytes() == (
            parallel / "sweep.csv"
        ).read_bytes()

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

    def test_seeded(self, cfg, capsys):
        assert run(["validate", "--config", cfg, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["validate", "--config", cfg, "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
