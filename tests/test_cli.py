import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from flexlife.cli import main
from flexlife.config import ConfigError, load_config
from tests.conftest import DEMO_CONFIG, fast_config


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigValidation:
    def test_demo_config_loads(self):
        cfg = load_config(DEMO_CONFIG)
        assert cfg.design.edge_length == 0.035
        assert len(cfg.grid) == 36
        assert cfg.reference == (0.004, 0.004)

    def test_missing_key_names_it(self, tmp_path):
        raw = json.loads(DEMO_CONFIG.read_text())
        del raw["robot"]["edge_length"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="edge_length"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["robot"]["colour"] = "red"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="colour"):
            load_config(p)

    def test_nonpositive_quantity_rejected(self, tmp_path):
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["robot"]["material"]["E"] = -1.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="E"):
            load_config(p)

    @pytest.mark.parametrize("method", ["Radau", "LSODA", "bdf"])
    def test_simulation_method_other_than_bdf_exit_2(self, runner, tmp_path, method):
        p = fast_config(tmp_path, **{"simulation.method": method})
        with pytest.raises(ConfigError, match="simulation.method"):
            load_config(p)
        result = runner.invoke(main, ["simulate", "--config", str(p)])
        assert result.exit_code == 2
        assert "simulation.method" in result.output
        assert "Traceback" not in result.output

    def test_cli_exit_code_2_on_bad_config(self, runner, tmp_path):
        raw = json.loads(DEMO_CONFIG.read_text())
        del raw["trajectory"]["q_pick"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        result = runner.invoke(main, ["simulate", "--config", str(p)])
        assert result.exit_code == 2
        assert "q_pick" in result.output

    def test_xi_crit_outside_span_exit_2(self, runner, tmp_path):
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["robot"]["links"][0]["xi_crit"] = 5.0  # link 1 is 0.6 m long
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        result = runner.invoke(main, ["simulate", "--config", str(p)])
        assert result.exit_code == 2
        assert "xi_crit" in result.output
        assert "Traceback" not in result.output


# (command, option, out-of-range value); an id names its value unless it is 0
OUT_OF_RANGE_OPTIONS = [
    ("fatigue", "--angles", "0"),
    ("fatigue", "--mean-bins", "0"),
    ("fatigue", "--amp-bins", "0"),
    ("rainflow", "--mean-bins", "0"),
    ("rainflow", "--amp-bins", "0"),
    ("fatigue", "--gate", "-1"),
    ("rainflow", "--gate", "-1"),
    ("sweep", "--jobs", "0"),
    ("sweep", "--jobs", "-2"),
    ("sweep", "--plot-cap-hours", "0"),
    ("sweep", "--plot-cap-hours", "-5"),
    ("fatigue", "--gate", "nan"),
    ("rainflow", "--gate", "nan"),
    ("rainflow", "--gate", "inf"),
    ("sweep", "--plot-cap-hours", "nan"),
    ("sweep", "--plot-cap-hours", "inf"),
    ("fatigue", "--t-task", "nan"),
    # one above the bounds SweepSettings puts on the config's counts
    ("fatigue", "--angles", "3602"),
    ("fatigue", "--mean-bins", "1001"),
    ("fatigue", "--amp-bins", "1001"),
    ("rainflow", "--mean-bins", "1001"),
    ("rainflow", "--amp-bins", "1001"),
]


@pytest.mark.parametrize(
    "command,option,value",
    OUT_OF_RANGE_OPTIONS,
    ids=[f"{c}-{o}" + ("" if v == "0" else v) for c, o, v in OUT_OF_RANGE_OPTIONS],
)
def test_count_option_below_one_exit_2(runner, tmp_path, command, option, value):
    """Counts below one or above their bound, a negative gate, --jobs
    below one, a cap that is not positive and a gate, cap or task time
    that is not finite exit 2 with click's usage message, as the same
    values do in the config file."""
    if command == "fatigue":
        data = tmp_path / "stress.csv"
        data.write_text("t,sigma_xx,sigma_xy\n0.0,1e7,0.0\n0.1,-1e7,0.0\n")
        args = [str(data), str(Path(DEMO_CONFIG).parent / "fatigue_material.json")]
    elif command == "rainflow":
        data = tmp_path / "series.csv"
        data.write_text("t,sigma\n0,1.0\n1,-1.0\n2,2.0\n")
        args = [str(data)]
    else:
        args = ["--config", str(fast_config(tmp_path))]
    out = tmp_path / "out"
    result = runner.invoke(main, [command, *args, option, value, "--out-dir", str(out)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert option in result.output
    assert not out.exists()


class TestSimulateCommand:
    def test_writes_history_and_stress(self, runner, tmp_path):
        cfg = fast_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        hist = np.genfromtxt(out / "history.csv", delimiter=",", names=True)
        assert np.all(np.diff(hist["t"]) > 0.0)
        for col in ("qM1", "qL3", "qe1_1", "kappa2_w", "drEE_z"):
            assert col in hist.dtype.names
        assert (out / "stress_link1.csv").exists()
        assert (out / "stress_link2.csv").exists()

    def test_zero_move_notes_settling_only(self, runner, tmp_path):
        cfg = fast_config(tmp_path, **{"trajectory.q_place": [-0.2, 0.6, -1.6]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert "settling-only" in result.output


class TestFatigueCommand:
    def test_zero_stress_infinite_life(self, runner, tmp_path):
        stress = tmp_path / "stress.csv"
        stress.write_text(
            "t,sigma_xx,sigma_xy\n" + "".join(f"{t},0.0,0.0\n" for t in range(10))
        )
        result = runner.invoke(
            main,
            ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
             "--t-task", "2.0", "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "damage_report.json").read_text())
        assert report["finite_life"] is False
        assert report["t_life_seconds"] is None
        assert len(report["damage"]) == len(report["angles_rad"]) == 73

    def test_known_damage_lifetime_division(self, runner, tmp_path):
        # constant-amplitude cycles above the fatigue limit
        amp = 5e7
        n_cycles = 200
        vals = np.empty(2 * n_cycles + 1)
        vals[0::2] = amp
        vals[1::2] = -amp
        stress = tmp_path / "stress.csv"
        stress.write_text(
            "t,sigma_xx,sigma_xy\n"
            + "".join(f"{k * 0.01},{v},0.0\n" for k, v in enumerate(vals))
        )
        result = runner.invoke(
            main,
            ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
             "--t-task", "2.0", "--angles", "19", "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "damage_report.json").read_text())
        assert report["finite_life"] is True
        assert report["t_life_seconds"] * report["d_max"] == pytest.approx(2.0, rel=1e-9)

    def test_byte_order_mark_read_as_without(self, runner, tmp_path):
        # "CSV UTF-8" from a spreadsheet starts with U+FEFF
        text = "t,sigma_xx,sigma_xy\n0.0,1e8,0.0\n0.1,-1e8,2e7\n0.2,1e8,0.0\n"
        reports = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            stress = tmp_path / f"{name}.csv"
            stress.write_text(prefix + text, encoding="utf-8")
            result = runner.invoke(
                main,
                ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
                 "--angles", "5", "--out-dir", str(tmp_path / name)],
            )
            assert result.exit_code == 0, result.output
            reports.append((tmp_path / name / "damage_report.json").read_text())
        assert reports[0] == reports[1]

    def test_report_keys_leave_out_the_run_record(self, runner, tmp_path):
        stress = tmp_path / "stress.csv"
        stress.write_text("t,sigma_xx,sigma_xy\n0.0,1e8,0.0\n0.1,-1e8,0.0\n0.2,1e8,0.0\n")
        result = runner.invoke(
            main,
            ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
             "--angles", "5", "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "damage_report.json").read_text())
        assert set(report) == {
            "t_task_seconds", "d_max", "phi_critical_rad", "finite_life",
            "t_life_seconds", "t_life_hours", "angles_rad", "damage",
        }

    @pytest.mark.parametrize("last_time", ["", "nan", "inf"])
    def test_non_finite_time_exit_2(self, runner, tmp_path, last_time):
        # a blank time cell once gave a NaN task time, a NaN lifetime and
        # exit 0 with an invalid damage_report.json
        stress = tmp_path / "stress.csv"
        stress.write_text(
            f"t,sigma_xx,sigma_xy\n0.0,1e8,0.0\n0.1,-1e8,0.0\n{last_time},1e8,0.0\n"
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert not (out / "damage_report.json").exists()

    @pytest.mark.parametrize("rows", [
        ["0.0,1e8,0.0", "0.2,1e8,0.0", "0.1,-1e8,0.0", "0.3,-1e8,0.0"],
        ["0.3,1e8,0.0", "0.1,-1e8,0.0", "0.2,1e8,0.0", "0.0,-1e8,0.0"],
    ], ids=["shuffled", "reversed-ends"])
    def test_backwards_time_exit_2(self, runner, tmp_path, rows):
        # shuffled rows once gave a wrong cycle order and t_task and exit 0;
        # swapped ends gave a misleading "t_task must be positive"
        stress = tmp_path / "stress.csv"
        stress.write_text("t,sigma_xx,sigma_xy\n" + "".join(f"{r}\n" for r in rows))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 2
        assert "backwards at index" in result.output
        assert not (out / "damage_report.json").exists()

    def test_header_only_csv_exit_2(self, runner, tmp_path):
        stress = tmp_path / "stress.csv"
        stress.write_text("t,sigma_xx,sigma_xy\n")
        result = runner.invoke(
            main,
            ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json")],
        )
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_overflowing_tresca_history_exit_2(self, runner, tmp_path):
        # the Tresca history of these finite stresses overflows; this once
        # ended in a ValueError traceback from extract_extrema
        stress = tmp_path / "stress.csv"
        stress.write_text("t,sigma_xx,sigma_xy\n" + "".join(
            f"{k},{v},{v}\n" for k, v in enumerate([0.0, 1.7e308, -1.7e308, 1.7e308, 0.0])
        ))
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            result = runner.invoke(
                main,
                ["fatigue", str(stress), str(Path(DEMO_CONFIG).parent / "fatigue_material.json"),
                 "--out-dir", str(out)],
            )
        assert result.exit_code == 2
        assert "error: stress history contains non-finite values" in result.output
        assert "Traceback" not in result.output
        assert not (out / "damage_report.json").exists()

    def test_malformed_csv_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        result = runner.invoke(
            main,
            ["fatigue", str(bad), str(Path(DEMO_CONFIG).parent / "fatigue_material.json")],
        )
        assert result.exit_code == 2


class TestRainflowCommand:
    def test_matrix_totals_match_counts(self, runner, tmp_path):
        values = [-2.0, 1.0, -3.0, 5.0, -1.0, 3.0, -4.0, 4.0, -2.0]
        series = tmp_path / "series.csv"
        series.write_text("t,sigma\n" + "".join(f"{k},{v}\n" for k, v in enumerate(values)))
        result = runner.invoke(
            main, ["rainflow", str(series), "--mean-bins", "8", "--amp-bins", "8",
                   "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        matrix = np.genfromtxt(tmp_path / "rainflow_matrix.csv", delimiter=",", names=True)
        assert matrix["count"].sum() == pytest.approx(4.0)

    def test_byte_order_mark_read_as_without(self, runner, tmp_path):
        text = "t,sigma\n0,-2.0\n1,1.0\n2,-3.0\n3,5.0\n4,-1.0\n"
        matrices = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            series = tmp_path / f"{name}.csv"
            series.write_text(prefix + text, encoding="utf-8")
            result = runner.invoke(main, ["rainflow", str(series),
                                          "--out-dir", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            matrices.append((tmp_path / name / "rainflow_matrix.csv").read_bytes())
        assert matrices[0] == matrices[1]

    def test_blank_sample_exit_2(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("t,sigma\n0,-2.0\n1,1.0\n2,\n3,5.0\n4,-1.0\n")
        result = runner.invoke(main, ["rainflow", str(series), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "non-finite" in result.output
        assert not (tmp_path / "rainflow_matrix.csv").exists()

    def test_overflowing_cycles_exit_2(self, runner, tmp_path):
        # finite extrema whose cycle amplitudes overflow were once binned
        # into nan edges and written with exit 0
        series = tmp_path / "series.csv"
        series.write_text("t,sigma\n" + "".join(
            f"{k},{v}\n" for k, v in enumerate([0.0, 1.7e308, -1.7e308, 1.7e308, 0.0])
        ))
        with np.errstate(over="ignore"):
            result = runner.invoke(main, ["rainflow", str(series), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "error: cycle means and amplitudes must be finite" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "rainflow_matrix.csv").exists()

    @pytest.mark.parametrize("bad_time, message", [
        ("", "non-finite"), ("nan", "non-finite"), ("inf", "non-finite"),
        ("0.5", "backwards at index 3"),
    ], ids=["blank", "nan", "inf", "backwards"])
    def test_bad_time_column_exit_2(self, runner, tmp_path, bad_time, message):
        series = tmp_path / "series.csv"
        series.write_text(f"t,sigma\n0,-2.0\n1,1.0\n2,-3.0\n{bad_time},5.0\n4,-1.0\n")
        result = runner.invoke(main, ["rainflow", str(series), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert message in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "rainflow_matrix.csv").exists()


@pytest.mark.parametrize("command", ["fatigue", "rainflow"])
def test_overflow_error_line_only(runner, tmp_path, command):
    # numpy's overflow warnings, with source paths, once came before the
    # error line; raised as errors they would end the command with exit 1
    values = [0.0, 1.7e308, -1.7e308, 1.7e308, 0.0]
    data = tmp_path / "data.csv"
    if command == "fatigue":
        data.write_text("t,sigma_xx,sigma_xy\n" + "".join(
            f"{k},{v},{v}\n" for k, v in enumerate(values)))
        args = [str(data), str(Path(DEMO_CONFIG).parent / "fatigue_material.json")]
    else:
        data.write_text("t,sigma\n" + "".join(f"{k},{v}\n" for k, v in enumerate(values)))
        args = [str(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, [command, *args, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output


class TestParetoCommand:
    def test_front_extraction(self, runner, tmp_path):
        from tests.test_design import PARETO_POINTS

        csv_path = tmp_path / "points.csv"
        csv_path.write_text(
            "config,jm,jvib\n"
            + "".join(f"{i + 1},{jm},{jv}\n" for i, (jm, jv) in enumerate(PARETO_POINTS))
        )
        out = tmp_path / "front.json"
        result = runner.invoke(main, ["pareto", str(csv_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["front"] == [1, 2, 3, 4, 5, 6]

    def test_byte_order_mark_read_as_without(self, runner, tmp_path):
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("\ufeffconfig,jm,jvib\n1,0.0,2.0\n2,1.0,1.0\n3,2.0,3.0\n",
                            encoding="utf-8")
        out = tmp_path / "front.json"
        result = runner.invoke(main, ["pareto", str(csv_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["front"] == [1, 2]

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["1", "", "3"], "nan"),  # a blank cell used to crash in int(nan)
            (["1", "nan", "3"], "nan"),
            (["1", "inf", "3"], "inf"),
            (["1.7", "1.2", "3"], "1.7"),  # used to truncate both to 1
            (["1", "2.5", "3"], "2.5"),
            (["0", "2", "3"], "0.0"),
            (["-1", "2", "3"], "-1.0"),
            (["1", "2", "1"], "unique"),
        ],
    )
    def test_bad_config_ids_exit_2(self, runner, tmp_path, ids, message):
        csv_path = tmp_path / "points.csv"
        csv_path.write_text(
            "config,jm,jvib\n" + "".join(f"{c},{k},{3 - k}\n" for k, c in enumerate(ids))
        )
        out = tmp_path / "front.json"
        result = runner.invoke(main, ["pareto", str(csv_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()


class TestSweepCommand:
    def test_tiny_sweep_outputs(self, runner, tmp_path):
        cfg = fast_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = (out / "sweep_results.csv").read_text().strip().splitlines()
        assert rows[0] == "config,t1_mm,t2_mm,Jm_percent,Jvib_m,Dmax,lifetime_h"
        assert len(rows) == 3
        payload = json.loads((out / "pareto.json").read_text())
        assert set(payload["front"]) <= {1, 2}
        points = (out / "pareto_points.csv").read_text().strip().splitlines()
        assert len(points) == 3

    def test_sweep_stats_lists_every_candidate(self, runner, tmp_path, monkeypatch):
        from flexlife import design
        from flexlife.dynamics import SimulationError

        simulate = design.simulate

        def failing_thick_wall(d, plan, sim):
            if d.links[0].wall_thickness > 0.003:
                raise SimulationError("integration failed at t=0.125000", 0.125)
            return simulate(d, plan, sim)

        monkeypatch.setattr(design, "simulate", failing_thick_wall)
        cfg = fast_config(tmp_path, **{"sweep.t1_values": [0.001, 0.002, 0.004]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        stats = json.loads((out / "sweep_stats.json").read_text())
        keys = ["nfev", "njev", "nlu", "steps", "presolve_s", "solve_s", "postsolve_s",
                "lifetime_s"]
        assert [c["config"] for c in stats["candidates"]] == [1, 2, 3]
        ran, failed = stats["candidates"][:2], stats["candidates"][2]
        for c in ran:
            assert list(c) == ["config", *keys, "error"]
            assert c["error"] is None
            assert c["nfev"] >= c["steps"] > 0 and c["nlu"] >= c["njev"] > 0
            assert all(c[key] > 0.0 for key in ("presolve_s", "solve_s", "postsolve_s",
                                                "lifetime_s"))
        assert failed["error"].startswith("SimulationError: integration failed")
        assert all(failed[key] is None for key in keys)
        assert stats["totals"] == {**{key: sum(c[key] for c in ran) for key in keys}, "errors": 1}

    def test_sweep_stats_lifetime_only_where_the_stage_ran(self, runner, tmp_path,
                                                          monkeypatch):
        # with --only-pareto-fatigue a candidate off the front has no
        # lifetime stage: its lifetime_s is null and the total skips it
        from flexlife import design

        monkeypatch.setattr(design, "pareto_front", lambda ok: design.ParetoFront((1, 3)))
        cfg = fast_config(tmp_path, **{"sweep.t1_values": [0.001, 0.002, 0.004]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out-dir", str(out),
                                      "--only-pareto-fatigue"])
        assert result.exit_code == 0, result.output
        front = json.loads((out / "pareto.json").read_text())["front"]
        stats = json.loads((out / "sweep_stats.json").read_text())
        assert front == [1, 3]
        for c in stats["candidates"]:
            assert c["error"] is None and c["presolve_s"] > 0.0
            assert (c["lifetime_s"] is not None) == (c["config"] in front)
        lifetimes = [c["lifetime_s"] for c in stats["candidates"] if c["config"] in front]
        assert stats["totals"]["lifetime_s"] == sum(lifetimes)

    def test_empty_grid_is_config_error(self, runner, tmp_path):
        cfg = fast_config(tmp_path, **{"sweep.t1_values": []})
        result = runner.invoke(main, ["sweep", "--config", str(cfg)])
        assert result.exit_code == 2


COUNT_KEYS = ["fatigue.n_angles", "fatigue.n_mean_bins", "fatigue.n_amp_bins", "sweep.jobs"]


@pytest.mark.parametrize("key", COUNT_KEYS)
@pytest.mark.parametrize("value", [0.5, 2.9, 0])
class TestCountKeys:
    """Count settings must be integral and >= 1; int() used to truncate
    0.5 to 0 and 2.9 to 2 without a word."""

    def test_load_config_rejects(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(fast_config(tmp_path, **{key: value}))

    def test_cli_exit_2(self, runner, tmp_path, key, value):
        cfg = fast_config(tmp_path, **{key: value})
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert key in result.output
        assert "Traceback" not in result.output


def _set(path: str, value):
    """Edit of a raw config: set the value at a dotted path whose integer
    parts index lists."""
    def edit(raw):
        *parents, leaf = [int(p) if p.isdigit() else p for p in path.split(".")]
        for p in parents:
            raw = raw[p]
        raw[leaf] = value
    return edit


# (edit of the fast config, key path the error must name); before strict
# reading these ended in a TypeError traceback (null), loaded NaN or a
# string as a boolean, or loaded a wall that no tube section has
BAD_INPUTS = {
    "gravity-null": (_set("robot.gravity.1", None), "robot.gravity[1]"),
    "gravity-nan": (_set("robot.gravity.2", float("nan")), "robot.gravity[2]"),
    "haigh-null": (_set("fatigue.material.haigh", [[0.0, 8e5], [None, 4e5], [8e7, 0.0]]),
                   "fatigue.material.haigh[1][0]"),
    "haigh-nan": (_set("fatigue.material.haigh", [[0.0, 8e5], [float("nan"), 4e5], [8e7, 0.0]]),
                  "fatigue.material.haigh[1][0]"),
    "t1-null": (_set("sweep.t1_values.1", None), "sweep.t1_values[1]"),
    "t1-negative": (_set("sweep.t1_values.0", -0.001), "sweep.t1_values[0]"),
    "feedforward-string": (_set("robot.controller.feedforward", "false"),
                           "robot.controller.feedforward"),
    "include-residue-string": (_set("fatigue.include_residue", "false"),
                               "fatigue.include_residue"),
    "output-dir-number": (_set("output_dir", 5), "output_dir"),
    "link-wall-too-thick": (_set("robot.links.1.wall_thickness", 0.0175),
                            "robot.links[1].wall_thickness"),
    "grid-walls-too-thick": (_set("sweep.t2_values", [0.02]), "sweep.t2_values[0]"),
    "reference-too-thick": (_set("sweep.reference.1", 0.018), "sweep.reference[1]"),
    # counts once loaded unbounded: 1e300 modes ended in an OverflowError
    # traceback, 11 modes loaded a basis whose quadrature Gram drifts
    "modes-11": (_set("robot.links.0.modes", [11, 2, 1]), "robot.links[0].modes"),
    "modes-1e300": (_set("robot.links.1.modes", [2, 1e300, 1]), "robot.links[1].modes"),
    # the fatigue counts are range checked with the rest of SweepSettings;
    # 1e300 once failed only after every candidate had been simulated
    "n-angles-1e300": (_set("fatigue.n_angles", 1e300), "fatigue"),
    "n-mean-bins-1e300": (_set("fatigue.n_mean_bins", 1e300), "fatigue"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_value_names_key_path_exit_2(runner, tmp_path, name):
    edit, key_path = BAD_INPUTS[name]
    p = fast_config(tmp_path)
    raw = json.loads(p.read_text())
    edit(raw)
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value).startswith(key_path + ":")
    for command in ("simulate", "sweep"):
        result = runner.invoke(main, [command, "--config", str(p),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert key_path in result.output
        assert "Traceback" not in result.output


def test_integral_float_counts_load(tmp_path):
    cfg = load_config(fast_config(tmp_path, **{"fatigue.n_angles": 73.0, "sweep.jobs": 2.0}))
    assert cfg.n_angles == 73 and isinstance(cfg.n_angles, int)
    assert cfg.jobs == 2 and isinstance(cfg.jobs, int)
