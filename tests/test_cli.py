import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from flexlife.cli import main
from flexlife.config import ConfigError, load_config
from tests.conftest import DEMO_CONFIG

MM = 1e-3


@pytest.fixture
def runner():
    return CliRunner()


def fast_config(tmp_path: Path, **overrides) -> Path:
    """Demo config tuned down for test speed."""
    cfg = json.loads(DEMO_CONFIG.read_text())
    cfg["robot"]["links"][0]["modes"] = [1, 1, 1]
    cfg["robot"]["links"][1]["modes"] = [1, 1, 1]
    cfg["trajectory"]["q_pick"] = [-0.2, 0.6, -1.6]
    cfg["trajectory"]["q_place"] = [0.2, 0.8, -1.3]
    cfg["simulation"].update({"rtol": 1e-5, "atol": 1e-8, "t_settle": 0.15,
                              "sample_rate": 500.0})
    cfg["fatigue"]["n_angles"] = 19
    cfg["fatigue"]["material"]["fatigue_strength"] = 8e5
    cfg["sweep"]["t1_values"] = [1 * MM, 4 * MM]
    cfg["sweep"]["t2_values"] = [4 * MM]
    for key, value in overrides.items():
        node = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


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
]


@pytest.mark.parametrize(
    "command,option,value",
    OUT_OF_RANGE_OPTIONS,
    ids=[f"{c}-{o}" + ("" if v == "0" else v) for c, o, v in OUT_OF_RANGE_OPTIONS],
)
def test_count_option_below_one_exit_2(runner, tmp_path, command, option, value):
    """Counts below one, a negative gate, --jobs below one and a cap that is
    not positive exit 2 with click's usage message, as the same values do
    in the config file."""
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

    def test_blank_sample_exit_2(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("t,sigma\n0,-2.0\n1,1.0\n2,\n3,5.0\n4,-1.0\n")
        result = runner.invoke(main, ["rainflow", str(series), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "non-finite" in result.output
        assert not (tmp_path / "rainflow_matrix.csv").exists()


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


def test_integral_float_counts_load(tmp_path):
    cfg = load_config(fast_config(tmp_path, **{"fatigue.n_angles": 73.0, "sweep.jobs": 2.0}))
    assert cfg.n_angles == 73 and isinstance(cfg.n_angles, int)
    assert cfg.jobs == 2 and isinstance(cfg.jobs, int)
