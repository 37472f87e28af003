"""Start-up guard: only a process that integrates imports scipy.

Every other path (the CLI module, loading a config, planning, and the
fatigue, rainflow and pareto commands) needs numpy and click only, and
scipy.integrate alone costs about half a second of interpreter start-up.
The check runs in a fresh interpreter, because this test process has
imported scipy already.
"""

import json
import os
import subprocess
import sys

from tests.conftest import DEMO_CONFIG, REPO_ROOT, fast_config

SCRIPT = """
import json, sys

from flexlife.cli import main
from flexlife.config import load_config
from flexlife.trajectory import plan_joint_move

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cfg = load_config(sys.argv[1])
plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
tmp = sys.argv[3]
for args in (
    ["fatigue", tmp + "/stress.csv", sys.argv[2], "--angles", "5", "--out-dir", tmp],
    ["rainflow", tmp + "/series.csv", "--out-dir", tmp],
    ["pareto", tmp + "/points.csv", "--out", tmp + "/pareto.json"],
):
    main(args, standalone_mode=False)
before = scipy_modules()
main(["simulate", "--config", sys.argv[4], "--out-dir", tmp + "/sim"], standalone_mode=False)
print(json.dumps({"before_simulate": before, "after_simulate": scipy_modules()}))
"""


def test_scipy_loads_only_when_simulating(tmp_path):
    (tmp_path / "stress.csv").write_text(
        "t,sigma_xx,sigma_xy\n0.0,1e8,0.0\n0.1,-1e8,2e7\n0.2,1e8,0.0\n"
    )
    (tmp_path / "series.csv").write_text("t,sigma\n0,-2.0\n1,1.0\n2,-3.0\n3,5.0\n")
    (tmp_path / "points.csv").write_text("config,jm,jvib\n1,0.0,2.0\n2,1.0,1.0\n3,2.0,3.0\n")
    material = DEMO_CONFIG.parent / "fatigue_material.json"
    cfg = fast_config(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(DEMO_CONFIG), str(material), str(tmp_path), str(cfg)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["before_simulate"] == []
    assert "scipy.integrate" in loaded["after_simulate"]
    assert (tmp_path / "damage_report.json").exists()
    assert (tmp_path / "rainflow_matrix.csv").exists()
    assert json.loads((tmp_path / "pareto.json").read_text())["front"] == [1, 2]
    assert (tmp_path / "sim" / "history.csv").exists()
