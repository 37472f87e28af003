"""Start-up guard: only a process that integrates imports scipy, and it
imports little of it.

Every other path (the CLI module, loading a config, planning, and the
fatigue, rainflow and pareto commands) needs numpy and click only. A
simulation needs two compiled scipy modules, VODE and LAPACK, which
``dynamics`` loads without the ``scipy.integrate`` and ``scipy.linalg``
packages: those would add some 600 modules, about 50 MB of memory and
0.4 s of start-up to every simulating process. The checks run in fresh
interpreters, because this test process has imported scipy already.
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

# simulate, with argv[3] == "preload" after something else has imported
# both scipy packages; whether the loader took the compiled modules from
# sys.modules
PRELOADED_SCRIPT = """
import json, sys

if sys.argv[3] == "preload":
    import scipy.integrate, scipy.linalg

from flexlife import dynamics
from flexlife.cli import main

main(["simulate", "--config", sys.argv[1], "--out-dir", sys.argv[2]], standalone_mode=False)
print(json.dumps([
    dynamics._scipy_extension(name) is sys.modules.get("scipy." + name)
    for name in ("integrate._vode", "linalg._flapack")
]))
"""

# scipy packages a simulating process must not load, whole or in part
UNWANTED = ("scipy.integrate", "scipy.linalg")
UNWANTED_FAMILIES = ("scipy.optimize", "scipy.sparse", "scipy.special")


def run_fresh(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_when_simulating(tmp_path):
    (tmp_path / "stress.csv").write_text(
        "t,sigma_xx,sigma_xy\n0.0,1e8,0.0\n0.1,-1e8,2e7\n0.2,1e8,0.0\n"
    )
    (tmp_path / "series.csv").write_text("t,sigma\n0,-2.0\n1,1.0\n2,-3.0\n3,5.0\n")
    (tmp_path / "points.csv").write_text("config,jm,jvib\n1,0.0,2.0\n2,1.0,1.0\n3,2.0,3.0\n")
    material = DEMO_CONFIG.parent / "fatigue_material.json"
    cfg = fast_config(tmp_path)
    loaded = run_fresh(SCRIPT, DEMO_CONFIG, material, tmp_path, cfg)
    assert loaded["before_simulate"] == []
    after = loaded["after_simulate"]
    assert "scipy" in after
    for package in UNWANTED:
        assert package not in after
    assert [m for m in after if m.startswith(UNWANTED_FAMILIES)] == []
    assert (tmp_path / "damage_report.json").exists()
    assert (tmp_path / "rainflow_matrix.csv").exists()
    assert json.loads((tmp_path / "pareto.json").read_text())["front"] == [1, 2]
    assert (tmp_path / "sim" / "history.csv").exists()


def test_simulate_after_scipy_packages_gives_same_bits(tmp_path):
    cfg = fast_config(tmp_path)
    run_fresh(PRELOADED_SCRIPT, cfg, tmp_path / "alone", "alone")
    assert run_fresh(PRELOADED_SCRIPT, cfg, tmp_path / "preloaded", "preload") == [True, True]
    for name in ("history.csv", "stress_link1.csv", "stress_link2.csv"):
        alone = (tmp_path / "alone" / name).read_bytes()
        assert alone == (tmp_path / "preloaded" / name).read_bytes(), name
