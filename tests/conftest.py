import importlib.util
import json
import sys
from pathlib import Path

import pytest

from flexlife.beam import Material
from flexlife.dynamics import ControllerGains, DriveParams, LinkParams, RobotDesign, SimSettings
from flexlife.trajectory import JointLimits, plan_joint_move

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO_ROOT / "configs" / "demo.json"
MM = 1e-3


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, loaded from its file (perfbench/ is only read)."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.fixture(scope="session")
def steel():
    return Material(rho=7850.0, E=2.1e11, nu=0.3)


@pytest.fixture(scope="session")
def small_design(steel):
    """Single-mode damped arm used by the fast dynamics tests; the
    conservation checks strip the damping explicitly."""
    return RobotDesign(
        material=steel,
        edge_length=0.035,
        links=(
            LinkParams(length=0.6, wall_thickness=0.004, n_v=1, n_w=1, n_theta=1,
                       damping_beta=1e-4),
            LinkParams(length=0.5, wall_thickness=0.004, n_v=1, n_w=1, n_theta=1,
                       damping_beta=1e-4),
        ),
        drives=(
            DriveParams(5e-5, 100.0, 1.5e4, 8.0, 400.0),
            DriveParams(5e-5, 100.0, 1.2e4, 6.0, 400.0),
            DriveParams(3e-5, 100.0, 8.0e3, 4.0, 200.0),
        ),
        hub1_inertia=0.15,
        hub2_mass=3.5,
        hub2_inertia=0.02,
        payload_mass=4.0,
    )


@pytest.fixture(scope="session")
def demo_gains():
    return ControllerGains(
        kp_pos=(12.0, 12.0, 12.0),
        kp_vel=(300.0, 300.0, 150.0),
        ki_vel=(1500.0, 1500.0, 800.0),
    )


@pytest.fixture(scope="session")
def fast_sim(demo_gains):
    """Loosened integrator settings for pipeline tests."""
    return SimSettings(
        rtol=1e-5, atol=1e-8, t_settle=0.15, sample_rate=500.0, gains=demo_gains
    )


@pytest.fixture(scope="session")
def short_plan():
    lims = [JointLimits(4.0, 20.0, 150.0)] * 3
    return plan_joint_move([-0.2, 0.6, -1.6], [0.2, 0.8, -1.3], lims)


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
    return _write_config(tmp_path, cfg, overrides)


def demo_config(tmp_path: Path, **overrides) -> Path:
    """configs/demo.json with overrides by dotted key, as fast_config."""
    return _write_config(tmp_path, json.loads(DEMO_CONFIG.read_text()), overrides)


def _write_config(tmp_path: Path, cfg: dict, overrides: dict) -> Path:
    for key, value in overrides.items():
        node = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path
