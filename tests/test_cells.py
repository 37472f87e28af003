"""All 36 cells of the demo thickness grid, evaluated by run_sweep on
perfbench/demo.json (the grid of configs/demo.json) with two workers,
still match perfbench/reference.json. The benchmark runner checks one
seed-chosen cell per operation; this checks every cell with the Tier-1
suite, so a change of the ODE right-hand side that moves any cell out of
the reference fails here. perfbench/ is only read."""

import math

import pytest

from flexlife import config, design
from flexlife.trajectory import plan_joint_move


@pytest.fixture(scope="module")
def outcome(workloads):
    cfg = config.load_config(workloads.BASE_CONFIG)
    plan = plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
    return design.run_sweep(cfg.grid, cfg.design, plan, cfg.sweep_settings(jobs=2))


def test_every_cell_ran(workloads, outcome):
    assert workloads.demo_cells() == 36
    assert [r.config for r in outcome.results] == list(range(1, 37))
    assert not outcome.failures


@pytest.mark.parametrize("cell", range(1, 37))
def test_cell_matches_reference(workloads, outcome, cell):
    res = outcome.results[cell - 1]
    inputs = workloads.Inputs(workload="candidate", seed=-1, config_path=workloads.BASE_CONFIG,
                              cell=cell)
    outputs = {"j_vib": res.j_vib, "d_max": res.d_max,
               "finite_life": math.isfinite(res.t_life_seconds)}
    # J_vib to 1e-5 and D_max to 1e-4 (relative), the verdict exactly
    assert workloads.check(inputs, outputs, workloads.load_reference()) == []
