"""The eight synthetic stress records of the fatigue_history benchmark
workload, regenerated with perfbench/workloads.py and scored by
critical_plane_lifetime with the demo fatigue settings, still match
perfbench/reference.json. The benchmark runner makes the same check; this
one runs with the Tier-1 suite. perfbench/ is only read."""

import hashlib

import numpy as np
import pytest

from flexlife import config, fatigue
from flexlife.stress import StressHistory


@pytest.mark.parametrize("variant", range(8))
def test_record_matches_reference(workloads, variant):
    assert workloads.RECORD_VARIANTS == 8
    want = workloads.load_reference()["records"][str(variant)]
    t, sxx, sxy = workloads.make_record(variant)
    # the digest write_record stores: the record is the one the reference scored
    assert hashlib.sha256(np.stack([t, sxx, sxy]).tobytes()).hexdigest() == want["sha256"]
    # write_record's %.17g CSV reads back bit for bit, so the arrays stand in for it
    cfg = config.load_config(workloads.BASE_CONFIG)
    report = fatigue.critical_plane_lifetime(
        StressHistory(t, sxx, sxy),
        fatigue.angle_grid(cfg.n_angles),
        cfg.fatigue_material,
        workloads.RECORD_T_TASK,
        n_mean_bins=cfg.n_mean_bins,
        n_amp_bins=cfg.n_amp_bins,
        hysteresis_gate=cfg.hysteresis_gate,
        include_residue=cfg.include_residue,
    )
    rtol = workloads.TOLERANCE["record_d_max"]  # 1e-9
    assert report.d_max == pytest.approx(want["d_max"], rel=rtol, abs=0.0)
    assert report.phi_critical == want["phi_critical"]
    assert report.finite_life == want["finite_life"]
