import dataclasses
import math

import numpy as np
import pytest

from flexlife import design as dsg
from flexlife import dynamics as dyn
from flexlife.beam import quadrature
from flexlife.fatigue import FatigueMaterial

# Pareto-diagram coordinates of the 36 candidates (mass reduction %, max
# end-effector oscillation m), configurations 1..36
PARETO_POINTS = [
    (-72.5806, 0.0263), (-59.6774, 0.0158), (-47.8506, 0.0119), (-36.2903, 0.0108),
    (-25.8065, 0.0096), (-16.1290, 0.0088), (-59.6774, 0.0284), (-46.7742, 0.0172),
    (-34.6774, 0.0124), (-23.3871, 0.0111), (-12.9032, 0.0100), (-3.2258, 0.0092),
    (-47.5806, 0.0306), (-34.6774, 0.0196), (-22.5806, 0.0134), (-11.2903, 0.0110),
    (-0.8065, 0.0100), (8.8710, 0.0093), (-36.2903, 0.0327), (-23.3871, 0.0200),
    (-11.2903, 0.0158), (0.0, 0.0116), (10.4839, 0.0106), (20.1613, 0.0099),
    (-25.8065, 0.0360), (-12.9032, 0.0205), (-0.8065, 0.0173), (10.4839, 0.0129),
    (20.9677, 0.0109), (30.6452, 0.0103), (-16.1290, 0.0431), (-3.2258, 0.0223),
    (8.8710, 0.0156), (20.1613, 0.0144), (30.6452, 0.0125), (40.3226, 0.0114),
]

MM = 1e-3


@pytest.fixture(scope="module")
def grid6():
    vals = tuple(k * MM for k in range(1, 7))
    return dsg.CandidateGrid(t1_values=vals, t2_values=vals)


def results_from_points(points):
    return [
        dsg.CandidateResult(config=i + 1, t1=0.0, t2=0.0, j_mass=jm, j_vib=jv)
        for i, (jm, jv) in enumerate(points)
    ]


def brute_force_front(points):
    ids = []
    for i, (jm_i, jv_i) in enumerate(points):
        dominated = any(
            (jm_j <= jm_i and jv_j <= jv_i and (jm_j < jm_i or jv_j < jv_i))
            for j, (jm_j, jv_j) in enumerate(points)
            if j != i
        )
        if not dominated:
            ids.append(i + 1)
    return tuple(ids)


class TestCandidateGrid:
    def test_config_numbering(self, grid6):
        assert grid6.config_id(0, 0) == 1
        assert grid6.config_id(3, 3) == 22  # the reference design
        assert grid6.config_id(5, 5) == 36
        cands = list(grid6.candidates())
        assert [c[0] for c in cands] == list(range(1, 37))
        assert cands[0][1:] == (1 * MM, 1 * MM)
        assert cands[6][1:] == (1 * MM, 2 * MM)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            dsg.CandidateGrid(t1_values=(), t2_values=(1 * MM,))

    @pytest.mark.parametrize("t", [0.0, -1 * MM])
    def test_nonpositive_thickness_rejected(self, t):
        with pytest.raises(ValueError, match="t2_values must be positive"):
            dsg.CandidateGrid(t1_values=(1 * MM,), t2_values=(2 * MM, t))

    @pytest.mark.parametrize("values", [(math.nan,), (math.inf,), (2 * MM, math.nan)])
    def test_non_finite_thickness_rejected(self, values):
        with pytest.raises(ValueError, match="t1_values must be positive and finite"):
            dsg.CandidateGrid(t1_values=values, t2_values=(1 * MM,))


class TestMassCriterion:
    def test_reference_is_zero(self, small_design):
        assert dsg.mass_criterion(small_design, small_design) == 0.0

    def test_thin_wall_fraction(self, small_design):
        ref = small_design.with_thicknesses(4 * MM, 4 * MM)
        thin = small_design.with_thicknesses(1 * MM, 1 * MM)
        assert dsg.mass_criterion(thin, ref) == pytest.approx(136.0 / 496.0 - 1.0, abs=1e-12)

    def test_mixed_thickness_fraction(self, small_design):
        # equal link lengths so the area ratio is exact
        links = (
            dataclasses.replace(small_design.links[0], length=0.5),
            dataclasses.replace(small_design.links[1], length=0.5),
        )
        base = dataclasses.replace(small_design, links=links)
        ref = base.with_thicknesses(4 * MM, 4 * MM)
        mixed = base.with_thicknesses(1 * MM, 2 * MM)
        assert dsg.mass_criterion(mixed, ref) == pytest.approx((136.0 + 264.0) / 992.0 - 1.0,
                                                               abs=1e-12)

    def test_all_36_points_match_closed_form(self, small_design, grid6):
        # equal lengths: J_m reduces to (A(t1)+A(t2))/2A(t_ref) - 1
        links = (
            dataclasses.replace(small_design.links[0], length=0.5),
            dataclasses.replace(small_design.links[1], length=0.5),
        )
        base = dataclasses.replace(small_design, links=links)
        ref = base.with_thicknesses(4 * MM, 4 * MM)

        def area(t_mm):
            return 35.0**2 - (35.0 - 2.0 * t_mm) ** 2

        for config, t1, t2 in grid6.candidates():
            jm = dsg.mass_criterion(base.with_thicknesses(t1, t2), ref)
            expected = (area(t1 / MM) + area(t2 / MM)) / (2.0 * area(4.0)) - 1.0
            assert jm == pytest.approx(expected, abs=1e-12), config

    def test_mass_integral_consistency(self, small_design):
        # closed-form areas against the quadrature beam mass
        design = small_design.with_thicknesses(2 * MM, 5 * MM)

        def beam_mass_integral(d):
            total = 0.0
            for k in range(2):
                spec = d.beam_spec(k)
                _, w = quadrature(spec)
                total += spec.material.rho * spec.section.A_B * w.sum()
            return total

        ref = small_design.with_thicknesses(4 * MM, 4 * MM)
        jm_closed = dsg.mass_criterion(design, ref)
        jm_integral = beam_mass_integral(design) / beam_mass_integral(ref) - 1.0
        assert jm_closed == pytest.approx(jm_integral, rel=1e-12)

    def test_mismatched_geometry_rejected(self, small_design):
        other = dataclasses.replace(small_design, edge_length=0.04)
        with pytest.raises(ValueError):
            dsg.mass_criterion(small_design, other)


class TestVibrationCriterion:
    def _result(self, times, dr, t_task=0.5):
        n = times.size
        zeros = np.zeros((n, 3))
        return dyn.SimulationResult(
            times=times, q=np.zeros((n, 12)), qd=np.zeros((n, 12)), kappa1=zeros,
            kappa2=zeros, dr_ee=dr, t_task=t_task, t_settle=0.5,
        )

    def test_zero_deviation(self):
        t = np.linspace(0.0, 1.0, 101)
        res = self._result(t, np.zeros((101, 3)))
        assert dsg.vibration_criterion(res) == 0.0

    def test_norm_homogeneity(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 101)
        dr = rng.normal(size=(101, 3))
        r1 = dsg.vibration_criterion(self._result(t, dr))
        r2 = dsg.vibration_criterion(self._result(t, 2.0 * dr))
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14)

    def test_window_restricts_samples(self):
        t = np.linspace(0.0, 1.0, 101)
        dr = np.zeros((101, 3))
        dr[10, 0] = 5.0  # inside the motion phase, outside the settling window
        assert dsg.vibration_criterion(self._result(t, dr)) == 0.0
        dr[50, 1] = 3.0  # the sample at t_task opens the window
        dr[100, 2] = -2.0  # and the last sample closes it
        assert dsg.vibration_criterion(self._result(t, dr)) == 3.0
        assert dsg.vibration_criterion(self._result(t, dr, t_task=0.9)) == 2.0

    def test_empty_window_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        res = self._result(t, np.zeros((11, 3)), t_task=2.0)  # task outlasts the samples
        with pytest.raises(ValueError, match="t_task"):
            dsg.vibration_criterion(res)


class TestParetoFront:
    def test_paper_points_front(self):
        front = dsg.pareto_front(results_from_points(PARETO_POINTS))
        assert front.ids == (1, 2, 3, 4, 5, 6)

    def test_single_candidate(self):
        front = dsg.pareto_front(results_from_points([(1.0, 1.0)]))
        assert front.ids == (1,)

    def test_strict_dominance(self):
        front = dsg.pareto_front(results_from_points([(0.0, 0.0), (1.0, 1.0)]))
        assert front.ids == (1,)

    def test_ties_both_kept(self):
        front = dsg.pareto_front(results_from_points([(1.0, 2.0), (1.0, 2.0), (2.0, 2.0)]))
        assert front.ids == (1, 2)

    def test_weak_dominance_drops_equal_one_worse_other(self):
        front = dsg.pareto_front(results_from_points([(1.0, 2.0), (1.0, 3.0), (0.5, 9.0)]))
        assert front.ids == (1, 3)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            pts = list(zip(rng.normal(size=n), rng.normal(size=n)))
            # occasional exact duplicates to exercise the tie rule
            if n > 10:
                pts[3] = pts[7]
            front = dsg.pareto_front(results_from_points(pts))
            assert front.ids == brute_force_front(pts), trial

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dsg.pareto_front(results_from_points([(np.nan, 1.0)]))


@pytest.fixture(scope="module")
def sweep_settings(fast_sim):
    return dsg.SweepSettings(
        sim=fast_sim,
        fatigue_material=FatigueMaterial(yield_strength=8e7, fatigue_strength=8e5),
        reference=(4 * MM, 4 * MM),
        n_angles=19,
        n_mean_bins=16,
        n_amp_bins=16,
        jobs=1,
    )


@pytest.mark.parametrize("name, most", [
    ("n_angles", 3601), ("n_mean_bins", 1000), ("n_amp_bins", 1000),
])
def test_settings_count_bounds(sweep_settings, name, most):
    assert getattr(dataclasses.replace(sweep_settings, **{name: most}), name) == most
    for bad in (0, most + 1):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(sweep_settings, **{name: bad})


def test_settings_hysteresis_gate(sweep_settings):
    for good in (0.0, 2e6, np.inf):
        assert dataclasses.replace(sweep_settings, hysteresis_gate=good).hysteresis_gate == good
    # a NaN gate was once accepted and then worked as no gate
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="hysteresis_gate must be >= 0"):
            dataclasses.replace(sweep_settings, hysteresis_gate=bad)


class TestRunSweep:
    def test_reference_only_grid(self, small_design, short_plan, sweep_settings):
        grid = dsg.CandidateGrid(t1_values=(4 * MM,), t2_values=(4 * MM,))
        outcome = dsg.run_sweep(grid, small_design, short_plan, sweep_settings)
        assert len(outcome.results) == 1
        res = outcome.results[0]
        assert res.j_mass == 0.0
        assert res.error is None
        assert res.d_max is not None
        assert outcome.front.ids == (1,)

    def test_criterion_error_keeps_simulation_stats(
        self, small_design, short_plan, sweep_settings, monkeypatch
    ):
        def no_samples(result):
            raise ValueError("no samples")

        monkeypatch.setattr(dsg, "vibration_criterion", no_samples)
        grid = dsg.CandidateGrid(t1_values=(4 * MM,), t2_values=(4 * MM,))
        res = dsg.run_sweep(grid, small_design, short_plan, sweep_settings).results[0]
        assert res.error == "ValueError: no samples"
        assert list(res.stats) == list(dsg.SIM_STATS)

    def test_lifetime_consistency_and_failure_recording(
        self, small_design, short_plan, sweep_settings
    ):
        # a 20 mm wall is geometrically invalid (2t >= a) and must be
        # recorded as a failure without aborting the sweep
        grid = dsg.CandidateGrid(t1_values=(1 * MM, 20 * MM), t2_values=(2 * MM,))
        outcome = dsg.run_sweep(grid, small_design, short_plan, sweep_settings)
        assert len(outcome.results) == 2
        ok = outcome.results[0]
        bad = outcome.results[1]
        assert ok.error is None
        assert bad.error is not None and not math.isfinite(bad.j_vib)
        if ok.d_max and ok.d_max > 0.0:
            assert ok.t_life_seconds * ok.d_max == pytest.approx(
                short_plan.t_task, rel=1e-12
            )

    def test_all_failed_ranks_nothing(self, small_design, short_plan, sweep_settings):
        # 20 and 25 mm walls are geometrically invalid (2t >= a): the outcome
        # has an empty front and every candidate's error, for the caller to
        # record before it reports the failure
        grid = dsg.CandidateGrid(t1_values=(20 * MM, 25 * MM), t2_values=(2 * MM,))
        outcome = dsg.run_sweep(grid, small_design, short_plan, sweep_settings)
        assert outcome.front.ids == ()
        assert outcome.failures == outcome.results and len(outcome.results) == 2
        assert all(r.error.startswith("ValueError: ") for r in outcome.results)

    def test_programming_error_propagates(
        self, small_design, short_plan, sweep_settings, monkeypatch
    ):
        # only numerical failures are recorded per candidate; a bug is not
        def broken(*args, **kwargs):
            raise TypeError("bug in the simulation code")

        monkeypatch.setattr(dsg, "simulate", broken)
        grid = dsg.CandidateGrid(t1_values=(4 * MM,), t2_values=(4 * MM,))
        with pytest.raises(TypeError, match="bug in the simulation code"):
            dsg.run_sweep(grid, small_design, short_plan, sweep_settings)

    def test_pool_never_larger_than_the_grid(
        self, small_design, short_plan, sweep_settings, monkeypatch
    ):
        # a fork pool starts all max_workers processes at the first submit;
        # this executor starts none and runs the candidates in-process
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        grid = dsg.CandidateGrid(t1_values=(1 * MM, 4 * MM), t2_values=(4 * MM,))
        settings = dataclasses.replace(sweep_settings, jobs=10**6)
        outcome = dsg.run_sweep(grid, small_design, short_plan, settings)
        assert sizes == [2]
        assert [r.error for r in outcome.results] == [None, None]

    def test_thinner_first_link_does_not_lower_root_stress(
        self, small_design, short_plan, fast_sim
    ):
        # same trajectory, t2 fixed: decreasing t1 must not decrease the
        # peak bending stress at the link-1 root
        peaks = []
        for t1 in (4 * MM, 3 * MM, 2 * MM):
            design = small_design.with_thicknesses(t1, 4 * MM)
            result = dyn.simulate(design, short_plan, fast_sim)
            h1, _ = dsg.link_stress_histories(design, result)
            peaks.append(np.abs(h1.sigma_xx).max())
        assert peaks[0] <= peaks[1] * (1.0 + 1e-9) <= peaks[2] * (1.0 + 2e-9)

    def test_rigid_limit_vibration_criterion(self, small_design, short_plan, fast_sim):
        # E and gear stiffness scaled by 1e6 (gear damping scaled to keep the
        # modal damping ratio): the residual oscillation must vanish
        stiff_material = dataclasses.replace(small_design.material, E=2.1e11 * 1e6)
        stiff_drives = tuple(
            dataclasses.replace(d, stiffness=d.stiffness * 1e6, damping=d.damping * 1e3)
            for d in small_design.drives
        )
        design = dataclasses.replace(small_design, material=stiff_material, drives=stiff_drives)
        result = dyn.simulate(design, short_plan, fast_sim)
        assert dsg.vibration_criterion(result) < 1e-6
