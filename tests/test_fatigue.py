import math

import numpy as np
import pytest

from flexlife import config
from flexlife import fatigue as fat
from flexlife import rainflow as rfc
from flexlife.stress import StressHistory, tresca_history
from tests.test_rainflow import former_alternating, searchsorted_bin_cycles

MPA = 1e6


@pytest.fixture
def material():
    return fat.FatigueMaterial(yield_strength=300.0 * MPA, fatigue_strength=100.0 * MPA)


def alternating_history(amplitude, n_cycles, mean=0.0):
    """Extrema-level history with exactly n_cycles full reversals."""
    vals = np.empty(2 * n_cycles + 1)
    vals[0::2] = mean + amplitude
    vals[1::2] = mean - amplitude
    return StressHistory(
        times=np.arange(vals.size, dtype=float), sigma_xx=vals, sigma_xy=np.zeros(vals.size)
    )


def direct_damage(sigma, mat, n_mean=32, n_amp=32):
    """Rainflow + Miner of a scalar history, bypassing the angle scan."""
    series = rfc.extract_extrema(np.arange(float(sigma.size)), sigma)
    cycles = rfc.count_cycles(series)
    return fat.accumulate(rfc.bin_cycles(cycles, n_mean, n_amp), mat)


def every_plane_damage(history, angles, mat, gate=0.0, include_residue=True):
    """Per-plane damage of the loop that counts every plane on its own,
    as critical_plane_lifetime did before it paired planes pi/2 apart;
    the oracle of TestPlanePairing."""
    damage = np.empty(len(angles))
    for k, phi in enumerate(angles):
        series = rfc.extract_extrema(history.times, tresca_history(history, phi), gate)
        cycles = rfc.count_cycles(series, include_residue=include_residue)
        damage[k] = fat.accumulate(rfc.bin_cycles(cycles, 32, 32), mat)
    return damage


def biaxial_history(seed, n=1500):
    """Wrapped random walks in both components: damage on most planes."""
    rng = np.random.default_rng(seed)
    sxx = rng.normal(0.0, 60.0 * MPA, n).cumsum() % (400.0 * MPA) - 150.0 * MPA
    sxy = rng.normal(0.0, 30.0 * MPA, n).cumsum() % (200.0 * MPA) - 100.0 * MPA
    return StressHistory(np.arange(float(n)), sxx, sxy)


class TestHaigh:
    def test_polyline_endpoints(self, material):
        assert fat.haigh_fatigue_strength(material, 0.0) == 100.0 * MPA
        assert fat.haigh_fatigue_strength(material, 300.0 * MPA) == 0.0

    def test_linear_interpolation_midpoint(self):
        mat = fat.FatigueMaterial(
            yield_strength=300.0 * MPA,
            fatigue_strength=100.0 * MPA,
            haigh=((0.0, 100.0 * MPA), (100.0 * MPA, 80.0 * MPA), (300.0 * MPA, 0.0)),
        )
        assert fat.haigh_fatigue_strength(mat, 50.0 * MPA) == pytest.approx(90.0 * MPA)

    def test_negative_mean_clamps(self, material):
        assert fat.haigh_fatigue_strength(material, -50.0 * MPA) == 100.0 * MPA

    def test_beyond_yield_gives_zero(self, material):
        assert fat.haigh_fatigue_strength(material, 400.0 * MPA) == 0.0

    def test_polyline_validation(self):
        with pytest.raises(ValueError):
            fat.FatigueMaterial(
                yield_strength=300.0 * MPA,
                fatigue_strength=100.0 * MPA,
                haigh=((0.0, 100.0 * MPA), (50.0 * MPA, 120.0 * MPA), (300.0 * MPA, 0.0)),
            )
        with pytest.raises(ValueError):
            fat.FatigueMaterial(yield_strength=100.0 * MPA, fatigue_strength=100.0 * MPA)

    @pytest.mark.parametrize("change", [
        {"n_hcf": math.inf},
        {"yield_strength": math.inf},
        {"haigh": ((0.0, 100.0 * MPA), (math.nan, 80.0 * MPA), (300.0 * MPA, 0.0))},
        {"haigh": ((0.0, 100.0 * MPA), (100.0 * MPA, math.nan), (300.0 * MPA, 0.0))},
    ], ids=["n_hcf-inf", "yield-inf", "haigh-mean-nan", "haigh-amplitude-nan"])
    def test_non_finite_rejected(self, change):
        with pytest.raises(ValueError):
            fat.FatigueMaterial(**{"yield_strength": 300.0 * MPA,
                                   "fatigue_strength": 100.0 * MPA, **change})


class TestWoehler:
    def test_low_cycle_anchor_exact(self, material):
        assert fat.woehler_cycles(material, 300.0 * MPA, 100.0 * MPA) == 2.0e4

    def test_high_cycle_anchor_exact(self, material):
        assert fat.woehler_cycles(material, 100.0 * MPA, 100.0 * MPA) == 2.0e6

    def test_geometric_midpoint(self, material):
        mid = math.sqrt(300.0 * MPA * 100.0 * MPA)
        assert fat.woehler_cycles(material, mid, 100.0 * MPA) == pytest.approx(2.0e5, rel=1e-9)

    def test_below_fatigue_limit_is_infinite(self, material):
        assert math.isinf(fat.woehler_cycles(material, 99.0 * MPA, 100.0 * MPA))

    def test_monotone_decreasing_in_amplitude(self, material):
        amps = np.linspace(100.0 * MPA, 300.0 * MPA, 40)
        lives = [fat.woehler_cycles(material, a, 100.0 * MPA) for a in amps]
        assert all(b <= a for a, b in zip(lives, lives[1:]))

    def test_degenerate_allowable_rejected(self, material):
        with pytest.raises(ValueError):
            fat.woehler_cycles(material, 100.0 * MPA, 0.0)


class TestDamage:
    def test_accumulate_bin_damage_is_count_over_life(self, material):
        amp = 200.0 * MPA
        cycles = rfc.CycleSet(
            mean=np.array([0.0]), amplitude=np.array([amp]), weight=np.array([1.0])
        )
        matrix = rfc.bin_cycles(cycles, 1, 1)
        matrix.counts[0, 0] = 10.0
        n_allowed = fat.woehler_cycles(material, amp, 100.0 * MPA)
        assert fat.accumulate(matrix, material) == 10.0 / n_allowed

    def test_accumulate_below_fatigue_strength_is_zero(self, material):
        cycles = rfc.CycleSet(
            mean=np.array([0.0, 10.0 * MPA]),
            amplitude=np.array([60.0 * MPA, 99.0 * MPA]),
            weight=np.array([1.0, 0.5]),
        )
        assert fat.accumulate(rfc.bin_cycles(cycles, 4, 4), material) == 0.0

    def test_accumulate_skips_empty_bins(self, material):
        cycles = rfc.CycleSet(
            mean=np.array([0.0]), amplitude=np.array([250.0 * MPA]), weight=np.array([1.0])
        )
        matrix = rfc.bin_cycles(cycles, 2, 2)
        assert fat.accumulate(matrix, material) > 0.0
        matrix.counts[:] = 0.0
        assert fat.accumulate(matrix, material) == 0.0

    def test_accumulate_empty_matrix(self, material):
        cycles = rfc.CycleSet(mean=np.array([]), amplitude=np.array([]), weight=np.array([]))
        assert fat.accumulate(rfc.bin_cycles(cycles, 4, 4), material) == 0.0

    def test_accumulate_miner_closure(self, material):
        # one bin holding exactly the allowable cycle count gives D = 1
        amp = math.sqrt(300.0 * MPA * 100.0 * MPA)
        n_allowed = fat.woehler_cycles(material, amp, 100.0 * MPA)
        cycles = rfc.CycleSet(
            mean=np.array([0.0]), amplitude=np.array([amp]), weight=np.array([1.0])
        )
        matrix = rfc.bin_cycles(cycles, 8, 8)
        matrix.counts[matrix.counts > 0] = n_allowed
        assert fat.accumulate(matrix, material) == pytest.approx(1.0, rel=1e-9)

    def test_split_bin_leaves_damage_unchanged(self, material):
        amp = 200.0 * MPA
        one = rfc.CycleSet(mean=np.array([0.0]), amplitude=np.array([amp]), weight=np.array([1.0]))
        two = rfc.CycleSet(
            mean=np.array([0.0, 0.0]),
            amplitude=np.array([amp, amp]),
            weight=np.array([0.5, 0.5]),
        )
        d1 = fat.accumulate(rfc.bin_cycles(one, 1, 1), material)
        d2 = fat.accumulate(rfc.bin_cycles(two, 1, 1), material)
        assert d1 == pytest.approx(d2, rel=1e-14)
        assert d1 > 0.0


def reference_accumulate(matrix, mat):
    """The former per-bin loop with the former scalar Haigh and Woehler
    formulas, kept as the oracle of TestAccumulateMatchesReference."""

    def haigh(sigma_m):
        if sigma_m <= 0.0:
            return mat.fatigue_strength
        if sigma_m >= mat.yield_strength:
            return 0.0
        means = np.array([p[0] for p in mat.haigh])
        amps = np.array([p[1] for p in mat.haigh])
        return float(np.interp(sigma_m, means, amps))

    def woehler(sigma_a, sigma_da):
        if sigma_a < sigma_da:
            return math.inf
        if sigma_a == sigma_da:
            return mat.n_hcf
        if sigma_a >= mat.yield_strength:
            return mat.n_lcf
        re_ = mat.yield_strength
        slope = (math.log(mat.n_hcf) - math.log(mat.n_lcf)) / (math.log(re_) - math.log(sigma_da))
        return math.exp(math.log(mat.n_lcf) + slope * (math.log(re_) - math.log(sigma_a)))

    damage = 0.0
    for i, j in np.argwhere(matrix.counts > 0.0):
        amp = matrix.amp_centers[j]
        if amp <= 0.0:
            continue
        sigma_da = haigh(matrix.mean_centers[i])
        n_allowed = mat.n_lcf if sigma_da <= 0.0 else woehler(amp, sigma_da)
        if not math.isinf(n_allowed):
            damage += matrix.counts[i, j] / n_allowed
    return damage


ACCUMULATE_RTOL = 1e-13  # numpy's vector log/exp may differ from math's by an ulp

CUSTOM_HAIGH = fat.FatigueMaterial(
    yield_strength=300.0 * MPA,
    fatigue_strength=100.0 * MPA,
    haigh=((0.0, 100.0 * MPA), (100.0 * MPA, 80.0 * MPA), (200.0 * MPA, 30.0 * MPA),
           (300.0 * MPA, 0.0)),
)


class TestAccumulateMatchesReference:
    @pytest.mark.parametrize("mat", [
        fat.FatigueMaterial(yield_strength=300.0 * MPA, fatigue_strength=100.0 * MPA),
        CUSTOM_HAIGH,
    ])
    def test_bin_grid_through_every_branch(self, mat):
        """Bin centers every 20 MPa: means -20, 0, ..., R_e and beyond,
        amplitudes 0, sigma_Da of zero and knot means, R_e and beyond."""
        mean_edges = (np.arange(19) * 20.0 - 30.0) * MPA
        amp_edges = (np.arange(19) * 20.0 - 10.0) * MPA
        matrix = rfc.RainflowMatrix(mean_edges, amp_edges, np.zeros((18, 18)))
        assert {-20.0, 0.0, 100.0, 300.0, 320.0} <= set(matrix.mean_centers / MPA)
        assert {0.0, 80.0, 100.0, 300.0, 320.0} <= set(matrix.amp_centers / MPA)
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(0, 7, matrix.counts.shape) * 0.5
            counts[rng.random(counts.shape) < 0.5] = 0.0
            matrix = rfc.RainflowMatrix(mean_edges, amp_edges, counts)
            want = reference_accumulate(matrix, mat)
            assert want > 0.0
            assert fat.accumulate(matrix, mat) == pytest.approx(want, rel=ACCUMULATE_RTOL, abs=0.0)
        matrix.counts[:] = 1.0
        assert fat.accumulate(matrix, mat) == pytest.approx(
            reference_accumulate(matrix, mat), rel=ACCUMULATE_RTOL, abs=0.0
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_biaxial_planes(self, material, seed):
        hist = biaxial_history(seed)
        for phi in fat.angle_grid(13):
            series = rfc.extract_extrema(hist.times, tresca_history(hist, phi))
            for mat in (material, CUSTOM_HAIGH):
                matrix = rfc.bin_cycles(rfc.count_cycles(series), 32, 32)
                want = reference_accumulate(matrix, mat)
                assert fat.accumulate(matrix, mat) == pytest.approx(
                    want, rel=ACCUMULATE_RTOL, abs=0.0
                )


class TestCriticalPlane:
    def test_zero_history_infinite_life(self, material):
        hist = StressHistory(np.arange(10.0), np.zeros(10), np.zeros(10))
        report = fat.critical_plane_lifetime(hist, fat.angle_grid(19), material, 2.0)
        assert report.d_max == 0.0
        assert not report.finite_life
        assert math.isinf(report.t_life_seconds)

    def test_lifetime_is_task_over_damage(self, material):
        hist = alternating_history(250.0 * MPA, 40)
        report = fat.critical_plane_lifetime(hist, fat.angle_grid(73), material, 2.0)
        assert report.finite_life
        assert report.t_life_seconds * report.d_max == pytest.approx(2.0, rel=1e-12)

    def test_uniaxial_critical_angle_is_45_degrees(self, material):
        hist = alternating_history(250.0 * MPA, 25)
        report = fat.critical_plane_lifetime(hist, fat.angle_grid(73), material, 1.0)
        spacing = math.pi / 72.0
        assert abs(report.phi_critical - math.pi / 4.0) <= spacing / 2.0 + 1e-12

    def test_uniaxial_matches_direct_scalar_damage(self, material):
        hist = alternating_history(250.0 * MPA, 25)
        report = fat.critical_plane_lifetime(hist, fat.angle_grid(73), material, 1.0)
        direct = direct_damage(hist.sigma_xx, material)
        assert report.d_max == pytest.approx(direct, rel=1e-9)

    def test_angle_refinement_monotonicity(self, material):
        rng = np.random.default_rng(2)
        walk = (rng.normal(0.0, 80.0 * MPA, 400).cumsum() % (500.0 * MPA)) - 250.0 * MPA
        hist = StressHistory(
            np.arange(400.0), walk, np.roll(walk, 7) * 0.4
        )
        coarse = fat.angle_grid(10)
        fine = np.unique(np.concatenate([coarse, fat.angle_grid(37)]))
        d_coarse = fat.critical_plane_lifetime(hist, coarse, material, 1.0).d_max
        d_fine = fat.critical_plane_lifetime(hist, fine, material, 1.0).d_max
        assert d_fine >= d_coarse - 1e-15

    def test_load_scaling_monotonicity(self, material):
        hist = alternating_history(150.0 * MPA, 30)
        d1 = fat.critical_plane_lifetime(hist, fat.angle_grid(37), material, 1.0).d_max
        d2 = fat.critical_plane_lifetime(hist.scaled(1.5), fat.angle_grid(37), material, 1.0).d_max
        assert d2 >= d1

    def test_cycle_order_irrelevant(self, material):
        # a small cycle nested on the flank of a big one versus the same
        # cycles in sequence: identical cycle multiset, identical damage
        s = MPA
        nested = np.array([-200.0, 80.0, 40.0, 200.0, -200.0]) * s
        sequential = np.array([-200.0, 200.0, 40.0, 80.0, -200.0]) * s
        d1 = direct_damage(nested, material)
        d2 = direct_damage(sequential, material)
        assert d1 > 0.0
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_empty_angle_set_rejected(self, material):
        hist = alternating_history(250.0 * MPA, 5)
        with pytest.raises(ValueError):
            fat.critical_plane_lifetime(hist, np.array([]), material, 1.0)

    @pytest.mark.parametrize("t_task", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_task_time_rejected(self, material, t_task):
        hist = alternating_history(250.0 * MPA, 5)
        with pytest.raises(ValueError, match="t_task"):
            fat.critical_plane_lifetime(hist, fat.angle_grid(5), material, t_task)

    def test_critical_cycles_are_the_critical_plane_weight(self, material):
        # 51 alternating extrema on the 45 degree plane: 25 full cycles
        hist = alternating_history(250.0 * MPA, 25)
        report = fat.critical_plane_lifetime(hist, fat.angle_grid(73), material, 1.0)
        series = rfc.extract_extrema(hist.times, tresca_history(hist, report.phi_critical))
        assert rfc.count_cycles(series).total_weight == 25.0

    def test_angle_grid_contains_quarter_pi(self):
        grid = fat.angle_grid(73)
        assert grid.size == 73
        assert np.min(np.abs(grid - math.pi / 4.0)) < 1e-15


class TestPlanePairing:
    """Planes pi/2 apart share one rainflow count (negated means)."""

    # Partner histories differ from separately computed ones by about
    # 4e-16 relative (sin and cos of 2 phi + pi are not exact negations);
    # measured worst per-plane damage deviation over 30 such histories,
    # both gate settings and these grids: 5.7e-15.
    PAIRED_RTOL = 1e-12

    @pytest.mark.parametrize("n_angles", [73, 19, 5])
    @pytest.mark.parametrize("gate,include_residue", [(0.0, True), (5.0 * MPA, False)])
    def test_paired_grid_matches_every_plane_loop(self, material, n_angles, gate,
                                                  include_residue):
        angles = fat.angle_grid(n_angles)
        for seed in range(3):
            hist = biaxial_history(seed)
            want = every_plane_damage(hist, angles, material, gate, include_residue)
            report = fat.critical_plane_lifetime(
                hist, angles, material, 1.0,
                hysteresis_gate=gate, include_residue=include_residue,
            )
            assert np.count_nonzero(want) > n_angles // 2
            np.testing.assert_allclose(report.damage, want, rtol=self.PAIRED_RTOL, atol=0.0)
            assert report.phi_critical == angles[np.argmax(want)]

    @pytest.mark.parametrize(
        "angles",
        [
            fat.angle_grid(10),
            fat.angle_grid(1),
            np.array([0.7]),
            np.linspace(0.1, math.pi, 19),
            fat.angle_grid(19) + np.r_[np.zeros(18), 1e-9],
            np.random.default_rng(4).uniform(0.0, math.pi, 9),
        ],
        ids=["even", "one", "single", "shifted-start", "near-miss", "random"],
    )
    def test_unpaired_set_is_bit_identical(self, material, angles):
        hist = biaxial_history(7)
        want = every_plane_damage(hist, angles, material)
        report = fat.critical_plane_lifetime(hist, angles, material, 1.0)
        assert report.damage.tobytes() == want.tobytes()

    @pytest.mark.parametrize("angles,counts", [
        (fat.angle_grid(73), 37),
        (fat.angle_grid(73) + 0.25, 37),
        (fat.angle_grid(72), 72),
        (fat.angle_grid(1), 1),
    ])
    def test_call_counts(self, material, monkeypatch, angles, counts):
        calls = {"count": 0, "accumulate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rfc, "count_cycles", counting("count", rfc.count_cycles))
        monkeypatch.setattr(fat, "accumulate", counting("accumulate", fat.accumulate))
        fat.critical_plane_lifetime(biaxial_history(1, n=200), angles, material, 1.0)
        assert calls == {"count": counts, "accumulate": angles.size}

    def test_partners_differ_through_the_mean_clamp(self, material):
        # sigma_xx alone: tresca(pi/4) = -sigma_xx and tresca(3 pi/4) = +sigma_xx,
        # so a tensile mean loads only the second plane
        hist = alternating_history(150.0 * MPA, 30, mean=60.0 * MPA)
        angles = fat.angle_grid(5)
        report = fat.critical_plane_lifetime(hist, angles, material, 1.0)
        assert report.phi_critical == angles[3]
        assert report.damage[3] > report.damage[1] > 0.0
        np.testing.assert_allclose(
            report.damage, every_plane_damage(hist, angles, material),
            rtol=self.PAIRED_RTOL, atol=0.0,
        )


def former_plane_loop(history, angles, mat, n_mean_bins, n_amp_bins, include_residue):
    """Per-plane damage of critical_plane_lifetime before the fast
    extraction and binning: the former _alternating, searchsorted bins,
    and the pairing of planes pi/2 apart. Without a hysteresis gate."""
    h = fat._quarter_turn_offset(angles)
    damage = np.empty(angles.size)

    def score(j, cycles):
        if len(cycles) == 0:
            matrix = rfc.bin_cycles(cycles, n_mean_bins, n_amp_bins)
        else:
            matrix = searchsorted_bin_cycles(cycles, n_mean_bins, n_amp_bins)
        damage[j] = fat.accumulate(matrix, mat)

    for k in range(angles.size - h):
        v = former_alternating(tresca_history(history, angles[k]))
        cycles = rfc.count_cycles(rfc.ExtremaSeries(v), include_residue=include_residue)
        score(k, cycles)
        if h and k > 0:
            score(k + h, rfc.CycleSet(-cycles.mean, cycles.amplitude, cycles.weight))
    return damage


class TestDamageMatchesFormerLoop:
    """critical_plane_lifetime against the former per-plane loop with the
    demo settings (73 planes, 32 x 32 bins, residue counted);
    tolerance 0 (equal damage bytes)."""

    @staticmethod
    def assert_same_damage(history, mat, t_task):
        angles = fat.angle_grid(73)
        report = fat.critical_plane_lifetime(history, angles, mat, t_task)
        want = former_plane_loop(history, angles, mat, 32, 32, True)
        assert np.count_nonzero(want) > 0
        assert report.damage.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", [0, 3])
    def test_benchmark_records(self, workloads, variant):
        cfg = config.load_config(workloads.BASE_CONFIG)
        assert (cfg.n_angles, cfg.n_mean_bins, cfg.n_amp_bins, cfg.hysteresis_gate,
                cfg.include_residue) == (73, 32, 32, 0.0, True)
        history = StressHistory(*workloads.make_record(variant))
        self.assert_same_damage(history, cfg.fatigue_material, workloads.RECORD_T_TASK)

    @pytest.mark.parametrize("seed", range(3))
    def test_biaxial_histories(self, material, seed):
        self.assert_same_damage(biaxial_history(seed), material, 1.0)
