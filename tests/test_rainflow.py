from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexlife.rainflow import (
    CycleSet,
    ExtremaSeries,
    bin_cycles,
    count_cycles,
    extract_extrema,
)

# the classic nine-extrema demo history (MPa)
DEMO = np.array([-2.0, 1.0, -3.0, 5.0, -1.0, 3.0, -4.0, 4.0, -2.0])


def series_from_values(values):
    values = np.asarray(values, dtype=float)
    return ExtremaSeries(values=values, times=np.arange(values.size, dtype=float))


class TestExtractExtrema:
    def test_monotone_ramp_keeps_endpoints_only(self):
        t = np.linspace(0.0, 1.0, 50)
        out = extract_extrema(t, np.linspace(-1.0, 2.0, 50))
        assert out.values.tolist() == [-1.0, 2.0]

    def test_fine_sine_reduces_to_alternating_amplitudes(self):
        t = np.linspace(0.0, 4.0 * np.pi, 4001)
        out = extract_extrema(t, np.sin(t))
        interior = out.values[1:-1]
        assert np.all(np.abs(np.abs(interior) - 1.0) < 1e-5)
        assert np.all(np.diff(np.sign(np.diff(out.values))) != 0.0)

    def test_demo_sequence_survives_unchanged(self):
        out = extract_extrema(np.arange(9.0), DEMO)
        assert out.values.tolist() == DEMO.tolist()

    def test_smooth_history_reduces_to_demo_extrema(self):
        # a continuous signal oscillating through the published turning
        # points must reduce exactly to them
        t_knots = np.arange(9.0)
        fine = np.linspace(0.0, 8.0, 1601)
        smooth = np.interp(fine, t_knots, DEMO)
        out = extract_extrema(fine, smooth)
        assert out.values.tolist() == DEMO.tolist()

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        sig = rng.normal(size=300).cumsum()
        first = extract_extrema(np.arange(300.0), sig)
        second = extract_extrema(first.times, first.values)
        assert second.values.tolist() == first.values.tolist()

    def test_hysteresis_gate_removes_small_oscillations(self):
        t = np.arange(7.0)
        sig = np.array([0.0, 10.0, 9.5, 10.5, 0.5, 8.0, -5.0])
        out = extract_extrema(t, sig, hysteresis_gate=2.0)
        ranges = np.abs(np.diff(out.values))
        assert np.all(ranges >= 2.0)
        assert out.values[0] == 0.0 and out.values[-1] == -5.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            extract_extrema(np.array([]), np.array([]))

    def test_constant_signal_collapses(self):
        out = extract_extrema(np.arange(5.0), np.full(5, 3.3))
        assert out.values.tolist() == [3.3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        sig = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
        sig[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            extract_extrema(np.arange(5.0), sig)


class TestCountCycles:
    def test_demo_sequence_astm_counts(self):
        """Hand-traced result of the standard rainflow procedure on the
        demo history: six half cycles and one full cycle of range 4."""
        cycles = count_cycles(series_from_values(DEMO))
        items = Counter(
            (round(2.0 * a, 9), w) for a, w in zip(cycles.amplitude, cycles.weight)
        )
        assert items == Counter(
            {(3.0, 0.5): 1, (4.0, 0.5): 1, (8.0, 0.5): 2, (9.0, 0.5): 1, (6.0, 0.5): 1, (4.0, 1.0): 1}
        )
        # the closed cycle is the inner E-F loop with mean 1
        full = [m for m, w in zip(cycles.mean, cycles.weight) if w == 1.0]
        assert full == [1.0]
        assert cycles.total_weight == pytest.approx((len(DEMO) - 1) / 2.0)

    def test_three_point_sine_period(self):
        # one full period reduced to extrema: two half cycles of amplitude A
        cycles = count_cycles(series_from_values([1.0, -1.0, 1.0]))
        assert cycles.weight.tolist() == [0.5, 0.5]
        np.testing.assert_allclose(cycles.amplitude, 1.0)
        np.testing.assert_allclose(cycles.mean, 0.0)

    def test_uniform_history_mean_and_amplitude(self):
        # sigma = 1 + 3 sin(2t): every counted cycle has mean 1, amplitude 3
        t = np.linspace(0.0, 4.0 * np.pi, 2001)
        series = extract_extrema(t, 1.0 + 3.0 * np.sin(2.0 * t))
        cycles = count_cycles(series)
        big = cycles.amplitude > 2.0  # ignore the partial end ranges
        np.testing.assert_allclose(cycles.amplitude[big], 3.0, rtol=1e-5)
        np.testing.assert_allclose(cycles.mean[big], 1.0, atol=1e-5)
        assert cycles.weight[big].sum() >= 3.0  # four periods less end effects

    def test_single_point_counts_nothing(self):
        cycles = count_cycles(series_from_values([2.0]))
        assert len(cycles) == 0 and cycles.total_weight == 0.0

    def test_residue_switch_drops_half_cycles(self):
        cycles = count_cycles(series_from_values(DEMO), include_residue=False)
        assert np.all(cycles.weight == 1.0)
        assert len(cycles) == 1

    def test_non_alternating_rejected(self):
        with pytest.raises(ValueError):
            ExtremaSeries(values=np.array([0.0, 1.0, 2.0]), times=np.arange(3.0))

    def test_weight_bookkeeping_random_series(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            sig = rng.normal(size=n).cumsum()
            series = extract_extrema(np.arange(float(n)), sig)
            cycles = count_cycles(series)
            assert cycles.total_weight == pytest.approx((len(series) - 1) / 2.0)


@st.composite
def alternating_series(draw):
    # integer-valued series: offsets and binary scalings stay exact in float
    n = draw(st.integers(min_value=2, max_value=30))
    steps = draw(st.lists(st.integers(min_value=1, max_value=20), min_size=n, max_size=n))
    start = draw(st.integers(min_value=-5, max_value=5))
    values = [float(start)]
    sign = 1.0
    for s in steps:
        values.append(values[-1] + sign * s)
        sign = -sign
    return np.array(values)


class TestEquivariance:
    # power-of-two factors and integer offsets keep float comparisons exact,
    # so tie-breaking between equal ranges cannot flip under the transform
    @given(alternating_series(), st.sampled_from([0.5, 2.0, 4.0, 0.25, 8.0]))
    @settings(max_examples=60, deadline=None)
    def test_amplitude_scaling(self, values, alpha):
        base = count_cycles(series_from_values(values))
        scaled = count_cycles(series_from_values(alpha * values))
        np.testing.assert_array_equal(scaled.amplitude, alpha * base.amplitude)
        np.testing.assert_array_equal(scaled.mean, alpha * base.mean)
        assert scaled.weight.tolist() == base.weight.tolist()

    @given(alternating_series(), st.integers(min_value=-20, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_offset_shifts_means_only(self, values, c):
        base = count_cycles(series_from_values(values))
        shifted = count_cycles(series_from_values(values + float(c)))
        np.testing.assert_array_equal(shifted.amplitude, base.amplitude)
        np.testing.assert_array_equal(shifted.mean, base.mean + c)
        assert shifted.weight.tolist() == base.weight.tolist()


def reference_count_cycles(series, include_residue=True):
    """The former counting loop (three parallel lists filled by an emit
    closure), kept as the oracle of the differential tests below."""
    vals = list(np.asarray(series.values, dtype=float))
    mean, amp, weight = [], [], []

    def emit(a, b, w):
        mean.append(0.5 * (a + b))
        amp.append(0.5 * abs(a - b))
        weight.append(w)

    buf = []
    for v in vals:
        buf.append(v)
        while len(buf) >= 3:
            x = abs(buf[-1] - buf[-2])
            y = abs(buf[-2] - buf[-3])
            if x < y:
                break
            if len(buf) == 3:
                if include_residue:
                    emit(buf[0], buf[1], 0.5)
                del buf[0]
            else:
                emit(buf[-3], buf[-2], 1.0)
                del buf[-3:-1]
    if include_residue:
        for a, b in zip(buf[:-1], buf[1:]):
            emit(a, b, 0.5)
    return CycleSet(mean=np.array(mean), amplitude=np.array(amp), weight=np.array(weight))


def assert_same_cycles(series):
    """Exact equality, order included, with the reference loop."""
    for include_residue in (True, False):
        got = count_cycles(series, include_residue=include_residue)
        want = reference_count_cycles(series, include_residue=include_residue)
        for name in ("mean", "amplitude", "weight"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


class TestCountCyclesMatchesReference:
    def test_random_series(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            sig = rng.normal(0.0, 1e7, n).cumsum() + rng.normal(0.0, 3e6, n)
            assert_same_cycles(extract_extrema(np.arange(float(n)), sig))

    def test_demo_and_degenerate_series(self):
        for values in (DEMO, [2.0], [1.0, -1.0], [1.0, -1.0, 1.0], -DEMO):
            assert_same_cycles(series_from_values(values))

    @given(alternating_series())
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_integer_series(self, values):
        assert_same_cycles(series_from_values(values))

    # no magnitudes below 1e-6: extract_extrema tells peaks from valleys by
    # the sign of a product of differences, which underflows to 0 for
    # subnormal ones
    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9).filter(lambda x: x == 0.0 or abs(x) >= 1e-6),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_float_histories(self, sig):
        sig = np.array(sig)
        assert_same_cycles(extract_extrema(np.arange(float(sig.size)), sig))


class TestBinning:
    def test_single_cycle_single_bin(self):
        cycles = CycleSet(mean=np.array([1.0]), amplitude=np.array([2.0]), weight=np.array([1.0]))
        matrix = bin_cycles(cycles, 1, 1)
        assert matrix.counts.tolist() == [[1.0]]
        assert matrix.mean_centers[0] == pytest.approx(1.0)
        assert matrix.amp_centers[0] == pytest.approx(2.0)

    def test_two_identical_cycles_aggregate(self):
        cycles = CycleSet(
            mean=np.array([1.0, 1.0]), amplitude=np.array([2.0, 2.0]), weight=np.array([1.0, 1.0])
        )
        matrix = bin_cycles(cycles, 3, 3)
        assert matrix.total == 2.0
        assert matrix.counts.max() == 2.0

    def test_conservation_on_random_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            cycles = CycleSet(
                mean=rng.normal(0.0, 50.0, n),
                amplitude=np.abs(rng.normal(0.0, 30.0, n)),
                weight=rng.choice([0.5, 1.0], n),
            )
            matrix = bin_cycles(cycles, 8, 6)
            assert abs(matrix.total - cycles.total_weight) < 1e-12

    def test_empty_cycles_empty_matrix(self):
        cycles = CycleSet(mean=np.array([]), amplitude=np.array([]), weight=np.array([]))
        matrix = bin_cycles(cycles, 4, 4)
        assert matrix.total == 0.0
