import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexlife import rainflow
from flexlife.rainflow import (
    CycleSet,
    ExtremaSeries,
    RainflowMatrix,
    _alternating,
    _bin_index,
    _close_inner_cycles,
    _edges,
    bin_cycles,
    count_cycles,
    extract_extrema,
)
from flexlife.stress import StressHistory, tresca_history

# the classic nine-extrema demo history (MPa)
DEMO = np.array([-2.0, 1.0, -3.0, 5.0, -1.0, 3.0, -4.0, 4.0, -2.0])


def series_from_values(values):
    return ExtremaSeries(np.asarray(values, dtype=float))


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
        second = extract_extrema(np.arange(float(len(first))), first.values)
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

    def test_tiny_differences_keep_alternation(self):
        # the products of consecutive differences underflow to 0 here, their
        # signs do not
        sig = np.array([1.0, 2.2e-311, 0.0, 4.2e-70, 0.0])
        out = extract_extrema(np.arange(5.0), sig)
        assert out.values.tolist() == [1.0, 0.0, 4.2e-70, 0.0]
        # the samples kept are 0, 2, 3 and 4, bit for bit
        assert out.values.tobytes() == sig[[0, 2, 3, 4]].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        sig = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
        sig[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            extract_extrema(np.arange(5.0), sig)

    @pytest.mark.parametrize("times, message", [
        ([0.0, 1.0, 3.0, 2.0, 4.0], "backwards at index 3: t = 2.0 after 3.0"),
        ([0.0, 1.0, np.nan, 3.0, 4.0], "non-finite sample times"),
    ], ids=["backwards", "nan"])
    def test_bad_sample_times_rejected(self, times, message):
        # a library caller once got extrema of a shuffled history silently
        with pytest.raises(ValueError, match=message):
            extract_extrema(np.array(times), [0.0, 1.0, -1.0, 2.0, -2.0])


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
            ExtremaSeries(np.array([0.0, 1.0, 2.0]))

    def test_non_alternating_tiny_differences_rejected(self):
        # a monotone run whose difference product underflows to 0
        with pytest.raises(ValueError, match="alternate"):
            ExtremaSeries(np.array([0.0, 1e-200, 2e-200]))

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


def assert_negation_mirrors_cycles(sig, gate):
    """extract_extrema of -sig negates the values; count_cycles then
    negates the means and keeps amplitudes and weights bit for bit."""
    times = np.arange(float(sig.size))
    plus = extract_extrema(times, sig, gate)
    minus = extract_extrema(times, -sig, gate)
    assert minus.values.tobytes() == (-plus.values).tobytes()
    for include_residue in (True, False):
        base = count_cycles(plus, include_residue=include_residue)
        mirrored = count_cycles(minus, include_residue=include_residue)
        # exact, but compared by value: a zero mean may come out as -0.0
        np.testing.assert_array_equal(mirrored.mean, -base.mean)
        assert mirrored.amplitude.tobytes() == base.amplitude.tobytes()
        assert mirrored.weight.tobytes() == base.weight.tobytes()


class TestNegationMirrorsCycles:
    @given(alternating_series(), st.sampled_from([0.0, 1.0, 2.5, 7.0]))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_integer_series(self, values, gate):
        assert_negation_mirrors_cycles(values, gate)

    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=80),
        st.sampled_from([0.0, 1e3, 1e8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_float_histories(self, sig, gate):
        assert_negation_mirrors_cycles(np.array(sig), gate)


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


def sorted_cycles(cycles):
    """(mean, amplitude, weight) columns in lexicographic order: the cycle
    order is unspecified, the multiset is not."""
    order = np.lexsort((cycles.weight, cycles.amplitude, cycles.mean))
    return [getattr(cycles, name)[order] for name in ("mean", "amplitude", "weight")]


def assert_same_cycles(series):
    """Bit-equal cycle multisets and rainflow matrices with the reference
    loop."""
    for include_residue in (True, False):
        got = count_cycles(series, include_residue=include_residue)
        want = reference_count_cycles(series, include_residue=include_residue)
        for a, b in zip(sorted_cycles(got), sorted_cycles(want)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        got_matrix, want_matrix = bin_cycles(got, 8, 6), bin_cycles(want, 8, 6)
        for name in ("mean_edges", "amp_edges", "counts"):
            assert getattr(got_matrix, name).tobytes() == getattr(want_matrix, name).tobytes()


def alternate(values):
    """The alternating extrema of values (times are the sample indices)."""
    values = np.asarray(values, dtype=float)
    return extract_extrema(np.arange(float(values.size)), values)


# values whose differences round: ranges between them tie after rounding
ROUNDING_POOL = np.unique([
    sign * (base + tiny)
    for base in (0.0, 0.5, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 2.0, 3.0, 1e16, 1e16 + 2.0)
    for tiny in (0.0, 2.0**-54, -2.0**-54, 3.0 * 2.0**-54, -3.0 * 2.0**-54, 2.0**-52)
    for sign in (1.0, -1.0)
])


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

    def test_long_series_close_most_cycles_in_passes(self):
        # >= 5000 extrema, half of them tie-heavy: several passes run, and
        # the loop sees what they leave
        rng = np.random.default_rng(23)
        for k in range(6):
            n = 12_000
            if k % 2:
                sig = rng.integers(-3, 4, n).astype(float)
            else:
                sig = rng.normal(0.0, 1e7, n).cumsum() % 4e8 + rng.normal(0.0, 3e6, n)
            series = alternate(sig)
            assert len(series) >= 5000
            rest, heads, _ = _close_inner_cycles(series.values)
            assert heads.size > 0 and rest.size < len(series) / 4
            assert_same_cycles(series)

    def test_tie_heavy_series(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            assert_same_cycles(alternate(rng.integers(-3, 4, n).astype(float)))

    def test_rounded_ranges(self):
        """A pass compares x[j + 2] with x[j] directly, since r[j + 1] >= r[j]
        after rounding does not mean that x[j + 2] reaches x[j]. Here both
        ranges round to 6.0, but the peak after -3 falls one ulp short of
        the peak before it, so the loop does not close (3+, -3) there."""
        up, down = np.nextafter(3.0, 4.0), np.nextafter(3.0, 2.0)
        assert abs(up - -3.0) == abs(-3.0 - down) == 6.0
        assert_same_cycles(series_from_values([up, -1e16 - 2.0, up, -3.0, down, -1e16 - 2.0]))
        rng = np.random.default_rng(31)
        for _ in range(1000):
            assert_same_cycles(alternate(rng.choice(ROUNDING_POOL, int(rng.integers(2, 60)))))

    def test_converging_spiral_stays_linear(self):
        """Ranges shrink to the end, where one swing closes every cycle: a
        pass closes one cycle at a time here, so the passes must stop early
        and leave the rest to the loop."""
        n = 60_000
        k = np.arange(n - 1)
        values = np.append(np.where(k % 2 == 0, 1.0, -1.0) * (n - k), -1e6)
        series = series_from_values(values)
        t0 = time.perf_counter()
        got = count_cycles(series)
        elapsed = time.perf_counter() - t0
        want = reference_count_cycles(series)
        for a, b in zip(sorted_cycles(got), sorted_cycles(want)):
            assert a.tobytes() == b.tobytes()
        assert elapsed < 1.0

    @given(alternating_series())
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_integer_series(self, values):
        assert_same_cycles(series_from_values(values))

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=80))
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


class TestNonFiniteCycles:
    # finite extrema near the largest float overflow 0.5 * (a + b) and
    # 0.5 * abs(a - b); the cycles were once binned into nan edges and gave
    # a wrong damage with only RuntimeWarnings
    @pytest.mark.parametrize("field", ["mean", "amplitude"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_cycle_set_rejects(self, field, bad):
        kw = {"mean": np.zeros(3), "amplitude": np.ones(3), "weight": np.ones(3)}
        kw[field][1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            CycleSet(**kw)

    def test_overflowing_record_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            count_cycles(alternate([0.0, 1.7e308, -1.7e308, 1.7e308, 0.0]))

    def test_means_beyond_the_float_range_rejected(self):
        cycles = CycleSet(mean=np.array([-1.5e308, 1.5e308]), amplitude=np.ones(2),
                          weight=np.ones(2))
        with pytest.raises(ValueError, match="span more than the float range"):
            bin_cycles(cycles)


def searchsorted_bin(x, edges):
    """The former bin lookup, the oracle of TestBinIndexMatchesSearchsorted."""
    n = edges.size - 1
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n - 1)


def searchsorted_bin_cycles(cycles, n_mean, n_amp):
    """The former bin_cycles of a non-empty cycle set."""
    m, a = cycles.mean, cycles.amplitude
    me = _edges(float(m.min()), float(m.max()), n_mean)
    ae = _edges(float(a.min()), float(a.max()), n_amp)
    flat = searchsorted_bin(m, me) * n_amp + searchsorted_bin(a, ae)
    counts = np.bincount(flat, weights=cycles.weight, minlength=n_mean * n_amp)
    return RainflowMatrix(me, ae, counts.reshape(n_mean, n_amp))


def with_edge_neighbours(x, edges):
    """x plus every edge and its float neighbours inside [edges[0], edges[-1]]."""
    near = np.concatenate((edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)))
    near = near[(near >= edges[0]) & (near <= edges[-1])]
    return np.concatenate((x, near))


class TestBinIndexMatchesSearchsorted:
    """The arithmetic bin index against searchsorted; tolerance 0 (the
    same integer for every value)."""

    def assert_exact(self, x, n):
        x = np.asarray(x, dtype=float)
        edges = _edges(float(x.min()), float(x.max()), n)
        x = with_edge_neighbours(x, edges)
        assert np.array_equal(_bin_index(x, edges), searchsorted_bin(x, edges))

    def test_random_data(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            n = int(rng.integers(1, 80))
            x = rng.normal(rng.normal(0.0, 1e7), 10.0 ** rng.uniform(-3.0, 8.0),
                           int(rng.integers(1, 200)))
            self.assert_exact(x, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 1000])
    def test_edges_and_their_neighbours(self, n):
        self.assert_exact([-3.0e7, 1.0, 2.5e7], n)
        self.assert_exact([0.0, 1.0], n)

    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("value", [0.0, 3.3, -2e8, 5e-324])
    def test_single_value(self, n, value):
        # lo == hi: _edges widens the range around the one value
        self.assert_exact([value], n)

    @pytest.mark.parametrize("n", [1, 32, 1000])
    def test_bins_at_the_rounding_limit(self, n):
        # ranges just wide enough for the arithmetic guess, and narrower
        # ones, whose rounded edges coincide and are looked up with
        # searchsorted
        rng = np.random.default_rng(n)
        for scale in (2.0**-40 * n * (1.0 + 1e-9), 2.0**-41 * n, 3.0 * 2.0**-52, 0.0):
            for base in (1.0, -7.5e6, 2.0**1000):
                hi = base + abs(base) * scale if scale else np.nextafter(base, np.inf)
                x = np.concatenate(([base, hi], rng.uniform(base, hi, 50)))
                self.assert_exact(x, n)

    @pytest.mark.parametrize("x", [
        [0.0, 5e-324], [0.0, 3 * 5e-324, 5e-324], [2.0**-1000, 2.0**-999], [-1e308, 7e307],
    ], ids=["one-subnormal", "subnormals", "tiny-normals", "huge"])
    def test_extreme_ranges(self, x):
        for n in (1, 3, 32):
            self.assert_exact(x, n)

    def test_bin_cycles_counts(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            size = int(rng.integers(1, 300))
            cycles = CycleSet(
                mean=rng.integers(-5, 6, size) * rng.choice([1.0, 0.1, 1e6]),
                amplitude=np.abs(rng.normal(0.0, 30.0, size)),
                weight=rng.choice([0.5, 1.0], size),
            )
            n_mean, n_amp = (int(k) for k in rng.integers(1, 40, 2))
            got = bin_cycles(cycles, n_mean, n_amp)
            want = searchsorted_bin_cycles(cycles, n_mean, n_amp)
            for name in ("mean_edges", "amp_edges", "counts"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def former_alternating(values):
    """_alternating before its fast path, with the repeat removal always
    on: the oracle of TestAlternating."""
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) != 0.0
    v = values[keep]
    if v.size <= 2:
        return v
    up = np.diff(v) > 0.0
    interior = up[:-1] != up[1:]
    mask = np.concatenate(([True], interior, [True]))
    return v[mask]


class TestAlternating:
    """The path without repeats against the plateau path and the former
    code; tolerance 0 (equal bits)."""

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_fast_path_matches_plateau_path(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            x = rng.normal(size=n).cumsum() * 10.0 ** rng.uniform(-300.0, 300.0)
            assert np.all(np.diff(x) != 0.0)
            fast = _alternating(x)
            # a repeated sample takes the plateau path, which drops it again
            k = int(rng.integers(0, n))
            self.assert_same(fast, _alternating(np.insert(x, k, x[k])))
            self.assert_same(fast, former_alternating(x))

    @pytest.mark.parametrize("values", [
        [1.0, 2.2e-311, 0.0, 4.2e-70, 0.0],
        [0.0, 1.7e308, -1.7e308, 1.7e308],
        [3.0, 3.0, 3.0],
        [1.0, 1.0, 2.0, 2.0, 0.0, 0.0, 0.0, 5.0],
    ], ids=["tiny", "huge", "constant", "plateaus"])
    def test_matches_former_code(self, values):
        x = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            self.assert_same(_alternating(x), former_alternating(x))

    def test_integer_histories_with_plateaus(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            x = rng.integers(-2, 3, int(rng.integers(1, 60))).astype(float)
            self.assert_same(_alternating(x), former_alternating(x))

    @pytest.mark.parametrize("values", [
        [1.0], [1.0, 2.0], [1.0, 1.0], [1.0, 2.0, 2.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.5, 2.0],
    ])
    def test_never_a_view_of_the_input(self, values):
        x = np.asarray(values, dtype=float)
        assert not np.shares_memory(_alternating(x), x)


def former_gated_extrema(sigma, gate):
    """The former gate of extract_extrema, which removed the smallest
    range and rescanned the whole series after each removal: the oracle
    of TestHysteresisGateMatchesFormerLoop."""
    v = _alternating(np.asarray(sigma, dtype=float))
    if gate > 0.0:
        while v.size > 2:  # both endpoints are always retained
            ranges = np.abs(np.diff(v))
            k = int(np.argmin(ranges))
            if ranges[k] >= gate:
                break
            if k == 0:
                v = np.delete(v, 1)
            elif k == v.size - 2:
                v = np.delete(v, v.size - 2)
            else:
                sel = np.ones(v.size, dtype=bool)
                sel[k : k + 2] = False
                v = v[sel]
            v = _alternating(v)
    return v


@st.composite
def series_and_gate(draw, values):
    """A history and a positive gate: often one of its own ranges, so
    that ranges equal to the gate occur, sometimes inf."""
    sig = np.array(draw(values), dtype=float)
    ranges = np.abs(np.diff(sig))
    ranges = ranges[ranges > 0.0].tolist()
    gate = draw(st.one_of(
        st.sampled_from(ranges or [1.0]),
        st.floats(min_value=1e-3, max_value=4e9),
        st.just(np.inf),
    ))
    return sig, gate


class TestHysteresisGateMatchesFormerLoop:
    """The one-pass gate against the former smallest-first loop;
    tolerance 0 (the same extrema, value for value)."""

    @staticmethod
    def assert_same(sig, gate):
        sig = np.asarray(sig, dtype=float)
        got = extract_extrema(np.arange(float(sig.size)), sig, gate).values
        assert np.array_equal(got, former_gated_extrema(sig, gate))

    @given(series_and_gate(st.lists(st.integers(-4, 4), min_size=1, max_size=120)))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_integer_series(self, case):
        # few levels: plateaus and equal ranges everywhere
        self.assert_same(*case)

    @given(series_and_gate(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=120)))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_float_histories(self, case):
        self.assert_same(*case)

    def test_random_walks(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            scale = float(rng.choice([1.0, 0.5, 1e-300, 1e300]))
            sig = rng.integers(-3, 4, n).cumsum() * scale
            self.assert_same(sig, float(rng.choice([0.5, 1.0, 2.0, 3.0, 7.0, np.inf])) * scale)

    @pytest.mark.parametrize("sig, gate, want", [
        ([0.5, 0.0, 0.5], 5.0, [0.5]),  # equal endpoints merge into one point
        ([0.0, 4.0, 3.0, 7.0, 6.0, 9.0], 2.0, [0.0, 9.0]),
        (np.linspace(-1.0, 2.0, 50), np.inf, [-1.0, 2.0]),  # a monotone ramp
        (np.full(5, 3.3), 1.0, [3.3]),  # a constant signal
        ([1.0, 2.0], 5.0, [1.0, 2.0]),  # one range is never removed
        ([0.0, 10.0, 9.0, 10.0, -5.0], 2.0, [0.0, 10.0, -5.0]),
    ], ids=["equal-ends", "steps", "ramp", "constant", "one-range", "inner"])
    def test_fixed_cases(self, sig, gate, want):
        got = extract_extrema(np.arange(float(len(sig))), sig, gate).values
        assert got.tolist() == want
        self.assert_same(sig, gate)

    @pytest.mark.parametrize("variant", [1, 3])
    @pytest.mark.parametrize("gate", [0.5e6, 2e6])
    def test_benchmark_records(self, workloads, variant, gate):
        # the Tresca history of the first 5,000 samples of a benchmark
        # record; the gates leave from 4 to about 1,500 extrema
        t, sxx, sxy = (x[:5000] for x in workloads.make_record(variant))
        sig = tresca_history(StressHistory(t, sxx, sxy), 0.5)
        want = former_gated_extrema(sig, gate)
        assert 4 <= want.size <= 1500
        assert np.array_equal(extract_extrema(t, sig, gate).values, want)

    def test_one_pass(self, monkeypatch):
        # the former loop called _alternating once per removal: 2,877
        # times here
        calls = []

        def counted(values):
            calls.append(values.size)
            return _alternating(values)

        monkeypatch.setattr(rainflow, "_alternating", counted)
        sig = np.random.default_rng(43).normal(size=20_000).cumsum()
        extract_extrema(np.arange(sig.size, dtype=float), sig, 1.0)
        assert len(calls) <= 2

    @pytest.mark.parametrize("gate", [-1.0, -np.inf, np.nan])
    def test_bad_gate_rejected(self, gate):
        # a NaN or negative gate once worked as no gate
        with pytest.raises(ValueError, match="hysteresis gate must be >= 0"):
            extract_extrema(np.arange(3.0), [0.0, 1.0, 0.0], gate)
