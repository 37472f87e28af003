"""Rainflow cycle counting (ASTM E1049 rainflow method) and binning.

A sampled equivalent-stress history is reduced to its alternating extrema,
closed load cycles are extracted with the pagoda-roof/ASTM procedure and
the resulting (mean, amplitude) pairs are aggregated into a rainflow
matrix over a rectangular bin grid. Residue half cycles are kept with
weight 0.5 by default.

The ASTM E1049 stack loop is equivalent to removing "4-point" cycles
(Amzallag et al. 1994): a range smaller than the range before it and
overtaken by the range after it is a closed cycle, and removing it leaves
the rest of the count unchanged. ``count_cycles`` removes such cycles a
whole level at a time with numpy passes, then lets the loop count the
few points left, so the order of the returned cycles is unspecified.

``bin_cycles`` finds a cycle's bin on each axis from the uniform bin
width, floor((x - lo) * n / (hi - lo)), and corrects that guess by one
comparison with each of its two edges, so the bin is exactly the one
``np.searchsorted`` finds on the edges. Bins too narrow for the rounding
of their edges are looked up with ``np.searchsorted`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stress import check_sample_times


@dataclass(frozen=True)
class ExtremaSeries:
    """Strictly alternating sequence of stress extrema."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("extrema must be a 1-d array")
        if v.size == 0:
            raise ValueError("empty extrema series")
        d = np.diff(v)
        if np.any(d == 0.0):
            raise ValueError("consecutive equal extrema are not allowed")
        up = d > 0.0
        if np.any(up[:-1] == up[1:]):
            raise ValueError("extrema must strictly alternate between peaks and valleys")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CycleSet:
    """Counted cycles: mean, amplitude and weight (1.0 full, 0.5 half)."""

    mean: np.ndarray
    amplitude: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        a = np.asarray(self.amplitude, dtype=float)
        w = np.asarray(self.weight, dtype=float)
        if not (m.shape == a.shape == w.shape):
            raise ValueError("mean, amplitude and weight must have equal shapes")
        # a finite history near the largest float can overflow 0.5 * (a + b)
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(a))):
            raise ValueError("cycle means and amplitudes must be finite")
        if np.any(a < 0.0):
            raise ValueError("cycle amplitudes must be non-negative")
        if a.size and not np.all(np.isin(w, (0.5, 1.0))):
            raise ValueError("cycle weights must be 0.5 or 1.0")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return self.mean.size

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())


@dataclass(frozen=True)
class RainflowMatrix:
    """Histogram of cycle weights over a (mean, amplitude) bin grid."""

    mean_edges: np.ndarray
    amp_edges: np.ndarray
    counts: np.ndarray  # shape (n_mean, n_amp), may hold half counts

    @property
    def mean_centers(self) -> np.ndarray:
        e = self.mean_edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def amp_centers(self) -> np.ndarray:
        e = self.amp_edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def _alternating(values: np.ndarray) -> np.ndarray:
    """Drop repeats and interior non-extrema of a finite history, keeping
    both endpoints. Returns a new array, never a view of the argument."""
    repeat = values[1:] == values[:-1]
    if repeat.any():
        # plateaus: drop the repeats first
        keep = np.ones(values.size, dtype=bool)
        np.logical_not(repeat, out=keep[1:])
        values = values[keep]
    if values.size <= 2:
        return values.copy()
    # compare directions: the product of two tiny differences can underflow
    # to 0; b > a is the sign of b - a, found without the differences
    up = values[1:] > values[:-1]
    mask = np.empty(values.size, dtype=bool)
    mask[0] = mask[-1] = True
    np.not_equal(up[:-1], up[1:], out=mask[1:-1])
    # an index array takes in a fifth of the time of the boolean mask
    return values[np.flatnonzero(mask)]


def extract_extrema(times, sigma, hysteresis_gate: float = 0.0) -> ExtremaSeries:
    """Reduce a sampled history to alternating extrema.

    The sample times must be finite and never decrease; they are checked,
    not kept. Interior points survive only as strict local extrema. A
    positive gate removes every range below it, smallest first, with both
    its points, or only its far end at the first or last point; equal
    endpoints then merge into one point. One stack pass, like the ASTM
    loop's, finds these extrema in linear time.
    """
    if not hysteresis_gate >= 0.0:
        raise ValueError(f"hysteresis gate must be >= 0, got {hysteresis_gate}")
    sigma = np.asarray(sigma, dtype=float)
    times = np.asarray(times, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("stress history must be a non-empty 1-d array")
    if times.shape != sigma.shape:
        raise ValueError("time grid and history must have equal length")
    check_sample_times(times)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("stress history contains non-finite values")
    v = _alternating(sigma)
    if hysteresis_gate > 0.0:
        gate, s = hysteresis_gate, []
        for x in v.tolist():
            s.append(x)
            while len(s) >= 3 and gate > abs(s[-2] - s[-3]) <= abs(x - s[-2]):
                del s[max(len(s) - 3, 1) : -1]  # keep the first point
        while len(s) >= 3 and gate > abs(s[-1] - s[-2]) <= abs(s[-2] - s[-3]):
            del s[-2]
        v = _alternating(np.array(s))  # merges equal endpoints
    return ExtremaSeries(v)


def _close_inner_cycles(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remove whole levels of closed 4-point cycles; returns the remaining
    extrema and the (from, to) points of the closed cycles.

    Range j, from x[j] to x[j+1], is closed when a range precedes it,
    r[j-1] > r[j], and x[j+2] reaches at least x[j]. The ASTM loop then
    finds it on top of its strictly decreasing stack of ranges when x[j+1]
    arrives, closes it at x[j+2] because abs(v - b) >= abs(b - a), and
    goes on as if x[j] and x[j+1] had never been there. x[j+2] and x[j]
    are compared directly: r[j+1] >= r[j] can hold after rounding when
    x[j+2] falls short of x[j], and the loop would go on differently.
    Two such ranges are never adjacent, and removing one leaves the others
    closable, so one mask removes a whole level. The passes stop once one
    removes fewer than 1/16 of the points, which bounds their work by 16 n;
    a spiral closed by one large swing would otherwise take a pass per
    cycle.
    """
    if x.size < 4:
        return x, x[:0], x[:0]
    # negated valleys (exact): range k is y[k] + y[k+1], and x[j+2] reaches
    # x[j] iff y[j+2] >= y[j]; removing pairs keeps every point's parity,
    # so sign[k] stays the sign of position k
    sign = np.ones(x.size)
    sign[int(x[0] > x[1]) :: 2] = -1.0
    y = x * sign
    heads, tails = [], []
    while y.size >= 4:
        r = y[:-1] + y[1:]
        j = np.flatnonzero((r[:-2] > r[1:-1]) & (y[3:] >= y[1:-2])) + 1
        heads.append(y[j] * sign[j])
        tails.append(y[j + 1] * sign[j + 1])
        keep = np.ones(y.size, dtype=bool)
        keep[j] = False
        keep[j + 1] = False
        removed = 2 * j.size
        y = y[keep]
        if 16 * removed < y.size + removed:
            break
    return y * sign[: y.size], np.concatenate(heads), np.concatenate(tails)


def count_cycles(series: ExtremaSeries, include_residue: bool = True) -> CycleSet:
    """ASTM E1049 rainflow counting of an alternating extrema series.

    Closed cycles get weight 1.0; the residue (flows reaching the end of
    the history, including those anchored at the moving start point) is
    counted as half cycles of weight 0.5 unless disabled. Numpy passes
    first close every 4-point cycle of a level at once (see
    ``_close_inner_cycles``); the ASTM stack loop then counts the few
    points left. The cycle multiset is exactly the loop's; the order of
    the cycles is unspecified.
    """
    rest, heads, tails = _close_inner_cycles(series.values)
    buf: list[float] = []
    ranges: list[float] = []  # flat (from, to, weight) triples
    for v in rest.tolist():
        buf.append(v)
        while len(buf) >= 3:
            a, b = buf[-3], buf[-2]
            if abs(v - b) < abs(b - a):
                break
            if len(buf) == 3:
                # range Y contains the starting point: half cycle
                ranges.extend((a, b, 0.5))
                del buf[0]
            else:
                ranges.extend((a, b, 1.0))
                del buf[-3:-1]
    for a, b in zip(buf[:-1], buf[1:]):
        ranges.extend((a, b, 0.5))
    r = np.array(ranges, dtype=float).reshape(-1, 3)
    if not include_residue:
        r = r[r[:, 2] == 1.0]
    a = np.concatenate((heads, r[:, 0]))
    b = np.concatenate((tails, r[:, 1]))
    w = np.concatenate((np.ones(heads.size), r[:, 2]))
    return CycleSet(mean=0.5 * (a + b), amplitude=0.5 * np.abs(a - b), weight=w)


def _edges(lo: float, hi: float, n: int) -> np.ndarray:
    if lo == hi:
        delta = max(abs(lo) * 1e-9, 1e-9)
        lo, hi = lo - delta, hi + delta
    elif not math.isfinite(hi - lo):
        raise ValueError(f"cycle values from {lo!r} to {hi!r} span more than the float range")
    return np.linspace(lo, hi, n + 1)


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each x in [edges[0], edges[-1]] on a finite linspace grid of
    n bins: exactly clip(searchsorted(edges, x, "right") - 1, 0, n - 1).

    The guess floor((x - lo) * n / (hi - lo)) and the rounded edges are
    both within 2**-10 bin widths of the exact position when the bins are
    wide against the rounding of the edges, (hi - lo) / n >= 2**-40 * max(
    |lo|, |hi|), and normal, (hi - lo) / n >= 2**-1000. Then the guess is
    at most one bin off, and one comparison with each of its two edges
    corrects it. Narrower bins, whose rounded edges may coincide, are
    looked up with searchsorted.
    """
    n = edges.size - 1
    lo, hi = float(edges[0]), float(edges[n])
    width = hi - lo
    if not width >= n * max(2.0**-1000, 2.0**-40 * max(abs(lo), abs(hi))):
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n - 1)
    guess = x - lo
    guess *= n / width
    i = guess.astype(np.intp)  # x >= lo: truncation is floor
    np.minimum(i, n - 1, out=i)
    i -= x < edges[i]
    i += x >= edges[1:][i]
    return np.clip(i, 0, n - 1, out=i)


def bin_cycles(cycles: CycleSet, n_mean: int = 32, n_amp: int = 32) -> RainflowMatrix:
    """Aggregate a cycle set into a rainflow matrix.

    The bins span the observed min/max per axis, so total weight is
    conserved exactly. A cycle falls in the bin whose left edge is the
    last one at or below its value, the top edge closing the last bin,
    as ``np.searchsorted`` on the edges finds it; ``_bin_index`` computes
    that bin from the uniform spacing and corrects it against the edges.
    """
    if n_mean < 1 or n_amp < 1:
        raise ValueError("bin counts must be >= 1")
    m, a, w = cycles.mean, cycles.amplitude, cycles.weight
    if len(cycles) == 0:
        return RainflowMatrix(_edges(0.0, 0.0, n_mean), _edges(0.0, 0.0, n_amp),
                              np.zeros((n_mean, n_amp)))
    me = _edges(float(m.min()), float(m.max()), n_mean)
    ae = _edges(float(a.min()), float(a.max()), n_amp)
    flat = _bin_index(m, me)
    flat *= n_amp
    flat += _bin_index(a, ae)
    counts = np.bincount(flat, weights=w, minlength=n_mean * n_amp)
    return RainflowMatrix(mean_edges=me, amp_edges=ae, counts=counts.reshape(n_mean, n_amp))
