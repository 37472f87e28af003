"""Rainflow cycle counting (ASTM E1049 rainflow method) and binning.

A sampled equivalent-stress history is reduced to its alternating extrema,
closed load cycles are extracted with the pagoda-roof/ASTM procedure and
the resulting (mean, amplitude) pairs are aggregated into a rainflow
matrix over a rectangular bin grid. Residue half cycles are kept with
weight 0.5 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExtremaSeries:
    """Strictly alternating sequence of stress extrema with time stamps."""

    values: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        t = np.asarray(self.times, dtype=float)
        if v.shape != t.shape or v.ndim != 1:
            raise ValueError("values and times must be 1-d arrays of equal length")
        if v.size == 0:
            raise ValueError("empty extrema series")
        d = np.diff(v)
        if np.any(d == 0.0):
            raise ValueError("consecutive equal extrema are not allowed")
        if d.size >= 2 and np.any(d[:-1] * d[1:] > 0.0):
            raise ValueError("extrema must strictly alternate between peaks and valleys")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "times", t)

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


def _alternating(values: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop repeats and interior non-extrema, keeping both endpoints."""
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) != 0.0
    v, t = values[keep], times[keep]
    if v.size <= 2:
        return v, t
    d = np.diff(v)
    interior = d[:-1] * d[1:] < 0.0
    mask = np.concatenate(([True], interior, [True]))
    return v[mask], t[mask]


def extract_extrema(times, sigma, hysteresis_gate: float = 0.0) -> ExtremaSeries:
    """Reduce a sampled history to alternating extrema.

    Endpoints are retained; interior points survive only as strict local
    extrema. With a positive gate, oscillations of range below the gate
    are removed (smallest first) before counting.
    """
    sigma = np.asarray(sigma, dtype=float)
    times = np.asarray(times, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("stress history must be a non-empty 1-d array")
    if times.shape != sigma.shape:
        raise ValueError("time grid and history must have equal length")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("stress history contains non-finite values")
    if sigma.size < 2:
        return ExtremaSeries(values=sigma.copy(), times=times.copy())

    v, t = _alternating(sigma, times)
    if hysteresis_gate > 0.0:
        while v.size > 2:  # both endpoints are always retained
            ranges = np.abs(np.diff(v))
            k = int(np.argmin(ranges))
            if ranges[k] >= hysteresis_gate:
                break
            if k == 0:
                v, t = np.delete(v, 1), np.delete(t, 1)
            elif k == v.size - 2:
                v, t = np.delete(v, v.size - 2), np.delete(t, t.size - 2)
            else:
                sel = np.ones(v.size, dtype=bool)
                sel[k : k + 2] = False
                v, t = v[sel], t[sel]
            v, t = _alternating(v, t)
    return ExtremaSeries(values=v, times=t)


def count_cycles(series: ExtremaSeries, include_residue: bool = True) -> CycleSet:
    """ASTM E1049 rainflow counting of an alternating extrema series.

    Closed cycles get weight 1.0; the residue (flows reaching the end of
    the history, including those anchored at the moving start point) is
    counted as half cycles of weight 0.5 unless disabled.
    """
    buf: list[float] = []
    ranges: list[tuple[float, float, float]] = []  # (from, to, weight)
    for v in series.values.tolist():
        buf.append(v)
        while len(buf) >= 3:
            a, b = buf[-3], buf[-2]
            if abs(v - b) < abs(b - a):
                break
            if len(buf) == 3:
                # range Y contains the starting point: half cycle
                ranges.append((a, b, 0.5))
                del buf[0]
            else:
                ranges.append((a, b, 1.0))
                del buf[-3:-1]
    ranges.extend((a, b, 0.5) for a, b in zip(buf[:-1], buf[1:]))
    r = np.array(ranges, dtype=float).reshape(-1, 3)
    if not include_residue:
        r = r[r[:, 2] == 1.0]
    a, b = r[:, 0], r[:, 1]
    return CycleSet(mean=0.5 * (a + b), amplitude=0.5 * np.abs(a - b), weight=r[:, 2])


def _edges(lo: float, hi: float, n: int) -> np.ndarray:
    if lo == hi:
        delta = max(abs(lo) * 1e-9, 1e-9)
        lo, hi = lo - delta, hi + delta
    return np.linspace(lo, hi, n + 1)


def bin_cycles(cycles: CycleSet, n_mean: int = 32, n_amp: int = 32) -> RainflowMatrix:
    """Aggregate a cycle set into a rainflow matrix.

    The bins span the observed min/max per axis, so total weight is
    conserved exactly.
    """
    if n_mean < 1 or n_amp < 1:
        raise ValueError("bin counts must be >= 1")
    m, a, w = cycles.mean, cycles.amplitude, cycles.weight
    if len(cycles) == 0:
        return RainflowMatrix(_edges(0.0, 0.0, n_mean), _edges(0.0, 0.0, n_amp),
                              np.zeros((n_mean, n_amp)))
    me = _edges(float(m.min()), float(m.max()), n_mean)
    ae = _edges(float(a.min()), float(a.max()), n_amp)
    im = np.clip(np.searchsorted(me, m, side="right") - 1, 0, n_mean - 1)
    ia = np.clip(np.searchsorted(ae, a, side="right") - 1, 0, n_amp - 1)
    counts = np.zeros((n_mean, n_amp))
    np.add.at(counts, (im, ia), w)
    return RainflowMatrix(mean_edges=me, amp_edges=ae, counts=counts)
