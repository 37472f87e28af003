"""Damage accumulation and lifetime estimation on critical cutting planes.

Every rainflow bin is mapped to a damage increment: the bin's mean stress
enters the Haigh diagram to give the fatigue-resistant amplitude, the
synthetic Woehler line anchored at (2e4 cycles, R_e) and (2e6 cycles,
sigma_Da) gives the allowable cycle count for the bin's amplitude, and the
increments accumulate linearly (Palmgren-Miner). The damage is maximized
over a set of cutting-plane angles; the lifetime of one task execution of
duration t_task is t_task / D_max.

The Tresca history of the plane at phi + pi/2 is the negated history of
the plane at phi, and a negated history has exactly the negated rainflow
cycles: the same amplitudes and weights with negated means. When the
angle set pairs its planes that way, as ``angle_grid(n)`` does for odd
n > 1, only the first (n + 1) / 2 planes are counted; each partner plane
reuses its count with negated means. Every plane is still binned and
accumulated on its own, because the Haigh clamp gives no credit to
negative means, so partner planes differ in damage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rainflow
from .stress import StressHistory, tresca_history

# angles[k + h] - angles[k] may miss pi/2 by this much and still pair planes
_PAIR_ATOL = 1e-12


@dataclass(frozen=True)
class FatigueMaterial:
    """Haigh polyline from (0, sigma_w) to (R_e, 0) plus Woehler anchors."""

    yield_strength: float  # R_e, Pa
    fatigue_strength: float  # sigma_w (fully reversed), Pa
    haigh: tuple[tuple[float, float], ...] = ()
    n_lcf: float = 2.0e4
    n_hcf: float = 2.0e6

    def __post_init__(self):
        re_, sw = self.yield_strength, self.fatigue_strength
        if not (0.0 < sw < re_ < math.inf):  # each check fails NaN and inf
            raise ValueError(
                "need 0 < fatigue_strength < yield_strength < inf, got "
                f"fatigue_strength={sw}, yield_strength={re_}"
            )
        if not (1.0 < self.n_lcf < self.n_hcf < math.inf):
            raise ValueError("Woehler anchors must satisfy 1 < n_lcf < n_hcf < inf")
        pts = tuple((float(m), float(a)) for m, a in self.haigh) or ((0.0, sw), (re_, 0.0))
        if pts[0] != (0.0, sw) or pts[-1] != (re_, 0.0):
            raise ValueError("Haigh polyline must run from (0, sigma_w) to (R_e, 0)")
        means = [p[0] for p in pts]
        amps = [p[1] for p in pts]
        if any(not b > a for a, b in zip(means, means[1:])):
            raise ValueError("Haigh mean stresses must be strictly increasing")
        if any(not b <= a for a, b in zip(amps, amps[1:])):
            raise ValueError("Haigh amplitude limits must be non-increasing")
        object.__setattr__(self, "haigh", pts)


def _haigh_amplitude(mat: FatigueMaterial, sigma_m):
    """Allowable amplitude of each mean stress on the Haigh polyline. The
    polyline starts at mean 0 and ends at R_e with amplitude 0, so the end
    clamps of ``np.interp`` give negative means the fully reversed
    strength and means at or beyond R_e zero amplitude."""
    means, amps = zip(*mat.haigh)
    return np.interp(sigma_m, means, amps)


def _woehler_life(mat: FatigueMaterial, sigma_a: np.ndarray, sigma_da: np.ndarray) -> np.ndarray:
    """Fatigue life of each amplitude sigma_a >= 0 against its allowable
    amplitude sigma_da > 0 (see ``woehler_cycles``)."""
    re_ = mat.yield_strength
    life = np.where(sigma_a < sigma_da, math.inf, mat.n_lcf)
    life[sigma_a == sigma_da] = mat.n_hcf
    on_line = (sigma_a > sigma_da) & (sigma_a < re_)
    a, da = sigma_a[on_line], sigma_da[on_line]
    slope = (math.log(mat.n_hcf) - math.log(mat.n_lcf)) / (math.log(re_) - np.log(da))
    life[on_line] = np.exp(math.log(mat.n_lcf) + slope * (math.log(re_) - np.log(a)))
    return life


def haigh_fatigue_strength(mat: FatigueMaterial, sigma_m: float) -> float:
    """Allowable amplitude for a mean stress, linearly interpolated.

    Negative means clamp to the fully reversed strength (no compressive
    credit); means at or beyond the yield strength allow zero amplitude.
    """
    return float(_haigh_amplitude(mat, sigma_m))


def woehler_cycles(mat: FatigueMaterial, sigma_a: float, sigma_da: float) -> float:
    """Fatigue life N at amplitude sigma_a on the synthetic Woehler line.

    The line is straight in log-log coordinates through (n_lcf, R_e) and
    (n_hcf, sigma_da). Amplitudes below sigma_da do not consume life
    (infinite N); amplitudes at or above R_e saturate at n_lcf.
    """
    if sigma_da <= 0.0:
        raise ValueError("fatigue-resistant amplitude must be positive (degenerate Haigh data)")
    if sigma_a < 0.0:
        raise ValueError("stress amplitude must be non-negative")
    life = _woehler_life(mat, np.array([sigma_a], dtype=float), np.array([sigma_da], dtype=float))
    return float(life[0])


def accumulate(matrix: rainflow.RainflowMatrix, mat: FatigueMaterial) -> float:
    """Linear damage sum over all occupied rainflow bins (per task run).

    Bin centers are the representative (mean, amplitude) of each load
    collective. Bins whose mean reaches the yield strength have zero
    allowable amplitude; their life saturates at the low-cycle anchor
    (the continuous limit of the Woehler line). The increments are summed
    one after the other in row-major bin order.
    """
    i, j = np.nonzero((matrix.counts > 0.0) & (matrix.amp_centers > 0.0))
    if i.size == 0:
        return 0.0
    amp = matrix.amp_centers[j]
    sigma_da = _haigh_amplitude(mat, matrix.mean_centers[i])
    n_allowed = np.full(amp.size, mat.n_lcf)
    positive = sigma_da > 0.0
    n_allowed[positive] = _woehler_life(mat, amp[positive], sigma_da[positive])
    return float(np.cumsum(matrix.counts[i, j] / n_allowed)[-1])


def angle_grid(n_angles: int = 73) -> np.ndarray:
    """Uniform cutting-plane angles covering [0, pi] (pi-periodic)."""
    if n_angles < 1:
        raise ValueError("need at least one cutting angle")
    return np.linspace(0.0, math.pi, n_angles)


@dataclass(frozen=True)
class DamageReport:
    """Per-angle damage, its maximum and the resulting lifetime estimate."""

    angles: np.ndarray
    damage: np.ndarray
    d_max: float
    phi_critical: float
    t_task: float
    t_life_seconds: float  # inf when no damage accumulates
    finite_life: bool

    @property
    def t_life_hours(self) -> float:
        return self.t_life_seconds / 3600.0


def _quarter_turn_offset(angles: np.ndarray) -> int:
    """h with angles[k + h] = angles[k] + pi/2 for every k (n = 2h + 1
    angles), else 0: the index offset of each plane's partner."""
    n = angles.size
    h = (n - 1) // 2
    if n % 2 == 0 or h == 0:
        return 0
    gaps = angles[h:] - angles[: h + 1]
    return h if np.all(np.abs(gaps - 0.5 * math.pi) <= _PAIR_ATOL) else 0


def critical_plane_lifetime(
    history: StressHistory,
    angles,
    mat: FatigueMaterial,
    t_task: float,
    n_mean_bins: int = 32,
    n_amp_bins: int = 32,
    hysteresis_gate: float = 0.0,
    include_residue: bool = True,
) -> DamageReport:
    """Damage of one task execution, maximized over cutting planes.

    For every angle the Tresca equivalent history is rainflow-counted,
    binned and accumulated; the worst plane defines D_max and the
    lifetime t_task / D_max (infinite if nothing exceeds the fatigue
    strength). A plane pi/2 after a counted one reuses its cycles with
    negated means (see the module docstring).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("angle set must not be empty")
    if not (math.isfinite(t_task) and t_task > 0.0):
        raise ValueError(f"t_task must be positive and finite, got {t_task}")
    h = _quarter_turn_offset(angles)
    damage = np.empty(angles.size)

    def score(j: int, cycles: rainflow.CycleSet) -> None:
        matrix = rainflow.bin_cycles(cycles, n_mean_bins, n_amp_bins)
        damage[j] = accumulate(matrix, mat)

    for k in range(angles.size - h):
        equivalent = tresca_history(history, angles[k])
        series = rainflow.extract_extrema(history.times, equivalent, hysteresis_gate)
        cycles = rainflow.count_cycles(series, include_residue=include_residue)
        score(k, cycles)
        if h and k > 0:
            score(k + h, rainflow.CycleSet(
                mean=-cycles.mean, amplitude=cycles.amplitude, weight=cycles.weight
            ))
    k_max = int(np.argmax(damage))
    d_max = float(damage[k_max])
    finite = d_max > 0.0
    return DamageReport(
        angles=angles,
        damage=damage,
        d_max=d_max,
        phi_critical=float(angles[k_max]),
        t_task=float(t_task),
        t_life_seconds=(t_task / d_max) if finite else math.inf,
        finite_life=finite,
    )
