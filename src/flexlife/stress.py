"""Plane stress at a material point of the thin-walled link wall.

Curvature histories at the critical station map linearly to the normal
stress sigma_xx and, by projecting the two Saint-Venant torsion shear
components onto the local wall tangent, to a single in-plane shear
sigma_xy. Cutting-plane rotation and the Tresca equivalent stress act on
that plane stress state (sigma_yy = 0 at the free surface).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .beam import CrossSection, Material

_MIDLINE_RTOL = 1e-6


@dataclass(frozen=True)
class MaterialPoint:
    """Point on the section wall midline where stresses are evaluated.

    Coordinates (y, z) lie on the midline square of half-width (a-t)/2;
    the tangent is the unit wall direction, counterclockwise around the
    section when viewed along +x.
    """

    xi: float
    y: float
    z: float
    tangent: tuple[float, float]


def _face_tangent(y: float, z: float, half: float) -> tuple[float, float]:
    # counterclockwise around the section; corners resolve to the z-face
    if abs(abs(z) - half) <= abs(abs(y) - half):
        return (-1.0, 0.0) if z > 0 else (1.0, 0.0)
    return (0.0, 1.0) if y > 0 else (0.0, -1.0)


def material_point(section: CrossSection, xi: float, y: float, z: float) -> MaterialPoint:
    """Validated wall-midline point with the tangent of its face; a NaN or
    infinite coordinate fails (max(abs(y), abs(z)) drops a NaN z)."""
    half = 0.5 * (section.a - section.t)
    on_wall = abs(max(abs(y), abs(z)) - half) <= _MIDLINE_RTOL * section.a
    inside = max(abs(y), abs(z)) <= half * (1.0 + _MIDLINE_RTOL)
    if not (math.isfinite(y) and math.isfinite(z) and on_wall and inside):
        raise ValueError(
            f"point (y={y}, z={z}) is not on the wall midline (half-width {half:.6g})"
        )
    return MaterialPoint(xi=xi, y=y, z=z, tangent=_face_tangent(y, z, half))


def default_stress_point(section: CrossSection, xi_crit: float = 0.0) -> MaterialPoint:
    """Outer mid-wall point of the top face, where bending stress peaks."""
    return material_point(section, xi_crit, 0.0, 0.5 * (section.a - section.t))


def check_sample_times(times: np.ndarray) -> None:
    """ValueError unless the sample times are finite and never decrease;
    names the first sample that is earlier than the one before it.

    One pass accepts a good grid: finite ends and no sample below the one
    before it leave every interior sample finite, since an interior inf or
    nan fails some comparison. Only a rejected grid is diagnosed."""
    if times.size == 0 or (
        math.isfinite(times[0]) and math.isfinite(times[-1])
        and np.all(times[1:] >= times[:-1])
    ):
        return
    if not np.all(np.isfinite(times)):
        raise ValueError("stress history has non-finite sample times")
    back = np.flatnonzero(np.diff(times) < 0.0)
    if back.size:
        k = int(back[0]) + 1
        raise ValueError(
            f"sample times go backwards at index {k}: "
            f"t = {float(times[k])!r} after {float(times[k - 1])!r}"
        )


@dataclass(frozen=True)
class StressHistory:
    """Sampled plane-stress components at one material point."""

    times: np.ndarray
    sigma_xx: np.ndarray
    sigma_xy: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        sxx = np.asarray(self.sigma_xx, dtype=float)
        sxy = np.asarray(self.sigma_xy, dtype=float)
        if not (t.shape == sxx.shape == sxy.shape) or t.ndim != 1:
            raise ValueError("times and stress components must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("stress history has no samples")
        check_sample_times(t)
        if not (np.all(np.isfinite(sxx)) and np.all(np.isfinite(sxy))):
            raise ValueError("stress history contains non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sigma_xx", sxx)
        object.__setattr__(self, "sigma_xy", sxy)

    def __len__(self) -> int:
        return self.times.size

    def scaled(self, factor: float) -> "StressHistory":
        return replace(
            self, sigma_xx=self.sigma_xx * factor, sigma_xy=self.sigma_xy * factor
        )


def stresses_from_curvature(
    times, kappa, point: MaterialPoint, mat: Material
) -> StressHistory:
    """Plane stress history from a curvature history (columns theta', v'', w'').

    sigma_xx = E(-v'' y - w'' z); the raw torsion shears (-G theta' z,
    +G theta' y) are projected onto the wall tangent to give sigma_xy.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim != 2 or kappa.shape[1] != 3:
        raise ValueError(f"expected curvature history of shape (n, 3), got {kappa.shape}")
    tp, vpp, wpp = kappa[:, 0], kappa[:, 1], kappa[:, 2]
    sxx = mat.E * (-vpp * point.y - wpp * point.z)
    ty, tz = point.tangent
    sxy = (-mat.G * tp * point.z) * ty + (mat.G * tp * point.y) * tz
    return StressHistory(times=np.asarray(times, dtype=float), sigma_xx=sxx, sigma_xy=sxy)


def tau_phi(history: StressHistory, phi: float) -> np.ndarray:
    """Shear stress history on the cutting plane at angle phi (sigma_yy = 0)."""
    return -0.5 * history.sigma_xx * np.sin(2.0 * phi) + history.sigma_xy * np.cos(2.0 * phi)


def tresca_history(history: StressHistory, phi: float) -> np.ndarray:
    """Tresca equivalent stress history: twice the cutting-plane shear."""
    return 2.0 * tau_phi(history, phi)


def write_stress_csv(path, history: StressHistory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sigma_xx", "sigma_xy"])
        for t, sxx, sxy in zip(history.times, history.sigma_xx, history.sigma_xy):
            writer.writerow([f"{t:.17g}", f"{sxx:.17g}", f"{sxy:.17g}"])


def read_stress_csv(path) -> StressHistory:
    """Stress history from a CSV whose header names the columns t,
    sigma_xx and sigma_xy, in any order, among any others. A leading UTF-8
    byte-order mark, as spreadsheet programs write, is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        columns = []
        for col in ("t", "sigma_xx", "sigma_xy"):
            if col not in header:
                raise ValueError(f"stress CSV is missing required column '{col}'")
            columns.append(header.index(col))
        with warnings.catch_warnings():
            # a file without data rows warns here; StressHistory rejects it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", usecols=columns, ndmin=2)
    return StressHistory(times=data[:, 0], sigma_xx=data[:, 1], sigma_xy=data[:, 2])
