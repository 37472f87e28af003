"""Euler-Bernoulli beam discretization by the direct Ritz method.

Square thin-walled tube cross-sections, clamped-free analytic mode shapes
as Ritz basis (eigenfunctions for bending, quarter-wave sines for torsion)
and the elastic stiffness matrix from the deformation energy. Per-beam
elastic coordinates are ordered (torsion, bending-y, bending-z), matching
the curvature vector (theta', v'', w''). This module owns that layout:
``shape_rows`` and ``gram`` build every shape-function matrix on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_FAMILIES = ("theta", "v", "w")  # column order of a link's elastic coordinates
# shapes per family: the quadrature Gram of the first n bending modes misses
# the identity by 7.4e-6 at n = 10, 1.8e-4 at 11 and 5.2e-3 at 12
MAX_MODES = 10

# roots of cos(x)*cosh(x) = -1 (clamped-free bending eigenvalues beta_k * L)
_CLAMPED_FREE_ROOTS = (
    1.8751040687119611,
    4.694091132974175,
    7.854757438237612,
    10.995540734875467,
    14.137168391046471,
)


def clamped_free_root(k: int) -> float:
    """k-th root (1-based) of cos(x)cosh(x) = -1."""
    if k <= len(_CLAMPED_FREE_ROOTS):
        return _CLAMPED_FREE_ROOTS[k - 1]
    x = (2 * k - 1) * math.pi / 2.0
    for _ in range(4):  # Newton on cos(x) + sech(x), numerically stable form
        f = math.cos(x) + 1.0 / math.cosh(x)
        df = -math.sin(x) - math.tanh(x) / math.cosh(x)
        x -= f / df
    return x


@dataclass(frozen=True)
class CrossSection:
    """Thin-walled square tube: outer edge a, wall thickness t."""

    a: float  # m
    t: float  # m
    A_B: float  # m^2
    I_y: float  # m^4
    I_z: float  # m^4
    I_D: float  # m^4


def section_properties(a: float, t: float) -> CrossSection:
    """Closed-form section constants of the hollow square profile.

    A = a^2 - (a-2t)^2, I = (a^4 - (a-2t)^4)/12 and the Bredt thin-wall
    torsion constant I_D = t (a-t)^3.
    """
    if not (0.0 < 2.0 * t < a):
        raise ValueError(f"wall thickness must satisfy 0 < 2t < a, got a={a}, t={t}")
    inner = a - 2.0 * t
    area = a * a - inner * inner
    bending = (a**4 - inner**4) / 12.0
    torsion = t * (a - t) ** 3
    return CrossSection(a=a, t=t, A_B=area, I_y=bending, I_z=bending, I_D=torsion)


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic material."""

    rho: float  # kg/m^3
    E: float  # Pa
    nu: float  # -

    def __post_init__(self):
        for name in ("rho", "E"):  # written so that NaN fails too
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not (0.0 <= self.nu < 0.5):
            raise ValueError(f"nu (Poisson ratio) must lie in [0, 0.5), got {self.nu}")

    @property
    def G(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class BeamSpec:
    """One uniform elastic link: geometry, material and Ritz shape counts."""

    L: float
    section: CrossSection
    material: Material
    n_v: int = 2
    n_w: int = 2
    n_theta: int = 1

    def __post_init__(self):
        if not 0.0 < self.L < math.inf:  # NaN fails too
            raise ValueError(f"beam length must be positive and finite, got {self.L}")
        if min(self.n_v, self.n_w, self.n_theta) < 1:
            raise ValueError("shape-function counts must be >= 1")
        most = max(self.n_v, self.n_w, self.n_theta)
        if most > MAX_MODES:
            raise ValueError(f"shape-function counts must be <= {MAX_MODES}, got {most:g}")

    @property
    def n_elastic(self) -> int:
        return self.n_theta + self.n_v + self.n_w


@dataclass(frozen=True)
class RitzBasis:
    """Shape-function bundle for one beam with analytic derivatives.

    Bending uses the clamped-free eigenfunctions, normalised so that the
    integral of phi_k^2 over the span equals L; torsion uses the
    quarter-wave sines sin((2k-1) pi xi / (2L)). All satisfy the clamped
    conditions at xi = 0 (zero value, and zero slope for bending). Each
    family returns shape (n,) for scalar xi, else (n, len(xi)).
    """

    L: float
    n_v: int
    n_w: int
    n_theta: int

    def v(self, xi, deriv: int = 0) -> np.ndarray:
        return self._modes(self._bending, self.n_v, xi, deriv)

    def w(self, xi, deriv: int = 0) -> np.ndarray:
        return self._modes(self._bending, self.n_w, xi, deriv)

    def theta(self, xi, deriv: int = 0) -> np.ndarray:
        return self._modes(self._torsion, self.n_theta, xi, deriv)

    @staticmethod
    def _modes(mode, n: int, xi, deriv: int) -> np.ndarray:
        if deriv not in (0, 1, 2):
            raise ValueError(f"unsupported derivative order {deriv}")
        xi = np.asarray(xi, dtype=float)
        out = np.array([mode(k, np.atleast_1d(xi), deriv) for k in range(1, n + 1)])
        return out[:, 0] if xi.ndim == 0 else out

    def _bending(self, k: int, x: np.ndarray, deriv: int) -> np.ndarray:
        beta = clamped_free_root(k) / self.L
        bl = beta * self.L
        sigma = (math.cosh(bl) + math.cos(bl)) / (math.sinh(bl) + math.sin(bl))
        bx = beta * x
        if deriv == 0:
            return np.cosh(bx) - np.cos(bx) - sigma * (np.sinh(bx) - np.sin(bx))
        if deriv == 1:
            return beta * (np.sinh(bx) + np.sin(bx) - sigma * (np.cosh(bx) - np.cos(bx)))
        return beta**2 * (np.cosh(bx) + np.cos(bx) - sigma * (np.sinh(bx) + np.sin(bx)))

    def _torsion(self, k: int, x: np.ndarray, deriv: int) -> np.ndarray:
        lam = (2 * k - 1) * math.pi / (2.0 * self.L)
        if deriv == 0:
            return np.sin(lam * x)
        if deriv == 1:
            return lam * np.cos(lam * x)
        return -(lam**2) * np.sin(lam * x)


def shape_basis(spec: BeamSpec) -> RitzBasis:
    return RitzBasis(spec.L, spec.n_v, spec.n_w, spec.n_theta)


@lru_cache(maxsize=64)
def _gauss_nodes(L: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * L * (x + 1.0), 0.5 * L * w


def quadrature(spec: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, L], sized for mode products."""
    return _gauss_nodes(spec.L, 16 + 8 * max(spec.n_v, spec.n_w, spec.n_theta))


def _columns(spec: BeamSpec) -> tuple[slice, slice, slice]:
    """Columns of the torsion, bending-y and bending-z shapes."""
    i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
    return slice(0, i0), slice(i0, i1), slice(i1, spec.n_elastic)


def shape_rows(spec: BeamSpec, basis, xi, derivs, reduce=lambda f: f) -> np.ndarray:
    """Rows (theta^(d0), v^(d1), w^(d2)) at xi, each in its family's columns;
    a None order leaves its row zero. Shape (3, m) for scalar xi, else
    (3, m, len(xi)), unless ``reduce`` maps each family's (n, len(xi))
    block to (n,) on the family's own rows, giving (3, m).
    """
    blocks = [None if d is None else reduce(getattr(basis, fam)(xi, d))
              for fam, d in zip(_FAMILIES, derivs)]
    tail = next(b.shape[1:] for b in blocks if b is not None)
    rows = np.zeros((3, spec.n_elastic) + tail)
    for k, (cols, block) in enumerate(zip(_columns(spec), blocks)):
        if block is not None:
            rows[k, cols] = block
    return rows


def rotation_rows(spec: BeamSpec, rows: np.ndarray) -> np.ndarray:
    """Small-rotation rows (theta, -w, v) of family rows (theta, v, w), as
    Psi = (theta, -w', v') follows from (theta, v', w'). Only the w columns
    are negated, so every zero stays +0.0."""
    psi = rows[[0, 2, 1]]
    psi[1, _columns(spec)[2]] *= -1.0
    return psi


def gram(spec: BeamSpec, basis, derivs, coeffs) -> np.ndarray:
    """Block-diagonal sum over the families of c * int(f^(d) f^(d)^T); a
    None coefficient leaves its block zero. Symmetrised as 0.5 (G + G^T),
    bitwise-exact whatever the BLAS path."""
    xi, wts = quadrature(spec)
    rw = np.sqrt(wts)  # sqrt-weighted products keep each block symmetric
    G = np.zeros((spec.n_elastic, spec.n_elastic))
    for fam, cols, d, c in zip(_FAMILIES, _columns(spec), derivs, coeffs):
        if c is not None:
            f = getattr(basis, fam)(xi, d) * rw
            G[cols, cols] = c * f @ f.T
    return 0.5 * (G + G.T)


def stiffness_matrix(spec: BeamSpec, basis: RitzBasis | None = None) -> np.ndarray:
    """Elastic stiffness, block-diagonal over (torsion, v, w).

    Torsion block G I_D * int(theta' theta'^T), bending blocks
    E I_z * int(v'' v''^T) and E I_y * int(w'' w''^T). Torsion uses the
    first spatial derivative (Saint-Venant energy G I_D (theta')^2 / 2).
    """
    E, G, sec = spec.material.E, spec.material.G, spec.section
    basis = shape_basis(spec) if basis is None else basis
    return gram(spec, basis, (1, 2, 2), (G * sec.I_D, E * sec.I_z, E * sec.I_y))


def bending_mass_matrix(spec: BeamSpec) -> np.ndarray:
    """Consistent translational mass matrix rho A * int(v v^T) of the
    bending-y family; used for modal checks against analytic frequencies."""
    rho_a = spec.material.rho * spec.section.A_B
    v = _columns(spec)[1]
    return gram(spec, shape_basis(spec), (None, 0, None), (None, rho_a, None))[v, v]


def curvature_map(spec: BeamSpec, xi: float) -> np.ndarray:
    """Linear map C (3 x n_elastic) with kappa = C @ q_e at station xi."""
    return shape_rows(spec, shape_basis(spec), xi, (1, 2, 2))
