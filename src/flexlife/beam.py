"""Euler-Bernoulli beam discretization by the direct Ritz method.

Square thin-walled tube cross-sections, clamped-free analytic mode shapes
as Ritz basis (eigenfunctions for bending, quarter-wave sines for torsion)
and the elastic stiffness matrix from the deformation energy. Per-beam
elastic coordinates are ordered (torsion, bending-y, bending-z), matching
the curvature vector (theta', v'', w'').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        for name in ("rho", "E"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
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
        if self.L <= 0.0:
            raise ValueError("beam length must be positive")
        if min(self.n_v, self.n_w, self.n_theta) < 1:
            raise ValueError("shape-function counts must be >= 1")

    @property
    def n_elastic(self) -> int:
        return self.n_theta + self.n_v + self.n_w


def bending_modes(L: float, n: int, xi, deriv: int = 0) -> np.ndarray:
    """Clamped-free bending eigenfunctions (or derivatives) at xi.

    Returns shape (n,) for scalar xi, else (n, len(xi)). Normalization is
    the classic one with integral of phi_k^2 over the span equal to L.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    x = np.atleast_1d(xi)
    out = np.empty((n, x.size))
    for k in range(1, n + 1):
        beta = clamped_free_root(k) / L
        bl = beta * L
        sigma = (math.cosh(bl) + math.cos(bl)) / (math.sinh(bl) + math.sin(bl))
        bx = beta * x
        if deriv == 0:
            out[k - 1] = np.cosh(bx) - np.cos(bx) - sigma * (np.sinh(bx) - np.sin(bx))
        elif deriv == 1:
            out[k - 1] = beta * (np.sinh(bx) + np.sin(bx) - sigma * (np.cosh(bx) - np.cos(bx)))
        elif deriv == 2:
            out[k - 1] = beta**2 * (np.cosh(bx) + np.cos(bx) - sigma * (np.sinh(bx) + np.sin(bx)))
        else:
            raise ValueError(f"unsupported derivative order {deriv}")
    return out[:, 0] if scalar else out


def torsion_modes(L: float, n: int, xi, deriv: int = 0) -> np.ndarray:
    """Clamped-free torsion modes sin((2k-1) pi xi / (2L)) or derivatives."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    x = np.atleast_1d(xi)
    out = np.empty((n, x.size))
    for k in range(1, n + 1):
        lam = (2 * k - 1) * math.pi / (2.0 * L)
        if deriv == 0:
            out[k - 1] = np.sin(lam * x)
        elif deriv == 1:
            out[k - 1] = lam * np.cos(lam * x)
        elif deriv == 2:
            out[k - 1] = -(lam**2) * np.sin(lam * x)
        else:
            raise ValueError(f"unsupported derivative order {deriv}")
    return out[:, 0] if scalar else out


class RitzBasis:
    """Shape-function bundle for one beam with analytic derivatives.

    All bases satisfy the clamped conditions at xi = 0 (zero value, and
    zero slope for bending).
    """

    def __init__(self, L: float, n_v: int, n_w: int, n_theta: int):
        self.L = float(L)
        self.n_v = int(n_v)
        self.n_w = int(n_w)
        self.n_theta = int(n_theta)

    def v(self, xi, deriv: int = 0) -> np.ndarray:
        return bending_modes(self.L, self.n_v, xi, deriv)

    def w(self, xi, deriv: int = 0) -> np.ndarray:
        return bending_modes(self.L, self.n_w, xi, deriv)

    def theta(self, xi, deriv: int = 0) -> np.ndarray:
        return torsion_modes(self.L, self.n_theta, xi, deriv)


def shape_basis(spec: BeamSpec) -> RitzBasis:
    return RitzBasis(spec.L, spec.n_v, spec.n_w, spec.n_theta)


@lru_cache(maxsize=64)
def _gauss_nodes(L: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * L * (x + 1.0), 0.5 * L * w


def quadrature(spec: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, L], sized for mode products."""
    return _gauss_nodes(spec.L, 16 + 8 * max(spec.n_v, spec.n_w, spec.n_theta))


def stiffness_matrix(spec: BeamSpec, basis: RitzBasis | None = None) -> np.ndarray:
    """Elastic stiffness, block-diagonal over (torsion, v, w).

    Torsion block G I_D * int(theta' theta'^T), bending blocks
    E I_z * int(v'' v''^T) and E I_y * int(w'' w''^T). Torsion uses the
    first spatial derivative (Saint-Venant energy G I_D (theta')^2 / 2).
    """
    if basis is None:
        basis = shape_basis(spec)
    xi, wts = quadrature(spec)
    E = spec.material.E
    G = spec.material.G
    sec = spec.section

    # sqrt-weighted Gram products keep the blocks bitwise symmetric
    rw = np.sqrt(wts)
    tp = basis.theta(xi, 1) * rw
    vpp = basis.v(xi, 2) * rw
    wpp = basis.w(xi, 2) * rw
    k_t = G * sec.I_D * tp @ tp.T
    k_v = E * sec.I_z * vpp @ vpp.T
    k_w = E * sec.I_y * wpp @ wpp.T

    m = spec.n_elastic
    K = np.zeros((m, m))
    i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
    K[:i0, :i0] = k_t
    K[i0:i1, i0:i1] = k_v
    K[i1:, i1:] = k_w
    return 0.5 * (K + K.T)  # bitwise-exact symmetry regardless of BLAS path


def bending_mass_matrix(spec: BeamSpec) -> np.ndarray:
    """Consistent translational mass matrix rho A * int(v v^T) of the
    bending-y family; used for modal checks against analytic frequencies."""
    xi, wts = quadrature(spec)
    v = bending_modes(spec.L, spec.n_v, xi) * np.sqrt(wts)
    M = spec.material.rho * spec.section.A_B * v @ v.T
    return 0.5 * (M + M.T)


def curvature_map(spec: BeamSpec, xi: float) -> np.ndarray:
    """Linear map C (3 x n_elastic) with kappa = C @ q_e at station xi."""
    basis = shape_basis(spec)
    m = spec.n_elastic
    C = np.zeros((3, m))
    i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
    C[0, :i0] = basis.theta(xi, 1)
    C[1, i0:i1] = basis.v(xi, 2)
    C[2, i1:] = basis.w(xi, 2)
    return C
