"""Dynamics of the 3-DOF articulated arm with two elastic links.

Topology: vertical base joint (q1), shoulder (q2) and elbow (q3) with
parallel horizontal axes, an elastic link between shoulder and elbow and a
second elastic link carrying a point payload. Every joint has an elastic
gearbox: the motor coordinate (output side, after the gear ratio) couples
to the link coordinate through a torsional spring-damper, so the
generalized coordinates are q = (q_M, q_L, q_e1, q_e2).

The mass matrix is assembled from per-link inertia integrals of the Ritz
shape functions (precomputed once per design) combined with the joint
rotation matrices; the elastic coordinates are frozen at zero in the
inertia terms (small-deflection linearization) while the potential keeps
the full elastic coupling, so the model is an exact Lagrangian system and
conserves energy without dissipation.

With the elastic coordinates frozen, M depends only on the shoulder and
elbow angles and is a trigonometric polynomial of order <= 2 in each of
them. The gravity potential is of order 1 in the same angles and bilinear
in the elastic coordinates of the two links, i.e. a sum over the monomials
(1, q_e1) x (1, q_e2). Every model therefore samples both once on a 5x5
grid of angles and keeps one table of 25 Fourier coefficients holding M
and the gravity monomial weights side by side, with their first angle
derivatives folded in. One read of that table gives M, its analytic
angle derivatives (the velocity forces) and the gravity forces, and one
with the second derivatives the exact potential Hessian; the spring and
damping forces are one constant linear map of (q, qd). The constructor checks the table against the assembly and the
potential gradient at off-grid states and refuses a model whose mass
matrix or gravity potential falls outside that form.

Everything is assembled in the frame co-rotating with the base joint; the
mass matrix is independent of q1 (cyclic coordinate) and gravity points
along the rotation axis, so nothing is lost.

Of scipy, only two compiled modules are used: VODE (``integrate._vode``)
and LAPACK (``linalg._flapack``). ``_scipy_extension`` loads them on first
use, after the top-level ``scipy`` package but without the package inits
of ``scipy.integrate`` and ``scipy.linalg``, which would bring in some 600
further modules and about 50 MB of memory. So only a process that
integrates loads scipy, and it loads little of it.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .beam import BeamSpec, Material, RitzBasis, quadrature, section_properties, shape_basis
from .beam import curvature_map, gram, rotation_rows, shape_rows, stiffness_matrix
from .trajectory import TrajectoryPlan

_EX = np.array([1.0, 0.0, 0.0])
# Harmonic table of M and the gravity potential. The order-2 Fourier basis
# 1, cos q, cos 2q, sin q, sin 2q is written as cos(k q - phase): one
# cosine gives the values and each derivative is a further quarter turn,
# scaled by k. Five equispaced angles determine such a polynomial; the
# constructor checks the table at the off-grid (q2, q3) pairs below.
_K = np.array([0.0, 1.0, 2.0, 1.0, 2.0])
_PHASE = np.array([0.0, 0.0, 0.0, 0.5, 0.5]) * math.pi
# the potential Hessian reads the gravity weights as values, d/dq2, d/dq3,
# d2/dq2^2, d2/dq2dq3 and d2/dq3^2: products of a q2 and a q3 row of these
# derivative orders
_ORDERS = np.array([[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]])
_READ_PHASE = _PHASE - 0.5 * math.pi * _ORDERS[..., None]
_READ_SCALE = _K ** _ORDERS[..., None]
_HALF_PI = 0.5 * math.pi  # the phase of the sines, exactly
# d/dq of the basis is the basis times _DERIV: column j holds the derivative
# of function j (d cos kq = -k sin kq, d sin kq = k cos kq)
_DERIV = np.zeros((5, 5))
_DERIV[[3, 4, 1, 2], [1, 2, 3, 4]] = (-1.0, -2.0, 1.0, 2.0)
_GRID = 2.0 * math.pi * np.arange(5) / 5.0
_CHECK_ANGLES = np.array([[0.3, 1.1], [-1.7, -0.4], [2.9, 5.6], [4.1, -2.6], [-5.3, 0.9]])
_TABLE_RTOL = 1e-12

GRAVITY_DEFAULT = (0.0, 0.0, -9.81)


class SimulationError(RuntimeError):
    """Raised when the integrator fails or produces non-finite states. One
    raised in simulate carries ``stats``: the seconds of the stages reached."""

    def __init__(self, message: str, t_failure: float | None = None):
        super().__init__(message)
        self.t_failure = t_failure


@dataclass(frozen=True)
class DriveParams:
    """One joint drive: rotor, gear ratio and gear spring-damper.

    Stiffness, damping and the torque limit refer to the gear output side;
    the rotor inertia is motor-side and gets reflected by the squared
    ratio.
    """

    rotor_inertia: float
    gear_ratio: float
    stiffness: float
    damping: float = 0.0
    torque_limit: float = math.inf

    def __post_init__(self):
        # written so that NaN fails every check; only the torque limit may
        # be infinite (no saturation)
        for name in ("rotor_inertia", "gear_ratio", "stiffness"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not self.torque_limit > 0.0:
            raise ValueError(f"torque_limit must be positive, got {self.torque_limit}")
        if not 0.0 <= self.damping < math.inf:
            raise ValueError(f"damping must be >= 0 and finite, got {self.damping}")

    @property
    def reflected_inertia(self) -> float:
        return self.rotor_inertia * self.gear_ratio**2


@dataclass(frozen=True)
class LinkParams:
    """Geometry and discretization of one elastic link.

    damping_beta is the stiffness-proportional structural damping time
    constant (force -beta K qd_e); zero keeps the beam conservative.
    """

    length: float
    wall_thickness: float
    n_v: int = 2
    n_w: int = 2
    n_theta: int = 1
    xi_crit: float = 0.0
    damping_beta: float = 0.0
    stress_y: float | None = None  # default: top-face mid-wall point
    stress_z: float | None = None

    def __post_init__(self):
        for name in ("length", "wall_thickness"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.damping_beta < math.inf:
            raise ValueError(f"damping_beta must be >= 0 and finite, got {self.damping_beta}")
        for name in ("stress_y", "stress_z"):
            if getattr(self, name) is not None and not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be None or finite, got {getattr(self, name)}")
        if not (0.0 <= self.xi_crit <= self.length):
            raise ValueError(f"xi_crit={self.xi_crit} outside the link span [0, {self.length}]")


@dataclass(frozen=True)
class RobotDesign:
    """Full parameter set of one candidate: fixed part plus the variable
    wall thicknesses living inside ``links``."""

    material: Material
    edge_length: float
    links: tuple[LinkParams, LinkParams]
    drives: tuple[DriveParams, DriveParams, DriveParams]
    hub1_inertia: float = 0.0
    hub2_mass: float = 0.0
    hub2_inertia: float = 0.0
    payload_mass: float = 0.0
    gravity: tuple[float, float, float] = GRAVITY_DEFAULT

    def __post_init__(self):
        if len(self.links) != 2 or len(self.drives) != 3:
            raise ValueError("the arm has exactly two elastic links and three drives")
        if not 0.0 < self.edge_length < math.inf:
            raise ValueError(f"edge_length must be positive and finite, got {self.edge_length}")
        for name in ("hub1_inertia", "hub2_mass", "hub2_inertia", "payload_mass"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if len(self.gravity) != 3 or not all(map(math.isfinite, self.gravity)):
            raise ValueError(f"gravity must be three finite components, got {self.gravity}")

    def beam_spec(self, index: int) -> BeamSpec:
        link = self.links[index]
        return BeamSpec(
            L=link.length,
            section=section_properties(self.edge_length, link.wall_thickness),
            material=self.material,
            n_v=link.n_v,
            n_w=link.n_w,
            n_theta=link.n_theta,
        )

    def with_thicknesses(self, t1: float, t2: float) -> "RobotDesign":
        return replace(
            self,
            links=(
                replace(self.links[0], wall_thickness=t1),
                replace(self.links[1], wall_thickness=t2),
            ),
        )


@dataclass
class GeneralizedState:
    """Generalized coordinates (q_M, q_L, q_e) and their rates."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qd = np.asarray(self.qd, dtype=float)
        if self.q.shape != self.qd.shape or self.q.ndim != 1:
            raise ValueError("q and qd must be 1-d arrays of equal length")


def _harmonics(q23, reads: int) -> np.ndarray:
    """Products of the Fourier bases of q2 and q3 at the angle pairs q23
    (..., 2) for the first ``reads`` reads of the table; (..., reads, 25)."""
    U = _READ_SCALE[:reads] * np.cos(q23[..., None, :, None] * _K - _READ_PHASE[:reads])
    basis = U[..., 0, :, None] * U[..., 1, None, :]
    return basis.reshape(basis.shape[:-2] + (25,))


def _harmonic_row(q2: float, q3: float) -> np.ndarray:
    """The values read of :func:`_harmonics` at one angle pair, (25,), from
    the same cosines and products in Python floats. k q - phase is written
    out: 0 (cos 0 = 1), q, 2q, q - pi/2 and 2q - pi/2 are the floats that
    q * k - phase gives."""
    try:
        u2 = (1.0, math.cos(q2), math.cos(q2 * 2.0), math.cos(q2 - _HALF_PI),
              math.cos(q2 * 2.0 - _HALF_PI))
        u3 = (1.0, math.cos(q3), math.cos(q3 * 2.0), math.cos(q3 - _HALF_PI),
              math.cos(q3 * 2.0 - _HALF_PI))
    except ValueError:  # an infinite angle: NaN, as np.cos gives, not an error
        return _harmonics(np.array([q2, q3]), 1)[0]
    return np.array([a * b for a in u2 for b in u3])


def _own(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(own, source) of the rows (k, w) of a batch. own marks the rows that
    need their own work: row 0 and every row whose bits differ from row
    0's. The other rows hold row 0's bits, so row 0's results are theirs
    bit for bit: source[i] is row i's place among the own rows, 0 for
    them."""
    bits = rows.view(np.int64)
    own = (bits != bits[0]).any(axis=1)
    own[0] = True
    return own, np.where(own, np.cumsum(own) - 1, 0)


def _roty(q: np.ndarray) -> np.ndarray:
    """Batched rotation about the local y axis; shape (..., 3, 3)."""
    q = np.asarray(q)
    c, s = np.cos(q), np.sin(q)
    R = np.zeros(q.shape + (3, 3), dtype=c.dtype)
    R[..., 0, 0] = c
    R[..., 0, 2] = s
    R[..., 1, 1] = 1.0
    R[..., 2, 0] = -s
    R[..., 2, 2] = c
    return R


def _skew(v: np.ndarray) -> np.ndarray:
    """Batched cross-product matrix; shape (..., 3, 3)."""
    v = np.asarray(v)
    S = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def _t(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


class _BeamData:
    """Per-link shape-function integrals used by the assembly.

    Translational map Phi(xi) (rows x, y, z over the elastic coordinates
    (theta, v, w)) and the small-rotation map Psi(xi) with rows
    (theta, -w', v').
    """

    def __init__(self, spec: BeamSpec, basis: RitzBasis):
        xi, wts = quadrature(spec)
        rho = spec.material.rho
        rhoA = rho * spec.section.A_B

        self.m = spec.n_elastic
        self.L = spec.L
        self.mb = rhoA * spec.L
        self.s1 = rhoA * spec.L**2 / 2.0
        self.s2 = rhoA * spec.L**3 / 3.0

        self.P0 = rhoA * shape_rows(spec, basis, xi, (None, 0, 0), lambda f: f @ wts)
        self.P1 = rhoA * shape_rows(spec, basis, xi, (None, 0, 0), lambda f: (xi * f) @ wts)
        self.PP = gram(spec, basis, (0, 0, 0), (None, rhoA, rhoA))

        D = np.diag([rho * spec.section.I_D, rho * spec.section.I_y, rho * spec.section.I_z])
        self.D = D
        self.DL = D * spec.L
        # int Psi = (int theta, -w(L), v(L)): torsion by quadrature, bending exact
        SPsi = shape_rows(spec, basis, xi, (0, None, None), lambda f: f @ wts)
        SPsi += shape_rows(spec, basis, spec.L, (None, 0, 0))
        self.DSPsi = D @ rotation_rows(spec, SPsi)
        self.RPsi = gram(spec, basis, (0, 1, 1), (D[0, 0], D[2, 2], D[1, 1]))

        self.PhiL = shape_rows(spec, basis, spec.L, (None, 0, 0))
        self.PsiL = rotation_rows(spec, shape_rows(spec, basis, spec.L, (0, 1, 1)))

        self.K = stiffness_matrix(spec, basis)


class RobotModel:
    """Precomputed assembly data and kinematics for one design."""

    def __init__(self, design: RobotDesign):
        self.design = design
        spec1, spec2 = design.beam_spec(0), design.beam_spec(1)
        self.beam1 = _BeamData(spec1, shape_basis(spec1))
        self.beam2 = _BeamData(spec2, shape_basis(spec2))
        self.m1, self.m2 = self.beam1.m, self.beam2.m
        self.n = 6 + self.m1 + self.m2
        self.sl1 = slice(6, 6 + self.m1)
        self.sl2 = slice(6 + self.m1, self.n)
        self.B = np.array([d.reflected_inertia for d in design.drives])
        self.k_gear = np.array([d.stiffness for d in design.drives])
        self.d_gear = np.array([d.damping for d in design.drives])
        self.tau_limit = np.array([d.torque_limit for d in design.drives])
        self.gravity = np.asarray(design.gravity, dtype=float)
        self.curv1 = curvature_map(spec1, design.links[0].xi_crit)
        self.curv2 = curvature_map(spec2, design.links[1].xi_crit)
        # gravity weight on the link-1 tip path (hub, second beam, payload)
        self._m_tip = design.hub2_mass + self.beam2.mb + design.payload_mass
        # spring and damping forces -(K q + D qd) of the gears and beams as
        # one map of x = (q, qd): x @ self._linear, with K and D symmetric
        KD = np.zeros((2, self.n, self.n))
        for k, per_joint in enumerate((self.k_gear, self.d_gear)):
            gear = np.diag(per_joint)
            KD[k, :6, :6] = np.block([[gear, -gear], [-gear, gear]])
        for beam, sl, link in ((self.beam1, self.sl1, design.links[0]),
                               (self.beam2, self.sl2, design.links[1])):
            KD[0, sl, sl] = beam.K
            KD[1, sl, sl] = link.damping_beta * beam.K
        self._linear = -KD.reshape(2 * self.n, self.n)
        # M(q2, q3) = sum_jk A_jk u_j(q2) u_k(q3) and V_grav = sum_jk u_j(q2)
        # u_k(q3) e1^T C_jk e2 with e = (1, q_e) of each link: 5-point real
        # DFT of the samples along each angle
        M_grid = self.mass_matrix_batch(_GRID[:, None], _GRID[None, :])
        samples = np.concatenate(
            (M_grid.reshape(5, 5, -1), self._gravity_monomials().reshape(5, 5, -1)), axis=-1
        )
        dft = np.linalg.inv(np.cos(np.multiply.outer(_GRID, _K) - _PHASE))
        table = np.einsum("jp,kr,prc->jkc", dft, dft, samples)
        # the d/dq2 and d/dq3 coefficients fold _DERIV into one angle's index
        # (exact: each row of _DERIV has one entry, +-1 or +-2). The columns
        # [M | dM/dq2 | dM/dq3 | C | dC/dq2 | dC/dq3] then come from one read
        # of the 25 value harmonics.
        folded = np.stack((table, np.einsum("pj,jkc->pkc", _DERIV, table),
                           np.einsum("rk,jkc->jrc", _DERIV, table)), axis=2).reshape(25, 3, -1)
        n2 = self.n**2
        self._table = np.concatenate(
            (folded[..., :n2].reshape(25, -1), folded[..., n2:].reshape(25, -1)), axis=1
        )
        # off-grid check states: the check angles, twisted gears and small
        # non-zero elastic coordinates
        Q = np.zeros((len(_CHECK_ANGLES), self.n))
        Q[:, :3] = 0.01 * np.cos(np.arange(3) + 0.5)
        Q[:, 4:6] = _CHECK_ANGLES
        Q[:, 6:] = 1e-3 * np.cos(np.add.outer(np.arange(len(Q)), 1.3 * np.arange(self.n - 6)))
        M, f = self.mass_and_forces(np.concatenate((Q, np.zeros_like(Q)), axis=-1))
        for what, value, ref in (
            ("mass matrix is not an order-2 trigonometric polynomial in the joint angles",
             M, self.mass_matrix_batch(Q[:, 4], Q[:, 5])),
            ("gravity potential is not an order-2 trigonometric polynomial in the joint "
             "angles, bilinear in the elastic coordinates of the two links",
             -f, self.potential_grad(Q)),
        ):
            err = np.abs(value - ref).max() / np.abs(ref).max()
            if not err <= _TABLE_RTOL:
                raise ValueError(f"{what} (table residual {err:.2e} > {_TABLE_RTOL:.0e})")

    # ----- mass matrix -------------------------------------------------

    def _add_beam(self, M, bd: _BeamData, Jp0, Jw, R, sl: slice) -> None:
        axis = R[..., :, 0]
        At = _skew(axis)
        AJ = At @ Jw
        M += bd.mb * _t(Jp0) @ Jp0
        T1 = _t(Jp0) @ AJ
        M -= bd.s1 * (T1 + _t(T1))
        M += bd.s2 * _t(AJ) @ AJ
        B1 = _t(Jp0) @ (R @ bd.P0)
        G2 = _t(Jw) @ (At @ (R @ bd.P1))
        G3 = _t(Jw) @ (R @ bd.DSPsi)
        cross = B1 + G2 + G3
        M[..., :, sl] += cross
        M[..., sl, :] += _t(cross)
        M[..., sl, sl] += bd.PP + bd.RPsi
        M += _t(Jw) @ (R @ bd.DL @ _t(R)) @ Jw

    def mass_matrix_batch(self, q2, q3) -> np.ndarray:
        """Mass matrices for batched shoulder/elbow angles; (..., n, n).

        This is the assembly the Fourier table is fitted to and checked
        against; the dynamics read the table.
        """
        q2 = np.asarray(q2, dtype=float)
        q3 = np.asarray(q3, dtype=float)
        shape = np.broadcast_shapes(q2.shape, q3.shape)
        q2 = np.broadcast_to(q2, shape)
        q3 = np.broadcast_to(q3, shape)
        n = self.n
        R2 = _roty(q2)
        R23 = R2 @ _roty(q3)

        M = np.zeros(shape + (n, n))
        idx = np.arange(3)
        M[..., idx, idx] += self.B
        M[..., 3, 3] += self.design.hub1_inertia

        Jw1 = np.zeros(shape + (3, n))
        Jw1[..., 2, 3] = 1.0  # base joint axis e_z
        Jw1[..., 1, 4] = 1.0  # shoulder axis e_y
        Jp0_1 = np.zeros(shape + (3, n))
        self._add_beam(M, self.beam1, Jp0_1, Jw1, R2, self.sl1)

        p_t1 = self.beam1.L * R2[..., :, 0]
        Jp_t1 = -_skew(p_t1) @ Jw1
        Jp_t1[..., :, self.sl1] += R2 @ self.beam1.PhiL
        Jw_t1 = Jw1.copy()
        Jw_t1[..., :, self.sl1] += R2 @ self.beam1.PsiL
        a3 = R2[..., :, 1]
        Jw2 = Jw_t1.copy()
        Jw2[..., :, 5] += a3

        self._add_beam(M, self.beam2, Jp_t1, Jw2, R23, self.sl2)

        M += self.design.hub2_mass * _t(Jp_t1) @ Jp_t1
        spin = (a3[..., None, :] @ Jw_t1)[..., 0, :]
        M += self.design.hub2_inertia * spin[..., :, None] * spin[..., None, :]

        r_pl = self.beam2.L * R23[..., :, 0]
        J_pl = Jp_t1 - _skew(r_pl) @ Jw2
        J_pl[..., :, self.sl2] += R23 @ self.beam2.PhiL
        M += self.design.payload_mass * _t(J_pl) @ J_pl
        return M

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        return self.mass_gradients(q)[0]

    def _read(self, q23: np.ndarray) -> np.ndarray:
        """The table's columns [M | dM/dq2 | dM/dq3 | C | dC/dq2 | dC/dq3] at
        the angle pairs q23 (..., 2).

        Row 0's pair and each pair whose bits differ from it (:func:`_own`)
        are read as their own (1, 25) @ table products, the bits of one
        state's np.dot (a (k, 25) product would miss them); the other rows
        take row 0's read.
        """
        pairs = q23.reshape(-1, 2)
        own, source = _own(pairs)
        reads = (_harmonics(pairs[own], 1) @ self._table)[:, 0]
        rows = reads if len(reads) == len(pairs) else reads[source]
        return rows.reshape(q23.shape[:-1] + rows.shape[-1:])

    def mass_gradients(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M, dM/dq2, dM/dq3) from the Fourier table; q may be a batch (..., n)."""
        rows = self._read(np.asarray(q, dtype=float)[..., 4:6])[..., : 3 * self.n**2]
        out = rows.reshape(rows.shape[:-1] + (3, self.n, self.n))
        return out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]

    def mass_and_forces(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mass matrix M and generalised force f of the states x = (q, qd)
        (..., 2n): f = -h - g - D qd holds every force but the drive
        torques, with the velocity forces h = Mdot qd - 1/2 qd^T (dM/dq) qd,
        the potential gradient g and the gear and beam damping D qd.

        One read of the harmonic table gives M, dM/dq2, dM/dq3 and the
        gravity monomial weights C, dC/dq2, dC/dq3; V_grav = e1^T C e2 over
        e = (1, q_e) of each link. M is (..., n, n) and f (..., n). Every f
        call of the solver takes :meth:`one_state_forces`, with the
        arithmetic of one row of a batch. The two must agree bit for bit:
        the solver's Jacobian is a batch, and on a very stiff design a
        one-ulp difference between them made VODE take 28 times the steps.
        """
        x = np.asarray(x, dtype=float)
        n, n2 = self.n, self.n**2
        q, qd = x[..., :n], x[..., n:]
        rows = self._read(q[..., 4:6])
        lead = rows.shape[:-1]
        M = rows[..., :n2].reshape(lead + (n, n))
        dM = rows[..., n2 : 3 * n2].reshape(lead + (2 * n, n))  # d/dq2 rows, then d/dq3
        C = rows[..., 3 * n2 :].reshape(lead + (3, 1 + self.m1, 1 + self.m2))
        # gravity: dV/dq2 and dV/dq3 are e1^T (dC/dq) e2; dV/dq_e1 and dV/dq_e2
        # are the q_e entries of C e2 and e1^T C
        one = np.ones(lead + (1,))
        e1 = np.concatenate((one, q[..., self.sl1]), axis=-1)
        e2 = np.concatenate((one, q[..., self.sl2]), axis=-1)
        Ce2 = (C @ e2[..., None, :, None])[..., 0]
        g23 = (Ce2[..., 1:, :] @ e1[..., :, None])[..., 0]
        # h = qd2 (dM/dq2) qd + qd3 (dM/dq3) qd, less 1/2 qd^T (dM/dq) qd on q2, q3
        Mqd = (dM @ qd[..., :, None]).reshape(lead + (2, n))
        # one (1, 2n) product per state, the bits of one state's x @ _linear
        f = (x[..., None, :] @ self._linear)[..., 0, :] - (qd[..., None, 4:6] @ Mqd)[..., 0, :]
        f[..., 4:6] += 0.5 * (Mqd @ qd[..., :, None])[..., 0] - g23
        f[..., self.sl1] -= Ce2[..., 0, 1:]
        f[..., self.sl2] -= (e1[..., None, :] @ C[..., 0, :, 1:])[..., 0, :]
        return M, f

    def one_state_forces(self):
        """mass_and_forces of one state as forces(y, values) -> (M, f), y
        holding x = (q, qd) in its first 2n entries and values = y.tolist().
        M and f are views of buffers made here, which the next call
        overwrites: the batch's operations on 1-d operands, written through
        out=, with the two angle rows of f in Python floats."""
        n, n2, m1, table, linear = self.n, self.n**2, self.m1, self._table, self._linear
        sl1, sl2, buf = self.sl1, self.sl2, np.empty(table.shape[1])
        M = buf[:n2].reshape(n, n)
        dM = buf[n2 : 3 * n2].reshape(2 * n, n)  # d/dq2 rows, then d/dq3
        C = buf[3 * n2 :].reshape(3, 1 + m1, 1 + self.m2)
        C0, e1, e2 = C[0, :, 1:], np.ones(1 + m1), np.ones(1 + self.m2)  # e = (1, q_e)
        Mqd, Ce2, f, tmp, tmp2 = map(np.empty, ((2, n), (3, 1 + m1), n, n, self.m2))
        Mqd_flat, Ce2_0, Ce2_d = Mqd.reshape(-1), Ce2[0, 1:], Ce2[1:]

        def forces(y: np.ndarray, values: list[float]) -> tuple[np.ndarray, np.ndarray]:
            np.dot(_harmonic_row(values[4], values[5]), table, out=buf)
            qd = y[n : 2 * n]
            np.dot(dM, qd, out=Mqd_flat)
            e1[1:] = y[6 : 6 + m1]
            e2[1:] = y[6 + m1 : n]
            np.matmul(C, e2, out=Ce2)  # three (1 + m1, 1 + m2) products, as in a batch
            g4, g5 = np.dot(Ce2_d, e1).tolist()
            h4, h5 = np.dot(Mqd, qd).tolist()
            np.dot(y[: 2 * n], linear, out=f)
            np.subtract(f, np.dot(qd[4:6], Mqd, out=tmp), out=f)
            f[4] += 0.5 * h4 - g4
            f[5] += 0.5 * h5 - g5
            f[sl1] -= Ce2_0
            f[sl2] -= np.matmul(e1, C0, out=tmp2)  # on the strided C0, np.dot's bits differ
            return M, f

        return forces

    # ----- potential energy and its gradient ---------------------------

    def _tip_frames(self, q: np.ndarray):
        """Deformed-arm kinematics of q (..., n).

        Returns the shoulder and elbow rotations R2 and R3, the small
        rotation S1 of the link-1 tip, the link-2 frame A2 = R2 S1 R3, the
        deformed link tips r1 and r2 (each in its own link frame) and the
        first mass moments h1 (link 1) and u2 (link 2 plus payload) that
        gravity acts on.
        """
        qe1, qe2 = q[..., self.sl1], q[..., self.sl2]
        R2 = _roty(q[..., 4])
        R3 = _roty(q[..., 5])
        S1 = np.eye(3) + _skew(qe1 @ self.beam1.PsiL.T)
        r1 = self.beam1.L * _EX + qe1 @ self.beam1.PhiL.T
        r2 = self.beam2.L * _EX + qe2 @ self.beam2.PhiL.T
        h1 = self.beam1.s1 * _EX + qe1 @ self.beam1.P0.T
        u2 = self.beam2.s1 * _EX + qe2 @ self.beam2.P0.T + self.design.payload_mass * r2
        return R2, R3, S1, R2 @ S1 @ R3, r1, r2, h1, u2

    def _gravity_potential(self, q: np.ndarray) -> np.ndarray:
        """Gravity potential of the states q (..., n); (...)."""
        R2, _, _, A2, r1, _, h1, u2 = self._tip_frames(q)
        weighted = R2 @ (h1 + self._m_tip * r1)[..., None] + A2 @ u2[..., None]
        return weighted[..., 0] @ -self.gravity

    def _gravity_monomials(self) -> np.ndarray:
        """Weights C of V_grav = e1^T C e2, e = (1, q_e) of each link, on the
        5x5 angle grid; (5, 5, 1 + m1, 1 + m2).

        V_grav is bilinear in (q_e1, q_e2), so its values at q_e = 0, at
        the unit vectors and at the unit pairs give C exactly by
        differences, e.g. C_ij = V(u_i + u_j) - V(u_i) - V(u_j) + V(0).
        """
        Q = np.zeros((5, 5, 1 + self.m1, 1 + self.m2, self.n))
        Q[..., 4] = _GRID[:, None, None, None]
        Q[..., 5] = _GRID[None, :, None, None]
        Q[..., self.sl1] = np.eye(1 + self.m1, self.m1, -1)[:, None, :]  # 0, unit vectors
        Q[..., self.sl2] = np.eye(1 + self.m2, self.m2, -1)
        C = self._gravity_potential(Q)
        C[..., 1:, :] -= C[..., :1, :]
        C[..., 1:] -= C[..., :1]
        return C

    def potential(self, q: np.ndarray) -> float:
        """Gravity + beam strain + gear spring energy (zero at the
        horizontal undeformed rest pose)."""
        qM, qL = q[:3], q[3:6]
        qe1, qe2 = q[self.sl1], q[self.sl2]
        v_elastic = 0.5 * (qe1 @ self.beam1.K @ qe1 + qe2 @ self.beam2.K @ qe2)
        dq_gear = qM - qL
        v_gear = 0.5 * float(self.k_gear @ dq_gear**2)
        return float(self._gravity_potential(q)) + v_elastic + v_gear

    def potential_grad(self, q: np.ndarray) -> np.ndarray:
        """Analytic gradient of :meth:`potential` (the vector g); q may be a
        batch (..., n)."""
        q = np.asarray(q, dtype=float)
        qL = q[..., 3:6]
        R2, R3, S1, A2, r1, _, h1, u2 = self._tip_frames(q)
        c = -self.gravity
        g = np.empty(q.shape)
        # gear springs
        tau_g = self.k_gear * (q[..., :3] - qL)
        g[..., :3] = tau_g
        g[..., 3:6] = -tau_g
        # shoulder / elbow gravity torques: dR_y(q)/dq = R_y(q) [e_y]x, so
        # each torque is the gravity row c^T R2 (c^T A2 for the elbow) dotted
        # with e_y x m = (m_z, 0, -m_x) for the first moment m it rotates
        cR2 = c @ R2
        cA2 = c @ A2
        w = (R3 @ u2[..., None])[..., 0]
        local = h1 + self._m_tip * r1 + (S1 @ w[..., None])[..., 0]
        g[..., 4] += cR2[..., 0] * local[..., 2] - cR2[..., 2] * local[..., 0]
        g[..., 5] += cA2[..., 0] * u2[..., 2] - cA2[..., 2] * u2[..., 0]
        # elastic gravity coupling plus the elastic restoring force
        # (enters g; the reaction force is -K q_e)
        g[..., self.sl1] = (
            cR2 @ (self.beam1.P0 + self._m_tip * self.beam1.PhiL)
            + (_skew(w) @ cR2[..., None])[..., 0] @ self.beam1.PsiL
            + q[..., self.sl1] @ self.beam1.K
        )
        g[..., self.sl2] = cA2 @ (
            self.beam2.P0 + self.design.payload_mass * self.beam2.PhiL
        ) + q[..., self.sl2] @ self.beam2.K
        return g

    def potential_hessian(self, q: np.ndarray) -> np.ndarray:
        """Exact Hessian of :meth:`potential` at one state q (n,): the constant
        gear and beam stiffness plus the gravity blocks of V_grav = e1^T C e2
        from a table read with the second angle derivatives C_ab (e1^T C_ab
        e2, the q_e entries of C_a e2 and of e1^T C_a, and C between the
        links), assembled as G + G^T so that it is exactly symmetric."""
        q = np.asarray(q, dtype=float)
        n = self.n
        c = (1 + self.m1) * (1 + self.m2)
        rows = _harmonics(q[4:6], len(_ORDERS)) @ self._table[:, 3 * n**2 : 3 * n**2 + c]
        C = rows.reshape(-1, 1 + self.m1, 1 + self.m2)
        e1 = np.concatenate(([1.0], q[self.sl1]))
        e2 = np.concatenate(([1.0], q[self.sl2]))
        Ce2 = C[1:] @ e2
        G = np.zeros((n, n))
        # G + G^T doubles the diagonal
        G[4, 4], G[4, 5], G[5, 5] = Ce2[2:] @ e1 * (0.5, 1.0, 0.5)
        G[4:6, self.sl1] = Ce2[:2, 1:]
        G[4:6, self.sl2] = (e1 @ C[1:3])[:, 1:]
        G[self.sl1, self.sl2] = C[0, 1:, 1:]
        return (G + G.T) - self._linear[:n]

    # ----- kinematics of the end effector ------------------------------

    def end_effector(self, q: np.ndarray) -> np.ndarray:
        """Deformed-arm end-effector position(s) in the base-joint frame;
        q (..., n)."""
        R2, _, _, A2, r1, r2, _, _ = self._tip_frames(q)
        return (R2 @ r1[..., None])[..., 0] + (A2 @ r2[..., None])[..., 0]

    def ee_deviation(self, q: np.ndarray) -> np.ndarray:
        """Elastic minus rigid forward kinematics, rotated to the inertial
        frame with the base angle q_L1. The rigid kinematics are the
        elastic ones at zero elastic coordinates."""
        q = np.asarray(q, dtype=float)
        q_rigid = q.copy()
        q_rigid[..., 6:] = 0.0
        dr = self.end_effector(q) - self.end_effector(q_rigid)
        q1 = q[..., 3]
        c, s = np.cos(q1), np.sin(q1)
        out = np.empty_like(dr)
        out[..., 0] = c * dr[..., 0] - s * dr[..., 1]
        out[..., 1] = s * dr[..., 0] + c * dr[..., 1]
        out[..., 2] = dr[..., 2]
        return out


# ---------------------------------------------------------------------------
# energy


def energy(model: RobotModel, state: GeneralizedState) -> tuple[float, float]:
    """(kinetic, potential) energy of a state."""
    M = model.mass_matrix(state.q)
    return float(0.5 * state.qd @ M @ state.qd), model.potential(state.q)


# ---------------------------------------------------------------------------
# controller


@dataclass(frozen=True)
class ControllerGains:
    """Cascaded position/velocity loop gains, one value per joint, kept as
    Python floats for :func:`control_law`."""

    kp_pos: tuple[float, float, float]  # 1/s
    kp_vel: tuple[float, float, float]  # N m s/rad
    ki_vel: tuple[float, float, float]  # N m/rad
    feedforward: bool = True

    def __post_init__(self):
        for name in ("kp_pos", "kp_vel", "ki_vel"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.shape != (3,):
                raise ValueError(f"{name} needs exactly three entries")
            # NaN fails both bounds; ki_vel may be 0 (no integral action)
            floor = vals >= 0.0 if name == "ki_vel" else vals > 0.0
            if not np.all(floor & (vals < math.inf)):
                bound = ">= 0" if name == "ki_vel" else "positive"
                raise ValueError(f"{name} must be {bound} and finite, got {vals.tolist()}")
            object.__setattr__(self, name, tuple(vals.tolist()))


def control_law(law, q_des, qd_des, tau_ff, y, n: int) -> tuple[list[float], list[float]]:
    """Cascaded P position / PI velocity law on the motor coordinates of
    one state, in Python floats.

    law holds per joint (kp_pos, kp_vel, ki_vel, torque limit); y is the
    state (q, qd, integrators) as a list of n + n + 3 floats; q_des,
    qd_des and tau_ff (None: no feedforward) are the reference at t.
    Returns the saturated motor torques and the integrator rates, which
    are the inner-loop velocity errors.
    """
    tau, e_v = [], []
    for j, (kp, kv, ki, limit) in enumerate(law):
        e = qd_des[j] + kp * (q_des[j] - y[j]) - y[n + j]
        torque = kv * e + ki * y[2 * n + j]
        if tau_ff is not None:
            torque = torque + tau_ff[j]
        tau.append(min(max(torque, -limit), limit))
        e_v.append(e)
    return tau, e_v


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimSettings:
    """Integrator and sampling configuration for one load-case run."""

    rtol: float = 1e-6
    atol: float = 1e-9
    t_settle: float | None = None  # None: twice the slowest linearized period
    sample_rate: float = 1000.0
    initial_elastic: str = "static"  # or "zero"
    gains: ControllerGains | None = None

    def __post_init__(self):
        for name in ("rtol", "atol", "sample_rate"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.t_settle is not None and not 0.0 < self.t_settle < math.inf:
            raise ValueError(f"t_settle must be None or positive and finite, got {self.t_settle}")
        if self.initial_elastic not in ("static", "zero"):
            raise ValueError("initial_elastic must be 'static' or 'zero'")


@dataclass
class SimulationResult:
    """State and output histories of one run on a uniform time grid."""

    times: np.ndarray  # (T,)
    q: np.ndarray  # (T, n)
    qd: np.ndarray  # (T, n)
    kappa1: np.ndarray  # (T, 3) curvature at xi_crit of link 1
    kappa2: np.ndarray  # (T, 3)
    dr_ee: np.ndarray  # (T, 3) elastic-vs-rigid end-effector deviation
    t_task: float
    t_settle: float
    # run record, never written to the output files: the solver counts
    # nfev, njev, nlu and steps; the free-gradient norm at the initial state
    # equilibrium_residual and the Newton steps equilibrium_iterations of
    # its equilibrium solve (0 when none runs); and the wall seconds of the
    # stages presolve_s (model build, equilibrium, periods, feedforward),
    # solve_s and postsolve_s
    stats: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.dr_ee)):
            raise ValueError("end-effector deviation contains non-finite values")


def static_equilibrium(model: RobotModel, q_motor: np.ndarray) -> tuple[np.ndarray, int]:
    """Full coordinate vector with (q_L, q_e) in static equilibrium while
    the motors hold q_motor (gear springs carry the gravity load), and the
    number of Newton steps taken.

    Newton's method on the exact potential Hessian stops when the free
    gradient norm is below 1e-9 or, for a model so stiff that the
    gradient's own roundoff keeps it above that, when the step is below
    1e-12; SimulationError if neither happens in 50 steps or a Newton
    step cannot be solved.
    """
    q = np.zeros(model.n)
    q[:3] = q_motor
    q[3:6] = q_motor
    for steps in range(50):
        r = model.potential_grad(q)[3:]
        if np.linalg.norm(r) < 1e-9:
            return q, steps
        try:
            step = np.linalg.solve(model.potential_hessian(q)[3:, 3:], r)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"static equilibrium: Newton step failed: {exc}") from exc
        q[3:] -= step
        if np.linalg.norm(step) < 1e-12:
            return q, steps + 1
    residual = np.linalg.norm(model.potential_grad(q)[3:])
    raise SimulationError(
        f"static equilibrium not found in 50 Newton steps (residual norm {residual:.3e})"
    )


@functools.cache
def _scipy_extension(name: str):
    """The compiled module ``scipy.<name>``, such as ``integrate._vode``,
    without the init of the package it sits in.

    ``import scipy`` runs the top-level package only, which sets up the
    libraries the wheel bundles. A module something has imported already is
    taken from sys.modules; any other is loaded from its file under
    scipy's package directory, which runs no package init; a later
    ``import scipy.integrate`` still runs its own. ImportError if neither
    works.
    """
    import scipy

    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    package = name.rpartition(".")[0].split(".")
    extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for root in scipy.__path__:
        finder = importlib.machinery.FileFinder(os.path.join(root, *package), extensions)
        spec = finder.find_spec(full)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"cannot load {full}: no extension module under {scipy.__path__}", name=full)


def linearized_periods(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Vibration periods of the (q_L, q_e) subsystem with motors held,
    from the generalized eigenproblem of the potential Hessian.

    LAPACK's dsygvd solves it as ``scipy.linalg.eigh(K, M,
    eigvals_only=True)`` does. A non-finite K or M, a failed dsygvd
    (info > n: M is not positive definite) and a Hessian without a
    positive eigenvalue raise SimulationError.
    """
    K = model.potential_hessian(q)[3:, 3:]
    M = model.mass_matrix(q)[3:, 3:]
    failed = "settling window: vibration periods failed:"
    if not (np.isfinite(K).all() and np.isfinite(M).all()):
        raise SimulationError(f"{failed} non-finite stiffness or mass matrix")
    w2, _, info = _scipy_extension("linalg._flapack").dsygvd(K, M, itype=1, jobz="N", uplo="L")
    if info != 0:
        raise SimulationError(f"{failed} generalized eigenproblem: dsygvd info {info}")
    w2 = w2[w2 > 1e-9]
    if w2.size == 0:
        raise SimulationError("no vibration mode: the potential Hessian has no positive eigenvalue")
    return 2.0 * math.pi / np.sqrt(w2)


def _feedforward_table(
    model: RobotModel, plan: TrajectoryPlan, t_end: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rigid-body inverse-dynamics torque on the knots k dt of the run,
    up to the first knot after t_task: the plan holds its final pose from
    there on, as the lookup holds the last row.

    The rigid reduction locks the gears (q_M = q_L = q_d, q_e = 0); its
    3x3 dynamics follow from the full mass matrix through the selector
    S = [I, I, 0]^T.
    """
    ts = np.arange(0.0, t_end + dt, dt)
    ts = ts[: np.searchsorted(ts, plan.t_task, side="right") + 1]
    qdes, qddes, qdddes = plan.sample_grid(ts)
    S = np.zeros((model.n, 3))
    S[:3] = np.eye(3)
    S[3:6] = np.eye(3)
    M, f = model.mass_and_forces(np.concatenate((qdes @ S.T, qddes @ S.T), axis=-1))
    tau = ((M @ (qdddes @ S.T)[..., None])[..., 0] - f) @ S
    return ts, tau


def _row_lookup(ts: np.ndarray, values: np.ndarray):
    """Lookup t -> row of values (T, k) as a list of Python floats, linear
    between the increasing knots ts and held at the first and last rows
    outside them.

    It takes np.interp's branches (a knot returns its row) and arithmetic,
    slope * (t - t_j) + v_j with the slope (v_j+1 - v_j) / (t_j+1 - t_j),
    so it gives the bits of np.interp run column by column.
    """
    knots = ts.tolist()
    last = len(knots) - 1
    rows = values.tolist()
    slopes = (np.diff(values, axis=0) / np.diff(ts)[:, None]).tolist()

    def at(t: float) -> list[float]:
        j = bisect.bisect_right(knots, t) - 1
        if j < 0:
            return rows[0]
        if j == last or t == knots[j]:
            return rows[j]
        dt = t - knots[j]
        return [s * dt + v for s, v in zip(slopes[j], rows[j])]

    return at


def _mass_solver():
    """solve(t, M, f): the accelerations M^-1 f of one state, M (n, n) and
    f (n,), or of a batch, M (..., n, n) and f (..., n). SimulationError
    with t_failure = t if M is not positive definite.

    Every M goes to LAPACK, bound here once: a Cholesky
    factorisation (dpotrf) as the guard, then an LU solve. A single state,
    which is every f call of the solver, takes dgesv. A batch guards and
    factors (dgetrf) row 0's M and each M whose bits differ from it
    (:func:`_own`), and solves every row with dgetrs against its factors,
    row 0's for the rest; dgesv is dgetrf followed by dgetrs, so every row
    of a Jacobian batch gets the bits of the f call at its state.
    """
    lapack = _scipy_extension("linalg._flapack")
    dgesv, dgetrf, dgetrs, dpotrf = lapack.dgesv, lapack.dgetrf, lapack.dgetrs, lapack.dpotrf

    def solve(t: float, M: np.ndarray, f: np.ndarray) -> np.ndarray:
        if M.ndim == 2:
            if dpotrf(M, lower=1)[1] == 0:
                _, _, acc, info = dgesv(M, f)
                if info == 0:
                    return acc
        else:
            Ms, fs = M.reshape(-1, *M.shape[-2:]), f.reshape(-1, f.shape[-1])
            own, source = _own(Ms.reshape(len(Ms), -1))
            lus = [dgetrf(M_k) for M_k in Ms[own] if dpotrf(M_k, lower=1)[1] == 0]
            if len(lus) == own.sum() and not any(lu[2] for lu in lus):
                acc = np.empty_like(fs)
                for k, j in enumerate(source.tolist()):
                    acc[k] = dgetrs(*lus[j][:2], fs[k])[0]
                return acc.reshape(f.shape)
        raise SimulationError(f"mass matrix not positive definite at t={t:.6f}", t)

    return solve


# ---------------------------------------------------------------------------
# integrator


@dataclass(frozen=True)
class OdeResult:
    """What :func:`solve_ivp` returns: the states at every output time and
    VODE's counters (f calls, Jacobians, LU factorisations and steps)."""

    t: np.ndarray  # (T,)
    y: np.ndarray  # (N, T)
    nfev: int
    njev: int
    nlu: int
    nst: int


# 0-based slots of NST, NFE, NJE and NLU in VODE's integer work array
_IWORK_NST, _IWORK_NFE, _IWORK_NJE, _IWORK_NLU = 10, 11, 12, 18
# steps allowed per simulated _STEP_WINDOW: a collapsed step size fails
# within seconds instead of crawling on, whatever the output spacing
_MAX_STEPS = 5000
_STEP_WINDOW = 1e-3
# output samples or solver stops allowed in one run (1,000 s at 1 kHz): a
# longer run is refused before its grids are allocated
_MAX_SAMPLES = 1_000_000
_FD_STEP = math.sqrt(np.finfo(float).eps)


class _Vode:
    """VODE's BDF with a user Jacobian (method flag mf = 21) for
    y' = f(t, y), started at (t0, y0).

    ``integrate(t)`` steps on to t and returns y(t), or raises what a
    callback raised. After each call ``istate`` is 2 on success and VODE's
    negative return code on failure (call on only while it is positive),
    ``t`` is the time reached and ``iwork`` holds VODE's counters.

    ``dvode`` gets the arguments scipy 1.17.1's ``scipy.integrate.ode``
    passes it: work arrays of the lengths VODE documents for mf = 21, the
    order, nsteps and mxhnil 2 in iwork (order 5, BDF's maximum; ``ode``
    passes 12, which VODE lowers to 5), VODE's state of 51 doubles and 41
    ints between calls, and a private copy of y0, which VODE overwrites.
    ``dvode`` reads the array jac returns transposed, row j holding
    df/dy_j, and jac returns that layout. Around two faults of VODE:

    - VODE ignores the last diagonal entry of the Jacobian, so a stiff last
      component does not converge. The state carries one extra trailing
      component that is inert (zero rate, zero Jacobian row and column),
      which makes that entry exactly 0. VODE's error norm is the RMS over
      all n + 1 components, to which the inert one adds 0, so rtol and
      atol are scaled by sqrt(n / (n + 1)) to keep the error test of the
      n real components.
    - VODE does not propagate an exception raised in f or jac: it carries
      on and fails later with an unrelated ValueError. The first one is
      kept, VODE gets NaN until it gives up, and integrate re-raises it.
    """

    def __init__(self, f, jac, y0: np.ndarray, t0: float, rtol: float, atol: float,
                 nsteps: int):
        n = y0.size
        failure = []

        def extended(callback, shape):
            real = (slice(n),) * len(shape)
            out = np.zeros(shape)  # VODE copies what a callback returns

            def call(t, y):
                if not failure:
                    try:
                        out[real] = callback(t, y[:n])
                        return out
                    except BaseException as exc:
                        failure.append(exc)
                return np.full(shape, np.nan)

            return call

        m = n + 1
        scale = math.sqrt(n / m)
        self.y = np.append(y0, 0.0)
        self.t = float(t0)
        self.istate = 1
        self.iwork = np.zeros(30 + m, dtype=np.int32)
        self.iwork[4:7] = (5, nsteps, 2)
        self._n, self._failure = n, failure
        self._dvode = _scipy_extension("integrate._vode").dvode
        self._callbacks = (extended(f, (m,)), extended(jac, (m, m)))
        self._tolerances = (rtol * scale, atol * scale)
        self._work = (np.zeros(22 + 9 * m + 2 * m * m), self.iwork, 21, (), (),
                      np.zeros(51), np.zeros(41, dtype=np.int32))

    def integrate(self, t: float) -> np.ndarray:
        # itask 1: step past t and interpolate back to it
        self.y, self.t, self.istate = self._dvode(
            *self._callbacks, self.y, self.t, t, *self._tolerances, 1, self.istate, *self._work
        )
        if self._failure:
            raise self._failure[0]
        return self.y[: self._n]


def solve_ivp(fun, t_span, y0, t_eval=None, rtol=1e-3, atol=1e-6) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span with scipy's compiled VODE BDF
    (Brown, Byrne & Hindmarsh 1989) and return the states at t_eval
    (default: the end of the span).

    fun takes one state (N,) or states as rows (k, N) and returns its rates
    in the same layout. Each Jacobian is a forward difference from one call
    of fun on the base state and all its perturbations, so fun runs
    nfev + njev times. An exception raised in fun is re-raised as it is.
    A solver failure, including more than ``_MAX_STEPS`` steps in one
    ``_STEP_WINDOW`` of simulated time, raises SimulationError with VODE's
    return code and the time it reached; there is no partial result.
    """
    t0, t1 = map(float, t_span)
    y0 = np.asarray(y0, dtype=float)
    t_eval = np.array([t1]) if t_eval is None else np.asarray(t_eval, dtype=float)

    def jac(t, y):
        # row 0 is the base state, row j + 1 perturbs component j; row j of
        # the differences is column j of the Jacobian, as dvode reads it
        h = (y + _FD_STEP * np.maximum(np.abs(y), 1.0)) - y
        Y = np.repeat(y[None], y.size + 1, axis=0)
        Y[1:] += np.diag(h)
        F = fun(t, Y)
        return (F[1:] - F[:1]) / h[:, None]

    vode = _Vode(fun, jac, y0, t0, rtol, atol, _MAX_STEPS)
    # VODE's step limit holds per call. It steps past each stop and
    # interpolates back, so extra stops leave its steps as they are; only
    # the first stop also sets the initial step size
    stops = np.union1d(t_eval, np.arange(t0, t_eval[-1], _STEP_WINDOW))
    ys = np.empty((y0.size, t_eval.size))
    done = 0
    for t in stops:
        y = y0 if t == t0 else vode.integrate(t)
        if vode.istate < 0:
            raise SimulationError(
                f"integration failed at t={vode.t:.6f}: VODE return code {vode.istate}", vode.t
            )
        if t == t_eval[done]:
            ys[:, done] = y
            done += 1
    iwork = vode.iwork
    return OdeResult(
        t=t_eval,
        y=ys,
        nfev=int(iwork[_IWORK_NFE]),
        njev=int(iwork[_IWORK_NJE]),
        nlu=int(iwork[_IWORK_NLU]),
        nst=int(iwork[_IWORK_NST]),
    )


@contextlib.contextmanager
def _failure_stages(marks: list[float]):
    """Give a SimulationError raised inside the seconds of the stages whose
    starts marks holds: presolve_s, and solve_s once the solve has started."""
    try:
        yield
    except SimulationError as exc:
        ends = [*marks[1:], time.perf_counter()]
        exc.stats = dict(zip(("presolve_s", "solve_s"), (b - a for a, b in zip(marks, ends))))
        raise


def simulate(
    design: RobotDesign, plan: TrajectoryPlan, settings: SimSettings | None = None
) -> SimulationResult:
    """Integrate the closed-loop (or free) dynamics over the task plus a
    settling window, with outputs on a uniform grid. Every numerical
    failure raises SimulationError; a design that RobotModel cannot
    tabulate raises ValueError."""
    marks = [time.perf_counter()]  # the start of each stage reached
    settings = settings or SimSettings()
    # a failure raises SimulationError or ValueError; numpy's warnings only add noise
    with np.errstate(over="ignore", invalid="ignore"), _failure_stages(marks):
        model = RobotModel(design)
        n = model.n
        q_pick = plan.q_pick
        if q_pick.size != 3:
            raise ValueError("the arm expects three joint coordinates")

        controlled = settings.gains is not None
        if settings.initial_elastic == "static" and np.any(model.gravity != 0.0):
            q0, newton_steps = static_equilibrium(model, q_pick)
        else:
            q0 = np.zeros(n)
            q0[:3] = q_pick
            q0[3:6] = q_pick
            newton_steps = 0
        residual = float(np.linalg.norm(model.potential_grad(q0)[3:]))

        t_settle = settings.t_settle
        if t_settle is None:
            t_settle = 2.0 * float(np.max(linearized_periods(model, q0)))
        t_end = plan.t_task + t_settle
        if t_end * max(settings.sample_rate, 1.0 / _STEP_WINDOW) > _MAX_SAMPLES:
            raise ValueError(f"a run of {t_end:.6g} s at {settings.sample_rate:.6g} Hz needs "
                             f"more than {_MAX_SAMPLES:,} samples or solver stops")

        n_int = 3 if controlled else 0
        y0 = np.zeros(2 * n + n_int)
        y0[:n] = q0

        feedforward = None  # t -> the feedforward torques as Python floats
        if controlled:
            gains = settings.gains
            # preload the velocity integrator with the gravity-holding torque so
            # the run starts without a droop transient
            hold = model.k_gear * (q0[:3] - q0[3:6])
            if gains.feedforward:
                ts_ff, tau_ff = _feedforward_table(model, plan, t_end, 2e-3)
                feedforward = _row_lookup(ts_ff, tau_ff)
                hold = hold - tau_ff[0]
            y0[2 * n :] = [h / ki if ki > 0.0 else 0.0
                           for h, ki in zip(hold.tolist(), gains.ki_vel)]
            law = list(zip(gains.kp_pos, gains.kp_vel, gains.ki_vel, model.tau_limit.tolist()))
            # the law reads q_M, qd_M and the integrators of a state
            inputs = np.r_[0:3, n : n + 3, 2 * n : 2 * n + 3]

        solve_mass = _mass_solver()
        forces = model.one_state_forces()
        reference = {}  # t -> (q_des, qd_des, tau_ff), for the last t only

        def rhs(t, y):
            # y is one state (N,), every f call of the solver, or states as rows
            # (k, N) for its Jacobian; both run control_law on one state at a
            # time, with the reference sampled once per t: VODE often calls f
            # again, or its Jacobian, at the t of the call before
            if controlled:
                if t not in reference:
                    reference.clear()
                    q_des, qd_des, _ = plan.sample_floats(t)
                    reference[t] = q_des, qd_des, None if feedforward is None else feedforward(t)
                q_des, qd_des, tau_ff = reference[t]
            if y.ndim == 1:
                values = y.tolist()
                M, force = forces(y, values)
                if not controlled:
                    return np.concatenate((y[n:], solve_mass(t, M, force)))
                tau, e_v = control_law(law, q_des, qd_des, tau_ff, values, n)
                for j, tau_j in enumerate(tau):
                    force[j] += tau_j
                return np.concatenate((y[n : 2 * n], solve_mass(t, M, force), e_v))
            M, force = model.mass_and_forces(y[:, : 2 * n])
            out = np.empty_like(y)
            if controlled:
                # the law runs on the rows whose inputs _own marks; the others
                # take row 0's torques and rates. U holds each row's inputs as a
                # state of 3 coordinates: (q_M, qd_M, x)
                U = y[:, inputs]
                own, source = _own(U)
                laws = np.array([control_law(law, q_des, qd_des, tau_ff, u, 3)
                                 for u in U[own].tolist()])[source]
                force[:, :3] += laws[:, 0]
                out[:, 2 * n :] = laws[:, 1]
            out[:, :n] = y[:, n : 2 * n]
            out[:, n : 2 * n] = solve_mass(t, M, force)
            return out

        dt = 1.0 / settings.sample_rate
        ts = np.arange(0.0, t_end + 0.5 * dt, dt)
        ts[-1] = min(ts[-1], t_end)
        marks.append(time.perf_counter())
        sol = solve_ivp(rhs, (0.0, t_end), y0, t_eval=ts, rtol=settings.rtol, atol=settings.atol)
        marks.append(time.perf_counter())
        Y = sol.y.T
        if not np.all(np.isfinite(Y)):
            raise SimulationError("non-finite state in the solution")

        q_hist = Y[:, :n]
        qd_hist = Y[:, n : 2 * n]
        kappa1 = q_hist[:, model.sl1] @ model.curv1.T
        kappa2 = q_hist[:, model.sl2] @ model.curv2.T
        dr_ee = model.ee_deviation(q_hist)

        return SimulationResult(
            times=ts,
            q=q_hist,
            qd=qd_hist,
            kappa1=kappa1,
            kappa2=kappa2,
            dr_ee=dr_ee,
            t_task=plan.t_task,
            t_settle=t_settle,
            stats={
                "nfev": sol.nfev,
                "njev": sol.njev,
                "nlu": sol.nlu,
                "steps": sol.nst,
                "equilibrium_residual": residual,
                "equilibrium_iterations": newton_steps,
                "presolve_s": marks[1] - marks[0],
                "solve_s": marks[2] - marks[1],
                "postsolve_s": time.perf_counter() - marks[2],
            },
        )
