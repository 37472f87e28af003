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
them. Every model therefore samples the assembly once on a 5x5 grid of
angles and keeps the 25 Fourier coefficient matrices; M and its analytic
angle derivatives, which give the velocity forces, are read from that
table. The constructor checks the table against the assembly at off-grid
angles and refuses a model whose mass matrix carries a higher harmonic.

Everything is assembled in the frame co-rotating with the base joint; the
mass matrix is independent of q1 (cyclic coordinate) and gravity points
along the rotation axis, so nothing is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from .beam import BeamSpec, Material, RitzBasis, quadrature, section_properties, shape_basis
from .beam import curvature_map, stiffness_matrix
from .trajectory import TrajectoryPlan

_EX = np.array([1.0, 0.0, 0.0])
# Mass-matrix table. The order-2 Fourier basis 1, cos q, cos 2q, sin q,
# sin 2q is written as cos(k q - phase): one cosine gives the values and,
# a quarter turn later and scaled by k, the derivatives. Five equispaced
# angles determine such a polynomial; the constructor checks the table
# against the assembly at the off-grid (q2, q3) pairs below.
_K = np.array([0.0, 1.0, 2.0, 1.0, 2.0])
_PHASE = np.array([[0.0, 0.0, 0.0, 0.5, 0.5], [-0.5, -0.5, -0.5, 0.0, 0.0]]) * math.pi
_SCALE = np.stack([np.ones(5), _K])
_GRID = 2.0 * math.pi * np.arange(5) / 5.0
_CHECK_ANGLES = np.array([[0.3, 1.1], [-1.7, -0.4], [2.9, 5.6], [4.1, -2.6], [-5.3, 0.9]])
_TABLE_RTOL = 1e-12

GRAVITY_DEFAULT = (0.0, 0.0, -9.81)


class SimulationError(RuntimeError):
    """Raised when the integrator fails or produces non-finite states."""

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
        if min(self.rotor_inertia, self.gear_ratio, self.stiffness) <= 0.0:
            raise ValueError("rotor inertia, gear ratio and stiffness must be positive")
        if self.damping < 0.0 or self.torque_limit <= 0.0:
            raise ValueError("damping must be >= 0 and torque limit positive")

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
    hub1_inertia: float
    hub2_mass: float
    hub2_inertia: float
    payload_mass: float
    gravity: tuple[float, float, float] = GRAVITY_DEFAULT

    def __post_init__(self):
        if len(self.links) != 2 or len(self.drives) != 3:
            raise ValueError("the arm has exactly two elastic links and three drives")
        if min(self.hub1_inertia, self.hub2_mass, self.hub2_inertia, self.payload_mass) < 0.0:
            raise ValueError("masses and inertias must be non-negative")

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


def _harmonics(q) -> np.ndarray:
    """Fourier basis at the angles q (rows: values, derivatives); (..., 2, 5)."""
    return _SCALE * np.cos(np.multiply.outer(q, _K)[..., None, :] - _PHASE)


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
        m = spec.n_elastic
        i0, i1 = spec.n_theta, spec.n_theta + spec.n_v

        V = basis.v(xi, 0)
        W = basis.w(xi, 0)
        Vp = basis.v(xi, 1)
        Wp = basis.w(xi, 1)
        Th = basis.theta(xi, 0)

        self.spec = spec
        self.m = m
        self.L = spec.L
        self.mb = rhoA * spec.L
        self.s1 = rhoA * spec.L**2 / 2.0
        self.s2 = rhoA * spec.L**3 / 3.0

        rw = np.sqrt(wts)  # sqrt-weighted products keep Gram blocks symmetric
        P0 = np.zeros((3, m))
        P0[1, i0:i1] = rhoA * (V @ wts)
        P0[2, i1:] = rhoA * (W @ wts)
        P1 = np.zeros((3, m))
        P1[1, i0:i1] = rhoA * ((xi * V) @ wts)
        P1[2, i1:] = rhoA * ((xi * W) @ wts)
        PP = np.zeros((m, m))
        PP[i0:i1, i0:i1] = rhoA * (V * rw) @ (V * rw).T
        PP[i1:, i1:] = rhoA * (W * rw) @ (W * rw).T
        self.P0, self.P1, self.PP = P0, P1, 0.5 * (PP + PP.T)

        D = np.diag([rho * spec.section.I_D, rho * spec.section.I_y, rho * spec.section.I_z])
        self.D = D
        self.DL = D * spec.L
        SPsi = np.zeros((3, m))
        SPsi[0, :i0] = Th @ wts
        SPsi[1, i1:] = -basis.w(spec.L, 0)  # int of -w' = -w(L)
        SPsi[2, i0:i1] = basis.v(spec.L, 0)
        self.DSPsi = D @ SPsi
        RPsi = np.zeros((m, m))
        RPsi[:i0, :i0] = D[0, 0] * (Th * rw) @ (Th * rw).T
        RPsi[i0:i1, i0:i1] = D[2, 2] * (Vp * rw) @ (Vp * rw).T
        RPsi[i1:, i1:] = D[1, 1] * (Wp * rw) @ (Wp * rw).T
        self.RPsi = 0.5 * (RPsi + RPsi.T)

        PhiL = np.zeros((3, m))
        PhiL[1, i0:i1] = basis.v(spec.L, 0)
        PhiL[2, i1:] = basis.w(spec.L, 0)
        PsiL = np.zeros((3, m))
        PsiL[0, :i0] = basis.theta(spec.L, 0)
        PsiL[1, i1:] = -basis.w(spec.L, 1)
        PsiL[2, i0:i1] = basis.v(spec.L, 1)
        self.PhiL, self.PsiL = PhiL, PsiL

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
        # M(q2, q3) = sum_jk A_jk u_j(q2) u_k(q3): 5-point real DFT of the
        # assembly along each angle
        samples = self.mass_matrix_batch(_GRID[:, None], _GRID[None, :])
        dft = np.linalg.inv(_harmonics(_GRID)[:, 0])
        table = np.einsum("jp,kr,prxy->jkxy", dft, dft, samples)
        self._table = table.reshape(25, self.n**2)
        ref = self.mass_matrix_batch(_CHECK_ANGLES[:, 0], _CHECK_ANGLES[:, 1])
        err = np.abs(self._from_table(_CHECK_ANGLES)[:, 0] - ref).max() / np.abs(ref).max()
        if not err <= _TABLE_RTOL:
            raise ValueError(
                f"mass matrix is not an order-2 trigonometric polynomial in the joint "
                f"angles (table residual {err:.2e} > {_TABLE_RTOL:.0e})"
            )

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

    def _from_table(self, q23: np.ndarray) -> np.ndarray:
        """M, dM/dq2 and dM/dq3 at the angle pairs q23 (..., 2) read from
        the Fourier table; (..., 3, n, n)."""
        H = _harmonics(q23)
        left = H[..., 0, [0, 1, 0], :]  # u(q2), u'(q2), u(q2)
        right = H[..., 1, [0, 0, 1], :]  # u(q3), u(q3), u'(q3)
        basis = left[..., :, None] * right[..., None, :]
        lead = basis.shape[:-2]
        return (basis.reshape(lead + (25,)) @ self._table).reshape(lead + (self.n, self.n))

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        return self._from_table(np.asarray(q, dtype=float)[4:6])[0]

    def mass_gradients(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M, dM/dq2, dM/dq3) from the Fourier table; q may be a batch (..., n)."""
        out = self._from_table(np.asarray(q, dtype=float)[..., 4:6])
        return out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]

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

    def potential(self, q: np.ndarray) -> float:
        """Gravity + beam strain + gear spring energy (zero at the
        horizontal undeformed rest pose)."""
        qM, qL = q[:3], q[3:6]
        qe1, qe2 = q[self.sl1], q[self.sl2]
        R2, _, _, A2, r1, _, h1, u2 = self._tip_frames(q)
        c = -self.gravity
        weighted = R2 @ (h1 + self._m_tip * r1) + A2 @ u2
        v_grav = c @ weighted
        v_elastic = 0.5 * (qe1 @ self.beam1.K @ qe1 + qe2 @ self.beam2.K @ qe2)
        dq_gear = qM - qL
        v_gear = 0.5 * float(self.k_gear @ dq_gear**2)
        return float(v_grav) + v_elastic + v_gear

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
# public EOM / energy API


def eom(model: RobotModel, q: np.ndarray, qd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mass matrix M(q) and velocity-force vector h = Mdot qd - 1/2 qd^T (dM/dq) qd.

    q and qd may be batches (..., n); M is (..., n, n) and h (..., n).
    """
    M, dM2, dM3 = model.mass_gradients(q)
    qd = np.asarray(qd, dtype=float)
    Mdot = dM2 * qd[..., 4, None, None] + dM3 * qd[..., 5, None, None]
    h = (Mdot @ qd[..., None])[..., 0]
    h[..., 4] -= 0.5 * (qd[..., None, :] @ dM2 @ qd[..., None])[..., 0, 0]
    h[..., 5] -= 0.5 * (qd[..., None, :] @ dM3 @ qd[..., None])[..., 0, 0]
    return M, h


def energy(model: RobotModel, state: GeneralizedState) -> tuple[float, float]:
    """(kinetic, potential) energy of a state."""
    M = model.mass_matrix(state.q)
    return float(0.5 * state.qd @ M @ state.qd), model.potential(state.q)


# ---------------------------------------------------------------------------
# controller


@dataclass(frozen=True)
class ControllerGains:
    """Cascaded position/velocity loop gains, one value per joint."""

    kp_pos: tuple[float, float, float]  # 1/s
    kp_vel: tuple[float, float, float]  # N m s/rad
    ki_vel: tuple[float, float, float]  # N m/rad
    feedforward: bool = True

    def __post_init__(self):
        for name in ("kp_pos", "kp_vel", "ki_vel"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.shape != (3,):
                raise ValueError(f"{name} needs exactly three entries")
            if np.any(vals < 0.0) or (name != "ki_vel" and np.any(vals == 0.0)):
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, tuple(vals))


def controller(
    gains: ControllerGains,
    q_motor: np.ndarray,
    qd_motor: np.ndarray,
    q_des: np.ndarray,
    qd_des: np.ndarray,
    integrator: np.ndarray,
    tau_ff: np.ndarray | None = None,
    tau_limit: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cascaded P position / PI velocity law on the motor coordinates.

    Returns the (saturated) motor torque and the integrator rate, which is
    the inner-loop velocity error.
    """
    kp = np.asarray(gains.kp_pos)
    kv = np.asarray(gains.kp_vel)
    ki = np.asarray(gains.ki_vel)
    v_cmd = qd_des + kp * (q_des - q_motor)
    e_v = v_cmd - qd_motor
    tau = kv * e_v + ki * integrator
    if tau_ff is not None:
        tau = tau + tau_ff
    if tau_limit is not None:
        tau = np.clip(tau, -tau_limit, tau_limit)
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
    method: str = "BDF"  # ode15s-style multistep; "Radau"/"LSODA" also work
    initial_elastic: str = "static"  # or "zero"
    gains: ControllerGains | None = None

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0 or self.sample_rate <= 0.0:
            raise ValueError("tolerances and sample rate must be positive")
        if self.initial_elastic not in ("static", "zero"):
            raise ValueError("initial_elastic must be 'static' or 'zero'")


@dataclass
class SimulationResult:
    """Uniformly resampled state and output histories of one run."""

    times: np.ndarray  # (T,)
    q: np.ndarray  # (T, n)
    qd: np.ndarray  # (T, n)
    kappa1: np.ndarray  # (T, 3) curvature at xi_crit of link 1
    kappa2: np.ndarray  # (T, 3)
    dr_ee: np.ndarray  # (T, 3) elastic-vs-rigid end-effector deviation
    t_task: float
    t_settle: float
    # solver counts nfev, njev, nlu and steps; a run record, never written
    # to the output files
    stats: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.dr_ee)):
            raise ValueError("end-effector deviation contains non-finite values")


def _free_jacobian(model: RobotModel, q: np.ndarray, g_free: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference Jacobian, with step h, of the potential gradient
    over the free coordinates (q_L, q_e) at q, where it equals g_free; one
    batched gradient call over the perturbed states."""
    n_free = model.n - 3
    Q = np.repeat(q[None, :], n_free, axis=0)
    Q[:, 3:] += h * np.eye(n_free)
    return ((model.potential_grad(Q)[:, 3:] - g_free) / h).T


def static_equilibrium(model: RobotModel, q_motor: np.ndarray) -> np.ndarray:
    """Full coordinate vector with (q_L, q_e) in static equilibrium while
    the motors hold q_motor (gear springs carry the gravity load).

    Newton's method stops when the free gradient norm is below 1e-9 or,
    for a model so stiff that roundoff keeps the gradient above that, when
    the step is below 1e-12; SimulationError if neither happens in 50
    steps.
    """
    q = np.zeros(model.n)
    q[:3] = q_motor
    q[3:6] = q_motor
    for _ in range(50):
        r = model.potential_grad(q)[3:]
        if np.linalg.norm(r) < 1e-9:
            return q
        step = np.linalg.solve(_free_jacobian(model, q, r, 1e-7), r)
        q[3:] -= step
        if np.linalg.norm(step) < 1e-12:
            return q
    residual = np.linalg.norm(model.potential_grad(q)[3:])
    raise SimulationError(
        f"static equilibrium not found in 50 Newton steps (residual norm {residual:.3e})"
    )


def linearized_periods(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Vibration periods of the (q_L, q_e) subsystem with motors held,
    from the generalized eigenproblem of the potential Hessian."""
    K = _free_jacobian(model, q, model.potential_grad(q)[3:], 1e-6)
    K = 0.5 * (K + K.T)
    M = model.mass_matrix(q)[3:, 3:]
    w2 = eigh(K, M, eigvals_only=True)
    w2 = w2[w2 > 1e-9]
    if w2.size == 0:
        raise SimulationError("no vibration mode: the potential Hessian has no positive eigenvalue")
    return 2.0 * math.pi / np.sqrt(w2)


def _feedforward_table(
    model: RobotModel, plan: TrajectoryPlan, t_end: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rigid-body inverse-dynamics torque tabulated over the run.

    The rigid reduction locks the gears (q_M = q_L = q_d, q_e = 0); its
    3x3 dynamics follow from the full mass matrix through the selector
    S = [I, I, 0]^T.
    """
    ts = np.arange(0.0, t_end + dt, dt)
    qdes, qddes, qdddes = plan.sample_grid(ts)
    S = np.zeros((model.n, 3))
    S[:3] = np.eye(3)
    S[3:6] = np.eye(3)
    q_full = qdes @ S.T
    M, gyro = eom(model, q_full, qddes @ S.T)
    g = model.potential_grad(q_full)
    tau = ((M @ (qdddes @ S.T)[..., None])[..., 0] + gyro + g) @ S
    return ts, tau


def simulate(
    design: RobotDesign, plan: TrajectoryPlan, settings: SimSettings | None = None
) -> SimulationResult:
    """Integrate the closed-loop (or free) dynamics over the task plus a
    settling window and resample everything on a uniform grid."""
    settings = settings or SimSettings()
    model = RobotModel(design)
    n = model.n
    q_pick = plan.q_pick
    if q_pick.size != 3:
        raise ValueError("the arm expects three joint coordinates")

    controlled = settings.gains is not None
    if settings.initial_elastic == "static" and np.any(model.gravity != 0.0):
        q0 = static_equilibrium(model, q_pick)
    else:
        q0 = np.zeros(n)
        q0[:3] = q_pick
        q0[3:6] = q_pick

    t_settle = settings.t_settle
    if t_settle is None:
        t_settle = 2.0 * float(np.max(linearized_periods(model, q0)))
    t_end = plan.t_task + t_settle

    n_int = 3 if controlled else 0
    y0 = np.zeros(2 * n + n_int)
    y0[:n] = q0

    tau_ff_t = tau_ff_v = None
    if controlled:
        gains = settings.gains
        if gains.feedforward:
            tau_ff_t, tau_ff_v = _feedforward_table(model, plan, t_end, 2e-3)
        # preload the velocity integrator with the gravity-holding torque so
        # the run starts without a droop transient
        ki = np.asarray(gains.ki_vel)
        hold = model.k_gear * (q0[:3] - q0[3:6])
        if tau_ff_v is not None:
            hold = hold - tau_ff_v[0]
        x0 = np.zeros(3)
        mask = ki > 0.0
        x0[mask] = hold[mask] / ki[mask]
        y0[2 * n :] = x0

    beta1, beta2 = design.links[0].damping_beta, design.links[1].damping_beta

    def rhs(t, y):
        # y is one state (N,) or, for the solver's Jacobian, a batch (N, k);
        # Y holds one state per row
        Y = y.T
        q = Y[..., :n]
        qd = Y[..., n : 2 * n]
        M, gyro = eom(model, q, qd)
        force = -gyro - model.potential_grad(q)
        damp = model.d_gear * (qd[..., :3] - qd[..., 3:6])
        force[..., :3] -= damp
        force[..., 3:6] += damp
        if beta1:
            force[..., model.sl1] -= beta1 * (qd[..., model.sl1] @ model.beam1.K)
        if beta2:
            force[..., model.sl2] -= beta2 * (qd[..., model.sl2] @ model.beam2.K)
        out = np.empty_like(Y)
        if controlled:
            q_des, qd_des, _ = plan.sample(t)
            ff = None
            if tau_ff_t is not None:
                ff = np.array([np.interp(t, tau_ff_t, tau_ff_v[:, i]) for i in range(3)])
            tau, e_v = controller(
                settings.gains, q[..., :3], qd[..., :3], q_des, qd_des, Y[..., 2 * n :], ff,
                model.tau_limit,
            )
            force[..., :3] += tau
            out[..., 2 * n :] = e_v
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"mass matrix not positive definite at t={t:.6f}", t) from exc
        out[..., :n] = qd
        out[..., n : 2 * n] = np.linalg.solve(M, force[..., None])[..., 0]
        return out.T

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method=settings.method,
        rtol=settings.rtol,
        atol=settings.atol,
        dense_output=True,
        vectorized=True,
    )
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else 0.0
        raise SimulationError(f"integration failed at t={t_fail:.6f}: {sol.message}", t_fail)

    dt = 1.0 / settings.sample_rate
    ts = np.arange(0.0, t_end + 0.5 * dt, dt)
    ts[-1] = min(ts[-1], t_end)
    Y = sol.sol(ts).T
    if not np.all(np.isfinite(Y)):
        raise SimulationError("non-finite state in the resampled solution")

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
            "nfev": int(sol.nfev),
            "njev": int(sol.njev),
            "nlu": int(sol.nlu),
            "steps": int(sol.t.size - 1),
        },
    )
