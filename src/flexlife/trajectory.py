"""Rest-to-rest joint trajectories with trapezoidal acceleration profiles.

Each joint gets a seven-segment constant-jerk (S-curve) profile saturating
its own velocity/acceleration/jerk limits; the joints are then synchronized
by time-stretching every profile to the slowest joint's duration, which
only lowers the peak rates. Acceleration is continuous and piecewise
linear, velocity and position are C1/C2.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

ZERO_MOVE = 1e-12  # rad; displacements below this count as "no motion"


@dataclass(frozen=True)
class JointLimits:
    """Per-joint kinematic limits (all strictly positive and finite)."""

    v_max: float  # rad/s
    a_max: float  # rad/s^2
    j_max: float  # rad/s^3

    def __post_init__(self):
        for name in ("v_max", "a_max", "j_max"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"JointLimits.{name} must be positive and finite, got {value!r}")


def _phase_times(h: float, v: float, a: float, j: float) -> tuple[float, float, float]:
    """Durations (t_j, t_a, t_c) of the jerk, constant-acceleration and
    coast phases for a displacement h > 0.

    The profile is [+j, 0, -j, 0, -j, 0, +j] with segment durations
    [t_j, t_a, t_j, t_c, t_j, t_a, t_j].
    """
    # shape of the acceleration ramp when cruise velocity is reached
    if v * j >= a * a:
        tj_full = a / j
        ta_full = v / a - a / j
    else:
        tj_full = math.sqrt(v / j)
        ta_full = 0.0
    d_acc = v * (2.0 * tj_full + ta_full) / 2.0  # distance of one full ramp 0 -> v
    if h >= 2.0 * d_acc:
        return tj_full, ta_full, (h - 2.0 * d_acc) / v

    # cruise velocity not reached; peak velocity vp solves vp^2/a + vp*a/j = h
    vp = 0.5 * (-a * a / j + math.sqrt((a * a / j) ** 2 + 4.0 * a * h))
    if vp * j >= a * a:
        return a / j, vp / a - a / j, 0.0
    # acceleration plateau vanishes as well: pure jerk-limited move
    return (h / (2.0 * j)) ** (1.0 / 3.0), 0.0, 0.0


class _JointProfile:
    """Seven-segment profile for one joint, integrated in closed form."""

    def __init__(self, q0: float, q1: float, limits: JointLimits):
        self.q0 = float(q0)
        self.q1 = float(q1)
        dq = self.q1 - self.q0
        if abs(dq) < ZERO_MOVE:
            self.duration = 0.0
            self._knots = [0.0]
            self._state = [(self.q0, 0.0, 0.0)]
            self._jerk = [0.0]
            return
        sign = 1.0 if dq > 0 else -1.0
        tj, ta, tc = _phase_times(abs(dq), limits.v_max, limits.a_max, limits.j_max)
        durations = [tj, ta, tj, tc, tj, ta, tj]
        jerks = [sign * limits.j_max * s for s in (1.0, 0.0, -1.0, 0.0, -1.0, 0.0, 1.0)]

        knots = [0.0]
        state = [(self.q0, 0.0, 0.0)]
        jerk = []
        q, v, a = self.q0, 0.0, 0.0
        for dt, jk in zip(durations, jerks):
            if dt <= 0.0:
                continue
            jerk.append(jk)
            q += v * dt + 0.5 * a * dt * dt + jk * dt**3 / 6.0
            v += a * dt + 0.5 * jk * dt * dt
            a += jk * dt
            knots.append(knots[-1] + dt)
            state.append((q, v, a))
        self.duration = knots[-1]
        self._knots = knots
        self._state = state
        self._jerk = jerk

    def sample(self, t: float) -> tuple[float, float, float]:
        if t <= 0.0 or self.duration == 0.0:
            q, v, a = self._state[0]
            return q, 0.0, 0.0
        if t >= self.duration:
            q, v, a = self._state[-1]
            return q, 0.0, 0.0
        k = bisect.bisect_right(self._knots, t) - 1
        q, v, a = self._state[k]
        jk = self._jerk[k]
        dt = t - self._knots[k]
        return (
            q + v * dt + 0.5 * a * dt * dt + jk * dt**3 / 6.0,
            v + a * dt + 0.5 * jk * dt * dt,
            a + jk * dt,
        )


class TrajectoryPlan:
    """Synchronized multi-joint rest-to-rest plan.

    Joints faster than the slowest one are time-stretched: joint i is
    sampled at t * (T_i / t_task), its rates scaled by the same factor
    and its square. Stretching preserves boundary conditions and keeps
    every limit satisfied.
    """

    def __init__(self, profiles: list[_JointProfile]):
        self._profiles = profiles
        self.t_task = max((p.duration for p in profiles), default=0.0)
        self._scale = [
            (p.duration / self.t_task) if (self.t_task > 0.0 and p.duration > 0.0) else 0.0
            for p in profiles
        ]

    @property
    def n_joints(self) -> int:
        return len(self._profiles)

    @property
    def q_pick(self) -> np.ndarray:
        return np.array([p.q0 for p in self._profiles])

    @property
    def q_place(self) -> np.ndarray:
        return np.array([p.q1 for p in self._profiles])

    def sample_floats(self, t: float) -> tuple[list[float], list[float], list[float]]:
        """Desired (q_d, qd_d, qdd_d) at time t, clamped to [0, t_task], as
        lists of Python floats, one per joint."""
        q, qd, qdd = [], [], []
        tc = min(max(float(t), 0.0), self.t_task)
        for p, s in zip(self._profiles, self._scale):
            qi, vi, ai = p.sample(tc * s)
            q.append(qi)
            qd.append(vi * s)
            qdd.append(ai * s * s)
        return q, qd, qdd

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Desired (q_d, qd_d, qdd_d) at time t, clamped to [0, t_task]."""
        q, qd, qdd = self.sample_floats(t)
        return np.array(q, dtype=float), np.array(qd, dtype=float), np.array(qdd, dtype=float)

    def sample_grid(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`sample` over a time grid; arrays (len(ts), n)."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((3, ts.size, self.n_joints))
        for k, t in enumerate(ts.ravel()):
            q, qd, qdd = self.sample(t)
            out[0, k] = q
            out[1, k] = qd
            out[2, k] = qdd
        return out[0], out[1], out[2]


def plan_joint_move(
    q_pick,
    q_place,
    limits: JointLimits | list[JointLimits],
) -> TrajectoryPlan:
    """Plan a synchronized rest-to-rest move from q_pick to q_place."""
    q_pick = np.atleast_1d(np.asarray(q_pick, dtype=float))
    q_place = np.atleast_1d(np.asarray(q_place, dtype=float))
    if q_pick.size == 0:
        raise ValueError("joint vectors must have at least one entry")
    if q_pick.shape != q_place.shape:
        raise ValueError(f"q_pick {q_pick.shape} and q_place {q_place.shape} differ in shape")
    if not (np.all(np.isfinite(q_pick)) and np.all(np.isfinite(q_place))):
        raise ValueError("joint targets must be finite")
    if isinstance(limits, JointLimits):
        limits = [limits] * q_pick.size
    if len(limits) != q_pick.size:
        raise ValueError(f"expected {q_pick.size} joint limits, got {len(limits)}")
    profiles = [_JointProfile(a, b, lim) for a, b, lim in zip(q_pick, q_place, limits)]
    return TrajectoryPlan(profiles)

