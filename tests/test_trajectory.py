import numpy as np
import pytest
from scipy.integrate import simpson

from flexlife.trajectory import JointLimits, TrajectoryPlan, _phase_times, plan_joint_move


def reintegrate_endpoint(plan: TrajectoryPlan, dq: float, lims: JointLimits,
                         points_per_seg: int = 41):
    """Independent oracle: Simpson-integrate the sampled acceleration twice.

    The segment boundaries come from the phase durations of the single-joint
    move dq, whose time scale is 1. q is cubic per segment, so segment-wise
    Simpson on odd grids is exact up to roundoff.
    """
    tj, ta, tc = _phase_times(abs(dq), lims.v_max, lims.a_max, lims.j_max)
    knots = np.cumsum([0.0, tj, ta, tj, tc, tj, ta, tj])
    assert knots[-1] == plan.t_task
    v = 0.0
    q = plan.sample(0.0)[0][0]
    for t0, t1 in zip(knots[:-1], knots[1:]):
        if t1 <= t0:
            continue
        ts = np.linspace(t0, t1, points_per_seg)
        acc = np.array([plan.sample(t)[2][0] for t in ts])
        vel = v + np.concatenate(([0.0], [simpson(acc[: k + 1], x=ts[: k + 1]) for k in range(1, len(ts))]))
        q = q + simpson(vel, x=ts)
        v = vel[-1]
    return q, v


def test_zero_displacement_gives_zero_duration():
    plan = plan_joint_move([0.3], [0.3], JointLimits(1.0, 1.0, 1.0))
    assert plan.t_task == 0.0
    q, qd, qdd = plan.sample(0.0)
    assert q[0] == 0.3 and qd[0] == 0.0 and qdd[0] == 0.0


def test_sub_threshold_move_treated_as_zero():
    plan = plan_joint_move([0.0], [1e-13], JointLimits(1.0, 1.0, 1.0))
    assert plan.t_task == 0.0


def test_trapezoidal_limit_duration():
    # huge jerk collapses the jerk phases; t = dq/v + v/a = 1.5 s
    plan = plan_joint_move([0.0], [1.0], JointLimits(1.0, 2.0, 1e9))
    assert plan.t_task == pytest.approx(1.5, abs=1e-6)


def test_triangular_velocity_limit():
    # displacement too short to reach v_max: t = 2 sqrt(dq/a)
    plan = plan_joint_move([0.0], [0.1], JointLimits(10.0, 1.0, 1e9))
    assert plan.t_task == pytest.approx(2.0 * np.sqrt(0.1), abs=1e-4)


@pytest.mark.parametrize(
    "dq,lims",
    [
        (1.0, JointLimits(10.0, 10.0, 10.0)),
        (0.02, JointLimits(3.0, 20.0, 150.0)),
        (-2.5, JointLimits(2.0, 4.0, 30.0)),
        (5.0, JointLimits(1.5, 40.0, 20.0)),
    ],
)
def test_reintegration_oracle(dq, lims):
    plan = plan_joint_move([0.0], [dq], lims)
    q_end, v_end = reintegrate_endpoint(plan, dq, lims)
    assert q_end == pytest.approx(dq, abs=1e-9)
    assert v_end == pytest.approx(0.0, abs=1e-9)
    assert plan.sample(plan.t_task)[0][0] == pytest.approx(dq, abs=1e-12)


def test_rest_to_rest_boundaries():
    plan = plan_joint_move([0.2, -0.5, 1.0], [1.2, 0.7, -0.3], JointLimits(2.0, 8.0, 60.0))
    q, qd, qdd = plan.sample(0.0)
    np.testing.assert_allclose(q, [0.2, -0.5, 1.0], atol=1e-14)
    np.testing.assert_allclose(qd, 0.0, atol=1e-14)
    np.testing.assert_allclose(qdd, 0.0, atol=1e-14)
    q, qd, qdd = plan.sample(plan.t_task)
    np.testing.assert_allclose(q, [1.2, 0.7, -0.3], atol=1e-12)
    np.testing.assert_allclose(qd, 0.0, atol=1e-12)
    np.testing.assert_allclose(qdd, 0.0, atol=1e-12)


def test_midpoint_symmetry():
    plan = plan_joint_move([0.0], [2.0], JointLimits(1.0, 2.0, 10.0))
    q_mid = plan.sample(plan.t_task / 2.0)[0][0]
    assert q_mid == pytest.approx(1.0, abs=1e-12)


def test_sampling_clamps_outside_span():
    plan = plan_joint_move([0.0], [1.0], JointLimits(1.0, 2.0, 10.0))
    assert plan.sample(-1.0)[0][0] == 0.0
    assert plan.sample(plan.t_task + 5.0)[0][0] == pytest.approx(1.0, abs=1e-12)


def test_finite_difference_consistency():
    rng = np.random.default_rng(7)
    plan = plan_joint_move([0.0, 1.0, -2.0], [1.3, -0.4, 0.9], JointLimits(2.0, 9.0, 70.0))
    h = 1e-6
    for t in rng.uniform(h, plan.t_task - h, size=100):
        qp = plan.sample(t + h)[0]
        qm = plan.sample(t - h)[0]
        qd = plan.sample(t)[1]
        np.testing.assert_allclose((qp - qm) / (2.0 * h), qd, atol=5e-7)


def test_limits_respected_on_dense_grid():
    lims = [JointLimits(2.0, 9.0, 70.0), JointLimits(1.0, 3.0, 25.0), JointLimits(4.0, 30.0, 500.0)]
    plan = plan_joint_move([0.0, 0.0, 0.0], [1.5, -2.0, 0.4], lims)
    ts = np.linspace(0.0, plan.t_task, 4000)
    _, qd, qdd = plan.sample_grid(ts)
    for i, lim in enumerate(lims):
        assert np.abs(qd[:, i]).max() <= lim.v_max * (1.0 + 1e-12)
        assert np.abs(qdd[:, i]).max() <= lim.a_max * (1.0 + 1e-12)


def test_time_reversal_mirror():
    lims = JointLimits(2.0, 9.0, 70.0)
    fwd = plan_joint_move([0.1, -0.2, 0.3], [1.0, 0.8, -0.6], lims)
    rev = plan_joint_move([1.0, 0.8, -0.6], [0.1, -0.2, 0.3], lims)
    assert rev.t_task == pytest.approx(fwd.t_task, rel=1e-14)
    for t in np.linspace(0.0, fwd.t_task, 37):
        np.testing.assert_allclose(
            rev.sample(t)[0], fwd.sample(fwd.t_task - t)[0], atol=1e-10
        )


def test_synchronization_to_slowest_joint():
    lims = [JointLimits(1.0, 2.0, 1e9), JointLimits(10.0, 50.0, 1e9)]
    plan = plan_joint_move([0.0, 0.0], [1.0, 0.5], lims)
    # joint 0 needs 1.5 s, joint 1 is much faster but must stretch
    assert plan.t_task == pytest.approx(1.5, abs=1e-6)
    q, qd, _ = plan.sample(plan.t_task)
    np.testing.assert_allclose(q, [1.0, 0.5], atol=1e-12)
    # stretched joint still satisfies its own limits
    ts = np.linspace(0, plan.t_task, 2000)
    _, qd, qdd = plan.sample_grid(ts)
    assert np.abs(qd[:, 1]).max() <= 10.0
    assert np.abs(qdd[:, 1]).max() <= 50.0


def test_input_validation():
    with pytest.raises(ValueError):
        plan_joint_move([], [], JointLimits(1, 1, 1))
    with pytest.raises(ValueError):
        plan_joint_move([0.0], [np.nan], JointLimits(1, 1, 1))
    with pytest.raises(ValueError):
        plan_joint_move([0.0, 1.0], [1.0], JointLimits(1, 1, 1))
    with pytest.raises(ValueError):
        JointLimits(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        JointLimits(1.0, 1.0, np.inf)
