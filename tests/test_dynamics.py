import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import ode, solve_ivp
from scipy.linalg import eigh, expm

from flexlife import config, dynamics as dyn
from flexlife.trajectory import JointLimits, TrajectoryPlan, plan_joint_move
from tests.conftest import demo_config


def no_damping(design):
    drives = tuple(
        dataclasses.replace(d, damping=0.0) for d in design.drives
    )
    links = tuple(dataclasses.replace(l, damping_beta=0.0) for l in design.links)
    return dataclasses.replace(design, drives=drives, links=links)


def gravity_off(design):
    return dataclasses.replace(design, gravity=(0.0, 0.0, 0.0))


@pytest.fixture(scope="module")
def model(small_design):
    return dyn.RobotModel(small_design)


class TestAssembly:
    def test_mass_matrix_symmetric_and_pd_at_random_states(self, model):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.normal(0.0, 1.0, model.n)
            M = model.mass_matrix(q)
            assert np.abs(M - M.T).max() < 1e-12 * np.abs(M).max()
            np.linalg.cholesky(M)

    def test_velocity_forces_vanish_at_rest(self, small_design, model):
        # at rest the forces are the potential gradient alone
        rng = np.random.default_rng(1)
        q = rng.normal(0.0, 0.5, model.n)
        q[6:] *= 1e-2
        _, f = model.mass_and_forces(np.concatenate((q, np.zeros(model.n))))
        g = model.potential_grad(q)
        np.testing.assert_allclose(-f, g, rtol=0.0, atol=1e-13 * np.abs(g).max())

    def test_gravity_off_aligned_gears_zero_gradient(self, small_design):
        design = gravity_off(small_design)
        model = dyn.RobotModel(design)
        q = np.zeros(model.n)
        q[:3] = q[3:6] = [0.7, -0.3, 1.1]
        np.testing.assert_allclose(model.potential_grad(q), 0.0, atol=1e-12)

    def test_gear_spring_terms(self, small_design):
        design = gravity_off(small_design)
        model = dyn.RobotModel(design)
        q = np.zeros(model.n)
        delta = 0.01
        q[0] = delta  # motor 1 twisted against its link
        g = model.potential_grad(q)
        k = design.drives[0].stiffness
        assert g[0] == pytest.approx(k * delta, rel=1e-12)
        assert g[3] == pytest.approx(-k * delta, rel=1e-12)

    def test_gradient_matches_potential_finite_differences(self, model):
        rng = np.random.default_rng(2)
        q = rng.normal(0.0, 0.3, model.n)
        g = model.potential_grad(q)
        h = 1e-7
        for k in range(model.n):
            qp = q.copy()
            qp[k] += h
            qm = q.copy()
            qm[k] -= h
            fd = (model.potential(qp) - model.potential(qm)) / (2.0 * h)
            assert g[k] == pytest.approx(fd, rel=2e-6, abs=2e-6)

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_potential_hessian_matches_gradient_central_differences(self, small_design, modes):
        """Exact Hessian against central differences (step 1e-5) of
        potential_grad at off-grid angles well past one turn, twisted gears
        and non-zero q_e. Tolerance: 1e-8 of the largest entry of the
        gravity part, the Hessian less that of the same design without
        gravity (measured: at most 2.3e-9)."""
        design = small_design if modes == "small" else demo_modes(small_design)
        model = dyn.RobotModel(design)
        weightless = dyn.RobotModel(gravity_off(design))
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(10):
            q = rng.normal(0.0, 1.0, model.n)
            q[4:6] = rng.uniform(-15.0, 15.0, 2)
            q[:3] = q[3:6] + rng.normal(0.0, 1e-2, 3)
            q[6:] *= 1e-3
            H = model.potential_hessian(q)
            np.testing.assert_array_equal(H, H.T)
            steps = h * np.eye(model.n)
            fd = (model.potential_grad(q + steps) - model.potential_grad(q - steps)) / (2.0 * h)
            gravity = np.abs(H - weightless.potential_hessian(q)).max()
            np.testing.assert_allclose(H, fd, rtol=0.0, atol=1e-8 * gravity)

    def test_mass_gradients_match_finite_differences(self, model):
        # central differences of the assembly, not of the table under test
        rng = np.random.default_rng(3)
        h = 1e-6
        for q in [rng.normal(0.0, 0.4, model.n)] + list(rng.uniform(-12.0, 12.0, (4, model.n))):
            _, dM2, dM3 = model.mass_gradients(q)
            for dq2, dq3, dM in ((h, 0.0, dM2), (0.0, h, dM3)):
                fd = (
                    model.mass_matrix_batch(q[4] + dq2, q[5] + dq3)
                    - model.mass_matrix_batch(q[4] - dq2, q[5] - dq3)
                ) / (2.0 * h)
                np.testing.assert_allclose(dM, fd, atol=1e-8 * max(1.0, np.abs(dM).max()))

    def test_mass_table_matches_assembly(self, model):
        rng = np.random.default_rng(4)
        Q = rng.normal(0.0, 1.0, (24, model.n))
        Q[:, 4:6] = rng.uniform(-15.0, 15.0, (24, 2))  # well past one turn
        assert np.abs(Q[:, 4:6]).max() > 2.0 * np.pi
        ref = model.mass_matrix_batch(Q[:, 4], Q[:, 5])
        for q, M_ref in zip(Q, ref):
            np.testing.assert_allclose(model.mass_matrix(q), M_ref, rtol=0.0,
                                       atol=1e-12 * np.abs(M_ref).max())

    def test_mass_and_forces_batch_matches_single_states(self, model):
        rng = np.random.default_rng(6)
        X = rng.normal(0.0, 1.0, (5, 2 * model.n))
        X[:, model.n :] *= 2.0
        M, f = model.mass_and_forces(X)
        for k in range(5):
            M_k, f_k = model.one_state_forces()(X[k], X[k].tolist())
            np.testing.assert_array_equal(M[k], M_k)
            np.testing.assert_allclose(f[k], f_k, rtol=0.0, atol=1e-12 * np.abs(f_k).max())

    def test_mass_table_rejects_third_harmonic(self, small_design, monkeypatch):
        assembly = dyn.RobotModel.mass_matrix_batch

        def with_third_harmonic(self, q2, q3):
            M = assembly(self, q2, q3)
            return M + 1e-6 * np.cos(3.0 * np.asarray(q2))[..., None, None] * np.eye(self.n)

        monkeypatch.setattr(dyn.RobotModel, "mass_matrix_batch", with_third_harmonic)
        with pytest.raises(ValueError, match="order-2"):
            dyn.RobotModel(small_design)

    def test_dimension_mismatch_rejected(self, model):
        state = dyn.GeneralizedState(q=np.zeros(model.n + 1), qd=np.zeros(model.n + 1))
        with pytest.raises(ValueError):
            dyn.energy(model, state)

    def test_kinetic_energy_matches_position_level_oracle(self, small_design, model):
        """Independent route to T: compose the deformed positions and
        section frames point by point, differentiate them along q + t qd by
        complex step and quadrature-sum the kinetic energy. Catches wrong
        inertia integrals that pure consistency checks cannot see.
        """
        from flexlife.beam import quadrature, shape_basis

        design = small_design
        spec1, spec2 = design.beam_spec(0), design.beam_spec(1)
        b1, b2 = shape_basis(spec1), shape_basis(spec2)
        xi1, w1 = quadrature(spec1)
        xi2, w2 = quadrature(spec2)
        rhoA = [design.material.rho * s.section.A_B for s in (spec1, spec2)]
        D = [
            design.material.rho * np.diag([s.section.I_D, s.section.I_y, s.section.I_z])
            for s in (spec1, spec2)
        ]
        h = 1e-200

        def rotz(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, -s, 0.0 * c], [s, c, 0.0 * c], [0.0 * c, 0.0 * c, 1.0 + 0.0 * c]])

        def roty(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, 0.0 * c, s], [0.0 * c, 1.0 + 0.0 * c, 0.0 * c], [-s, 0.0 * c, c]])

        def skew(v):
            z = 0.0 * v[0]
            return np.array([[z, -v[2], v[1]], [v[2], z, -v[0]], [-v[1], v[0], z]])

        def deflection(basis, n_theta, xi, qe):
            """(displacement, small rotation) of the section at scalar xi."""
            v, w, th = basis.v(xi), basis.w(xi), basis.theta(xi)
            vp, wp = basis.v(xi, 1), basis.w(xi, 1)
            n_v = v.shape[0]
            qt, qv, qw = qe[:n_theta], qe[n_theta:n_theta + n_v], qe[n_theta + n_v:]
            u = np.array([0.0 * qe[0], v @ qv, w @ qw])
            phi = np.array([th @ qt, -(wp @ qw), vp @ qv])
            return u, phi

        def omega_of(R):
            W = (R.imag / h) @ R.real.T
            return np.array([W[2, 1], W[0, 2], W[1, 0]])

        def spin_energy(R, Dmat):
            om_loc = R.real.T @ omega_of(R)
            return 0.5 * float(om_loc @ Dmat @ om_loc)

        def kinetic_oracle(q, qd):
            qc = q.astype(complex) + 1j * h * qd
            sl1, sl2 = model.sl1, model.sl2
            R2 = rotz(qc[3]) @ roty(qc[4])
            T = 0.5 * float(model.B @ (qd[:3] ** 2))
            T += 0.5 * design.hub1_inertia * qd[3] ** 2

            for k in range(xi1.size):
                u, phi = deflection(b1, spec1.n_theta, xi1[k], qc[sl1])
                vel = (R2 @ (np.array([xi1[k], 0.0, 0.0]) + u)).imag / h
                T += 0.5 * rhoA[0] * w1[k] * float(vel @ vel)
                T += w1[k] * spin_energy(R2 @ (np.eye(3) + skew(phi)), D[0])

            u1L, phi1L = deflection(b1, spec1.n_theta, spec1.L, qc[sl1])
            p_t1 = R2 @ (np.array([spec1.L, 0.0, 0.0]) + u1L)
            R_t1 = R2 @ (np.eye(3) + skew(phi1L))
            v_t1 = p_t1.imag / h
            T += 0.5 * design.hub2_mass * float(v_t1 @ v_t1)
            a3 = R_t1.real @ np.array([0.0, 1.0, 0.0])
            T += 0.5 * design.hub2_inertia * float(a3 @ omega_of(R_t1)) ** 2

            R3 = R_t1 @ roty(qc[5])
            for k in range(xi2.size):
                u2, phi2 = deflection(b2, spec2.n_theta, xi2[k], qc[sl2])
                vel = (p_t1 + R3 @ (np.array([xi2[k], 0.0, 0.0]) + u2)).imag / h
                T += 0.5 * rhoA[1] * w2[k] * float(vel @ vel)
                T += w2[k] * spin_energy(R3 @ (np.eye(3) + skew(phi2)), D[1])

            u2L, _ = deflection(b2, spec2.n_theta, spec2.L, qc[sl2])
            v_pl = (p_t1 + R3 @ (np.array([spec2.L, 0.0, 0.0]) + u2L)).imag / h
            T += 0.5 * design.payload_mass * float(v_pl @ v_pl)
            return T

        rng = np.random.default_rng(17)
        for _ in range(4):
            q = np.zeros(model.n)
            q[:6] = rng.normal(0.0, 0.8, 6)  # inertia is frozen at q_e = 0
            qd = rng.normal(0.0, 1.5, model.n)
            t_model = 0.5 * qd @ model.mass_matrix(q) @ qd
            assert t_model == pytest.approx(kinetic_oracle(q, qd), rel=1e-9)


def roty(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestKinematics:
    """End-effector deviation, the signal behind the vibration criterion."""

    def test_zero_elastic_coordinates_zero_deviation(self, model):
        rng = np.random.default_rng(21)
        Q = np.zeros((20, model.n))
        Q[:, :6] = rng.uniform(-4.0, 4.0, (20, 6))
        np.testing.assert_allclose(model.ee_deviation(Q), 0.0, atol=1e-15)

    def test_undeformed_arm_matches_rigid_kinematics(self, model):
        rng = np.random.default_rng(20)
        Q = np.zeros((20, model.n))
        Q[:, :6] = rng.uniform(-4.0, 4.0, (20, 6))
        for q, r in zip(Q, model.end_effector(Q)):
            R2 = roty(q[4])
            rigid = model.beam1.L * R2[:, 0] + model.beam2.L * (R2 @ roty(q[5]))[:, 0]
            np.testing.assert_allclose(r, rigid, rtol=0.0, atol=1e-15)

    def test_link2_deflection_rotates_with_the_arm(self, model):
        rng = np.random.default_rng(22)
        for _ in range(10):
            q = np.zeros(model.n)
            q[:6] = rng.uniform(-4.0, 4.0, 6)
            qe2 = rng.normal(0.0, 1e-3, model.m2)
            q[model.sl2] = qe2
            A2 = roty(q[4]) @ roty(q[5])
            expected = rotz(q[3]) @ A2 @ model.beam2.PhiL @ qe2
            np.testing.assert_allclose(
                model.ee_deviation(q), expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
            )

    def test_batch_matches_single_states(self, model):
        rng = np.random.default_rng(23)
        Q = rng.normal(0.0, 1.0, (8, model.n))
        Q[:, 6:] *= 1e-3
        batch = model.ee_deviation(Q)
        for q, dev in zip(Q, batch):
            np.testing.assert_allclose(dev, model.ee_deviation(q), rtol=0.0, atol=1e-15)


class TestLinkParams:
    def test_xi_crit_outside_span_rejected(self):
        dyn.LinkParams(length=0.6, wall_thickness=0.004, xi_crit=0.6)  # tip is allowed
        with pytest.raises(ValueError, match="xi_crit"):
            dyn.LinkParams(length=0.6, wall_thickness=0.004, xi_crit=-0.1)
        with pytest.raises(ValueError, match="xi_crit"):
            dyn.LinkParams(length=0.6, wall_thickness=0.004, xi_crit=0.7)

    @pytest.mark.parametrize("field, value", [
        ("length", 0.0), ("wall_thickness", -0.004), ("damping_beta", -1e-5),
        ("length", np.nan), ("length", np.inf), ("wall_thickness", np.nan),
        ("damping_beta", np.nan), ("damping_beta", np.inf), ("stress_y", np.nan),
        ("stress_z", np.inf),
        # the beam model cubes the length and squares its wavenumbers
        ("length", 1e-300), ("length", 1e-160), ("length", 1e103), ("length", 1e300),
    ])
    def test_out_of_range_field_named(self, field, value):
        kw = {"length": 0.6, "wall_thickness": 0.004, field: value}
        with pytest.raises(ValueError, match=field):
            dyn.LinkParams(**kw)


# NaN fails every range check of the parameter classes: a NaN torque limit,
# for one, would switch the control law's saturation off
class TestDriveParams:
    @pytest.mark.parametrize("field, value", [
        ("rotor_inertia", 0.0), ("rotor_inertia", np.nan), ("rotor_inertia", np.inf),
        ("gear_ratio", -100.0), ("gear_ratio", np.nan), ("stiffness", np.nan),
        ("stiffness", np.inf), ("damping", -1.0), ("damping", np.nan), ("damping", np.inf),
        ("torque_limit", 0.0), ("torque_limit", np.nan), ("torque_limit", -np.inf),
        # the reflected inertia squares the ratio
        ("gear_ratio", 1e160), ("gear_ratio", 1e300),
    ])
    def test_out_of_range_field_named(self, field, value):
        kw = {"rotor_inertia": 5e-5, "gear_ratio": 100.0, "stiffness": 1.5e4, field: value}
        with pytest.raises(ValueError, match=field):
            dyn.DriveParams(**kw)

    def test_infinite_torque_limit_accepted(self):
        drive = dyn.DriveParams(5e-5, 100.0, 1.5e4, torque_limit=np.inf)
        assert drive.torque_limit == np.inf


class TestRobotDesign:
    @pytest.mark.parametrize("field, value", [
        ("edge_length", 0.0), ("edge_length", np.nan), ("edge_length", np.inf),
        ("hub1_inertia", -0.1), ("hub1_inertia", np.nan), ("hub2_mass", np.nan),
        ("hub2_inertia", np.inf), ("payload_mass", np.nan), ("payload_mass", -1.0),
        ("gravity", (0.0, 0.0, np.nan)), ("gravity", (0.0, -9.81)),
    ])
    def test_out_of_range_field_named(self, small_design, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(small_design, **{field: value})


class TestControllerGains:
    @pytest.mark.parametrize("field, value", [
        ("kp_pos", 0.0), ("kp_pos", np.nan), ("kp_pos", np.inf), ("kp_vel", -300.0),
        ("kp_vel", np.nan), ("ki_vel", -1.0), ("ki_vel", np.nan), ("ki_vel", np.inf),
    ])
    def test_out_of_range_field_named(self, demo_gains, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(demo_gains, **{field: (12.0, value, 12.0)})

    def test_gains_are_python_floats(self):
        gains = dyn.ControllerGains(np.full(3, 12.0), [300, 300, 150], (1500.0, 0.0, 800.0))
        for name in ("kp_pos", "kp_vel", "ki_vel"):
            assert all(type(g) is float for g in getattr(gains, name))
        assert gains.ki_vel == (1500.0, 0.0, 800.0)


class TestSimSettings:
    # unchecked, each of these reaches simulate and fails there with an
    # unrelated error (arange length, IndexError, ZeroDivisionError, VODE)
    @pytest.mark.parametrize(
        "name,value",
        [
            ("t_settle", np.nan), ("t_settle", -0.5), ("t_settle", 0.0), ("t_settle", np.inf),
            ("sample_rate", np.inf), ("sample_rate", np.nan),
            ("rtol", np.nan), ("rtol", np.inf), ("atol", np.nan), ("atol", np.inf),
        ],
    )
    def test_non_finite_or_non_positive_rejected(self, name, value):
        with pytest.raises(ValueError, match="positive and finite"):
            dyn.SimSettings(**{name: value})

    def test_default_settle_window_accepted(self):
        assert dyn.SimSettings(t_settle=None).t_settle is None
        assert dyn.SimSettings(t_settle=0.25).t_settle == 0.25


class TestEnergy:
    def test_reference_state_zero(self, small_design):
        model = dyn.RobotModel(small_design)
        state = dyn.GeneralizedState(q=np.zeros(model.n), qd=np.zeros(model.n))
        kinetic, potential = dyn.energy(model, state)
        assert kinetic == 0.0
        assert potential == pytest.approx(0.0, abs=1e-12)

    def test_kinetic_nonnegative(self, model):
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = dyn.GeneralizedState(
                q=rng.normal(0.0, 1.0, model.n), qd=rng.normal(0.0, 2.0, model.n)
            )
            kinetic, _ = dyn.energy(model, state)
            assert kinetic >= 0.0

    def test_free_swing_conservation(self, small_design):
        design = no_damping(small_design)
        model = dyn.RobotModel(design)
        # planar raised pose, motors released: only slow modes participate
        q_hold = np.array([0.0, 0.55, -0.7])
        plan = plan_joint_move(q_hold, q_hold, JointLimits(1.0, 1.0, 1.0))
        res = dyn.simulate(
            design, plan, dyn.SimSettings(t_settle=0.8, gains=None, initial_elastic="static")
        )
        energies = np.array(
            [
                sum(dyn.energy(model, dyn.GeneralizedState(res.q[k], res.qd[k])))
                for k in range(0, res.times.size, 25)
            ]
        )
        assert abs(energies[0]) > 1.0  # a meaningful energy scale
        drift = np.abs(energies - energies[0]).max() / abs(energies[0])
        assert drift < 1e-6


def run_law(gains, q_motor, qd_motor, q_des, qd_des, integrator, tau_ff=None,
            tau_limit=(np.inf,) * 3):
    """control_law on the motor coordinates of one state, laid out as a
    state of n = 3 coordinates: (q_M, qd_M, integrators). Arrays out."""
    law = list(zip(gains.kp_pos, gains.kp_vel, gains.ki_vel, np.asarray(tau_limit).tolist()))
    y = np.concatenate((q_motor, qd_motor, integrator)).tolist()
    ref = (np.asarray(a, dtype=float).tolist() for a in (q_des, qd_des))
    tau_ff = None if tau_ff is None else np.asarray(tau_ff).tolist()
    return tuple(np.array(a) for a in dyn.control_law(law, *ref, tau_ff, y, 3))


class TestController:
    def test_zero_error_zero_torque(self, demo_gains):
        tau, e_v = run_law(
            demo_gains,
            q_motor=np.array([1.0, 2.0, 3.0]),
            qd_motor=np.zeros(3),
            q_des=np.array([1.0, 2.0, 3.0]),
            qd_des=np.zeros(3),
            integrator=np.zeros(3),
        )
        np.testing.assert_allclose(tau, 0.0)
        np.testing.assert_allclose(e_v, 0.0)

    def test_static_error_cascade_algebra(self, demo_gains):
        delta = 0.05
        tau, _ = run_law(
            demo_gains,
            q_motor=np.array([-delta, 0.0, 0.0]),
            qd_motor=np.zeros(3),
            q_des=np.zeros(3),
            qd_des=np.zeros(3),
            integrator=np.zeros(3),
        )
        assert tau[0] == pytest.approx(12.0 * 300.0 * delta, rel=1e-12)
        assert tau[1] == tau[2] == 0.0

    def test_saturation(self, demo_gains):
        tau, _ = run_law(
            demo_gains,
            q_motor=np.array([-10.0, 0.0, 0.0]),
            qd_motor=np.zeros(3),
            q_des=np.zeros(3),
            qd_des=np.zeros(3),
            integrator=np.zeros(3),
            tau_limit=np.array([50.0, 50.0, 50.0]),
        )
        assert tau[0] == 50.0

    def test_rigid_single_joint_step_settles(self, demo_gains):
        # inner PI around a pure inertia, outer P loop: the closed loop must
        # settle well within a few outer-loop time constants
        J = 0.8
        kp, kv, ki = 12.0, 300.0, 1500.0
        step = 0.2

        def rhs(t, y):
            q, qd, x = y
            v_cmd = kp * (step - q)
            e_v = v_cmd - qd
            tau = kv * e_v + ki * x
            return [qd, tau / J, e_v]

        sol = solve_ivp(rhs, (0.0, 8.0 / kp), [0.0, 0.0, 0.0], rtol=1e-8, atol=1e-10,
                        dense_output=True)
        t1, t2 = 4.0 / kp, 8.0 / kp
        assert abs(sol.sol(t1)[0] - step) < 0.05 * step
        assert abs(sol.sol(t2)[0] - step) < 0.005 * step


class TestSimulate:
    def test_zero_trajectory_at_equilibrium_stays(self, small_design, demo_gains):
        design = gravity_off(small_design)
        q0 = np.array([0.3, 0.4, -0.5])
        plan = plan_joint_move(q0, q0, JointLimits(1.0, 1.0, 1.0))
        settings = dyn.SimSettings(
            t_settle=0.3, gains=demo_gains, initial_elastic="zero", sample_rate=500.0
        )
        res = dyn.simulate(design, plan, settings)
        assert np.abs(res.q[:, 6:]).max() < 1e-12
        assert np.linalg.norm(res.dr_ee, axis=1).max() < 1e-12

    def test_rigid_limit_shrinks_deviation(self, small_design, demo_gains, short_plan):
        # scaling E by 1e6 turns the beams rigid; the end-effector deviation
        # (elastic vs rigid kinematics) must collapse by orders of magnitude
        settings = dyn.SimSettings(
            rtol=1e-6, atol=1e-9, t_settle=0.2, gains=demo_gains, sample_rate=500.0
        )
        res_nominal = dyn.simulate(small_design, short_plan, settings)
        stiff_material = dataclasses.replace(small_design.material, E=2.1e11 * 1e6)
        design_stiff = dataclasses.replace(small_design, material=stiff_material)
        res_stiff = dyn.simulate(design_stiff, short_plan, settings)
        dev_nominal = np.linalg.norm(res_nominal.dr_ee, axis=1).max()
        dev_stiff = np.linalg.norm(res_stiff.dr_ee, axis=1).max()
        assert dev_stiff < 1e-2 * dev_nominal
        assert dev_stiff < 1e-6

    def test_tolerance_self_convergence(self, small_design, demo_gains, short_plan):
        base = dyn.SimSettings(rtol=1e-5, atol=1e-8, t_settle=0.15, gains=demo_gains)
        tight = dataclasses.replace(base, rtol=0.5e-5)
        r1 = dyn.simulate(small_design, short_plan, base)
        r2 = dyn.simulate(small_design, short_plan, tight)
        scale = np.abs(r2.q[-1]).max()
        diff = np.abs(r1.q[-1] - r2.q[-1]).max()
        assert diff < 10.0 * base.rtol * max(scale, 1.0)

    def test_sample_grid_and_shapes(self, small_design, demo_gains, short_plan, fast_sim):
        res = dyn.simulate(small_design, short_plan, fast_sim)
        assert np.all(np.diff(res.times) > 0.0)
        n = dyn.RobotModel(small_design).n
        assert res.q.shape == (res.times.size, n)
        assert res.kappa1.shape == (res.times.size, 3)
        assert res.times[-1] == pytest.approx(short_plan.t_task + fast_sim.t_settle, abs=2e-3)
        counts = {"nfev", "njev", "nlu", "steps", "equilibrium_iterations"}
        stages = {"presolve_s", "solve_s", "postsolve_s", "equilibrium_residual"}
        assert set(res.stats) == counts | stages
        assert all(isinstance(res.stats[k], int) and res.stats[k] > 0 for k in counts)
        assert all(isinstance(res.stats[k], float) and res.stats[k] >= 0.0 for k in stages)

    @pytest.mark.parametrize("initial", ["static", "zero"])
    def test_stats_record_the_equilibrium(self, small_design, short_plan, fast_sim, initial):
        settings = dataclasses.replace(fast_sim, initial_elastic=initial)
        stats = dyn.simulate(small_design, short_plan, settings).stats
        model = dyn.RobotModel(small_design)
        if initial == "static":
            q0, steps = dyn.static_equilibrium(model, short_plan.q_pick)
            assert stats["equilibrium_iterations"] == steps > 0
            assert stats["equilibrium_residual"] < 1e-9
        else:
            # released from the undeformed pose: gravity is not balanced
            q0 = np.concatenate((short_plan.q_pick, short_plan.q_pick, np.zeros(model.n - 6)))
            assert stats["equilibrium_iterations"] == 0
            assert stats["equilibrium_residual"] > 1.0
        residual = np.linalg.norm(model.potential_grad(q0)[3:])
        assert stats["equilibrium_residual"] == pytest.approx(residual, rel=1e-12)

    def test_controller_runs_only_inside_the_solver(
        self, small_design, short_plan, fast_sim, monkeypatch
    ):
        solving = []
        calls = []
        real_solver, real_law = dyn.solve_ivp, dyn.control_law

        def solver(*args, **kwargs):
            solving.append(True)
            try:
                return real_solver(*args, **kwargs)
            finally:
                solving.pop()

        def recording(*args):
            calls.append(bool(solving))
            return real_law(*args)

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        monkeypatch.setattr(dyn, "control_law", recording)
        res = dyn.simulate(small_design, short_plan, fast_sim)
        assert calls and all(calls)
        assert not hasattr(res, "tau")

    def test_reference_sampled_once_per_t(self, small_design, short_plan, fast_sim,
                                          monkeypatch):
        # VODE often calls f, or its Jacobian, again at the t of the call
        # before; the RHS samples the reference only when t changes
        rhs_ts, sampled_ts = [], []
        real_solver, real_sample = dyn.solve_ivp, TrajectoryPlan.sample_floats

        def solver(fun, *args, **kwargs):
            sampled_ts.clear()  # the feedforward table's samples came before

            def spy(t, y):
                rhs_ts.append(t)
                return fun(t, y)

            return real_solver(spy, *args, **kwargs)

        def sampling(plan, t):
            sampled_ts.append(t)
            return real_sample(plan, t)

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        monkeypatch.setattr(TrajectoryPlan, "sample_floats", sampling)
        dyn.simulate(small_design, short_plan, fast_sim)
        changes = [t for k, t in enumerate(rhs_ts) if k == 0 or t != rhs_ts[k - 1]]
        assert sampled_ts == changes
        assert len(changes) < len(rhs_ts)

    def test_tracking_reaches_target(self, small_design, demo_gains, short_plan, fast_sim):
        res = dyn.simulate(small_design, short_plan, fast_sim)
        # the plan's final pose is its target
        np.testing.assert_allclose(
            res.q[-1, :3], short_plan.sample(short_plan.t_task)[0], atol=5e-4
        )

    def test_payload_increase_does_not_raise_first_frequency(self, small_design):
        # FFT of the free-vibration end-effector deviation
        def dominant_frequency(design):
            q_hold = np.array([0.0, 0.5, -0.8])
            plan = plan_joint_move(q_hold, q_hold, JointLimits(1.0, 1.0, 1.0))
            # releasing the gravity sag from the undeformed state rings the arm
            res = dyn.simulate(
                design,
                plan,
                dyn.SimSettings(rtol=1e-5, atol=1e-8, t_settle=1.2, gains=None,
                                initial_elastic="zero"),
            )
            sig = res.dr_ee[:, 2] - res.dr_ee[:, 2].mean()
            spec = np.abs(np.fft.rfft(sig * np.hanning(sig.size)))
            freqs = np.fft.rfftfreq(sig.size, d=res.times[1] - res.times[0])
            return freqs[np.argmax(spec[1:]) + 1]

        f_light = dominant_frequency(small_design)
        heavy = dataclasses.replace(small_design, payload_mass=8.0)
        f_heavy = dominant_frequency(heavy)
        assert f_heavy <= f_light * (1.0 + 1e-6)

    def test_small_signal_linearity(self, small_design, demo_gains):
        # the holding controller releases the arm from its undeformed pose,
        # so gravity rings the beams: the elastic response amplitude scales
        # linearly with the gravity load
        q_hold = [0.0, 0.3, -0.6]
        plan = plan_joint_move(q_hold, q_hold, JointLimits(1, 1, 1))
        settings = dyn.SimSettings(
            t_settle=1.0, gains=demo_gains, initial_elastic="zero", sample_rate=500.0
        )

        def ring_amplitude(scale):
            design = dataclasses.replace(small_design, gravity=(0.0, 0.0, -9.81 * scale))
            res = dyn.simulate(design, plan, settings)
            sl1 = dyn.RobotModel(design).sl1
            return 0.5 * np.ptp(res.q[:, sl1.start + 2])  # first bending-z mode

        a1 = ring_amplitude(0.5)
        a2 = ring_amplitude(1.0)
        assert a1 > 0.0
        assert a2 / a1 == pytest.approx(2.0, rel=0.05)

    def test_static_equilibrium_raises_without_root(self, small_design):
        model = dyn.RobotModel(small_design)
        model.potential_grad = lambda q: 1.0 + q**2  # no root; the Hessian stays regular
        with pytest.raises(dyn.SimulationError, match="residual norm"):
            dyn.static_equilibrium(model, np.array([0.2, 0.6, -1.0]))

    @pytest.mark.parametrize("initial_elastic, stage", [("static", "static equilibrium"),
                                                        ("zero", "settling window")])
    def test_overflowing_payload_raises_simulation_error(self, tmp_path, initial_elastic,
                                                         stage):
        # a payload whose weight overflows: LAPACK fails in the Newton step
        # of the static equilibrium (a SimulationError from numpy's
        # LinAlgError) or, from rest, in the vibration periods (raised there)
        cfg = config.load_config(demo_config(tmp_path, **{
            "robot.payload_mass": 1e300, "simulation.initial_elastic": initial_elastic}))
        plan = plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
        with np.errstate(all="ignore"), pytest.raises(dyn.SimulationError, match=stage) as info:
            dyn.simulate(cfg.design, plan, cfg.sim)
        cause = info.value.__cause__
        if initial_elastic == "static":
            assert isinstance(cause, np.linalg.LinAlgError)
        else:
            assert cause is None
        # the error keeps the seconds of the stage it arose in
        assert list(info.value.stats) == ["presolve_s"] and info.value.stats["presolve_s"] > 0.0

    def test_linearized_periods_without_modes_raises(self, small_design):
        model = dyn.RobotModel(small_design)
        model.potential_hessian = lambda q: np.zeros((model.n, model.n))  # no stiffness at all
        with pytest.raises(dyn.SimulationError, match="no vibration mode"):
            dyn.linearized_periods(model, np.zeros(model.n))

    def test_static_equilibrium_balances_gradient(self, small_design):
        model = dyn.RobotModel(small_design)
        q, steps = dyn.static_equilibrium(model, np.array([0.2, 0.6, -1.0]))
        assert 0 < steps < 50
        g = model.potential_grad(q)
        assert np.abs(g[3:]).max() < 1e-8

    def test_linearized_periods_positive(self, small_design):
        model = dyn.RobotModel(small_design)
        q, _ = dyn.static_equilibrium(model, np.array([0.0, 0.5, -0.8]))
        periods = dyn.linearized_periods(model, q)
        assert np.all(periods > 0.0)
        assert periods.size == model.n - 3


def demo_modes(design):
    """The demo discretisation: two bending modes per plane and one
    torsion mode on each link."""
    links = tuple(dataclasses.replace(l, n_v=2, n_w=2, n_theta=1) for l in design.links)
    return dataclasses.replace(design, links=links)


class _Captured(Exception):
    pass


def captured_rhs(design, plan, settings, monkeypatch):
    """The right-hand side simulate hands to the solver, and its y0."""
    seen = {}

    def capture(fun, t_span, y0, **kwargs):
        seen.update(fun=fun, y0=y0, kwargs=kwargs)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(dyn, "solve_ivp", capture)
        with pytest.raises(_Captured):
            dyn.simulate(design, plan, settings)
    assert set(seen["kwargs"]) == {"t_eval", "rtol", "atol"}
    return seen["fun"], seen["y0"]


def indefinite_mass(monkeypatch):
    """Models built from here on return -M from mass_and_forces and from
    their one-state forces; their constructor's table check still sees the
    true M."""
    build = dyn.RobotModel.__init__
    real, real_one = dyn.RobotModel.mass_and_forces, dyn.RobotModel.one_state_forces

    def negated(self, x):
        M, f = real(self, x)
        return -M, f

    def negated_one(self):
        forces = real_one(self)

        def negated_forces(y, values):
            M, f = forces(y, values)
            return -M, f

        return negated_forces

    def init(self, design):
        build(self, design)
        self.mass_and_forces = negated.__get__(self)
        self.one_state_forces = negated_one.__get__(self)

    monkeypatch.setattr(dyn.RobotModel, "__init__", init)


class TestBatchedPaths:
    """Differential tests of the batched fast paths against per-state calls.
    Tolerance: 1e-13 of each state's largest entry (measured: identical
    bits, except potential_grad on the demo modes at 3e-21 relative)."""

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_potential_grad_batch_matches_single_states(self, small_design, modes):
        design = small_design if modes == "small" else demo_modes(small_design)
        model = dyn.RobotModel(design)
        rng = np.random.default_rng(31)
        Q = rng.normal(0.0, 1.0, (24, model.n))
        Q[:, 6:] *= 1e-3
        batch = model.potential_grad(Q)
        assert batch.shape == Q.shape
        for q, g in zip(Q, batch):
            g_k = model.potential_grad(q)
            np.testing.assert_allclose(g, g_k, rtol=0.0, atol=1e-13 * np.abs(g_k).max())

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_rhs_rows_match_one_row_calls(
        self, small_design, short_plan, fast_sim, modes, monkeypatch
    ):
        design = small_design if modes == "small" else demo_modes(small_design)
        rhs, y0 = captured_rhs(design, short_plan, fast_sim, monkeypatch)
        rng = np.random.default_rng(32)
        Y = y0 + rng.normal(0.0, 1e-2, (35, y0.size))
        batch = rhs(0.05, Y)
        assert batch.shape == Y.shape
        for k in range(Y.shape[0]):
            row = rhs(0.05, Y[[k]])[0]
            tol = 1e-13 * np.abs(row).max()
            np.testing.assert_allclose(batch[k], row, rtol=0.0, atol=tol)
            np.testing.assert_allclose(rhs(0.05, Y[k]), row, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_jacobian_batches_give_f_call_bits(self, small_design, short_plan, fast_sim, modes,
                                               monkeypatch):
        # the contract of mass_and_forces on the traffic the solver sends:
        # every row of every Jacobian batch is the f call at that state, bit
        # for bit (a transposed, strided batch misses it in a third of them)
        design = small_design if modes == "small" else demo_modes(small_design)
        batches = []
        real_solver = dyn.solve_ivp

        def solver(fun, *args, **kwargs):
            def spy(t, y):
                out = fun(t, y)
                if y.ndim == 2:
                    batches.append((fun, t, y.copy(), out.copy()))
                return out

            return real_solver(spy, *args, **kwargs)

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        result = dyn.simulate(design, short_plan, fast_sim)
        assert len(batches) == result.stats["njev"] > 0
        for fun, t, Y, F in batches:
            assert Y.shape == F.shape == (Y.shape[1] + 1, Y.shape[1])  # base, then N perturbed
            for y, f in zip(Y, F):
                assert fun(t, y).tobytes() == f.tobytes(), t

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_jacobian_batches_share_row_0_work(self, small_design, short_plan, fast_sim, modes,
                                               monkeypatch):
        # the sharing on the traffic the solver sends: a Jacobian batch is
        # the base row, then one row per perturbed component, so the angle
        # pairs and the mass matrices differ from row 0's only in the rows
        # that perturb q2 and q3 (rows 5 and 6), and the control inputs in
        # the 9 rows that perturb q_M, qd_M and the integrators. A batch
        # layout under which the sharing quietly stops fails here
        design = small_design if modes == "small" else demo_modes(small_design)
        n = dyn.RobotModel(design).n
        calls, batches = [], []
        real_solver, real_own = dyn.solve_ivp, dyn._own

        def own_spy(rows):
            own, source = real_own(rows)
            calls.append((rows.shape, np.flatnonzero(own).tolist()))
            return own, source

        def solver(fun, *args, **kwargs):
            def spy(t, y):
                calls.clear()
                out = fun(t, y)
                if y.ndim == 2:
                    batches.append(list(calls))
                return out

            return real_solver(spy, *args, **kwargs)

        monkeypatch.setattr(dyn, "_own", own_spy)
        monkeypatch.setattr(dyn, "solve_ivp", solver)
        result = dyn.simulate(design, short_plan, fast_sim)
        assert len(batches) == result.stats["njev"] > 0
        k = 2 * n + 4  # the base row and the 2n + 3 perturbed ones
        controls = [0] + [j + 1 for j in (0, 1, 2, n, n + 1, n + 2, 2 * n, 2 * n + 1, 2 * n + 2)]
        for batch in batches:
            assert batch == [((k, 2), [0, 5, 6]), ((k, 9), controls), ((k, n * n), [0, 5, 6])]


def oracle_forces(model, design, Q, Qd):
    """Every generalised force but the drive torques, term by term from the
    oracles: the velocity forces from mass_gradients, the potential
    gradient (gravity, beams, gear springs) from potential_grad and the
    gear and beam damping from the design."""
    M, dM2, dM3 = model.mass_gradients(Q)
    Mdot = dM2 * Qd[..., 4, None, None] + dM3 * Qd[..., 5, None, None]
    h = (Mdot @ Qd[..., None])[..., 0]
    h[..., 4] -= 0.5 * np.einsum("...i,...ij,...j->...", Qd, dM2, Qd)
    h[..., 5] -= 0.5 * np.einsum("...i,...ij,...j->...", Qd, dM3, Qd)
    f = -h - model.potential_grad(Q)
    damp = np.array([d.damping for d in design.drives]) * (Qd[..., :3] - Qd[..., 3:6])
    f[..., :3] -= damp
    f[..., 3:6] += damp
    for link, sl, K in ((design.links[0], model.sl1, model.beam1.K),
                        (design.links[1], model.sl2, model.beam2.K)):
        f[..., sl] -= link.damping_beta * (Qd[..., sl] @ K)
    return M, f


class TestMassAndForces:
    """RobotModel.mass_and_forces, the one table read of the RHS, against
    the oracles it replaces. Tolerance: 1e-13 of the largest entry of each
    state (measured: about 2e-16)."""

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_matches_oracles_on_random_states(self, small_design, modes):
        design = small_design if modes == "small" else demo_modes(small_design)
        model = dyn.RobotModel(design)
        rng = np.random.default_rng(41)
        Q = rng.normal(0.0, 1.0, (200, model.n))
        Q[:100, 4:6] = rng.uniform(-15.0, 15.0, (100, 2))  # well past one turn
        Q[:, 6:] *= 1e-2
        Qd = rng.normal(0.0, 2.0, (200, model.n))
        X = np.concatenate((Q, Qd), axis=-1)
        M_ref, f_ref = oracle_forces(model, design, Q, Qd)
        M, f = model.mass_and_forces(X)
        assert M.shape == M_ref.shape and f.shape == f_ref.shape
        np.testing.assert_array_equal(M, M_ref)
        for k in range(Q.shape[0]):
            tol = 1e-13 * np.abs(f_ref[k]).max()
            np.testing.assert_allclose(f[k], f_ref[k], rtol=0.0, atol=tol)
            M_k, f_k = model.one_state_forces()(X[k], X[k].tolist())
            np.testing.assert_array_equal(M_k, M_ref[k])
            np.testing.assert_allclose(f_k, f_ref[k], rtol=0.0, atol=tol)

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_one_state_path_gives_batch_bits(self, small_design, modes):
        # the solver's f calls take the one-state path, its Jacobians the
        # batch: tolerance 0, so both see one force law
        design = small_design if modes == "small" else demo_modes(small_design)
        model = dyn.RobotModel(design)
        rng = np.random.default_rng(42)
        X = rng.normal(0.0, 1.0, (100, 2 * model.n))
        X[:, 4:6] = rng.uniform(-40.0, 40.0, (100, 2))  # well past one turn
        X[:, 6 : model.n] *= 1e-2
        M, f = model.mass_and_forces(X)
        for k, x in enumerate(X):
            M_k, f_k = model.one_state_forces()(x, x.tolist())
            assert M_k.tobytes() == M[k].tobytes() and f_k.tobytes() == f[k].tobytes(), k

    def test_infinite_angle_reads_nan_like_the_batch(self, model):
        # math.cos raises where np.cos gives NaN: one state reads NaN too, so
        # a diverging run ends in VODE's failure, not in an error from f
        x = np.zeros(2 * model.n)
        x[4] = np.inf
        with np.errstate(invalid="ignore"):
            M, f = model.one_state_forces()(x, x.tolist())
            M_b, f_b = model.mass_and_forces(x[None])
        assert np.isnan(M).all()
        np.testing.assert_array_equal(M, M_b[0])
        np.testing.assert_array_equal(f, f_b[0])

    def test_batch_shares_reads_of_bitwise_equal_angles(self, model):
        # a batch shares row 0's read with the pairs equal to row 0's bit
        # for bit; 0.0 and -0.0 differ, and every other pair, NaN or
        # repeated, is read on its own. Every row keeps the bits of its
        # one-state call
        nan = np.nan
        pairs = np.array([[0.3, 1.1], [0.3, 1.1], [0.0, 1.1], [-0.0, 1.1], [nan, 1.1],
                          [nan, 1.1], [0.3, 1.1], [0.0, 1.1], [0.3, np.nextafter(1.1, 2.0)]])
        own, source = dyn._own(pairs)
        assert own.tolist() == [True, False, True, True, True, True, False, True, True]
        assert source.tolist() == [0, 0, 1, 2, 3, 4, 0, 5, 6]
        rng = np.random.default_rng(44)
        X = rng.normal(0.0, 1.0, (len(pairs), 2 * model.n))
        X[:, 4:6] = pairs
        X[:, 6 : model.n] *= 1e-2
        M, f = model.mass_and_forces(X)
        for k, x in enumerate(X):
            M_k, f_k = model.one_state_forces()(x, x.tolist())
            if np.isnan(x[4]):
                assert np.isnan(M_k).all() and np.isnan(M[k]).all()
            else:
                assert M_k.tobytes() == M[k].tobytes() and f_k.tobytes() == f[k].tobytes(), k

    def test_harmonic_row_gives_harmonics_bits(self):
        # one state's math.cos harmonics against the batch's np.cos ones
        rng = np.random.default_rng(43)
        Q = np.concatenate((rng.uniform(-50.0, 50.0, (5000, 2)), rng.normal(0.0, 1e-3, (50, 2)),
                            [[0.0, -0.0], [-0.0, 1e-300], [np.pi, -np.pi / 2]]))
        H = dyn._harmonics(Q, 1)[:, 0]
        for q, h in zip(Q, H):
            assert dyn._harmonic_row(*q.tolist()).tobytes() == h.tobytes(), q

    def test_gravity_table_rejects_quadratic_elastic_term(self, small_design, monkeypatch):
        # an extra gravity energy 1e-6 q_e1[0]^2, with its exact gradient in
        # the oracle: the table is bilinear in (q_e1, q_e2) and cannot hold it
        potential, gradient = dyn.RobotModel._gravity_potential, dyn.RobotModel.potential_grad

        def with_square(self, q):
            return potential(self, q) + 1e-6 * q[..., self.sl1.start] ** 2

        def with_square_grad(self, q):
            g = gradient(self, q)
            g[..., self.sl1.start] += 2e-6 * q[..., self.sl1.start]
            return g

        monkeypatch.setattr(dyn.RobotModel, "_gravity_potential", with_square)
        monkeypatch.setattr(dyn.RobotModel, "potential_grad", with_square_grad)
        with pytest.raises(ValueError, match="bilinear"):
            dyn.RobotModel(small_design)

    def test_solve_reads_no_oracle(self, small_design, short_plan, fast_sim, monkeypatch):
        solving = []
        calls = {"potential_grad": 0, "mass_gradients": 0, "solving": 0}
        real_solver = dyn.solve_ivp

        def solver(*args, **kwargs):
            solving.append(True)
            try:
                return real_solver(*args, **kwargs)
            finally:
                solving.pop()

        def counted(name):
            real = getattr(dyn.RobotModel, name)

            def call(self, q):
                calls[name] += 1
                calls["solving"] += bool(solving)
                return real(self, q)

            return call

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        for name in ("potential_grad", "mass_gradients"):
            monkeypatch.setattr(dyn.RobotModel, name, counted(name))
        dyn.simulate(small_design, short_plan, fast_sim)
        assert calls["potential_grad"] > 0  # the presolve still uses the oracle
        assert calls["solving"] == 0


def linear(A):
    """Right-hand side of y' = A y for one state or states as rows."""
    return lambda t, y: y @ A.T


# stiff linear systems; the last two have their stiff mode in the last
# component
STIFF_SYSTEMS = {
    "3x3": np.array([[-1.0, 1000.0, 0.0], [0.0, -2000.0, 1.0], [5.0, 0.0, -3.0]]),
    "stiff-last": np.array([[-1.0, 0.0], [1e4, -1e4]]),
    "diagonal": np.diag([-1.0, -1e4]),
}


# stiff, non-symmetric linear system that tells the two Jacobian layouts
# apart; from y(0) = (1, 1) its exact y(1) (the e^(-1e4 t) mode has died out)
PROBE_A = np.array([[-1e4, 1e4], [0.0, -1.0]])
PROBE_Y1 = math.exp(-1.0) * np.array([1e4 / 9999.0, 1.0])


def probe_solves(J):
    """Whether VODE, handed the constant array J as the probe system's
    Jacobian, reaches its exact y(1) within 500 steps."""
    vode = dyn._Vode(linear(PROBE_A), lambda t, y: J, np.ones(2), 0.0, 1e-8, 1e-10, 500)
    y = vode.integrate(1.0)
    return vode.istate > 0 and np.abs(y - PROBE_Y1).max() < 1e-6


class TestVodeDriver:
    """dynamics.solve_ivp drives scipy's VODE BDF; these pin the workarounds
    for its quirks, the Jacobian layout dvode reads and the meaning of the
    counters it reads."""

    @pytest.mark.parametrize("name", sorted(STIFF_SYSTEMS))
    def test_stiff_linear_systems_converge_cheaply(self, name):
        # a misread Jacobian (wrong layout, or the last diagonal entry
        # ignored) makes these stall near the explicit step limit
        A = STIFF_SYSTEMS[name]
        y0 = np.ones(A.shape[0])
        exact = expm(A) @ y0
        sol = dyn.solve_ivp(linear(A), (0.0, 1.0), y0, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(sol.y[:, -1], exact, rtol=0.0, atol=1e-6 * np.abs(exact).max())
        assert sol.nfev < 1000

    def test_layout_probe_discriminates(self):
        # dvode reads the Jacobian transposed (scipy >= 1.17, the version
        # floor): that layout solves the probe system, the other one must
        # not, or a dvode that changed its layout could pass unnoticed
        assert probe_solves(PROBE_A.T)
        assert not probe_solves(PROBE_A)

    def test_no_vode_warning_escapes(self, small_design, short_plan, fast_sim):
        # scipy's wrapper warns of each failed VODE call: the probe's wrong
        # layout, the stalled solve and any failed stop of simulate; failure
        # is told by return values and exceptions only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not probe_solves(PROBE_A)
            with pytest.raises(dyn.SimulationError, match="VODE return code -1"):
                dyn.solve_ivp(lambda t, y: y**2, (0.0, 2.0), [1.0], rtol=1e-6, atol=1e-9)
            dyn.simulate(small_design, short_plan, fast_sim)

    def test_counters_count_rhs_calls_and_steps(self):
        # f calls are single states; each Jacobian is one batched call
        A = STIFF_SYSTEMS["3x3"]
        widths = []

        def fun(t, y):
            widths.append(1 if y.ndim == 1 else y.shape[0])
            return y @ A.T

        sol = dyn.solve_ivp(fun, (0.0, 1.0), np.ones(3), t_eval=np.linspace(0.0, 1.0, 11),
                            rtol=1e-8, atol=1e-10)
        assert sol.t.tolist() == np.linspace(0.0, 1.0, 11).tolist()
        assert widths.count(1) == sol.nfev
        assert widths.count(4) == sol.njev > 0
        assert sol.nfev >= sol.nst > 0
        assert sol.nlu >= sol.njev

    @pytest.mark.parametrize("callback", ["f", "jac"])
    def test_callback_exception_is_reraised(self, callback):
        # VODE itself would carry on and fail later with an unrelated
        # ValueError; fun gets single states from f and batches from the
        # Jacobian
        A = STIFF_SYSTEMS["3x3"]

        def fun(t, y):
            if (y.ndim == 2) if callback == "jac" else t > 0.1:
                raise _Captured(t)
            return y @ A.T

        with pytest.raises(_Captured) as info:
            dyn.solve_ivp(fun, (0.0, 1.0), np.ones(3), rtol=1e-8, atol=1e-10)
        assert callback == "jac" or info.value.args[0] > 0.1

    def test_stall_returns_failure_with_return_code(self):
        # y' = y^2 blows up at t = 1: the step size collapses, and the error
        # names the time VODE reached, not the last output time
        with pytest.raises(dyn.SimulationError, match="VODE return code -1") as info:
            dyn.solve_ivp(lambda t, y: y**2, (0.0, 2.0), [1.0],
                          t_eval=np.linspace(0.0, 2.0, 21), rtol=1e-6, atol=1e-9)
        assert 0.99 < info.value.t_failure < 1.0

    def test_step_limit_counts_simulated_time(self):
        # 200 periods in one output interval take about 14,000 steps, well
        # above the limit, but under 20 per simulated millisecond
        w = 2.0 * np.pi * 200.0
        A = np.array([[0.0, 1.0], [-w * w, 0.0]])
        sol = dyn.solve_ivp(linear(A), (0.0, 1.0), [1.0, 0.0], rtol=1e-6, atol=1e-9)
        assert sol.nst > dyn._MAX_STEPS
        np.testing.assert_allclose(sol.y[:, -1] / [1.0, w], [1.0, 0.0], rtol=0.0, atol=1e-2)

    def test_coarse_sample_rate_completes(self, small_design, short_plan, fast_sim,
                                          monkeypatch):
        # 100 steps per millisecond suffice at any output spacing (at 4 Hz
        # one output interval takes more); VODE steps past each output time
        # and interpolates back, so the outputs the two grids share agree
        # bit for bit
        monkeypatch.setattr(dyn, "_MAX_STEPS", 100)
        fine = dyn.simulate(small_design, short_plan, fast_sim)
        coarse = dyn.simulate(small_design, short_plan, dataclasses.replace(fast_sim, sample_rate=4.0))
        idx = np.rint(coarse.times * fast_sim.sample_rate).astype(int)
        assert coarse.times.size == 3
        np.testing.assert_allclose(fine.times[idx], coarse.times, rtol=1e-15)
        np.testing.assert_array_equal(fine.q[idx], coarse.q)
        np.testing.assert_array_equal(fine.dr_ee[idx], coarse.dr_ee)

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_rigid_limit_takes_few_steps(self, small_design, short_plan, fast_sim, modes):
        # E and gear stiffness scaled by 1e6. The f calls and the Jacobian's
        # batch must share one force law bit for bit: on the small modes,
        # the one-state f alone scaled by (1 + 2^-52), the batch untouched,
        # took 116,723 steps and 1,952 Jacobians, against 4,113 and 73 (the
        # demo modes take under 300 steps either way)
        design = small_design if modes == "small" else demo_modes(small_design)
        stiff_drives = tuple(
            dataclasses.replace(d, stiffness=d.stiffness * 1e6, damping=d.damping * 1e3)
            for d in design.drives
        )
        design = dataclasses.replace(
            design, material=dataclasses.replace(design.material, E=2.1e17),
            drives=stiff_drives,
        )
        result = dyn.simulate(design, short_plan, fast_sim)
        assert result.stats["steps"] < 20_000

    def test_step_limit_raises_simulation_error(self, small_design, short_plan, fast_sim,
                                                monkeypatch):
        monkeypatch.setattr(dyn, "_MAX_STEPS", 3)
        with pytest.raises(dyn.SimulationError, match="return code -1") as info:
            dyn.simulate(small_design, short_plan, fast_sim)
        assert info.value.t_failure is not None

    def test_matches_scipy_bdf(self, small_design, short_plan, fast_sim, monkeypatch):
        """Differential test against scipy's solve_ivp BDF, the integrator
        VODE replaced. Tolerance: 10 rtol, the bound criterion 8 puts on
        the move of the terminal state when rtol is halved, on the
        terminal state (relative to max(1, |q|)) and on J_vib and D_max
        (relative). Measured: 3e-8, 4e-7 and 1.2e-5 at rtol = 1e-5."""
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        from flexlife import design as dsg
        from flexlife.fatigue import FatigueMaterial

        def bdf(fun, t_span, y0, **kwargs):
            # scipy's vectorized fun takes states as columns (N, k)
            sol = scipy_solve_ivp(lambda t, y: fun(t, y.T).T, t_span, y0, method="BDF",
                                  vectorized=True, **kwargs)
            sol.nst = sol.t.size - 1
            return sol

        settings = dsg.SweepSettings(
            sim=fast_sim,
            fatigue_material=FatigueMaterial(yield_strength=8e7, fatigue_strength=8e5),
            reference=(0.004, 0.004),
            n_angles=19,
        )

        def outputs(res):
            histories = dsg.link_stress_histories(small_design, res)
            d_max, _ = dsg.candidate_lifetime(histories, settings, short_plan.t_task)
            return np.array([dsg.vibration_criterion(res), d_max])

        vode = dyn.simulate(small_design, short_plan, fast_sim)
        monkeypatch.setattr(dyn, "solve_ivp", bdf)
        oracle = dyn.simulate(small_design, short_plan, fast_sim)
        bound = 10.0 * fast_sim.rtol
        np.testing.assert_array_equal(vode.times, oracle.times)
        scale = max(1.0, np.abs(oracle.q[-1]).max())
        assert np.abs(vode.q[-1] - oracle.q[-1]).max() / scale < bound
        np.testing.assert_allclose(outputs(vode), outputs(oracle), rtol=bound, atol=0.0)



class OdeVode:
    """The VODE driver as it was through ``scipy.integrate.ode``, with
    ``dyn._Vode``'s interface: the oracle of the direct ``dvode`` call."""

    def __init__(self, f, jac, y0, t0, rtol, atol, nsteps):
        n = y0.size
        failure = []

        def extended(callback, shape):
            real = (slice(n),) * len(shape)
            out = np.zeros(shape)

            def call(t, y):
                if not failure:
                    try:
                        out[real] = callback(t, y[:n])
                        return out
                    except BaseException as exc:
                        failure.append(exc)
                return np.full(shape, np.nan)

            return call

        r = ode(extended(f, (n + 1,)), extended(jac, (n + 1, n + 1)))
        scale = math.sqrt(n / (n + 1))
        r.set_integrator("vode", method="bdf", rtol=rtol * scale, atol=atol * scale, nsteps=nsteps)
        r.set_initial_value(np.append(y0, 0.0), t0)
        self._r, self._n, self._failure = r, n, failure
        self.iwork = r._integrator.iwork

    @property
    def istate(self):
        code = self._r.get_return_code()  # None before the first call
        return 1 if code is None else code

    @property
    def t(self):
        return self._r.t

    def integrate(self, t):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "vode: ", UserWarning)
            y = self._r.integrate(t)
        if self._failure:
            raise self._failure[0]
        return y[: self._n]


def recording(driver, log):
    """driver, logging (t asked, t reached, istate, y bytes) of every
    integrate call that returns, with the driver itself in log[0]."""

    class Recording(driver):
        def __init__(self, *args):
            super().__init__(*args)
            log.insert(0, self)

        def integrate(self, t):
            y = super().integrate(t)
            log.append((float(t), self.t, self.istate, y.tobytes()))
            return y

    return Recording


def run_both(monkeypatch, run):
    """run() with the direct driver and with the ode oracle: per driver,
    (its result or the exception it raised, its stops, its end state)."""
    outcomes = []
    for driver in (dyn._Vode, OdeVode):
        log = []
        monkeypatch.setattr(dyn, "_Vode", recording(driver, log))
        try:
            result = run()
        except Exception as exc:  # the tests compare it
            result = exc
        # iwork[4] is the maximum order asked for: ode asks 12, which VODE
        # caps at BDF's 5, and the direct call asks 5
        iwork = log[0].iwork.tolist()
        iwork[4] = min(iwork[4], 5)
        outcomes.append((result, log[1:], (log[0].istate, log[0].t, iwork)))
    return outcomes


def assert_same_solve(direct, oracle):
    for field in ("t", "y"):
        assert getattr(direct, field).tobytes() == getattr(oracle, field).tobytes()
    for field in ("nfev", "njev", "nlu", "nst"):
        assert getattr(direct, field) == getattr(oracle, field), field


class TestDirectVodeCall:
    """dyn._Vode calls dvode with the arguments scipy.integrate.ode passed
    it, so it must give the oracle's bits, counters and failures at
    tolerance 0."""

    @pytest.mark.parametrize("name", sorted(STIFF_SYSTEMS))
    def test_stiff_systems(self, name, monkeypatch):
        A = STIFF_SYSTEMS[name]
        (direct, stops, end), (oracle, oracle_stops, oracle_end) = run_both(
            monkeypatch,
            lambda: dyn.solve_ivp(linear(A), (0.0, 1.0), np.ones(A.shape[0]),
                                  t_eval=np.linspace(0.0, 1.0, 11), rtol=1e-8, atol=1e-10),
        )
        assert len(stops) >= 10
        assert_same_solve(direct, oracle)
        assert stops == oracle_stops and end == oracle_end

    def test_simulate(self, small_design, short_plan, fast_sim, monkeypatch):
        (direct, stops, end), (oracle, oracle_stops, oracle_end) = run_both(
            monkeypatch, lambda: dyn.simulate(small_design, short_plan, fast_sim)
        )
        assert stops == oracle_stops and end == oracle_end
        assert direct.q.tobytes() == oracle.q.tobytes()
        for key in ("nfev", "njev", "nlu", "steps"):
            assert direct.stats[key] == oracle.stats[key], key

    def test_blow_up(self, monkeypatch):
        # y' = y^2 blows up at t = 1: VODE gives up with return code -1, and
        # both drivers raise the same error at the same time
        (direct, stops, end), (oracle, oracle_stops, oracle_end) = run_both(
            monkeypatch,
            lambda: dyn.solve_ivp(lambda t, y: y**2, (0.0, 2.0), [1.0],
                                  t_eval=np.linspace(0.0, 2.0, 21), rtol=1e-6, atol=1e-9),
        )
        assert isinstance(direct, dyn.SimulationError) and isinstance(oracle, dyn.SimulationError)
        assert "VODE return code -1" in str(direct) and str(direct) == str(oracle)
        assert direct.t_failure == oracle.t_failure
        assert stops == oracle_stops and end == oracle_end

    def test_callback_raising_mid_run(self, monkeypatch):
        A = STIFF_SYSTEMS["3x3"]

        def fun(t, y):
            if t > 0.35:
                raise _Captured(t)
            return y @ A.T

        (direct, stops, end), (oracle, oracle_stops, oracle_end) = run_both(
            monkeypatch,
            lambda: dyn.solve_ivp(fun, (0.0, 1.0), np.ones(3),
                                  t_eval=np.linspace(0.0, 1.0, 11), rtol=1e-8, atol=1e-10),
        )
        assert isinstance(direct, _Captured) and isinstance(oracle, _Captured)
        assert direct.args == oracle.args
        assert len(stops) >= 3 and stops == oracle_stops
        assert end[0] < 0 and end == oracle_end



class TestScipyExtension:
    def test_loads_from_file_without_package(self, monkeypatch):
        # the package init is not run: scipy.integrate stays out of
        # sys.modules when it was not there
        import scipy.integrate._vode as imported

        monkeypatch.delitem(sys.modules, "scipy.integrate._vode")
        monkeypatch.delitem(sys.modules, "scipy.integrate")
        module = dyn._scipy_extension.__wrapped__("integrate._vode")
        assert module is not imported and module.__file__ == imported.__file__
        assert callable(module.dvode) and "scipy.integrate" not in sys.modules

    def test_takes_imported_module(self):
        import scipy.linalg._flapack as imported

        assert dyn._scipy_extension.__wrapped__("linalg._flapack") is imported

    def test_missing_module_named(self):
        with pytest.raises(ImportError, match="scipy.integrate._missing") as info:
            dyn._scipy_extension.__wrapped__("integrate._missing")
        assert info.value.name == "scipy.integrate._missing"


class PairModel:
    """A model stub whose (q_L, q_e) block of the potential Hessian and
    the mass matrix is the pair (K, M)."""

    def __init__(self, K, M):
        self._K, self._M = (np.pad(A, ((3, 0), (3, 0))) for A in (K, M))

    def potential_hessian(self, q):
        return self._K.copy()

    def mass_matrix(self, q):
        return self._M.copy()


def eigh_periods(model, q):
    """linearized_periods as it was through scipy.linalg.eigh: the oracle
    of the direct dsygvd call."""
    w2 = eigh(model.potential_hessian(q)[3:, 3:], model.mass_matrix(q)[3:, 3:],
              eigvals_only=True)
    return 2.0 * np.pi / np.sqrt(w2[w2 > 1e-9])


class TestLinearizedPeriodsLapack:
    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_designs_match_eigh(self, small_design, modes):
        design = small_design if modes == "small" else demo_modes(small_design)
        model = dyn.RobotModel(design)
        for q_motor in ([0.0, 0.5, -0.8], [0.3, -0.2, 1.4]):
            q, _ = dyn.static_equilibrium(model, np.array(q_motor))
            periods = dyn.linearized_periods(model, q)
            assert periods.size == model.n - 3
            assert periods.tobytes() == eigh_periods(model, q).tobytes()

    def test_random_pairs_match_eigh(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            A, B = rng.normal(size=(2, n, n))
            model = PairModel(A @ A.T + 0.1 * np.eye(n), B @ B.T + 0.1 * np.eye(n))
            periods = dyn.linearized_periods(model, None)
            assert periods.tobytes() == eigh_periods(model, None).tobytes()

    @pytest.mark.parametrize("fault", ["nan_stiffness", "indefinite_mass"])
    def test_failures_raise_as_eigh(self, fault):
        # where eigh raises its ValueError or LinAlgError, the direct call
        # raises SimulationError, named as simulate's settling window stage
        K, M = np.diag([2.0, 3.0, 5.0]), np.eye(3)
        if fault == "nan_stiffness":
            K[1, 2] = K[2, 1] = np.nan
            expected = ValueError
        else:
            M[1, 1] = -1.0
            expected = np.linalg.LinAlgError
        model = PairModel(K, M)
        with pytest.raises(expected):
            eigh_periods(model, None)
        with pytest.raises(dyn.SimulationError, match="^settling window: vibration periods"):
            dyn.linearized_periods(model, None)


class TestMassMatrixGuard:
    def test_simulate_raises_simulation_error(self, small_design, short_plan, fast_sim,
                                              monkeypatch):
        indefinite_mass(monkeypatch)
        with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
            dyn.simulate(small_design, short_plan, fast_sim)
        assert info.value.t_failure is not None

    def test_mid_run_failure_in_f_is_reraised(self, small_design, short_plan, fast_sim,
                                              monkeypatch):
        # M turns indefinite after t = 0.05, and only for the single states
        # VODE's f sees (the Jacobian calls are batches), so the guard trips
        # inside f, whose exceptions VODE does not propagate
        now = [0.0]
        real_solver, real_one = dyn.solve_ivp, dyn.RobotModel.one_state_forces

        def solver(fun, *args, **kwargs):
            def timed(t, y):
                now[0] = t
                return fun(t, y)

            return real_solver(timed, *args, **kwargs)

        def one_state_forces(self):
            forces = real_one(self)

            def turning(y, values):
                M, f = forces(y, values)
                return (-M if now[0] > 0.05 else M), f

            return turning

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        monkeypatch.setattr(dyn.RobotModel, "one_state_forces", one_state_forces)
        with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
            dyn.simulate(small_design, short_plan, fast_sim)
        assert not isinstance(info.value, ValueError)
        assert 0.05 < info.value.t_failure < short_plan.t_task

    def test_batched_call_raises_simulation_error(self, small_design, short_plan, fast_sim,
                                                  monkeypatch):
        indefinite_mass(monkeypatch)
        rhs, y0 = captured_rhs(small_design, short_plan, fast_sim, monkeypatch)
        Y = np.repeat(y0[None], 35, axis=0)
        with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
            rhs(0.25, Y)
        assert info.value.t_failure == 0.25


def numpy_mass_solve(t, M, f):
    """The RHS's mass solve before the LAPACK path: numpy's Cholesky as
    the positive-definiteness guard, then numpy's solve."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise dyn.SimulationError(f"mass matrix not positive definite at t={t:.6f}", t) from exc
    return np.linalg.solve(M, f[..., None])[..., 0]


def clip_law(gains, q_motor, qd_motor, q_des, qd_des, integrator, tau_ff, tau_limit):
    """The control law in numpy, with np.clip as the saturation; tau_ff
    None is no feedforward."""
    kp, kv, ki = (np.asarray(g) for g in (gains.kp_pos, gains.kp_vel, gains.ki_vel))
    e_v = qd_des + kp * (q_des - q_motor) - qd_motor
    tau = kv * e_v + ki * integrator
    if tau_ff is not None:
        tau = tau + tau_ff
    return np.clip(tau, -tau_limit, tau_limit), e_v


class TestRhsFastPaths:
    """The RHS's per-call paths against the numpy calls they replace.
    The mass solve runs scipy's LAPACK: dgesv for an f call, and for a
    Jacobian batch dgetrf on row 0's M and on each M with other bits, then
    dgetrs per row. dgesv is dgetrf followed by dgetrs, so the f call and
    every Jacobian row give the same bits (tolerance 0). Against numpy's
    solve, which another LAPACK build may carry, the solve is held to
    1e-13 of each state's largest acceleration. The feedforward lookup and the control law do
    the same IEEE operations as their numpy references and must give the
    same bits. One Python-float control_law serves the f call and every
    Jacobian row; a batch runs it on row 0 and on each row whose control
    inputs differ in their bits from row 0's, and the other rows take row
    0's torques and rates, so each row still gets its f call's bits."""

    def test_mass_solve_matches_numpy(self, small_design):
        model = dyn.RobotModel(demo_modes(small_design))
        rng = np.random.default_rng(51)
        X = rng.normal(0.0, 1.0, (35, 2 * model.n))
        X[:, 4:6] = rng.uniform(-4.0, 4.0, (35, 2))
        X[:, 6 : model.n] *= 1e-2
        M, f = model.mass_and_forces(X)
        solve = dyn._mass_solver()
        batch = solve(0.25, M, f)
        ref = numpy_mass_solve(0.25, M, f)
        assert batch.shape == ref.shape == f.shape
        for k in range(X.shape[0]):
            tol = 1e-13 * np.abs(ref[k]).max()
            np.testing.assert_allclose(batch[k], ref[k], rtol=0.0, atol=tol)
            M_k, f_k = model.one_state_forces()(X[k], X[k].tolist())
            single = solve(0.25, M_k, f_k)
            assert single.shape == f_k.shape
            np.testing.assert_allclose(single, numpy_mass_solve(0.25, M_k, f_k), rtol=0.0,
                                       atol=tol)

    @pytest.mark.parametrize("batched", [False, True])
    def test_mass_solve_rejects_indefinite_mass(self, small_design, batched):
        model = dyn.RobotModel(demo_modes(small_design))
        X = np.zeros((35, 2 * model.n))
        X[:, 4:6] = (0.4, -1.1)
        M, f = model.mass_and_forces(X if batched else X[0])
        M[..., 7, 7] = -1.0
        with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
            dyn._mass_solver()(0.125, M, f)
        assert info.value.t_failure == 0.125

    def test_batch_solve_gives_one_state_bits(self):
        # a Jacobian batch shares one M across most of its rows: row 0's M
        # and each M with other bits are factored (dgetrf) and each row
        # solved with dgetrs, which must give the single state's dgesv bits,
        # tolerance 0 (numpy's batched solve, used before, misses them on 51
        # of these 299 rows). In the random order the M shared by 100 rows
        # lands at row 0 only by chance; in the second order it is row 0's
        rng = np.random.default_rng(55)
        A = rng.normal(0.0, 1.0, (200, 16, 16))
        Ms = A @ np.swapaxes(A, -1, -2) + 16.0 * np.eye(16)
        shuffled = rng.permutation(299)
        f = rng.normal(0.0, 1.0, (299, 16))
        solve = dyn._mass_solver()
        for order in (shuffled, np.arange(299)):
            M = np.concatenate((np.repeat(Ms[:1], 100, axis=0), Ms[1:]))[order]
            acc = solve(0.5, M, f)
            assert acc.shape == f.shape
            for k in range(len(M)):
                assert solve(0.5, M[k], f[k]).tobytes() == acc[k].tobytes(), k
            grid = solve(0.5, M.reshape(13, 23, 16, 16), f.reshape(13, 23, 16))
            assert grid.tobytes() == acc.tobytes()
            # the shared M turned indefinite, the rows with their own M not
            M[order < 100] = -Ms[0]
            with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
                solve(0.5, M, f)
            assert info.value.t_failure == 0.5
        assert dyn._own(M.reshape(299, -1))[0].sum() == 200  # 99 rows shared row 0's M

    def test_one_state_results_are_the_callers(self, small_design, short_plan, fast_sim,
                                               monkeypatch):
        # the one-state path writes into buffers made once per run; they
        # stay private to the RHS, so a later call overwrites nothing that
        # mass_and_forces or rhs returned
        model = dyn.RobotModel(small_design)
        rng = np.random.default_rng(56)
        X = rng.normal(0.0, 1.0, (2, 2 * model.n))
        X[:, 6 : model.n] *= 1e-2
        first = model.mass_and_forces(X[0])
        kept = [a.copy() for a in first]
        second = model.mass_and_forces(X[1])
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        rhs, y0 = captured_rhs(small_design, short_plan, fast_sim, monkeypatch)
        Y = y0 + rng.normal(0.0, 1e-3, (2, y0.size))
        out = rhs(0.1, Y[0])
        kept = out.copy()
        later = rhs(0.1, Y[1])
        assert out.tobytes() == kept.tobytes() != later.tobytes()
        assert not np.shares_memory(out, later)

    def test_solve_calls_no_numpy_linalg(self, small_design, short_plan, fast_sim,
                                         monkeypatch):
        # every mass solve of the RHS, f call or Jacobian row, runs scipy's
        # LAPACK: numpy's solve and cholesky are not called while VODE runs
        solving, calls = [], []
        real_solver = dyn.solve_ivp

        def solver(*args, **kwargs):
            solving.append(True)
            try:
                return real_solver(*args, **kwargs)
            finally:
                solving.pop()

        def counted(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                if solving:
                    calls.append(name)
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        for name in ("solve", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        result = dyn.simulate(small_design, short_plan, fast_sim)
        assert result.stats["njev"] > 0 and calls == []

    def test_feedforward_lookup_gives_interp_bits(self, small_design, short_plan):
        model = dyn.RobotModel(small_design)
        ts, tau = dyn._feedforward_table(model, short_plan, short_plan.t_task + 0.15, 2e-3)
        assert np.ptp(tau, axis=0).min() > 0.0  # every joint moves
        at = dyn._row_lookup(ts, tau)
        lookup = lambda t: np.array(at(t))
        rng = np.random.default_rng(52)
        times = np.concatenate((
            ts,  # knots, the first and the last among them
            0.5 * (ts[:-1] + ts[1:]),  # midpoints
            rng.uniform(0.0, ts[-1], 300),
            [-1.0, -1e-300, np.nextafter(ts[-1], np.inf), ts[-1] + 0.01, 1e3],
        ))
        for t in times.tolist():
            want = np.array([np.interp(t, ts, tau[:, i]) for i in range(3)])
            assert lookup(t).tobytes() == want.tobytes(), t
        # a -0.0 read at its knot keeps its sign, as np.interp's does
        assert np.signbit(dyn._row_lookup(np.array([0.0, 1.0]), np.array([[-0.0], [1.0]]))(0.0))

    @pytest.mark.parametrize("cell", [1, 31])
    def test_feedforward_table_ends_one_knot_after_the_task(self, workloads, cell):
        # the table on every knot of the run, as it was built before it
        # ended after the task, against the table that ends there: the
        # lookups give the same bits, tolerance 0
        cfg = config.load_config(workloads.BASE_CONFIG)
        plan = plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
        _, t1, t2 = list(cfg.grid.candidates())[cell - 1]
        model = dyn.RobotModel(cfg.design.with_thicknesses(t1, t2))
        q0, _ = dyn.static_equilibrium(model, plan.q_pick)
        t_end = plan.t_task + 2.0 * float(np.max(dyn.linearized_periods(model, q0)))
        dt = 2e-3
        ts_full = np.arange(0.0, t_end + dt, dt)
        qdes, qddes, qdddes = plan.sample_grid(ts_full)
        S = np.zeros((model.n, 3))
        S[:3] = S[3:6] = np.eye(3)
        M, f = model.mass_and_forces(np.concatenate((qdes @ S.T, qddes @ S.T), axis=-1))
        tau_full = ((M @ (qdddes @ S.T)[..., None])[..., 0] - f) @ S
        # the plan holds its pose after the task: every row from there on
        # repeats one row
        after = tau_full[ts_full >= plan.t_task]
        assert len(after) > 100 and np.all(after == after[0])
        ts, tau = dyn._feedforward_table(model, plan, t_end, dt)
        assert ts[-2] <= plan.t_task < ts[-1]
        assert ts.tobytes() == ts_full[: ts.size].tobytes()
        full, cut = dyn._row_lookup(ts_full, tau_full), dyn._row_lookup(ts, tau)
        for t in np.concatenate((np.linspace(0.0, t_end, 20001), ts_full)).tolist():
            assert np.array(cut(t)).tobytes() == np.array(full(t)).tobytes(), t

    @pytest.mark.parametrize("feedforward", [True, False])
    def test_one_state_rhs_gives_numpy_control_bits(self, small_design, short_plan, fast_sim,
                                                    feedforward, monkeypatch):
        # one state's RHS runs the control law in Python floats; numpy's
        # calls on plan.sample, the np.interp lookup and clip_law must give
        # the same bits, saturated torques included
        gains = dataclasses.replace(fast_sim.gains, feedforward=feedforward)
        settings = dataclasses.replace(fast_sim, gains=gains)
        rhs, y0 = captured_rhs(small_design, short_plan, settings, monkeypatch)
        model = dyn.RobotModel(small_design)
        n = model.n
        t_end = short_plan.t_task + fast_sim.t_settle
        ts, tau_ff = dyn._feedforward_table(model, short_plan, t_end, 2e-3)
        at = dyn._row_lookup(ts, tau_ff)
        lookup = (lambda t: np.array(at(t))) if feedforward else (lambda t: None)
        solve = dyn._mass_solver()
        # the plan's segment ends of the first joint, in task time
        profile, scale = short_plan._profiles[0], short_plan._scale[0]
        knots = [k / scale for k in profile._knots]
        times = [-1.0, -1e-300, 0.0, *knots, *ts[:3].tolist(), *ts[-2:].tolist(),
                 short_plan.t_task, short_plan.t_task + 1e-3, ts[-1] + 0.01, 1e3]
        rng = np.random.default_rng(54)
        Y = y0 + rng.normal(0.0, 1e-3, (8, y0.size))
        Y[4:, n : n + 3] += rng.choice([-5.0, 5.0], (4, 3))  # drive into saturation
        saturated = []
        for t in times:
            for y in Y:
                M, f = model.one_state_forces()(y, y.tolist())
                q_des, qd_des, _ = short_plan.sample(t)
                tau, e_v = clip_law(gains, y[:3], y[n : n + 3], q_des, qd_des,
                                    y[2 * n :], lookup(t), model.tau_limit)
                saturated.append(np.abs(tau) == model.tau_limit)
                f[:3] += tau
                want = np.concatenate((y[n : 2 * n], solve(t, M, f), e_v))
                assert rhs(t, y).tobytes() == want.tobytes(), t
        assert np.any(saturated) and not np.all(saturated)

    def test_controller_gives_clip_law_bits(self, demo_gains):
        rng = np.random.default_rng(53)
        k = 40
        args = [rng.normal(0.0, 0.1, (k, 3)) for _ in range(5)]  # q_M, qd_M, q_d, qd_d, x
        tau_ff = rng.normal(0.0, 20.0, 3)
        tau_limit = np.array([50.0, 60.0, 40.0])
        tau_ref, e_ref = clip_law(demo_gains, *args, tau_ff, tau_limit)
        saturated = np.abs(tau_ref) == tau_limit
        assert saturated.any() and not saturated.all()
        for j in range(k):  # the single states of the solver's f calls
            q_m, qd_m, q_d, qd_d, x = (a[j] for a in args)
            tau, e_v = run_law(demo_gains, q_m, qd_m, q_d, qd_d, x, tau_ff, tau_limit)
            assert tau.tobytes() == tau_ref[j].tobytes() and e_v.tobytes() == e_ref[j].tobytes()

    def test_batch_rows_give_their_f_call_bits(self, small_design, short_plan, fast_sim,
                                               monkeypatch):
        # a batch runs the control law on row 0 and on the rows whose 9
        # control inputs (q_M, qd_M, integrators) differ from row 0's in
        # their bits; every row must still give its f call's bits
        rhs, y0 = captured_rhs(small_design, short_plan, fast_sim, monkeypatch)
        model = dyn.RobotModel(small_design)
        n = model.n
        rng = np.random.default_rng(57)
        y = y0 + rng.normal(0.0, 1e-3, y0.size)
        y[n + 1] = 0.0
        Y = np.repeat(y[None], 12, axis=0)
        Y[1, 7] += 1e-4  # a non-control column: an elastic coordinate
        Y[2, 4] += 1e-3  # a non-control column: a link angle
        Y[3, n + 1] = -0.0  # 0.0 against -0.0 in a motor rate
        Y[4, n + 2] = np.nan  # a NaN in a motor rate
        Y[5, 2 * n] = np.nextafter(Y[0, 2 * n], np.inf)  # one ulp in an integrator
        Y[6:9, n : n + 3] += 5.0  # saturated rows, the last two alike
        Y[8, 7] -= 1e-4
        Y[9, 2 * n + 1] = Y[5, 2 * n]  # an integrator moved, in two equal rows
        Y[10] = Y[9]
        Y[11, 0] -= 5.0  # saturated the other way
        gains = fast_sim.gains
        law = list(zip(gains.kp_pos, gains.kp_vel, gains.ki_vel, model.tau_limit.tolist()))
        q_des, qd_des, _ = short_plan.sample_floats(0.004)
        ts, tau_ff = dyn._feedforward_table(model, short_plan,
                                            short_plan.t_task + fast_sim.t_settle, 2e-3)
        ff = dyn._row_lookup(ts, tau_ff)(0.004)
        saturated = [np.abs(dyn.control_law(law, q_des, qd_des, ff, row, n)[0])
                     == model.tau_limit for row in Y.tolist()]
        assert np.any(saturated[6:]) and not np.any(saturated[:6])
        batch = rhs(0.004, Y)
        for k in range(len(Y)):
            assert batch[k].tobytes() == rhs(0.004, Y[k]).tobytes(), k
