import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flexlife import dynamics as dyn
from flexlife.trajectory import JointLimits, plan_joint_move


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
        rng = np.random.default_rng(1)
        q = rng.normal(0.0, 0.5, model.n)
        _, gyro = dyn.eom(model, q, np.zeros(model.n))
        np.testing.assert_allclose(gyro, 0.0, atol=1e-15)

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

    def test_eom_batch_matches_single_states(self, model):
        rng = np.random.default_rng(6)
        Q = rng.normal(0.0, 1.0, (5, model.n))
        Qd = rng.normal(0.0, 2.0, (5, model.n))
        M, h = dyn.eom(model, Q, Qd)
        for k in range(5):
            M_k, h_k = dyn.eom(model, Q[k], Qd[k])
            np.testing.assert_array_equal(M[k], M_k)
            np.testing.assert_allclose(h[k], h_k, rtol=0.0, atol=1e-12 * np.abs(h_k).max())

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


class TestController:
    def test_zero_error_zero_torque(self, demo_gains):
        tau, e_v = dyn.controller(
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
        tau, _ = dyn.controller(
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
        tau, _ = dyn.controller(
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
        assert set(res.stats) == {"nfev", "njev", "nlu", "steps"}
        assert all(isinstance(v, int) and v > 0 for v in res.stats.values())

    def test_controller_runs_only_inside_the_solver(
        self, small_design, short_plan, fast_sim, monkeypatch
    ):
        solving = []
        calls = []
        real_solver, real_controller = dyn.solve_ivp, dyn.controller

        def solver(*args, **kwargs):
            solving.append(True)
            try:
                return real_solver(*args, **kwargs)
            finally:
                solving.pop()

        def recording(*args):
            calls.append(bool(solving))
            return real_controller(*args)

        monkeypatch.setattr(dyn, "solve_ivp", solver)
        monkeypatch.setattr(dyn, "controller", recording)
        res = dyn.simulate(small_design, short_plan, fast_sim)
        assert calls and all(calls)
        assert not hasattr(res, "tau")

    def test_tracking_reaches_target(self, small_design, demo_gains, short_plan, fast_sim):
        res = dyn.simulate(small_design, short_plan, fast_sim)
        np.testing.assert_allclose(
            res.q[-1, :3], short_plan.q_place, atol=5e-4
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
        model.potential_grad = lambda q: 1.0 + q**2  # no root, regular Jacobian
        with pytest.raises(dyn.SimulationError, match="residual norm"):
            dyn.static_equilibrium(model, np.array([0.2, 0.6, -1.0]))

    def test_linearized_periods_without_modes_raises(self, small_design):
        model = dyn.RobotModel(small_design)
        model.potential_grad = lambda q: np.zeros(np.shape(q))  # no stiffness at all
        with pytest.raises(dyn.SimulationError, match="no vibration mode"):
            dyn.linearized_periods(model, np.zeros(model.n))

    def test_static_equilibrium_balances_gradient(self, small_design):
        model = dyn.RobotModel(small_design)
        q = dyn.static_equilibrium(model, np.array([0.2, 0.6, -1.0]))
        g = model.potential_grad(q)
        assert np.abs(g[3:]).max() < 1e-8

    def test_linearized_periods_positive(self, small_design):
        model = dyn.RobotModel(small_design)
        q = dyn.static_equilibrium(model, np.array([0.0, 0.5, -0.8]))
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
    assert seen["kwargs"]["vectorized"] is True
    return seen["fun"], seen["y0"]


def indefinite_mass(monkeypatch):
    real = dyn.RobotModel.mass_gradients

    def negated(self, q):
        M, dM2, dM3 = real(self, q)
        return -M, dM2, dM3

    monkeypatch.setattr(dyn.RobotModel, "mass_gradients", negated)


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

    @pytest.mark.parametrize("h", [1e-7, 1e-6])
    def test_free_jacobian_matches_per_column_loop(self, small_design, h):
        model = dyn.RobotModel(demo_modes(small_design))
        q = dyn.static_equilibrium(model, np.array([0.2, 0.6, -1.0]))
        g_free = model.potential_grad(q)[3:]
        loop = np.empty((model.n - 3, model.n - 3))
        for k in range(model.n - 3):
            qp = q.copy()
            qp[3 + k] += h
            loop[:, k] = (model.potential_grad(qp)[3:] - g_free) / h
        jac = dyn._free_jacobian(model, q, g_free, h)
        np.testing.assert_allclose(jac, loop, rtol=0.0, atol=1e-13 * np.abs(loop).max())

    @pytest.mark.parametrize("modes", ["small", "demo"])
    def test_rhs_columns_match_one_column_calls(
        self, small_design, short_plan, fast_sim, modes, monkeypatch
    ):
        design = small_design if modes == "small" else demo_modes(small_design)
        rhs, y0 = captured_rhs(design, short_plan, fast_sim, monkeypatch)
        rng = np.random.default_rng(32)
        Y = y0[:, None] + rng.normal(0.0, 1e-2, (y0.size, 35))
        batch = rhs(0.05, Y)
        assert batch.shape == Y.shape
        for k in range(Y.shape[1]):
            col = rhs(0.05, Y[:, [k]])[:, 0]
            tol = 1e-13 * np.abs(col).max()
            np.testing.assert_allclose(batch[:, k], col, rtol=0.0, atol=tol)
            np.testing.assert_allclose(rhs(0.05, Y[:, k]), col, rtol=0.0, atol=tol)


class TestMassMatrixGuard:
    def test_simulate_raises_simulation_error(self, small_design, short_plan, fast_sim,
                                              monkeypatch):
        indefinite_mass(monkeypatch)
        with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
            dyn.simulate(small_design, short_plan, fast_sim)
        assert info.value.t_failure is not None

    def test_batched_call_raises_simulation_error(self, small_design, short_plan, fast_sim,
                                                  monkeypatch):
        rhs, y0 = captured_rhs(small_design, short_plan, fast_sim, monkeypatch)
        indefinite_mass(monkeypatch)
        Y = np.repeat(y0[:, None], 35, axis=1)
        with pytest.raises(dyn.SimulationError, match="not positive definite") as info:
            rhs(0.25, Y)
        assert info.value.t_failure == 0.25
