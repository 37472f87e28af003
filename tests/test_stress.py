import numpy as np
import pytest

from flexlife import stress as st
from flexlife.beam import Material, section_properties

MPA = 1e6


@pytest.fixture
def section():
    return section_properties(0.035, 0.004)


@pytest.fixture
def steel():
    return Material(rho=7850.0, E=2.1e11, nu=0.3)


class TestMaterialPoint:
    def test_default_point_is_top_midwall(self, section):
        pt = st.default_stress_point(section)
        assert pt.y == 0.0
        assert pt.z == pytest.approx(0.5 * (section.a - section.t))
        assert pt.tangent == (-1.0, 0.0)

    def test_off_midline_rejected(self, section):
        with pytest.raises(ValueError):
            st.material_point(section, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            st.material_point(section, 0.0, 0.0, section.a)

    def test_face_tangents_counterclockwise(self, section):
        half = 0.5 * (section.a - section.t)
        assert st.material_point(section, 0.0, half, 0.0).tangent == (0.0, 1.0)
        assert st.material_point(section, 0.0, -half, 0.0).tangent == (0.0, -1.0)
        assert st.material_point(section, 0.0, 0.0, -half).tangent == (1.0, 0.0)


class TestStressesFromCurvature:
    def test_zero_curvature(self, section, steel):
        pt = st.default_stress_point(section)
        hist = st.stresses_from_curvature(np.arange(3.0), np.zeros((3, 3)), pt, steel)
        assert np.all(hist.sigma_xx == 0.0) and np.all(hist.sigma_xy == 0.0)

    def test_pure_bending(self, section, steel):
        # v'' = c at a side-wall point (y, 0): sigma_xx = -E c y, no shear
        half = 0.5 * (section.a - section.t)
        pt = st.material_point(section, 0.0, half, 0.0)
        c = 0.01
        kappa = np.array([[0.0, c, 0.0]])
        hist = st.stresses_from_curvature(np.array([0.0]), kappa, pt, steel)
        assert hist.sigma_xx[0] == pytest.approx(-steel.E * c * half, rel=1e-12)
        assert hist.sigma_xy[0] == 0.0

    def test_pure_torsion_projection(self, section, steel):
        # shear on the counterclockwise tangent is G * theta' * r
        half = 0.5 * (section.a - section.t)
        c = 0.02
        kappa = np.array([[c, 0.0, 0.0]])
        for y, z in [(0.0, half), (half, 0.0), (0.0, -half), (-half, 0.0)]:
            pt = st.material_point(section, 0.0, y, z)
            hist = st.stresses_from_curvature(np.array([0.0]), kappa, pt, steel)
            r = np.hypot(y, z)
            assert hist.sigma_xy[0] == pytest.approx(steel.G * c * r, rel=1e-12)

    def test_linearity_in_curvature(self, section, steel):
        rng = np.random.default_rng(4)
        kappa = rng.normal(size=(20, 3))
        pt = st.default_stress_point(section)
        h1 = st.stresses_from_curvature(np.arange(20.0), kappa, pt, steel)
        h2 = st.stresses_from_curvature(np.arange(20.0), 3.0 * kappa, pt, steel)
        np.testing.assert_allclose(h2.sigma_xx, 3.0 * h1.sigma_xx, rtol=1e-14)
        np.testing.assert_allclose(h2.sigma_xy, 3.0 * h1.sigma_xy, rtol=1e-14)


class TestCuttingPlane:
    """Shear on the cutting plane phi for the plane stress state at the
    free surface (sigma_yy = 0), the only component the lifetime uses."""

    @staticmethod
    def shear(sxx, sxy, phi):
        state = st.StressHistory(np.array([0.0]), np.array([sxx]), np.array([sxy]))
        return st.tau_phi(state, phi)[0]

    def test_identity_plane(self):
        assert self.shear(10.0 * MPA, 3.0 * MPA, 0.0) == pytest.approx(3.0 * MPA)

    def test_mohr_circle_45_degrees(self):
        assert self.shear(10.0 * MPA, 0.0, np.pi / 4.0) == pytest.approx(-5.0 * MPA)

    def test_perpendicular_planes_opposite_shear(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sxx, sxy, phi = rng.normal(size=3)
            tau1 = self.shear(sxx, sxy, phi)
            tau2 = self.shear(sxx, sxy, phi + np.pi / 2.0)
            assert tau1 + tau2 == pytest.approx(0.0, abs=1e-12)


class TestTauPhi:
    @pytest.fixture
    def history(self):
        rng = np.random.default_rng(12)
        return st.StressHistory(
            np.arange(50.0), rng.normal(0, MPA, 50), rng.normal(0, MPA, 50)
        )

    def test_phi_zero_returns_shear(self, history):
        np.testing.assert_allclose(st.tau_phi(history, 0.0), history.sigma_xy, rtol=1e-15)

    def test_phi_half_pi_flips_sign(self, history):
        np.testing.assert_allclose(
            st.tau_phi(history, np.pi / 2.0), -history.sigma_xy, atol=1e-8
        )

    def test_pi_periodicity(self, history):
        for phi in (0.3, 1.1, 2.0):
            np.testing.assert_allclose(
                st.tau_phi(history, phi), st.tau_phi(history, phi + np.pi), atol=1e-9
            )

    def test_max_shear_plane_for_uniaxial(self):
        hist = st.StressHistory(np.array([0.0]), np.array([10.0 * MPA]), np.array([0.0]))
        phis = np.linspace(0.0, np.pi, 721)
        taus = np.array([abs(st.tau_phi(hist, p)[0]) for p in phis])
        assert phis[np.argmax(taus)] == pytest.approx(np.pi / 4.0, abs=np.pi / 720)
        assert taus.max() == pytest.approx(5.0 * MPA, rel=1e-6)

    def test_mohr_radius_consistency(self, history):
        phis = np.linspace(0.0, np.pi, 1441)
        taus = np.abs(np.stack([st.tau_phi(history, p) for p in phis]))
        radius = np.sqrt((history.sigma_xx / 2.0) ** 2 + history.sigma_xy**2)
        np.testing.assert_allclose(taus.max(axis=0), radius, rtol=1e-5)

    def test_tresca_doubles_shear(self, history):
        np.testing.assert_allclose(
            st.tresca_history(history, 0.7), 2.0 * st.tau_phi(history, 0.7), rtol=1e-15
        )

    def test_tresca_recovers_uniaxial_at_45(self):
        s = 42.0 * MPA
        hist = st.StressHistory(np.array([0.0]), np.array([s]), np.array([0.0]))
        assert abs(st.tresca_history(hist, np.pi / 4.0)[0]) == pytest.approx(s, rel=1e-12)

    def test_pure_shear_tresca(self):
        s = 13.0 * MPA
        hist = st.StressHistory(np.array([0.0]), np.array([0.0]), np.array([s]))
        assert st.tresca_history(hist, 0.0)[0] == pytest.approx(2.0 * s, rel=1e-15)


class TestCsvRoundTrip:
    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        hist = st.StressHistory(
            np.linspace(0.0, 1.0, 17), rng.normal(0, MPA, 17), rng.normal(0, MPA, 17)
        )
        path = tmp_path / "stress.csv"
        st.write_stress_csv(path, hist)
        back = st.read_stress_csv(path)
        np.testing.assert_array_equal(back.times, hist.times)
        np.testing.assert_array_equal(back.sigma_xx, hist.sigma_xx)
        np.testing.assert_array_equal(back.sigma_xy, hist.sigma_xy)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,sigma_xx\n0.0,1.0\n")
        with pytest.raises(ValueError):
            st.read_stress_csv(path)
