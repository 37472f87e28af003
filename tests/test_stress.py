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
            st.material_point(section, 0.0, 0.0)
        with pytest.raises(ValueError):
            st.material_point(section, 0.0, section.a)

    @pytest.mark.parametrize("y, z", [(1.0, np.nan), (np.nan, 1.0), (1.0, np.inf),
                                      (-np.inf, 0.0), (np.nan, np.nan)])
    def test_non_finite_coordinates_rejected(self, section, y, z):
        # 1.0 stands for the midline half-width: (half, nan) passed the
        # midline test, since max(half, nan) is half
        half = 0.5 * (section.a - section.t)
        with pytest.raises(ValueError, match="not on the wall midline"):
            st.material_point(section, y * half, z * half)

    def test_face_tangents_counterclockwise(self, section):
        half = 0.5 * (section.a - section.t)
        assert st.material_point(section, half, 0.0).tangent == (0.0, 1.0)
        assert st.material_point(section, -half, 0.0).tangent == (0.0, -1.0)
        assert st.material_point(section, 0.0, -half).tangent == (1.0, 0.0)


class TestStressesFromCurvature:
    def test_zero_curvature(self, section, steel):
        pt = st.default_stress_point(section)
        hist = st.stresses_from_curvature(np.arange(3.0), np.zeros((3, 3)), pt, steel)
        assert np.all(hist.sigma_xx == 0.0) and np.all(hist.sigma_xy == 0.0)

    def test_pure_bending(self, section, steel):
        # v'' = c at a side-wall point (y, 0): sigma_xx = -E c y, no shear
        half = 0.5 * (section.a - section.t)
        pt = st.material_point(section, half, 0.0)
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
            pt = st.material_point(section, y, z)
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

    def test_missing_column_rejected_among_extra_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sigma_xy,t,extra\n0.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="sigma_xx"):
            st.read_stress_csv(path)

    def test_columns_found_by_name_in_any_order(self, tmp_path):
        path = tmp_path / "stress.csv"
        path.write_text("sigma_xy,label,t,sigma_xx,extra\n"
                        "3.0,7,0.0,1.0,9\n"
                        "4.0,8,0.5,2.0,9\n")
        back = st.read_stress_csv(path)
        assert back.times.tolist() == [0.0, 0.5]
        assert back.sigma_xx.tolist() == [1.0, 2.0]
        assert back.sigma_xy.tolist() == [3.0, 4.0]

    def test_single_data_row(self, tmp_path):
        path = tmp_path / "stress.csv"
        path.write_text("t,sigma_xx,sigma_xy\n0.25,1.5,-2.5\n")
        back = st.read_stress_csv(path)
        assert back.times.tolist() == [0.25]
        assert back.sigma_xx.tolist() == [1.5]
        assert back.sigma_xy.tolist() == [-2.5]

    @pytest.mark.parametrize("text", [
        "t,sigma_xx,sigma_xy\n0.0,1.0,2.0\n,3.0,4.0\n",
        "t,sigma_xx,sigma_xy\n0.0,1.0,2.0\nnan,3.0,4.0\n",
        "t,sigma_xx,sigma_xy\n",
    ], ids=["blank-time", "nan-time", "no-rows"])
    def test_bad_times_or_no_rows_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            st.read_stress_csv(path)


class TestStressHistoryChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="time"):
            st.StressHistory(np.array([0.0, bad]), np.zeros(2), np.zeros(2))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            st.StressHistory(np.array([]), np.array([]), np.array([]))

    def test_backwards_time_rejected_at_first_offending_sample(self):
        t = np.array([0.0, 0.1, 0.3, 0.2, 0.4, 0.35])
        with pytest.raises(ValueError, match="backwards at index 3: t = 0.2 after 0.3"):
            st.StressHistory(t, np.zeros(6), np.zeros(6))

    def test_repeated_time_accepted(self):
        hist = st.StressHistory(np.array([0.0, 0.1, 0.1, 0.2]), np.zeros(4), np.zeros(4))
        assert len(hist) == 4


class TestCheckSampleTimes:
    """The one-pass accept keeps the former diagnosis of a bad grid; the
    messages are compared whole."""

    @pytest.mark.parametrize("times", [
        [0.0, 1.0, np.inf, 3.0],
        [0.0, np.inf, np.inf, 3.0],
        [-np.inf, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, np.inf],
        [0.0, np.nan, 2.0, 3.0],
        [0.0, 1.0, -np.inf, 3.0],
    ], ids=["interior-inf", "interior-inf-run", "leading-minus-inf", "trailing-inf",
            "nan", "interior-minus-inf"])
    def test_non_finite_message(self, times):
        with pytest.raises(ValueError) as err:
            st.check_sample_times(np.array(times))
        assert str(err.value) == "stress history has non-finite sample times"

    def test_backwards_message(self):
        with pytest.raises(ValueError) as err:
            st.check_sample_times(np.array([0.0, 1.0, 3.0, 2.0, 1.0]))
        assert str(err.value) == "sample times go backwards at index 3: t = 2.0 after 3.0"

    @pytest.mark.parametrize("times", [
        [], [5.0], [0.0, 0.0], [0.0, 0.1, 0.1, 0.2], [-1.7e308, 1.7e308],
    ], ids=["empty", "one", "repeat", "repeats", "overflowing-step"])
    def test_accepted(self, times):
        st.check_sample_times(np.array(times, dtype=float))
