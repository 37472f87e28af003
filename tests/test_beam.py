import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh

from flexlife import beam
from flexlife.dynamics import _BeamData


@pytest.fixture
def steel():
    return beam.Material(rho=7850.0, E=2.1e11, nu=0.3)


@pytest.fixture
def spec(steel):
    return beam.BeamSpec(
        L=0.7,
        section=beam.section_properties(0.035, 0.004),
        material=steel,
        n_v=4,
        n_w=3,
        n_theta=2,
    )


def analytic_frequency(spec, k=1):
    sec, mat = spec.section, spec.material
    beta = beam.clamped_free_root(k) / spec.L
    return beta**2 * np.sqrt(mat.E * sec.I_z / (mat.rho * sec.A_B))


class TestSectionProperties:
    def test_area_closed_form(self):
        assert beam.section_properties(0.035, 0.004).A_B * 1e6 == pytest.approx(496.0)
        assert beam.section_properties(0.035, 0.001).A_B * 1e6 == pytest.approx(136.0)

    def test_bending_inertia_exact_arithmetic(self):
        # (a^4 - (a-2t)^4) / 12 with integer millimeters
        expected = Fraction(35**4 - 27**4, 12)  # mm^4
        sec = beam.section_properties(0.035, 0.004)
        assert sec.I_y * 1e12 == pytest.approx(float(expected), rel=1e-12)
        assert sec.I_y == sec.I_z

    def test_torsion_constant_bredt(self):
        sec = beam.section_properties(0.035, 0.004)
        assert sec.I_D == pytest.approx(0.004 * (0.035 - 0.004) ** 3, rel=1e-15)

    @pytest.mark.parametrize("a,t", [(0.035, 0.0175), (0.035, 0.02), (0.035, 0.0), (0.035, -1e-3)])
    def test_invalid_walls_rejected(self, a, t):
        with pytest.raises(ValueError):
            beam.section_properties(a, t)


class TestBeamSpec:
    def test_mode_counts_bounded(self, steel):
        sec = beam.section_properties(0.035, 0.004)
        spec = beam.BeamSpec(L=0.7, section=sec, material=steel, n_v=10, n_w=10, n_theta=10)
        assert spec.n_elastic == 3 * beam.MAX_MODES
        for counts in ((11, 1, 1), (1, 11, 1), (1, 1, 11), (0, 1, 1)):
            with pytest.raises(ValueError, match="shape-function counts"):
                beam.BeamSpec(L=0.7, section=sec, material=steel,
                              **dict(zip(("n_v", "n_w", "n_theta"), counts)))

    @pytest.mark.parametrize("length", [math.nan, math.inf, 0.0])
    def test_length_positive_and_finite(self, steel, length):
        sec = beam.section_properties(0.035, 0.004)
        with pytest.raises(ValueError, match="beam length"):
            beam.BeamSpec(L=length, section=sec, material=steel)


class TestMaterial:
    def test_shear_modulus(self, steel):
        assert steel.G == pytest.approx(2.1e11 / 2.6)

    def test_poisson_bounds(self):
        with pytest.raises(ValueError):
            beam.Material(rho=1.0, E=1.0, nu=0.5)
        with pytest.raises(ValueError):
            beam.Material(rho=-1.0, E=1.0, nu=0.3)

    @pytest.mark.parametrize("name", ["rho", "E"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            beam.Material(**{"rho": 7850.0, "E": 2.1e11, "nu": 0.3, name: value})


class TestShapeBasis:
    def test_clamped_boundary_conditions(self, spec):
        basis = beam.shape_basis(spec)
        np.testing.assert_allclose(basis.v(0.0), 0.0, atol=1e-12)
        np.testing.assert_allclose(basis.v(0.0, 1), 0.0, atol=1e-9)
        np.testing.assert_allclose(basis.w(0.0), 0.0, atol=1e-12)
        np.testing.assert_allclose(basis.theta(0.0), 0.0, atol=1e-15)

    def test_bending_orthogonality(self, spec):
        # eigenfunctions are orthogonal: off-diagonal mass entries vanish
        M = beam.bending_mass_matrix(spec)
        off = M - np.diag(np.diag(M))
        assert np.abs(off).max() < 1e-8 * np.abs(np.diag(M)).max()

    def test_analytic_derivatives_match_finite_differences(self, spec):
        basis = beam.shape_basis(spec)
        xi = np.linspace(0.05, spec.L - 0.05, 11)
        h = 1e-6
        d1 = (basis.v(xi + h) - basis.v(xi - h)) / (2.0 * h)
        np.testing.assert_allclose(d1, basis.v(xi, 1), rtol=1e-6, atol=1e-4)
        d2 = (basis.v(xi + h, 1) - basis.v(xi - h, 1)) / (2.0 * h)
        np.testing.assert_allclose(d2, basis.v(xi, 2), rtol=1e-5, atol=1e-2)

    def test_root_sequence(self):
        for k in range(1, 9):
            x = beam.clamped_free_root(k)
            assert np.cos(x) + 1.0 / np.cosh(x) == pytest.approx(0.0, abs=1e-12)


class _MonomialBasis:
    """Single bending shape v(xi) = xi^2 for the constant-curvature check."""

    def __init__(self, L):
        self.L = L

    def v(self, xi, deriv=0):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = {0: xi**2, 1: 2.0 * xi, 2: np.full_like(xi, 2.0)}[deriv]
        return out[None, :]

    def w(self, xi, deriv=0):
        return self.v(xi, deriv)

    def theta(self, xi, deriv=0):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return {0: xi, 1: np.ones_like(xi), 2: np.zeros_like(xi)}[deriv][None, :]


class TestStiffnessMatrix:
    def test_single_quadratic_shape_constant_curvature(self, steel):
        sec = beam.section_properties(0.035, 0.004)
        spec = beam.BeamSpec(L=0.7, section=sec, material=steel, n_v=1, n_w=1, n_theta=1)
        K = beam.stiffness_matrix(spec, basis=_MonomialBasis(spec.L))
        EI = steel.E * sec.I_z
        assert K[1, 1] == pytest.approx(4.0 * EI * spec.L, rel=1e-12)

    def test_exact_symmetry_and_psd(self, spec):
        K = beam.stiffness_matrix(spec)
        assert np.abs(K - K.T).max() == 0.0
        eig = np.linalg.eigvalsh(K)
        assert eig.min() >= -1e-9 * eig.max()

    def test_block_diagonal_structure(self, spec):
        K = beam.stiffness_matrix(spec)
        i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
        assert np.all(K[:i0, i0:] == 0.0)
        assert np.all(K[i0:i1, i1:] == 0.0)

    def test_first_eigenfrequency_against_analytic(self, spec):
        i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
        K = beam.stiffness_matrix(spec)[i0:i1, i0:i1]
        M = beam.bending_mass_matrix(spec)
        w2 = eigh(K, M, eigvals_only=True)
        assert np.sqrt(w2[0]) == pytest.approx(analytic_frequency(spec), rel=0.01)

    def test_ritz_convergence_from_above(self, steel):
        sec = beam.section_properties(0.035, 0.004)
        freqs = []
        for n in (1, 2, 3, 5):
            s = beam.BeamSpec(L=0.7, section=sec, material=steel, n_v=n, n_w=1, n_theta=1)
            i0, i1 = s.n_theta, s.n_theta + s.n_v
            K = beam.stiffness_matrix(s)[i0:i1, i0:i1]
            M = beam.bending_mass_matrix(s)
            freqs.append(np.sqrt(eigh(K, M, eigvals_only=True)[0]))
        analytic = analytic_frequency(
            beam.BeamSpec(L=0.7, section=sec, material=steel, n_v=1, n_w=1, n_theta=1)
        )
        assert all(f >= analytic * (1.0 - 1e-9) for f in freqs)
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(freqs, freqs[1:]))


class TestElementInertia:
    """Distributed inertia of a link as the dynamics model integrates it."""

    def test_distributed_mass(self, spec):
        data = _BeamData(spec, beam.shape_basis(spec))
        sec = spec.section
        assert data.mb == pytest.approx(7850.0 * 496e-6 * spec.L, rel=1e-12)
        np.testing.assert_allclose(
            np.diag(data.D), 7850.0 * np.array([sec.I_D, sec.I_y, sec.I_z]), rtol=1e-14
        )

    def test_total_mass_is_rho_A_L(self, spec):
        # the quadrature the inertia integrals use recovers the closed-form mass
        xi, w = beam.quadrature(spec)
        assert np.all((xi > 0.0) & (xi < spec.L))
        rho_a = spec.material.rho * spec.section.A_B
        mass = _BeamData(spec, beam.shape_basis(spec)).mb
        assert rho_a * w.sum() == pytest.approx(mass, rel=1e-13)


class TestCurvature:
    def test_zero_coordinates(self, spec):
        k = beam.curvature_map(spec, 0.0) @ np.zeros(spec.n_elastic)
        assert k.tolist() == [0.0, 0.0, 0.0]

    def test_linearity(self, spec):
        rng = np.random.default_rng(3)
        q = rng.normal(size=spec.n_elastic)
        C = beam.curvature_map(spec, 0.2)
        np.testing.assert_allclose(C @ (2.0 * q), 2.0 * (C @ q), rtol=1e-14)

    def test_dimension_mismatch(self, spec):
        C = beam.curvature_map(spec, 0.0)
        assert C.shape == (3, spec.n_elastic)
        with pytest.raises(ValueError):
            C @ np.zeros(spec.n_elastic + 1)

    def test_static_tip_load_root_curvature(self, steel):
        # solve K q = Q for a tip force; root curvature approaches F L / EI
        sec = beam.section_properties(0.035, 0.004)
        spec = beam.BeamSpec(L=0.7, section=sec, material=steel, n_v=4, n_w=1, n_theta=1)
        basis = beam.shape_basis(spec)
        i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
        K = beam.stiffness_matrix(spec)[i0:i1, i0:i1]
        F = 150.0
        Q = F * basis.v(spec.L)
        qv = np.linalg.solve(K, Q)
        kappa_root = float(basis.v(0.0, 2) @ qv)
        analytic = F * spec.L / (steel.E * sec.I_z)
        assert kappa_root == pytest.approx(analytic, rel=0.02)


# --- reference: the hand-written (theta, v, w) layout that shape_rows and
# gram replaced, kept verbatim (mode functions included) for the
# differential test below


def _ref_bending_modes(L, n, xi, deriv=0):
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    x = np.atleast_1d(xi)
    out = np.empty((n, x.size))
    for k in range(1, n + 1):
        beta = beam.clamped_free_root(k) / L
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


def _ref_torsion_modes(L, n, xi, deriv=0):
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


class _RefBasis:
    def __init__(self, spec):
        self.spec = spec

    def v(self, xi, deriv=0):
        return _ref_bending_modes(self.spec.L, self.spec.n_v, xi, deriv)

    def w(self, xi, deriv=0):
        return _ref_bending_modes(self.spec.L, self.spec.n_w, xi, deriv)

    def theta(self, xi, deriv=0):
        return _ref_torsion_modes(self.spec.L, self.spec.n_theta, xi, deriv)


def _ref_stiffness_matrix(spec, basis):
    xi, wts = beam.quadrature(spec)
    E = spec.material.E
    G = spec.material.G
    sec = spec.section
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
    return 0.5 * (K + K.T)


def _ref_bending_mass_matrix(spec):
    xi, wts = beam.quadrature(spec)
    v = _ref_bending_modes(spec.L, spec.n_v, xi) * np.sqrt(wts)
    M = spec.material.rho * spec.section.A_B * v @ v.T
    return 0.5 * (M + M.T)


def _ref_curvature_map(spec, xi):
    basis = _RefBasis(spec)
    m = spec.n_elastic
    C = np.zeros((3, m))
    i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
    C[0, :i0] = basis.theta(xi, 1)
    C[1, i0:i1] = basis.v(xi, 2)
    C[2, i1:] = basis.w(xi, 2)
    return C


def _ref_beam_data(spec):
    """The model's per-link matrices, as _BeamData assembled them."""
    basis = _RefBasis(spec)
    xi, wts = beam.quadrature(spec)
    rho = spec.material.rho
    rhoA = rho * spec.section.A_B
    m = spec.n_elastic
    i0, i1 = spec.n_theta, spec.n_theta + spec.n_v
    V = basis.v(xi, 0)
    W = basis.w(xi, 0)
    Vp = basis.v(xi, 1)
    Wp = basis.w(xi, 1)
    Th = basis.theta(xi, 0)
    out = {}
    rw = np.sqrt(wts)
    P0 = np.zeros((3, m))
    P0[1, i0:i1] = rhoA * (V @ wts)
    P0[2, i1:] = rhoA * (W @ wts)
    P1 = np.zeros((3, m))
    P1[1, i0:i1] = rhoA * ((xi * V) @ wts)
    P1[2, i1:] = rhoA * ((xi * W) @ wts)
    PP = np.zeros((m, m))
    PP[i0:i1, i0:i1] = rhoA * (V * rw) @ (V * rw).T
    PP[i1:, i1:] = rhoA * (W * rw) @ (W * rw).T
    out["P0"], out["P1"], out["PP"] = P0, P1, 0.5 * (PP + PP.T)
    D = np.diag([rho * spec.section.I_D, rho * spec.section.I_y, rho * spec.section.I_z])
    out["D"] = D
    SPsi = np.zeros((3, m))
    SPsi[0, :i0] = Th @ wts
    SPsi[1, i1:] = -basis.w(spec.L, 0)
    SPsi[2, i0:i1] = basis.v(spec.L, 0)
    out["DSPsi"] = D @ SPsi
    RPsi = np.zeros((m, m))
    RPsi[:i0, :i0] = D[0, 0] * (Th * rw) @ (Th * rw).T
    RPsi[i0:i1, i0:i1] = D[2, 2] * (Vp * rw) @ (Vp * rw).T
    RPsi[i1:, i1:] = D[1, 1] * (Wp * rw) @ (Wp * rw).T
    out["RPsi"] = 0.5 * (RPsi + RPsi.T)
    PhiL = np.zeros((3, m))
    PhiL[1, i0:i1] = basis.v(spec.L, 0)
    PhiL[2, i1:] = basis.w(spec.L, 0)
    PsiL = np.zeros((3, m))
    PsiL[0, :i0] = basis.theta(spec.L, 0)
    PsiL[1, i1:] = -basis.w(spec.L, 1)
    PsiL[2, i0:i1] = basis.v(spec.L, 1)
    out["PhiL"], out["PsiL"] = PhiL, PsiL
    out["K"] = _ref_stiffness_matrix(spec, basis)
    return out


class TestLayoutDifferential:
    """shape_rows/gram and the folded RitzBasis give the hand-written
    layout's matrices bit for bit (tolerance 0, compared as bytes)."""

    @pytest.fixture(params=[(1, 2, 2), (2, 4, 3), (1, 1, 1), (1, 10, 10)],
                    ids=lambda c: "modes{}{}{}".format(*c))
    def layout_spec(self, request, steel):
        n_theta, n_v, n_w = request.param
        return beam.BeamSpec(L=0.6, section=beam.section_properties(0.035, 0.003),
                             material=steel, n_v=n_v, n_w=n_w, n_theta=n_theta)

    @staticmethod
    def assert_same_bytes(new, ref):
        assert new.shape == ref.shape and new.dtype == ref.dtype
        assert new.tobytes() == ref.tobytes()

    def test_beam_data(self, layout_spec):
        data = _BeamData(layout_spec, beam.shape_basis(layout_spec))
        for name, ref in _ref_beam_data(layout_spec).items():
            self.assert_same_bytes(getattr(data, name), ref)

    def test_stiffness_and_bending_mass(self, layout_spec):
        self.assert_same_bytes(beam.stiffness_matrix(layout_spec),
                               _ref_stiffness_matrix(layout_spec, _RefBasis(layout_spec)))
        self.assert_same_bytes(beam.bending_mass_matrix(layout_spec),
                               _ref_bending_mass_matrix(layout_spec))

    @pytest.mark.parametrize("xi", [0.0, 0.1, 0.37, 0.6])
    def test_curvature_map(self, layout_spec, xi):
        self.assert_same_bytes(beam.curvature_map(layout_spec, xi),
                               _ref_curvature_map(layout_spec, xi))

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_mode_values(self, layout_spec, deriv):
        basis, ref = beam.shape_basis(layout_spec), _RefBasis(layout_spec)
        xi, _ = beam.quadrature(layout_spec)
        for family in ("theta", "v", "w"):
            for x in (0.0, xi, layout_spec.L):
                self.assert_same_bytes(getattr(basis, family)(x, deriv),
                                       getattr(ref, family)(x, deriv))
