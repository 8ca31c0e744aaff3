import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from covosc import (
    CapabilityError,
    DomainError,
    OscillatorState,
    Rapidity,
    hermite_function,
    psi_boosted,
    psi_boosted_lightcone,
)
from scalar_kinematics import SpacetimePoint, to_lightcone

LN2 = math.log(2.0)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)


def phi_ground(eta, q_z, q_0):
    """Oracle: closed-form momentum-energy ground state at rapidity eta.

    The squeezed Gaussian of the light-cone components q_u = (q_0 + q_z)/sqrt(2)
    and q_v = (q_0 - q_z)/sqrt(2) (Kim & Noz, Phys. Rev. D 15, 335 (1977)).
    """
    q_u = (q_0 + q_z) / SQRT2
    q_v = (q_0 - q_z) / SQRT2
    return INV_SQRT_PI * np.exp(-0.5 * (math.exp(-2.0 * eta) * q_u**2
                                        + math.exp(2.0 * eta) * q_v**2))


def phi_by_fourier(state, q_z, q_0):
    """Oracle: phi(q_z, q_0) = (1/2 pi) int exp(-i (q_z z - q_0 t)) psi(z, t) dz dt.

    Trapezoid rule with step 0.1 on [-14, 14]^2; q_z and q_0 are 1-D arrays
    and the result is indexed [q_z, q_0].
    """
    x, h = np.linspace(-14.0, 14.0, 281, retstep=True)
    w = np.full(x.size, h)
    w[0] = w[-1] = h / 2.0
    psi = psi_boosted(state, x[:, None], x[None, :])
    kernel_z = np.exp(-1j * np.outer(q_z, x)) * w
    kernel_t = np.exp(1j * np.outer(q_0, x)) * w
    return kernel_z @ psi @ kernel_t.T / (2.0 * math.pi)


def four_vector(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (4,):
        raise DomainError(f"{name} must be a length-4 vector (t/E, x, y, z)")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def separation_from_constituents(x_a, x_b):
    """Oracle: center X = (x_a + x_b)/2 and separation x = (x_a - x_b)/(2 sqrt(2))."""
    a = four_vector("x_a", x_a)
    b = four_vector("x_b", x_b)
    return SimpleNamespace(X=(a + b) / 2.0, x=(a - b) / (2.0 * SQRT2))


def momentum_from_constituents(p_a, p_b):
    """Oracle: total P = p_a + p_b and separation q = sqrt(2) (p_a - p_b).

    q_u and q_v are the light-cone components (q_0 + q_z)/sqrt(2) and
    (q_0 - q_z)/sqrt(2) of the separation momentum.
    """
    a = four_vector("p_a", p_a)
    b = four_vector("p_b", p_b)
    q = SQRT2 * (a - b)
    return SimpleNamespace(P=a + b, q=q, q_u=float((q[0] + q[3]) / SQRT2),
                           q_v=float((q[0] - q[3]) / SQRT2))


def psi_rest(state: OscillatorState, z, t):
    """Oracle: rest-frame longitudinal wave function h_{n_z}(z) h_0(t); eta must be 0."""
    if state.eta != 0.0:
        raise DomainError("psi_rest requires eta = 0; use psi_boosted for a boosted state")
    return hermite_function(state.n_z, z) * hermite_function(0, t)


class TestState:
    def test_defaults(self):
        s = OscillatorState()
        assert (s.n_z, s.eta) == (0, 0.0)

    def test_accepts_rapidity_instance(self):
        s = OscillatorState(n_z=1, eta=Rapidity(0.5))
        assert s.eta == 0.5

    def test_with_rapidity(self):
        # another frame is dataclasses.replace, which validates the new rapidity
        s = dataclasses.replace(OscillatorState(n_z=2), eta=1.5)
        assert (s.n_z, s.eta) == (2, 1.5)
        with pytest.raises(DomainError):
            dataclasses.replace(s, eta=51.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            OscillatorState(n_z=-1)
        with pytest.raises(DomainError):
            OscillatorState(n_z=0.5)
        with pytest.raises(CapabilityError):
            OscillatorState(n_z=65)
        with pytest.raises(DomainError):
            OscillatorState(eta=51.0)


class TestSeparationCoords:
    def test_zero_constituents(self):
        sep = separation_from_constituents(np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(sep.X, np.zeros(4))
        np.testing.assert_array_equal(sep.x, np.zeros(4))

    def test_opposite_z_positions(self):
        # (t, x, y, z) ordering; separation scale is 1/(2 sqrt(2))
        sep = separation_from_constituents([0, 0, 1, 0], [0, 0, -1, 0])
        np.testing.assert_array_equal(sep.X, np.zeros(4))
        np.testing.assert_allclose(sep.x, [0, 0, 1 / SQRT2, 0], atol=1e-16)

    def test_coincident_constituents(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        sep = separation_from_constituents(w, w)
        np.testing.assert_array_equal(sep.X, w)
        np.testing.assert_array_equal(sep.x, np.zeros(4))

    def test_shape_checked(self):
        with pytest.raises(DomainError):
            separation_from_constituents([0, 0, 0], [0, 0, 0, 0])


class TestMomentumCoords:
    def test_equal_momenta(self):
        p = np.array([3.0, 0.0, 0.0, 1.0])
        mom = momentum_from_constituents(p, p)
        np.testing.assert_array_equal(mom.q, np.zeros(4))
        assert mom.q_u == 0.0
        assert mom.q_v == 0.0

    def test_lightlike_difference(self):
        # p_a - p_b = (1, 0, 0, 1) in (E, x, y, z) order
        p_b = np.array([1.0, 0.5, 0.0, 2.0])
        p_a = p_b + np.array([1.0, 0.0, 0.0, 1.0])
        mom = momentum_from_constituents(p_a, p_b)
        np.testing.assert_allclose(mom.q, [SQRT2, 0.0, 0.0, SQRT2], atol=1e-15)
        assert mom.q_u == pytest.approx(2.0, abs=1e-15)
        assert mom.q_v == pytest.approx(0.0, abs=1e-15)

    def test_total_is_additive(self):
        rng = np.random.default_rng(3)
        p_a = rng.normal(size=4)
        p_b = rng.normal(size=4)
        mom = momentum_from_constituents(p_a, p_b)
        np.testing.assert_array_equal(mom.P, p_a + p_b)


class TestPsiRest:
    def test_ground_at_origin(self):
        assert psi_rest(OscillatorState(), 0.0, 0.0) == pytest.approx(INV_SQRT_PI, abs=1e-16)

    def test_ground_off_origin(self):
        want = INV_SQRT_PI * math.exp(-0.5)
        got = psi_rest(OscillatorState(), 1.0, 0.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.342198280312217, abs=1e-13)

    def test_first_excited_vanishes_at_z0(self):
        s = OscillatorState(n_z=1)
        for t in (-2.0, 0.0, 0.7, 5.0):
            assert psi_rest(s, 0.0, t) == 0.0

    def test_requires_rest_frame(self):
        with pytest.raises(DomainError):
            psi_rest(OscillatorState(eta=0.1), 0.0, 0.0)

    def test_time_factor_is_always_ground(self):
        # psi_rest / h_0(t) must not depend on t for any n_z
        t = np.linspace(-2.0, 2.0, 41)
        for n_z in (0, 2, 5):
            s = OscillatorState(n_z=n_z)
            ratio = psi_rest(s, 1.3, t) / hermite_function(0, t)
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


class TestPsiBoosted:
    def test_identity_boost_matches_rest(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-6.0, 6.0, 100)
        t = rng.uniform(-6.0, 6.0, 100)
        for n_z in (0, 1, 3):
            s = OscillatorState(n_z=n_z)
            np.testing.assert_allclose(
                psi_boosted(s, z, t), psi_rest(s, z, t), rtol=0.0, atol=1e-15)

    def test_origin_value_is_frame_independent(self):
        for eta in (-3.0, 0.0, 0.8, 4.0):
            got = psi_boosted(OscillatorState(eta=eta), 0.0, 0.0)
            assert got == pytest.approx(INV_SQRT_PI, abs=1e-16)

    @pytest.mark.parametrize("eta", [0.3, LN2, 1.7])
    def test_lightlike_point_closed_form(self, eta):
        # at (z, t) = (1, 1): (z+t)^2 = 4, (z-t)^2 = 0
        want = INV_SQRT_PI * math.exp(-math.exp(-2.0 * eta))
        got = psi_boosted(OscillatorState(eta=eta), 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_lightlike_point_at_ln2(self):
        got = psi_boosted(OscillatorState(eta=LN2), 1.0, 1.0)
        assert got == pytest.approx(INV_SQRT_PI * math.exp(-0.25), abs=1e-15)
        assert got == pytest.approx(0.439391289467722, abs=1e-13)

    def test_ground_closed_form_everywhere(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-3.0, 3.0, 200)
        t = rng.uniform(-3.0, 3.0, 200)
        for eta in (-1.0, 0.5, 2.0):
            s = OscillatorState(eta=eta)
            want = INV_SQRT_PI * np.exp(
                -0.25 * (np.exp(-2 * eta) * (z + t) ** 2 + np.exp(2 * eta) * (z - t) ** 2))
            np.testing.assert_allclose(psi_boosted(s, z, t), want, rtol=0.0, atol=1e-13)

    def test_lightcone_entry_point_agrees(self):
        # at the image of each point under the scalar light-cone map; eta = 0
        # takes psi_boosted's rest-frame branch
        rng = np.random.default_rng(6)
        for n_z, eta in [(0, 0.0), (2, 1.2), (3, -0.7), (5, -5.0), (8, 0.0), (8, 5.0)]:
            s = OscillatorState(n_z=n_z, eta=eta)
            for z, t in rng.uniform(-6.0, 6.0, (50, 2)):
                lc = to_lightcone(SpacetimePoint(z, t))
                assert abs(psi_boosted_lightcone(s, lc.u, lc.v) - psi_boosted(s, z, t)) <= 1e-13

    def test_normalization_is_eta_independent_scalar_type(self):
        value = psi_boosted(OscillatorState(eta=1.0), 0.3, -0.2)
        assert isinstance(value, float)


class TestPhiMomentum:
    """The momentum-energy wave function is psi_boosted at (q_z, q_0), up to (-i)^{n_z}."""

    def test_origin(self):
        for eta in (0.0, 1.0, -2.5):
            assert psi_boosted(OscillatorState(eta=eta), 0.0, 0.0) == pytest.approx(
                phi_ground(eta, 0.0, 0.0), abs=1e-16)

    def test_rest_frame_is_round_gaussian(self):
        rng = np.random.default_rng(13)
        qz = rng.uniform(-3.0, 3.0, 100)
        q0 = rng.uniform(-3.0, 3.0, 100)
        want = INV_SQRT_PI * np.exp(-0.5 * (qz**2 + q0**2))
        np.testing.assert_allclose(phi_ground(0.0, qz, q0), want, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            psi_boosted(OscillatorState(), qz, q0), want, rtol=0.0, atol=1e-15)

    def test_boosted_value_at_ln2(self):
        got = psi_boosted(OscillatorState(eta=LN2), 1.0, 1.0)
        assert got == pytest.approx(phi_ground(LN2, 1.0, 1.0), abs=1e-15)
        assert got == pytest.approx(INV_SQRT_PI * math.exp(-0.25), abs=1e-15)
        assert got == pytest.approx(0.439391289467722, abs=1e-13)

    def test_fourier_transform_of_excited_states(self):
        # the transform of h_n is (-i)^n h_n and the kernel is boost invariant
        q = np.array([-2.1, -0.7, 0.0, 0.4, 1.3])
        for n_z, eta in ((1, 0.6), (2, -0.4), (3, 0.9)):
            state = OscillatorState(n_z=n_z, eta=eta)
            want = (-1j) ** n_z * psi_boosted(state, q[:, None], q[None, :])
            np.testing.assert_allclose(
                phi_by_fourier(state, q, q), want, rtol=0.0, atol=1e-10)

    def test_position_momentum_duality(self):
        # psi and phi are the same function of their light-cone arguments
        rng = np.random.default_rng(17)
        a_u = rng.uniform(-3.0, 3.0, 500)
        a_v = rng.uniform(-3.0, 3.0, 500)
        for eta in (-1.5, 0.0, 0.7, 2.0):
            s = OscillatorState(eta=eta)
            z = (a_u + a_v) / SQRT2
            t = (a_u - a_v) / SQRT2
            q_0 = (a_u + a_v) / SQRT2
            q_z = (a_u - a_v) / SQRT2
            psi_vals = psi_boosted(s, z, t)
            phi_vals = phi_ground(eta, q_z, q_0)
            np.testing.assert_allclose(psi_vals, phi_vals, rtol=0.0, atol=1e-13)
