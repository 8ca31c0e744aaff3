import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covosc import (
    DomainError,
    OscillatorState,
    Rapidity,
    beta_from_rapidity,
    psi_boosted_lightcone,
)
from scalar_kinematics import (
    LightconePoint,
    SpacetimePoint,
    boost_point,
    from_lightcone,
    rapidity_from_beta,
    squeeze_lightcone,
    to_lightcone,
)

LN2 = math.log(2.0)


def arctanh_series(beta, terms=200):
    """Independent power-series oracle: arctanh(b) = sum b^(2k+1)/(2k+1)."""
    return sum(beta ** (2 * k + 1) / (2 * k + 1) for k in range(terms))


class TestRapidityBeta:
    def test_zero_is_zero(self):
        assert rapidity_from_beta(0.0) == 0.0
        assert beta_from_rapidity(0.0) == 0.0

    def test_beta_06_gives_ln2(self):
        eta = rapidity_from_beta(0.6)
        assert eta == pytest.approx(0.693147180559945, abs=1e-14)
        assert eta == pytest.approx(arctanh_series(0.6), abs=1e-14)

    def test_beta_0995(self):
        eta = rapidity_from_beta(0.995)
        # series converges too slowly at 0.995; libm atanh is the second route
        assert eta == pytest.approx(math.atanh(0.995), abs=1e-13)
        assert eta == pytest.approx(2.994480708444932, abs=1e-11)

    def test_tanh_ln2_is_rational(self):
        # tanh(ln 2) = (4 - 1)/(4 + 1)
        assert beta_from_rapidity(LN2) == pytest.approx(0.6, abs=1e-15)

    def test_large_rapidity_clamps_strictly_below_one(self):
        b = beta_from_rapidity(50.0)
        assert b < 1.0
        assert b >= math.nextafter(1.0, 0.0)
        # the true gap 1 - tanh(50) = 2 e^{-100}/(1 + e^{-100}) is far below
        # one double ulp at 1.0, so the clamp is the closest valid velocity
        assert 2.0 * math.exp(-100.0) < 1e-21

    def test_superluminal_rejected(self):
        # the oracle refuses a velocity outside (-1, 1); the library only maps
        # validated rapidities to velocities and refuses every other rapidity
        for bad in (1.0, -1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                rapidity_from_beta(bad)
        for bad in (50.5, -51.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                beta_from_rapidity(bad)

    def test_rapidity_cap(self):
        with pytest.raises(DomainError):
            Rapidity(50.5)
        with pytest.raises(DomainError):
            Rapidity(float("inf"))
        assert Rapidity(-50.0).eta == -50.0

    @given(st.floats(min_value=-0.999999, max_value=0.999999))
    @settings(max_examples=300)
    def test_round_trip(self, beta):
        back = beta_from_rapidity(rapidity_from_beta(beta))
        assert abs(back - beta) <= 1e-12


class TestLightcone:
    @pytest.mark.parametrize(
        "z, t, u, v",
        [
            (1.0, 1.0, math.sqrt(2.0), 0.0),
            (1.0, 0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
            (0.0, 0.0, 0.0, 0.0),
        ],
    )
    def test_to_lightcone(self, z, t, u, v):
        p = to_lightcone(SpacetimePoint(z, t))
        assert p.u == pytest.approx(u, abs=1e-15)
        assert p.v == pytest.approx(v, abs=1e-15)

    @pytest.mark.parametrize(
        "u, v, z, t",
        [
            (math.sqrt(2.0), 0.0, 1.0, 1.0),
            (0.0, 0.0, 0.0, 0.0),
            (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 1.0, 0.0),
        ],
    )
    def test_from_lightcone(self, u, v, z, t):
        p = from_lightcone(LightconePoint(u, v))
        assert p.z == pytest.approx(z, abs=1e-15)
        assert p.t == pytest.approx(t, abs=1e-15)

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_round_trip(self, z, t):
        p = from_lightcone(to_lightcone(SpacetimePoint(z, t)))
        scale = max(1.0, abs(z), abs(t))
        assert abs(p.z - z) <= 1e-15 * scale
        assert abs(p.t - t) <= 1e-15 * scale


class TestBoost:
    def test_origin_fixed(self):
        for eta in (-3.0, 0.0, 1.7):
            p = boost_point(SpacetimePoint(0.0, 0.0), eta)
            assert (p.z, p.t) == (0.0, 0.0)

    def test_cosh_sinh_of_ln2(self):
        # cosh(ln 2) = 5/4, sinh(ln 2) = 3/4
        p = boost_point(SpacetimePoint(1.0, 0.0), LN2)
        assert p.z == pytest.approx(1.25, abs=1e-15)
        assert p.t == pytest.approx(0.75, abs=1e-15)

    def test_lightlike_eigenvector(self):
        for eta in (0.3, 1.0, 2.5):
            p = boost_point(SpacetimePoint(1.0, 1.0), eta)
            assert p.z == pytest.approx(math.exp(eta), rel=1e-14)
            assert p.t == pytest.approx(math.exp(eta), rel=1e-14)


class TestSqueeze:
    def test_identity(self):
        p = squeeze_lightcone(LightconePoint(1.0, 1.0), 0.0)
        assert (p.u, p.v) == (1.0, 1.0)

    def test_ln2(self):
        p = squeeze_lightcone(LightconePoint(1.0, 1.0), LN2)
        assert p.u == pytest.approx(2.0, abs=1e-15)
        assert p.v == pytest.approx(0.5, abs=1e-15)

    def test_contraction(self):
        p = squeeze_lightcone(LightconePoint(0.0, 3.0), 1.0)
        assert p.u == 0.0
        assert p.v == pytest.approx(3.0 * math.exp(-1.0), abs=1e-14)
        assert p.v == pytest.approx(1.103638323514327, abs=1e-14)


point_coords = st.floats(min_value=-10.0, max_value=10.0)
rapidities = st.floats(min_value=-5.0, max_value=5.0)


class TestInvariants:
    @given(point_coords, point_coords, rapidities)
    @settings(max_examples=300)
    def test_interval_preserved(self, z, t, eta):
        p = SpacetimePoint(z, t)
        lc = to_lightcone(p)
        sq = squeeze_lightcone(lc, eta)
        before = 2.0 * lc.u * lc.v
        after = 2.0 * sq.u * sq.v
        # products never cancel, so a strict relative bound holds
        assert abs(after - before) <= 1e-12 * max(abs(before), 1e-300)
        bp = boost_point(p, eta)
        direct = bp.z * bp.z - bp.t * bp.t
        # the direct form cancels at large eta; scale by the point magnitude
        assert abs(direct - (z * z - t * t)) <= 1e-12 * max(1.0, bp.z**2 + bp.t**2)

    @given(point_coords, point_coords, rapidities, rapidities)
    @settings(max_examples=300)
    def test_boost_composition(self, z, t, eta1, eta2):
        p = SpacetimePoint(z, t)
        two = boost_point(boost_point(p, eta1), eta2)
        one = boost_point(p, eta1 + eta2)
        # rounding of the first boost is amplified by the second one's cosh
        # (light-like points cancel almost completely), so the bound carries
        # the intermediate magnitudes
        scale = max(1.0, math.cosh(eta1) * math.cosh(eta2) * (abs(z) + abs(t)))
        assert abs(two.z - one.z) <= 1e-12 * scale
        assert abs(two.t - one.t) <= 1e-12 * scale

    @given(point_coords, point_coords, rapidities)
    @settings(max_examples=300)
    def test_boost_squeeze_conjugacy(self, z, t, eta):
        p = SpacetimePoint(z, t)
        via_boost = to_lightcone(boost_point(p, eta))
        via_squeeze = squeeze_lightcone(to_lightcone(p), eta)
        scale = max(1.0, abs(via_squeeze.u), abs(via_squeeze.v))
        assert abs(via_boost.u - via_squeeze.u) <= 1e-12 * scale
        assert abs(via_boost.v - via_squeeze.v) <= 1e-12 * scale


class TestValidation:
    def test_points_must_be_finite(self):
        with pytest.raises(ValueError):
            SpacetimePoint(float("nan"), 0.0)
        with pytest.raises(ValueError):
            LightconePoint(0.0, float("inf"))

    def test_beta_type_accepts_interior_values(self):
        # the velocity is a plain float, and one close to 1 survives the round trip
        beta = beta_from_rapidity(rapidity_from_beta(0.999999999))
        assert type(beta) is float
        assert beta == pytest.approx(0.999999999, abs=1e-15)


class TestLibrarySqueeze:
    """The scalar squeeze above against the boost the library applies to arrays."""

    @given(point_coords, point_coords, rapidities, st.integers(min_value=0, max_value=8))
    @settings(max_examples=300)
    def test_boosted_state_at_squeezed_point_is_rest_state(self, z, t, eta, n_z):
        # covariance: psi_eta at the boosted point is psi_0 at the original one
        lc = to_lightcone(SpacetimePoint(z, t))
        sq = squeeze_lightcone(lc, eta)
        boosted = psi_boosted_lightcone(OscillatorState(n_z=n_z, eta=eta), sq.u, sq.v)
        rest = psi_boosted_lightcone(OscillatorState(n_z=n_z), lc.u, lc.v)
        assert abs(boosted - rest) <= 1e-13
