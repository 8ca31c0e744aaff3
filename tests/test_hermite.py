import math

import mpmath
import numpy as np
import pytest

from covosc import (
    CapabilityError,
    DomainError,
    NumericIntegrityError,
    QuadratureRule,
    gauss_hermite,
    hermite_function,
)
from covosc.hermite import _check_degree, _like

SQRT_PI = math.sqrt(math.pi)


def hermite(n: int, x):
    """Oracle: physicists' Hermite polynomial H_n(x) by the two-term recurrence.

    H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}, with the library's
    degree checks. Accepts scalars or numpy arrays.
    """
    n = _check_degree(n)
    xs = np.asarray(x, dtype=float)
    prev = np.ones_like(xs)
    if n == 0:
        return _like(prev, x)
    cur = 2.0 * xs
    for k in range(1, n):
        cur, prev = 2.0 * xs * cur - (2.0 * k) * prev, cur
    return _like(cur, x)


def integrate(rule: QuadratureRule, values) -> float:
    """Weighted sum of integrand samples taken at the rule's nodes."""
    return float(np.sum(rule.weights * values))

EXPLICIT = {
    0: lambda x: np.ones_like(x),
    1: lambda x: 2.0 * x,
    2: lambda x: 4.0 * x**2 - 2.0,
    3: lambda x: 8.0 * x**3 - 12.0 * x,
    4: lambda x: 16.0 * x**4 - 48.0 * x**2 + 12.0,
}

# integral of x^k exp(-x^2): (k-1)!! sqrt(pi) / 2^(k/2) for even k, 0 for odd
MOMENTS = {
    0: SQRT_PI,
    1: 0.0,
    2: SQRT_PI / 2.0,
    3: 0.0,
    4: 3.0 * SQRT_PI / 4.0,
    5: 0.0,
    6: 15.0 * SQRT_PI / 8.0,
    7: 0.0,
    8: 105.0 * SQRT_PI / 16.0,
}


class TestHermitePolynomial:
    def test_h0_is_one(self):
        assert hermite(0, 3.7) == 1.0

    def test_h1_is_2x(self):
        assert hermite(1, 0.5) == 1.0

    def test_h2_at_one(self):
        assert hermite(2, 1.0) == 2.0

    @pytest.mark.parametrize("n", sorted(EXPLICIT))
    def test_matches_explicit_polynomials(self, n):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5.0, 5.0, size=100)
        got = hermite(n, x)
        want = EXPLICIT[n](x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_array_in_array_out(self):
        out = hermite(2, np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [-2.0, 2.0])

    def test_degree_cap(self):
        with pytest.raises(CapabilityError):
            hermite(65, 0.0)
        with pytest.raises(DomainError):
            hermite(-1, 0.0)
        with pytest.raises(DomainError):
            hermite(1.5, 0.0)


class TestHermiteFunction:
    def test_ground_at_origin(self):
        assert hermite_function(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-16)
        assert hermite_function(0, 0.0) == pytest.approx(0.7511255444649425, abs=1e-15)

    def test_odd_functions_vanish_at_origin(self):
        assert hermite_function(1, 0.0) == 0.0
        assert hermite_function(3, 0.0) == 0.0

    def test_gaussian_decay(self):
        assert abs(hermite_function(0, 20.0)) < 1e-80
        assert abs(hermite_function(0, -20.0)) < 1e-80

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_polynomial_times_gaussian(self, n):
        rng = np.random.default_rng(7)
        x = rng.uniform(-4.0, 4.0, size=50)
        scale = math.sqrt(2.0**n * math.factorial(n) * SQRT_PI)
        want = hermite(n, x) * np.exp(-0.5 * x * x) / scale
        np.testing.assert_allclose(hermite_function(n, x), want, rtol=1e-12, atol=1e-13)

    def test_orthonormality_by_quadrature(self):
        rule = gauss_hermite(32)
        # functions carry their own Gaussian, so lift the weights by exp(x^2)
        w = rule.exp_weights
        h = np.array([hermite_function(n, rule.nodes) for n in range(11)])
        gram = np.einsum("k,ik,jk->ij", w, h, h)
        np.testing.assert_allclose(gram, np.eye(11), rtol=0.0, atol=1e-10)

    def test_no_overflow_at_high_degree(self):
        # normalized recurrence stays bounded where H_n alone would overflow
        value = hermite_function(64, 12.0)
        assert math.isfinite(value)
        assert abs(value) < 1.0

    def test_far_tail_against_mpmath(self):
        """h_n for n <= 64, |x| <= 60 against mpmath at 40 digits.

        Beyond the last root, |x| > sqrt(2n + 1), h_n has no zeros and is
        compared relatively wherever the true value is a normal double (down
        to h_64(40) ~ 5.9e-281, where exp(-x^2/2) alone underflows);
        between the roots it is compared absolutely, since |h_n| <= 1 there.
        """
        tiny = 2.2250738585072014e-308
        xs = np.concatenate([np.arange(0.0, 60.5, 0.75),
                             [36.9, 37.0, 37.3, 37.7, 38.2, 38.5, 39.0, 39.7, 40.0, 41.3]])
        with mpmath.workdps(40):
            for n in range(65):
                got = hermite_function(n, xs)
                # parity, bit for bit
                np.testing.assert_array_equal(hermite_function(n, -xs), (-1) ** n * got)
                scale = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
                for x, value in zip(xs.tolist(), got.tolist()):
                    x_mp = mpmath.mpf(x)
                    want = float(mpmath.hermite(n, x_mp) * mpmath.exp(-x_mp**2 / 2) / scale)
                    if x * x <= 2 * n + 1:
                        assert abs(value - want) <= 1e-13, (n, x, value, want)
                    elif abs(want) >= tiny:
                        assert abs(value - want) <= 1e-12 * abs(want), (n, x, value, want)
                    else:
                        assert abs(value) < tiny, (n, x, value, want)

    def test_tail_split_leaves_the_core_bit_identical(self):
        # the old recurrence from exp(-x^2/2), at every |x| <= 37
        x = np.linspace(-37.0, 37.0, 2001)
        for n in (1, 2, 17, 64):
            prev = np.exp(-0.5 * x * x) / math.pi ** 0.25
            cur = math.sqrt(2.0) * x * prev
            for k in range(1, n):
                cur, prev = math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev, cur
            np.testing.assert_array_equal(hermite_function(n, x), cur)
            mixed = np.concatenate([x, [39.0, -45.0]])
            np.testing.assert_array_equal(hermite_function(n, mixed)[:x.size], cur)


class TestGaussHermite:
    def test_order_one_closed_form(self):
        rule = gauss_hermite(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_order_two_closed_form(self):
        rule = gauss_hermite(2)
        np.testing.assert_allclose(rule.nodes, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                                   rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2.0, SQRT_PI / 2.0], rtol=1e-14)

    @pytest.mark.parametrize("k", sorted(MOMENTS))
    def test_order8_moments_up_to_degree_8(self, k):
        rule = gauss_hermite(8)
        got = integrate(rule, rule.nodes**k)
        assert got == pytest.approx(MOMENTS[k], abs=1e-12)

    def test_order8_x6_moment(self):
        rule = gauss_hermite(8)
        assert integrate(rule, rule.nodes**6) == pytest.approx(15.0 / 8.0 * SQRT_PI, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 8, 32, 64, 256])
    def test_weights_sum_to_sqrt_pi(self, order):
        rule = gauss_hermite(order)
        assert float(rule.weights.sum()) == pytest.approx(SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 8, 33, 64])
    def test_symmetry_and_ordering(self, order):
        rule = gauss_hermite(order)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)

    def test_exactness_boundary(self):
        # order n handles x^(2n-1) but not x^(2n): check the first failure
        rule = gauss_hermite(3)
        assert integrate(rule, rule.nodes**5) == pytest.approx(0.0, abs=1e-13)
        exact8 = MOMENTS[6]
        assert abs(integrate(rule, rule.nodes**6) - exact8) > 1e-3

    def test_order_caps(self):
        for bad in (0, -2, 257):
            with pytest.raises(CapabilityError):
                gauss_hermite(bad)
        with pytest.raises(DomainError):
            gauss_hermite(2.5)

    def test_rule_is_built_once_per_order(self):
        rule = gauss_hermite(64)
        assert gauss_hermite(64) is rule
        assert gauss_hermite(64.0) is rule
        assert gauss_hermite(np.int64(64)) is rule
        assert gauss_hermite(8) is not rule
        # a rejected order never reaches the cache, so it keeps raising
        for _ in range(2):
            for bad in (0, 257):
                with pytest.raises(CapabilityError):
                    gauss_hermite(bad)
            with pytest.raises(DomainError):
                gauss_hermite(2.5)

    def test_rule_arrays_are_frozen(self):
        rule = gauss_hermite(8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_rule_validation_rejects_bad_weights(self):
        with pytest.raises(NumericIntegrityError):
            QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([1.0, 1.0]), order=2)
