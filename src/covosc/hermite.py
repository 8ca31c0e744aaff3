"""Orthonormal Hermite functions and Gauss-Hermite quadrature.

Everything targets the weight exp(-x^2): the orthonormal functions
h_n = H_n exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), with H_n the physicists'
polynomials, and node/weight rules for integrals over the real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapabilityError, DomainError, NumericIntegrityError

__all__ = [
    "DEGREE_MAX",
    "ORDER_MAX",
    "QuadratureRule",
    "gauss_hermite",
    "hermite_function",
]

DEGREE_MAX = 64
ORDER_MAX = 256

_SQRT_PI = math.sqrt(math.pi)
_PI_QUARTER = math.pi ** 0.25
_SQRT2 = math.sqrt(2.0)
# below this |x|, exp(-x^2/2) is a normal double with room to spare
_TAIL = 37.0


def _check_degree(n) -> int:
    if n != int(n):
        raise DomainError(f"degree must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if n > DEGREE_MAX:
        raise CapabilityError(f"degree {n} exceeds the cap {DEGREE_MAX}")
    return n


def _like(values: np.ndarray, template):
    if np.ndim(template) == 0:
        return float(values)
    return values


def hermite_function(n: int, x):
    """Orthonormal Hermite function h_n(x); the integral of h_n h_m is delta_nm.

    Evaluated by the normalized recurrence

        h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}

    starting from h_0 = pi^{-1/4} exp(-x^2/2), which stays inside double
    range for every degree this module allows (|h_n| <= 1 everywhere, while
    H_n multiplied by its normalization overflows already near n ~ 20 for
    large arguments).

    That start is subnormal from |x| ~ 37.6 and zero from ~ 38.6, while h_n
    for n >= 1 is a normal double further out (h_64(40) ~ 5.9e-281). So for
    n >= 1 and |x| > _TAIL the recurrence starts from pi^{-1/4} exp(-x^2/4)
    and its result is multiplied by the other exp(-x^2/4); nothing overflows
    for n <= DEGREE_MAX. Points at |x| <= _TAIL take the plain recurrence,
    bit for bit, whatever else the array holds.
    """
    n = _check_degree(n)
    xs = np.asarray(x, dtype=float)
    prev = np.exp(-0.5 * xs * xs) / _PI_QUARTER
    if n == 0:
        return _like(prev, x)
    tail = np.abs(xs) > _TAIL
    split = tail.any()
    if split:
        half = np.exp(-0.25 * xs * xs)
        prev = np.where(tail, half / _PI_QUARTER, prev)
    cur = _SQRT2 * xs * prev
    for k in range(1, n):
        cur, prev = math.sqrt(2.0 / (k + 1)) * xs * cur - math.sqrt(k / (k + 1)) * prev, cur
    if split:
        cur = np.where(tail, cur * half, cur)
    return _like(cur, x)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the weight function exp(-x^2).

    Immutable after construction; nodes strictly increasing and symmetric
    about zero, weights positive and summing to sqrt(pi).
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.order < 1 or nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise DomainError("nodes and weights must both have length `order`")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0.0):
            raise NumericIntegrityError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise NumericIntegrityError("quadrature weights must be positive")
        total = float(weights.sum())
        if abs(total - _SQRT_PI) > 1e-12 * _SQRT_PI:
            raise NumericIntegrityError(f"weights sum to {total}, expected sqrt(pi)")
        if not np.allclose(nodes, -nodes[::-1], rtol=0.0, atol=1e-14):
            raise NumericIntegrityError("quadrature nodes must be symmetric about zero")
        if not np.allclose(weights, weights[::-1], rtol=1e-12, atol=0.0):
            raise NumericIntegrityError("quadrature weights must be symmetric")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def exp_weights(self) -> np.ndarray:
        """weights * exp(nodes^2), for integrands carrying their own Gaussian decay.

        Computed as exp(log w + x^2) so high orders do not overflow.
        """
        w = np.exp(np.log(self.weights) + self.nodes * self.nodes)
        w.setflags(write=False)
        return w


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order (1..256) for the weight exp(-x^2).

    Nodes and weights come from the Golub-Welsch eigenproblem (numpy's
    hermgauss) and are symmetrized about zero so parity holds exactly; a rule
    of order n integrates x^k exp(-x^2) exactly for k <= 2n - 1. Rules are
    immutable, so each order is built once and the same object is returned
    on every later call.
    """
    if order != int(order):
        raise DomainError(f"order must be an integer, got {order!r}")
    order = int(order)
    if not 1 <= order <= ORDER_MAX:
        raise CapabilityError(f"order {order} outside 1..{ORDER_MAX}")
    return _build_gauss_hermite(order)


@lru_cache(maxsize=ORDER_MAX)
def _build_gauss_hermite(order: int) -> QuadratureRule:
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if order % 2:
        nodes[order // 2] = 0.0
    return QuadratureRule(nodes=nodes, weights=weights, order=order)
