"""Reduced density matrix from tracing out the time-separation variable.

The boosted ground state entangles its longitudinal and time coordinates.
Integrating the unobservable time coordinate out of the pure-state density
leaves rho(z, z') with a thermal (Bose-Einstein) spectrum
lambda_k = s^k / (1 + s)^(k+1), s = sinh^2 eta (ratio tanh^2 eta), entropy
that grows with the boost, and purity 1/cosh(2 eta): the price of ignoring
the part of the universe the observer cannot measure.

`reduce` solves the spectrum of rho(z, z') on a grid: the numerical
cross-check of closed_forms.thermal_row, which reads it off in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import GridSpec
from .errors import NumericIntegrityError
from .hermite import gauss_hermite
from .kinematics import Rapidity, rapidity_value

__all__ = ["EIGENVALUE_FLOOR", "ReducedDensity", "entropy", "purity", "reduce"]

# discretization noise below this contributes only spurious entropy
EIGENVALUE_FLOOR = 1e-12
NEGATIVITY_TOLERANCE = -1e-8


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Discretized rho(z, z') on a uniform grid with trapezoid weights folded in.

    kernel holds the raw values rho(z_i, z_j); matrix is the symmetric
    weight-folded form W^{1/2} K W^{1/2}, whose trace and eigenvalues
    approximate the continuum trace and spectrum.
    """

    grid: GridSpec
    eta: float
    kernel: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.grid.npoints
        kernel = np.asarray(self.kernel, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        matrix = np.asarray(self.matrix, dtype=float)
        if kernel.shape != (n, n) or matrix.shape != (n, n) or weights.shape != (n,):
            raise NumericIntegrityError("array shapes inconsistent with the grid")
        for name, arr in (("kernel", kernel), ("weights", weights), ("matrix", matrix)):
            if not np.all(np.isfinite(arr)):
                raise NumericIntegrityError(f"{name} contains non-finite values")
        if np.any(weights <= 0.0):
            raise NumericIntegrityError("quadrature weights must be positive")
        scale = float(np.max(np.abs(matrix))) or 1.0
        if float(np.max(np.abs(matrix - matrix.T))) > 1e-12 * scale:
            raise NumericIntegrityError("folded matrix is not symmetric")
        for arr in (kernel, weights, matrix):
            arr.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """eigvalsh of the folded matrix, ascending: solved once, read-only."""
        lam = np.linalg.eigvalsh(self.matrix)
        lam.setflags(write=False)
        return lam

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the folded matrix, largest first, as a writable copy."""
        return self._spectrum[::-1].copy()

    def diagonal_density(self) -> np.ndarray:
        """rho(z, z): the longitudinal probability density on the grid."""
        return np.diagonal(self.kernel).copy()


def reduce(eta: Rapidity | float, grid: GridSpec, t_order: int = 64) -> ReducedDensity:
    """Trace the time coordinate out of the boosted ground state.

    rho(z, z') = integral dt psi(z, t) psi(z', t). At fixed (z, z') the
    integrand is a Gaussian in t centered on (z + z')/2 * tanh(2 eta) with
    decay rate C = cosh(2 eta); on the shifted, scaled Gauss-Hermite nodes
    t = (z + z')/2 * tanh(2 eta) + x_k / sqrt(C) it factorizes exactly into

        psi(z, t) psi(z', t) = (1/pi) exp(-x_k^2) exp(-(z + z')^2/(4C) - C(z - z')^2/4),

    so the whole n x n kernel is built in one pass as
    (Q/pi) exp(-(z + z')^2/(4C) - C(z - z')^2/4) with
    Q = (1/sqrt(C)) sum_k w_k exp(-x_k^2), w_k the rule's exp_weights.
    `t_order` still selects and validates that rule (1..256); the t-integral
    is exact at every order, so the order changes only rounding. The kernel
    is symmetric by construction, and trapezoid weights are folded in
    symmetrically. A grid narrower than +-4 sigma_z is recorded as a warning
    on the result rather than raised.

    The grid spectrum is a numerical cross-check of `thermal_row`, good while
    the grid resolves the kernel's unit-width ridge across +-sigma_z: a fixed
    number of points loses the small eigenvalues, and with them the entropy,
    as the boost stretches the support like cosh(2 eta).
    """
    e = rapidity_value(eta)
    z = grid.points()
    c = math.cosh(2.0 * e)
    sigma_z = math.sqrt(0.5 * c)
    warnings = []
    span = 4.0 * sigma_z
    if grid.min > -span + 1e-12 or grid.max < span - 1e-12:
        warnings.append(
            f"grid [{grid.min:.6g}, {grid.max:.6g}] spans less than +-4 sigma_z "
            f"= +-{span:.6g}; trace and spectrum may be truncated")
    rule = gauss_hermite(t_order)
    q = float(np.sum(rule.exp_weights * np.exp(-rule.nodes * rule.nodes))) / math.sqrt(c)
    # exponent -(z + z')^2/(4C) - C(z - z')^2/4, built in place in two n x n buffers
    kernel = np.add.outer(z, z)
    np.square(kernel, out=kernel)
    kernel *= -0.25 / c
    diff = np.subtract.outer(z, z)
    np.square(diff, out=diff)
    diff *= -0.25 * c
    kernel += diff
    del diff
    np.exp(kernel, out=kernel)
    kernel *= q / math.pi
    weights = np.full(z.size, grid.step)
    weights[0] = weights[-1] = 0.5 * grid.step
    sqrt_w = np.sqrt(weights)
    matrix = np.outer(sqrt_w, sqrt_w)
    matrix *= kernel
    return ReducedDensity(grid=grid, eta=e, kernel=kernel, weights=weights,
                          matrix=matrix, warnings=tuple(warnings))


def entropy(rho: ReducedDensity) -> float:
    """Von Neumann entropy -sum lambda ln lambda of the discrete spectrum.

    Eigenvalues below the floor are discretization noise and are dropped;
    an eigenvalue below -1e-8 means the construction is broken and raises.
    """
    lam = rho._spectrum
    smallest = float(lam[0])
    if smallest < NEGATIVITY_TOLERANCE:
        raise NumericIntegrityError(
            f"reduced density has eigenvalue {smallest}; not positive semidefinite")
    lam = lam[lam > EIGENVALUE_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def purity(rho: ReducedDensity) -> float:
    """Tr rho^2 of the weight-folded matrix; 1 exactly for a pure state."""
    return float(np.sum(rho.matrix * rho.matrix))
