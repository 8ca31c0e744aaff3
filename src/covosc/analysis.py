"""Verification and observables for the boosted oscillator states.

Residual checks of the defining differential equation, quadrature norms and
overlaps, marginal densities and dense grid renderings; the closed forms they
are checked against live in closed_forms. All quadrature is laid out along
the squeezed light-cone axes with per-axis scales e^{+-eta}, so node
coverage tracks the state's support at any rapidity.

Space-time and momentum-energy are one wave function: for every n_z,
phi(q_z, q_0) = (-i)^{n_z} psi(q_z, q_0). So a momentum grid is psi_boosted
evaluated at (q_z, q_0), which is the real amplitude i^{n_z} phi, and the
momentum width sigma_qz is the same moment of |psi|^2 as sigma_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericIntegrityError
from .hermite import gauss_hermite, hermite_function
from .kinematics import SQRT2
from .oscillator import OscillatorState, psi_boosted, psi_boosted_lightcone

__all__ = [
    "DEFAULT_ORDER",
    "FieldGrid",
    "GridSpec",
    "MAX_GRID_CELLS",
    "PdeResidualReport",
    "marginal",
    "norm",
    "overlap",
    "pde_residual",
    "render_grid",
]

MAX_POINTS_PER_AXIS = 10_000
# a grid request peaks near 85 B per cell for CSV and 180 B for JSON, nearly all
# of it the text buffers and the returned str (render_grid holds its 8 B field
# and one row block), so this caps a dense dump near 120 and 215 MB of RSS; it
# is checked before anything is evaluated
MAX_GRID_CELLS = 1001**2
# render_grid fills its field in row blocks of about this many cells, so each
# block's temporaries stay in cache
_BLOCK_CELLS = 8192
DEFAULT_ORDER = 64
# the step h of pde_residual's fourth-order cross stencil, whose samples lie
# at +-h and +-2h along each squeezed axis
FD_STEP = 1e-3

# residuals are ignored where |psi| falls below this times max|psi|, to keep
# Gaussian tails from dividing noise by noise
MASK_FLOOR = 1e-6

MARGINAL_AXES = ("z", "t", "u", "v")


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling of the closed interval [min, max] with spacing step."""

    min: float
    max: float
    step: float

    def __post_init__(self) -> None:
        for name in ("min", "max", "step"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigError(f"grid {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.min >= self.max:
            raise ConfigError(f"grid needs min < max, got [{self.min}, {self.max}]")
        if self.step <= 0.0:
            raise ConfigError(f"grid step must be positive, got {self.step}")
        if (self.max - self.min) / self.step > MAX_POINTS_PER_AXIS + 1e-9:
            raise ConfigError(
                f"grid [{self.min}, {self.max}] at step {self.step} exceeds "
                f"{MAX_POINTS_PER_AXIS} points per axis")

    @property
    def npoints(self) -> int:
        return int(math.floor((self.max - self.min) / self.step + 1e-9)) + 1

    def points(self) -> np.ndarray:
        return self.min + self.step * np.arange(self.npoints)

    @classmethod
    def symmetric(cls, half_width: float, npoints: int) -> "GridSpec":
        """Grid spanning [-half_width, half_width] with exactly npoints samples."""
        if npoints < 2:
            raise ConfigError(f"need at least 2 points, got {npoints}")
        return cls(-half_width, half_width, 2.0 * half_width / (npoints - 1))


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Field values sampled on a uniform 1-D or 2-D grid."""

    specs: tuple[GridSpec, ...]
    axes: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        axes = tuple(str(a) for a in self.axes)
        values = np.asarray(self.values, dtype=float)
        if not specs or len(specs) != len(axes):
            raise ConfigError("specs and axes must be non-empty and the same length")
        expected = tuple(s.npoints for s in specs)
        if values.shape != expected:
            raise ConfigError(f"values shape {values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(values)):
            raise NumericIntegrityError("field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)

    def points(self, axis: int = 0) -> np.ndarray:
        return self.specs[axis].points()


@dataclass(frozen=True)
class PdeResidualReport:
    """Result of one residual check of the oscillator equation.

    eigenvalue is the model eigenvalue n_z implied by the operator
    normalization; rayleigh_quotient is its estimate from the grid data;
    max_rel_residual is the masked maximum of |D psi - n_z psi| / max|psi|.
    """

    eigenvalue: float
    rayleigh_quotient: float
    max_rel_residual: float
    masked_points: int


def _rule_arrays(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = gauss_hermite(order)
    return rule.nodes, rule.exp_weights


def _lightcone_rule(s_u: float, s_v: float, order: int):
    """Gauss-Hermite product rule on the light-cone plane, scaled by s_u and s_v.

    Returns the nodes u and their weights as columns, then the nodes v and
    their weights as rows; the Jacobian s_u s_v is left to the caller.
    """
    x, w = _rule_arrays(order)
    return s_u * x[:, None], w[:, None], s_v * x[None, :], w[None, :]


def exact_order(degree: int) -> int:
    """Fewest Gauss-Hermite nodes per axis that integrate a polynomial of this degree exactly.

    An N-node rule is exact up to degree 2N - 1. Against the Gaussian a rule
    is scaled to, the product of states n_a and n_b is a polynomial of degree
    n_a + n_b per axis, so overlap, norm and marginal need n_z + 1 nodes and
    the ground state's second moments 2.
    """
    return degree // 2 + 1


def _check_order(order: int, degree: int, what: str) -> None:
    """Refuse a rule too small to integrate a polynomial of this degree exactly."""
    exact = exact_order(degree)
    if order < exact:
        raise ConfigError(
            f"quadrature order {order} is below {exact}, the exact order for {what}")


def overlap(a: OscillatorState, b: OscillatorState, order: int = DEFAULT_ORDER) -> float:
    """Inner product of two states, by 2-D quadrature.

    The Gauss-Hermite rule is applied in light-cone coordinates with per-axis
    scales built from both states' squeeze factors, so the Gaussian decay of
    the product matches the weight function exactly and the rule is exact
    from exact_order(a.n_z + b.n_z) nodes per axis; more nodes change only
    the rounding. A smaller order is refused with a ConfigError.

    The terms of the sum are O(1), so the result has an absolute floor near
    1e-18: an overlap below about 1e-16 is rounding noise, and can come out
    negative. The CLI reports closed_forms.frame_overlap; this quadrature
    of psi is what norm, and so verify, reads.
    """
    _check_order(order, a.n_z + b.n_z, f"n_z = {a.n_z} and {b.n_z}")
    s_u = math.sqrt(2.0 / (math.exp(-2.0 * a.eta) + math.exp(-2.0 * b.eta)))
    s_v = math.sqrt(2.0 / (math.exp(2.0 * a.eta) + math.exp(2.0 * b.eta)))
    u, w_u, v, w_v = _lightcone_rule(s_u, s_v, order)
    values = psi_boosted_lightcone(a, u, v) * psi_boosted_lightcone(b, u, v)
    return float(s_u * s_v * np.sum(w_u * w_v * values))


def norm(state: OscillatorState, order: int = DEFAULT_ORDER) -> float:
    """Quadrature of |psi|^2 over the (z, t) plane; 1 for every valid state."""
    return overlap(state, state, order)


def marginal(state: OscillatorState, axis: str, grid: GridSpec,
             order: int = DEFAULT_ORDER) -> FieldGrid:
    """Probability density of one coordinate of the boosted distribution |psi|^2.

    |psi|^2 is a polynomial of degree 2 n_z times exp(-(e^{-2 eta} u^2 +
    e^{2 eta} v^2)) in the light-cone coordinates, so every axis integrates
    psi_boosted_lightcone over one of them with a scaled, shifted
    Gauss-Hermite rule, exact from exact_order(2 n_z) = n_z + 1 nodes. A
    smaller order is refused with a ConfigError. Valid axes: z, t, u, v.

    The u and v densities integrate over the other light-cone coordinate.
    The z and t densities at c = (u +- v)/sqrt(2) integrate over the narrow
    one, n (v for eta >= 0, u below), with the wide one at sqrt(2) c - n
    (up to the sign of v for t), Jacobian sqrt(2). In n the Gaussian is
    centred at sqrt(2) c e^{-2|eta|} / (2 cosh 2 eta) with scale
    1/sqrt(2 cosh 2 eta), so the nodes stay on the state at every rapidity.
    """
    if axis not in MARGINAL_AXES:
        raise DomainError(f"axis must be one of {MARGINAL_AXES}, got {axis!r}")
    _check_order(order, 2 * state.n_z, f"|psi|^2 at n_z = {state.n_z}")
    x, w = _rule_arrays(order)
    kept = grid.points()[:, None]
    eta = state.eta
    if axis in ("z", "t"):
        scale = 1.0 / math.sqrt(2.0 * math.cosh(2.0 * eta))
        narrow = (SQRT2 * math.exp(-2.0 * abs(eta)) * scale**2) * kept + scale * x[None, :]
        wide = SQRT2 * kept - narrow
        uu, vv = (wide, narrow) if eta >= 0.0 else (narrow, wide)
        if axis == "t":
            vv = -vv
        scale *= SQRT2
    else:
        scale = math.exp(-eta) if axis == "u" else math.exp(eta)
        other = scale * x[None, :]
        uu, vv = (kept, other) if axis == "u" else (other, kept)
    density = scale * np.sum(w[None, :] * psi_boosted_lightcone(state, uu, vv) ** 2, axis=1)
    return FieldGrid(specs=(grid,), axes=(axis,), values=density)


def _check_cells(grid: GridSpec, budget: int) -> None:
    """Refuse a square grid over the cell budget before anything is evaluated."""
    cells = grid.npoints**2
    if cells > budget:
        raise ConfigError(
            f"grid of {grid.npoints}^2 = {cells} cells exceeds the budget of {budget} cells")


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an n x n grid, each about _BLOCK_CELLS cells."""
    rows = max(1, _BLOCK_CELLS // n)
    return [slice(i, i + rows) for i in range(0, n, rows)]


def pde_residual(state: OscillatorState, grid: GridSpec) -> PdeResidualReport:
    """Residual of the longitudinal oscillator equation on a squeeze-adapted grid.

    The operator is half the difference of the z and t oscillator forms,

        D = ((z^2 - d^2/dz^2) - (t^2 - d^2/dt^2)) / 2,

    normalized so h_{n_z}(z) h_0(t) sits at eigenvalue n_z:  the time sector
    contributes its zero point against the longitudinal one, which is the
    no-time-like-excitation rule made explicit. In light-cone coordinates
    D = u v - d^2/(du dv), and that form is unchanged by the reciprocal axis
    scaling of a boost, so the grid and the cross stencil are laid out along
    the squeezed axes: grid coordinate (a, b) sits at u = e^{eta} a,
    v = e^{-eta} b with stencil steps scaled the same way. The stencil is
    the Richardson combination (4 C_h - C_2h) / 3 of the four-corner cross
    differences at h = FD_STEP and 2h, fourth order in h.

    There the state is h_{n_z}(sigma/sqrt(2)) h_0(delta/sqrt(2)) with
    sigma = a + b and delta = a - b, and with a = min + step i,
    b = min + step j, sigma depends only on s = i + j and delta only on
    d = i - j. Since h_n'' = (x^2 - 2n - 1) h_n, the exact parts of the
    stencil cancel in closed form, and the residual D psi - n_z psi of cell
    (s, d) is the rank-2 sum of two 1-D truncation errors,

        r[s, d] = H_0[s] e_b[|d|] + e_a[s] G_0[|d|],
        e_a = (sigma^2/4 - n_z - 1/2) H_0 - H'' / (4 h_u h_v),
        e_b = (1/2 - delta^2/4) G_0 + G'' / (4 h_u h_v),
        H'' = (16 (H_+ + H_-) - (H_++ + H_--) - 30 H_0) / 12, and G'' alike.

    H_c is the state on the line a = b = (sigma + c)/2, and G_c the ground
    state at the same rapidity on a = -b = (delta + c)/2, c in
    {0, +-2h, +-4h} (H_+- at +-2h, H_++ and H_-- at +-4h), each divided by
    h_0(0). Both lines are read through psi_boosted_lightcone, the five
    shifts of each in one call, so the residual sees the boost itself.

    |G_0| must not grow with |d| (checked; NumericIntegrityError otherwise).
    Then max|psi| is the largest |H_0[s]| |G_0[s mod 2]|, and the cells
    above MASK_FLOOR times it form one band |d| <= top(s) per row s, with d
    of the parity of s. The Rayleigh sums over the bands come from prefix
    sums over each parity of d. The masked maximum is found best-first: rows
    are evaluated in batches, in order of a bound that no cell of the row
    exceeds, until the next bound falls below the best value so far. No
    N x N array is formed.

    Returns the model eigenvalue n_z, its Rayleigh-quotient estimate from the
    grid data, and the masked maximum of |D psi - n_z psi| / max|psi|.
    """
    n = grid.npoints
    s, k = np.arange(2 * n - 1), np.arange(n)
    sums, diffs = 2.0 * grid.min + grid.step * s, grid.step * k
    e_u, e_v = math.exp(state.eta), math.exp(-state.eta)
    ground, h_origin = OscillatorState(eta=state.eta), hermite_function(0, 0.0)

    def line(which: OscillatorState, x: np.ndarray, sign: float) -> np.ndarray:
        # the state on a = sign b = x / 2
        return psi_boosted_lightcone(which, e_u * x / 2.0, sign * e_v * x / 2.0) / h_origin

    def second(x: np.ndarray) -> np.ndarray:
        # x[c] at the shifts 0, +-2h, +-4h: 12 times the fourth-order second difference
        return 16.0 * (x[1] + x[2]) - (x[3] + x[4]) - 30.0 * x[0]

    shifts = FD_STEP * np.array([0.0, 2.0, -2.0, 4.0, -4.0])[:, None]
    h_lines, g_lines = line(state, sums + shifts, 1.0), line(ground, diffs + shifts, -1.0)
    h0, g0 = h_lines[0], g_lines[0]
    hh = 48.0 * (e_u * FD_STEP) * (e_v * FD_STEP)
    lam = float(state.n_z)
    e_a = (sums**2 / 4.0 - lam - 0.5) * h0 - second(h_lines) / hh
    e_b = (0.5 - diffs**2 / 4.0) * g0 + second(g_lines) / hh
    h_abs, g_abs = np.abs(h0), np.abs(g0)
    if np.any(g_abs[1:] > g_abs[:-1]):
        raise NumericIntegrityError("|psi| grows away from a = b; the band mask needs it to fall")
    peak = float(np.max(h_abs * g_abs[s % 2]))
    if peak == 0.0:
        raise ConfigError("grid does not touch the state's support")
    with np.errstate(divide="ignore", over="ignore"):
        floor = MASK_FLOOR * peak / h_abs
    top = np.minimum(np.searchsorted(-g_abs, -floor) - 1, np.minimum(s, 2 * n - 2 - s))
    rows = np.flatnonzero(top >= s % 2)
    p, h, e = rows % 2, h0[rows], e_a[rows]
    # row s holds the cells |d| = p + 2 j, j = 0 .. last, with p = s mod 2
    last = (top[rows] - p) // 2
    # [p, j] -> x[p + 2 j]; each |d| > 0 holds the two cells d = +-|d|
    weight = np.where(k > 0, 2.0, 1.0)
    b_cols, g_cols, cross, square = (np.resize(x, ((n + 1) // 2, 2)).T for x in (
        e_b, g0, weight * g0 * e_b, weight * g0 * g0))
    cross, square = np.cumsum(cross, axis=1)[p, last], np.cumsum(square, axis=1)[p, last]
    # |psi| / peak keeps the squares in range where psi**2 would underflow
    x, y = h / peak, e / peak
    rayleigh = lam + np.sum(x * (x * cross + y * square)) / np.sum(x * x * square)
    bound = (np.abs(h) * np.maximum.accumulate(np.abs(b_cols), axis=1)[p, last]
             + np.abs(e) * g_abs[p])
    order, worst = np.argsort(-bound), 0.0
    for start in range(0, order.size, 64):
        i = order[start:start + 64]
        # rounding can lift a cell a few ulps above its row's bound
        if bound[i[0]] * (1.0 + 1e-12) < worst:
            break
        j = np.arange(last[i].max() + 1)
        cells = np.abs(h[i, None] * b_cols[p[i], :j.size] + e[i, None] * g_cols[p[i], :j.size])
        worst = max(worst, float(np.where(j <= last[i, None], cells, 0.0).max()))
    return PdeResidualReport(
        eigenvalue=lam,
        rayleigh_quotient=float(rayleigh),
        max_rel_residual=worst / peak,
        masked_points=int(np.sum(p + 2 * last + 1)),
    )


def render_grid(state: OscillatorState, grid: GridSpec,
                representation: str = "spacetime") -> FieldGrid:
    """Dense sampling of the wave function on a square grid.

    representation "spacetime" samples psi on (z, t); "momentum" samples the
    momentum-energy wave function on (q_z, q_0). Both are one function for
    every n_z, phi(q_z, q_0) = (-i)^{n_z} psi(q_z, q_0), so both evaluate
    psi_boosted, and the momentum values are the real amplitude i^{n_z} phi.
    values[i, j] corresponds to (first_axis[i], second_axis[j]). The field is
    filled in row blocks of about _BLOCK_CELLS cells, so no N x N temporary is
    held besides the field itself. Grids of more than MAX_GRID_CELLS cells are
    refused with a ConfigError.
    """
    _check_cells(grid, MAX_GRID_CELLS)
    axes = {"spacetime": ("z", "t"), "momentum": ("q_z", "q_0")}.get(representation)
    if axes is None:
        raise DomainError(f"unknown representation {representation!r}")
    pts = grid.points()
    values = np.empty((grid.npoints, grid.npoints))
    for b in _row_blocks(grid.npoints):
        values[b] = psi_boosted(state, pts[b, None], pts[None, :])
    return FieldGrid(specs=(grid, grid), axes=axes, values=values)
