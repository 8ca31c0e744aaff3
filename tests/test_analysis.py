import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from covosc import analysis, cli, closed_forms
from covosc import (
    ETA_MAX,
    ConfigError,
    DomainError,
    FieldGrid,
    GridSpec,
    NumericIntegrityError,
    OscillatorState,
    marginal,
    norm,
    overlap,
    pde_residual,
    psi_boosted,
    render_grid,
)
from covosc.hermite import gauss_hermite, hermite_function
from covosc.oscillator import psi_boosted_lightcone
from wrong_boosts import boost_backwards, squeeze_both_axes

LN2 = math.log(2.0)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)


def residual_by_samples(state, grid):
    """Oracle: the residual from psi samples on the full grid, one per stencil point.

    The centre and the eight corners at +-h and +-2h of the Richardson cross
    stencil, h = FD_STEP. Returns (rayleigh_quotient, max_rel_residual,
    masked_points) as pde_residual computed them before it read the samples
    from 1-D lines.
    """
    pts = grid.points()
    a = pts[:, None]
    b = pts[None, :]
    e_u, e_v = math.exp(state.eta), math.exp(-state.eta)

    def sample(da, db):
        return psi_boosted_lightcone(state, e_u * (a + da), e_v * (b + db))

    def corners(h):
        return (sample(h, h) - sample(h, -h) - sample(-h, h) + sample(-h, -h)) / (
            4.0 * (e_u * h) * (e_v * h))

    center = sample(0.0, 0.0)
    h = analysis.FD_STEP
    cross = (4.0 * corners(h) - corners(2.0 * h)) / 3.0
    applied = (e_u * a) * (e_v * b) * center - cross
    peak = float(np.max(np.abs(center)))
    mask = np.abs(center) > analysis.MASK_FLOOR * peak
    residual = np.abs(applied - state.n_z * center)[mask]
    rayleigh = float(np.sum(center[mask] * applied[mask]) / np.sum(center[mask] ** 2))
    return rayleigh, float(residual.max() / peak), int(mask.sum())


def verify_grid(n_z):
    """The default grid of the verify command."""
    half = 4.0 * math.sqrt((n_z + 1.0) / 2.0)
    return GridSpec(-half, half, 0.02)


def verify_table():
    """Default verify grids over n_z and eta, then grids at the band's edges."""
    for n_z, eta in itertools.product((0, 3, 16), (0.0, 1.3, -1.3, 50.0)):
        grid = verify_grid(n_z)
        yield pytest.param(n_z, eta, grid, id=f"n_z={n_z} eta={eta} N={grid.npoints}")
    yield pytest.param(2, 0.7, GridSpec(-3.0, 3.0, 0.1), id="61 points")
    # at n_z = 0, no row with a + b > 7.5 holds a cell above the mask floor
    yield pytest.param(0, 0.0, GridSpec(-3.0, 9.0, 0.02), id="rows without cells")
    # the diagonal cells sit at the nodes of h_2, so the peak is on |i - j| = N - 1
    yield pytest.param(2, 0.0, GridSpec(-0.5, 0.5, 1.0), id="peak on |i - j| = N - 1")
    # the window lies beside the state: the peak is the corner cell i + j = 0
    yield pytest.param(0, 0.3, GridSpec(2.0, 5.0, 0.1), id="peak on i + j = 0")
    yield pytest.param(0, -0.3, GridSpec(-5.0, -2.0, 0.1), id="peak on i + j = 2N - 2")
    yield pytest.param(1, 0.7, GridSpec(0.3, 0.5, 1.0), id="1-point grid")


def rank2_by_cells(state, grid):
    """Oracle: the rank-2 residual of pde_residual on every cell of the grid, with its mask.

    The same two lines and 1-D errors, combined cell by cell on the whole
    N x N grid, so the report must match the band and the best-first search
    to the last bit in the count and the maximum. None where the grid misses
    the state's support.
    """
    n = grid.npoints
    sums = 2.0 * grid.min + grid.step * np.arange(2 * n - 1)
    diffs = grid.step * np.arange(n)
    e_u, e_v = math.exp(state.eta), math.exp(-state.eta)
    ground, h_origin = OscillatorState(eta=state.eta), hermite_function(0, 0.0)

    def line(which, x, sign):
        return psi_boosted_lightcone(which, e_u * x / 2.0, sign * e_v * x / 2.0) / h_origin

    h = analysis.FD_STEP

    def second(which, x, sign):
        # the line and 12 times its fourth-order second difference
        c = [line(which, x + k * h, sign) for k in (0.0, 2.0, -2.0, 4.0, -4.0)]
        return c[0], 16.0 * (c[1] + c[2]) - (c[3] + c[4]) - 30.0 * c[0]

    hh = 48.0 * (e_u * h) * (e_v * h)
    h0, h2 = second(state, sums, 1.0)
    g0, g2 = second(ground, diffs, -1.0)
    e_a = (sums**2 / 4.0 - state.n_z - 0.5) * h0 - h2 / hh
    e_b = (0.5 - diffs**2 / 4.0) * g0 + g2 / hh
    i, j = np.arange(n)[:, None], np.arange(n)[None, :]
    s, d = i + j, np.abs(i - j)
    center = h0[s] * g0[d]
    residual = h0[s] * e_b[d] + e_a[s] * g0[d]
    peak = float(np.max(np.abs(center)))
    if peak == 0.0:
        return None
    mask = np.abs(center) > analysis.MASK_FLOOR * peak
    c, r = center[mask] / peak, residual[mask] / peak
    rayleigh = state.n_z + np.sum(c * r) / np.sum(c * c)
    return float(rayleigh), float(np.max(np.abs(residual[mask])) / peak), int(mask.sum())


ORACLE_N_Z = (0, 1, 2, 3, 4, 16)
ORACLE_ETAS = (0.0, 1.3, -1.3, 45.0, 50.0, -50.0)
ORACLE_GRIDS = ((-4.0, 4.0, 0.01), (-3.0, 5.0, 0.03), (0.5, 7.25, 0.0125))


def oracle_table():
    """Every (n_z, eta, grid) triple, then verify_table()."""
    for n_z, eta, grid in itertools.product(ORACLE_N_Z, ORACLE_ETAS, ORACLE_GRIDS):
        yield pytest.param(n_z, eta, GridSpec(*grid), id=f"n_z={n_z} eta={eta} grid={grid}")
    yield from verify_table()


class TestGridSpec:
    def test_npoints_and_points(self):
        spec = GridSpec(-3.0, 3.0, 0.1)
        assert spec.npoints == 61
        pts = spec.points()
        assert pts.shape == (61,)
        assert pts[0] == -3.0
        assert pts[-1] == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_constructor(self):
        spec = GridSpec.symmetric(5.0, 400)
        assert spec.npoints == 400
        assert spec.min == -5.0 and spec.max == 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(1.0, -1.0, 0.1)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, -0.5)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 1e-6)  # over 1e4 points
        with pytest.raises(ConfigError):
            GridSpec(float("nan"), 1.0, 0.1)


class TestFieldGrid:
    def test_shape_must_match(self):
        spec = GridSpec(0.0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            FieldGrid(specs=(spec,), axes=("z",), values=np.zeros(4))

    def test_values_must_be_finite(self):
        spec = GridSpec(0.0, 1.0, 0.5)
        with pytest.raises(NumericIntegrityError):
            FieldGrid(specs=(spec,), axes=("z",), values=np.array([0.0, np.nan, 0.0]))

    def test_values_read_only(self):
        spec = GridSpec(0.0, 1.0, 0.5)
        fg = FieldGrid(specs=(spec,), axes=("z",), values=np.zeros(3))
        with pytest.raises(ValueError):
            fg.values[0] = 1.0


class TestPdeResidual:
    @pytest.mark.parametrize("n_z", [0, 1, 2, 3])
    def test_eigenvalue_ladder_at_rest(self, n_z):
        report = pde_residual(OscillatorState(n_z=n_z), GridSpec(-4.0, 4.0, 0.01))
        assert report.eigenvalue == float(n_z)
        assert report.max_rel_residual < 1e-3
        assert report.rayleigh_quotient == pytest.approx(n_z, abs=1e-3)

    def test_boost_invariance_of_spectrum(self):
        report = pde_residual(OscillatorState(eta=1.5), GridSpec(-4.0, 4.0, 0.01))
        assert report.eigenvalue == 0.0
        assert report.max_rel_residual < 1e-3
        assert report.rayleigh_quotient == pytest.approx(0.0, abs=1e-3)

    def test_residual_shrinks_with_step(self, monkeypatch):
        grid = GridSpec(-4.0, 4.0, 0.05)
        monkeypatch.setattr(analysis, "FD_STEP", 0.008)
        coarse = pde_residual(OscillatorState(n_z=2), grid)
        monkeypatch.setattr(analysis, "FD_STEP", 0.004)
        fine = pde_residual(OscillatorState(n_z=2), grid)
        # fourth-order stencil: error ~ h^4, a factor 16 per halving
        assert 12.0 < coarse.max_rel_residual / fine.max_rel_residual < 20.0

    def test_rayleigh_detects_the_level(self):
        # the estimate comes from the data, so it separates neighboring levels
        grid = GridSpec(-5.0, 5.0, 0.02)
        r1 = pde_residual(OscillatorState(n_z=1), grid)
        r2 = pde_residual(OscillatorState(n_z=2), grid)
        assert abs(r1.rayleigh_quotient - r2.rayleigh_quotient) > 0.9

    def test_grid_missing_support(self):
        # far from the origin every value underflows to zero
        with pytest.raises(ConfigError):
            pde_residual(OscillatorState(), GridSpec(500.0, 600.0, 1.0))

    @pytest.mark.parametrize("n_z, eta, grid", oracle_table())
    def test_matches_five_sample_oracle(self, n_z, eta, grid):
        state = OscillatorState(n_z=n_z, eta=eta)
        rayleigh, max_residual, masked = residual_by_samples(state, grid)
        report = pde_residual(state, grid)
        # the stencil divides rounding of psi by 4 FD_STEP^2
        tolerance = 1e-15 / analysis.FD_STEP**2
        assert report.rayleigh_quotient == pytest.approx(rayleigh, rel=0.0, abs=tolerance)
        assert report.max_rel_residual == pytest.approx(max_residual, rel=0.0, abs=tolerance)
        assert report.masked_points == masked

    @given(n_z=st.integers(0, 10), eta=st.floats(-ETA_MAX, ETA_MAX),
           lo=st.floats(-6.0, 2.0), step=st.floats(0.005, 0.2), npoints=st.integers(1, 250))
    @settings(max_examples=60, deadline=None)
    def test_matches_every_cell_of_the_rank2_residual(self, n_z, eta, lo, step, npoints):
        state = OscillatorState(n_z=n_z, eta=eta)
        grid = GridSpec(lo, lo + step * (npoints - 0.5), step)
        expected = rank2_by_cells(state, grid)
        if expected is None:
            with pytest.raises(ConfigError, match="support"):
                pde_residual(state, grid)
            return
        rayleigh, max_residual, masked = expected
        report = pde_residual(state, grid)
        assert report.masked_points == masked
        assert report.max_rel_residual == max_residual
        # at n_z = 0 the quotient itself can be rounding noise near 0
        assert report.rayleigh_quotient == pytest.approx(rayleigh, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.7, -20.0, 50.0])
    def test_every_default_verify_grid_below_1e_6(self, eta):
        # the stencil's truncation error grows with n_z; one step must serve up to 64
        for n_z in range(65):
            report = pde_residual(OscillatorState(n_z=n_z, eta=eta), verify_grid(n_z))
            assert report.max_rel_residual < 1e-6, (n_z, report)
            assert report.rayleigh_quotient == pytest.approx(n_z, rel=0.0, abs=1e-6)

    @pytest.mark.parametrize("wrong_boost", [squeeze_both_axes, boost_backwards])
    @pytest.mark.parametrize("eta", [0.7, -2.5])
    def test_wrong_boost_fails(self, wrong_boost, eta, monkeypatch):
        # both lines are read through the boost, so a wrong one shows in the residual
        state, grid = OscillatorState(n_z=3, eta=eta), verify_grid(3)
        assert pde_residual(state, grid).max_rel_residual < 1e-3
        monkeypatch.setattr(analysis, "psi_boosted_lightcone", wrong_boost)
        assert pde_residual(state, grid).max_rel_residual > 1.0

    def test_peak_memory_per_cell(self):
        state, grid = OscillatorState(n_z=64, eta=0.7), verify_grid(64)
        pde_residual(state, grid)
        tracemalloc.start()
        try:
            pde_residual(state, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the residual is read from 1-D lines of at most 2N - 1 points, five
        # shifts of a line at a time, so the peak is a few (5, 2N - 1) arrays
        # (182 KB each; 2.3 MB in all when measured). No array of N x N cells
        # (41.6 MB), nor a buffer that grows with them, may appear
        assert grid.npoints == 2281
        assert peak < 16 * 5 * (2 * grid.npoints - 1) * 8


class TestNorm:
    def test_rest_ground(self):
        assert norm(OscillatorState(), 32) == pytest.approx(1.0, abs=1e-10)

    def test_boosted_ground(self):
        assert norm(OscillatorState(eta=2.0), 32) == pytest.approx(1.0, abs=1e-8)

    def test_boosted_excited(self):
        assert norm(OscillatorState(n_z=3, eta=1.0), 64) == pytest.approx(1.0, abs=1e-8)

    def test_against_adaptive_quadrature(self):
        # independent oracle: scipy adaptive integration in plain (z, t)
        state = OscillatorState(n_z=1, eta=0.7)
        oracle, err = integrate.dblquad(
            lambda t, z: psi_boosted(state, z, t) ** 2, -12.0, 12.0, -12.0, 12.0,
            epsabs=1e-10, epsrel=1e-10)
        assert err < 1e-7
        assert norm(state, 64) == pytest.approx(oracle, abs=1e-7)

    def test_order_cap(self):
        from covosc import CapabilityError
        with pytest.raises(CapabilityError):
            norm(OscillatorState(), 300)


class TestOverlap:
    def test_identical_states(self):
        s = OscillatorState(n_z=2, eta=0.7)
        assert overlap(s, s, 64) == pytest.approx(1.0, abs=1e-10)

    def test_boosted_vs_rest_closed_form(self):
        # 2-D Gaussian integral gives 1/cosh(eta)
        got = overlap(OscillatorState(eta=LN2), OscillatorState(), 64)
        assert got == pytest.approx(0.8, abs=1e-8)
        for eta in (0.25, 1.0, 2.0, 3.0):
            got = overlap(OscillatorState(eta=eta), OscillatorState(), 64)
            assert got == pytest.approx(1.0 / math.cosh(eta), abs=1e-8)

    def test_against_adaptive_quadrature(self):
        a = OscillatorState(eta=1.0)
        b = OscillatorState()
        oracle, err = integrate.dblquad(
            lambda t, z: psi_boosted(a, z, t) * psi_boosted(b, z, t),
            -10.0, 10.0, -10.0, 10.0, epsabs=1e-10, epsrel=1e-10)
        assert err < 1e-7
        assert oracle == pytest.approx(1.0 / math.cosh(1.0), abs=1e-8)
        assert overlap(a, b, 64) == pytest.approx(oracle, abs=1e-7)

    def test_parity_orthogonality(self):
        for eta in (0.0, 1.0):
            got = overlap(OscillatorState(n_z=1, eta=eta), OscillatorState(eta=eta), 64)
            assert got == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("m, n", [(1, 0), (2, 4), (3, 5), (0, 6)])
    def test_selection_rule(self, m, n):
        # a boost conserves n_z - n_t: different n_z never overlap, in any two frames
        for eta_a, eta_b in ((0.0, 0.8), (-1.3, 0.4)):
            a, b = OscillatorState(n_z=m, eta=eta_a), OscillatorState(n_z=n, eta=eta_b)
            assert overlap(a, b, 64) == pytest.approx(0.0, abs=1e-13)
            assert closed_forms.frame_overlap(a, b) == 0.0

    def test_depends_only_on_rapidity_difference(self):
        values = [
            overlap(OscillatorState(eta=1.2 + delta), OscillatorState(eta=delta), 64)
            for delta in (0.0, 0.5, 1.0)
        ]
        assert values[0] == pytest.approx(values[1], abs=1e-8)
        assert values[0] == pytest.approx(values[2], abs=1e-8)
        assert values[0] == pytest.approx(1.0 / math.cosh(1.2), abs=1e-8)

    def test_below_exact_order_refused(self):
        # order 2 gave 0.1031 here, against sech^4 0.5 = 0.6185
        a, b = OscillatorState(n_z=3, eta=0.5), OscillatorState(n_z=3)
        with pytest.raises(ConfigError, match="quadrature order 2 is below 4"):
            overlap(a, b, 2)
        assert overlap(a, b, 4) == pytest.approx(math.cosh(0.5) ** -4, abs=1e-15)
        with pytest.raises(ConfigError, match="quadrature order 4 is below 5"):
            overlap(OscillatorState(n_z=3), OscillatorState(n_z=5), 4)
        with pytest.raises(ConfigError, match="quadrature order 3 is below 6"):
            norm(OscillatorState(n_z=5), 3)
        # 64 nodes were one short at n_z = 64
        with pytest.raises(ConfigError, match="quadrature order 64 is below 65"):
            norm(OscillatorState(n_z=64))

    @given(st.integers(0, 63), st.floats(-ETA_MAX + 1.5, ETA_MAX - 1.5),
           st.floats(-1.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_exact_order_and_64_nodes_meet_the_closed_form(self, n_z, eta, delta):
        # the quadrature of psi is the reference for the closed form the CLI reports
        a, b = OscillatorState(n_z=n_z, eta=eta + delta), OscillatorState(n_z=n_z, eta=eta)
        want = closed_forms.frame_overlap(b, a)
        for order in (analysis.exact_order(2 * n_z), 64):
            assert overlap(a, b, order) == pytest.approx(want, rel=0.0, abs=5e-14), order


class TestMarginal:
    def test_rest_z_density(self):
        spec = GridSpec(-6.0, 6.0, 0.05)
        fg = marginal(OscillatorState(), "z", spec)
        pts = fg.points()
        want = INV_SQRT_PI * np.exp(-pts**2)
        np.testing.assert_allclose(fg.values, want, rtol=0.0, atol=1e-14)
        center = fg.values[np.argmin(np.abs(pts))]
        assert center == pytest.approx(0.564190, abs=1e-6)

    def test_density_integrates_to_one(self):
        for eta, axis in [(0.0, "z"), (1.0, "z"), (1.0, "u"), (0.5, "t"), (1.0, "v")]:
            sigma = {
                "z": math.sqrt(0.5 * math.cosh(2 * eta)),
                "t": math.sqrt(0.5 * math.cosh(2 * eta)),
                "u": math.exp(eta) / math.sqrt(2.0),
                "v": math.exp(-eta) / math.sqrt(2.0),
            }[axis]
            spec = GridSpec.symmetric(8.0 * sigma, 801)
            fg = marginal(OscillatorState(eta=eta), axis, spec)
            total = np.trapezoid(fg.values, fg.points())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_u_axis_is_gaussian_with_squeezed_width(self):
        for eta in (0.0, 1.0, 2.0):
            sigma = math.exp(eta) / math.sqrt(2.0)
            spec = GridSpec.symmetric(5.0 * sigma, 201)
            fg = marginal(OscillatorState(eta=eta), "u", spec)
            pts = fg.points()
            want = np.exp(-0.5 * (pts / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
            np.testing.assert_allclose(fg.values, want, rtol=1e-12, atol=1e-15)

    def test_z_variance_matches_closed_form(self):
        # sigma_z^2 = cosh(2 eta)/2: trapezoid moment over a wide grid
        eta = 2.0
        sigma = math.sqrt(0.5 * math.cosh(4.0))
        spec = GridSpec.symmetric(9.0 * sigma, 1201)
        fg = marginal(OscillatorState(eta=eta), "z", spec)
        var = np.trapezoid(fg.values * fg.points() ** 2, fg.points())
        assert var == pytest.approx(math.cosh(4.0) / 2.0, rel=1e-8)
        assert var == pytest.approx(13.654116418008243, rel=1e-8)

    def test_excited_state_density(self):
        # n_z = 1 at rest: density along z is 2 z^2 e^{-z^2} / sqrt(pi)
        spec = GridSpec(-5.0, 5.0, 0.1)
        fg = marginal(OscillatorState(n_z=1), "z", spec)
        pts = fg.points()
        want = 2.0 * pts**2 * np.exp(-pts**2) * INV_SQRT_PI
        np.testing.assert_allclose(fg.values, want, rtol=0.0, atol=1e-13)

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            marginal(OscillatorState(), "w", GridSpec(-1.0, 1.0, 0.5))

    def test_below_exact_order_refused(self):
        # order 1 integrated to 0.375 on the default grid of the u axis
        state = OscillatorState(n_z=2, eta=0.3)
        with pytest.raises(ConfigError, match="quadrature order 1 is below 3"):
            marginal(state, "u", GridSpec(-4.0, 4.0, 0.5), 1)

    @given(st.integers(0, 10), st.floats(-ETA_MAX, ETA_MAX),
           st.sampled_from(analysis.MARGINAL_AXES))
    @settings(max_examples=100, deadline=None)
    def test_exact_order_matches_64_nodes(self, n_z, eta, axis):
        state = OscillatorState(n_z=n_z, eta=eta)
        half = 4.0 * closed_forms.ground_widths(eta)[axis] * math.sqrt(n_z + 1.0)
        grid = GridSpec.symmetric(half, 41)
        exact = marginal(state, axis, grid, analysis.exact_order(2 * n_z)).values
        # the density scales as 1/sigma, e^{-50} at the far end of the domain
        np.testing.assert_allclose(exact, marginal(state, axis, grid, 64).values,
                                   rtol=0.0, atol=1e-13 * np.max(exact))

    @given(st.integers(0, 64), st.floats(-ETA_MAX, ETA_MAX),
           st.sampled_from(analysis.MARGINAL_AXES))
    @settings(max_examples=100, deadline=None)
    def test_norm_and_variance_match_the_closed_forms(self, n_z, eta, axis):
        # the state reaches sqrt(2 n_z + 1) ground widths; a fine trapezoid
        # over a wider window integrates the smooth density to rounding
        sigma = closed_forms.ground_widths(eta)[axis]
        grid = GridSpec.symmetric((math.sqrt(2.0 * n_z + 1.0) + 6.0) * SQRT2 * sigma, 2001)
        density = marginal(OscillatorState(n_z=n_z, eta=eta), axis, grid,
                           analysis.exact_order(2 * n_z))
        x = density.points()
        c2, s2 = math.cosh(eta) ** 2, math.sinh(eta) ** 2
        want = {"z": (n_z + 0.5) * c2 + 0.5 * s2, "t": (n_z + 0.5) * s2 + 0.5 * c2,
                "u": math.exp(2.0 * eta) * (n_z + 1) / 2.0,
                "v": math.exp(-2.0 * eta) * (n_z + 1) / 2.0}[axis]
        assert np.trapezoid(density.values, x) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        variance = np.trapezoid(density.values * x * x, x)
        assert variance == pytest.approx(want, rel=1e-12, abs=0.0)


def scan(etas):
    """The parton-scan CLI's rows, one dict of columns per rapidity."""
    text = cli.run(cli.RunConfig("parton-scan", etas=tuple(etas)))
    header, *rows = [line for line in text.splitlines() if not line.startswith("#")]
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


def momentum_variance(eta):
    """sigma_qz^2 of the boosted ground state, as parton-scan reports it."""
    return scan([eta])[0]["sigma_qz"] ** 2


def quadrature_widths(eta, order):
    """Oracle: standard deviations of the ground state's |psi|^2 along u, v and z.

    Second moments of psi_boosted_lightcone on a light-cone Gauss-Hermite
    product rule scaled by e^{+-eta}. With two nodes every node has
    u^2 = e^{2 eta}/2 and v^2 = e^{-2 eta}/2, so the moments come out right
    for any density; from three nodes on they depend on psi.
    """
    rule = gauss_hermite(order)
    s_u, s_v = math.exp(eta), math.exp(-eta)
    u, v = s_u * rule.nodes[:, None], s_v * rule.nodes[None, :]
    weights = rule.exp_weights[:, None] * rule.exp_weights[None, :]
    density = weights * analysis.psi_boosted_lightcone(OscillatorState(eta=eta), u, v) ** 2
    total = np.sum(density)
    moments = {"u": u * u, "v": v * v, "z": (u + v) ** 2 / 2.0}
    return {axis: math.sqrt(np.sum(density * m) / total) for axis, m in moments.items()}


class TestMomentumVariance:
    def test_rest(self):
        assert momentum_variance(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_ln2_closed_form(self):
        # cosh(2 ln 2)/2 = (4 + 1/4)/4
        assert momentum_variance(LN2) == pytest.approx(1.0625, abs=1e-10)

    def test_monotone_in_eta(self):
        assert momentum_variance(3.0) > momentum_variance(2.0) > momentum_variance(0.5)


WIDTH_ETAS = [0.0, 0.7, -0.7, 3.0, -3.0, 20.0, -20.0, 50.0, -50.0]


class TestPartonScan:
    def test_rest_row(self):
        row = scan([0.0])[0]
        assert row["sigma_u"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert row["sigma_v"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert row["aspect"] == pytest.approx(1.0, rel=1e-12)
        assert row["time_dilation"] == pytest.approx(1.0, rel=1e-12)

    def test_ln2_row(self):
        row = scan([LN2])[0]
        assert row["sigma_u"] == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert row["sigma_v"] == pytest.approx(0.35355339059327373, rel=1e-10)
        assert row["aspect"] == pytest.approx(4.0, rel=1e-9)
        assert row["time_dilation"] == pytest.approx(2.0, rel=1e-9)

    def test_closed_forms_across_etas(self):
        for row in scan([0.0, 0.5, 1.0, 2.0, 4.0]):
            e = row["eta"]
            assert row["sigma_u"] == pytest.approx(math.exp(e) / math.sqrt(2.0), rel=1e-9)
            assert row["sigma_v"] == pytest.approx(math.exp(-e) / math.sqrt(2.0), rel=1e-9)
            assert row["sigma_z"]**2 == pytest.approx(0.5 * math.cosh(2 * e), rel=1e-9)
            assert row["sigma_qz"]**2 == pytest.approx(0.5 * math.cosh(2 * e), rel=1e-9)
            assert row["aspect"] == pytest.approx(math.exp(2 * e), rel=1e-9)

    def test_uncertainty_product_grows(self):
        rows = scan([0.0, 1.0, 2.0])
        products = [r["sigma_z"] * r["sigma_qz"] for r in rows]
        assert products[0] == pytest.approx(0.5, rel=1e-9)
        assert products[0] < products[1] < products[2]

    def test_spatial_and_momentum_widths_grow_together(self):
        rows = scan([0.0, 1.0, 3.0])
        assert rows[0]["sigma_z"] < rows[1]["sigma_z"] < rows[2]["sigma_z"]
        assert rows[0]["sigma_qz"] < rows[1]["sigma_qz"] < rows[2]["sigma_qz"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="requires --etas"):
            cli.run(cli.RunConfig("parton-scan", etas=()))

    @pytest.mark.parametrize("eta", WIDTH_ETAS)
    def test_widths_match_the_quadrature_of_psi(self, eta):
        widths, row = closed_forms.ground_widths(eta), scan([eta])[0]
        for axis, sigma in quadrature_widths(eta, 3).items():
            assert widths[axis] == pytest.approx(sigma, rel=1e-14, abs=0.0), axis
            # the CLI writes 15 significant digits
            assert row["sigma_" + axis] == pytest.approx(sigma, rel=1e-14, abs=0.0), axis

    @pytest.mark.parametrize("wrong_boost", [squeeze_both_axes, boost_backwards])
    @pytest.mark.parametrize("eta", [e for e in WIDTH_ETAS if e])
    def test_quadrature_widths_miss_under_a_wrong_boost(self, wrong_boost, eta, monkeypatch):
        widths = closed_forms.ground_widths(eta)
        monkeypatch.setattr(analysis, "psi_boosted_lightcone", wrong_boost)
        missed = {axis: abs(sigma / widths[axis] - 1.0)
                  for axis, sigma in quadrature_widths(eta, 3).items()}
        assert max(missed.values()) > 0.1, missed

    @given(st.floats(-ETA_MAX, ETA_MAX))
    @settings(max_examples=60, deadline=None)
    def test_exact_order_matches_64_nodes(self, eta):
        widths = closed_forms.ground_widths(eta)
        for order in (3, 64):
            for axis, sigma in quadrature_widths(eta, order).items():
                assert widths[axis] == pytest.approx(sigma, rel=1e-13, abs=0.0), (order, axis)


class TestRenderGrid:
    def test_shape_and_peak(self):
        fg = render_grid(OscillatorState(), GridSpec(-3.0, 3.0, 0.1))
        assert fg.values.shape == (61, 61)
        assert fg.axes == ("z", "t")
        peak = float(fg.values.max())
        assert peak == pytest.approx(INV_SQRT_PI, abs=1e-12)
        idx = np.unravel_index(np.argmax(fg.values), fg.values.shape)
        assert fg.points(0)[idx[0]] == pytest.approx(0.0, abs=1e-12)
        assert fg.points(1)[idx[1]] == pytest.approx(0.0, abs=1e-12)

    def test_even_state_parity(self):
        fg = render_grid(OscillatorState(n_z=2, eta=0.8), GridSpec(-3.0, 3.0, 0.25))
        np.testing.assert_array_equal(fg.values, fg.values[::-1, ::-1])

    def test_squeeze_ridge_lies_on_u_axis(self):
        # along a circle of radius 2, |psi| peaks where z = t
        state = OscillatorState(eta=1.0)
        theta = np.linspace(0.0, math.pi, 721)
        z = 2.0 * np.cos(theta)
        t = 2.0 * np.sin(theta)
        values = np.abs(psi_boosted(state, z, t))
        best = theta[np.argmax(values)]
        assert best == pytest.approx(math.pi / 4.0, abs=math.pi / 720.0)

    def test_momentum_representation(self):
        fg = render_grid(OscillatorState(eta=1.0), GridSpec(-2.0, 2.0, 0.5), "momentum")
        assert fg.axes == ("q_z", "q_0")
        assert float(fg.values.max()) == pytest.approx(INV_SQRT_PI, abs=1e-12)

    def test_momentum_grid_equals_spacetime_grid(self):
        # phi = (-i)^{n_z} psi at the same arguments, so the real amplitude
        # i^{n_z} phi on (q_z, q_0) is psi on (z, t) for every n_z
        spec = GridSpec(-3.0, 3.0, 0.25)
        for n_z in range(9):
            state = OscillatorState(n_z=n_z, eta=0.9)
            momentum = render_grid(state, spec, "momentum")
            spacetime = render_grid(state, spec, "spacetime")
            assert momentum.axes == ("q_z", "q_0")
            np.testing.assert_array_equal(momentum.values, spacetime.values)

    def test_unknown_representation(self):
        with pytest.raises(DomainError):
            render_grid(OscillatorState(), GridSpec(-2.0, 2.0, 0.5), "fourier")

    @pytest.mark.parametrize("n_z, eta, spec, representation", [
        (1, -1.9, GridSpec(-5.0, 5.0, 0.05), "spacetime"),
        (1, 0.0, GridSpec(-40.0, 40.0, 0.25), "spacetime"),
        (3, 1.9, GridSpec(-20.0, 20.0, 0.25), "spacetime"),
        (2, 1.3, GridSpec(-6.0, 6.0, 0.02), "momentum"),
        (0, 0.4, GridSpec(-3.0, 3.0, 0.1), "spacetime"),
    ])
    def test_blocks_equal_full_mesh(self, n_z, eta, spec, representation):
        # far corners hold -0.0 and subnormals, so compare the bits
        state = OscillatorState(n_z=n_z, eta=eta)
        pts = spec.points()
        want = psi_boosted(state, pts[:, None], pts[None, :])
        got = render_grid(state, spec, representation).values
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_peak_memory_per_cell(self):
        state, spec = OscillatorState(n_z=2, eta=0.7), GridSpec.symmetric(6.0, 601)
        render_grid(state, spec)
        tracemalloc.start()
        try:
            render_grid(state, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned field is 8 B per cell; psi is evaluated one row block at a time
        assert peak < 12 * spec.npoints**2

    def test_cell_budget_checked_before_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid evaluated")

        monkeypatch.setattr(analysis, "psi_boosted", refuse)
        assert analysis.MAX_GRID_CELLS == 1001**2
        for representation in ("spacetime", "momentum"):
            with pytest.raises(ConfigError, match="1002\\^2 = 1004004 cells"):
                render_grid(OscillatorState(), GridSpec(0.0, 1001.0, 1.0), representation)
            # the largest grid inside the budget goes on to evaluation
            with pytest.raises(AssertionError, match="grid evaluated"):
                render_grid(OscillatorState(), GridSpec(0.0, 1000.0, 1.0), representation)


class TestWidthDuality:
    def test_marginal_variance_equals_momentum_variance(self):
        # the trapezoid z-marginal variance against parton-scan's sigma_qz^2
        for eta in (0.0, 0.5, 1.0, 2.0):
            sigma = math.sqrt(0.5 * math.cosh(2 * eta))
            spec = GridSpec.symmetric(9.0 * sigma, 1201)
            fg = marginal(OscillatorState(eta=eta), "z", spec)
            spatial = np.trapezoid(fg.values * fg.points() ** 2, fg.points())
            assert spatial == pytest.approx(momentum_variance(eta), abs=1e-8 * math.cosh(2 * eta))

    def test_parton_limit_concentration(self):
        row = scan([5.0])[0]
        assert row["sigma_v"] / row["sigma_u"] < 1e-4
