import math

import numpy as np
import pytest

from covosc import (
    CapabilityError,
    GridSpec,
    NumericIntegrityError,
    OscillatorState,
    ReducedDensity,
    entropy,
    gauss_hermite,
    marginal,
    psi_boosted,
    purity,
    reduce,
    thermal_row,
)

LN2 = math.log(2.0)


def default_grid(eta, points=400, spread=5.0):
    sigma_z = math.sqrt(0.5 * math.cosh(2.0 * eta))
    return GridSpec.symmetric(spread * sigma_z, points)


def geometric_spectrum(eta, count):
    """Oracle: eigenvalue k of the reduced ground state is (1 - T) T^k, T = tanh^2 eta."""
    T = math.tanh(eta) ** 2
    return np.array([(1.0 - T) * T**k for k in range(count)])


def entropy_series(eta, tail=1e-18):
    """Oracle: entropy of the geometric spectrum, summed to convergence."""
    T = math.tanh(eta) ** 2
    if T == 0.0:
        return 0.0
    total = 0.0
    k = 0
    lam = 1.0 - T
    while lam > tail:
        total -= lam * math.log(lam)
        k += 1
        lam = (1.0 - T) * T**k
    return total


def kernel_closed_form(eta, z, zp):
    """Oracle: the t-integral of psi(z, t) psi(z', t) done analytically.

    Completing the square in t gives a single Gaussian integral:
    rho(z, z') = sqrt(1/(pi cosh 2eta)) *
        exp(-cosh(2 eta)(z^2 + z'^2)/2 + sinh(2 eta)^2 (z + z')^2 / (4 cosh 2 eta)).
    """
    c2 = math.cosh(2.0 * eta)
    s2 = math.sinh(2.0 * eta)
    pref = math.sqrt(1.0 / (math.pi * c2))
    expo = -0.5 * c2 * (z**2 + zp**2) + (s2**2) * (z + zp) ** 2 / (4.0 * c2)
    return pref * np.exp(expo)


def kernel_paper_form(eta, z, zp):
    """Oracle: the paper's rho(z, z') = exp(-(z+z')^2/(4C) - C(z-z')^2/4) / sqrt(pi C)."""
    c2 = math.cosh(2.0 * eta)
    return np.exp(-(z + zp) ** 2 / (4.0 * c2) - c2 * (z - zp) ** 2 / 4.0) / math.sqrt(math.pi * c2)


def kernel_by_rows(eta, z, t_order):
    """Oracle: rho(z_i, z_j) row by row, from psi_boosted on shifted Gauss-Hermite nodes.

    Each row integrates psi(z_i, t) psi(z_j, t) over t on the nodes
    t = (z_i + z_j)/2 * tanh(2 eta) + x_k / sqrt(cosh 2 eta), without using
    the factorized form of the integrand.
    """
    state = OscillatorState(eta=eta)
    rule = gauss_hermite(t_order)
    x, w = rule.nodes, rule.exp_weights
    scale = 1.0 / math.sqrt(math.cosh(2.0 * eta))
    shift = math.tanh(2.0 * eta)
    kernel = np.empty((z.size, z.size))
    for i in range(z.size):
        t = (0.5 * shift * (z[i] + z))[:, None] + scale * x[None, :]
        kernel[i] = scale * np.sum(
            w * psi_boosted(state, z[i], t) * psi_boosted(state, z[:, None], t), axis=1)
    return kernel


class TestReduce:
    @pytest.mark.parametrize("t_order", [1, 8, 64])
    @pytest.mark.parametrize("eta", [-1.3, 0.0, 0.7, 2.0])
    def test_kernel_matches_row_quadrature_and_paper_form(self, eta, t_order):
        rho = reduce(eta, default_grid(eta, points=60), t_order)
        z = rho.grid.points()
        # entries far off the diagonal underflow, so the tolerance is relative
        # to the largest entry as well as to each entry
        for want in (kernel_by_rows(eta, z, t_order),
                     kernel_paper_form(eta, z[:, None], z[None, :])):
            np.testing.assert_allclose(rho.kernel, want, rtol=1e-13, atol=1e-13 * want.max())

    def test_kernel_matches_analytic_integral(self):
        for eta in (0.0, 1.0):
            rho = reduce(eta, default_grid(eta, points=80), 64)
            z = rho.grid.points()
            want = kernel_closed_form(eta, z[:, None], z[None, :])
            np.testing.assert_allclose(rho.kernel, want, rtol=0.0, atol=1e-12)

    def test_rest_frame_is_rank_one(self):
        rho = reduce(0.0, default_grid(0.0), 64)
        lam = rho.eigenvalues()
        assert lam[0] == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.abs(lam[1:]) < 1e-6)

    def test_diagonal_nonnegative(self):
        for eta in (0.0, 0.7, 2.0):
            rho = reduce(eta, default_grid(eta), 64)
            assert np.all(rho.diagonal_density() >= 0.0)

    def test_trace_preserved(self):
        for eta in (0.0, 1.0, 2.0, 3.0):
            rho = reduce(eta, default_grid(eta), 64)
            assert abs(rho.trace - 1.0) < 1e-6

    def test_matrix_symmetric_and_psd(self):
        rho = reduce(1.0, default_grid(1.0), 64)
        np.testing.assert_array_equal(rho.matrix, rho.matrix.T)
        assert float(np.linalg.eigvalsh(rho.matrix)[0]) > -1e-8

    def test_geometric_spectrum(self):
        rho = reduce(1.0, default_grid(1.0), 64)
        lam = rho.eigenvalues()
        want = geometric_spectrum(1.0, 6)
        np.testing.assert_allclose(lam[:6], want, rtol=0.0, atol=2e-6)
        assert lam[0] == pytest.approx(0.41997434161402614, abs=2e-6)
        ratios = lam[1:6] / lam[:5]
        np.testing.assert_allclose(ratios, math.tanh(1.0) ** 2, atol=1e-3)

    def test_diagonal_matches_z_marginal(self):
        eta = 1.0
        grid = default_grid(eta)
        rho = reduce(eta, grid, 64)
        fg = marginal(OscillatorState(eta=eta), "z", grid)
        np.testing.assert_allclose(rho.diagonal_density(), fg.values, rtol=0.0, atol=1e-8)

    def test_narrow_grid_records_warning(self):
        rho = reduce(1.0, GridSpec(-2.0, 2.0, 0.05), 64)
        assert rho.warnings
        assert "sigma_z" in rho.warnings[0]
        wide = reduce(1.0, default_grid(1.0), 64)
        assert not wide.warnings

    def test_t_order_cap(self):
        with pytest.raises(CapabilityError):
            reduce(1.0, default_grid(1.0), 257)


class TestSpectrum:
    def test_one_eigensolve_per_density(self, monkeypatch):
        calls = []
        solve = np.linalg.eigvalsh

        def counting(matrix):
            calls.append(matrix.shape)
            return solve(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rho = reduce(1.0, default_grid(1.0, points=80), 64)
        first = entropy(rho)
        rho.eigenvalues()
        assert entropy(rho) == first
        rho.eigenvalues()
        assert len(calls) == 1
        entropy(reduce(0.5, default_grid(0.5, points=80), 64))
        assert len(calls) == 2

    def test_eigenvalues_is_a_writable_copy(self):
        rho = reduce(1.0, default_grid(1.0, points=80), 64)
        before = entropy(rho)
        lam = rho.eigenvalues()
        assert lam.flags.writeable
        assert np.all(np.diff(lam) <= 0.0)
        lam[:] = 0.5
        assert rho.eigenvalues()[0] != 0.5
        assert entropy(rho) == before


class TestEntropy:
    def test_pure_state(self):
        assert entropy(reduce(0.0, default_grid(0.0), 64)) < 1e-6

    def test_matches_series_oracle(self):
        got = entropy(reduce(1.0, default_grid(1.0), 64))
        series = entropy_series(1.0)
        analytic = (math.cosh(1.0) ** 2 * math.log(math.cosh(1.0) ** 2)
                    - math.sinh(1.0) ** 2 * math.log(math.sinh(1.0) ** 2))
        assert series == pytest.approx(analytic, abs=1e-12)
        assert got == pytest.approx(series, abs=1e-3)
        assert got == pytest.approx(1.6200, abs=1e-3)

    def test_monotone_and_even_in_eta(self):
        values = {
            eta: entropy(reduce(eta, default_grid(eta), 64)) for eta in (0.5, 1.0, 2.0)
        }
        assert values[0.5] < values[1.0] < values[2.0]
        mirrored = entropy(reduce(-1.0, default_grid(1.0), 64))
        assert mirrored == pytest.approx(values[1.0], abs=1e-10)

    def test_negative_spectrum_rejected(self):
        grid = GridSpec(0.0, 1.0, 1.0)
        bad = ReducedDensity(
            grid=grid,
            eta=0.0,
            kernel=np.diag([1.0, -1e-4]),
            weights=np.ones(2),
            matrix=np.diag([1.0, -1e-4]),
        )
        with pytest.raises(NumericIntegrityError):
            entropy(bad)


class TestPurity:
    def test_pure_state(self):
        # +-6 sigma keeps grid-truncation loss below the 1e-6 tolerance
        grid = default_grid(0.0, spread=6.0)
        assert purity(reduce(0.0, grid, 64)) == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_at_ln2(self):
        got = purity(reduce(LN2, default_grid(LN2), 64))
        assert got == pytest.approx(1.0 / math.cosh(2.0 * LN2), abs=1e-4)
        assert got == pytest.approx(0.470588235294118, abs=1e-4)

    def test_series_oracle(self):
        # purity = sum of squared geometric eigenvalues = 1/cosh(2 eta)
        for eta in (0.5, 1.0):
            lam = geometric_spectrum(eta, 400)
            series = float(np.sum(lam**2))
            assert series == pytest.approx(1.0 / math.cosh(2 * eta), abs=1e-12)
            got = purity(reduce(eta, default_grid(eta, spread=6.0), 64))
            assert got == pytest.approx(series, abs=1e-6)

    def test_purity_entropy_consistency_at_rest(self):
        rho = reduce(0.0, default_grid(0.0), 64)
        assert purity(rho) * math.exp(entropy(rho)) == pytest.approx(1.0, abs=1e-5)

    def test_purity_entropy_tripwire_for_mixed_states(self):
        # Renyi-2 entropy never exceeds the von Neumann entropy, so
        # purity * e^S >= 1; a broken discretization shows up here
        for eta in (0.5, 1.0, 2.0):
            rho = reduce(eta, default_grid(eta), 64)
            assert purity(rho) * math.exp(entropy(rho)) >= 1.0 - 1e-9


class TestReducedDensityValidation:
    def test_asymmetric_matrix_rejected(self):
        grid = GridSpec(0.0, 1.0, 1.0)
        with pytest.raises(NumericIntegrityError):
            ReducedDensity(
                grid=grid,
                eta=0.0,
                kernel=np.eye(2),
                weights=np.ones(2),
                matrix=np.array([[1.0, 0.5], [0.0, 1.0]]),
            )

    def test_shape_mismatch_rejected(self):
        grid = GridSpec(0.0, 1.0, 0.5)
        with pytest.raises(NumericIntegrityError):
            ReducedDensity(
                grid=grid,
                eta=0.0,
                kernel=np.eye(2),
                weights=np.ones(2),
                matrix=np.eye(2),
            )


class TestThermalRow:
    @pytest.mark.parametrize("eta", [-2.0, -0.6, 0.0, LN2, 1.0, 1.5, 2.0])
    def test_matches_grid_spectrum(self, eta):
        # the +-6 sigma_z, 400-point grid resolves the spectrum up to |eta| ~ 2,
        # so it checks the closed forms at the acceptance tolerances there
        rho = reduce(eta, default_grid(eta, spread=6.0), 64)
        got_eta, got_entropy, got_purity, lambda_0, lambda_1, trace = thermal_row(eta)
        lam = rho.eigenvalues()
        assert got_eta == eta
        assert got_entropy == pytest.approx(entropy(rho), abs=1e-3)
        assert got_purity == pytest.approx(purity(rho), abs=1e-4)
        assert lambda_0 == pytest.approx(lam[0], abs=1e-4)
        assert lambda_1 == pytest.approx(lam[1], abs=1e-4)
        assert trace == 1.0

    @pytest.mark.parametrize("eta", [-3.0, -0.4, 0.0, 0.7, 1.0, 2.0, 2.5, 3.0])
    def test_matches_summed_spectrum(self, eta):
        _, got_entropy, got_purity, lambda_0, lambda_1, _ = thermal_row(eta)
        assert got_entropy == pytest.approx(entropy_series(abs(eta)), rel=1e-12, abs=1e-12)
        lam = geometric_spectrum(eta, 2)
        assert lambda_0 == pytest.approx(lam[0], rel=1e-12)
        assert lambda_1 == pytest.approx(lam[1], rel=1e-12, abs=1e-300)
        assert got_purity == pytest.approx(1.0 / math.cosh(2.0 * eta), rel=1e-12)

    def test_finite_and_even_over_the_domain(self):
        for eta in (1e-300, 1e-160, 1e-8, 0.5, 20.0, 50.0):
            row, mirrored = thermal_row(eta), thermal_row(-eta)
            assert all(math.isfinite(v) for v in row)
            assert mirrored == (-eta,) + row[1:]
        # the thermal entropy approaches 2 eta + 1 - 2 ln 2 for large eta
        assert thermal_row(50.0)[1] == pytest.approx(101.0 - 2.0 * LN2, rel=1e-14)
        assert thermal_row(0.0)[1:] == (0.0, 1.0, 1.0, 0.0, 1.0)
