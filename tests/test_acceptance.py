"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import io
import json
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

from covosc import (
    GridSpec,
    OscillatorState,
    cli,
    entropy,
    norm,
    overlap,
    pde_residual,
    psi_boosted,
    purity,
    reduce,
)
from scalar_kinematics import SpacetimePoint, boost_point, squeeze_lightcone, to_lightcone

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_squeeze_correctness():
    with criterion(1, "boost/lightcone conjugacy and invariant interval, 1000 random points"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            z, t = rng.uniform(-5.0, 5.0, size=2)
            eta = rng.uniform(-5.0, 5.0)
            p = SpacetimePoint(z, t)
            lc = to_lightcone(p)
            squeezed = squeeze_lightcone(lc, eta)
            via_boost = to_lightcone(boost_point(p, eta))
            # relative to the transformed point's magnitude
            scale = max(1.0, abs(squeezed.u), abs(squeezed.v))
            assert abs(via_boost.u - squeezed.u) <= 1e-12 * scale
            assert abs(via_boost.v - squeezed.v) <= 1e-12 * scale
            # interval in product form never cancels: strict relative bound
            before = 2.0 * lc.u * lc.v
            after = 2.0 * squeezed.u * squeezed.v
            assert abs(after - before) <= 1e-12 * max(abs(before), 1e-300)
            # direct z'^2 - t'^2 cancels at large eta; bound by point magnitude
            bp = boost_point(p, eta)
            direct = bp.z**2 - bp.t**2
            assert abs(direct - (z * z - t * t)) <= 1e-12 * max(1.0, bp.z**2 + bp.t**2)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_pde_residual():
    with criterion(2, "oscillator-equation residual: lambda = n_z, residual < 1e-3"):
        started = time.perf_counter()
        grid = GridSpec(-6.0, 6.0, 0.01)
        for n_z in (0, 1, 2, 3):
            for eta in (0.0, 0.5, 1.0, 2.0):
                report = pde_residual(OscillatorState(n_z=n_z, eta=eta), grid)
                assert report.eigenvalue == float(n_z), (n_z, eta)
                assert report.max_rel_residual < 1e-3, (n_z, eta, report)
                assert abs(report.rayleigh_quotient - n_z) < 1e-3, (n_z, eta, report)
        assert time.perf_counter() - started < 10.0


def test_criterion_3_normalization_under_boost():
    with criterion(3, "norm stays 1 under boost for 16 states, 1e-8"):
        started = time.perf_counter()
        for n_z in (0, 1, 2, 3):
            for eta in (0.0, 0.5, 1.0, 2.0):
                value = norm(OscillatorState(n_z=n_z, eta=eta), 64)
                assert abs(value - 1.0) < 1e-8, (n_z, eta, value)
        assert time.perf_counter() - started < 5.0


def test_criterion_4_frame_overlap():
    with criterion(4, "overlap(ground(eta), ground(0)) = 1/cosh(eta), 1e-6"):
        started = time.perf_counter()
        rest = OscillatorState()
        for eta in (0.0, 0.25, LN2, 1.0, 2.0, 3.0):
            value = overlap(OscillatorState(eta=eta), rest, 64)
            assert abs(value - 1.0 / math.cosh(eta)) < 1e-6, (eta, value)
        assert abs(overlap(OscillatorState(eta=LN2), rest, 64) - 0.8) < 1e-6
        assert time.perf_counter() - started < 2.0


def test_criterion_5_parton_widths():
    with criterion(5, "parton widths: aspect e^{2 eta}, sigma_z = sigma_qz, growing product"):
        started = time.perf_counter()
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["parton-scan", "--etas", "0,1,2,4", "--format", "json"]) == 0
        rows = json.loads(out.getvalue())["results"]
        for row in rows:
            e = row["eta"]
            assert abs(row["sigma_u"] / row["sigma_v"] - math.exp(2 * e)) <= 1e-9 * math.exp(2 * e)
            assert abs(row["aspect"] - math.exp(2 * e)) <= 1e-9 * math.exp(2 * e)
            assert abs(row["sigma_z"]**2 - 0.5 * math.cosh(2 * e)) < 1e-8
            assert abs(row["sigma_qz"]**2 - 0.5 * math.cosh(2 * e)) < 1e-8
        products = [r["sigma_z"] * r["sigma_qz"] for r in rows]
        assert all(a < b for a, b in zip(products, products[1:]))
        assert time.perf_counter() - started < 2.0


def test_criterion_7_rest_of_universe():
    with criterion(7, "reduced density: entropy, purity, geometric spectrum"):
        started = time.perf_counter()

        def grid_for(eta):
            sigma_z = math.sqrt(0.5 * math.cosh(2.0 * eta))
            return GridSpec.symmetric(5.0 * sigma_z, 400)

        assert entropy(reduce(0.0, grid_for(0.0), 64)) < 1e-6

        # independent oracle: geometric eigenvalue series summed to 1e-14
        T = math.tanh(1.0) ** 2
        series = 0.0
        k = 0
        lam = 1.0 - T
        while lam > 1e-14:
            series -= lam * math.log(lam)
            k += 1
            lam = (1.0 - T) * T**k
        got = entropy(reduce(1.0, grid_for(1.0), 64))
        assert abs(got - series) < 1e-3
        assert abs(got - 1.6200) < 1e-3

        got_purity = purity(reduce(LN2, grid_for(LN2), 64))
        assert abs(got_purity - 0.470588) < 1e-4

        spectrum = reduce(1.0, grid_for(1.0), 64).eigenvalues()
        assert abs(spectrum[1] / spectrum[0] - T) < 1e-3
        assert time.perf_counter() - started < 15.0


def test_criterion_8_position_momentum_duality():
    with criterion(8, "psi and phi agree as functions of light-cone arguments, 1e-13"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a_u, a_v = rng.uniform(-3.0, 3.0, size=2)
            eta = rng.uniform(-2.0, 2.0)
            state = OscillatorState(eta=eta)
            z = (a_u + a_v) / SQRT2
            t = (a_u - a_v) / SQRT2
            q_0 = (a_u + a_v) / SQRT2
            q_z = (a_u - a_v) / SQRT2
            psi_val = psi_boosted(state, z, t)
            # closed-form momentum-energy ground state of the light-cone
            # components q_u = (q_0 + q_z)/sqrt(2), q_v = (q_0 - q_z)/sqrt(2)
            q_u, q_v = (q_0 + q_z) / SQRT2, (q_0 - q_z) / SQRT2
            phi_val = math.exp(-0.5 * (math.exp(-2.0 * eta) * q_u**2
                                       + math.exp(2.0 * eta) * q_v**2)) / math.sqrt(math.pi)
            assert abs(psi_val - phi_val) <= 1e-13


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI reruns byte-identical; JSON and CSV payloads agree"):
        args = ["parton-scan", "--etas", "0,0.5,1,2,4"]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli.main(args + ["--output", str(first)]) == 0
        assert cli.main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        json_path = tmp_path / "scan.json"
        assert cli.main(args + ["--format", "json", "--output", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        columns = None
        csv_rows = []
        for line in first.read_text().splitlines():
            if line.startswith("#"):
                continue
            if columns is None:
                columns = line.split(",")
                continue
            csv_rows.append([float(v) for v in line.split(",")])
        assert columns == ["eta", "sigma_u", "sigma_v", "sigma_z", "sigma_qz",
                           "aspect", "time_dilation"]
        assert len(csv_rows) == len(payload["results"]) == 5
        for json_row, csv_row in zip(payload["results"], csv_rows):
            for key, value in zip(columns, csv_row):
                assert json_row[key] == value
