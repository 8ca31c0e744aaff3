"""Closed-form oracles for every covosc command the benchmark sends.

The references are the identities of Kim & Noz (arXiv:1112.0363): the frame
overlap (1/cosh delta_eta)^(n_z + 1), the widths cosh(2 eta)/2, the
geometric spectrum (1 - tanh^2 eta) tanh^(2k) eta with its entropy and
purity 1/cosh(2 eta), and the squeezed Hermite-Gaussian wave functions
themselves. Tolerances are those of tests/test_acceptance.py; where that
suite compares an O(1) value absolutely, the overlap is compared relatively,
because its closed form spans a hundred orders of magnitude.

`judge` never imports covosc: the oracles are independent of the code
under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from numpy.polynomial import hermite as hermite_poly

COLUMNS = {
    "boost": ["eta", "beta", "cosh_eta", "sinh_eta", "exp_eta", "exp_neg_eta"],
    "overlap": ["eta_ref", "eta", "overlap"],
    "verify": ["n_z", "eta", "lambda", "rayleigh_quotient", "max_residual", "norm"],
    "parton-scan": ["eta", "sigma_u", "sigma_v", "sigma_z", "sigma_qz", "aspect",
                    "time_dilation"],
    "entropy-scan": ["eta", "entropy", "purity", "lambda_0", "lambda_1", "trace"],
}

ENTROPY_TOL = 1e-3
PURITY_TOL = 1e-4
LAMBDA0_TOL = 1e-4
OVERLAP_RTOL = 1e-6
RESIDUAL_MAX = 1e-3
NORM_TOL = 1e-8
WIDTH_RTOL = 1e-8
MARGINAL_TOL = 1e-3
FIELD_RTOL, FIELD_ATOL = 1e-9, 1e-13
EXACT_RTOL = 1e-12
GRID_SAMPLES = 64

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


class OutputError(Exception):
    """The output text disagrees with the oracle; the message says where."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool  # exited 0 with a value or header outside tolerance
    values: int  # numeric values emitted: rows x numeric columns
    reason: str = ""


def columns_for(request) -> list[str]:
    if request.command == "grid":
        if request.params["representation"] == "momentum":
            return ["q_z", "q_0", "phi"]
        return ["z", "t", "psi"]
    if request.command == "marginal":
        return [request.params["axis"], "density"]
    return COLUMNS[request.command]


class _CsvRows:
    """Data lines of a CSV output, parsed to floats only when indexed."""

    def __init__(self, lines: list[str], width: int):
        self._lines = lines
        self._width = width

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index: int) -> list[float]:
        line = self._lines[index]
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise OutputError(f"non-numeric row {line!r}") from None
        if len(row) != self._width:
            raise OutputError(f"row {line!r} has {len(row)} cells, expected {self._width}")
        return row


def parse(text: str, request):
    """Check the header of one output text and return its data rows.

    CSV: a `# covosc <command>` line, any further `#` lines, the column
    header, then one row per line. JSON: {"config": {"command": ...},
    "results": [{column: value}, ...]}. Extra `#` lines and extra top-level
    JSON keys are allowed, so diagnostics sections can be added later.
    """
    columns = columns_for(request)
    if request.fmt == "json":
        try:
            payload = json.loads(text)
            command = payload["config"]["command"]
            results = payload["results"]
        except (ValueError, KeyError, TypeError) as exc:
            raise OutputError(f"unreadable JSON output: {exc!r}") from None
        if command != request.command:
            raise OutputError(f"config names command {command!r}")
        rows = []
        for item in results:
            if not isinstance(item, dict) or list(item) != columns:
                raise OutputError(f"result keys {item!r} differ from {columns}")
            if not all(isinstance(v, (int, float)) for v in item.values()):
                raise OutputError(f"non-numeric result {item!r}")
            rows.append([float(v) for v in item.values()])
        return rows
    lines = text.split("\n")
    if lines[0] != f"# covosc {request.command}" or lines[-1] != "":
        raise OutputError(f"bad CSV framing: first line {lines[0]!r}")
    body = [line for line in lines[1:-1] if not line.startswith("#")]
    if not body or body[0].split(",") != columns:
        raise OutputError(f"CSV header {body[:1]} differs from {columns}")
    return _CsvRows(body[1:], len(columns))


def _close(got: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - expected) <= rtol * abs(expected) + atol


def _expect(name: str, got: float, expected: float, rtol: float, atol: float = 0.0) -> None:
    if not _close(got, expected, rtol, atol):
        raise OutputError(f"{name} = {got!r}, closed form {expected!r}")


def _expect_rows(rows, count: int) -> None:
    if len(rows) != count:
        raise OutputError(f"{len(rows)} rows, expected {count}")


def field_value(params: dict, first: float, second: float) -> float:
    """psi(z, t) or phi(q_z, q_0) of a boosted state, from the closed form.

    n_z > 0 multiplies the Gaussian by H_n(z_rest) / sqrt(2^n n!), with H_n
    from numpy's Hermite series rather than the package's recurrence.
    """
    eta, n = params["eta"], params["n_z"]
    if params["representation"] == "momentum":
        q_z, q_0 = first, second
        return _INV_SQRT_PI * math.exp(
            -(math.exp(-2 * eta) * (q_0 + q_z) ** 2 + math.exp(2 * eta) * (q_0 - q_z) ** 2) / 4)
    z, t = first, second
    gauss = _INV_SQRT_PI * math.exp(
        -(math.exp(-2 * eta) * (z + t) ** 2 + math.exp(2 * eta) * (z - t) ** 2) / 4)
    if n == 0:
        return gauss
    a = math.exp(-eta) * (z + t) / math.sqrt(2)
    b = math.exp(eta) * (z - t) / math.sqrt(2)
    z_rest = (a + b) / math.sqrt(2)
    h = float(hermite_poly.hermval(z_rest, [0.0] * n + [1.0]))
    return h / math.sqrt(2.0 ** n * math.factorial(n)) * gauss


def _check_grid(request, rows) -> None:
    params = request.params
    n = params["points"]
    _expect_rows(rows, n * n)
    lo, hi = rows[0][0], rows[len(rows) - 1][0]
    span_tol = 1e-9 * max(1.0, abs(hi))
    if params["bounds"] is not None:
        _expect("grid min", lo, params["bounds"][0], 0.0, span_tol)
        _expect("grid max", hi, params["bounds"][1], 0.0, span_tol)
    elif not _close(lo, -hi, 0.0, span_tol):
        raise OutputError(f"default grid spans [{lo}, {hi}], not symmetric")
    rng = random.Random(" ".join(request.argv))
    picks = {0, n * n - 1, *rng.sample(range(n * n), min(GRID_SAMPLES, n * n))}
    for index in sorted(picks):
        first, second, value = rows[index]
        i, j = divmod(index, n)
        _expect(f"row {index} first axis", first, lo + (hi - lo) * i / (n - 1), 0.0, span_tol)
        _expect(f"row {index} second axis", second, lo + (hi - lo) * j / (n - 1), 0.0, span_tol)
        _expect(f"field at ({first}, {second})", value,
                field_value(params, first, second), FIELD_RTOL, FIELD_ATOL)


def _check_eta(got: float, expected: float) -> None:
    _expect("eta", got, expected, EXACT_RTOL, 1e-15)


def _check_entropy_scan(request, rows) -> None:
    etas = request.params["etas"]
    _expect_rows(rows, len(etas))
    for (eta_out, entropy, purity, lambda_0, _, _), eta in zip(rows, etas):
        _check_eta(eta_out, eta)
        c2, s2 = math.cosh(eta) ** 2, math.sinh(eta) ** 2
        exact = c2 * math.log(c2) - (s2 * math.log(s2) if s2 > 0.0 else 0.0)
        _expect(f"entropy at eta={eta}", entropy, exact, 0.0, ENTROPY_TOL)
        _expect(f"purity at eta={eta}", purity, 1.0 / math.cosh(2 * eta), 0.0, PURITY_TOL)
        _expect(f"lambda_0 at eta={eta}", lambda_0, 1.0 / c2, 0.0, LAMBDA0_TOL)


def _check_overlap(request, rows) -> None:
    n_z, etas = request.params["n_z"], request.params["etas"]
    _expect_rows(rows, len(etas))
    for (eta_ref, eta_out, value), eta in zip(rows, etas):
        _check_eta(eta_ref, etas[0])
        _check_eta(eta_out, eta)
        exact = (1.0 / math.cosh(eta - etas[0])) ** (n_z + 1)
        _expect(f"overlap {etas[0]} -> {eta}", value, exact, OVERLAP_RTOL)


def _check_parton_scan(request, rows) -> None:
    etas = request.params["etas"]
    _expect_rows(rows, len(etas))
    for row, eta in zip(rows, etas):
        eta_out, sigma_u, sigma_v, sigma_z, sigma_qz, aspect, dilation = row
        _check_eta(eta_out, eta)
        width2 = 0.5 * math.cosh(2 * eta)
        _expect("sigma_z^2", sigma_z ** 2, width2, WIDTH_RTOL)
        _expect("sigma_qz^2", sigma_qz ** 2, width2, WIDTH_RTOL)
        _expect("sigma_u", sigma_u, math.exp(eta) / math.sqrt(2), WIDTH_RTOL)
        _expect("sigma_v", sigma_v, math.exp(-eta) / math.sqrt(2), WIDTH_RTOL)
        _expect("aspect", aspect, math.exp(2 * eta), WIDTH_RTOL)
        _expect("time_dilation", dilation, math.exp(eta), WIDTH_RTOL)


def _check_verify(request, rows) -> None:
    _expect_rows(rows, 1)
    n_z, eta, lam, rayleigh, residual, norm = rows[0]
    expected_n = request.params["n_z"]
    _expect("n_z", n_z, expected_n, 0.0)
    _check_eta(eta, request.params["eta"])
    _expect("lambda", lam, expected_n, 0.0)
    _expect("rayleigh_quotient", rayleigh, expected_n, 0.0, RESIDUAL_MAX)
    if not 0.0 <= residual < RESIDUAL_MAX:
        raise OutputError(f"max_residual = {residual!r}, needs < {RESIDUAL_MAX}")
    _expect("norm", norm, 1.0, 0.0, NORM_TOL)


def _check_marginal(request, rows) -> None:
    if len(rows) < 2:
        raise OutputError(f"{len(rows)} marginal rows")
    points = [rows[i] for i in range(len(rows))]
    total = sum((b[0] - a[0]) * (a[1] + b[1]) / 2 for a, b in zip(points, points[1:]))
    _expect("integral of the density", total, 1.0, 0.0, MARGINAL_TOL)


def _check_boost(request, rows) -> None:
    etas = request.params["etas"]
    _expect_rows(rows, len(etas))
    for row, eta in zip(rows, etas):
        exact = [eta, math.tanh(eta), math.cosh(eta), math.sinh(eta), math.exp(eta),
                 math.exp(-eta)]
        for name, got, expected in zip(COLUMNS["boost"], row, exact):
            _expect(name, got, expected, EXACT_RTOL, 1e-300)


_CHECKS = {
    "grid": _check_grid,
    "entropy-scan": _check_entropy_scan,
    "overlap": _check_overlap,
    "parton-scan": _check_parton_scan,
    "verify": _check_verify,
    "marginal": _check_marginal,
    "boost": _check_boost,
}


def judge(request, exit_code, text: str | None) -> Verdict:
    """Score one request from its exit code and output text."""
    if exit_code != 0:
        return Verdict(False, False, 0, f"exit {exit_code}")
    values = 0
    try:
        rows = parse(text or "", request)
        values = len(rows) * len(columns_for(request))
        _CHECKS[request.command](request, rows)
    except OutputError as exc:
        return Verdict(False, True, values, str(exc))
    return Verdict(True, False, values)
