import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covosc import (ETA_MAX, ConfigError, NumericIntegrityError, OscillatorState, analysis,
                    cli, closed_forms, rest_of_universe)
from test_closed_forms import assert_close_or_tiny, overlap_reference, thermal_reference
from wrong_boosts import squeeze_both_axes

# the requests of tests/test_golden.py with their exit status and output digest
GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())

LN2 = math.log(2.0)
TINY = 2.2250738585072014e-308  # smallest normal double


def quantize_cell(value):
    """Oracle: the per-cell rounding the CLI applied before it rendered columns."""
    if isinstance(value, (bool, int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(f"{float(value):.15g}")
        if not math.isfinite(f):
            raise NumericIntegrityError(f"non-finite value {value!r} in results")
        return f
    return value


def text_cell(value) -> str:
    """Oracle: the per-cell CSV text the CLI wrote before it rendered columns."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(text_cell(v) for v in value)
    return str(value)


def render_json_oracle(config, results) -> str:
    """Oracle: the JSON file the CLI wrote through json.dumps before it used text cells."""
    payload = {"config": config, "results": results}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def step_ulps(x: float, n: int) -> float:
    """x moved by n units in the last place."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-TINY, max_value=TINY),
    st.floats(min_value=1e15, max_value=1e16, exclude_max=True),
    st.floats(min_value=-1e16, max_value=-1e15, exclude_min=True),
    # near-integers, whose 15-digit text is integral
    st.builds(step_ulps, st.integers(-10**6, 10**6).map(float), st.integers(-4, 4)),
    # normal and subnormal values from 1e-300 down to the smallest subnormal
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** -exponent,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0, exclude_max=True),
              st.integers(300, 323)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 9999999999999998.0,
                     0.9999999999999999, 2.9999999999999996]),
)


def golden_output(argv, tmp_path):
    """Output bytes of a golden request, checked against its recorded digest."""
    (entry,) = [e for e in GOLDEN if e["argv"] == argv]
    code, out = run_cli(argv, tmp_path, "golden.out")
    assert code == entry["exit"] == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (entry["sha256"], entry["bytes"])
    return data


def run_cli(args, tmp_path=None, name=None):
    """Invoke the CLI in-process; returns (exit_code, output_path)."""
    out = None
    if tmp_path is not None:
        out = tmp_path / (name or "out.dat")
        args = list(args) + ["--output", str(out)]
    code = cli.main(list(args))
    return code, out


def assert_matches_reference(row, eta=None):
    """A written entropy-scan row against the mpmath reference of thermal_row."""
    want = thermal_reference(row["eta"] if eta is None else eta)
    for got, value in zip(row.values(), want, strict=True):
        assert_close_or_tiny(got, value, 1e-12)


def parse_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


class TestPartonScanCommand:
    def test_csv_layout(self, tmp_path):
        code, out = run_cli(
            ["parton-scan", "--etas", "0,0.5,1,2,4", "--format", "csv"],
            tmp_path, "scan.csv")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["eta", "sigma_u", "sigma_v", "sigma_z", "sigma_qz",
                          "aspect", "time_dilation"]
        assert len(rows) == 5
        assert any("command = parton-scan" in c for c in comments)
        assert not any("order" in c for c in comments)

    def test_values_match_library(self, tmp_path):
        code, out = run_cli(["parton-scan", "--etas", "0,1"], tmp_path, "scan.csv")
        assert code == 0
        _, _, rows = parse_csv(out)
        for row, eta in zip(rows, (0.0, 1.0)):
            widths = closed_forms.ground_widths(eta)
            assert row[1:5] == pytest.approx(
                [widths["u"], widths["v"], widths["z"], widths["z"]], rel=1e-14, abs=0.0)
            assert row[5] == pytest.approx(math.exp(2.0 * eta), rel=1e-14)
            assert row[6] == pytest.approx(math.exp(eta), rel=1e-14)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["parton-scan", "--etas", "0,0.5,1,2,4", "--format", "json"]
        code1, out1 = run_cli(args, tmp_path, "a.json")
        code2, out2 = run_cli(args, tmp_path, "b.json")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_and_csv_agree(self, tmp_path):
        etas = "0,0.5,1"
        _, csv_path = run_cli(["parton-scan", "--etas", etas], tmp_path, "scan.csv")
        _, json_path = run_cli(
            ["parton-scan", "--etas", etas, "--format", "json"], tmp_path, "scan.json")
        _, header, rows = parse_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert [r["eta"] for r in payload["results"]] == [r[0] for r in rows]
        for json_row, csv_row in zip(payload["results"], rows):
            for key, value in zip(header, csv_row):
                assert json_row[key] == value  # bit-for-bit

    def test_json_embeds_config(self, tmp_path):
        _, out = run_cli(
            ["parton-scan", "--etas", "0,1", "--format", "json"], tmp_path, "scan.json")
        payload = json.loads(out.read_text())
        assert payload["config"]["command"] == "parton-scan"
        assert payload["config"]["etas"] == [0.0, 1.0]
        assert "order" not in payload["config"]

    def test_missing_etas_fails(self, tmp_path, capsys):
        code, _ = run_cli(["parton-scan"], tmp_path, "scan.csv")
        assert code == 1
        assert "etas" in capsys.readouterr().err


def overlap_column(n_z, etas):
    """The overlap column of one in-process CLI request, as written."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["overlap", "--n-z", str(n_z), "--etas=" + ",".join(map(repr, etas))])
    assert code == 0
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    assert lines[0] == "eta_ref,eta,overlap"
    return [line.rsplit(",", 1)[1] for line in lines[1:]]


RAPIDITY = st.floats(-ETA_MAX, ETA_MAX)
# anywhere in the domain, where most overlaps underflow, or within a few units
# of the reference frame, where they are normal doubles
RAPIDITY_LISTS = st.one_of(
    st.lists(RAPIDITY, min_size=1, max_size=4),
    st.builds(lambda ref, offsets: [ref] + [min(max(ref + d, -ETA_MAX), ETA_MAX) for d in offsets],
              RAPIDITY, st.lists(st.floats(-4.0, 4.0), max_size=3)),
)


class TestOverlapCommand:
    @given(st.integers(0, 64), RAPIDITY_LISTS)
    @settings(max_examples=200, deadline=None)
    def test_closed_form_over_the_domain(self, n_z, etas):
        ref = OscillatorState(n_z, etas[0])
        for got, eta in zip(overlap_column(n_z, etas), etas):
            want = overlap_reference(ref, OscillatorState(n_z, eta))
            assert_close_or_tiny(float(got), want, 1e-13)

    @given(st.integers(0, 64), RAPIDITY_LISTS, st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_depends_only_on_rapidity_differences(self, n_z, etas, where):
        lo, hi = -ETA_MAX - min(etas), ETA_MAX - max(etas)
        delta = lo + where * (hi - lo)
        shifted = [min(max(e + delta, -ETA_MAX), ETA_MAX) for e in etas]
        for a, b in zip(overlap_column(n_z, etas), overlap_column(n_z, shifted)):
            assert_close_or_tiny(float(b), float(a), 1e-11)

    @pytest.mark.parametrize("n_z, etas", [
        # the quadrature printed 2.57e-25 and 0.0 here, 1.08e-18 at n_z = 20 and
        # -4.1e-18 at n_z = 64: its absolute floor is near 1e-18
        (2, [0.0, 20.0, 50.0]),
        (20, [0.0, 3.0]),
        (20, [-40.0, -37.0]),
        (20, [47.0, 50.0]),
        (64, [0.0, 1.5]),
        (64, [-25.0, -23.5]),
    ])
    def test_far_below_the_quadrature_floor(self, n_z, etas):
        for got, eta in zip(overlap_column(n_z, etas), etas):
            want = overlap_reference(OscillatorState(n_z, etas[0]), OscillatorState(n_z, eta))
            assert float(got) > 0.0
            assert float(got) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_written_digits(self):
        assert overlap_column(2, [0.0, 20.0, 50.0]) == [
            "1.0", "7.00520861015722e-26", "5.74007677853153e-65"]


# the commands that read --order before it was deleted, with what each needs
# besides the state
QUADRATURE_REQUESTS = {
    "marginal": ["--axis", "t", "--eta=0.4"],
    "overlap": ["--etas=0,0.5,-1"],
    "verify": ["--eta=-0.3"],
    "parton-scan": ["--etas=0,0.5,2"],
}


def exact_rule_table():
    """CLI requests with the one rule order each must build, None for no rule."""
    for command, n_zs in (("marginal", (0, 3)), ("overlap", (0, 2, 64)),
                          ("verify", (0, 3, 16, 64))):
        for n_z in n_zs:
            argv = [command, "--n-z", str(n_z), *QUADRATURE_REQUESTS[command]]
            yield pytest.param(argv, None if command == "overlap" else n_z + 1,
                               id=" ".join(argv))
    argv = ["parton-scan", *QUADRATURE_REQUESTS["parton-scan"]]
    yield pytest.param(argv, None, id=" ".join(argv))


class TestExactRule:
    @pytest.mark.parametrize("command", QUADRATURE_REQUESTS)
    def test_order_flag_exits_1(self, command, tmp_path, capsys):
        code, out = run_cli([command, *QUADRATURE_REQUESTS[command], "--order", "64"], tmp_path)
        assert code == 1
        assert not out.exists()
        assert "unrecognized arguments: --order 64" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, order", exact_rule_table())
    def test_requests_build_only_the_exact_rule(self, argv, order, tmp_path, monkeypatch):
        # n_z + 1 nodes are exact for the degree-2 n_z products; 64 nodes were
        # one short at n_z = 64. overlap and parton-scan are closed forms: no
        # rule, no wave function
        built = []
        build = analysis.gauss_hermite

        def record(order):
            built.append(order)
            return build(order)

        def refuse(*args):
            raise AssertionError("psi evaluated")

        monkeypatch.setattr(analysis, "gauss_hermite", record)
        if order is None:
            monkeypatch.setattr(analysis, "psi_boosted_lightcone", refuse)
            monkeypatch.setattr(analysis, "psi_boosted", refuse)
        code, _ = run_cli(argv, tmp_path)
        assert code == 0
        if order is None:
            assert built == []
        else:
            assert built and set(built) == {order}


class TestVerifyCommand:
    def test_json_report(self, tmp_path):
        code, out = run_cli(
            ["verify", "--n-z", "0", "--eta", "1.0", "--format", "json"],
            tmp_path, "verify.json")
        assert code == 0
        payload = json.loads(out.read_text())
        (row,) = payload["results"]
        assert row["lambda"] == 0.0
        assert row["max_residual"] < 1e-3
        assert abs(row["norm"] - 1.0) < 1e-8
        assert abs(row["rayleigh_quotient"]) < 1e-3

    def test_excited_level(self, tmp_path):
        code, out = run_cli(
            ["verify", "--n-z", "2", "--eta", "0.5", "--format", "json"],
            tmp_path, "verify.json")
        assert code == 0
        (row,) = json.loads(out.read_text())["results"]
        assert row["lambda"] == 2.0
        assert row["max_residual"] < 1e-3

    @given(st.integers(0, 64), st.floats(min_value=-ETA_MAX, max_value=ETA_MAX))
    @settings(max_examples=150, deadline=None)
    def test_default_grid_over_the_domain(self, n_z, eta):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--n-z", str(n_z), f"--eta={eta!r}", "--format", "json"])
        assert code == 0
        (row,) = json.loads(out.getvalue())["results"]
        assert row["lambda"] == n_z
        assert abs(row["rayleigh_quotient"] - n_z) < 1e-6
        assert row["max_residual"] < 1e-6
        assert abs(row["norm"] - 1.0) < 1e-8

    def test_fine_grid(self, tmp_path):
        # 9429^2 cells: the residual's cost grows with the points per axis
        code, out = run_cli(["verify", "--step=0.0006", "--format", "json"], tmp_path, "v.json")
        assert code == 0
        (row,) = json.loads(out.read_text())["results"]
        assert row["lambda"] == 0.0
        assert row["max_residual"] < 1e-3

    @pytest.mark.parametrize("eta", ["0.7", "-2.5"])
    def test_wrong_boost_exits_2(self, eta, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "psi_boosted_lightcone", squeeze_both_axes)
        code, out = run_cli(["verify", "--n-z", "3", f"--eta={eta}"], tmp_path, "v.csv")
        assert code == 2
        assert not out.exists()
        assert "deviates from 1 by more than 1e-8" in capsys.readouterr().err

    def test_residual_above_the_bound_exits_2(self, tmp_path, monkeypatch, capsys):
        # the stencil's own error at n_z = 3 reads 1.1e-2 at a step of 0.2
        # and 7.3e-4 at 0.1
        argv = ["verify", "--n-z", "3", "--eta=0.7"]
        monkeypatch.setattr(analysis, "FD_STEP", 0.2)
        code, out = run_cli(argv, tmp_path, "v.csv")
        assert code == 2
        assert not out.exists()
        assert "exceeds the bound 1e-3" in capsys.readouterr().err
        monkeypatch.setattr(analysis, "FD_STEP", 0.1)
        code, out = run_cli(argv, tmp_path, "v.csv")
        assert code == 0
        assert 1e-4 < float(out.read_text().splitlines()[-1].split(",")[4]) < 1e-3

    def test_fd_step_flag_exits_1(self, tmp_path, capsys):
        # the step is analysis.FD_STEP, as the quadrature order is the exact one
        code, out = run_cli(["verify", "--fd-step", "0.01"], tmp_path)
        assert code == 1
        assert not out.exists()
        assert "unrecognized arguments: --fd-step 0.01" in capsys.readouterr().err


class TestMarginalCommand:
    @pytest.mark.parametrize("axis", analysis.MARGINAL_AXES)
    def test_default_grid_integrates_to_one(self, axis):
        # far from rest the z and t integrands are a light-cone coordinate
        # narrower than the rounding of z or t themselves
        for n_z, eta in itertools.product(range(4), (0.0, 0.7, 20.0, -20.0, 50.0, -50.0)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["marginal", "--axis", axis, "--n-z", str(n_z), f"--eta={eta}"])
            assert code == 0
            rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
            x, density = np.loadtxt(rows[1:], delimiter=",", unpack=True)
            assert np.trapezoid(density, x) == pytest.approx(1.0, rel=0.0, abs=1e-3), (n_z, eta)


class TestGridCommand:
    def test_row_count_and_peak(self, tmp_path):
        code, out = run_cli(
            ["grid", "--n-z", "0", "--eta", "0", "--min", "-3", "--max", "3",
             "--step", "0.1"],
            tmp_path, "grid.csv")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["z", "t", "psi"]
        assert len(rows) == 61 * 61 == 3721
        peak = max(r[2] for r in rows)
        best = max(rows, key=lambda r: r[2])
        assert peak == pytest.approx(0.564190, abs=1e-6)
        assert best[0] == pytest.approx(0.0, abs=1e-12)
        assert best[1] == pytest.approx(0.0, abs=1e-12)

    def test_momentum_representation(self, tmp_path):
        code, out = run_cli(
            ["grid", "--eta", "1", "--representation", "momentum", "--min", "-2",
             "--max", "2", "--step", "0.5"],
            tmp_path, "grid.csv")
        assert code == 0
        _, header, _ = parse_csv(out)
        assert header == ["q_z", "q_0", "phi"]


class TestOtherCommands:
    def test_boost_values(self, tmp_path):
        code, out = run_cli(["boost", "--etas", "0," + str(LN2)], tmp_path, "boost.csv")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["eta", "beta", "cosh_eta", "sinh_eta", "exp_eta", "exp_neg_eta"]
        assert rows[0][1] == 0.0
        assert rows[1][1] == pytest.approx(0.6, abs=1e-15)
        assert rows[1][2] == pytest.approx(1.25, abs=1e-15)
        assert rows[1][3] == pytest.approx(0.75, abs=1e-15)

    def test_overlap_reference_frame(self, tmp_path):
        code, out = run_cli(
            ["overlap", "--etas", "0,%.17g,1" % LN2], tmp_path, "ov.csv")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["eta_ref", "eta", "overlap"]
        assert rows[0][2] == pytest.approx(1.0, abs=1e-10)
        assert rows[1][2] == pytest.approx(0.8, abs=1e-6)
        assert rows[2][2] == pytest.approx(1.0 / math.cosh(1.0), abs=1e-6)

    def test_marginal_density(self, tmp_path):
        code, out = run_cli(
            ["marginal", "--axis", "z", "--eta", "0", "--min", "-4", "--max", "4",
             "--step", "0.1"],
            tmp_path, "marg.csv")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["z", "density"]
        mid = min(rows, key=lambda r: abs(r[0]))
        assert mid[1] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-10)

    def test_entropy_scan(self, tmp_path):
        code, out = run_cli(
            ["entropy-scan", "--etas", "0,1", "--format", "json"], tmp_path, "ent.json")
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert results[0]["entropy"] < 1e-6
        assert results[0]["purity"] == pytest.approx(1.0, abs=1e-6)
        assert results[1]["entropy"] == pytest.approx(1.6198, abs=1e-3)
        assert results[1]["purity"] == pytest.approx(1.0 / math.cosh(2.0), abs=1e-4)
        ratio = results[1]["lambda_1"] / results[1]["lambda_0"]
        assert ratio == pytest.approx(math.tanh(1.0) ** 2, abs=1e-3)
        assert abs(results[1]["trace"] - 1.0) < 1e-6

    def test_entropy_scan_removed_flags_exit_1(self, tmp_path, capsys):
        # the exact spectrum needs no grid or t-rule, so their flags are gone
        # rather than accepted and ignored
        for flag in ("--min=-3", "--max=3", "--step=0.1", "--order=64"):
            code, _ = run_cli(["entropy-scan", "--etas", "1", flag], tmp_path)
            assert code == 1, flag
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_entropy_scan_exact_at_large_rapidity(self, tmp_path):
        # a fixed 400-point grid read 4.923 at both eta = 4 and eta = 6
        code, out = run_cli(["entropy-scan", "--etas=2.5,4,6,-6", "--format", "json"],
                            tmp_path, "ent.json")
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert [row["eta"] for row in results] == [2.5, 4.0, 6.0, -6.0]
        for row in results:
            assert_matches_reference(row)
        assert results[1]["entropy"] == 7.61370567639183
        mirrored = dict(results[3], eta=6.0)
        assert mirrored == results[2]

    @given(st.lists(st.floats(min_value=-ETA_MAX, max_value=ETA_MAX), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_entropy_scan_closed_forms_over_the_domain(self, etas):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["entropy-scan", "--etas=" + ",".join(map(repr, etas)),
                             "--format", "json"])
        assert code == 0
        results = json.loads(out.getvalue())["results"]
        assert [row["eta"] for row in results] == [float(f"{e:.15g}") for e in etas]
        for row, eta in zip(results, etas):
            assert_matches_reference(row, eta)

    def test_entropy_scan_past_the_cap_exits_1(self, tmp_path, capsys):
        code, _ = run_cli(["entropy-scan", "--etas=50.5"], tmp_path)
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_entropy_scan_builds_no_grid(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("entropy-scan must not discretize rho(z, z')")

        monkeypatch.setattr(rest_of_universe, "reduce", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        code, _ = run_cli(["entropy-scan", "--etas", "0,1,4"], tmp_path)
        assert code == 0


class TestConfigFile:
    def test_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("etas = 0,1\nformat = json\nn_z = 3\n")
        code, out = run_cli(["overlap", "--config", str(cfg)], tmp_path, "ov.out")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["n_z"] == 3
        assert payload["config"]["etas"] == [0.0, 1.0]

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("etas = 0,1\nn_z = 3\n")
        code, out = run_cli(
            ["overlap", "--config", str(cfg), "--n-z", "4", "--format", "json"],
            tmp_path, "ov.out")
        assert code == 0
        assert json.loads(out.read_text())["config"]["n_z"] == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("wavelength = 7\n")
        code, _ = run_cli(["parton-scan", "--config", str(cfg)], tmp_path, "scan.out")
        assert code == 1
        assert "wavelength" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("etas 0,1\n")
        code, _ = run_cli(["parton-scan", "--config", str(cfg)], tmp_path, "scan.out")
        assert code == 1
        assert "key = value" in capsys.readouterr().err


# the keys each command reads besides format and output
READS = {
    "boost": {"eta", "etas"},
    "grid": {"eta", "n_z", "min", "max", "step", "representation"},
    "marginal": {"eta", "n_z", "min", "max", "step", "axis"},
    "overlap": {"etas", "n_z"},
    "verify": {"eta", "n_z", "min", "max", "step"},
    "parton-scan": {"etas"},
    "entropy-scan": {"etas"},
}
# one valid value per key: its config text, its CSV echo and its JSON echo;
# n_x, n_y, order and fd_step are no command's keys any more, so every command
# refuses them: each request integrates on its exact rule, and verify
# differentiates with analysis.FD_STEP
VALUES = {
    "eta": ("0.5", "0.5", 0.5),
    "etas": ("0, 0.5", "0.0,0.5", [0.0, 0.5]),
    "n_z": ("1", "1", 1),
    "n_x": ("1", "1", 1),
    "n_y": ("2", "2", 2),
    "min": ("-2", "-2.0", -2.0),
    "max": ("2", "2.0", 2.0),
    "step": ("0.5", "0.5", 0.5),
    "order": ("64", "64", 64),
    "fd_step": ("0.02", "0.02", 0.02),
    "axis": ("u", "u", "u"),
    "representation": ("momentum", "momentum", "momentum"),
}
# what a command needs besides the key under test
BASE = {command: ({"etas": "0,0.5"} if command in ("overlap", "parton-scan", "entropy-scan")
                  else {}) for command in READS}
PAIRS = [(command, key) for command in READS for key in VALUES]
# two values per (command, key) whose results differ outside the echo, on top
# of BASE: every key a command reads must reach what it computes
LIVE = {
    ("boost", "eta"): ("0.5", "1.5"),
    ("boost", "etas"): ("0,0.5", "0,1.5"),
    ("grid", "eta"): ("0.5", "1.5"),
    ("grid", "n_z"): ("0", "1"),
    ("grid", "min"): ("-2", "-1"),
    ("grid", "max"): ("1", "2"),
    ("grid", "step"): ("0.5", "0.25"),
    ("grid", "representation"): ("spacetime", "momentum"),
    ("marginal", "eta"): ("0.5", "1.5"),
    ("marginal", "n_z"): ("0", "1"),
    ("marginal", "min"): ("-2", "-1"),
    ("marginal", "max"): ("1", "2"),
    ("marginal", "step"): ("0.5", "0.25"),
    ("marginal", "axis"): ("z", "u"),
    ("overlap", "etas"): ("0,0.5", "0,1.5"),
    ("overlap", "n_z"): ("0", "1"),
    ("verify", "eta"): ("0.5", "1.5"),
    ("verify", "n_z"): ("0", "1"),
    ("verify", "min"): ("-2", "-1"),
    ("verify", "max"): ("1", "2"),
    ("verify", "step"): ("0.05", "0.1"),
    ("parton-scan", "etas"): ("0,0.5", "0,1.5"),
    ("entropy-scan", "etas"): ("0.5", "1.5"),
}


class TestConfigSchema:
    @staticmethod
    def run_with_file(tmp_path, command, options):
        cfg = tmp_path / "run.conf"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        return run_cli([command, "--config", str(cfg)], tmp_path)

    def test_schema_lists_the_keys_each_command_reads(self):
        assert {name: set(spec.keys) for name, spec in cli._COMMANDS.items()} == READS

    @pytest.mark.parametrize("command,key", [p for p in PAIRS if p[1] in READS[p[0]]])
    def test_read_key_accepted_and_echoed(self, command, key, tmp_path):
        text, csv_echo, json_echo = VALUES[key]
        for fmt in ("csv", "json"):
            options = {**BASE[command], key: text, "format": fmt}
            code, out = self.run_with_file(tmp_path, command, options)
            assert code == 0, (command, key, fmt)
            if fmt == "csv":
                lines = out.read_text().splitlines()
                assert f"# {key} = {csv_echo}" in lines and "# format = csv" in lines
            else:
                config = json.loads(out.read_text())["config"]
                assert config[key] == json_echo
                assert list(config) == ["command", *[k for k in VALUES if k in READS[command]],
                                        "format"]

    @pytest.mark.parametrize("command,key", [p for p in PAIRS if p[1] not in READS[p[0]]])
    def test_unread_key_exits_1(self, command, key, tmp_path, capsys):
        code, out = self.run_with_file(tmp_path, command,
                                       {**BASE[command], key: VALUES[key][0]})
        assert code == 1
        assert not out.exists()
        assert f"{command} does not read config keys: {key}\n" in capsys.readouterr().err

    def test_live_table_lists_every_read_key(self):
        assert set(LIVE) == {(name, key) for name, spec in cli._COMMANDS.items()
                             for key in spec.keys}

    @pytest.mark.parametrize("command,key", LIVE)
    def test_every_read_key_changes_the_result(self, command, key, tmp_path):
        results = []
        for value in LIVE[command, key]:
            code, out = self.run_with_file(tmp_path, command, {**BASE[command], key: value})
            assert code == 0, (command, key, value)
            results.append([line for line in out.read_text().splitlines()
                            if not line.startswith("#")])
        assert results[0] != results[1]

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_exactly_the_schema_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli._build_parser().parse_args([command, "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        want = {"--" + key.replace("_", "-") for key in READS[command]}
        assert flags == want | {"--format", "--output", "--config", "--help"}

    def test_output_from_file(self, tmp_path):
        target = tmp_path / "from-file.csv"
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"output = {target}\n")
        assert cli.main(["boost", "--config", str(cfg)]) == 0
        assert target.read_text().startswith("# covosc boost")

    def test_run_config_defaults_and_refusals(self):
        cfg = cli.RunConfig("entropy-scan", etas=(1.0,))
        assert vars(cfg) == {"command": "entropy-scan", "etas": (1.0,),
                             "format": "csv", "output": None}
        with pytest.raises(ConfigError, match="order"):
            cli.RunConfig("entropy-scan", etas=(1.0,), order=3)
        with pytest.raises(ConfigError, match="axis must be one of"):
            cli.RunConfig("marginal", axis="w")
        with pytest.raises(ConfigError, match="unknown command"):
            cli.RunConfig("frobnicate")


class TestErrorPaths:
    def test_unknown_flag(self, capsys):
        assert cli.main(["parton-scan", "--etas", "1", "--bogus"]) == 1
        assert capsys.readouterr().err.strip()

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_degenerate_grid(self, tmp_path, capsys):
        code, _ = run_cli(
            ["grid", "--min", "3", "--max", "-3", "--step", "0.1"], tmp_path, "g.csv")
        assert code == 1
        assert "min < max" in capsys.readouterr().err

    def test_rapidity_cap(self, tmp_path, capsys):
        code, _ = run_cli(["boost", "--eta", "60"], tmp_path, "b.csv")
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        code = cli.main(["boost", "--eta", "1",
                         "--output", str(tmp_path / "missing" / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("covosc: error:")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_keeps_the_target(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "b.csv"
        target.write_bytes(b"earlier bytes\n")

        def refuse(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert cli.main(["boost", "--eta", "1", "-o", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("covosc: error: cannot rename")
        assert target.read_bytes() == b"earlier bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        argv = ["marginal", "--eta", "0.5", "--format", "json"]
        _, want = run_cli(argv, tmp_path, "whole.json")
        sizes = []
        write = os.write

        def at_most_7_bytes(fd, data):
            sizes.append(write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(cli.os, "write", at_most_7_bytes)
        code, got = run_cli(argv, tmp_path, "short.json")
        monkeypatch.undo()
        assert code == 0
        assert got.read_bytes() == want.read_bytes()
        assert len(sizes) == -(-len(want.read_bytes()) // 7)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short.json", "whole.json"]
        # the mode open() gives a new file: 0o666 less the umask
        reference = tmp_path / "reference"
        reference.write_text("")
        assert got.stat().st_mode == reference.stat().st_mode

    def test_numeric_integrity_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(closed_forms, "ground_widths",
                            lambda eta: {"z": 1.0, "t": 1.0, "u": float("nan"), "v": 1.0})
        code, _ = run_cli(["parton-scan", "--etas", "0"], tmp_path, "scan.csv")
        assert code == 2
        assert "numeric integrity" in capsys.readouterr().err

    def test_grid_over_the_cell_budget_exits_1(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("grid evaluated")

        monkeypatch.setattr(analysis, "psi_boosted", refuse)
        code, out = run_cli(["grid", "--min=0", "--max=1001", "--step=1"], tmp_path, "g.csv")
        assert code == 1
        assert not out.exists()
        assert "1004004 cells" in capsys.readouterr().err

    def test_largest_default_verify_grid_fits_the_budget(self, tmp_path, monkeypatch):
        lines = []
        evaluate = analysis.psi_boosted_lightcone

        def record(state, u, v):
            lines.append(np.broadcast(u, v).shape)
            return evaluate(state, u, v)

        monkeypatch.setattr(analysis, "psi_boosted_lightcone", record)
        code, out = run_cli(["verify", "--n-z", "64", "--format", "json"], tmp_path, "v.json")
        assert code == 0
        # the 2281^2 residual grid is read from five shifts of a line of
        # 2 * 2281 - 1 points and five of one of 2281, one call each, then the
        # norm from one 65-node rule per state
        assert lines == [(5, 4561), (5, 2281)] + [(65, 65)] * 2
        (row,) = json.loads(out.read_text())["results"]
        assert row["lambda"] == 64.0
        assert abs(row["norm"] - 1.0) < 1e-8

    def test_empty_rapidity_list_refused_by_every_scan(self):
        # an empty tuple is reachable from cli.run, not from flags
        for command in ("boost", "overlap", "parton-scan", "entropy-scan"):
            with pytest.raises(ConfigError, match=f"{command} requires --etas"):
                cli.run(cli.RunConfig(command, etas=()))

    def test_no_tmp_file_left_behind(self, tmp_path):
        _, out = run_cli(["boost", "--eta", "1"], tmp_path, "b.csv")
        leftovers = [p for p in tmp_path.iterdir() if p.name != "b.csv"]
        assert not leftovers

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, capsys):
        target = tmp_path / "somedir"
        target.mkdir()
        assert cli.main(["boost", "--eta=0.5", "-o", str(target)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["somedir"]
        assert not any(target.iterdir())

    @pytest.mark.parametrize("output", [".", ""])
    def test_output_without_a_file_name_exits_1(self, output, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["boost", "--eta=0.5", "-o", output]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("covosc: error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("etas", ["1,,2", "1,2,", ",1", " , "])
    def test_empty_rapidity_item_exits_1(self, etas, tmp_path, capsys):
        code, out = run_cli(["parton-scan", f"--etas={etas}"], tmp_path, "scan.csv")
        assert code == 1
        assert not out.exists()
        assert repr(etas) in capsys.readouterr().err
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"etas = {etas}\n")
        code, out = run_cli(["parton-scan", "--config", str(cfg)], tmp_path, "scan.csv")
        assert code == 1
        assert f"empty item in rapidity list {etas.strip()!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("etas", ["1,x", "1,,2"])
    def test_flag_and_config_give_the_same_reason(self, etas, tmp_path, capsys):
        with pytest.raises(ConfigError) as reason:
            cli._parse_etas(etas)
        assert cli.main(["parton-scan", f"--etas={etas}"]) == 1
        assert capsys.readouterr().err == f"covosc: error: argument --etas: {reason.value}\n"
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"etas = {etas}\n")
        assert cli.main(["parton-scan", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"covosc: error: bad config value for etas: {reason.value}\n")


class TestParserReuse:
    GOOD = ["overlap", "--n-z", "2", "--etas=0,0.5,-1,3", "--format", "json"]

    def test_many_requests_build_one_parser(self, tmp_path):
        cli._build_parser.cache_clear()
        for eta in ("0", "0.5", "1", "-2"):
            assert cli.main(["boost", f"--eta={eta}", "-o", str(tmp_path / "b.csv")]) == 0
            assert cli.main(["entropy-scan", f"--etas={eta}",
                             "-o", str(tmp_path / "e.csv")]) == 0
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser.cache_info().hits == 7

    def test_bad_flag_between_good_requests(self, tmp_path, capsys):
        golden_output(self.GOOD, tmp_path)
        capsys.readouterr()
        assert cli.main([*self.GOOD, "--bogus"]) == 1
        assert cli.main(["overlap", "--format", "xml"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "--bogus" in err[0] and "xml" in err[1]
        golden_output(self.GOOD, tmp_path)

    @pytest.mark.parametrize("command", READS)
    def test_help_is_the_same_text_every_time(self, command, capsys):
        texts = []
        for parse in (cli.main, cli.main, cli._build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exit_info:
                parse([command, "--help"])
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] and texts[0] == texts[1] == texts[2]


class TestStdout:
    def test_default_output_is_stdout(self, capsys):
        assert cli.main(["boost", "--eta", "0"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("# covosc boost")
        assert "eta,beta" in text


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*args):
        # the child imports the same covosc as this test, with or without PYTHONPATH set
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "covosc", *args],
                              capture_output=True, text=True, env=env)

    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = self.run_module("parton-scan", "--etas", "0,1", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_exit_code_propagates(self):
        proc = self.run_module("boost", "--eta", "99")
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("covosc: error:")


@contextlib.contextmanager
def through_byte_matrices():
    """Every table with a row is written from byte matrices, whatever its size."""
    with mock.patch.object(cli, "_MATRIX_ROWS", 1):
        yield


def csv_body(table) -> list[list[str]]:
    """The cells of table as the CSV renderer writes them, one list per row."""
    lines = cli._render_csv(cli.RunConfig("boost"), table).split("\n")
    header = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
    assert lines[header] == ",".join(table) and lines[-1] == ""
    return [line.split(",") for line in lines[header + 1:-1]]


class TestColumnRendering:
    @staticmethod
    def assert_matches_oracle(column, cells):
        # an indexed column is checked over all its values, used by a row or not
        checked = list(column.values) if isinstance(column, cli._Indexed) else cells
        try:
            [quantize_cell(v) for v in checked]
        except NumericIntegrityError:
            with pytest.raises(NumericIntegrityError):
                csv_body({"x": column})
            return
        texts = [t for (t,) in csv_body({"x": column})]
        assert texts == [text_cell(quantize_cell(v)) for v in cells]
        # json reads each text as the quantized value; repr tells -0.0 from 0.0
        assert [repr(json.loads(t)) for t in texts] == [repr(quantize_cell(v)) for v in cells]

    @given(st.lists(FLOATS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float_column_matches_per_cell_oracle(self, values):
        self.assert_matches_oracle(np.array(values), values)

    @given(st.lists(FLOATS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float_column_through_byte_matrices(self, values):
        with through_byte_matrices():
            self.assert_matches_oracle(np.array(values), values)

    @given(st.lists(FLOATS, min_size=1, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_indexed_column_matches_per_cell_oracle(self, values, data):
        index = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=40))
        column = cli._Indexed(np.array(values), np.array(index, dtype=np.intp))
        self.assert_matches_oracle(column, [values[i] for i in index])

    @given(st.lists(FLOATS, min_size=1, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_indexed_column_through_byte_matrices(self, values, data):
        index = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=40))
        column = cli._Indexed(np.array(values), np.array(index, dtype=np.intp))
        with through_byte_matrices():
            self.assert_matches_oracle(column, [values[i] for i in index])

    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_int_column_matches_per_cell_oracle(self, values):
        column = np.array(values, dtype=np.int64)
        self.assert_matches_oracle(column, list(column))

    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_int_column_through_byte_matrices(self, values):
        column = np.array(values, dtype=np.int64)
        with through_byte_matrices():
            self.assert_matches_oracle(column, list(column))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # the last two are finite, but their 15-digit text reads back as inf
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     1.7976931348623151e308, -1.7976931348623157e308])
    @pytest.mark.parametrize("where", ["z", "t", "psi"])
    def test_non_finite_in_any_column_exits_2(self, fmt, bad, where, monkeypatch, capsys):
        self.assert_non_finite_exits_2(fmt, bad, where, monkeypatch, capsys)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.7976931348623151e308])
    @pytest.mark.parametrize("where", ["z", "t", "psi"])
    def test_non_finite_through_byte_matrices_exits_2(self, fmt, bad, where, monkeypatch,
                                                       capsys):
        with through_byte_matrices():
            self.assert_non_finite_exits_2(fmt, bad, where, monkeypatch, capsys)

    @staticmethod
    def assert_non_finite_exits_2(fmt, bad, where, monkeypatch, capsys):
        axis = np.array([-1.0, 0.0, 1.0])
        table = {
            "z": cli._Indexed(axis.copy(), np.repeat(np.arange(3), 3)),
            "t": cli._Indexed(axis.copy(), np.tile(np.arange(3), 3)),
            "n": np.arange(9),
            "psi": np.linspace(0.0, 1.0, 9),
        }
        column = table[where].values if where != "psi" else table[where]
        column[1] = bad
        boost = cli._COMMANDS["boost"]._replace(run=lambda cfg: table)
        monkeypatch.setitem(cli._COMMANDS, "boost", boost)
        assert cli.main(["boost", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric integrity" in captured.err and where in captured.err

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_json_bytes_match_the_json_dumps_oracle(self, data):
        self.assert_json_matches_oracle(data)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_json_bytes_through_byte_matrices(self, data):
        with through_byte_matrices():
            self.assert_json_matches_oracle(data)

    @staticmethod
    def assert_json_matches_oracle(data):
        nrows = data.draw(st.integers(1, 50))
        names = data.draw(st.lists(st.sampled_from(["eta", "psi", "n_z", "q%sz", 'a"b', "\u03b7"]),
                                   min_size=1, max_size=4, unique=True))
        table, cells, checked = {}, {}, []
        for name in names:
            kind = data.draw(st.sampled_from(["float", "int", "indexed"]))
            if kind == "indexed":
                values = data.draw(st.lists(FLOATS, min_size=1, max_size=8))
                index = data.draw(st.lists(st.integers(0, len(values) - 1),
                                           min_size=nrows, max_size=nrows))
                table[name] = cli._Indexed(np.array(values), np.array(index, dtype=np.intp))
                cells[name] = [values[i] for i in index]
                checked += values
            else:
                elements = FLOATS if kind == "float" else st.integers(-2**63, 2**63 - 1)
                values = data.draw(st.lists(elements, min_size=nrows, max_size=nrows))
                table[name] = np.array(values, dtype=float if kind == "float" else np.int64)
                cells[name] = list(table[name])
                checked += cells[name]
        cfg = data.draw(st.sampled_from([
            cli.RunConfig("overlap", etas=(0.0, -0.5, 1e-300), n_z=2),
            cli.RunConfig("grid", eta=-1.9, min=-2.0, step=0.1, format="json"),
            cli.RunConfig("marginal", axis="v", format="json"),
        ]))
        try:
            [quantize_cell(v) for v in checked]
        except NumericIntegrityError:
            with pytest.raises(NumericIntegrityError):
                cli._render_json(cfg, table)
            return
        results = [{name: quantize_cell(cells[name][i]) for name in names}
                   for i in range(nrows)]
        want = render_json_oracle(cli._config_dict(cfg), results)
        assert cli._render_json(cfg, table) == want

    @pytest.mark.parametrize("argv", [e["argv"] for e in GOLDEN
                                      if e["exit"] == 0 and "json" in e["argv"]], ids=" ".join)
    def test_golden_json_redumps_through_the_oracle(self, argv, tmp_path):
        data = golden_output(argv, tmp_path)
        payload = json.loads(data)
        assert render_json_oracle(payload["config"], payload["results"]).encode() == data

    def test_seeded_doubles_over_every_exponent_match_the_oracle(self):
        # random bit patterns spread evenly over every binary exponent
        bits = np.random.default_rng(1015).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(float)
        values = values[np.abs(values) < 1e308]
        want = [text_cell(quantize_cell(v)) for v in values.tolist()]
        assert cli._text_cells("x", values) == want
        # the plain-Python path of list and tuple columns
        assert cli._text_cells("x", values.tolist()) == want
        assert cli._text_cells("x", tuple(values.tolist())) == want

    @pytest.mark.parametrize("column, want", [
        ([0, -3, 2**62], ["0", "-3", "4611686018427387904"]),
        ((7,), ["7"]),
        ([1, 2.5], ["1.0", "2.5"]),
        ((-0.0, 0.0, -5e-324, 1e15), ["-0.0", "0.0", "-5e-324", "1000000000000000.0"]),
        ([True, False], ["1.0", "0.0"]),
        ([True, 0.1], ["1.0", "0.1"]),
        (tuple(np.array([0.1, -2e-310, 1e16])), ["0.1", "-2e-310", "1e+16"]),
        ([], []),
    ], ids=repr)
    def test_python_sequences_match_the_array_path(self, column, want):
        assert cli._text_cells("x", column) == want
        assert cli._text_cells("x", np.array(column)) == want

    @pytest.mark.parametrize("bad, text", [(math.nan, "nan"), (-math.inf, "-inf"),
                                           (1.7976931348623151e308, "1.7976931348623151e+308")])
    @pytest.mark.parametrize("matrices", [False, True], ids=["cells", "matrices"])
    def test_non_finite_diagnostic_names_the_float(self, bad, text, matrices, monkeypatch, capsys):
        run = cli._per_rapidity("eta,psi", lambda eta: (eta, bad if eta > 0 else 1.0))
        monkeypatch.setitem(cli._COMMANDS, "boost", cli._COMMANDS["boost"]._replace(run=run))
        if matrices:
            monkeypatch.setattr(cli, "_MATRIX_ROWS", 1)
        assert cli.main(["boost", "--etas", "0,0.5"]) == 2
        reason = f"value {text} in psi is not finite at 15 significant digits"
        assert capsys.readouterr().err == f"covosc: numeric integrity: {reason}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["boost", "--eta", "0.7"],
        ["boost", "--etas", "0,-1.5,3"],
        ["overlap", "--etas", "0,0.5,-2", "--n-z", "2"],
        ["parton-scan", "--etas", "0,1,50"],
        ["entropy-scan", "--etas", "0,0.5,4"],
    ], ids=" ".join)
    def test_closed_form_requests_call_no_numpy(self, argv, fmt, tmp_path):
        class Unusable:
            def __getattr__(self, name):
                raise AssertionError(f"cli used numpy: {name}")

        argv = argv + ["--format", fmt]
        _, want = run_cli(argv, tmp_path, "with.out")
        with mock.patch.object(cli, "np", Unusable()), \
                mock.patch.object(cli, "_textmatrix", Unusable()):
            code, got = run_cli(argv, tmp_path, "without.out")
        assert code == 0
        assert got.read_bytes() == want.read_bytes()

    def test_million_doubles_through_byte_matrices_match_the_oracle(self):
        rng = np.random.default_rng(2027)
        # every binary exponent, subnormals included
        bits = rng.integers(0, 2**64, 340_000, dtype=np.uint64).view(float)
        bits = bits[np.isfinite(bits)]
        # 400 values in every decade from 1e-323 to 1e308
        decades = np.array([f"{m!r}e{k}" for k in range(-323, 309)
                            for m in rng.uniform(1.0, 10.0, 400).tolist()]).astype(float)
        # 16-digit integers ending in 5: exact ties at 15 digits
        ties = (rng.integers(10**14, 2**53 // 10, 50_000) * 10 + 5).astype(float)
        # the doubles nearest the half-way points between 15-digit decimals, and
        # one ulp either side
        halves = np.array([f"{m}5e{k}" for m, k in zip(
            rng.integers(10**14, 10**15, 100_000).tolist(),
            rng.integers(-320, 290, 100_000).tolist())]).astype(float)
        halves = np.concatenate([halves, np.nextafter(halves, -np.inf),
                                 np.nextafter(halves, np.inf)])
        # both sides of the positional layout's edges, e = -5/-4 and 15/16
        edges = np.array([1e-5, 1e-4, 1e15, 1e16])[:, None] * rng.uniform(0.9, 1.1, 10_000)
        edge_steps = np.array([step_ulps(x, n) for x in (1e-5, 1e-4, 1e15, 1e16,
                                                         9.999999999999995e-05, 9999999999999995.0)
                               for n in range(-8, 9)])
        subnormals = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(float)
        extremes = np.array([0.0, -0.0, 5e-324, 1.797693134862315e308, -1.797693134862315e308])
        values = np.concatenate([bits, decades, ties, halves, edges.ravel(), edge_steps,
                                 subnormals])
        values = np.concatenate([values * rng.choice([-1.0, 1.0], len(values)), extremes])
        values = values[np.abs(values) <= 1.797693134862315e308]
        assert len(values) >= 1_000_000

        texts = (np.concatenate([cli._text_matrix("x", values),
                                 np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
                 .ravel())
        texts = np.compress(texts != 0, texts).tobytes().decode().split("\n")[:-1]
        assert texts == [text_cell(quantize_cell(v)) for v in values.tolist()]

        # the values left to _text_cells are subnormals, beyond 1e280, or within
        # 1e-7 of a tie at 15 digits
        _, rest = cli._textmatrix.float_matrix(values)
        left = np.abs(values[rest])
        for x in left[(left >= TINY) & (left <= 1e280)].tolist():
            scaled = Fraction(x) * Fraction(10) ** (14 - math.floor(math.log10(x)))
            # log10 may round up to the next power of ten
            if scaled < 10**14:
                scaled *= 10
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 1e-7, x

    def test_grid_axes_are_formatted_once_per_point(self, monkeypatch):
        calls = []
        text_matrix = cli._text_matrix

        def counting(name, values):
            calls.append((name, len(values)))
            return text_matrix(name, values)

        monkeypatch.setattr(cli, "_text_matrix", counting)
        cli.run(cli.RunConfig("grid", min=-1.0, max=1.0, step=0.01))
        assert [c for c in calls if c[0] in ("z", "t")] == [("z", 201), ("t", 201)]
        # psi is formatted block by block, each of its values once
        psi = [n for name, n in calls if name == "psi"]
        assert sum(psi) == 201 * 201 and max(psi) <= cli._textmatrix.BLOCK

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_size_rule_selects_the_path(self, fmt, monkeypatch):
        def refuse(*args):
            raise AssertionError("wrong path")

        rows = cli._MATRIX_ROWS
        small = cli.RunConfig("marginal", min=0.0, max=rows - 2.0, step=1.0, format=fmt)
        large = cli.RunConfig("marginal", min=0.0, max=rows - 1.0, step=1.0, format=fmt)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_text_matrix", refuse)
            assert cli.run(small).count("\n") > rows - 1
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_cells", refuse)
            assert cli.run(large).count("\n") > rows


class TestRounding:
    def test_fifteen_significant_digits(self, tmp_path):
        _, out = run_cli(["boost", "--etas", "0.1", "--format", "json"],
                         tmp_path, "b.json")
        (row,) = json.loads(out.read_text())["results"]
        # beta = tanh(0.1) rendered at 15 significant digits
        assert row["beta"] == float("%.15g" % math.tanh(0.1))

    def test_largest_value_with_finite_text(self):
        assert cli._text_cells("x", [1.797693134862315e308, -1.797693134862315e308]) == [
            "1.79769313486231e+308", "-1.79769313486231e+308"]
        with pytest.raises(NumericIntegrityError, match="1.7976931348623151e"):
            cli._text_cells("x", [0.0, np.nextafter(1.797693134862315e308, math.inf)])

    def test_reparse_reproduces_values(self, tmp_path):
        args = ["marginal", "--axis", "u", "--eta", "1", "--min", "-4", "--max", "4",
                "--step", "0.5", "--format", "json"]
        _, first = run_cli(args, tmp_path, "m1.json")
        _, second = run_cli(args, tmp_path, "m2.json")
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a == b
