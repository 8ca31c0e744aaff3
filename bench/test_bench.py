"""Tests of the benchmark itself: oracles, span arithmetic, generators.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from covosc import cli  # noqa: E402
from workloads import Request  # noqa: E402


def _run(request: Request, tmp_path: Path) -> str:
    path = tmp_path / f"out.{request.fmt}"
    assert cli.main([*request.argv, "-o", str(path)]) == 0
    return path.read_text()


def _overlap(fmt: str) -> Request:
    return Request("overlap", ("overlap", "--n-z", "1", "--etas=0,0.5,-1.25", "--format", fmt),
                   fmt, {"n_z": 1, "etas": [0.0, 0.5, -1.25]})


def _grid(fmt: str) -> Request:
    return Request("grid", ("grid", "--eta=0.7", "--n-z", "2", "--format", fmt), fmt,
                   {"eta": 0.7, "n_z": 2, "representation": "spacetime", "points": 61,
                    "bounds": None})


def _scale_column(text: str, column: str, fmt: str) -> str:
    """Scale every `column` value of an output text by 1 + 1e-4."""
    if fmt == "json":
        payload = json.loads(text)
        for row in payload["results"]:
            row[column] *= 1.0001
        return json.dumps(payload, indent=2) + "\n"
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    position = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines) - 1):
        cells = lines[i].split(",")
        cells[position] = repr(float(cells[position]) * 1.0001)
        lines[i] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("make, column", [(_overlap, "overlap"), (_grid, "psi")])
def test_oracle_flags_a_corrupted_value(tmp_path, make, column, fmt):
    request = make(fmt)
    text = _run(request, tmp_path)
    assert oracle.judge(request, 0, text).ok
    verdict = oracle.judge(request, 0, _scale_column(text, column, fmt))
    assert not verdict.ok and verdict.wrong


def test_oracle_flags_a_corrupted_header_and_a_failed_exit(tmp_path):
    request = _overlap("csv")
    text = _run(request, tmp_path)
    renamed = text.replace("eta_ref,eta,overlap", "eta_ref,eta,overlap_value")
    assert oracle.judge(request, 0, renamed).wrong
    assert oracle.judge(request, 0, text.replace("# covosc overlap", "# covosc boost")).wrong
    refused = oracle.judge(request, 2, None)
    assert not refused.ok and not refused.wrong


def test_oracle_flags_the_known_entropy_defect(tmp_path):
    good = Request("entropy-scan", ("entropy-scan", "--etas=0.8", "--format", "csv"), "csv",
                   {"etas": [0.8]})
    bad = Request("entropy-scan", ("entropy-scan", "--etas=3.0", "--format", "csv"), "csv",
                  {"etas": [3.0]})
    assert oracle.judge(good, 0, _run(good, tmp_path)).ok
    assert oracle.judge(bad, 0, _run(bad, tmp_path)).wrong


def _tracer_with_times(times):
    return tracing.Tracer(clock=iter(times).__next__)


def test_self_times_subtract_nested_children():
    spans = [
        tracing.Span("bench.loop", 0.0, 10.0, None, None),
        tracing.Span("cli.main", 1.0, 4.0, 0, 0),
        tracing.Span("analysis.overlap", 2.0, 3.0, 1, 0),
        tracing.Span("cli.main", 5.0, 9.0, 0, 1),
        tracing.Span("oscillator.psi_boosted", 5.0, 6.0, 3, 1),
        tracing.Span("oscillator.psi_boosted", 6.5, 8.5, 3, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_times_count_overlapping_children_once():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, None, None),
        tracing.Span("analysis.a", 1.0, 5.0, 0, None),
        tracing.Span("analysis.b", 3.0, 7.0, 0, None),
        tracing.Span("analysis.c", 9.0, 12.0, 0, None),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_on_a_synthetic_trace():
    tracer = _tracer_with_times([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 12.0])
    with tracer.span("bench.loop"):                              # 0 .. 12
        with tracer.span("cli.main") as request:                 # 1 .. 10
            with tracer.span("rest_of_universe.reduce") as red:  # 2 .. 8
                with tracer.span("oscillator.psi_boosted") as psi:  # 3 .. 7
                    with tracer.span("oscillator.psi_boosted_lightcone"):  # 4 .. 6
                        pass
            request.attrs = {"rc": 0, "bytes": 100}
            red.attrs = {"n": 4, "K": 2}
            psi.attrs = {"values": 80}
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.requests"] == 1 and metrics["cli.bytes_out"] == 100
    assert metrics["cli.self_s"] == 3.0
    assert metrics["rest_of_universe.reduce_self_s"] == 2.0
    assert metrics["oscillator.calls"] == 1 and metrics["oscillator.self_s"] == 4.0
    assert metrics["rest_of_universe.useful_eval_ratio"] == 4 * 5 * 2 / 80
    assert metrics["bench.loop_s"] == 3.0 and metrics["trace.wall_s"] == 12.0
    assert metrics["hermite.rule_reuse_ratio"] == 1.0


def test_instrument_wraps_every_lookup_name_and_undo_restores(tmp_path):
    modules = sys.modules
    original = modules["covosc.oscillator"].psi_boosted
    original_h = modules["covosc.hermite"].hermite_function
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        assert modules["covosc.rest_of_universe"].psi_boosted is not original
        assert modules["covosc.oscillator"].hermite_function is not original_h
        request = Request("entropy-scan", ("entropy-scan", "--etas=0.5", "--min=-3",
                                           "--max=3", "--step=0.1", "--format", "csv"),
                          "csv", {"etas": [0.5]})
        _run(request, tmp_path)
    finally:
        undo()
    assert modules["covosc.rest_of_universe"].psi_boosted is original
    assert modules["covosc.oscillator"].psi_boosted is original
    assert modules["covosc.oscillator"].hermite_function is original_h
    names = {span.name for span in tracer.spans}
    assert {"rest_of_universe.reduce", "oscillator.psi_boosted", "hermite.hermite_function",
            "hermite.gauss_hermite", "rest_of_universe.entropy",
            "rest_of_universe.eigenvalues"} <= names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["rest_of_universe.reduce_calls"] == 1
    assert metrics["rest_of_universe.useful_eval_ratio"] == pytest.approx(62 / 122)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    def argvs(seed):
        return [r.argv for r in workloads.requests(workload, seed)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_composition_does_not_depend_on_the_seed(workload):
    def shape(seed):
        return sorted((r.command, r.fmt if r.command == "grid" else "", r.stress,
                       r.params.get("points"), len(r.params.get("etas", ())))
                      for r in workloads.requests(workload, seed))

    assert shape(1) == shape(2) == shape(3)
