#!/usr/bin/env python3
"""covosc benchmark: seeded CLI workloads, closed-form oracles, per-layer trace.

Drives `covosc.cli.main(argv)` in this process as a closed loop with one
client: the next request starts when the previous one returns. A run sends
one seeded request list ROUNDS times. `--seconds` sets the length of the list
(at 30, a run takes 20-50 s on a 2-vCPU machine); the work does not depend on
the machine's speed, so both sides of a comparison measure the same work. Every request writes its output with `-o` into bench/.work;
bench/oracle.py checks the first answer and every later round must repeat it
byte for byte.

    python3 bench/run.py --workload check-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

--trace 0 reports the end-to-end metrics; --trace 1 sends one round
untraced and the same round traced, and reports the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads  # stdlib only: a setup probe must time covosc's own imports

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_RUNS = 3
# a request's latency is the best of its ROUNDS sends, one round apart: on
# shared virtual machines slow phases last seconds and slow a request by up
# to 1.8x, so single sends give a bimodal latency distribution whose median
# jumps between runs
ROUNDS = 3
REF_INTERVAL_S = 0.2  # time the reference work at most this often
REF_WINDOW = 5  # reference times in the running median
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency
REPEAT_DIFFERS = "bytes differ from the first answer"

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "values_per_ref": "1/ref",
    "ok_ratio": "ratio",
    "not_wrong_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SUFFIX_UNITS = {"per_s": "1/s", "_s": "s", "_ms": "ms", "bytes_out": "B",
                "bytes_computed": "B", "_ratio": "ratio", "_percentile": "%"}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def load_cli():
    """Import covosc.cli from this checkout's src/, and from nowhere else."""
    package = SRC / "covosc"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no covosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from covosc import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported covosc from {cli.__file__}, not from {package}")
    return cli


def warm_up(main, workload: str, out_dir: Path) -> None:
    for argv in workloads.WARMUP[workload]:
        rc = main([*argv, "-o", str(out_dir / "warmup.out")])
        if rc != 0:
            raise BenchError(f"warm-up request {argv} exited {rc}")


def measure_setup(workload: str) -> list[float]:
    """Fresh interpreters doing import + parser + first call of each command."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-probe",
                        "--workload", workload], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


class Reference:
    """Fixed work, independent of covosc, timed between requests.

    It mixes the kinds of work the CLI does (float formatting, building small
    lists, numpy elementwise arithmetic), so its time follows how fast the
    shared host runs at the moment. A request's latency over the running
    median of the last REF_WINDOW reference times (averaged with one timed
    right after it, for a long request) is its cost in `ref` units: slow
    phases of the host, which last from seconds to minutes, slow both alike
    and cancel in the ratio.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._floats = [0.123456789 * i for i in range(2000)]
        self._array = np.linspace(-4.0, 4.0, 400 * 64).reshape(400, 64)
        self.times: list[float] = []
        self._last = -math.inf

    def sample(self) -> float:
        """Time the reference work once now."""
        start = time.perf_counter()
        ",".join(repr(v) for v in self._floats)
        [[v, v, v] for v in self._floats]
        for _ in range(3):
            self._np.exp(-0.5 * self._array * self._array) * self._array
        self.times.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        return self.times[-1]

    def current(self) -> float:
        """Running median of the reference time, refreshed if REF_INTERVAL_S passed."""
        if time.perf_counter() - self._last >= REF_INTERVAL_S:
            self.sample()
        return statistics.median(self.times[-REF_WINDOW:])


@dataclass
class Outcome:
    index: int  # position of the request in the run's list
    latency: float
    ref: float  # reference time around the send (Reference); nan in a traced run
    ok: bool
    wrong: bool
    values: int
    stress: bool
    reason: str


def call(main, argv) -> int:
    try:
        return main(argv)
    except Exception:  # a crash is one failed request; keep the loop going
        traceback.print_exc()
        return -1


def send_round(main, requests, out_dir: Path, firsts: dict, tracer=None,
               reference=None) -> list[Outcome]:
    """Send every request once, in order. The first answer to a request is
    scored by the oracle and its digest kept in `firsts`; later answers must
    have the same bytes."""
    import oracle

    outcomes = []
    for index, request in enumerate(requests):
        path = out_dir / f"out-{index}.{request.fmt}"
        argv = [*request.argv, "-o", str(path)]
        ref = reference.current() if reference is not None else math.nan
        if tracer is None:
            start = time.perf_counter()
            rc = call(main, argv)
            latency = time.perf_counter() - start
        else:
            tracer.request = index
            with tracer.span("cli.main") as span:
                rc = call(main, argv)
            latency = span.end - span.start
        if reference is not None and latency >= REF_INTERVAL_S:
            # a long request may span a change of phase: average with a
            # reference timed right after it
            ref = 0.5 * (ref + reference.sample())
        data = path.read_bytes() if rc == 0 and path.exists() else None
        path.unlink(missing_ok=True)
        if tracer is not None:
            span.attrs = {"rc": rc, "bytes": len(data or b"")}
        digest = hashlib.sha256(data).digest() if data is not None else None
        if index in firsts and digest is not None and digest == firsts[index][0]:
            verdict = firsts[index][1]
        else:
            verdict = oracle.judge(request, rc, data.decode() if data is not None else None)
            if index in firsts and rc == 0:
                verdict = oracle.Verdict(False, verdict.wrong, verdict.values, REPEAT_DIFFERS)
            firsts.setdefault(index, (digest, verdict))
        outcomes.append(Outcome(index, latency, ref, verdict.ok, verdict.wrong,
                                verdict.values, request.stress, verdict.reason))
    return outcomes


def send_rounds(main, requests, out_dir: Path):
    firsts: dict = {}
    outcomes: list[Outcome] = []
    reference = Reference()
    start = time.perf_counter()
    for _ in range(ROUNDS):
        outcomes += send_round(main, requests, out_dir, firsts, reference=reference)
    return outcomes, time.perf_counter() - start, reference.times


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_threads():
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    library = ctypes.CDLL(umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        getter = getattr(library, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "python_threads": threading.active_count(),
        "COVOSC_THREADS": os.environ.get("COVOSC_THREADS"),
        "note": "timings are relative to this machine and its load; compare runs "
                "made on one machine with one benchmark version only",
    }


def best_per_request(outcomes, key) -> list[float]:
    best: dict[int, float] = {}
    for o in outcomes:
        best[o.index] = min(key(o), best.get(o.index, math.inf))
    return list(best.values())


def end_to_end(outcomes, setup, reference_times) -> tuple[dict, dict]:
    values = sum({o.index: o.values for o in outcomes}.values())
    costs = best_per_request(outcomes, lambda o: o.latency / o.ref)
    latencies = best_per_request(outcomes, lambda o: o.latency)
    n = len(outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ref": statistics.median(costs),
        "latency_tail_ref": tail(costs)[0],
        "values_per_ref": values / sum(costs),
        "ok_ratio": sum(o.ok for o in outcomes) / n,
        "not_wrong_ratio": 1.0 - sum(o.wrong for o in outcomes) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_s, percentile = tail(latencies)
    details = {
        "fail_ratio": 1.0 - metrics["ok_ratio"],
        "wrong_ratio": 1.0 - metrics["not_wrong_ratio"],
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "values_per_s": values / sum(latencies),
        "latency_tail_percentile": percentile,
        "latency_samples": len(latencies),
        "single_send_p50_ms": 1e3 * statistics.median(o.latency for o in outcomes),
        "reference_ms": 1e3 * statistics.median(reference_times),
        "setup_runs_s": setup,
    }
    return metrics, details


def traced(main, requests, workload, out_dir) -> tuple[list, dict, dict]:
    """One untraced round, then the same round traced."""
    import tracer as tracing

    firsts: dict = {}
    start = time.perf_counter()
    plain = send_round(main, requests, out_dir, firsts)
    plain_wall = time.perf_counter() - start
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        with tracer.span("bench.loop"):
            outcomes = send_round(main, requests, out_dir, firsts, tracer)
    finally:
        undo()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    tracer.dump(WORK / f"trace-{workload}.jsonl")
    layer_self = sum(metrics[k] for k in (
        "cli.self_s", "analysis.self_s", "rest_of_universe.reduce_self_s",
        "rest_of_universe.spectrum_s", "oscillator.self_s", "hermite.function_s",
        "hermite.rule_s", "kinematics.self_s", "bench.loop_s"))
    details = {"requests": len(requests), "untraced_wall_s": plain_wall,
               "spans": len(tracer.spans), "self_time_gap_s": metrics["trace.wall_s"] - layer_self}
    return plain + outcomes, metrics, details


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return next((u for suffix, u in SUFFIX_UNITS.items() if name.endswith(suffix)), "count")


def run_one(args) -> int:
    os.environ.pop("COVOSC_THREADS", None)
    out_dir = WORK / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args.workload)
        main = load_cli().main
        warm_up(main, args.workload, out_dir)
        requests = workloads.requests(args.workload, args.seed, args.seconds)
        if args.trace:
            outcomes, metrics, details = traced(main, requests, args.workload, out_dir)
        else:
            outcomes, wall, reference_times = send_rounds(main, requests, out_dir)
            metrics, details = end_to_end(outcomes, setup, reference_times)
            details.update(requests=len(requests), rounds=ROUNDS, wall_s=wall)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failures = [o for o in outcomes if not o.ok]
    result = {
        # the core share passes today; stress failures are scored, not fatal
        "correct": not any(not o.stress or o.reason == REPEAT_DIFFERS for o in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "details": details,
              "failures": sorted({o.reason for o in failures}), **result}
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, value in {**metrics, **details}.items():
        if isinstance(value, (int, float)):
            print(f"{name:36s} {value:14.6g} {unit(name)}")
    for reason in record["failures"][:5]:
        print(f"# failure: {reason}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's table and metrics."""
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{workload} exited {proc.returncode}")
        print(proc.stdout, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            out_dir = WORK / f"probe-{os.getpid()}"
            out_dir.mkdir(parents=True, exist_ok=True)
            try:
                warm_up(load_cli().main, args.workload, out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
