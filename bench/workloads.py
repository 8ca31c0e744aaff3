"""Seeded request lists for the three benchmark workloads.

A run sends one fixed list of requests in rounds (see run.py). The list is a
number of cycles set by the run length; a cycle is a fixed multiset of request slots
(command, size, format, core or stress share) and the seed only draws the
parameters inside each slot and the order of the slots. Fixing the
composition keeps the latency median, the tail and the failure ratios of a
run comparable across seeds, while every seed still sends different inputs.

`core` slots stay inside the domain where the closed-form oracles pass today;
`stress` slots go where ROADMAP items 2 and 3 list silently wrong results
(entropy at eta >= 2.5, overlaps and z/t marginals at large rapidity). Both
are scored; only a failure in the core share marks a run as incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid-dump", "entropy-scan", "check-mix")

# entropy-scan output agrees with the closed forms below this rapidity and,
# today, misses the entropy tolerance from about 2.4 on
ENTROPY_CORE_MAX = 2.2
ENTROPY_STRESS_MIN = 2.5
ETA_MAX = 50.0


@dataclass(frozen=True)
class Request:
    """One CLI invocation: argv without `-o`, plus what the oracle needs."""

    command: str
    argv: tuple[str, ...]
    fmt: str
    params: dict = field(default_factory=dict)
    stress: bool = False


def _num(x: float) -> str:
    return repr(float(x))


def _etas_flag(etas) -> str:
    # `--etas=-1.5,2` keeps argparse from reading a leading minus as a flag
    return "--etas=" + ",".join(_num(e) for e in etas)


def _request(command, flags, fmt, params, stress=False) -> Request:
    argv = (command, *flags, "--format", fmt)
    return Request(command, argv, fmt, dict(params), stress)


def _grid(rng: random.Random, points: int | None, fmt: str, k: int, m: int) -> Request:
    """Slot k of m alike `covosc grid` requests; points None is the default 61^2.

    Rapidity is stratified over [0, 2] and the representation and n_z follow
    k, so a group of slots costs about the same for every seed.
    """
    eta = round(rng.uniform(2.0 * k / m, 2.0 * (k + 1) / m), 3)
    representation = "momentum" if k % 3 == 2 else "spacetime"
    n_z = k % 5 if representation == "spacetime" else 0
    flags = [f"--eta={_num(eta)}", "--n-z", str(n_z), "--representation", representation]
    params = {"eta": eta, "n_z": n_z, "representation": representation,
              "points": points or 61, "bounds": None}
    if points is not None:
        # plotting range of about 4 sigma along the stretched axis
        half = math.ceil(400.0 * math.exp(eta) * math.sqrt((n_z + 1) / 2.0)) / 100.0
        step = 2.0 * half / (points - 1)
        flags += [f"--min={_num(-half)}", f"--max={_num(half)}", f"--step={_num(step)}"]
        params["bounds"] = (-half, half)
    return _request("grid", flags, fmt, params)


def _grid_dump_cycle(rng: random.Random) -> list[Request]:
    # sorted by latency: 6 at 61^2, 13 CSV at 121^2 (holding both the median
    # and the 11th-largest sample), 1 JSON at 121^2, 3 at 241^2, 1 at 601^2
    groups = [(None, "csv", 5), (None, "json", 1), (121, "csv", 13), (121, "json", 1),
              (241, "csv", 3), (601, "csv", 1)]
    cycle = [_grid(rng, points, fmt, k, m) for points, fmt, m in groups for k in range(m)]
    rng.shuffle(cycle)
    return cycle


def _entropy(rng: random.Random, bins, stress: bool) -> Request:
    etas = [round(rng.uniform(lo, hi), 4) for lo, hi in bins]
    rng.shuffle(etas)
    return _request("entropy-scan", [_etas_flag(etas)], rng.choice(("csv", "json")),
                    {"etas": etas}, stress)


def _entropy_scan_cycle(rng: random.Random) -> list[Request]:
    # mostly pairs, so 12 requests fit in about 10 s; every rapidity has its
    # own bin, so a list costs about the same for every seed. Each stress
    # request holds one rapidity from [2.5, 4], where the output is wrong today.
    lo, hi = ENTROPY_CORE_MAX, ENTROPY_STRESS_MIN
    width = lo / 18
    cycle = [_entropy(rng, [(k * width, (k + 1) * width), (lo / 2 + k * width,
                                                           lo / 2 + (k + 1) * width)],
                      stress=False) for k in range(9)]
    cycle += [_entropy(rng, [(hi, 4.0), (0.0, 2.0), (2.0, 4.0)], stress=True) for _ in range(2)]
    cycle.append(
        _entropy(rng, [(hi, 4.0), (0.0, 4 / 3), (4 / 3, 8 / 3), (8 / 3, 4.0)], stress=True))
    rng.shuffle(cycle)
    return cycle


def _eta(rng: random.Random, stress: bool = False) -> float:
    if not stress:
        return round(rng.uniform(-4.0, 4.0), 4)
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(4.0, ETA_MAX), 4)


def _check_slot(rng: random.Random, kind: str, length: int) -> Request:
    fmt = rng.choice(("csv", "json"))
    etas = [_eta(rng) for _ in range(length)]
    if kind == "boost":
        if length == 1:
            return _request("boost", [f"--eta={_num(etas[0])}"], fmt, {"etas": etas})
        return _request("boost", [_etas_flag(etas)], fmt, {"etas": etas})
    if kind == "overlap":
        n_z = rng.randint(0, 3)
        return _request("overlap", ["--n-z", str(n_z), _etas_flag(etas)], fmt,
                        {"n_z": n_z, "etas": etas})
    if kind == "parton-scan":
        return _request("parton-scan", [_etas_flag(etas)], fmt, {"etas": etas})
    if kind == "marginal":
        n_z, axis = rng.randint(0, 3), rng.choice("ztuv")
        return _request("marginal", ["--n-z", str(n_z), f"--eta={_num(etas[0])}", "--axis", axis],
                        fmt, {"n_z": n_z, "eta": etas[0], "axis": axis})
    raise ValueError(kind)


def _verify(rng: random.Random, n_z: int, stress: bool = False) -> Request:
    eta = _eta(rng, stress)
    return _request("verify", ["--n-z", str(n_z), f"--eta={_num(eta)}"],
                    rng.choice(("csv", "json")), {"n_z": n_z, "eta": eta}, stress)


def _check_stress(rng: random.Random) -> list[Request]:
    # overlap with n_z >= 2 and |delta eta| >= 20: wrong today (ROADMAP item 3)
    n_z = rng.randint(2, 4)
    ref = _eta(rng)
    other = round(ref + rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 46.0), 4)
    overlap = _request("overlap", ["--n-z", str(n_z), _etas_flag([ref, other])],
                       rng.choice(("csv", "json")),
                       {"n_z": n_z, "etas": [ref, other]}, stress=True)
    # z/t marginal at |eta| >= 20 integrates far from 1 today
    n_z, axis = rng.randint(0, 3), rng.choice("zt")
    eta = round(rng.choice((-1.0, 1.0)) * rng.uniform(20.0, ETA_MAX), 4)
    marginal = _request("marginal", ["--n-z", str(n_z), f"--eta={_num(eta)}", "--axis", axis],
                        rng.choice(("csv", "json")), {"n_z": n_z, "eta": eta, "axis": axis},
                        stress=True)
    # large rapidities that are handled correctly today
    scan = [_eta(rng, True), _eta(rng)]
    parton = _request("parton-scan", [_etas_flag(scan)], rng.choice(("csv", "json")),
                      {"etas": scan}, stress=True)
    kicks = [_eta(rng, True), _eta(rng), _eta(rng)]
    boost = _request("boost", [_etas_flag(kicks)], rng.choice(("csv", "json")),
                     {"etas": kicks}, stress=True)
    return [overlap, marginal, parton, boost, _verify(rng, 0, stress=True)]


# (kind, list length) of the core slots: the marginals hold the latency
# median, the verify requests the tail
_CHECK_SLOTS = ([("boost", 1), ("boost", 1), ("boost", 1), ("boost", 2), ("boost", 4)]
                + [("overlap", 2), ("overlap", 3), ("overlap", 4)]
                + [("parton-scan", 1), ("parton-scan", 3)] + [("marginal", 1)] * 5)


def _check_mix_cycle(rng: random.Random) -> list[Request]:
    cycle = [_verify(rng, n_z) for n_z in range(4)]
    cycle += [_check_slot(rng, kind, length) for kind, length in _CHECK_SLOTS]
    cycle += _check_stress(rng)
    rng.shuffle(cycle)
    return cycle


_CYCLES = {
    "grid-dump": _grid_dump_cycle,
    "entropy-scan": _entropy_scan_cycle,
    "check-mix": _check_mix_cycle,
}

# cycles in the request list of a 30-second run: one round of the list takes
# about 7-14 s on a 2-vCPU machine, and holds at least 11 requests so the
# tail has 10 samples beyond it
CYCLES_AT_30S = {"grid-dump": 1, "entropy-scan": 1, "check-mix": 30}


def requests(workload: str, seed: int, seconds: float = 30.0) -> list[Request]:
    """The deterministic request list of one run of a workload."""
    make = _CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    cycles = max(1, round(CYCLES_AT_30S[workload] * seconds / 30.0))
    return [r for _ in range(cycles) for r in make(rng)]


# first call of each command a workload uses; not seeded, so set-up time
# measures the same work in every run
WARMUP = {
    "grid-dump": [("grid", "--format", "csv"), ("grid", "--format", "json")],
    "entropy-scan": [("entropy-scan", "--etas=1.0", "--format", "csv")],
    "check-mix": [
        ("verify", "--n-z", "0", "--eta=0.5", "--format", "csv"),
        ("overlap", "--etas=0,0.5", "--format", "json"),
        ("parton-scan", "--etas=0.5", "--format", "csv"),
        ("marginal", "--eta=0.5", "--format", "json"),
        ("boost", "--eta=0.5", "--format", "csv"),
    ],
}
