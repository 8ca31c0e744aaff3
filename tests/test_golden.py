"""Byte-for-byte golden outputs of the CLI.

Each request in tests/golden_outputs.json is stored with its exit status and,
when it succeeds, the sha256 and length of the bytes it writes. Every change
to how results are computed or rendered must keep these bytes, unless it
declares an output change and regenerates the file:

    PYTHONPATH=src python tests/test_golden.py

which prints each case whose entry changed (argv, exit status, old -> new
byte count) before it writes the file, and nothing when no entry changed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from covosc import cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")

REQUESTS = [
    ["boost", "--etas=0,0.1,-1.5,2.5,50"],
    ["boost", "--eta=0.7"],
    # the odd h_1 underflows to -0.0 and 0.0 in the far corners
    ["grid", "--eta=-1.9", "--n-z", "1"],
    ["grid", "--eta=0.7", "--n-z", "2", "--min=-6", "--max=6", "--step=0.1"],
    ["grid", "--eta=1.3", "--representation", "momentum"],
    ["grid", "--eta=5", "--n-z", "1"],
    ["marginal", "--axis", "z", "--eta=0.8", "--n-z", "1"],
    ["marginal", "--axis", "v", "--eta=-1.2", "--min=-2", "--max=2", "--step=0.25"],
    # the t axis far from rest, where the narrow light-cone coordinate is u
    ["marginal", "--axis", "t", "--n-z", "2", "--eta=-20"],
    ["overlap", "--n-z", "2", "--etas=0,0.5,-1,3"],
    ["verify", "--n-z", "2", "--eta=0.5"],
    # a 1167^2 residual grid, read from lines of 2333 and 1167 points
    ["verify", "--n-z", "16", "--eta=-1.3"],
    ["parton-scan", "--etas=0,0.5,2,-3"],
    ["entropy-scan", "--etas=0,1e-300,0.7,4,-50"],
    ["grid", "--eta=60"],
    # most cells are exact zeros (some -0.0); some are subnormal or normal below 1e-280
    ["grid", "--eta=1.9", "--n-z", "3", "--min=-20", "--max=20", "--step=0.25"],
    # |z| > 37 is the far tail of h_64, where e^{-z^2/2} alone is subnormal or zero
    ["grid", "--n-z", "64", "--min=-40", "--max=40", "--step=0.5"],
]

CASES = [[*argv, "--format", fmt] for argv in REQUESTS for fmt in ("csv", "json")]


def render(argv, directory):
    """Exit status and output bytes (None on failure) of one request."""
    out = Path(directory) / "out"
    code = cli.main([*argv, "--output", str(out)])
    return code, (out.read_bytes() if code == 0 else None)


def record(argv, code, data):
    entry = {"argv": argv, "exit": code}
    if data is not None:
        entry.update(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
    return entry


def test_golden_set_matches_requests():
    assert [e["argv"] for e in json.loads(GOLDEN.read_text())] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(a) for a in CASES])
def test_output_bytes_unchanged(index, tmp_path):
    argv = CASES[index]
    code, data = render(argv, tmp_path)
    assert record(argv, code, data) == json.loads(GOLDEN.read_text())[index]


if __name__ == "__main__":
    import tempfile

    old = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        golden = [record(argv, *render(argv, directory)) for argv in CASES]
    for entry in golden:
        before = old.get(tuple(entry["argv"]), {})
        if entry != before:
            print(f"{' '.join(entry['argv'])}: exit {before.get('exit')} -> {entry['exit']}, "
                  f"{before.get('bytes')} -> {entry.get('bytes')} bytes")
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, golden)) + "\n]\n")
