"""Command-line front end emitting grids, scans, and verification reports.

Outputs are CSV or JSON files meant for external plotting and CI, never an
interactive display. Runs are deterministic: the same resolved configuration
produces byte-identical output, numeric text is rendered with 15 significant
digits, and the full resolved configuration is embedded in every file.

Exit status: 0 on success, 1 on domain/configuration errors, 2 when a
numeric integrity check fails (non-finite output, broken spectrum, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analysis, kinematics, rest_of_universe
from .analysis import GridSpec
from .errors import ConfigError, CovoscError, NumericIntegrityError
from .oscillator import OscillatorState, phi_momentum, psi_boosted

__all__ = ["RunConfig", "main", "run"]

THREADS_ENV = "COVOSC_THREADS"

_DEFAULTS = {
    "eta": 0.0,
    "etas": None,
    "n_z": 0,
    "n_x": 0,
    "n_y": 0,
    "min": None,
    "max": None,
    "step": None,
    "order": analysis.DEFAULT_ORDER,
    "fd_step": analysis.DEFAULT_FD_STEP,
    "axis": "z",
    "representation": "spacetime",
    "format": "csv",
    "output": None,
}

_CHOICES = {
    "axis": ("z", "t", "u", "v"),
    "representation": ("spacetime", "momentum"),
    "format": ("csv", "json"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI invocation."""

    command: str
    eta: float = 0.0
    etas: tuple[float, ...] | None = None
    n_z: int = 0
    n_x: int = 0
    n_y: int = 0
    min: float | None = None
    max: float | None = None
    step: float | None = None
    order: int = analysis.DEFAULT_ORDER
    fd_step: float = analysis.DEFAULT_FD_STEP
    axis: str = "z"
    representation: str = "spacetime"
    format: str = "csv"
    output: str | None = None
    threads: int = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route everything through
    # ConfigError so bad flags land on exit status 1 with one diagnostic line
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="covosc",
        description="Covariant oscillator toolkit: boosted bound-state wave "
                    "functions, their verification, and parton-limit observables.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(sp):
        sp.add_argument("--format", choices=_CHOICES["format"], default=None,
                        help="output encoding (default csv)")
        sp.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="output file (default: stdout), written atomically")
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="key = value configuration file; flags take precedence")

    def grid_flags(sp):
        sp.add_argument("--min", type=float, default=None, help="grid lower edge")
        sp.add_argument("--max", type=float, default=None, help="grid upper edge")
        sp.add_argument("--step", type=float, default=None, help="grid spacing")

    def state_flags(sp, transverse=False):
        sp.add_argument("--n-z", type=int, default=None, help="longitudinal excitation")
        if transverse:
            sp.add_argument("--n-x", type=int, default=None, help="transverse x excitation")
            sp.add_argument("--n-y", type=int, default=None, help="transverse y excitation")
        sp.add_argument("--eta", type=float, default=None, help="boost rapidity")

    sp = sub.add_parser("boost", help="kinematic factors per rapidity")
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--etas", type=_parse_etas, default=None,
                    help="comma-separated rapidity list")
    common(sp)

    sp = sub.add_parser("grid", help="dense wave-function samples on a square grid")
    state_flags(sp, transverse=True)
    grid_flags(sp)
    sp.add_argument("--representation", choices=_CHOICES["representation"], default=None,
                    help="spacetime psi(z, t) or momentum phi(q_z, q_0)")
    common(sp)

    sp = sub.add_parser("marginal", help="1-D probability density along one axis")
    state_flags(sp)
    sp.add_argument("--axis", choices=_CHOICES["axis"], default=None)
    grid_flags(sp)
    sp.add_argument("--order", type=int, default=None, help="quadrature order")
    common(sp)

    sp = sub.add_parser("overlap", help="frame overlaps against the first rapidity")
    sp.add_argument("--n-z", type=int, default=None)
    sp.add_argument("--etas", type=_parse_etas, default=None,
                    help="list of rapidities; the first is the reference frame")
    sp.add_argument("--order", type=int, default=None)
    common(sp)

    sp = sub.add_parser("verify", help="oscillator-equation residual and norm of one state")
    state_flags(sp)
    grid_flags(sp)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--fd-step", type=float, default=None, help="finite-difference step")
    common(sp)

    sp = sub.add_parser("parton-scan", help="squeeze widths of the ground state per rapidity")
    sp.add_argument("--etas", type=_parse_etas, default=None)
    sp.add_argument("--order", type=int, default=None)
    common(sp)

    sp = sub.add_parser("entropy-scan",
                        help="exact entropy/purity/spectrum of the reduced density per rapidity")
    sp.add_argument("--etas", type=_parse_etas, default=None)
    common(sp)

    return parser


def _parse_etas(text) -> tuple[float, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(float(v) for v in text)
    items = [s for s in str(text).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"empty rapidity list: {text!r}")
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad rapidity list {text!r}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        options[key.strip().replace("-", "_")] = value.strip()
    return options


_CONVERTERS = {
    "eta": float,
    "etas": _parse_etas,
    "n_z": int,
    "n_x": int,
    "n_y": int,
    "min": float,
    "max": float,
    "step": float,
    "order": int,
    "fd_step": float,
    "axis": str,
    "representation": str,
    "format": str,
    "output": str,
}


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_options = _read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_options) - set(_CONVERTERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for name, default in _DEFAULTS.items():
        value = getattr(args, name, None)
        if value is None and name in file_options:
            try:
                value = _CONVERTERS[name](file_options[name])
            except ValueError as exc:
                raise ConfigError(f"bad config value for {name}: {exc}") from None
        if value is None:
            value = default
        if name in _CHOICES and value is not None and value not in _CHOICES[name]:
            raise ConfigError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")
        resolved[name] = value
    threads_raw = os.environ.get(THREADS_ENV, "1")
    try:
        threads = int(threads_raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {threads_raw!r}") from None
    if threads < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {threads}")
    return RunConfig(command=args.command, threads=threads, **resolved)


def _grid_spec(cfg: RunConfig, half_width: float, default_points: int) -> GridSpec:
    lo = cfg.min if cfg.min is not None else -half_width
    hi = cfg.max if cfg.max is not None else half_width
    step = cfg.step if cfg.step is not None else (hi - lo) / (default_points - 1)
    return GridSpec(lo, hi, step)


def _require_etas(cfg: RunConfig) -> tuple[float, ...]:
    if not cfg.etas:
        raise ConfigError(f"{cfg.command} requires --etas")
    return cfg.etas


def _cmd_boost(cfg: RunConfig):
    etas = cfg.etas if cfg.etas is not None else (cfg.eta,)
    columns = ["eta", "beta", "cosh_eta", "sinh_eta", "exp_eta", "exp_neg_eta"]
    rows = []
    for eta in etas:
        e = kinematics.rapidity_value(eta)
        rows.append([
            e,
            kinematics.beta_from_rapidity(e).beta,
            math.cosh(e),
            math.sinh(e),
            math.exp(e),
            math.exp(-e),
        ])
    return columns, rows


def _state_half_width(state: OscillatorState) -> float:
    # 4 sigma of the widest axis: sqrt((n_z + 1)/2) at rest, stretched by the boost
    stretch = math.exp(abs(state.eta))
    return 4.0 * stretch * math.sqrt((state.n_z + 1.0) / 2.0)


def _render_rows(state: OscillatorState, spec: GridSpec, representation: str,
                 threads: int) -> analysis.FieldGrid:
    if threads <= 1:
        return analysis.render_grid(state, spec, representation)
    # row-chunked fan-out; elementwise evaluation makes the bytes identical
    # to the single-threaded result regardless of the partitioning
    pts = spec.points()
    chunks = np.array_split(np.arange(pts.size), min(threads, pts.size))
    sample = psi_boosted if representation == "spacetime" else phi_momentum

    def evaluate(idx):
        return sample(state, pts[idx][:, None], pts[None, :])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(evaluate, chunks))
    values = np.vstack(parts)
    axes = ("z", "t") if representation == "spacetime" else ("q_z", "q_0")
    return analysis.FieldGrid(specs=(spec, spec), axes=axes, values=values)


def _cmd_grid(cfg: RunConfig):
    state = OscillatorState(cfg.n_z, cfg.n_x, cfg.n_y, cfg.eta)
    spec = _grid_spec(cfg, _state_half_width(state), default_points=61)
    field = _render_rows(state, spec, cfg.representation, cfg.threads)
    columns = list(field.axes) + (["psi"] if cfg.representation == "spacetime" else ["phi"])
    first = field.points(0)
    second = field.points(1)
    rows = []
    for i, a in enumerate(first):
        for j, b in enumerate(second):
            rows.append([a, b, field.values[i, j]])
    return columns, rows


def _cmd_marginal(cfg: RunConfig):
    state = OscillatorState(cfg.n_z, 0, 0, cfg.eta)
    sigma = {
        "z": math.sqrt(0.5 * math.cosh(2.0 * state.eta)),
        "t": math.sqrt(0.5 * math.cosh(2.0 * state.eta)),
        "u": math.exp(state.eta) / math.sqrt(2.0),
        "v": math.exp(-state.eta) / math.sqrt(2.0),
    }[cfg.axis]
    half = 4.0 * sigma * math.sqrt(state.n_z + 1.0)
    spec = _grid_spec(cfg, half, default_points=201)
    field = analysis.marginal(state, cfg.axis, spec, cfg.order)
    rows = [[c, d] for c, d in zip(field.points(), field.values)]
    return [cfg.axis, "density"], rows


def _cmd_overlap(cfg: RunConfig):
    etas = _require_etas(cfg)
    reference = OscillatorState(cfg.n_z, 0, 0, etas[0])
    rows = []
    for eta in etas:
        value = analysis.overlap(OscillatorState(cfg.n_z, 0, 0, eta), reference, cfg.order)
        rows.append([etas[0], eta, value])
    return ["eta_ref", "eta", "overlap"], rows


def _cmd_verify(cfg: RunConfig):
    state = OscillatorState(cfg.n_z, 0, 0, cfg.eta)
    # the residual grid lives along the squeezed axes, where the state looks
    # like its rest frame; size it from the rest-frame support
    half = 4.0 * math.sqrt((state.n_z + 1.0) / 2.0)
    lo = cfg.min if cfg.min is not None else -half
    hi = cfg.max if cfg.max is not None else half
    step = cfg.step if cfg.step is not None else 0.02
    spec = GridSpec(lo, hi, step)
    report = analysis.pde_residual(state, spec, cfg.fd_step)
    norm_value = analysis.norm(state, cfg.order)
    columns = ["n_z", "eta", "lambda", "rayleigh_quotient", "max_residual", "norm"]
    rows = [[state.n_z, state.eta, report.eigenvalue, report.rayleigh_quotient,
             report.max_rel_residual, norm_value]]
    return columns, rows


def _cmd_parton_scan(cfg: RunConfig):
    rows = [
        [r.eta, r.sigma_u, r.sigma_v, r.sigma_z, r.sigma_qz, r.aspect, r.time_dilation]
        for r in analysis.parton_scan(_require_etas(cfg), cfg.order)
    ]
    columns = ["eta", "sigma_u", "sigma_v", "sigma_z", "sigma_qz", "aspect", "time_dilation"]
    return columns, rows


def _cmd_entropy_scan(cfg: RunConfig):
    rows = [rest_of_universe.thermal_row(eta) for eta in _require_etas(cfg)]
    return ["eta", "entropy", "purity", "lambda_0", "lambda_1", "trace"], rows


_DISPATCH = {
    "boost": _cmd_boost,
    "grid": _cmd_grid,
    "marginal": _cmd_marginal,
    "overlap": _cmd_overlap,
    "verify": _cmd_verify,
    "parton-scan": _cmd_parton_scan,
    "entropy-scan": _cmd_entropy_scan,
}


def _quantize(value):
    """Round floats to 15 significant digits; reject non-finite values."""
    if isinstance(value, (bool, int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise NumericIntegrityError(f"non-finite value {f!r} in results")
        return float(f"{f:.15g}")
    return value


def _text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_text(v) for v in value)
    return str(value)


def _config_dict(cfg: RunConfig) -> dict:
    data = asdict(cfg)
    # the embedded config describes the computation, so identical requests
    # produce byte-identical files; where the file lands and how work was
    # partitioned do not belong (thread count never changes the values)
    del data["output"]
    del data["threads"]
    for key, value in data.items():
        if isinstance(value, tuple):
            data[key] = [_quantize(v) for v in value]
        else:
            data[key] = _quantize(value)
    return data


def _render_csv(cfg: RunConfig, columns, rows) -> str:
    lines = [f"# covosc {cfg.command}"]
    for key, value in _config_dict(cfg).items():
        lines.append(f"# {key} = {_text(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_text(_quantize(v)) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(cfg: RunConfig, columns, rows) -> str:
    results = [dict(zip(columns, (_quantize(v) for v in row))) for row in rows]
    payload = {"config": _config_dict(cfg), "results": results}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = Path(output)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run(cfg: RunConfig) -> str:
    """Execute one resolved configuration and return the rendered output text."""
    try:
        command = _DISPATCH[cfg.command]
    except KeyError:
        raise ConfigError(f"unknown command {cfg.command!r}") from None
    columns, rows = command(cfg)
    if cfg.format == "json":
        return _render_json(cfg, columns, rows)
    return _render_csv(cfg, columns, rows)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args)
        _emit(run(cfg), cfg.output)
    except NumericIntegrityError as exc:
        print(f"covosc: numeric integrity: {exc}", file=sys.stderr)
        return 2
    except (CovoscError, OSError) as exc:
        print(f"covosc: error: {exc}", file=sys.stderr)
        return 1
    return 0
