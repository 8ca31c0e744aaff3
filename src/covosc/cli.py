"""Command-line front end emitting grids, scans, and verification reports.

Outputs are CSV or JSON files meant for external plotting and CI, never an
interactive display. Runs are deterministic: the same resolved configuration
produces byte-identical output, numeric text is rendered with 15 significant
digits, and the full resolved configuration is embedded in every file.

Results are rendered column-wise with the same 15-significant-digit text:
each float column is checked for NaN/Inf once, and a grid axis is formatted
once per axis point rather than once per cell.

Exit status: 0 on success, 1 on domain/configuration errors, 2 when a
numeric integrity check fails (non-finite output, broken spectrum, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, kinematics, rest_of_universe
from .analysis import GridSpec
from .errors import ConfigError, CovoscError, NumericIntegrityError
from .oscillator import OscillatorState

__all__ = ["RunConfig", "main", "run"]

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
    return RunConfig(command=args.command, **resolved)


class _Indexed(NamedTuple):
    """A result column given by its distinct values and, per row, which one."""

    values: np.ndarray
    index: np.ndarray


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
    etas = [kinematics.rapidity_value(e)
            for e in (cfg.etas if cfg.etas is not None else (cfg.eta,))]
    return {
        "eta": etas,
        "beta": [kinematics.beta_from_rapidity(e).beta for e in etas],
        "cosh_eta": [math.cosh(e) for e in etas],
        "sinh_eta": [math.sinh(e) for e in etas],
        "exp_eta": [math.exp(e) for e in etas],
        "exp_neg_eta": [math.exp(-e) for e in etas],
    }


def _state_half_width(state: OscillatorState) -> float:
    # 4 sigma of the widest axis: sqrt((n_z + 1)/2) at rest, stretched by the boost
    stretch = math.exp(abs(state.eta))
    return 4.0 * stretch * math.sqrt((state.n_z + 1.0) / 2.0)


def _cmd_grid(cfg: RunConfig):
    state = OscillatorState(cfg.n_z, cfg.n_x, cfg.n_y, cfg.eta)
    spec = _grid_spec(cfg, _state_half_width(state), default_points=61)
    field = analysis.render_grid(state, spec, cfg.representation)
    first, second = field.axes
    n = spec.npoints
    rows = np.arange(n)
    return {
        first: _Indexed(field.points(0), np.repeat(rows, n)),
        second: _Indexed(field.points(1), np.tile(rows, n)),
        "psi" if cfg.representation == "spacetime" else "phi": field.values.ravel(),
    }


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
    return {cfg.axis: field.points(), "density": field.values}


def _cmd_overlap(cfg: RunConfig):
    etas = _require_etas(cfg)
    reference = OscillatorState(cfg.n_z, 0, 0, etas[0])
    return {
        "eta_ref": [etas[0]] * len(etas),
        "eta": etas,
        "overlap": [analysis.overlap(OscillatorState(cfg.n_z, 0, 0, eta), reference, cfg.order)
                    for eta in etas],
    }


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
    names = ("n_z", "eta", "lambda", "rayleigh_quotient", "max_residual", "norm")
    row = (state.n_z, state.eta, report.eigenvalue, report.rayleigh_quotient,
           report.max_rel_residual, analysis.norm(state, cfg.order))
    return {name: [value] for name, value in zip(names, row)}


def _cmd_parton_scan(cfg: RunConfig):
    rows = analysis.parton_scan(_require_etas(cfg), cfg.order)
    names = ("eta", "sigma_u", "sigma_v", "sigma_z", "sigma_qz", "aspect", "time_dilation")
    return {name: [getattr(r, name) for r in rows] for name in names}


def _cmd_entropy_scan(cfg: RunConfig):
    rows = [rest_of_universe.thermal_row(eta) for eta in _require_etas(cfg)]
    names = ("eta", "entropy", "purity", "lambda_0", "lambda_1", "trace")
    return dict(zip(names, zip(*rows)))


_DISPATCH = {
    "boost": _cmd_boost,
    "grid": _cmd_grid,
    "marginal": _cmd_marginal,
    "overlap": _cmd_overlap,
    "verify": _cmd_verify,
    "parton-scan": _cmd_parton_scan,
    "entropy-scan": _cmd_entropy_scan,
}


def _quantize(name: str, values) -> list:
    """Values of one column as written: ints as they are, floats at 15 significant digits.

    Rounds position by position, never by value, so -0.0 stays -0.0.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.tolist()
    values = values.astype(float, copy=False)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericIntegrityError(f"non-finite value {values[~finite][0]!r} in {name}")
    return [float(f"{x:.15g}") for x in values.tolist()]


def _cells(table: dict, text: bool) -> list[list]:
    """Every column of table expanded to one entry per row.

    An _Indexed column is quantized, and for text written with repr, once per
    distinct value and then expanded by its index.
    """
    cells = []
    for name, column in table.items():
        values, index = column if isinstance(column, _Indexed) else (column, None)
        out = _quantize(name, values)
        if text:
            out = list(map(repr, out))
        if index is not None:
            out = np.array(out, dtype=object)[index].tolist()
        cells.append(out)
    return cells


def _config_dict(cfg: RunConfig) -> dict:
    data = asdict(cfg)
    # the embedded config describes the computation, so identical requests
    # produce byte-identical files; where the file lands does not belong
    del data["output"]
    for key, value in data.items():
        if isinstance(value, tuple):
            data[key] = _quantize(key, value)
        elif isinstance(value, float):
            (data[key],) = _quantize(key, [value])
    return data


def _echo(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return str(value)


def _render_csv(cfg: RunConfig, table: dict) -> str:
    lines = [f"# covosc {cfg.command}"]
    for key, value in _config_dict(cfg).items():
        lines.append(f"# {key} = {_echo(value)}")
    lines.append(",".join(table))
    lines.extend(map(",".join, zip(*_cells(table, text=True))))
    return "\n".join(lines) + "\n"


def _render_json(cfg: RunConfig, table: dict) -> str:
    results = [dict(zip(table, row)) for row in zip(*_cells(table, text=False))]
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
    # a table maps each column name to its values: a 1-D sequence or an _Indexed
    table = command(cfg)
    if cfg.format == "json":
        return _render_json(cfg, table)
    return _render_csv(cfg, table)


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
