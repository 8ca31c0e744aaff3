"""Command-line front end emitting grids, scans, and verification reports.

Outputs are CSV or JSON files meant for external plotting and CI, never an
interactive display. Runs are deterministic: the same resolved configuration
produces byte-identical output, numeric text is rendered with 15 significant
digits, and every file echoes the command, each configuration key that
command reads, and the format.

Each configuration key is declared once in _KEYS and each command once in
_COMMANDS, with the keys it reads; the flags, the resolution of a flag over
a --config file over the default, and the echo all follow from these two
tables. A --config key the command does not read is refused.

Numerics take no key: marginal and the verify norm integrate on the exact
Gauss-Hermite rule, n_z + 1 nodes per axis (analysis.exact_order), and the
verify residual uses the fixed step analysis.FD_STEP. boost, overlap,
parton-scan and entropy-scan evaluate no wave function: each writes one
closed_forms row per rapidity and refuses an empty rapidity list.

Results are rendered column-wise with the same 15-significant-digit text
in both formats: each float column is checked for NaN/Inf once, and a grid
axis is formatted once per axis point rather than once per cell. A float
cell is the repr of its value rounded to 15 significant digits. One size
rule, _MATRIX_ROWS, picks how a table is written:

- a table of fewer rows goes cell by cell, in plain Python for list and
  tuple columns: one %.15g pass per column, reading back only integral,
  exponent-15 and e-3xx texts; JSON objects come from one template;
- a larger one (every default grid, a marginal of 240 points or more) goes
  through numpy: each column becomes a uint8 matrix holding the same text
  per row (_textmatrix.float_matrix, exact to the last digit), and the CSV
  or JSON body is those matrices set side by side with the separator bytes,
  in row blocks, with the pad bytes dropped.

The config echo's floats are read from the per-cell texts. The argument
parser is built once per process and reused by every main call.

Exit status: 0 on success, 1 on domain/configuration errors, 2 when a
numeric integrity check fails (non-finite output, a verify residual above
1e-3 or norm more than 1e-8 from 1, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import _textmatrix, analysis, closed_forms
from .analysis import GridSpec
from .errors import ConfigError, CovoscError, NumericIntegrityError
from .oscillator import OscillatorState

__all__ = ["RunConfig", "main", "run"]


def _parse_etas(text: str) -> tuple[float, ...]:
    items = text.split(",")
    if not all(s.strip() for s in items):
        raise ConfigError(f"empty item in rapidity list {text!r}")
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad rapidity list {text!r}: {exc}") from None


class _Key(NamedTuple):
    """One configuration key: its converter from text, default, help and allowed values."""

    convert: Callable[[str], object]
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    aliases: tuple[str, ...] = ()


# in the order the echo lists them
_KEYS = {
    "eta": _Key(float, 0.0, "boost rapidity"),
    "etas": _Key(_parse_etas, None,
                 "comma-separated rapidity list (overlap: the first is the reference frame)"),
    "n_z": _Key(int, 0, "longitudinal excitation"),
    "min": _Key(float, None, "grid lower edge"),
    "max": _Key(float, None, "grid upper edge"),
    "step": _Key(float, None, "grid spacing"),
    "axis": _Key(str, "z", "coordinate kept by the marginal", analysis.MARGINAL_AXES),
    "representation": _Key(str, "spacetime", "spacetime psi(z, t) or momentum phi(q_z, q_0)",
                           ("spacetime", "momentum")),
    "format": _Key(str, "csv", "output encoding (default csv)", ("csv", "json")),
    "output": _Key(str, None, "output file (default: stdout), written atomically",
                   aliases=("-o",)),
}
# keys every command reads besides its own; the echo leaves out output
_COMMON = ("format", "output")


class RunConfig(SimpleNamespace):
    """Fully resolved parameters of one CLI invocation.

    Holds the command, each key that command reads, format and output. A key
    left out or None takes its default; a key the command does not read is
    refused.
    """

    def __init__(self, command: str, /, **values):
        try:
            keys = _COMMANDS[command].keys + _COMMON
        except KeyError:
            raise ConfigError(f"unknown command {command!r}") from None
        unread = sorted(set(values) - set(keys))
        if unread:
            raise ConfigError(f"{command} does not read config keys: {', '.join(unread)}")
        resolved = {}
        for name in keys:
            key = _KEYS[name]
            value = values.get(name)
            if value is None:
                value = key.default
            if key.choices and value not in key.choices:
                raise ConfigError(f"{name} must be one of {key.choices}, got {value!r}")
            resolved[name] = value
        super().__init__(command=command, **resolved)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route everything through
    # ConfigError so bad flags land on exit status 1 with one diagnostic line
    def error(self, message):
        raise ConfigError(message)


def _flag_type(convert: Callable[[str], object]) -> Callable[[str], object]:
    """convert as an argparse type: a ConfigError's reason becomes the flag's message."""
    def flag_type(text: str):
        try:
            return convert(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    # argparse names the type in its message for any other ValueError
    flag_type.__name__ = convert.__name__
    return flag_type


@functools.cache
def _build_parser() -> _Parser:
    # parse_args keeps no state between calls: each returns a fresh namespace
    parser = _Parser(
        prog="covosc",
        description="Covariant oscillator toolkit: boosted bound-state wave "
                    "functions, their verification, and parton-limit observables.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for command, spec in _COMMANDS.items():
        sp = sub.add_parser(command, help=spec.help)
        for name in spec.keys + _COMMON:
            key = _KEYS[name]
            sp.add_argument("--" + name.replace("_", "-"), *key.aliases,
                            type=_flag_type(key.convert), choices=key.choices, help=key.help)
        sp.add_argument("--config", metavar="PATH",
                        help="key = value configuration file; flags take precedence")
    return parser


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


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Each key the command reads from its flag, else the --config file, else its default."""
    values = _read_config_file(args.config) if args.config else {}
    for name in _COMMANDS[args.command].keys + _COMMON:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
        elif name in values:
            try:
                values[name] = _KEYS[name].convert(values[name])
            except ValueError as exc:
                raise ConfigError(f"bad config value for {name}: {exc}") from None
    # file keys the command does not read are left as text for RunConfig to refuse
    return RunConfig(args.command, **values)


class _Indexed(NamedTuple):
    """A result column given by its distinct values and, per row, which one."""

    values: np.ndarray
    index: np.ndarray


def _grid_spec(cfg: RunConfig, half_width: float, default_points: int) -> GridSpec:
    lo = cfg.min if cfg.min is not None else -half_width
    hi = cfg.max if cfg.max is not None else half_width
    step = cfg.step if cfg.step is not None else (hi - lo) / (default_points - 1)
    return GridSpec(lo, hi, step)


def _state_half_width(state: OscillatorState) -> float:
    # 4 sigma of the widest axis: sqrt((n_z + 1)/2) at rest, stretched by the boost
    stretch = math.exp(abs(state.eta))
    return 4.0 * stretch * math.sqrt((state.n_z + 1.0) / 2.0)


def _cmd_grid(cfg: RunConfig):
    state = OscillatorState(cfg.n_z, eta=cfg.eta)
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
    state = OscillatorState(cfg.n_z, cfg.eta)
    half = 4.0 * closed_forms.ground_widths(state.eta)[cfg.axis] * math.sqrt(state.n_z + 1.0)
    spec = _grid_spec(cfg, half, default_points=201)
    field = analysis.marginal(state, cfg.axis, spec, analysis.exact_order(2 * state.n_z))
    return {cfg.axis: field.points(), "density": field.values}


def _cmd_verify(cfg: RunConfig):
    state = OscillatorState(cfg.n_z, cfg.eta)
    # the residual grid lives along the squeezed axes, where the state looks
    # like its rest frame; size it from the rest-frame support
    half = 4.0 * math.sqrt((state.n_z + 1.0) / 2.0)
    lo = cfg.min if cfg.min is not None else -half
    hi = cfg.max if cfg.max is not None else half
    step = cfg.step if cfg.step is not None else 0.02
    spec = GridSpec(lo, hi, step)
    report = analysis.pde_residual(state, spec)
    norm = analysis.norm(state, analysis.exact_order(2 * state.n_z))
    if abs(norm - 1.0) > 1e-8:
        raise NumericIntegrityError(f"norm {norm!r} deviates from 1 by more than 1e-8")
    if report.max_rel_residual > 1e-3:
        raise NumericIntegrityError(
            f"residual {report.max_rel_residual!r} exceeds the bound 1e-3")
    names = ("n_z", "eta", "lambda", "rayleigh_quotient", "max_residual", "norm")
    row = (state.n_z, state.eta, report.eigenvalue, report.rayleigh_quotient,
           report.max_rel_residual, norm)
    return {name: [value] for name, value in zip(names, row)}


def _per_rapidity(columns: str, row: Callable[..., tuple],
                  bind: Callable[[RunConfig], tuple] = lambda cfg: ()):
    """Table function whose row i holds the columns, row(*bind(cfg), etas[i])."""
    names = columns.split(",")

    def run(cfg: RunConfig) -> dict:
        # boost reads --eta when it has no --etas
        etas = cfg.etas if cfg.etas is not None or not hasattr(cfg, "eta") else (cfg.eta,)
        if not etas:
            raise ConfigError(f"{cfg.command} requires --etas with at least one rapidity")
        args = bind(cfg)
        return dict(zip(names, zip(*[row(*args, eta) for eta in etas])))

    return run


def _overlap_row(ref: OscillatorState, eta: float) -> tuple[float, float, float]:
    return ref.eta, eta, closed_forms.frame_overlap(ref, OscillatorState(ref.n_z, eta))


class _Command(NamedTuple):
    """One command: its help, the keys it reads (in _KEYS order) and its function."""

    help: str
    keys: tuple[str, ...]
    run: Callable[[RunConfig], dict]


_COMMANDS = {
    "boost": _Command("kinematic factors per rapidity", ("eta", "etas"), _per_rapidity(
        "eta,beta,cosh_eta,sinh_eta,exp_eta,exp_neg_eta", closed_forms.boost_row)),
    "grid": _Command("dense wave-function samples on a square grid",
                     ("eta", "n_z", "min", "max", "step", "representation"), _cmd_grid),
    "marginal": _Command("1-D probability density along one axis",
                         ("eta", "n_z", "min", "max", "step", "axis"), _cmd_marginal),
    "overlap": _Command("frame overlaps against the first rapidity", ("etas", "n_z"),
                        _per_rapidity("eta_ref,eta,overlap", _overlap_row,
                                      lambda cfg: (OscillatorState(cfg.n_z, cfg.etas[0]),))),
    "verify": _Command("oscillator-equation residual and norm of one state",
                       ("eta", "n_z", "min", "max", "step"), _cmd_verify),
    "parton-scan": _Command("squeeze widths of the ground state per rapidity", ("etas",),
                            _per_rapidity("eta,sigma_u,sigma_v,sigma_z,sigma_qz,aspect,"
                                          "time_dilation", closed_forms.parton_row)),
    "entropy-scan": _Command(
        "exact entropy/purity/spectrum of the reduced density per rapidity", ("etas",),
        _per_rapidity("eta,entropy,purity,lambda_0,lambda_1,trace", closed_forms.thermal_row)),
}


# the largest double whose 15-significant-digit text is finite: anything
# larger in magnitude rounds to 1.79769313486232e308, which reads back as inf
_LARGEST_WRITTEN = 1.797693134862315e308


# tables with at least this many rows are written from byte matrices: a
# two-column marginal costs about 350 us plus 0.2 us per value there, against
# 100 us plus 0.7 (CSV) to 0.9 (JSON) us per value cell by cell, so whole
# tables break even near 254 rows in CSV and 220 in JSON
_MATRIX_ROWS = 240  # between the two


def _not_finite(name: str, values) -> NumericIntegrityError:
    x = float(next(x for x in values if not abs(x) <= _LARGEST_WRITTEN))
    return NumericIntegrityError(f"value {x!r} in {name} is not finite at 15 significant digits")


def _floats(name: str, values: np.ndarray) -> np.ndarray:
    """values as doubles; refuses NaN, Inf and a finite value that rounds to Inf."""
    values = values.astype(float, copy=False)
    if not (np.abs(values) <= _LARGEST_WRITTEN).all():
        raise _not_finite(name, values)
    return values


def _text_cells(name: str, values: list | tuple | np.ndarray) -> list[str]:
    """Cells of one column as written: ints as they are, floats at 15 significant digits.

    A list or tuple is written in plain Python, all ints as ints, else each
    cell through float() as numpy promotes it; an array through numpy. A
    float cell is repr(float(f"{x:.15g}")), made by one %.15g pass; only a
    text the cheap test below cannot vouch for is read back. Formats position
    by position, so -0.0 stays -0.0. Refuses NaN, Inf and a finite value that
    rounds to Inf. Tables of at least _MATRIX_ROWS rows go through
    _text_matrix, which calls this only for int columns and the floats it leaves.
    """
    if isinstance(values, (list, tuple)):
        if all(type(x) is int for x in values):
            return list(map(repr, values))
        values = [float(x) for x in values]
        if not all(abs(x) <= _LARGEST_WRITTEN for x in values):
            raise _not_finite(name, values)
    elif values.dtype.kind in "iu":
        return list(map(repr, values.tolist()))
    else:
        values = _floats(name, values).tolist()
    # a 15-digit text is the repr of the double it reads back as, except that
    # repr adds ".0" to an integral text, writes exponent 15 positionally and
    # may need fewer digits for a subnormal (the test sends back every e-3xx).
    # One pass binds t per cell: a separate list of raw texts raised the peak
    # RSS of a 601^2 grid request by about 18 MB.
    return [t if ("." in t or "e" in t) and t[-4:] != "e+15" and t[-5:-2] != "e-3"
            else repr(float(t))
            for x in values for t in ("%.15g" % x,)]


def _byte_rows(texts: list[str], width: int = 0) -> np.ndarray:
    """texts as the rows of a uint8 matrix, 0-padded to width (default: the longest)."""
    array = np.array(texts, dtype=f"S{width}")
    return array.view(np.uint8).reshape(len(texts), array.itemsize)


def _text_matrix(name: str, values) -> np.ndarray:
    """Cells of one column as rows of a uint8 matrix: each the _text_cells text with 0 bytes added.

    Floats are written by _textmatrix.float_matrix; the few it leaves
    (subnormals, near-ties, |x| > 1e280) and int columns go through
    _text_cells and are copied in.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return _byte_rows(_text_cells(name, values))
    values = _floats(name, values)
    matrix, rest = _textmatrix.float_matrix(values)
    if rest.any():
        matrix[rest] = _byte_rows(_text_cells(name, values[rest]), _textmatrix.WIDTH)
    return matrix


def _cells(table: dict) -> list[list[str]]:
    """Every column of table as text, one entry per row.

    The text is the repr of each value rounded to 15 significant digits,
    which is also how json writes a finite float or an int. An _Indexed
    column is formatted once per distinct value, then expanded by its index.
    """
    cells = []
    for name, column in table.items():
        values, index = column if isinstance(column, _Indexed) else (column, None)
        out = _text_cells(name, values)
        if index is not None:
            out = np.array(out, dtype=object)[index].tolist()
        cells.append(out)
    return cells


def _config_dict(cfg: RunConfig) -> dict:
    # the echo describes the computation, so identical requests produce
    # byte-identical files; where the file lands does not belong
    data = {"command": cfg.command}
    for name in _COMMANDS[cfg.command].keys + ("format",):
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = [float(t) for t in _text_cells(name, value)]
        elif isinstance(value, float):
            value = float(_text_cells(name, [value])[0])
        data[name] = value
    return data


def _echo(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return str(value)


def _narrow(matrix: np.ndarray) -> np.ndarray:
    """The same texts with their bytes left-justified, as wide as the longest."""
    kept = matrix != 0
    width = kept.sum(axis=1)
    out = np.zeros((len(matrix), width.max(initial=0)), np.uint8)
    out[np.arange(out.shape[1]) < width[:, None]] = matrix[kept]
    return out


def _rows(table: dict) -> int:
    return min(len(c.index) if isinstance(c, _Indexed) else len(c) for c in table.values())


def _table_text(head: str, table: dict, literals: list[str], tail: str, cut: int = 0) -> str:
    """head, each row of table, then tail; a row is literals[0], cell, literals[1], ..., cell,
    literals[-1], and the last one loses its final cut bytes.

    An _Indexed column is formatted once and gathered by its index, any other
    column block by block; every column is refused up front, in table order,
    if it holds a value _text_cells refuses. Within a block the cells are rows
    of byte matrices set side by side with the literal bytes, and their 0
    bytes are dropped in one pass.
    """
    literals = [np.frombuffer(text.encode(), np.uint8) for text in literals]
    columns, width = [], sum(map(len, literals))
    for name, column in table.items():
        if isinstance(column, _Indexed):
            matrix = _narrow(_text_matrix(name, column.values))
            columns.append((name, matrix, column.index))
            width += matrix.shape[1]
        else:
            values = np.asarray(column)
            if values.dtype.kind not in "iu":
                values = _floats(name, values)
            columns.append((name, values, None))
            # no cell text is longer
            width += _textmatrix.WIDTH
    head, tail = head.encode(), tail.encode()
    nrows = _rows(table)
    # room for the longest rows; pages that are never written take no memory
    text = np.empty(len(head) + nrows * width + len(tail), np.uint8)
    text[:len(head)] = np.frombuffer(head, np.uint8)
    end = len(head)
    for start in range(0, nrows, _textmatrix.BLOCK):
        rows = slice(start, min(start + _textmatrix.BLOCK, nrows))
        n = rows.stop - rows.start
        parts = [np.broadcast_to(literals[0], (n, len(literals[0])))]
        for (name, values, index), literal in zip(columns, literals[1:]):
            parts.append(_text_matrix(name, values[rows]) if index is None
                         else np.take(values, index[rows], axis=0))
            parts.append(np.broadcast_to(literal, (n, len(literal))))
        block = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
        text[end:end + len(block)] = np.frombuffer(block, np.uint8)
        end += len(block)
    end -= cut
    text[end:end + len(tail)] = np.frombuffer(tail, np.uint8)
    return str(text[:end + len(tail)], "utf-8")


def _render_csv(cfg: RunConfig, table: dict) -> str:
    lines = [f"# covosc {cfg.command}"]
    for key, value in _config_dict(cfg).items():
        lines.append(f"# {key} = {_echo(value)}")
    lines.append(",".join(table))
    if _rows(table) >= _MATRIX_ROWS:
        literals = [""] + [","] * (len(table) - 1) + ["\n"]
        return _table_text("\n".join(lines + [""]), table, literals, "")
    lines.extend(map(",".join, zip(*_cells(table))))
    return "\n".join(lines + [""])


def _render_json(cfg: RunConfig, table: dict) -> str:
    # the bytes of json.dumps({"config": ..., "results": [...]}, indent=2):
    # the config through json, each result object through one template
    head = json.dumps({"config": _config_dict(cfg)}, indent=2, allow_nan=False)
    head = f'{head[:-2]},\n  "results": '
    keys = [json.dumps(name) for name in table]
    if _rows(table) >= _MATRIX_ROWS:
        literals = ([f"    {{\n      {keys[0]}: "] + [f",\n      {key}: " for key in keys[1:]]
                    + ["\n    },\n"])
        # no separator after the last object
        return _table_text(f"{head}[\n", table, literals, "\n  ]\n}\n", cut=2)
    keys = [key.replace("%", "%%") for key in keys]
    template = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    rows = ",\n".join(template % row for row in zip(*_cells(table)))
    return f"{head}[\n{rows}\n  ]\n}}\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    tmp = output + ".tmp"
    data = memoryview(text.encode())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, output)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def run(cfg: RunConfig) -> str:
    """Execute one resolved configuration and return the rendered output text."""
    # a table maps each column name to its values: a 1-D sequence or an _Indexed
    table = _COMMANDS[cfg.command].run(cfg)
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
