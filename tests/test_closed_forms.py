"""Every closed form against its 50-digit mpmath reference, over the whole domain.

REGISTRY holds one row per name in closed_forms.__all__: the function, its
reference written from the paper's formulas in mpmath, a relative tolerance
and a strategy for its arguments over |eta| <= ETA_MAX and n_z <= 64. A
value is compared relatively where the reference is a normal double and to
TINY absolutely below that. The checks that reach the same numbers another
way stay with the code they use: the quadrature widths in test_analysis,
the grid reduce spectrum and the summed series in test_rest_of_universe.
"""

import ast
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covosc import ETA_MAX, OscillatorState, closed_forms

TINY = 2.2250738585072014e-308  # smallest normal double


def assert_close_or_tiny(got, want, rtol):
    """Relative agreement where want is a normal double, absolute TINY below that."""
    assert abs(got - want) <= rtol * abs(want) + (TINY if abs(want) < TINY else 0.0), (got, want)


def boost_reference(eta):
    with mpmath.workdps(50):
        e = mpmath.mpf(eta)
        values = (e, mpmath.tanh(e), mpmath.cosh(e), mpmath.sinh(e), mpmath.exp(e), mpmath.exp(-e))
        return tuple(map(float, values))


def light_cone_widths(eta):
    """The rest-frame width 1/sqrt(2) squeezed along u and v; z = (u + v)/sqrt(2)."""
    e = mpmath.mpf(eta)
    sigma_u, sigma_v = mpmath.exp(e) / mpmath.sqrt(2), mpmath.exp(-e) / mpmath.sqrt(2)
    return sigma_u, sigma_v, mpmath.sqrt((sigma_u**2 + sigma_v**2) / 2)


def widths_reference(eta):
    with mpmath.workdps(50):
        sigma_u, sigma_v, sigma_z = map(float, light_cone_widths(eta))
        return {"z": sigma_z, "t": sigma_z, "u": sigma_u, "v": sigma_v}


def parton_reference(eta):
    with mpmath.workdps(50):
        sigma_u, sigma_v, sigma_z = light_cone_widths(eta)
        # aspect sigma_u / sigma_v, time dilation sigma_u(eta) / sigma_u(0)
        values = (eta, sigma_u, sigma_v, sigma_z, sigma_z, sigma_u / sigma_v,
                  sigma_u * mpmath.sqrt(2))
        return tuple(map(float, values))


def overlap_reference(a, b):
    """sech^{n_z + 1}(eta_b - eta_a) from the exact doubles, 0 across different n_z."""
    if a.n_z != b.n_z:
        return 0.0
    with mpmath.workdps(50):
        return float(mpmath.sech(mpmath.mpf(b.eta) - mpmath.mpf(a.eta)) ** (a.n_z + 1))


def thermal_reference(eta):
    """The paper's forms of the reduced ground state.

    entropy = cosh^2 ln cosh^2 - sinh^2 ln sinh^2 cancels about 0.87 |eta|
    digits, so it is evaluated at 100 digits to keep 50 after cancellation,
    with ln cosh^2 = log1p(sinh^2) so that tiny |eta| keeps its s term.
    """
    with mpmath.workdps(100):
        e = mpmath.mpf(eta)
        c2, s2 = mpmath.cosh(e) ** 2, mpmath.sinh(e) ** 2
        s_ln_s = s2 * mpmath.log(s2) if s2 else mpmath.mpf(0)
        values = (e, c2 * mpmath.log1p(s2) - s_ln_s, 1 / mpmath.cosh(2 * e),
                  mpmath.sech(e) ** 2, mpmath.tanh(e) ** 2 * mpmath.sech(e) ** 2, 1)
        return tuple(map(float, values))


ETA = st.floats(-ETA_MAX, ETA_MAX)
N_Z = st.integers(0, 64)


@st.composite
def state_pairs(draw):
    """Two states anywhere in the domain, most with the same n_z, many a few units apart."""
    n_z, eta = draw(N_Z), draw(ETA)
    near = st.floats(-4.0, 4.0).map(lambda d: min(max(eta + d, -ETA_MAX), ETA_MAX))
    other = OscillatorState(draw(st.one_of(st.just(n_z), N_Z)), draw(st.one_of(ETA, near)))
    return OscillatorState(n_z, eta), other


class Row(NamedTuple):
    function: Callable
    reference: Callable
    rtol: float
    args: st.SearchStrategy


REGISTRY = {
    "boost_row": Row(closed_forms.boost_row, boost_reference, 1e-15, st.tuples(ETA)),
    "frame_overlap": Row(closed_forms.frame_overlap, overlap_reference, 1e-13, state_pairs()),
    "ground_widths": Row(closed_forms.ground_widths, widths_reference, 1e-14, st.tuples(ETA)),
    "parton_row": Row(closed_forms.parton_row, parton_reference, 1e-14, st.tuples(ETA)),
    "thermal_row": Row(closed_forms.thermal_row, thermal_reference, 1e-12, st.tuples(ETA)),
}


def values(result) -> list:
    if isinstance(result, dict):
        return list(result.items())
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("name", sorted(REGISTRY))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_matches_the_mpmath_reference(name, data):
    row = REGISTRY[name]
    args = data.draw(row.args)
    got, want = values(row.function(*args)), values(row.reference(*args))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert g[0] == w[0]
            g, w = g[1], w[1]
        assert_close_or_tiny(g, w, row.rtol)


def test_every_closed_form_has_a_row():
    assert sorted(REGISTRY) == sorted(closed_forms.__all__)


def runtime_imports(module: str) -> set[str]:
    """Modules that covosc.<module> imports when it runs: covosc ones by their short name."""
    tree = ast.parse(Path(closed_forms.__file__).with_name(f"{module}.py").read_text())
    typing_only = {id(node) for block in ast.walk(tree)
                   if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in ast.walk(block)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_closed_forms_imports_no_numpy():
    # the closed forms, and everything they import, load without numpy
    seen, todo, outside = set(), ["closed_forms"], set()
    while todo:
        module = todo.pop()
        seen.add(module)
        for name in runtime_imports(module):
            if Path(closed_forms.__file__).with_name(f"{name}.py").exists():
                todo.extend({name} - seen)
            else:
                outside.add(name.split(".")[0])
    assert seen == {"closed_forms", "kinematics", "errors"}
    assert "numpy" not in outside
    assert outside <= {"__future__", "dataclasses", "math", "typing"}
