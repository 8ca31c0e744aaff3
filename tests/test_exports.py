"""Every exported name resolves, and something in the package reads it.

Tools that walk `__all__` (the benchmark tracer wraps each entry it finds with
`getattr`) crash on a name that was deleted but left in an export list. A name
that no module reads is surface without a user; UNREAD lists the few kept on
purpose, so the surface cannot grow back unnoticed. The tracer also reads each
of its layer modules from `sys.modules`, so importing the CLI must load them.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import covosc

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(covosc.__path__) if info.name != "__main__")


def test_package_exports_resolve():
    missing = [name for name in covosc.__all__ if not hasattr(covosc, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"covosc.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


# exported names nothing in src/ reads, each with the reason it stays
UNREAD = {
    "reduce": "the grid reduced density: the numerical cross-check of thermal_row",
    "entropy": "the spectrum entropy of reduce's grid density",
    "purity": "the purity of reduce's grid density",
}


def names_read_in_src() -> set[str]:
    """Names and attributes loaded anywhere in src/, except inside their own definition."""
    read = set()
    for path in Path(covosc.__file__).parent.glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return read


def test_every_export_is_read_or_listed():
    modules = [importlib.import_module(f"covosc.{name}") for name in MODULES]
    exported = set(covosc.__all__).union(*(getattr(m, "__all__", ()) for m in modules))
    assert sorted(exported - names_read_in_src()) == sorted(UNREAD)


def test_importing_the_cli_loads_every_traced_layer():
    # bench/tracer.py looks up sys.modules["covosc.<layer>"] for each of its LAYERS
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    (layers,) = [ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"]
    src = str(Path(covosc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, covosc.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert {f"covosc.{layer}" for layer in layers} <= set(proc.stdout.split())
