"""The demos stay runnable.

Demos 01-03 run in subprocesses and must exit 0 (about 2 s together).  For
all six demos, the syntax tree is read and every ``w.<name>`` attribute of
an ``import wpsim as w`` alias, and every name of a ``from wpsim... import``,
must resolve; and every ``w.<name>(...)`` call must bind its positional
count and keyword names to the callee's signature (calls that pass ``*`` or
``**`` are skipped).  Demos 04-06 take about 20 s together and are not run,
so nothing checks the values they compute.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpsim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))
RUN = ("01", "02", "03")


def wpsim_aliases(tree: ast.Module) -> dict[str, object]:
    """The names that the module's ``import`` statements bind to wpsim modules."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "wpsim":
                    # "import wpsim.x" binds wpsim; "import wpsim.x as y" binds y to wpsim.x
                    module = alias.name if alias.asname else "wpsim"
                    aliases[alias.asname or "wpsim"] = importlib.import_module(module)
    return aliases


def wpsim_names(tree: ast.Module) -> list[tuple[str, object, str]]:
    """(spelling, module, name) for every wpsim name the module uses: the
    names it imports from wpsim modules and the attributes it reads off
    names bound to them by ``import``."""
    used, aliases = [], wpsim_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "wpsim":
            module = importlib.import_module(node.module)
            used += [(f"from {node.module} import {a.name}", module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.append((f"{node.value.id}.{node.attr}", aliases[node.value.id], node.attr))
    return used


def unbound_calls(tree: ast.Module) -> tuple[int, list[str]]:
    """(calls checked, failures) over the ``w.<name>(...)`` calls of the
    module's wpsim aliases that pass no ``*`` or ``**`` argument: each call's
    positional count and keyword names are bound to the callee's signature."""
    aliases, checked, failures = wpsim_aliases(tree), 0, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            continue
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(keyword.arg is None for keyword in node.keywords)):
            continue
        checked += 1
        func = node.func
        callee = getattr(aliases[func.value.id], func.attr)
        try:
            inspect.signature(callee).bind(*node.args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            failures.append(f"line {node.lineno}: {func.value.id}.{func.attr}: {exc}")
    return checked, failures


def test_every_demo_is_covered():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_wpsim_names_resolve(demo):
    used = wpsim_names(ast.parse(demo.read_text(), filename=str(demo)))
    assert used, "the demo uses no wpsim name"
    missing = sorted({spelling for spelling, module, name in used if not hasattr(module, name)})
    assert not missing, missing


def test_name_check_catches_a_missing_name():
    tree = ast.parse("import wpsim as w\nfrom wpsim.runner import parse_config, no_such\n"
                     "w.make_grid(0, 1, 64)\nw.no_such_either()\n")
    missing = {spelling for spelling, module, name in wpsim_names(tree) if not hasattr(module, name)}
    assert missing == {"from wpsim.runner import no_such", "w.no_such_either"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_wpsim_calls_bind(demo):
    checked, failures = unbound_calls(ast.parse(demo.read_text(), filename=str(demo)))
    assert checked, "the demo calls no wpsim function"
    assert not failures, failures


def test_call_check_catches_a_renamed_keyword():
    tree = ast.parse("import wpsim as w\nw.RunConfig(dt=0.1, t_fin=1.0)\n"
                     "w.RunConfig(*args)\nw.make_grid(**grid)\nw.make_grid(0, 1, 64)\n")
    checked, failures = unbound_calls(tree)
    assert checked == 2
    assert failures == ["line 2: w.RunConfig: missing a required argument: 't_final'"]


@pytest.mark.parametrize("demo", [d for d in DEMOS if d.name[:2] in RUN], ids=lambda path: path.stem)
def test_fast_demo_exits_0(demo):
    src = Path(wpsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
