"""Every tcq name that the benchmark and the scripts look up still resolves.

The files are only parsed here, never run or changed: the benchmark's
tracer patches tcq functions by name, and a deleted name would surface
there only as an AttributeError in a traced run.
"""

from __future__ import annotations

import ast
import importlib

import pytest

from conftest import REPO_ROOT

CALLERS = sorted((REPO_ROOT / "perfbench").glob("*.py")) + sorted(
    (REPO_ROOT / "scripts").glob("*.py")
)


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name} = ...")


def _tcq_lookups(tree: ast.Module) -> set[tuple[str, ...]]:
    """Dotted names read off the ``tcq`` package (``tcq.sim.simulate`` gives
    ("sim", "simulate")), and ``from tcq... import name`` imports."""
    found: set[tuple[str, ...]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tcq":
            module = tuple(node.module.split(".")[1:])
            found.update(module + (alias.name,) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                tuple(a.name.split(".")[1:]) for a in node.names if a.name.split(".")[0] == "tcq"
            )
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "tcq":
                found.add(tuple(reversed(chain)))
    found.discard(())
    return found


def _resolves(path: tuple[str, ...]) -> bool:
    obj = importlib.import_module("tcq")
    for i, name in enumerate(path):
        if hasattr(obj, name):
            obj = getattr(obj, name)
            continue
        try:  # a submodule the package itself does not import, like tcq.cli
            obj = importlib.import_module(".".join(("tcq",) + path[: i + 1]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_traced_and_counted_name_resolves():
    tree = _tree(REPO_ROOT / "perfbench" / "tracing.py")
    names = {**_literal(tree, "TRACED"), **_literal(tree, "COUNTED")}
    assert "viterbi.reduced_transition" in names
    for layer, (module, attr) in names.items():
        assert callable(getattr(importlib.import_module(module), attr)), layer


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_tcq_name_a_caller_uses_resolves(path):
    lookups = sorted(_tcq_lookups(_tree(path)))
    assert not [".".join(("tcq",) + d) for d in lookups if not _resolves(d)]
