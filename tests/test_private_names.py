"""cli and evolution reach scattering and rootsys only through their public
names: the grid floor, the wall distance and S_L^{1/2} each have one owner in
scattering, and the coroot pairings are read from rootsys's public table."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alcove"


def _private_definitions(tree: ast.Module) -> set:
    """Names starting with _ that a module defines: its functions, classes
    and globals, their methods and class attributes, and self attributes."""
    names = set()
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _uses(source: str, private: set, module: str = "scattering") -> list:
    """(line, name) of every use in source of a name of module in private,
    or of any _ name imported from module."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module):
            hits += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in private:
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in private:
            hits.append((node.lineno, node.id))
    return hits


def _scattering_private() -> set:
    return _private_definitions(ast.parse((PACKAGE / "scattering.py").read_text()))


def test_scan_finds_the_private_scattering_names():
    private = _scattering_private()
    assert {"_kernel_bandwidth", "_half_factor", "_half_cache"} <= private
    assert _uses("from .scattering import WaveTable, _kernel_bandwidth\n", private) \
        == [(1, "_kernel_bandwidth")]
    assert _uses("val = ctx._half_factor(w)[k] ** 2\n", private) == [(1, "_half_factor")]
    assert _uses("eps = rs._pos_coroot_pairings\nval = ctx.smatrix_at(k)\n", private) == []


@pytest.mark.parametrize("module", ["cli.py", "evolution.py"])
def test_module_uses_no_private_scattering_name(module):
    assert _uses((PACKAGE / module).read_text(), _scattering_private()) == []


def _rootsys_private() -> set:
    return _private_definitions(ast.parse((PACKAGE / "rootsys.py").read_text()))


def test_scan_finds_the_private_rootsys_names():
    private = _rootsys_private()
    assert {"_pos_coroot_pairings", "_refl_rows", "_times_simple", "_weyl"} <= private
    assert _uses("eps = rs._pos_coroot_pairings\n", private, "rootsys") \
        == [(1, "_pos_coroot_pairings")]
    assert _uses("from .rootsys import RootSystem, _solve\n", private, "rootsys") \
        == [(1, "_solve")]
    assert _uses("rows = rs.coroot_pairings[rs.positive_rows]\n", private, "rootsys") == []


@pytest.mark.parametrize("module", ["cli.py", "evolution.py"])
def test_module_uses_no_private_rootsys_name(module):
    assert _uses((PACKAGE / module).read_text(), _rootsys_private(), "rootsys") == []
