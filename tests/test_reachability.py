"""Every public name in the library is reached from outside the tests.

A public module-level function or class of ``src/closurelab`` must be
referenced from ``src/``, ``perfbench/`` or ``tools/`` (inside the package,
a use within its own body does not count), or be listed in ``KEPT`` with
the reason it stays.  Code that only its own unit tests call is deleted instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "closurelab"
REFERENCE_DIRS = ("src", "perfbench", "tools")

KEPT = {
    "check_forcing": "subject of acceptance criterion 6",
    "count_small_support": "subject of acceptance criterion 10",
    "degenerate_decide": "subject of acceptance criterion 8",
    "basic_set": "the paper's basic matrix sets, checked by the closedness tests",
    "subspace_groupset": "a subspace as a GroupSet, the other set family beside basic_set",
    "rank1": "validating constructor of a rank-1 tensor; rank1_flat is its unchecked core",
    "matrix_rank": "per-matrix GF(2) rank, the definition behind rank_reach's layers",
    "from_hex": "inverse of to_hex, the hex serialization of every payload vector",
    "is_compatible": "per-point compatibility, the definition compatibility_fraction_exact counts",
}


def _public_definitions() -> dict[str, str]:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _referenced_names() -> set[str]:
    """Names used as identifiers, attributes, imports or dotted string constants."""
    names: set[str] = set()

    def visit(node: ast.AST, own: str | None, in_package: bool) -> None:
        if in_package and own is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = node.name
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.alias):
            found = [node.name.rsplit(".", 1)[-1]]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = node.value.split(".")  # e.g. perfbench's "SimpleSet.member" spans
        else:
            found = []
        names.update(name for name in found if name != own)
        for child in ast.iter_child_nodes(node):
            visit(child, own, in_package)

    for folder in REFERENCE_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            visit(ast.parse(path.read_text()), None, path.parent == PACKAGE)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = _public_definitions()
    assert set(KEPT) <= set(defined), f"KEPT names no longer defined: {set(KEPT) - set(defined)}"
    unreached = set(defined) - _referenced_names()
    assert unreached - set(KEPT) == set(), {n: defined[n] for n in unreached - set(KEPT)}
    # a kept name that gained a caller leaves the list
    assert set(KEPT) - unreached == set()
