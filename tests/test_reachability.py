"""Every public name in the library is reached from outside the tests.

A public module-level function or class of ``src/closurelab``, and a public
method or property of such a class (``Class.member``), must be referenced
by name from ``src/``, ``perfbench/`` or ``tools/`` (inside the package, a
use within its own body does not count, nor does a use within another
definition that is itself unreached, so a dead chain is flagged whole), or
be listed in ``KEPT`` with the reason it stays.  Code that only its own unit
tests call is deleted instead.
Inside the package, a module's imports and the strings of its ``__all__``
are not references, only its uses of a name are, so a re-export cannot keep
a dead name alive.
A member shares its name with every other use of that name, so the rule
cannot see a dead member whose name is alive elsewhere.

A second rule: no module of ``src/``, ``tests/`` or ``tools/`` imports a
name it never uses (``from __future__`` aside).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "closurelab"
REFERENCE_DIRS = ("src", "perfbench", "tools")

KEPT = {
    "count_small_support": "subject of acceptance criterion 10",
    "degenerate_decide": "subject of acceptance criterion 8",
    "basic_set": "the paper's basic matrix sets, checked by the closedness tests",
    "subspace_groupset": "a subspace as a GroupSet, the other set family beside basic_set",
    "rank1": "validating constructor of a rank-1 tensor; rank1_flat is its unchecked core",
    "from_hex": "inverse of to_hex, the hex serialization of every payload vector",
    "is_compatible": "per-point compatibility, the definition compatibility_fraction_exact counts",
    "TensorShape.unflat": "inverse of flat; the bijection test pins the row-major order through it",
    "Tensor.to_array": "dense numpy view of a packed tensor, the outer-product definition of rank1",
    "Tensor.from_array": "inverse of to_array; the round-trip test pins the bit order through it",
    "LayerSet.to_groupset": "the dense layer set, the definition the estimators are checked against",
    "SliceSet.to_groupset": "the dense slice, the definition the estimators are checked against",
}


def _public(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _public_definitions() -> dict[str, str]:
    """Public functions, classes and ``Class.member`` methods and properties -> file."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in filter(_public, ast.parse(path.read_text()).body):
            out[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for member in filter(_public, node.body):
                    out[f"{node.name}.{member.name}"] = path.name
    return out


def _reexports(node: ast.AST) -> bool:
    """A module-level import, or an assignment to ``__all__``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names(node: ast.AST, own: frozenset[str] = frozenset()) -> set[str]:
    """Names used as identifiers, attributes, imports or dotted string
    constants anywhere in ``node``, less ``own``.  An attribute of ``np`` or
    ``numpy`` is numpy's name, not a use of the package's."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in ("np", "numpy")):
                names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))  # e.g. perfbench's "SimpleSet.member" spans
    return names - own


def _referenced_names() -> set[str]:
    """Names referenced from a live place, to a fixed point.

    Outside the package every use is live, and so is every module-level
    statement of the package other than its imports and ``__all__``.  The
    body of a package definition is live only once its name is referenced
    (or kept): a function's or class's, a method's by the method's name, and
    a dunder method's by its class's.  A definition's own body does not count
    for its name.
    """
    live: set[str] = set()
    bodies: list[tuple[str, set[str]]] = []  # (name that makes it live, its references)
    for folder in REFERENCE_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if path.parent != PACKAGE:
                live |= _names(tree)
                continue
            for node in tree.body:
                if _reexports(node):
                    continue
                if isinstance(node, ast.FunctionDef):
                    bodies.append((node.name, _names(node, frozenset({node.name}))))
                elif isinstance(node, ast.ClassDef):
                    for part in ast.iter_child_nodes(node):
                        key, own = node.name, frozenset({node.name})
                        if isinstance(part, ast.FunctionDef):
                            own |= {part.name}
                            if not part.name.startswith("__"):
                                key = part.name
                        bodies.append((key, _names(part, own)))
                else:
                    live |= _names(node)
    kept = {name.rsplit(".", 1)[-1] for name in KEPT}
    while ready := [refs for key, refs in bodies if key in live or key in kept]:
        bodies = [(key, refs) for key, refs in bodies if not (key in live or key in kept)]
        for refs in ready:
            live |= refs
    return live


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = _public_definitions()
    assert set(KEPT) <= set(defined), f"KEPT names no longer defined: {set(KEPT) - set(defined)}"
    referenced = _referenced_names()
    unreached = {name for name in defined if name.rsplit(".", 1)[-1] not in referenced}
    assert unreached - set(KEPT) == set(), {n: defined[n] for n in unreached - set(KEPT)}
    # a kept name that gained a caller leaves the list
    assert set(KEPT) - unreached == set()


IMPORT_DIRS = ("src", "tests", "tools")


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports (``from __future__`` aside) and never uses by name."""
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".", 1)[0] for alias in node.names}
    return imported - {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}


def test_no_unused_imports():
    unused = {}
    for folder in IMPORT_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            names = _unused_imports(ast.parse(path.read_text()))
            if names:
                unused[str(path.relative_to(ROOT))] = sorted(names)
    assert unused == {}
