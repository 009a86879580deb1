"""Every module of the package reaches its siblings through their public
names: no ``from .<module> import _<name>`` and no ``<module>._<name>``.
Every public name is used by the package's own code, or kept on purpose."""

import ast
from pathlib import Path

import pytest

import radial_extremals

PACKAGE = Path(radial_extremals.__file__).parent
MODULES = frozenset(p.stem for p in PACKAGE.glob("*.py")) - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list:
    """(line, text) of every private name taken from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level == 1 or (node.module or "").startswith(
                "radial_extremals")
            found += [(node.lineno, f"from {'.' * node.level}"
                       f"{node.module or ''} import {alias.name}")
                      for alias in node.names
                      if sibling and _private(alias.name)]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in MODULES and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_name_of_a_sibling(path):
    assert private_uses(path.read_text()) == []


def test_flags_both_spellings():
    source = ("from .reduced_ode import ExtremalSpec, _increments\n"
              "from . import quadrature, _x\n"
              "from radial_extremals.weights import _raw\n"
              "quadrature._refine(spec.__class__, w._raw_v, __name__)\n")
    assert private_uses(source) == [
        (1, "from .reduced_ode import _increments"),
        (2, "from . import _x"),
        (3, "from radial_extremals.weights import _raw"),
        (4, "quadrature._refine")]


# public names that no module's code uses, each kept for the reason given
KEPT = {
    "beltrami_residual": "the paper's own equation, M dx = d(V - P*p)",
    "lagrangian_partials_cartesian": "acceptance criterion 08 reads V, M, "
                                     "N and P through it",
    "dphi_dz": "the checked dphi/dz of the reduced equation; the uniform-phi "
               "grid's Newton steps take its unchecked core",
    "eval_q": "acceptance criterion 08 reads q through it",
    "functional_value": "the README tour and acceptance criterion 06 read a "
                        "polyline's value through it",
    "gradient": "acceptance criterion 08 reads the discrete gradient through "
                "it",
    "turning_radius": "the public way to z* alone; ExtremalSpec shares its "
                      "code and keeps v(z*) and g'(z*) from its weight pass",
}


def _base(node) -> str | None:
    """The name an attribute chain such as ``np.linalg.solve`` starts at."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def used_names(source: str) -> set:
    """Every name the module's code reads (an ``ast.Name``, an attribute or
    an import alias), except inside a top-level def or class of that same
    name, so recursion is not a use; an assignment is not a use either.
    Strings are not code: a docstring or an ``__all__`` entry is never a
    use.  An attribute is resolved by its base name: one of a module bound
    by a plain ``import`` outside the package (``np.gradient``,
    ``math.log``) is that module's, not a use of the package's name of the
    same spelling."""
    tree = ast.parse(source)
    foreign = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names
               if not alias.name.startswith("radial_extremals")}
    used = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and _base(node) in foreign:
                continue
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else owner)
            if name != owner and not isinstance(getattr(node, "ctx", None),
                                                ast.Store):
                used.add(name)
    return used


def test_every_public_name_is_used_or_kept():
    used = set().union(*(used_names(p.read_text())
                         for p in PACKAGE.glob("*.py")))
    unused = set(radial_extremals._MODULE_OF) - used
    dead, stale = sorted(unused - set(KEPT)), sorted(set(KEPT) - unused)
    assert not dead, f"public names that no module uses: {', '.join(dead)}"
    assert not stale, f"KEPT names that are used or not public: {stale}"


def test_uses_are_code_outside_their_own_definition():
    source = ('"""f g"""\n__all__ = ["f", "h"]\n'
              "from .m import a as b\n"
              "def f(x):\n    return f(x.g)\n"
              "class C:\n    def h(self):\n        return C, k\n"
              "y = C()\n")
    assert used_names(source) - {"x", "self"} == {"a", "g", "k", "C"}


def test_attributes_of_foreign_modules_are_not_uses():
    source = ("import numpy as np\nimport os.path\n"
              "from . import discrete_oracle\n"
              "np.gradient(x)\nnp.linalg.solve(a, b)\nos.path.join(y)\n"
              "discrete_oracle.minimize(pl).polyline\nw.text()\n")
    assert used_names(source) - {"np", "os", "numpy", "os.path", "x", "y",
                                 "a", "b", "pl", "w"} == {
        "discrete_oracle", "minimize", "polyline", "text"}


def dead_names(source: str) -> list:
    """Names the module binds by an import (``__future__`` aside) or as a
    private top-level function, class or constant, and never reads: no
    ``ast.Name`` loads it outside a top-level def or class of that same
    name, so recursion is not a read, and neither is a string."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names = [n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)]
        else:
            continue
        bound |= {name for name in names if _private(name)}
    read = {node.id for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id != getattr(stmt, "name", None)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_and_private_name_is_read(path):
    assert dead_names(path.read_text()) == []


def test_dead_names_flags_imports_and_private_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .m import a, b as c\n"
              "_LIMIT = 3\n_SEEN, _x = {}, 1\n_T: int = 2\n"
              "def _helper(x):\n    return _helper(x - 1)\n"
              "class _Box:\n    pass\n"
              "def f(y: c) -> float:\n"
              "    from . import checks\n"
              "    return np.hypot(y, _LIMIT) + _SEEN[y] + _Box.__name__\n")
    assert dead_names(source) == ["_T", "_helper", "_x", "a", "checks",
                                  "math", "os"]
