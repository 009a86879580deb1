"""Every module of the package reaches its siblings through their public
names: no ``from .<module> import _<name>`` and no ``<module>._<name>``."""

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
