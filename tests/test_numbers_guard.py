"""The package tests whether an argument is a number in one place: only
``errors`` (its ``real`` and ``real_array``) imports ``numbers`` or calls
``isinstance`` with a ``numbers`` class, so a refusal cannot grow back at
one entry at a time."""

import ast
from pathlib import Path

import pytest

import radial_extremals

PACKAGE = Path(radial_extremals.__file__).parent


def number_tests(source: str) -> list:
    """(line, text) of every import of numbers and every isinstance call
    with a numbers class among its types."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name.partition(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append((node.lineno, "from numbers import ..."))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name)
                      and n.value.id == "numbers"
                      for n in ast.walk(node.args[1]))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_errors_tests_for_numbers(path):
    found = number_tests(path.read_text())
    if path.name == "errors.py":
        assert found, "errors.py no longer holds the argument checker"
    else:
        assert found == []


def test_flags_every_spelling():
    source = ("import numbers\nimport numbers as nb, math\n"
              "from numbers import Real\n"
              "isinstance(x, numbers.Real)\n"
              "ok = isinstance(n, (int, numbers.Integral)) and n > 0\n"
              "isinstance(x, float)\nnumbers.Real.register(t)\n")
    assert number_tests(source) == [
        (1, "import numbers"), (2, "import numbers"),
        (3, "from numbers import ..."),
        (4, "isinstance(x, numbers.Real)"),
        (5, "isinstance(n, (int, numbers.Integral))")]
