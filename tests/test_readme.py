"""The README's examples run as written: its one ``python`` block, and each
command of its "Command line" block through ``cli.run``."""

import re
import shlex
from pathlib import Path

import pytest

from radial_extremals import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str = "") -> str:
    """The first fenced block tagged lang that follows the line after."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(
        README, start)
    return match.group(1)


def _commands() -> list:
    """Each command of the "Command line" block as its argv, continued
    lines joined and comments dropped."""
    text = _block("## Command line").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("radial-extremals ")]


def test_library_tour_runs():
    exec(compile(_block("## Library tour", "python"), "README.md", "exec"),
         {})


@pytest.mark.parametrize("argv", _commands(), ids=lambda a: " ".join(a))
def test_command_line_example_exits_0(argv, capsys):
    assert cli.run(argv) == 0, capsys.readouterr().err
