"""The README's commands and the demos run as documented."""

import pathlib
import runpy
import shlex
import sys

import pytest

from solvlen.cli import run_command

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the full degree-128 lift; test_d8_pipeline runs the same stages
FULL_LIFT = ["demos/lifting.py"]


def readme_block(heading):
    """The argument lists of the first sh block under a README heading,
    comments dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split(f"## {heading}\n", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line, comments=True)
            for line in block.split("```", 1)[0].splitlines()]


COMMANDS = [argv[1:] for argv in readme_block("Command line")
            if argv[0] == "grp"]
DEMOS = [argv[1:] for argv in readme_block("Demos")]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, capsys):
    assert run_command(argv) == 0
    assert capsys.readouterr().out


def test_every_demo_is_listed():
    listed = {argv[0] for argv in DEMOS}
    assert listed == {f"demos/{p.name}" for p in ROOT.glob("demos/*.py")}


@pytest.mark.parametrize("argv", [a for a in DEMOS if a != FULL_LIFT],
                         ids=" ".join)
def test_demo_runs(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    assert capsys.readouterr().out
