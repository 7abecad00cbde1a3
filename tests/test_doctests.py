"""Run every module's docstring examples and the README's, library and
console alike; they double as API anchors."""

from __future__ import annotations

import doctest
import shlex
from pathlib import Path

import pytest

import bregperm.bijection
import bregperm.bregular
import bregperm.cli
import bregperm.core
import bregperm.cycindex
import bregperm.oracles
import bregperm.permanent
import bregperm.stein
import bregperm.verify

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = (
    bregperm.core,
    bregperm.permanent,
    bregperm.bregular,
    bregperm.bijection,
    bregperm.cycindex,
    bregperm.oracles,
    bregperm.stein,
    bregperm.cli,
    bregperm.verify,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_console_examples(tmp_path, monkeypatch, capsys):
    # each `$ bregperm ...` line exits 0 and prints the lines shown under
    # it, in order; `...` stands for lines left out
    block = README.read_text().split("```console\n", 1)[1].split("```", 1)[0]
    commands: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ bregperm "):
            commands.append((shlex.split(line.removeprefix("$ bregperm "), comments=True), []))
        elif line and line != "...":
            commands[-1][1].append(line)
    assert commands
    monkeypatch.chdir(tmp_path)  # `clt --out hist.csv` writes here
    for argv, shown in commands:
        assert bregperm.cli.main(argv) == 0, argv
        printed = iter(capsys.readouterr().out.splitlines())
        assert all(line in printed for line in shown), argv
