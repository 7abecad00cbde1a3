"""Run every module's docstring examples and the README's; they double as
API anchors."""

from __future__ import annotations

import doctest
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
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert result.attempted > 0 and result.failed == 0
