"""The narrative scripts under demos/: each main() runs to the end against
the current public API and prints exactly its recorded walk."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to what a demo prints updates its row
STDOUT_SHA256 = {
    "bijection_tour": "53e9216fa01419b060fd1cb22394198e5cc8a0039871cf714abc3fa63849b7c9",
    "counting_and_permanents": "fcc5a6b4f6450aefa903abe03d367ae56d08cea5c613c7c1686f41d0eecf133d",
    "moments_and_series": "8d7f6e5299a92bc5ca60a7f4d0d44cece324e9eb7474a53305b81b98ce818753",
    "normal_approximation": "fb7bbc0ddeeb5f460fa02f46231b283b953ebda6eaccea571fe5256b2eab652a",
    "sampler_uniformity": "f634235556de08aeadf0e6f7f5ab3403a8ef2c2f97c3e2ec40080a4fb3c2f200",
}


def test_demos_are_found():
    assert [path.stem for path in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
