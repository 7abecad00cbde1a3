"""The self-contained cross-verification suite: structure of its results,
the pinned check set, and a full-level run requiring every check to pass.

`TestFullLevel` is how the test suite runs `verify full`, so it carries the
exact cross-checks of the library against its oracles (counts, moments
and the bijection against enumeration, closed forms on their ranges).
The per-module test files do not restate them; with the acceptance gate
they hold contracts, pins and properties over wider domains."""

from __future__ import annotations

import inspect
import sys
from typing import Callable

import pytest

from bregperm import bijection, bregular, cli, core, cycindex, permanent, stein
from bregperm.verify import CheckResult, format_results, run_checks

# The benchmark's per-check metrics and the `verify quick` output digest key
# on these names; a check may move between suites but must not disappear.
CHECK_NAMES = [
    "core: restriction matrices",
    "core: cycle decompositions",
    "permanent: two algorithms agree",
    "permanent: product formula",
    "permanent: fixed-point minors",
    "permanent: reduction order",
    "bregular: membership and counts",
    "bregular: cycle-count means",
    "bregular: fixed-point moments",
    "bregular: cycle shape law",
    "bijection: round trips",
    "bijection: cycles vs parts",
    "bijection: part totals",
    "cycindex: three pipelines",
    "cycindex: series health",
    "stein: mean decomposition",
    "stein: covariance decomposition",
    "stein: joint oracle",
    "stein: independence ranges",
    "stein: bound anchors",
    "stein: sampled normal approximation",
    "stein: wider-staircase probe",
    "cli: subcommand smoke",
]


def public_operations() -> dict[str, Callable]:
    """``module.name`` -> function for every public function defined in a
    library module, and ``cli.cmd_<name>`` -> handler for every subcommand
    but ``verify``, which a run of the checks cannot start from inside itself
    (tests/test_cli.py runs it).  Methods of the value types are left out."""
    ops = {
        f"{module.__name__.rpartition('.')[2]}.{name}": obj
        for module in (core, permanent, bregular, bijection, cycindex, stein)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }
    ops.update((f"cli.cmd_{name}", fn) for name, fn in cli._DISPATCH.items() if name != "verify")
    return ops


def recorded_run(monkeypatch: pytest.MonkeyPatch, level: str) -> tuple[list[CheckResult], list[str]]:
    """Run the checks at `level` with every public operation wrapped, at each
    ``bregperm.*`` attribute bound to it and in ``cli._DISPATCH``, to record
    its calls; return the results and the operations never called.  The
    wrappers stay until `monkeypatch` undoes them."""
    called: set[str] = set()

    def recording(op: str, fn: Callable) -> Callable:
        def recorded(*args, **kwargs):
            called.add(op)
            return fn(*args, **kwargs)
        return recorded

    ops = public_operations()
    wrappers = {fn: recording(op, fn) for op, fn in ops.items() if not op.startswith("cli.")}
    for name, module in list(sys.modules.items()):
        if name == "bregperm" or name.startswith("bregperm."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[obj])
    for name, fn in cli._DISPATCH.items():
        if name != "verify":
            monkeypatch.setitem(cli._DISPATCH, name, recording(f"cli.cmd_{name}", fn))
    results = run_checks(level)
    return results, sorted(ops.keys() - called)


@pytest.fixture(scope="module")
def quick_run() -> tuple[list[CheckResult], list[str]]:
    with pytest.MonkeyPatch.context() as mp:
        return recorded_run(mp, "quick")


@pytest.fixture(scope="module")
def quick(quick_run) -> list[CheckResult]:
    return quick_run[0]


class TestStructure:
    def test_quick_level(self, quick):
        assert all(isinstance(r, CheckResult) for r in quick)
        assert all(r.passed for r in quick), format_results(quick)
        assert all(r.elapsed >= 0 for r in quick)
        assert sum(r.assertions for r in quick) > 1000

    def test_check_names_are_pinned(self, quick):
        assert [r.name for r in quick] == CHECK_NAMES

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            run_checks("exhaustive")

    def test_format_lines(self, quick):
        text = format_results(quick)
        lines = text.splitlines()
        status = [ln for ln in lines[:-1] if not ln.startswith(" ")]
        assert len(status) == len(quick)
        assert all(line.startswith(("PASS", "FAIL")) for line in status)
        assert lines[-1].startswith("checks:")
        assert "0 failures" in lines[-1]

    def test_checklist_names_public_api(self):
        import bregperm

        ops = public_operations()
        assert {op.partition(".")[0] for op in ops} == {
            "core", "permanent", "bregular", "bijection", "cycindex", "stein", "cli"}
        for op in ops:
            module, _, name = op.partition(".")
            if module != "cli":
                assert hasattr(bregperm, name), f"{op} not re-exported"

    def test_quick_level_calls_every_operation(self, quick_run):
        # CI's installed-package job runs only `verify quick`, so this makes it
        # a smoke test of the whole public API
        _, uncalled = quick_run
        assert uncalled == []


class TestFullLevel:
    def test_everything_passes_with_cli_coverage(self, monkeypatch):
        results, uncalled = recorded_run(monkeypatch, "full")
        assert [r.name for r in results] == CHECK_NAMES
        failures = [r for r in results if not r.passed]
        assert not failures, format_results(results)
        assert uncalled == []


class TestCoverageRow:
    """The calls are measured, not declared, so a new public function, or a
    check that stops calling one, leaves it uncalled by name."""

    def test_new_library_function_fails_until_declared(self, monkeypatch):
        def k_cycle_law(n, k):
            return n, k

        k_cycle_law.__module__ = "bregperm.stein"
        monkeypatch.setattr(stein, "k_cycle_law", k_cycle_law, raising=False)
        _, uncalled = recorded_run(monkeypatch, "quick")
        assert uncalled == ["stein.k_cycle_law"]

    def test_dropped_declaration_fails(self, monkeypatch):
        import bregperm.verify

        checks = tuple(c for c in bregperm.verify._CHECKS if c[0] != "bijection: round trips")
        monkeypatch.setattr(bregperm.verify, "_CHECKS", checks)
        results, uncalled = recorded_run(monkeypatch, "quick")
        assert len(results) == len(CHECK_NAMES) - 1
        assert uncalled == ["bijection.composition_to_index", "bijection.record_positions"]


class TestFailurePath:
    """A counterexample becomes one FAIL row and exit code 2, and leaves the
    other checks alone."""

    @pytest.fixture
    def off_by_one_totals(self, monkeypatch):
        import bregperm.verify

        true_totals = bregperm.verify.total_k_parts
        monkeypatch.setattr(bregperm.verify, "total_k_parts", lambda n, k: true_totals(n, k) + 1)

    def test_counterexample_fails_only_its_check(self, off_by_one_totals):
        results = run_checks("quick")
        assert [r.name for r in results] == CHECK_NAMES
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["bijection: part totals"]
        assert failed[0].detail == "total 1-parts over compositions of 1: formula 2, enumeration 1"
        assert format_results(results).splitlines()[-1].endswith(", 1 failures")

    def test_cli_exit_code(self, off_by_one_totals, capsys):
        from bregperm import cli

        assert cli.main(["verify", "quick"]) == 2
        assert "FAIL  bijection: part totals" in capsys.readouterr().out


class TestCrashPath:
    """An exception other than a false claim also fails only its own check."""

    @pytest.fixture
    def crashing_totals(self, monkeypatch):
        import bregperm.verify

        def crash(n, k):
            raise ValueError(f"no totals for n={n}")

        monkeypatch.setattr(bregperm.verify, "total_k_parts", crash)

    def test_crash_fails_only_its_check(self, crashing_totals):
        results = run_checks("quick")
        assert [r.name for r in results] == CHECK_NAMES
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["bijection: part totals"]
        assert failed[0].detail == "ValueError: no totals for n=1"
        assert sum(r.passed for r in results) == 22

    def test_cli_exit_code(self, crashing_totals, capsys):
        from bregperm import cli

        assert cli.main(["verify", "quick"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  bijection: part totals" in out
        assert out.count("FAIL") == 1
