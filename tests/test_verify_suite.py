"""The self-contained cross-verification suite: structure of its results,
the pinned check set, and a full-level run requiring every check to pass
and every public module-level function (and CLI subcommand) to be
exercised; methods of the value types are outside that checklist.

`TestFullLevel` is how the test suite runs `verify full`, so it carries the
exact cross-checks of the library against its oracles (counts, moments
and the bijection against enumeration, closed forms on their ranges).
The per-module test files do not restate them; with the acceptance gate
they hold contracts, pins and properties over wider domains."""

from __future__ import annotations

import pytest

from bregperm.verify import _CHECKS, CheckResult, format_results, run_checks

# every op some check declares; `verify full` requires this to cover the code
DECLARED = frozenset(op for _, _, ops in _CHECKS for op in ops)

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


@pytest.fixture(scope="module")
def quick() -> list[CheckResult]:
    return run_checks("quick")


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
        from bregperm.verify import _public_operations

        ops = _public_operations()
        assert {op.partition(".")[0] for op in ops} == {
            "core", "permanent", "bregular", "bijection", "cycindex", "stein", "cli"}
        for op in ops:
            module, _, name = op.partition(".")
            if module != "cli":
                assert hasattr(bregperm, name), f"{op} not re-exported"


class TestFullLevel:
    def test_everything_passes_with_cli_coverage(self):
        results = run_checks("full")
        assert [r.name for r in results] == CHECK_NAMES + ["coverage: operation checklist"]
        failures = [r for r in results if not r.passed]
        assert not failures, format_results(results)
        assert results[-1].assertions == len(DECLARED)


class TestCoverageRow:
    """The coverage row reads the operations off the code, so a new public
    function, or a check that stops declaring one, fails it by name."""

    @staticmethod
    def coverage(monkeypatch, ops) -> CheckResult:
        import bregperm.verify

        monkeypatch.setattr(bregperm.verify, "_CHECKS", (("stub", lambda full, expect: "ok", tuple(ops)),))
        return run_checks("full")[-1]

    def test_new_library_function_fails_until_declared(self, monkeypatch):
        import bregperm.stein

        assert self.coverage(monkeypatch, DECLARED).passed

        def k_cycle_law(n, k):
            return n, k

        k_cycle_law.__module__ = "bregperm.stein"
        monkeypatch.setattr(bregperm.stein, "k_cycle_law", k_cycle_law, raising=False)
        row = self.coverage(monkeypatch, DECLARED)
        assert not row.passed
        assert row.detail == "not exercised: stein.k_cycle_law"

    def test_dropped_declaration_fails(self, monkeypatch):
        row = self.coverage(monkeypatch, DECLARED - {"bijection.composition_to_index"})
        assert not row.passed
        assert row.detail == "not exercised: bijection.composition_to_index"


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
