"""Cross-verification suites tying every module to an independent oracle.

Each check re-derives a quantity along two or more unrelated pipelines
(closed form, generating series, inclusion-exclusion permanent, exhaustive
enumeration, vectorised sampling) and demands exact agreement wherever the
arithmetic is rational.  The brute-force side of every comparison comes from
:mod:`bregperm.oracles`, the same reference the test suite uses.  Checks run
at two levels:

* ``quick``  -- exhaustive oracles up to n = 8; purely deterministic.
* ``full``   -- oracles up to n = 12..14 (criterion-sized ranges), the
  large-n scaling checks, and one seeded statistical run of the normal
  approximation.

``run_checks`` returns one :class:`CheckResult` per suite; the CLI renders
them and maps any failure to a nonzero exit code.  Each suite declares the
public operations it exercises, and at the ``full`` level the run also
asserts that those declarations cover every operation of every module.
"""

from __future__ import annotations

import io
import itertools
import math
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import oracles
from .bijection import (
    composition_to_perm,
    enumerate_compositions,
    perm_to_composition,
    record_positions,
    total_k_parts,
)
from .bregular import (
    count_b_regular,
    count_k_cycles,
    enumerate_b_regular,
    fixed_point_mean,
    fixed_point_variance,
    sample_b_regular,
)
from .core import Permutation, RestrictionMatrix, RestrictionVector, cycle_type, matrix_from_vector
from .cycindex import (
    extract_factorial_moment,
    mean_formula_is_exact,
    mean_k_cycles,
    second_falling_formula_is_exact,
    second_falling_moment,
    variance_k_cycles,
)
from .permanent import permanent_enumerate, permanent_ryser, reduce_vector_on_fixed_point, count_with_fixed_points
from .stein import (
    clt_empirical_test,
    dependence_threshold,
    independence_probe,
    indicator_law,
    indicator_probability,
    joint_indicator_probability,
    kolmogorov_from_wasserstein,
    shifted_moment_sums,
    stein_bound_report,
    wasserstein_bound,
)

# Tolerances and seeds pinned for the statistical checks.  The seed is part
# of the published interface: rerunning with these constants reproduces the
# shipped numbers bit for bit.
KS_TOLERANCE = 0.02
MEAN_SE_TOLERANCE = 3.0
VARIANCE_REL_TOLERANCE = 0.05
BOUND_MATCH_TOLERANCE = 1e-9
SCALING_REL_TOLERANCE = 0.01
CLT_PUBLISHED_SEED = 42
CLT_SAMPLE_COUNT = 100_000

#: Public operations per module; `verify full` must exercise all of them.
OPS_CHECKLIST: dict[str, tuple[str, ...]] = {
    "core": ("matrix_from_vector", "cycle_type"),
    "permanent": (
        "permanent_ryser",
        "permanent_enumerate",
        "reduce_vector_on_fixed_point",
        "count_with_fixed_points",
    ),
    "bregular": (
        "count_b_regular",
        "enumerate_b_regular",
        "sample_b_regular",
        "fixed_point_mean",
        "fixed_point_variance",
        "count_k_cycles",
    ),
    "bijection": (
        "record_positions",
        "perm_to_composition",
        "composition_to_perm",
        "enumerate_compositions",
        "total_k_parts",
    ),
    "cycindex": (
        "extract_factorial_moment",
        "mean_k_cycles",
        "variance_k_cycles",
        "second_falling_moment",
    ),
    "stein": (
        "indicator_probability",
        "joint_indicator_probability",
        "dependence_threshold",
        "shifted_moment_sums",
        "wasserstein_bound",
        "kolmogorov_from_wasserstein",
        "clt_empirical_test",
    ),
    "cli": (
        "cmd_count",
        "cmd_moments",
        "cmd_bound",
        "cmd_clt",
        "cmd_sample",
        "cmd_compose",
        # cmd_verify is left out: the suite cannot run itself, and
        # tests/test_cli.py covers the `verify` entry point
    ),
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    detail: str
    assertions: int
    elapsed: float


class _Failure(AssertionError):
    """Raised inside a check with the first counterexample message."""


@dataclass(frozen=True)
class _Ranges:
    """Size limits for one verification level."""

    all_b: int            # exhaustive scan over every valid restriction vector
    family: int           # b2/b3 exhaustive enumerations
    bijection: int        # round-trip range
    pipelines: int        # three-way moment comparison range
    series_order: int     # mass and variance identity range
    mean_sum: int         # sum-of-indicators identity range
    pair_scan: int        # exact pairwise covariance / independence range
    statistical: bool     # include the seeded sampling run


_LEVELS = {
    "quick": _Ranges(all_b=5, family=8, bijection=8, pipelines=8,
                     series_order=12, mean_sum=40, pair_scan=16, statistical=False),
    "full": _Ranges(all_b=6, family=12, bijection=14, pipelines=14,
                    series_order=30, mean_sum=200, pair_scan=40, statistical=True),
}


def _fail(message: str, *values: object) -> None:
    raise _Failure(message.format(*values))


def _random_vector(rng: random.Random, top: int) -> RestrictionVector:
    """A valid restriction vector of random size 1..top."""
    entries: list[int] = []
    for i in range(1, rng.randint(1, top) + 1):
        entries.append(rng.randint(entries[-1] if entries else 1, i))
    return RestrictionVector(tuple(entries))


# ---------------------------------------------------------------------------
# core


def _check_core_matrix(r: _Ranges) -> tuple[str, int]:
    checked = 0
    vectors = 0
    for n in range(1, r.all_b + 1):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            m = matrix_from_vector(b)
            total = 0
            for i in range(1, n + 1):
                ones = sum(m.rows[i - 1])
                if ones != n - entries[i - 1] + 1:
                    _fail("row {} of matrix for b={} has {} ones, expected {}", i, entries, ones, n - entries[i - 1] + 1)
                total += ones
                checked += 1
            if total != sum(n - bi + 1 for bi in entries):
                _fail("total ones mismatch for b={}", entries)
            checked += 1
            vectors += 1
    return f"row/total ones verified for all {vectors} valid vectors with n <= {r.all_b}", checked


def _check_core_cycles(r: _Ranges) -> tuple[str, int]:
    checked = 0
    rng = random.Random(0)
    perms: list[Permutation] = []
    for n in range(1, r.family + 1):
        perms.extend(enumerate_b_regular(RestrictionVector.b2(n)))
    for n in range(2, 11):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    for p in perms:
        rebuilt = [0] * p.n
        for cycle in p.cycles():
            for a, b_ in zip(cycle, cycle[1:] + cycle[:1]):
                rebuilt[a - 1] = b_
        if tuple(rebuilt) != p.images:
            _fail("cycle decomposition of {} does not recompose", p.images)
        ct = cycle_type(p)
        if ct.total_size != p.n or ct.cycle_count != len(p.cycles()):
            _fail("cycle type of {} inconsistent: {}", p.images, ct)
        checked += 2
    return f"cycle decompositions recompose for {len(perms)} permutations", checked


# ---------------------------------------------------------------------------
# permanent


def _check_permanent_oracle(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, r.all_b + 1):
        for entries in oracles.valid_vectors(n):
            m = matrix_from_vector(RestrictionVector(entries))
            if permanent_ryser(m) != permanent_enumerate(m):
                _fail("Ryser vs enumeration mismatch for b={}", entries)
            checked += 1
    rng = random.Random(1)
    rounds = 60 if r.statistical else 30
    top = 8 if r.statistical else 6
    for _ in range(rounds):
        n = rng.randint(1, top)
        m = RestrictionMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        if permanent_ryser(m) != permanent_enumerate(m):
            _fail("Ryser vs enumeration mismatch for random matrix {}", m.rows)
        checked += 1
    return f"inclusion-exclusion equals direct sum on {checked} matrices", checked


def _check_permanent_product(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, 7):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            if permanent_ryser(matrix_from_vector(b)) != count_b_regular(b):
                _fail("permanent disagrees with product formula for b={}", entries)
            checked += 1
    if r.statistical:
        rng = random.Random(2)
        for _ in range(40):
            b = _random_vector(rng, 12)
            if permanent_ryser(matrix_from_vector(b)) != count_b_regular(b):
                _fail("permanent disagrees with product formula for b={}", b.entries)
            checked += 1
    return f"permanent equals the one-line product on {checked} vectors", checked


def _check_permanent_fixed_points(r: _Ranges) -> tuple[str, int]:
    top = 7 if r.statistical else 5
    checked = 0
    for n in range(1, top + 1):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            m = matrix_from_vector(b)
            for i in range(1, n + 1):
                if n == 1:
                    minor_value = 1  # empty minor: empty-product convention
                else:
                    minor_value = permanent_ryser(RestrictionMatrix(tuple(
                        tuple(v for c, v in enumerate(row) if c != i - 1)
                        for rr, row in enumerate(m.rows) if rr != i - 1
                    )))
                if count_with_fixed_points(b, {i}) != minor_value:
                    _fail("fixing {} in b={}: reduction count differs from minor permanent", i, entries)
                checked += 1
    return f"single-fixed-point counts equal minor permanents (n <= {top})", checked


def _check_permanent_reduction_order(r: _Ranges) -> tuple[str, int]:
    top = 7 if r.statistical else 5
    checked = 0
    for n in range(2, top + 1):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                ij = reduce_vector_on_fixed_point(reduce_vector_on_fixed_point(b, j), i)
                ji = reduce_vector_on_fixed_point(reduce_vector_on_fixed_point(b, i), j - 1)
                if ij != ji:
                    _fail("reduction order matters for b={} at ({},{}): {} vs {}", entries, i, j, ij.entries, ji.entries)
                checked += 1
    return f"erasing two fixed points commutes (all pairs, n <= {top})", checked


# ---------------------------------------------------------------------------
# bregular


def _check_bregular_membership(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, r.all_b + 1):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            seen = 0
            for p in enumerate_b_regular(b):
                if not p.satisfies(b):
                    _fail("enumerated {} violates b={}", p.images, entries)
                seen += 1
            if seen != count_b_regular(b):
                _fail("enumeration of b={} produced {} permutations, formula says {}", entries, seen, count_b_regular(b))
            checked += seen + 1
    rng = random.Random(3)
    for trial in range(200):
        b = _random_vector(rng, 12)
        if not sample_b_regular(b, random.Random(trial)).satisfies(b):
            _fail("sampled permutation violates b={}", b.entries)
        checked += 1
    return "every enumerated/sampled permutation satisfies its restriction", checked


def _check_bregular_cycle_means(r: _Ranges) -> tuple[str, int]:
    checked = 0
    edge_notes: list[str] = []
    for n in range(1, r.family + 1):
        totals = [0] * (n + 1)
        family = 0
        for p in enumerate_b_regular(RestrictionVector.b2(n)):
            family += 1
            for k in range(1, n + 1):
                totals[k] += count_k_cycles(p, k)
        for k in range(1, n + 1):
            mean = Fraction(totals[k], family)
            if k <= n - 1:
                if mean != mean_k_cycles(n, k):
                    _fail("b2(n={}): enumerated mean of {}-cycles is {}, closed form {}", n, k, mean, mean_k_cycles(n, k))
            else:
                # Single-part edge: the truth is 1/2^{n-1}; the closed form is
                # only claimed below k = n, so record rather than compare.
                if mean != Fraction(1, 1 << (n - 1)):
                    _fail("b2(n={}): enumerated mean of n-cycles is {}", n, mean)
                edge_notes.append(f"n={n}: k=n mean {mean} (formula would say {mean_k_cycles(n, k)})")
            checked += 1
    return (
        f"enumerated cycle-count means match closed forms for k < n, n <= {r.family}; "
        f"k = n edge recorded ({edge_notes[-1]})"
    ), checked


def _check_bregular_fixed_point_moments(r: _Ranges) -> tuple[str, int]:
    checked = 0
    small = 7 if r.statistical else 5
    cases: list[RestrictionVector] = []
    for n in range(1, small + 1):
        cases.extend(RestrictionVector(e) for e in oracles.valid_vectors(n))
    for n in range(1, r.family + 1):
        cases.append(RestrictionVector.b2(n))
        cases.append(RestrictionVector.br(3, n))
    for b in cases:
        mean, var = oracles.fixed_point_stats(p.images for p in enumerate_b_regular(b))
        if fixed_point_mean(b) != mean:
            _fail("fixed-point mean for b={}: reduction {} vs enumeration {}", b.entries, fixed_point_mean(b), mean)
        if fixed_point_variance(b) != var:
            _fail("fixed-point variance for b={}: reduction {} vs enumeration {}", b.entries, fixed_point_variance(b), var)
        checked += 2
    return f"reduction-based moments equal enumeration on {len(cases)} vectors", checked


def _check_bregular_cycle_shape(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, r.family + 1):
        for p in enumerate_b_regular(RestrictionVector.b2(n)):
            for cycle in p.cycles():
                lo, hi = min(cycle), max(cycle)
                if set(cycle) != set(range(lo, hi + 1)):
                    _fail("cycle {} of {} is not an interval", cycle, p.images)
                if p.image(lo) != hi or any(p.image(j) != j - 1 for j in range(lo + 1, hi + 1)):
                    _fail("cycle {} of {} is not a downward shift", cycle, p.images)
                checked += 1
    return f"every cycle is a contiguous downward-shift block (n <= {r.family})", checked


# ---------------------------------------------------------------------------
# bijection


def _check_bijection_roundtrip(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, r.bijection + 1):
        images = set()
        for c in enumerate_compositions(n):
            p = composition_to_perm(c)
            if not p.satisfies(RestrictionVector.b2(n)):
                _fail("composition {} maps outside the family", c.parts)
            if perm_to_composition(p) != c:
                _fail("round trip failed for composition {}", c.parts)
            starts = record_positions(p).positions
            expected = tuple(itertools.accumulate((1,) + c.parts[:-1]))
            if starts != expected:
                _fail("record positions of {} are {}, expected part starts {}", p.images, starts, expected)
            images.add(p.images)
            checked += 3
        if len(images) != 1 << (n - 1):
            _fail("compositions of {} map to {} distinct permutations, expected {}", n, len(images), 1 << (n - 1))
        family = {p.images for p in enumerate_b_regular(RestrictionVector.b2(n))}
        if images != family:
            _fail("bijection image for n={} is not the whole family", n)
        checked += 2
    return f"both round trips are identities, image is the whole family (n <= {r.bijection})", checked


def _check_bijection_cycle_parts(r: _Ranges) -> tuple[str, int]:
    checked = 0
    top = min(r.bijection, 12)
    for n in range(1, top + 1):
        for c in enumerate_compositions(n):
            p = composition_to_perm(c)
            for k in range(1, n + 1):
                if count_k_cycles(p, k) != c.count_parts(k):
                    _fail("{}-cycles of {} differ from {}-parts of {}", k, p.images, k, c.parts)
                checked += 1
    return f"cycle sizes and part sizes coincide (n <= {top})", checked


def _check_bijection_totals(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, r.bijection + 1):
        comps = oracles.compositions(n)
        for k in range(1, n + 1):
            total = sum(oracles.count_parts(parts, k) for parts in comps)
            if total_k_parts(n, k) != total:
                _fail("total {}-parts over compositions of {}: formula {}, enumeration {}", k, n, total_k_parts(n, k), total)
            checked += 1
    for n in range(1, 15):
        for k in range(1, n + 1):
            for m in range(1, 6):
                if total_k_parts(n, k) != total_k_parts(n + m, k + m):
                    _fail("shift invariance fails at (n={}, k={}, m={})", n, k, m)
                checked += 1
    return f"part totals match enumeration (n <= {r.bijection}) and are shift-invariant", checked


# ---------------------------------------------------------------------------
# cycindex


def _check_cycindex_pipelines(r: _Ranges) -> tuple[str, int]:
    checked = 0
    off_validity = 0
    boundary_notes: list[str] = []
    for n in range(1, r.pipelines + 1):
        comps = oracles.compositions(n)
        for k in range(1, n + 1):
            mean_o, var_o, sf_o = oracles.count_stats(oracles.count_parts(parts, k) for parts in comps)
            # (b) series extraction must match (c) enumeration everywhere.
            if extract_factorial_moment(n, k, 1) != mean_o:
                _fail("series mean at (n={}, k={}) is {}, enumeration {}", n, k, extract_factorial_moment(n, k, 1), mean_o)
            if extract_factorial_moment(n, k, 2) != sf_o:
                _fail("series second falling moment at (n={}, k={}) is {}, enumeration {}", n, k, extract_factorial_moment(n, k, 2), sf_o)
            checked += 2
            # (a) closed forms must match wherever they are claimed exact.
            cf_mean, cf_sf = mean_k_cycles(n, k), second_falling_moment(n, k)
            if mean_formula_is_exact(n, k):
                if cf_mean != mean_o:
                    _fail("closed-form mean at (n={}, k={}) is {}, truth {}", n, k, cf_mean, mean_o)
                checked += 1
            if second_falling_formula_is_exact(n, k):
                if cf_sf != sf_o or variance_k_cycles(n, k) != var_o:
                    _fail("closed-form second falling moment at (n={}, k={}) is {}, truth {}", n, k, cf_sf, sf_o)
                checked += 1
            if not second_falling_formula_is_exact(n, k) and cf_sf != sf_o:
                off_validity += 1
            if k >= n - 1 and cf_mean != mean_o:
                boundary_notes.append(f"(n={n}, k={k}): formula mean {cf_mean}, truth {mean_o}")
    tail = f"; {len(boundary_notes)} boundary mean deviations recorded, e.g. {boundary_notes[-1]}" if boundary_notes else ""
    return (
        f"series equals enumeration everywhere, closed forms exact within their validity ranges "
        f"(n <= {r.pipelines}; {off_validity} off-range second-moment points confirmed divergent){tail}"
    ), checked


def _check_cycindex_series(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(1, r.series_order + 1):
        for k in range(1, n + 1):
            if extract_factorial_moment(n, k, 0) != 1:
                _fail("total mass at (n={}, k={}) is {}, expected 1", n, k, extract_factorial_moment(n, k, 0))
            checked += 1
    for n in range(1, r.series_order + 1):
        for k in range(1, n + 1):
            lhs = variance_k_cycles(n, k)
            rhs = second_falling_moment(n, k) + mean_k_cycles(n, k) - mean_k_cycles(n, k) ** 2
            if lhs != rhs:
                _fail("variance identity fails at (n={}, k={})", n, k)
            checked += 1
    return f"mass normalisation and variance identity for 1 <= k <= n <= {r.series_order}", checked


# ---------------------------------------------------------------------------
# stein


def _check_stein_mean_sum(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(3, r.mean_sum + 1):
        for k in range(1, n - 1):
            law = indicator_law(n, k)
            # every probability is a multiple of 2^-(k+1) for k <= n - 2
            scale = 1 << (k + 1)
            total = Fraction(sum(p.numerator * (scale // p.denominator) for p in law.probabilities), scale)
            if len(law.probabilities) != n - k + 1 or total != mean_k_cycles(n, k):
                _fail("indicator law at (n={}, k={}) has {} positions summing to {}, mean is {}",
                      n, k, len(law.probabilities), total, mean_k_cycles(n, k))
            checked += 1
    return f"sum of position probabilities equals the mean for 1 <= k <= n-2, n <= {r.mean_sum}", checked


def _check_stein_covariance(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(2, r.pair_scan + 1):
        for k in range(1, min(5, n) + 1):
            last = n - k + 1
            ps = {i: indicator_probability(n, k, i) for i in range(1, last + 1)}
            total = sum(p * (1 - p) for p in ps.values())
            for i, j in itertools.combinations(range(1, last + 1), 2):
                total += 2 * (joint_indicator_probability(n, k, i, j) - ps[i] * ps[j])
            # Truth from the series (exact for every n, k), not the closed form.
            mean_e = extract_factorial_moment(n, k, 1)
            truth = extract_factorial_moment(n, k, 2) + mean_e - mean_e * mean_e
            if total != truth:
                _fail("covariance decomposition at (n={}, k={}) gives {}, series variance {}", n, k, total, truth)
            checked += 1
    return f"indicator covariance decomposition equals the series variance (n <= {r.pair_scan}, k <= 5)", checked


def _check_stein_joint_oracle(r: _Ranges) -> tuple[str, int]:
    checked = 0
    top = min(r.pipelines, 14)
    for n in range(2, top + 1):
        comps = oracles.compositions(n)
        hits: Counter[tuple[int, ...]] = Counter()  # keys (k, i) and (k, i, j)
        for parts in comps:
            for k in set(parts):
                starts = oracles.part_starts(parts, k)
                hits.update((k, i) for i in starts)
                hits.update((k, i, j) for i, j in itertools.combinations(starts, 2))
        for k in range(1, n + 1):
            for i in range(1, n - k + 2):
                if Fraction(hits[k, i], len(comps)) != indicator_probability(n, k, i):
                    _fail("marginal at (n={}, k={}, i={}) disagrees with enumeration", n, k, i)
                checked += 1
            for i, j in itertools.combinations(range(1, n - k + 2), 2):
                if Fraction(hits[k, i, j], len(comps)) != joint_indicator_probability(n, k, i, j):
                    _fail("joint at (n={}, k={}, i={}, j={}) disagrees with enumeration", n, k, i, j)
                checked += 1
    return f"segment-splitting probabilities equal enumeration frequencies (n <= {top}, all k, i, j)", checked


def _check_stein_independence(r: _Ranges) -> tuple[str, int]:
    checked = 0
    for n in range(4, r.pair_scan + 1):
        for k in range(1, min(5, n) + 1):
            last = n - k + 1
            for i in range(2, last):
                pi = indicator_probability(n, k, i)
                for j in range(i + 1, last):
                    joint = joint_indicator_probability(n, k, i, j)
                    product = pi * indicator_probability(n, k, j)
                    if j - i >= k + 2 and joint != product:
                        _fail("mid pair (i={}, j={}) at (n={}, k={}) is not independent", i, j, n, k)
                    if j - i <= k and joint == product:
                        _fail("mid pair (i={}, j={}) at (n={}, k={}) should be dependent", i, j, n, k)
                    checked += 1
    for n, k in ((12, 1), (20, 3)) if r.statistical else ((12, 1),):
        report = dependence_threshold(n, k)
        if report.threshold != k + 1:
            _fail("detected dependence threshold at (n={}, k={}) is {}, expected k+1", n, k, report.threshold)
        checked += 1
    return f"bulk pairs: dependent up to gap k, independent from gap k+2 (n <= {r.pair_scan}); threshold scan says k+1", checked


def _check_stein_bound(r: _Ranges) -> tuple[str, int]:
    checked = 0
    a, b = shifted_moment_sums(10, 1)
    if (a, b) != (Fraction(19, 16), Fraction(25, 32)):
        _fail("moment sums at (10, 1) are ({}, {}), expected (19/16, 25/32)", a, b)
    checked += 1
    dw = wasserstein_bound(10, 1)
    sigma = math.sqrt(float(variance_k_cycles(10, 1)))
    direct = 4 * float(a) / sigma**3 + math.sqrt(28.0) * 2 ** 1.5 / (math.sqrt(math.pi) * sigma**2) * math.sqrt(float(b))
    if abs(dw - direct) > BOUND_MATCH_TOLERANCE:
        _fail("bound at (10, 1) is {}, direct substitution {}", dw, direct)
    if round(dw, 2) != 2.98:
        _fail("bound at (10, 1) rounds to {}, expected 2.98", round(dw, 2))
    checked += 2
    dk = kolmogorov_from_wasserstein(dw)
    if abs(dk - math.sqrt(2.0 * dw / math.sqrt(2.0 * math.pi))) > 1e-15:
        _fail("Kolmogorov conversion of {} is {}", dw, dk)
    checked += 1
    report = stein_bound_report(10, 1)
    if report.wasserstein != dw or report.kolmogorov != dk:
        _fail("bound report at (10, 1) disagrees with the direct calls")
    if report.dependency_size != 2 or report.measured_dependency_size != 3:
        _fail("bound report at (10, 1) has unexpected neighbourhood sizes")
    if report.wasserstein_at_measured_size <= report.wasserstein:
        _fail("bound at the measured neighbourhood size should exceed the headline bound")
    checked += 3
    if r.statistical:
        scaled = {n: wasserstein_bound(n, 1) * math.sqrt(n) for n in (10**5, 10**6, 10**8)}
        limit = scaled[10**8]
        for n in (10**5, 10**6):
            if abs(scaled[n] - limit) / limit > SCALING_REL_TOLERANCE:
                _fail("sqrt(n)-scaled bound at n={} is {}, limit {}", n, scaled[n], limit)
            checked += 1
        return f"anchors exact; sqrt(n)-scaled bound within 1% of limit {limit:.6g}", checked
    return "anchors exact at (10, 1)", checked


def _check_stein_clt(r: _Ranges) -> tuple[str, int]:
    if not r.statistical:
        rep = clt_empirical_test(64, 1, 2000, CLT_PUBLISHED_SEED)
        if not (0 <= rep.ks_stat <= 1) or sum(c for _, _, c in rep.histogram) != rep.samples:
            _fail("smoke run of the sampling test is inconsistent")
        return "smoke run only (quick level)", 1
    rep = clt_empirical_test(2000, 1, CLT_SAMPLE_COUNT, CLT_PUBLISHED_SEED)
    checked = 0
    if rep.ks_stat > KS_TOLERANCE:
        _fail("KS statistic at (2000, 1) is {}, tolerance {}", rep.ks_stat, KS_TOLERANCE)
    checked += 1
    se = math.sqrt(float(rep.sigma2) / rep.samples)
    if abs(rep.emp_mean - float(rep.mu)) > MEAN_SE_TOLERANCE * se:
        _fail("empirical mean {} is more than {} standard errors from {}", rep.emp_mean, MEAN_SE_TOLERANCE, float(rep.mu))
    checked += 1
    if abs(rep.emp_var - float(rep.sigma2)) / float(rep.sigma2) > VARIANCE_REL_TOLERANCE:
        _fail("empirical variance {} deviates from {} by more than {:.0%}", rep.emp_var, float(rep.sigma2), VARIANCE_REL_TOLERANCE)
    checked += 1
    return (
        f"seeded run (n=2000, k=1, seed {rep.seed}): KS {rep.ks_stat:.4f} <= {KS_TOLERANCE}, "
        f"mean and variance within tolerance"
    ), checked


def _check_independence_probe(r: _Ranges) -> tuple[str, int]:
    n = 7 if r.statistical else 6
    report = independence_probe(n, 3)
    checked = 0
    if report.family_size != 2 * 3 ** (n - 2):
        _fail("probe family size at n={} is {}, expected {}", n, report.family_size, 2 * 3 ** (n - 2))
    checked += 1
    if report.disjoint_pairs <= 0 or not report.gap_summary:
        _fail("probe at n={} produced no pair statistics", n)
    checked += 1
    return (
        f"wider-staircase probe at n={n}: {report.distinct_cycles} cycles, "
        f"all gaps >= {report.least_all_independent_gap} independent"
    ), checked


# ---------------------------------------------------------------------------
# CLI smoke


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from . import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli_smoke(r: _Ranges) -> tuple[str, int]:
    checked = 0
    code, out = _run_cli(["count", "b2:20"])
    if code != 0 or "524288" not in out:
        _fail("count b2:20 returned {} with output {!r}", code, out)
    checked += 1
    code, out = _run_cli(["moments", "--n", "10", "--k", "1:3"])
    if code != 0 or "10,1,3,1," not in out:
        _fail("moments table missing the (10, 1) row: {!r}", out)
    checked += 1
    code, out = _run_cli(["bound", "--n", "10", "--k", "1"])
    if code != 0 or "2.97751" not in out:
        _fail("bound 10 1 returned {} with output {!r}", code, out)
    checked += 1
    code, out = _run_cli(["clt", "--n", "200", "--k", "1", "--samples", "4000", "--seed", "7"])
    if code != 0 or "ks_stat" not in out:
        _fail("clt run returned {} with output {!r}", code, out)
    checked += 1
    code, out = _run_cli(["sample", "b2:8", "--samples", "3", "--seed", "5"])
    if code != 0:
        _fail("sample run failed with output {!r}", out)
    b8 = RestrictionVector.b2(8)
    perms = [line for line in out.splitlines() if line and line[0].isdigit()]
    if len(perms) != 3:
        _fail("sample run printed {} permutations, expected 3", len(perms))
    for line in perms:
        if not Permutation(tuple(int(v) for v in line.split(","))).satisfies(b8):
            _fail("sampled permutation {} violates the staircase", line)
        checked += 1
    code, out = _run_cli(["compose", "to-comp", "5,1,2,3,4"])
    if code != 0 or out.splitlines()[-1].strip() != "5":
        _fail("compose to-comp returned {} with output {!r}", code, out)
    code, out = _run_cli(["compose", "to-perm", "1,3,1,5"])
    if code != 0 or out.splitlines()[-1].strip() != "1,4,2,3,5,10,6,7,8,9":
        _fail("compose to-perm returned {} with output {!r}", code, out)
    checked += 2
    return "count/moments/bound/clt/sample/compose round-trip through the CLI", checked


# ---------------------------------------------------------------------------
# driver

# name, suite, and the public operations (module.op) the suite exercises
_CHECKS: tuple[tuple[str, Callable[[_Ranges], tuple[str, int]], tuple[str, ...]], ...] = (
    ("core: restriction matrices", _check_core_matrix, ("core.matrix_from_vector",)),
    ("core: cycle decompositions", _check_core_cycles, ("core.cycle_type",)),
    ("permanent: two algorithms agree", _check_permanent_oracle,
     ("permanent.permanent_ryser", "permanent.permanent_enumerate")),
    ("permanent: product formula", _check_permanent_product, ("bregular.count_b_regular",)),
    ("permanent: fixed-point minors", _check_permanent_fixed_points, ("permanent.count_with_fixed_points",)),
    ("permanent: reduction order", _check_permanent_reduction_order, ("permanent.reduce_vector_on_fixed_point",)),
    ("bregular: membership and counts", _check_bregular_membership,
     ("bregular.enumerate_b_regular", "bregular.sample_b_regular")),
    ("bregular: cycle-count means", _check_bregular_cycle_means, ("bregular.count_k_cycles",)),
    ("bregular: fixed-point moments", _check_bregular_fixed_point_moments,
     ("bregular.fixed_point_mean", "bregular.fixed_point_variance")),
    ("bregular: cycle shape law", _check_bregular_cycle_shape, ()),
    ("bijection: round trips", _check_bijection_roundtrip,
     ("bijection.perm_to_composition", "bijection.composition_to_perm",
      "bijection.enumerate_compositions", "bijection.record_positions")),
    ("bijection: cycles vs parts", _check_bijection_cycle_parts, ()),
    ("bijection: part totals", _check_bijection_totals, ("bijection.total_k_parts",)),
    ("cycindex: three pipelines", _check_cycindex_pipelines,
     ("cycindex.mean_k_cycles", "cycindex.second_falling_moment",
      "cycindex.variance_k_cycles", "cycindex.extract_factorial_moment")),
    ("cycindex: series health", _check_cycindex_series, ()),
    ("stein: mean decomposition", _check_stein_mean_sum, ("stein.indicator_probability",)),
    ("stein: covariance decomposition", _check_stein_covariance, ("stein.joint_indicator_probability",)),
    ("stein: joint oracle", _check_stein_joint_oracle, ()),
    ("stein: independence ranges", _check_stein_independence, ("stein.dependence_threshold",)),
    ("stein: bound anchors", _check_stein_bound,
     ("stein.shifted_moment_sums", "stein.wasserstein_bound", "stein.kolmogorov_from_wasserstein")),
    ("stein: sampled normal approximation", _check_stein_clt, ("stein.clt_empirical_test",)),
    ("stein: wider-staircase probe", _check_independence_probe, ()),
    ("cli: subcommand smoke", _check_cli_smoke,
     ("cli.cmd_count", "cli.cmd_moments", "cli.cmd_bound", "cli.cmd_clt", "cli.cmd_sample", "cli.cmd_compose")),
)


def run_checks(level: str) -> list[CheckResult]:
    """Run every verification suite at `level` ("quick" or "full")."""
    if level not in _LEVELS:
        raise ValueError(f"unknown verification level {level!r}; choose from {sorted(_LEVELS)}")
    ranges = _LEVELS[level]
    results: list[CheckResult] = []
    exercised: set[str] = set()
    for name, fn, ops in _CHECKS:
        start = time.perf_counter()
        try:
            detail, assertions = fn(ranges)
            results.append(CheckResult(name, True, detail, assertions, time.perf_counter() - start))
            exercised.update(ops)
        except _Failure as failure:
            results.append(CheckResult(name, False, str(failure), 0, time.perf_counter() - start))
    if level == "full":
        wanted = {f"{module}.{op}" for module, ops in OPS_CHECKLIST.items() for op in ops}
        missing = sorted(wanted - exercised)
        results.append(CheckResult(
            "coverage: operation checklist",
            not missing,
            "every public operation exercised" if not missing else f"not exercised: {', '.join(missing)}",
            len(wanted),
            0.0,
        ))
    return results


def format_results(results: list[CheckResult]) -> str:
    """Human-readable pass/fail table with summary counts."""
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name}  [{res.assertions} assertions, {res.elapsed:.2f}s]")
        lines.append(f"      {res.detail}")
    failed = sum(1 for res in results if not res.passed)
    total_assertions = sum(res.assertions for res in results)
    lines.append(
        f"checks: {len(results) - failed}/{len(results)} passed, "
        f"{total_assertions} assertions run, {failed} failures"
    )
    return "\n".join(lines)
