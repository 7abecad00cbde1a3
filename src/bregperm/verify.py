"""Cross-verification suites tying every module to an independent oracle.

Each check re-derives a quantity along two or more unrelated pipelines
(closed form, the exact marked-parts sum, inclusion-exclusion permanent,
exhaustive enumeration, vectorised sampling) and demands exact agreement
wherever the arithmetic is rational.  The brute-force side of every comparison comes from
:mod:`bregperm.oracles`, the same reference the test suite uses.  Checks run
at two levels:

* ``quick``  -- exhaustive oracles up to n = 8; purely deterministic.
* ``full``   -- oracles up to n = 12..14 (criterion-sized ranges), the
  large-n scaling checks, and one seeded statistical run of the normal
  approximation.

A check is a function ``check(full, expect) -> detail``.  It sets its own
sizes at its top from the ``full`` flag, states each claim as
``expect(ok, message, *values)``, and returns a one-line detail.  The runner
owns the rest: it counts the claims as the check's assertions and turns the
first false one into a failed result carrying ``message.format(*values)``.
Any other exception raised inside a check fails that check alone, with
detail ``TypeName: message``.

``run_checks`` returns one :class:`CheckResult` per suite; the CLI renders
them and maps any failure to a nonzero exit code.
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
    composition_from_index,
    composition_to_index,
    composition_to_perm,
    enumerate_compositions,
    perm_to_composition,
    record_positions,
    total_k_parts,
)
from .bregular import (
    count_b_regular,
    count_k_cycles,
    count_with_fixed_points,
    enumerate_b_regular,
    fixed_point_mean,
    fixed_point_variance,
    reduce_vector_on_fixed_point,
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
from .permanent import permanent_enumerate, permanent_ryser
from .stein import (
    CLT_PUBLISHED_SEED,
    CLT_SAMPLE_COUNT,
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

# Tolerances pinned for the statistical checks; the published seed and
# sample count live in ``stein`` beside the stream version.
KS_TOLERANCE = 0.02
MEAN_SE_TOLERANCE = 3.0
VARIANCE_REL_TOLERANCE = 0.05
BOUND_MATCH_TOLERANCE = 1e-9
SCALING_REL_TOLERANCE = 0.01

#: Verification levels, cheapest first; a check sees only whether it runs at ``full``.
LEVELS = ("quick", "full")

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


class _Expect:
    """The checker a check states its claims to; one per check and run.

    Each call is one assertion.  A false claim raises :class:`_Failure` with
    ``message.format(*values)``; the message is formatted only then, so the
    values must be ones the check has already computed.
    """

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, ok: object, message: str, *values: object) -> None:
        self.count += 1
        if not ok:
            raise _Failure(message.format(*values))


def _random_vector(rng: random.Random, top: int) -> RestrictionVector:
    """A valid restriction vector of random size 1..top."""
    entries: list[int] = []
    for i in range(1, rng.randint(1, top) + 1):
        entries.append(rng.randint(entries[-1] if entries else 1, i))
    return RestrictionVector(tuple(entries))


# ---------------------------------------------------------------------------
# core


def _check_core_matrix(full: bool, expect: _Expect) -> str:
    top = 6 if full else 5
    cases = [entries for n in range(1, top + 1) for entries in oracles.valid_vectors(n)]
    for entries in cases:
        n = len(entries)
        b = RestrictionVector(entries)
        m = matrix_from_vector(b)
        total = 0
        for i in range(1, n + 1):
            ones = sum(m.rows[i - 1])
            want = n - entries[i - 1] + 1
            expect(ones == want, "row {} of matrix for b={} has {} ones, expected {}", i, entries, ones, want)
            total += ones
        expect(total == sum(n - bi + 1 for bi in entries), "total ones mismatch for b={}", entries)
    return f"row/total ones verified for all {len(cases)} valid vectors with n <= {top}"


def _check_core_cycles(full: bool, expect: _Expect) -> str:
    top = 12 if full else 8
    rng = random.Random(0)
    perms: list[Permutation] = []
    for n in range(1, top + 1):
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
        expect(tuple(rebuilt) == p.images, "cycle decomposition of {} does not recompose", p.images)
        ct = cycle_type(p)
        expect(sum(k * m for k, m in ct.counts) == p.n and sum(m for _, m in ct.counts) == len(p.cycles()),
               "cycle type of {} inconsistent: {}", p.images, ct)
    return f"cycle decompositions recompose for {len(perms)} permutations"


# ---------------------------------------------------------------------------
# permanent


def _check_permanent_oracle(full: bool, expect: _Expect) -> str:
    top = 6 if full else 5
    rounds, random_top = (60, 8) if full else (30, 6)
    cases = [matrix_from_vector(RestrictionVector(entries))
             for n in range(1, top + 1) for entries in oracles.valid_vectors(n)]
    rng = random.Random(1)
    for _ in range(rounds):
        n = rng.randint(1, random_top)
        cases.append(RestrictionMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]))
    for m in cases:
        expect(permanent_ryser(m) == permanent_enumerate(m), "Ryser vs enumeration mismatch for matrix {}", m.rows)
    return f"inclusion-exclusion equals direct sum on {len(cases)} matrices"


def _check_permanent_product(full: bool, expect: _Expect) -> str:
    cases = [RestrictionVector(entries) for n in range(1, 7) for entries in oracles.valid_vectors(n)]
    if full:
        rng = random.Random(2)
        cases.extend(_random_vector(rng, 12) for _ in range(40))
    for b in cases:
        expect(permanent_ryser(matrix_from_vector(b)) == count_b_regular(b),
               "permanent disagrees with product formula for b={}", b.entries)
    return f"permanent equals the one-line product on {len(cases)} vectors"


def _check_permanent_fixed_points(full: bool, expect: _Expect) -> str:
    top = 7 if full else 5
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
                expect(count_with_fixed_points(b, {i}) == minor_value,
                       "fixing {} in b={}: pinned-count differs from minor permanent", i, entries)
    return f"single-fixed-point counts equal minor permanents (n <= {top})"


def _check_permanent_reduction_order(full: bool, expect: _Expect) -> str:
    top = 7 if full else 5
    for n in range(2, top + 1):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                ij = reduce_vector_on_fixed_point(reduce_vector_on_fixed_point(b, j), i)
                ji = reduce_vector_on_fixed_point(reduce_vector_on_fixed_point(b, i), j - 1)
                expect(ij == ji, "reduction order matters for b={} at ({},{}): {} vs {}",
                       entries, i, j, ij.entries, ji.entries)
    return f"erasing two fixed points commutes (all pairs, n <= {top})"


# ---------------------------------------------------------------------------
# bregular


def _check_bregular_membership(full: bool, expect: _Expect) -> str:
    top = 6 if full else 5
    for n in range(1, top + 1):
        for entries in oracles.valid_vectors(n):
            b = RestrictionVector(entries)
            seen = 0
            for p in enumerate_b_regular(b):
                expect(p.satisfies(b), "enumerated {} violates b={}", p.images, entries)
                seen += 1
            total = count_b_regular(b)
            expect(seen == total, "enumeration of b={} produced {} permutations, formula says {}", entries, seen, total)
    rng = random.Random(3)
    for trial in range(200):
        b = _random_vector(rng, 12)
        expect(sample_b_regular(b, random.Random(trial)).satisfies(b), "sampled permutation violates b={}", b.entries)
    return "every enumerated/sampled permutation satisfies its restriction"


def _check_bregular_cycle_means(full: bool, expect: _Expect) -> str:
    top = 12 if full else 8
    for n in range(1, top + 1):
        totals = [0] * (n + 1)
        family = 0
        for p in enumerate_b_regular(RestrictionVector.b2(n)):
            family += 1
            for k in range(1, n + 1):
                totals[k] += count_k_cycles(p, k)
        for k in range(1, n + 1):
            mean, formula = Fraction(totals[k], family), mean_k_cycles(n, k)
            if k <= n - 1:
                expect(mean == formula, "b2(n={}): enumerated mean of {}-cycles is {}, closed form {}", n, k, mean, formula)
            else:
                # Single-part edge: the truth is 1/2^{n-1}; the closed form is
                # only claimed below k = n, so record rather than compare.
                expect(mean == Fraction(1, 1 << (n - 1)), "b2(n={}): enumerated mean of n-cycles is {}", n, mean)
                edge_note = f"n={n}: k=n mean {mean} (formula would say {formula})"
    return (
        f"enumerated cycle-count means match closed forms for k < n, n <= {top}; "
        f"k = n edge recorded ({edge_note})"
    )


def _check_bregular_fixed_point_moments(full: bool, expect: _Expect) -> str:
    small, top = (7, 12) if full else (5, 8)
    cases: list[RestrictionVector] = []
    for n in range(1, small + 1):
        cases.extend(RestrictionVector(e) for e in oracles.valid_vectors(n))
    for n in range(1, top + 1):
        cases.append(RestrictionVector.b2(n))
        cases.append(RestrictionVector.br(3, n))
    for b in cases:
        mean, var = oracles.fixed_point_stats(p.images for p in enumerate_b_regular(b))
        pinned_mean, pinned_var = fixed_point_mean(b), fixed_point_variance(b)
        expect(pinned_mean == mean, "fixed-point mean for b={}: pinned-count {} vs enumeration {}",
               b.entries, pinned_mean, mean)
        expect(pinned_var == var, "fixed-point variance for b={}: pinned-count {} vs enumeration {}",
               b.entries, pinned_var, var)
    return f"pinned-count moments equal enumeration on {len(cases)} vectors"


def _check_bregular_cycle_shape(full: bool, expect: _Expect) -> str:
    top = 12 if full else 8
    for n in range(1, top + 1):
        for p in enumerate_b_regular(RestrictionVector.b2(n)):
            for cycle in p.cycles():
                lo, hi = min(cycle), max(cycle)
                expect(set(cycle) == set(range(lo, hi + 1)), "cycle {} of {} is not an interval", cycle, p.images)
                expect(p.images[lo - 1] == hi and all(p.images[j - 1] == j - 1 for j in range(lo + 1, hi + 1)),
                       "cycle {} of {} is not a downward shift", cycle, p.images)
    return f"every cycle is a contiguous downward-shift block (n <= {top})"


# ---------------------------------------------------------------------------
# bijection


def _check_bijection_roundtrip(full: bool, expect: _Expect) -> str:
    top = 14 if full else 8
    for n in range(1, top + 1):
        images = set()
        for w, c in enumerate(enumerate_compositions(n)):
            expect(composition_to_index(c) == w and composition_from_index(n, w) == c,
                   "cut word {} of n={} does not encode composition {}", w, n, c.parts)
            p = composition_to_perm(c)
            expect(p.satisfies(RestrictionVector.b2(n)), "composition {} maps outside the family", c.parts)
            expect(perm_to_composition(p) == c, "round trip failed for composition {}", c.parts)
            starts = record_positions(p).positions
            expected = tuple(itertools.accumulate((1,) + c.parts[:-1]))
            expect(starts == expected, "record positions of {} are {}, expected part starts {}",
                   p.images, starts, expected)
            images.add(p.images)
        expect(len(images) == 1 << (n - 1), "compositions of {} map to {} distinct permutations, expected {}",
               n, len(images), 1 << (n - 1))
        family = {p.images for p in enumerate_b_regular(RestrictionVector.b2(n))}
        expect(images == family, "bijection image for n={} is not the whole family", n)
    return f"both round trips and the cut-word codec are identities, image is the whole family (n <= {top})"


def _check_bijection_cycle_parts(full: bool, expect: _Expect) -> str:
    top = 12 if full else 8
    for n in range(1, top + 1):
        for c in enumerate_compositions(n):
            p = composition_to_perm(c)
            for k in range(1, n + 1):
                expect(count_k_cycles(p, k) == c.count_parts(k),
                       "{}-cycles of {} differ from {}-parts of {}", k, p.images, k, c.parts)
    return f"cycle sizes and part sizes coincide (n <= {top})"


def _check_bijection_totals(full: bool, expect: _Expect) -> str:
    top = 14 if full else 8
    for n in range(1, top + 1):
        comps = oracles.compositions(n)
        for k in range(1, n + 1):
            total = sum(oracles.count_parts(parts, k) for parts in comps)
            formula = total_k_parts(n, k)
            expect(formula == total, "total {}-parts over compositions of {}: formula {}, enumeration {}",
                   k, n, formula, total)
    for n in range(1, 15):
        for k in range(1, n + 1):
            for m in range(1, 6):
                expect(total_k_parts(n, k) == total_k_parts(n + m, k + m),
                       "shift invariance fails at (n={}, k={}, m={})", n, k, m)
    return f"part totals match enumeration (n <= {top}) and are shift-invariant"


# ---------------------------------------------------------------------------
# cycindex


def _check_cycindex_pipelines(full: bool, expect: _Expect) -> str:
    top = 14 if full else 8
    off_validity = 0
    boundary_notes: list[str] = []
    for n in range(1, top + 1):
        comps = oracles.compositions(n)
        for k in range(1, n + 1):
            counts = [oracles.count_parts(parts, k) for parts in comps]
            mean_o, var_o, sf_o = oracles.count_stats(counts)
            # (b) the exact falling moments must match (c) enumeration everywhere.
            for m in range(1, 5):
                series_m, oracle_m = extract_factorial_moment(n, k, m), oracles.falling_moment(counts, m)
                expect(series_m == oracle_m, "series falling moment m={} at (n={}, k={}) is {}, enumeration {}",
                       m, n, k, series_m, oracle_m)
            # (a) closed forms must match wherever they are claimed exact.
            cf_mean, cf_sf = mean_k_cycles(n, k), second_falling_moment(n, k)
            if mean_formula_is_exact(n, k):
                expect(cf_mean == mean_o, "closed-form mean at (n={}, k={}) is {}, truth {}", n, k, cf_mean, mean_o)
            if second_falling_formula_is_exact(n, k):
                expect(cf_sf == sf_o and variance_k_cycles(n, k) == var_o,
                       "closed-form second falling moment at (n={}, k={}) is {}, truth {}", n, k, cf_sf, sf_o)
            elif cf_sf != sf_o:
                off_validity += 1
            if k >= n - 1 and cf_mean != mean_o:
                boundary_notes.append(f"(n={n}, k={k}): formula mean {cf_mean}, truth {mean_o}")
    tail = f"; {len(boundary_notes)} boundary mean deviations recorded, e.g. {boundary_notes[-1]}" if boundary_notes else ""
    return (
        f"series equals enumeration everywhere (falling moments m <= 4), closed forms exact within "
        f"their validity ranges "
        f"(n <= {top}; {off_validity} off-range second-moment points confirmed divergent){tail}"
    )


def _check_cycindex_series(full: bool, expect: _Expect) -> str:
    top = 30 if full else 12
    for n in range(1, top + 1):
        for k in range(1, n + 1):
            mass = extract_factorial_moment(n, k, 0)
            expect(mass == 1, "total mass at (n={}, k={}) is {}, expected 1", n, k, mass)
    for n in range(1, top + 1):
        for k in range(1, n + 1):
            lhs = variance_k_cycles(n, k)
            rhs = second_falling_moment(n, k) + mean_k_cycles(n, k) - mean_k_cycles(n, k) ** 2
            expect(lhs == rhs, "variance identity fails at (n={}, k={})", n, k)
    return f"mass normalisation and variance identity for 1 <= k <= n <= {top}"


# ---------------------------------------------------------------------------
# stein


def _check_stein_mean_sum(full: bool, expect: _Expect) -> str:
    top = 200 if full else 40
    for n in range(3, top + 1):
        for k in range(1, n - 1):
            law = indicator_law(n, k)
            # every probability is a multiple of 2^-(k+1) for k <= n - 2
            scale = 1 << (k + 1)
            total = Fraction(sum(p.numerator * (scale // p.denominator) for p in law.probabilities), scale)
            mean = mean_k_cycles(n, k)
            expect(len(law.probabilities) == n - k + 1 and total == mean,
                   "indicator law at (n={}, k={}) has {} positions summing to {}, mean is {}",
                   n, k, len(law.probabilities), total, mean)
    return f"sum of position probabilities equals the mean for 1 <= k <= n-2, n <= {top}"


def _check_stein_covariance(full: bool, expect: _Expect) -> str:
    top = 40 if full else 16
    for n in range(2, top + 1):
        for k in range(1, min(5, n) + 1):
            last = n - k + 1
            ps = {i: indicator_probability(n, k, i) for i in range(1, last + 1)}
            total = sum(p * (1 - p) for p in ps.values())
            for i, j in itertools.combinations(range(1, last + 1), 2):
                total += 2 * (joint_indicator_probability(n, k, i, j) - ps[i] * ps[j])
            # Truth from the exact falling moments (every n, k), not the closed form.
            mean_e = extract_factorial_moment(n, k, 1)
            truth = extract_factorial_moment(n, k, 2) + mean_e - mean_e * mean_e
            expect(total == truth, "covariance decomposition at (n={}, k={}) gives {}, series variance {}",
                   n, k, total, truth)
    return f"indicator covariance decomposition equals the series variance (n <= {top}, k <= 5)"


def _check_stein_joint_oracle(full: bool, expect: _Expect) -> str:
    top = 14 if full else 8
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
                expect(Fraction(hits[k, i], len(comps)) == indicator_probability(n, k, i),
                       "marginal at (n={}, k={}, i={}) disagrees with enumeration", n, k, i)
            for i, j in itertools.combinations(range(1, n - k + 2), 2):
                expect(Fraction(hits[k, i, j], len(comps)) == joint_indicator_probability(n, k, i, j),
                       "joint at (n={}, k={}, i={}, j={}) disagrees with enumeration", n, k, i, j)
    return f"segment-splitting probabilities equal enumeration frequencies (n <= {top}, all k, i, j)"


def _check_stein_independence(full: bool, expect: _Expect) -> str:
    top = 40 if full else 16
    for n in range(4, top + 1):
        for k in range(1, min(5, n) + 1):
            last = n - k + 1
            for i in range(2, last):
                pi = indicator_probability(n, k, i)
                for j in range(i + 1, last):
                    joint = joint_indicator_probability(n, k, i, j)
                    product = pi * indicator_probability(n, k, j)
                    if j - i >= k + 2:
                        expect(joint == product, "mid pair (i={}, j={}) at (n={}, k={}) is not independent", i, j, n, k)
                    elif j - i <= k:
                        expect(joint != product, "mid pair (i={}, j={}) at (n={}, k={}) should be dependent", i, j, n, k)
    for n, k in ((12, 1), (20, 3)) if full else ((12, 1),):
        threshold = dependence_threshold(n, k).threshold
        expect(threshold == k + 1, "detected dependence threshold at (n={}, k={}) is {}, expected k+1", n, k, threshold)
    return f"bulk pairs: dependent up to gap k, independent from gap k+2 (n <= {top}); threshold scan says k+1"


def _check_stein_bound(full: bool, expect: _Expect) -> str:
    a, b = shifted_moment_sums(10, 1)
    expect((a, b) == (Fraction(19, 16), Fraction(25, 32)),
           "moment sums at (10, 1) are ({}, {}), expected (19/16, 25/32)", a, b)
    dw = wasserstein_bound(10, 1)
    sigma = math.sqrt(float(variance_k_cycles(10, 1)))
    direct = 4 * float(a) / sigma**3 + math.sqrt(28.0) * 2 ** 1.5 / (math.sqrt(math.pi) * sigma**2) * math.sqrt(float(b))
    expect(abs(dw - direct) <= BOUND_MATCH_TOLERANCE, "bound at (10, 1) is {}, direct substitution {}", dw, direct)
    expect(round(dw, 2) == 2.98, "bound at (10, 1) rounds to {}, expected 2.98", round(dw, 2))
    dk = kolmogorov_from_wasserstein(dw)
    expect(abs(dk - math.sqrt(2.0 * dw / math.sqrt(2.0 * math.pi))) <= 1e-15, "Kolmogorov conversion of {} is {}", dw, dk)
    report = stein_bound_report(10, 1)
    expect(report.wasserstein == dw and report.kolmogorov == dk, "bound report at (10, 1) disagrees with the direct calls")
    expect(report.dependency_size == 2 and report.measured_dependency_size == 3,
           "bound report at (10, 1) has unexpected neighbourhood sizes")
    expect(report.wasserstein_at_measured_size > report.wasserstein,
           "bound at the measured neighbourhood size should exceed the headline bound")
    if not full:
        return "anchors exact at (10, 1)"
    scaled = {n: wasserstein_bound(n, 1) * math.sqrt(n) for n in (10**5, 10**6, 10**8)}
    limit = scaled[10**8]
    for n in (10**5, 10**6):
        expect(abs(scaled[n] - limit) / limit <= SCALING_REL_TOLERANCE,
               "sqrt(n)-scaled bound at n={} is {}, limit {}", n, scaled[n], limit)
    return f"anchors exact; sqrt(n)-scaled bound within 1% of limit {limit:.6g}"


def _check_stein_clt(full: bool, expect: _Expect) -> str:
    if not full:
        rep = clt_empirical_test(64, 1, 2000, CLT_PUBLISHED_SEED)
        expect(0 <= rep.ks_stat <= 1 and sum(c for _, _, c in rep.histogram) == rep.samples,
               "smoke run of the sampling test is inconsistent")
        return "smoke run only (quick level)"
    rep = clt_empirical_test(2000, 1, CLT_SAMPLE_COUNT, CLT_PUBLISHED_SEED)
    expect(rep.ks_stat <= KS_TOLERANCE, "KS statistic at (2000, 1) is {}, tolerance {}", rep.ks_stat, KS_TOLERANCE)
    se = math.sqrt(float(rep.sigma2) / rep.samples)
    expect(abs(rep.emp_mean - float(rep.mu)) <= MEAN_SE_TOLERANCE * se,
           "empirical mean {} is more than {} standard errors from {}", rep.emp_mean, MEAN_SE_TOLERANCE, float(rep.mu))
    expect(abs(rep.emp_var - float(rep.sigma2)) / float(rep.sigma2) <= VARIANCE_REL_TOLERANCE,
           "empirical variance {} deviates from {} by more than {:.0%}",
           rep.emp_var, float(rep.sigma2), VARIANCE_REL_TOLERANCE)
    return (
        f"seeded run (n=2000, k=1, seed {rep.seed}): KS {rep.ks_stat:.4f} <= {KS_TOLERANCE}, "
        f"mean and variance within tolerance"
    )


def _check_independence_probe(full: bool, expect: _Expect) -> str:
    n = 7 if full else 6
    report = independence_probe(n, 3)
    expect(report.family_size == 2 * 3 ** (n - 2), "probe family size at n={} is {}, expected {}",
           n, report.family_size, 2 * 3 ** (n - 2))
    expect(report.disjoint_pairs > 0 and report.gap_summary, "probe at n={} produced no pair statistics", n)
    return (
        f"wider-staircase probe at n={n}: {report.distinct_cycles} cycles, "
        f"all gaps >= {report.least_all_independent_gap} independent"
    )


# ---------------------------------------------------------------------------
# CLI smoke


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from . import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli_smoke(full: bool, expect: _Expect) -> str:
    code, out = _run_cli(["count", "b2:20"])
    expect(code == 0 and "524288" in out, "count b2:20 returned {} with output {!r}", code, out)
    code, out = _run_cli(["moments", "--n", "10", "--k", "1:3"])
    expect(code == 0 and "10,1,3,1," in out, "moments table missing the (10, 1) row: {!r}", out)
    code, out = _run_cli(["bound", "--n", "10", "--k", "1"])
    expect(code == 0 and "2.97751" in out, "bound 10 1 returned {} with output {!r}", code, out)
    code, out = _run_cli(["clt", "--n", "200", "--k", "1", "--samples", "4000", "--seed", "7"])
    expect(code == 0 and "ks_stat" in out, "clt run returned {} with output {!r}", code, out)
    code, out = _run_cli(["sample", "b2:8", "--samples", "3", "--seed", "5"])
    expect(code == 0, "sample run failed with output {!r}", out)
    b8 = RestrictionVector.b2(8)
    perms = [line for line in out.splitlines() if line and line[0].isdigit()]
    expect(len(perms) == 3, "sample run printed {} permutations, expected 3", len(perms))
    for line in perms:
        expect(Permutation(tuple(int(v) for v in line.split(","))).satisfies(b8),
               "sampled permutation {} violates the staircase", line)
    code, out = _run_cli(["compose", "to-comp", "5,1,2,3,4"])
    expect(code == 0 and out.splitlines()[-1].strip() == "5", "compose to-comp returned {} with output {!r}", code, out)
    code, out = _run_cli(["compose", "to-perm", "1,3,1,5"])
    expect(code == 0 and out.splitlines()[-1].strip() == "1,4,2,3,5,10,6,7,8,9",
           "compose to-perm returned {} with output {!r}", code, out)
    return "count/moments/bound/clt/sample/compose round-trip through the CLI"


# ---------------------------------------------------------------------------
# driver

# name and suite, in run order
_CHECKS: tuple[tuple[str, Callable[[bool, _Expect], str]], ...] = (
    ("core: restriction matrices", _check_core_matrix),
    ("core: cycle decompositions", _check_core_cycles),
    ("permanent: two algorithms agree", _check_permanent_oracle),
    ("permanent: product formula", _check_permanent_product),
    ("permanent: fixed-point minors", _check_permanent_fixed_points),
    ("permanent: reduction order", _check_permanent_reduction_order),
    ("bregular: membership and counts", _check_bregular_membership),
    ("bregular: cycle-count means", _check_bregular_cycle_means),
    ("bregular: fixed-point moments", _check_bregular_fixed_point_moments),
    ("bregular: cycle shape law", _check_bregular_cycle_shape),
    ("bijection: round trips", _check_bijection_roundtrip),
    ("bijection: cycles vs parts", _check_bijection_cycle_parts),
    ("bijection: part totals", _check_bijection_totals),
    ("cycindex: three pipelines", _check_cycindex_pipelines),
    ("cycindex: series health", _check_cycindex_series),
    ("stein: mean decomposition", _check_stein_mean_sum),
    ("stein: covariance decomposition", _check_stein_covariance),
    ("stein: joint oracle", _check_stein_joint_oracle),
    ("stein: independence ranges", _check_stein_independence),
    ("stein: bound anchors", _check_stein_bound),
    ("stein: sampled normal approximation", _check_stein_clt),
    ("stein: wider-staircase probe", _check_independence_probe),
    ("cli: subcommand smoke", _check_cli_smoke),
)


def run_checks(level: str) -> list[CheckResult]:
    """Run every verification suite at `level` ("quick" or "full")."""
    if level not in LEVELS:
        raise ValueError(f"unknown verification level {level!r}; choose from {sorted(LEVELS)}")
    full = level == "full"
    results: list[CheckResult] = []
    for name, fn in _CHECKS:
        expect = _Expect()
        start = time.perf_counter()
        try:
            passed, detail = True, fn(full, expect)
        except _Failure as failure:
            passed, detail = False, str(failure)
        except Exception as exc:  # a crash inside one check fails that check, not the run
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, expect.count, time.perf_counter() - start))
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
