"""Acceptance gate: one test per contract criterion, each at its stated
size and tolerance, so `pytest -v` prints one pass/fail line per criterion.

Two entries are expected failures and marked strict-xfail; each carries the
exact blocking analysis in its reason string.  Everything else must pass.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from scipy import stats

from bregperm import oracles
from bregperm.bijection import (
    composition_to_perm,
    enumerate_compositions,
    perm_to_composition,
    total_k_parts,
)
from bregperm.bregular import (
    count_b_regular,
    enumerate_b_regular,
    fixed_point_mean,
    fixed_point_variance,
    sample_b_regular,
)
from bregperm.core import RestrictionMatrix, RestrictionVector, matrix_from_vector
from bregperm.cycindex import (
    extract_factorial_moment,
    mean_k_cycles,
    second_falling_moment,
    variance_k_cycles,
)
from bregperm.permanent import permanent_enumerate, permanent_ryser
from bregperm.stein import (
    clt_empirical_test,
    dependence_threshold,
    independence_probe,
    indicator_law,
    indicator_probability,
    joint_indicator_probability,
    shifted_moment_sums,
    wasserstein_bound,
)
from bregperm.verify import CLT_PUBLISHED_SEED


# ----------------------------------------------------------------------
# criterion 1: staircase counts by product formula and by permanent
# ----------------------------------------------------------------------


def test_criterion_01_one_step_staircase_counts_double():
    t0 = time.perf_counter()
    for n in range(1, 21):
        assert count_b_regular(RestrictionVector.b2(n)) == 2 ** (n - 1)
    for n in range(1, 19):
        m = matrix_from_vector(RestrictionVector.b2(n))
        assert permanent_ryser(m) == 2 ** (n - 1)
    assert time.perf_counter() - t0 < 10.0


# ----------------------------------------------------------------------
# criterion 2: the two permanent algorithms agree
# ----------------------------------------------------------------------


def test_criterion_02_permanent_algorithms_agree():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        m = RestrictionMatrix(rows)
        assert permanent_ryser(m) == permanent_enumerate(m)
    for n in range(1, 9):
        for r in range(1, n + 1):
            b = RestrictionVector.br(r, n)
            m = matrix_from_vector(b)
            value = permanent_ryser(m)
            assert value == permanent_enumerate(m)
            assert value == count_b_regular(b)
    assert time.perf_counter() - t0 < 30.0


# ----------------------------------------------------------------------
# criterion 3: exact fixed-point moments via the reduction calculus
# ----------------------------------------------------------------------


def test_criterion_03_fixed_point_moments_exact():
    t0 = time.perf_counter()
    # closed form for the one-step staircase: mean (n+2)/4 from n = 2 on,
    # and the size-1 family (identity only) has exactly one fixed point
    assert fixed_point_mean(RestrictionVector.b2(1)) == 1
    for n in range(2, 15):
        assert fixed_point_mean(RestrictionVector.b2(n)) == Fraction(n + 2, 4)
    # reduction-based mean and variance equal full enumeration for every
    # valid restriction vector with n <= 7 ...
    for n in range(1, 8):
        for entries in oracles.valid_vectors(n):
            fam = oracles.family(entries)
            mean, variance = oracles.fixed_point_stats(fam)
            b = RestrictionVector(entries)
            assert fixed_point_mean(b) == mean
            assert fixed_point_variance(b) == variance
    # ... and for both staircase families up to n = 12
    for n in range(2, 13):
        for r in (2, 3):
            b = RestrictionVector.br(r, n)
            members = [p.images for p in enumerate_b_regular(b)]
            mean, variance = oracles.fixed_point_stats(members)
            assert fixed_point_mean(b) == mean
            assert fixed_point_variance(b) == variance
    assert time.perf_counter() - t0 < 120.0


# ----------------------------------------------------------------------
# criterion 4: the composition bijection is a bijection
# ----------------------------------------------------------------------


def test_criterion_04_bijection_round_trips_exhaustively():
    t0 = time.perf_counter()
    for n in range(1, 15):
        b = RestrictionVector.b2(n)
        seen = set()
        for c in enumerate_compositions(n):
            p = composition_to_perm(c)
            assert p.satisfies(b)
            assert perm_to_composition(p) == c
            seen.add(p.images)
            # parts and cycle sizes coincide, with matching supports
            starts = tuple(accumulate((1,) + c.parts[:-1]))
            cycles = sorted(p.cycles(), key=min)
            assert tuple(min(cy) for cy in cycles) == starts
            assert tuple(len(cy) for cy in cycles) == c.parts
        # the image is the whole family: 2^(n-1) distinct permutations
        assert len(seen) == count_b_regular(b)
        for p in enumerate_b_regular(b):
            assert p.images in seen
    assert time.perf_counter() - t0 < 60.0


# ----------------------------------------------------------------------
# criterion 5: series extraction vs closed forms vs enumeration
# ----------------------------------------------------------------------


def test_criterion_05a_series_mean_equals_closed_form():
    for n in range(3, 31):
        for k in range(1, n - 1):
            assert extract_factorial_moment(n, k, 1) == mean_k_cycles(n, k)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the quadratic closed form (n+2-2k)(n+7-2k)/4^(k+1) for E[C(C-1)] departs "
        "from the exact series inside k+2 <= n <= 2k: first at (n, k) = (4, 2), "
        "where the series gives 1/4 but the formula 7/32.  Two disjoint k-windows "
        "only fit once n >= 2k, and the boundary corrections the formula encodes "
        "assume n >= 2k+1.  Only the accidental zeros n = 2k-2 and n = 2k-7 agree "
        "inside the gap.  The formula is exact on all of n >= 2k+1 (see 05d)."
    ),
)
def test_criterion_05b_series_second_falling_equals_closed_form_on_full_range():
    mismatches = []
    for n in range(3, 31):
        for k in range(1, n - 1):
            truth = extract_factorial_moment(n, k, 2)
            if second_falling_moment(n, k) != truth:
                mismatches.append((n, k, second_falling_moment(n, k), truth))
    assert not mismatches, f"{len(mismatches)} mismatching points, first: {mismatches[:3]}"


def test_criterion_05c_series_equals_enumeration():
    t0 = time.perf_counter()
    for n in range(1, 15):
        members = [p.images for p in enumerate_b_regular(RestrictionVector.b2(n))]
        for k in range(1, n + 1):
            mean, _, falling = oracles.cycle_count_stats(members, k)
            assert extract_factorial_moment(n, k, 1) == mean
            assert extract_factorial_moment(n, k, 2) == falling
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05d_closed_form_boundaries_are_characterised():
    # mean: exact through k = n-1, provably different at k = n
    for n in range(2, 15):
        truth = extract_factorial_moment(n, n, 1)
        assert truth == Fraction(1, 2 ** (n - 1))
        assert mean_k_cycles(n, n) != truth
        assert extract_factorial_moment(n, n - 1, 1) == mean_k_cycles(n, n - 1)
    # second falling moment: every mismatch lies in n <= 2k, and every
    # point with n >= 2k+1 matches exactly
    for n in range(3, 31):
        for k in range(1, n - 1):
            matches = second_falling_moment(n, k) == extract_factorial_moment(n, k, 2)
            if n >= 2 * k + 1:
                assert matches, (n, k)
            elif not matches:
                assert n <= 2 * k, (n, k)


# ----------------------------------------------------------------------
# criterion 6: part-count totals
# ----------------------------------------------------------------------


def test_criterion_06_part_count_totals():
    for n in range(1, 15):
        comps = [c.parts for c in enumerate_compositions(n)]
        for k in range(1, n + 1):
            expected = sum(oracles.count_parts(parts, k) for parts in comps)
            assert total_k_parts(n, k) == expected
            for m in range(1, 6):
                assert total_k_parts(n + m, k + m) == total_k_parts(n, k)


# ----------------------------------------------------------------------
# criterion 7: occurrence probabilities
# ----------------------------------------------------------------------


def test_criterion_07_indicator_probabilities_exact():
    # against enumerated frequencies at small sizes
    for n in range(2, 15):
        comps = [c.parts for c in enumerate_compositions(n)]
        total = len(comps)
        for k in range(1, min(5, n - 1) + 1):
            starts_of = [
                {s for s, size in zip(accumulate((1,) + parts[:-1]), parts) if size == k}
                for parts in comps
            ]
            for i in range(1, n - k + 2):
                hits = sum(1 for starts in starts_of if i in starts)
                assert indicator_probability(n, k, i) == Fraction(hits, total)
    # the probabilities sum to the exact mean across the stated grid
    for n in range(3, 201):
        for k in range(1, n - 1):
            law = indicator_law(n, k)
            assert sum(law.probabilities) == mean_k_cycles(n, k)


# ----------------------------------------------------------------------
# criterion 8: pairwise dependence structure
# ----------------------------------------------------------------------


def test_criterion_08_dependence_structure():
    for k in range(1, 6):
        for n in range(2 * k + 4, 41, 7):
            law = indicator_law(n, k)
            top = n - k + 1
            for i in range(1, top + 1):
                for j in range(i + 1, top + 1):
                    joint = joint_indicator_probability(n, k, i, j)
                    product = law.probability(i) * law.probability(j)
                    if j - i <= k:
                        assert joint != product, (n, k, i, j)
                    elif j - i >= k + 2:
                        assert joint == product, (n, k, i, j)
            report = dependence_threshold(n, k)
            # the detected threshold is exactly k+1: "independent from
            # distance k+1 on" holds, "only beyond k+1" does not
            assert report.threshold == k + 1
            assert report.matches_at_least_k_plus_1
            assert not report.matches_strictly_greater_than_k_plus_1


# ----------------------------------------------------------------------
# criterion 9: the explicit normal-approximation bound
# ----------------------------------------------------------------------


def test_criterion_09_bound_ingredients_and_scaling():
    # exact moment sums at the reference point
    assert shifted_moment_sums(10, 1) == (Fraction(19, 16), Fraction(25, 32))
    # the bound equals its definition, substituted independently here
    d = 2
    third, fourth = shifted_moment_sums(10, 1)
    sigma2 = float(variance_k_cycles(10, 1))
    sigma = math.sqrt(sigma2)
    expected = d * d / sigma**3 * float(third) + math.sqrt(28.0) * d**1.5 / (
        math.sqrt(math.pi) * sigma2
    ) * math.sqrt(float(fourth))
    assert abs(wasserstein_bound(10, 1) - expected) < 1e-9
    # the bound decays like 1/sqrt(n): the sqrt(n)-scaled value moves by
    # less than 1% between n = 10^5 and n = 10^6
    scaled_small = math.sqrt(100_000) * wasserstein_bound(100_000, 1)
    scaled_large = math.sqrt(1_000_000) * wasserstein_bound(1_000_000, 1)
    assert abs(scaled_large - scaled_small) / scaled_large < 0.01


# ----------------------------------------------------------------------
# criterion 10: seeded sampling runs against the normal law
# ----------------------------------------------------------------------

CLT_N = 2000
CLT_SAMPLES = 100_000


@pytest.fixture(scope="module")
def clt_runs():
    t0 = time.perf_counter()
    reports = {k: clt_empirical_test(CLT_N, k, CLT_SAMPLES, CLT_PUBLISHED_SEED) for k in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    return reports, elapsed


@pytest.mark.parametrize("k", (1, 2, 3))
def test_criterion_10_sampled_mean_within_three_standard_errors(clt_runs, k):
    rep = clt_runs[0][k]
    se = math.sqrt(float(rep.sigma2) / rep.samples)
    assert abs(rep.emp_mean - float(rep.mu)) <= 3.0 * se


@pytest.mark.parametrize("k", (1, 2, 3))
def test_criterion_10_sampled_variance_within_five_percent(clt_runs, k):
    rep = clt_runs[0][k]
    assert abs(rep.emp_var - float(rep.sigma2)) <= 0.05 * float(rep.sigma2)


@pytest.mark.parametrize("k", (1, 2))
def test_criterion_10_ks_distance_within_tolerance(clt_runs, k):
    assert clt_runs[0][k].ks_stat <= 0.02


@pytest.mark.xfail(
    strict=True,
    reason=(
        "discreteness floor: at n = 2000, k = 3 the standardised 3-part count "
        "lives on a lattice with spacing 1/sigma = 1/sqrt(101.546875) ~ 0.0992, "
        "so the empirical CDF must disagree with the continuous normal by at "
        "least ~0.0238 at the atom boundaries -- above the 0.02 tolerance for "
        "every seed and any number of samples.  The mean and variance checks "
        "for k = 3 pass; only the KS comparison is unattainable as stated."
    ),
)
def test_criterion_10_ks_distance_within_tolerance_k3(clt_runs):
    assert clt_runs[0][3].ks_stat <= 0.02


def test_criterion_10_runtime(clt_runs):
    assert clt_runs[1] < 300.0


# ----------------------------------------------------------------------
# criterion 11: the sampler is uniform
# ----------------------------------------------------------------------


def test_criterion_11_sampler_uniformity_chi_square():
    b = RestrictionVector.b2(8)
    members = sorted(p.images for p in enumerate_b_regular(b))
    assert len(members) == 128
    index = {images: t for t, images in enumerate(members)}
    draws = 100_000
    for seed in (11, 17, 23):
        rng = random.Random(seed)
        counts = [0] * len(members)
        for _ in range(draws):
            counts[index[sample_b_regular(b, rng).images]] += 1
        statistic = sum((c - draws / 128) ** 2 / (draws / 128) for c in counts)
        p_value = stats.chi2.sf(statistic, df=127)
        assert p_value > 0.001, (seed, statistic, p_value)
    # unrestricted case: all 24 permutations of size 4 equally likely
    b4 = RestrictionVector((1, 1, 1, 1))
    members4 = sorted(p.images for p in enumerate_b_regular(b4))
    assert len(members4) == 24
    index4 = {images: t for t, images in enumerate(members4)}
    rng = random.Random(11)
    counts4 = [0] * 24
    for _ in range(draws):
        counts4[index4[sample_b_regular(b4, rng).images]] += 1
    statistic4 = sum((c - draws / 24) ** 2 / (draws / 24) for c in counts4)
    assert stats.chi2.sf(statistic4, df=23) > 0.001


# ----------------------------------------------------------------------
# criterion 12: the two-step staircase family
# ----------------------------------------------------------------------


def test_criterion_12_two_step_staircase_counts_and_probe():
    for n in range(2, 10):
        b = RestrictionVector.br(3, n)
        members = list(enumerate_b_regular(b))
        assert len(members) == 2 * 3 ** (n - 2)
        assert len({p.images for p in members}) == len(members)
        assert all(p.satisfies(b) for p in members)
    report = independence_probe(9, r=3)
    assert report.family_size == 2 * 3**7
    assert report.distinct_cycles > 0
    assert report.disjoint_pairs > 0
    assert report.least_all_independent_gap >= 1
    assert report.gap_summary
