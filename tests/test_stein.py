"""Indicator laws for k-cycle occurrences, pairwise dependence structure,
the explicit normal-approximation bounds, and the seeded sampling runs."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bregperm import oracles
from bregperm.core import CapExceeded
from bregperm.cycindex import mean_k_cycles, variance_k_cycles
from bregperm.stein import (
    _BLOCK_BYTES,
    DependenceReport,
    PRINTED_DEPENDENCY_SIZE_FACTOR,
    WASSERSTEIN_TO_KOLMOGOROV_C,
    clt_empirical_test,
    dependence_threshold,
    independence_probe,
    indicator_law,
    indicator_probability,
    joint_indicator_probability,
    kolmogorov_from_wasserstein,
    sample_k_part_counts,
    shifted_moment_sums,
    standard_normal_cdf,
    stein_bound_report,
    wasserstein_bound,
)


class TestIndicatorProbability:
    def test_anchors(self):
        assert indicator_probability(10, 2, 1) == Fraction(1, 4)
        assert indicator_probability(10, 2, 9) == Fraction(1, 4)
        assert indicator_probability(10, 2, 5) == Fraction(1, 8)
        assert indicator_probability(5, 5, 1) == Fraction(1, 16)

    def test_equals_the_three_case_form(self):
        # the single slot, the two ends and the interior, written out
        for n in range(1, 61):
            for k in range(1, n + 1):
                last = n - k + 1
                for i in range(1, last + 1):
                    if n == k:
                        expected = Fraction(1, 2 ** (n - 1))
                    elif i in (1, last):
                        expected = Fraction(1, 2**k)
                    else:
                        expected = Fraction(1, 2 ** (k + 1))
                    assert indicator_probability(n, k, i) == expected, (n, k, i)

    def test_width_does_not_grow_with_n(self):
        # a 2^(n-1) denominator would need an exabit integer here
        n = 10**18
        for k in (1, 5):
            assert indicator_probability(n, k, 1) == indicator_probability(n, k, n - k + 1) == Fraction(1, 2**k)
            assert indicator_probability(n, k, n // 2) == Fraction(1, 2 ** (k + 1))
            third, fourth = shifted_moment_sums(n, k)
            assert third.denominator.bit_length() < 64 and fourth.denominator.bit_length() < 64

    def test_law_collects_all_positions(self):
        law = indicator_law(9, 2)
        assert law.n == 9 and law.k == 2
        assert len(law.probabilities) == 8
        assert law.probability(1) == Fraction(1, 4)
        assert law.probability(4) == Fraction(1, 8)
        with pytest.raises(ValueError):
            law.probability(9)

    def test_law_equals_the_probability_at_each_position(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                expected = tuple(indicator_probability(n, k, i) for i in range(1, n - k + 2))
                assert indicator_law(n, k).probabilities == expected
        with pytest.raises(ValueError, match="no k-cycle fits"):
            indicator_law(3, 4)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            indicator_probability(3, 0, 1)
        with pytest.raises(ValueError):
            indicator_probability(3, 4, 1)
        with pytest.raises(ValueError):
            indicator_probability(10, 2, 10)


class TestJointProbability:
    def test_anchors(self):
        assert joint_indicator_probability(6, 1, 2, 3) == Fraction(1, 8)
        assert joint_indicator_probability(6, 1, 2, 4) == Fraction(1, 16)

    def test_overlapping_windows_are_impossible(self):
        assert joint_indicator_probability(10, 3, 2, 4) == 0


class TestDependence:
    def test_report_shape(self):
        rep = dependence_threshold(16, 2)
        assert isinstance(rep, DependenceReport)
        assert rep.threshold == 3
        assert rep.witness[1] - rep.witness[0] == 2
        assert rep.matches_at_least_k_plus_1
        assert not rep.matches_strictly_greater_than_k_plus_1

    def test_scan_needs_room(self):
        with pytest.raises(ValueError, match="2k"):
            dependence_threshold(7, 2)

    def test_distance_regimes(self):
        n, k = 18, 2
        law = indicator_law(n, k)
        top = n - k + 1
        for i in range(1, top + 1):
            for j in range(i + 1, top + 1):
                joint = joint_indicator_probability(n, k, i, j)
                product = law.probability(i) * law.probability(j)
                if j - i <= k:
                    assert joint != product
                elif j - i >= k + 1:
                    assert joint == product


class TestMomentSums:
    def test_matches_bernoulli_moments(self):
        def third(p: Fraction) -> Fraction:
            return p * (1 - p) * (p * p + (1 - p) * (1 - p))

        def fourth(p: Fraction) -> Fraction:
            return p * (1 - p) * (p**3 + (1 - p) ** 3)

        for n, k in ((10, 1), (12, 2), (30, 4), (9, 3)):
            law = indicator_law(n, k)
            expected3 = sum(third(p) for p in law.probabilities)
            expected4 = sum(fourth(p) for p in law.probabilities)
            assert shifted_moment_sums(n, k) == (expected3, expected4)


def module_formula(d: int, n: int, k: int) -> float:
    """The module docstring's bound at neighbourhood size d, substituted directly."""
    third, fourth = shifted_moment_sums(n, k)
    sigma2 = float(variance_k_cycles(n, k))
    sigma = math.sqrt(sigma2)
    return d * d / sigma**3 * float(third) + math.sqrt(28.0) * d**1.5 / (
        math.sqrt(math.pi) * sigma2
    ) * math.sqrt(float(fourth))


class TestBounds:
    def test_wasserstein_anchor(self):
        assert abs(wasserstein_bound(10, 1) - 2.97751086165139) < 1e-12
        assert round(wasserstein_bound(10, 1), 2) == 2.98

    def test_direct_substitution(self):
        for n, k in ((10, 1), (50, 2), (200, 3)):
            expected = module_formula(PRINTED_DEPENDENCY_SIZE_FACTOR * k, n, k)
            assert abs(wasserstein_bound(n, k) - expected) < 1e-9

    def test_kolmogorov_conversion(self):
        dw = wasserstein_bound(10, 1)
        dk = kolmogorov_from_wasserstein(dw)
        assert abs(dk - math.sqrt(2.0 * WASSERSTEIN_TO_KOLMOGOROV_C * dw)) == 0
        assert abs(dk - 1.5413338204731901) < 1e-12
        assert dk > 1  # the conversion is reported uncapped
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                kolmogorov_from_wasserstein(bad)

    def test_bound_shrinks_like_square_root(self):
        small = wasserstein_bound(10_000, 1)
        large = wasserstein_bound(1_000_000, 1)
        assert large < small
        assert abs(math.sqrt(1_000_000) * large / (math.sqrt(10_000) * small) - 1) < 0.02

    def test_report_coherence(self):
        rep = stein_bound_report(10, 1)
        assert rep.n == 10 and rep.k == 1
        assert rep.dependency_size == 2
        assert rep.measured_dependency_size == 3
        assert rep.third_moment_sum == Fraction(19, 16)
        assert rep.fourth_moment_sum == Fraction(25, 32)
        assert abs(rep.sigma - math.sqrt(27 / 8)) < 1e-12
        assert rep.wasserstein == wasserstein_bound(10, 1)
        assert rep.kolmogorov == kolmogorov_from_wasserstein(rep.wasserstein)
        assert rep.wasserstein_at_measured_size == module_formula(3, 10, 1)
        assert rep.wasserstein_at_measured_size > rep.wasserstein

    def test_variance_guard(self):
        with pytest.raises(ValueError, match="2k"):
            wasserstein_bound(4, 2)


class TestNormalCdf:
    def test_values(self):
        assert standard_normal_cdf(0.0) == 0.5
        assert abs(standard_normal_cdf(1.959963984540054) - 0.975) < 1e-12
        for z in (-2.0, -0.5, 0.3, 1.7):
            assert abs(standard_normal_cdf(z) + standard_normal_cdf(-z) - 1.0) < 1e-15


def unpacked_reference(n: int, k: int, draws: int, seed: int) -> list[int]:
    """The sampler's words drawn in one call, unpacked one bit per cell,
    gaps between consecutive cuts counted."""
    words = np.random.default_rng(seed).integers(0, 2**64, size=(draws, (n + 64) // 64), dtype=np.uint64)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, : n + 1]
    bits[:, [0, n]] = 1
    rows, cols = np.nonzero(bits)
    same_row = rows[1:] == rows[:-1]
    return np.bincount(rows[1:][same_row & (np.diff(cols) == k)], minlength=draws).tolist()


class TestSampling:
    def test_counts_are_bounded(self):
        rng = np.random.default_rng(1)
        counts = sample_k_part_counts(20, 3, 500, rng)
        assert counts.min() >= 0
        assert counts.max() <= 20 // 3

    def test_distribution_matches_exact_law(self):
        # seeded run compared cell-by-cell against the enumerated pmf
        for n, k, seed in ((6, 1, 0), (7, 3, 1)):
            comps = oracles.compositions(n)
            pmf: dict[int, int] = {}
            for parts in comps:
                c = oracles.count_parts(parts, k)
                pmf[c] = pmf.get(c, 0) + 1
            draws = 40_000
            rng = np.random.default_rng(seed)
            observed = sample_k_part_counts(n, k, draws, rng)
            values = sorted(pmf)
            obs = np.array([(observed == v).sum() for v in values], dtype=float)
            exp = np.array([pmf[v] * draws / len(comps) for v in values])
            _, p_value = stats.chisquare(obs, exp)
            assert p_value > 0.001

    @pytest.mark.parametrize("n", (2, 3, 63, 64, 65, 127, 128, 129, 200))
    def test_counts_equal_unpacked_reference_at_word_edges(self, n):
        draws = 300
        for k in range(1, min(n, 6) + 1):
            got = sample_k_part_counts(n, k, draws, np.random.default_rng(k))
            assert got.tolist() == unpacked_reference(n, k, draws, k)

    @pytest.mark.parametrize("n", (63, 64, 65, 2000))
    def test_blocks_concatenate_to_one_draw(self, n):
        # two full blocks and a partial one; k >= 64 shifts by whole words
        draws = 2 * (_BLOCK_BYTES // (8 * ((n + 64) // 64))) + 37
        for k in (1, 2, 3, 64, 65, 70):
            if k <= n:
                got = sample_k_part_counts(n, k, draws, np.random.default_rng(k))
                assert got.tolist() == unpacked_reference(n, k, draws, k)

    def test_row_sums_accumulate_past_a_byte(self):
        # every bit a cut: 64 hits per word, n = 2000 one-parts per row
        class AllCuts:
            @staticmethod
            def integers(low, high, size, dtype):
                return np.full(size, np.iinfo(dtype).max, dtype=dtype)

        counts = sample_k_part_counts(2000, 1, 5, AllCuts())
        assert counts.dtype == np.int64
        assert counts.tolist() == [2000] * 5

    def test_word_budget_is_checked_before_allocating(self):
        with pytest.raises(CapExceeded, match="random words"):
            sample_k_part_counts(10, 1, 2**62, np.random.default_rng(0))
        # one random word plus one result word per draw below n = 63
        with pytest.raises(CapExceeded) as info:
            sample_k_part_counts(10, 1, 2**28, np.random.default_rng(0))
        assert (info.value.needed, info.value.cap) == (2**29, 2**28)

    def test_argument_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_k_part_counts(1, 1, 10, rng)
        with pytest.raises(ValueError):
            sample_k_part_counts(6, 0, 10, rng)


class TestCltRun:
    def test_seeded_report_is_coherent(self):
        rep = clt_empirical_test(60, 1, 5000, 123)
        assert (rep.n, rep.k, rep.samples, rep.seed) == (60, 1, 5000, 123)
        assert rep.mu == mean_k_cycles(60, 1)
        assert rep.sigma2 == variance_k_cycles(60, 1)
        assert sum(c for _, _, c in rep.histogram) == 5000
        assert 0 < rep.ks_stat < 1
        assert rep.dw_bound == wasserstein_bound(60, 1)
        assert rep.dk_bound == kolmogorov_from_wasserstein(rep.dw_bound)
        sigma = math.sqrt(float(rep.sigma2))
        assert abs(rep.emp_mean - float(rep.mu)) < 5 * sigma / math.sqrt(5000)
        # deterministic: the same seed reproduces the same statistic
        again = clt_empirical_test(60, 1, 5000, 123)
        assert again.ks_stat == rep.ks_stat

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_histogram_tallies_like_a_sorted_unique(self, k):
        n, samples = 60, 3000
        for seed in (0, 7, 42):
            rep = clt_empirical_test(n, k, samples, seed)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n, k])))
            values, freq = np.unique(sample_k_part_counts(n, k, samples, rng), return_counts=True)
            mu, sigma = float(rep.mu), math.sqrt(float(rep.sigma2))
            assert rep.histogram == tuple(
                ((float(v) - 0.5 - mu) / sigma, (float(v) + 0.5 - mu) / sigma, int(c))
                for v, c in zip(values, freq)
            )

    def test_histogram_bins_are_unit_intervals(self):
        rep = clt_empirical_test(40, 2, 2000, 7)
        sigma = math.sqrt(float(rep.sigma2))
        for lo, hi, _ in rep.histogram:
            assert abs((hi - lo) - 1.0 / sigma) < 1e-12

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            clt_empirical_test(4, 2, 100, 0)
        with pytest.raises(ValueError):
            clt_empirical_test(60, 1, 1, 0)

    def test_bad_seed_and_k_are_checked_before_seeding(self):
        # one-line messages, not numpy's "expected non-negative integer"
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            clt_empirical_test(60, 1, 100, -1)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got -1$"):
            clt_empirical_test(60, -1, 100, 42)


class TestIndependenceProbe:
    def test_pair_budget_is_checked_before_the_scan(self, monkeypatch):
        # past 5792 distinct cycles the pairs pass 2^24: refused while the
        # cycles are numbered, not minutes into the pair scan
        for n, r in ((12, 3), (15, 3), (9, 4), (10, 4), (11, 4), (8, 5), (9, 5), (10, 5), (9, 6)):
            start = time.perf_counter()
            with pytest.raises(CapExceeded) as info:
                independence_probe(n, r)
            assert time.perf_counter() - start < 1.0
            assert (info.value.needed, info.value.cap) == (5794 * 5793 // 2, 1 << 24)
        # the budget counts every pair of the numbered cycles: (9, 3) has 1145
        pairs = 1145 * 1144 // 2
        monkeypatch.setattr("bregperm.stein._PAIR_BUDGET", pairs)
        assert independence_probe(9, 3).distinct_cycles == 1145
        monkeypatch.setattr("bregperm.stein._PAIR_BUDGET", pairs - 1)
        with pytest.raises(CapExceeded) as info:
            independence_probe(9, 3)
        assert info.value.needed == pairs


class TestEvidencePins:
    """Whole evidence reports, recorded before the two scans shared one tally."""

    RECORDED = json.loads(Path(__file__).with_name("stein_evidence.json").read_text())

    @staticmethod
    def as_json(report) -> dict:
        return json.loads(json.dumps(asdict(report)))

    def test_independence_probe_reports(self):
        recorded = self.RECORDED["independence_probe"]
        grid = [(n, r) for r in range(1, 5) for n in range(2, (8 if r < 4 else 7) + 1)]
        assert [(row["n"], row["r"]) for row in recorded] == grid
        for row in recorded:
            assert self.as_json(independence_probe(row["n"], row["r"])) == row

    def test_dependence_threshold_reports(self):
        recorded = self.RECORDED["dependence_threshold"]
        grid = [(n, k) for k in range(1, 6) for n in range(2 * k + 4, 41)]
        assert [(row["n"], row["k"]) for row in recorded] == grid
        for row in recorded:
            assert self.as_json(dependence_threshold(row["n"], row["k"])) == row
