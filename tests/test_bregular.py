"""Counting, enumeration, uniform sampling, and exact fixed-point moments
of restricted permutation families."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import strategies
import bregperm
from bregperm import oracles
from bregperm.bregular import (
    count_b_regular,
    count_k_cycles,
    count_with_fixed_points,
    enumerate_b_regular,
    fixed_point_mean,
    fixed_point_variance,
    sample_b_regular,
)
from bregperm.core import CapExceeded, Permutation, RestrictionVector
from bregperm.cycindex import extract_factorial_moment


class TestCount:
    def test_two_step_staircase_triples(self):
        for n in range(2, 11):
            assert count_b_regular(RestrictionVector.br(3, n)) == 2 * 3 ** (n - 2)

    def test_unrestricted_is_factorial(self):
        for n in range(1, 9):
            b = RestrictionVector((1,) * n)
            assert count_b_regular(b) == math.factorial(n)

    def test_anchor(self):
        assert count_b_regular(RestrictionVector((1, 1, 2, 4, 4))) == 8

    def test_bit_budget_is_checked_before_multiplying(self):
        # b2(n) counts 2^(n-1): n - 1 = 2^20 bits is the largest admitted
        assert count_b_regular(RestrictionVector.b2((1 << 20) + 1)) == 1 << (1 << 20)
        with pytest.raises(CapExceeded) as info:
            count_b_regular(RestrictionVector.b2((1 << 20) + 2))
        assert (info.value.needed, info.value.cap) == ((1 << 20) + 1, 1 << 20)
        # grouping equal slacks does not shrink n!, about 1.5 * 10^6 bits at n = 10^5
        with pytest.raises(CapExceeded) as info:
            count_b_regular(RestrictionVector((1,) * 10**5))
        assert info.value.needed == 1516705  # ceil(log2(10^5!))

    @given(strategies.restriction_vectors(max_n=7))
    @settings(deadline=None, max_examples=60)
    def test_matches_filter_oracle(self, b):
        assert count_b_regular(b) == len(oracles.family(b.entries))


class TestEnumerate:
    def test_yields_exactly_the_family(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                b = RestrictionVector.br(r, n)
                got = sorted(p.images for p in enumerate_b_regular(b))
                assert got == oracles.family(b.entries)

    def test_deterministic_order_and_no_duplicates(self):
        b = RestrictionVector.b2(7)
        first = [p.images for p in enumerate_b_regular(b)]
        second = [p.images for p in enumerate_b_regular(b)]
        assert first == second
        assert len(set(first)) == len(first) == 64

    def test_cap_checked_before_iteration(self):
        # 2^23 members, twice the 2^22 budget
        with pytest.raises(CapExceeded) as info:
            enumerate_b_regular(RestrictionVector.b2(24))
        assert info.value.needed == 1 << 23
        assert info.value.cap == 1 << 22
        # a count past Python's 4300-digit int-to-str limit still raises CapExceeded
        with pytest.raises(CapExceeded) as info:
            enumerate_b_regular(RestrictionVector.b2(20000))
        assert info.value.needed == 1 << 19999
        assert str(info.value) == "enumerate_b_regular members needs at least 2^19999, exceeding the cap of 4194304"

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            enumerate_b_regular(RestrictionVector(()))

    def test_one_member_family_at_n_3000(self):
        # a recursive walk would need one Python frame per position here
        n = 3000
        members = list(enumerate_b_regular(RestrictionVector(tuple(range(1, n + 1)))))
        assert [p.images for p in members] == [tuple(range(1, n + 1))]

    @given(strategies.restriction_vectors(max_n=7))
    @settings(deadline=None, max_examples=40)
    def test_members_satisfy_bounds(self, b):
        members = list(enumerate_b_regular(b))
        assert len(members) == count_b_regular(b)
        assert all(p.satisfies(b) for p in members)


class TestSample:
    def test_membership_and_seed_determinism(self):
        b = RestrictionVector((1, 1, 2, 4, 4))
        p1 = sample_b_regular(b, 7)
        p2 = sample_b_regular(b, 7)
        assert p1 == p2
        assert p1.satisfies(b)

    def test_shared_rng_advances(self):
        b = RestrictionVector.b2(9)
        rng = random.Random(3)
        draws = [sample_b_regular(b, rng) for _ in range(50)]
        assert all(p.satisfies(b) for p in draws)
        assert len({p.images for p in draws}) > 1

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            sample_b_regular(RestrictionVector(()), 0)

    def test_seeded_draws_are_pinned(self):
        # recorded outputs: any change to the draw stream shows here
        assert sample_b_regular(RestrictionVector.br(3, 12), 7).images == (
            2, 1, 7, 4, 3, 8, 5, 6, 12, 10, 9, 11)
        b = RestrictionVector((1, 1, 2, 4, 4, 4, 5))
        assert [sample_b_regular(b, seed).images for seed in range(3)] == [
            (1, 2, 3, 7, 4, 5, 6), (1, 3, 2, 6, 4, 7, 5), (1, 3, 2, 7, 6, 4, 5)]

    def test_small_family_frequencies_are_uniform(self):
        # deterministic seeded run; loose bounds around the exact mean
        b = RestrictionVector.b2(4)
        rng = random.Random(5)
        counts: dict[tuple[int, ...], int] = {}
        draws = 8000
        for _ in range(draws):
            key = sample_b_regular(b, rng).images
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 8
        expected = draws / 8
        assert all(0.85 * expected < c < 1.15 * expected for c in counts.values())

    @given(strategies.restriction_vectors(max_n=10))
    @settings(deadline=None)
    def test_draws_stay_in_family(self, b):
        assert sample_b_regular(b, 1).satisfies(b)


class TestFixedPointMoments:
    def test_anchors(self):
        b = RestrictionVector.b2(5)
        assert fixed_point_mean(b) == Fraction(7, 4)
        assert fixed_point_variance(b) == Fraction(29, 16)

    @pytest.mark.parametrize("n", [40, 77, 150])
    def test_staircase_moments_equal_the_series(self, n):
        # the pinned counts against the k = 1 composition series at workload sizes
        m1 = extract_factorial_moment(n, 1, 1)
        b = RestrictionVector.b2(n)
        assert fixed_point_mean(b) == m1
        assert fixed_point_variance(b) == extract_factorial_moment(n, 1, 2) + m1 - m1 * m1

    @given(strategies.restriction_vectors(max_n=40))
    @settings(deadline=None, max_examples=50)
    def test_moments_equal_the_public_pinned_counts(self, b):
        # wide vectors have many distinct slacks and overlapping cover intervals
        n = b.n
        total = count_with_fixed_points(b, set())
        singles = sum(count_with_fixed_points(b, {i}) for i in range(1, n + 1))
        pairs = sum(count_with_fixed_points(b, {i, j}) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        mean = Fraction(singles, total)
        assert fixed_point_mean(b) == mean
        assert fixed_point_variance(b) == Fraction(2 * pairs, total) + mean - mean * mean

    def test_unrestricted_family_mean_is_one(self):
        for n in range(1, 7):
            b = RestrictionVector((1,) * n)
            assert fixed_point_mean(b) == 1

    def test_slack_budget_is_checked_before_counting(self):
        # the mean takes n pinned counts and the variance n (n - 1) / 2, each
        # charged max(n, log2 |S_b|) steps, an upper bound on a count read
        # from the shared slack histogram; a staircase is charged n per count
        with pytest.raises(CapExceeded) as info:
            fixed_point_variance(RestrictionVector.b2(2000))
        assert (info.value.needed, info.value.cap) == (2000 * 1999 // 2 * 2000, 1 << 23)
        assert 256 * 255 // 2 * 256 <= info.value.cap < 257 * 256 // 2 * 257
        with pytest.raises(CapExceeded) as info:
            fixed_point_mean(RestrictionVector.b2(2897))
        assert (info.value.needed, info.value.cap) == (2897 * 2897, 1 << 23)
        assert 2896 * 2896 <= info.value.cap

    def test_slack_budget_counts_integer_width(self):
        # (1,) * n has |S_b| = n!, so each count is a product about log2 n! bits wide
        for size, moment, counts in ((1000, fixed_point_mean, 1000), (150, fixed_point_variance, 150 * 149 // 2)):
            with pytest.raises(CapExceeded) as info:
                moment(RestrictionVector((1,) * size))
            assert info.value.needed == counts * math.ceil(math.log2(math.factorial(size)))
        assert fixed_point_mean(RestrictionVector((1,) * 500)) == 1


class TestCountKCycles:
    def test_anchors(self):
        p = Permutation((2, 3, 1, 5, 4, 6))
        assert count_k_cycles(p, 1) == 1
        assert count_k_cycles(p, 2) == 1
        assert count_k_cycles(p, 3) == 1
        assert count_k_cycles(p, 4) == 0
        with pytest.raises(ValueError):
            count_k_cycles(p, 0)

    @given(strategies.permutations(max_n=12))
    @settings(deadline=None)
    def test_matches_cycle_oracle(self, p):
        for k in range(1, p.n + 1):
            assert count_k_cycles(p, k) == oracles.count_cycles(p.images, k)


class TestLayering:
    def test_counting_loads_neither_numpy_nor_permanents(self):
        # a bare package module skips __init__, so only the named modules and
        # what they import get loaded
        script = """
import sys, types
from fractions import Fraction
package = types.ModuleType("bregperm")
package.__path__ = [sys.argv[1]]
sys.modules["bregperm"] = package
import bregperm.core, bregperm.bregular, bregperm.bijection, bregperm.cycindex
loaded = [name for name in ("numpy", "bregperm.permanent") if name in sys.modules]
assert not loaded, loaded
b = bregperm.core.RestrictionVector.b2(5)
assert bregperm.bregular.count_b_regular(b) == 16
assert bregperm.bregular.fixed_point_variance(b) == Fraction(29, 16)
"""
        package_dir = str(Path(bregperm.__file__).parent)
        proc = subprocess.run([sys.executable, "-c", script, package_dir], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
