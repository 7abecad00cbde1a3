"""Exact permanents (inclusion-exclusion and enumeration) and the
fixed-point reduction calculus on restriction vectors."""

from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from bregperm import oracles, permanent
from bregperm.bregular import count_b_regular, count_with_fixed_points, reduce_vector_on_fixed_point
from bregperm.core import CapExceeded, RestrictionMatrix, RestrictionVector, matrix_from_vector
from bregperm.permanent import _CRT_PRIME, _RYSER_BUDGET, permanent_enumerate, permanent_ryser


@pytest.fixture
def walks(monkeypatch) -> list[int | None]:
    """The modulus of each Ryser walk taken: None for 2^64, else the prime."""
    taken: list[int | None] = []
    walk = permanent._ryser_walk

    def counted(a, table, low, p):
        taken.append(p)
        return walk(a, table, low, p)

    monkeypatch.setattr(permanent, "_ryser_walk", counted)
    return taken


class TestPermanentRyser:
    def test_identity_and_all_ones(self):
        for n in (*range(1, 8), 16, 17):
            eye = RestrictionMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
            ones = RestrictionMatrix(tuple(tuple(1 for _ in range(n)) for _ in range(n)))
            assert permanent_ryser(eye) == 1
            assert permanent_ryser(ones) == math.factorial(n)

    def test_zero_row_gives_zero(self):
        m = RestrictionMatrix(((0, 0, 0), (1, 1, 1), (1, 1, 1)))
        assert permanent_ryser(m) == 0
        assert permanent_enumerate(m) == 0

    def test_cap(self):
        # n * 2^n steps: 25 * 2^25 fits the 2^30 budget, 26 * 2^26 does not
        with pytest.raises(CapExceeded) as info:
            permanent_ryser(matrix_from_vector(RestrictionVector.b2(26)))
        assert info.value.needed == 26 << 26
        assert info.value.cap == 1 << 30 > 25 << 25

    def test_residues_join_past_two_to_the_64(self, walks):
        # Bregman's bound on the all-ones J_n is n! itself, and 21! > 2^64,
        # so J_21..J_23 need a prime residue on top of the one modulo 2^64
        for n in (21, 22, 23):
            walks.clear()
            ones = RestrictionMatrix(tuple((1,) * n for _ in range(n)))
            assert math.factorial(n) > 1 << 64
            assert permanent_ryser(ones) == math.factorial(n)
            assert walks == [None, _CRT_PRIME]
        # b2(21): row-sum product and 21! both pass 2^64, Bregman's bound is 2^46.7
        walks.clear()
        assert permanent_ryser(matrix_from_vector(RestrictionVector.b2(21))) == 2**20
        assert walks == [None]

    def test_bregman_bound_spares_the_second_walk(self, walks):
        # 47-bit permanent, 76-bit row-sum product, 49.7-bit Bregman bound;
        # the value was taken with both walks joined
        rng = random.Random(1)
        m = RestrictionMatrix(tuple(tuple(rng.randrange(2) for _ in range(22)) for _ in range(22)))
        assert permanent_ryser(m) == 88502691042212
        assert walks == [None]

    def test_one_prime_residue_covers_the_budget(self):
        # every admitted permanent is at most n!, which one residue modulo
        # the prime joins with the one modulo 2^64
        largest = max(n for n in range(1, 64) if n << n <= _RYSER_BUDGET)
        assert math.factorial(largest) < (1 << 64) * _CRT_PRIME

    def test_peak_memory_stays_within_two_tables(self):
        # numpy reports its buffers to tracemalloc; the row-sum table of b2(18)
        # is 18 rows of 2^12 uint64 sums, and the walk adds no copy of it
        m = matrix_from_vector(RestrictionVector.b2(18))
        tracemalloc.start()
        try:
            permanent_ryser(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 18 * (1 << 12) * 8

    def test_high_columns_match_product_formula(self):
        # n > 12 splits the columns into the row-sum table and the Gray walk
        rng = random.Random(5)
        for n in (13, 14, 15, 16, 17, 18, 19, 20):
            entries: list[int] = []
            for i in range(1, n + 1):
                entries.append(rng.randint(entries[-1] if entries else 1, i))
            b = RestrictionVector(tuple(entries))
            assert permanent_ryser(matrix_from_vector(b)) == count_b_regular(b)

    @given(strategies.zero_one_matrices(max_n=8))
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force(self, rows):
        m = RestrictionMatrix(rows)
        assert permanent_ryser(m) == oracles.permanent([list(r) for r in rows])


class TestPermanentEnumerate:
    def test_cap(self):
        # n! terms: 10! fits the 2^22 budget, 11! does not
        m11 = matrix_from_vector(RestrictionVector.b2(11))
        with pytest.raises(CapExceeded) as info:
            permanent_enumerate(m11)
        assert info.value.needed == math.factorial(11)
        assert info.value.cap == 1 << 22 > math.factorial(10)
        assert permanent_enumerate(matrix_from_vector(RestrictionVector.b2(9))) == 256

    @given(strategies.zero_one_matrices(max_n=5))
    @settings(deadline=None, max_examples=40)
    def test_matches_ryser(self, rows):
        m = RestrictionMatrix(rows)
        assert permanent_enumerate(m) == permanent_ryser(m)


class TestReduceVector:
    def test_anchor(self):
        b = RestrictionVector((1, 1, 2, 4, 4))
        assert reduce_vector_on_fixed_point(b, 2).entries == (1, 2, 3, 3)
        assert reduce_vector_on_fixed_point(RestrictionVector((1,)), 1).entries == ()

    def test_index_validation(self):
        b = RestrictionVector.b2(4)
        with pytest.raises(ValueError):
            reduce_vector_on_fixed_point(b, 0)
        with pytest.raises(ValueError):
            reduce_vector_on_fixed_point(b, 5)
        # a non-integer index is refused, not used as a slice bound or compared as a string
        for index in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match=f"not an integer: {index!r}"):
                reduce_vector_on_fixed_point(b, index)

    @given(strategies.restriction_vectors(max_n=10), st.data())
    @settings(deadline=None)
    def test_result_is_valid_and_one_shorter(self, b, data):
        i = data.draw(st.integers(min_value=1, max_value=b.n), label="i")
        reduced = reduce_vector_on_fixed_point(b, i)
        assert reduced.n == b.n - 1  # validity is enforced by the constructor

    @given(strategies.restriction_vectors(min_n=2, max_n=10), st.data())
    @settings(deadline=None)
    def test_order_independence(self, b, data):
        i = data.draw(st.integers(min_value=1, max_value=b.n - 1), label="i")
        j = data.draw(st.integers(min_value=i + 1, max_value=b.n), label="j")
        via_j_first = reduce_vector_on_fixed_point(reduce_vector_on_fixed_point(b, j), i)
        via_i_first = reduce_vector_on_fixed_point(reduce_vector_on_fixed_point(b, i), j - 1)
        assert via_j_first == via_i_first

    @given(strategies.restriction_vectors(max_n=6), st.data())
    @settings(deadline=None, max_examples=60)
    def test_reduction_counts_the_conditioned_family(self, b, data):
        i = data.draw(st.integers(min_value=1, max_value=b.n), label="i")
        expected = sum(1 for images in oracles.family(b.entries) if images[i - 1] == i)
        assert count_with_fixed_points(b, {i}) == count_b_regular(reduce_vector_on_fixed_point(b, i)) == expected


class TestCountWithFixedPoints:
    def test_anchors(self):
        b5 = RestrictionVector.b2(5)
        assert count_with_fixed_points(b5, {1}) == 8
        assert count_with_fixed_points(b5, {2, 3}) == 2
        assert count_with_fixed_points(b5, set()) == 16
        assert count_with_fixed_points(b5, {1, 2, 3, 4, 5}) == 1

    def test_label_validation(self):
        b = RestrictionVector.b2(4)
        with pytest.raises(ValueError):
            count_with_fixed_points(b, {0})
        with pytest.raises(ValueError):
            count_with_fixed_points(b, {5})
        # a non-integer label is refused, not rounded into the product or compared as a string
        for label in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match=f"not an integer: {label!r}"):
                count_with_fixed_points(b, {label})

    def test_bit_budget_is_checked_before_multiplying(self):
        # with nothing pinned the count is |S_b|: 2^(2^20 + 1) for this b
        b = RestrictionVector.b2((1 << 20) + 2)
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as info:
            count_with_fixed_points(b, set())
        assert time.perf_counter() - start < 1.0
        assert (info.value.needed, info.value.cap) == ((1 << 20) + 1, 1 << 20)

    @given(strategies.restriction_vectors(max_n=6), st.data())
    @settings(deadline=None, max_examples=100)
    def test_every_pinned_set_matches_enumeration(self, b, data):
        labels = data.draw(st.sets(st.integers(min_value=1, max_value=b.n)), label="fixed")
        expected = sum(1 for images in oracles.family(b.entries) if all(images[f - 1] == f for f in labels))
        assert count_with_fixed_points(b, labels) == expected

    @given(strategies.restriction_vectors(max_n=40), st.data())
    @settings(deadline=None, max_examples=100)
    def test_long_cover_intervals_match_reduction(self, b, data):
        # an exact path that never walks a cover interval: pin each label by
        # reducing b at it, largest first so the smaller labels keep their index
        labels = data.draw(st.sets(st.integers(min_value=1, max_value=b.n), max_size=6), label="fixed")
        reduced = b
        for f in sorted(labels, reverse=True):
            reduced = reduce_vector_on_fixed_point(reduced, f)
        assert count_with_fixed_points(b, labels) == count_b_regular(reduced)

    @given(strategies.restriction_vectors(max_n=6), st.data())
    @settings(deadline=None, max_examples=60)
    def test_pairs_match_enumeration(self, b, data):
        if b.n < 2:
            return
        i = data.draw(st.integers(min_value=1, max_value=b.n - 1), label="i")
        j = data.draw(st.integers(min_value=i + 1, max_value=b.n), label="j")
        expected = sum(
            1
            for images in oracles.family(b.entries)
            if images[i - 1] == i and images[j - 1] == j
        )
        assert count_with_fixed_points(b, {i, j}) == expected
