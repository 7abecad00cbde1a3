"""Exact k-cycle moments: the marked-parts closed form for every falling
moment, and the paper's closed forms with their validity predicates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregperm import oracles
from bregperm.cycindex import (
    _marked_parts,
    _segment_count,
    extract_factorial_moment,
    mean_formula_is_exact,
    mean_k_cycles,
    second_falling_formula_is_exact,
    second_falling_moment,
    variance_k_cycles,
)


class TestExtractFactorialMoment:
    def test_anchor(self):
        assert extract_factorial_moment(5, 1, 1) == Fraction(7, 4)
        assert extract_factorial_moment(10, 1, 1) == Fraction(3)
        assert extract_factorial_moment(10, 1, 2) == Fraction(75, 8)

    def test_zeroth_moment_is_one(self):
        # total mass: setting x = 1 leaves one unit per size
        for n in range(1, 13):
            for k in range(1, 14):
                assert extract_factorial_moment(n, k, 0) == 1

    def test_matches_composition_enumeration_for_higher_orders(self):
        # every order m <= 4 and k up to n + 1, the N = n - m k = 0 points included
        for n in range(1, 15):
            comps = oracles.compositions(n)
            for k in range(1, n + 2):
                counts = [oracles.count_parts(parts, k) for parts in comps]
                for m in range(5):
                    assert extract_factorial_moment(n, k, m) == oracles.falling_moment(counts, m), (n, k, m)

    def test_denominators_are_powers_of_two(self):
        for n in range(1, 15):
            for m in range(4):
                d = extract_factorial_moment(n, 2, m).denominator
                assert d & (d - 1) == 0

    def test_orders_past_n_are_zero_at_once(self):
        # n - m k < 0: no composition has m parts of size k
        assert extract_factorial_moment(5, 1, 10**6) == 0
        assert extract_factorial_moment(5, 3, 2) == 0

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            extract_factorial_moment(0, 1, 1)
        with pytest.raises(ValueError, match="moment order"):
            extract_factorial_moment(5, 1, -1)
        with pytest.raises(ValueError, match="k must be"):
            extract_factorial_moment(5, 0, 1)


class TestMarkedParts:
    def test_segment_count_is_the_unmarked_case(self):
        # the shift 2^(m-1) stays the fast path of S(m, 0)
        for m in range(3001):
            assert _segment_count(m) == _marked_parts(m, 0)
        with pytest.raises(ValueError, match="segment mass"):
            _segment_count(-1)


class TestClosedForms:
    def test_anchors(self):
        assert mean_k_cycles(10, 1) == Fraction(3)
        assert second_falling_moment(10, 1) == Fraction(75, 8)
        assert variance_k_cycles(10, 1) == Fraction(27, 8)

    def test_validity_predicates(self):
        assert mean_formula_is_exact(10, 9)
        assert not mean_formula_is_exact(10, 10)
        assert second_falling_formula_is_exact(5, 2)
        assert not second_falling_formula_is_exact(4, 2)

    def test_mean_exact_on_validity_range(self):
        for n in range(1, 10):
            fam = oracles.family(oracles.b2(n))
            for k in range(1, n + 1):
                mean, variance, falling = oracles.cycle_count_stats(fam, k)
                if mean_formula_is_exact(n, k):
                    assert mean_k_cycles(n, k) == mean
                else:
                    assert mean_k_cycles(n, k) != mean
                if second_falling_formula_is_exact(n, k):
                    assert second_falling_moment(n, k) == falling
                    assert variance_k_cycles(n, k) == variance

    def test_first_falling_mismatch_is_n_4_k_2(self):
        # smallest point where the second-falling closed form diverges
        truth = extract_factorial_moment(4, 2, 2)
        assert truth == Fraction(1, 4)
        assert second_falling_moment(4, 2) == Fraction(7, 32)

    def test_argument_validation(self):
        for fn in (mean_k_cycles, second_falling_moment, variance_k_cycles):
            with pytest.raises(ValueError):
                fn(5, 6)
            with pytest.raises(ValueError):
                fn(0, 1)

    @given(st.integers(min_value=1, max_value=10**5), st.data())
    @settings(deadline=None, max_examples=40)
    def test_closed_forms_on_their_ranges_at_scale(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        if mean_formula_is_exact(n, k):
            assert extract_factorial_moment(n, k, 1) == mean_k_cycles(n, k)
        if second_falling_formula_is_exact(n, k):
            assert extract_factorial_moment(n, k, 2) == second_falling_moment(n, k)
