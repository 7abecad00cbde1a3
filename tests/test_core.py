"""Value types: restriction vectors and matrices, permutations, cycle
types, compositions, and the resource-cap exception."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import strategies
from bregperm import core, oracles
from bregperm.core import (
    CapExceeded,
    Composition,
    Permutation,
    RestrictionMatrix,
    RestrictionVector,
    cycle_type,
    matrix_from_vector,
)


class TestRestrictionVector:
    def test_builders_agree(self):
        assert RestrictionVector.b2(5).entries == (1, 1, 2, 3, 4)
        assert RestrictionVector.br(2, 5) == RestrictionVector.b2(5)
        assert RestrictionVector.br(3, 6).entries == (1, 1, 1, 2, 3, 4)

    def test_b2_matches_staircase_oracle(self):
        for n in range(1, 12):
            assert RestrictionVector.b2(n).entries == oracles.b2(n)
            for r in range(1, n + 2):
                assert RestrictionVector.br(r, n).entries == oracles.staircase(r, n)

    def test_one_based_access(self):
        b = RestrictionVector((1, 1, 2, 3))
        assert b[1] == 1 and b[4] == 3
        assert b.n == 4
        assert list(b) == [1, 1, 2, 3]
        with pytest.raises(IndexError):
            b[0]
        with pytest.raises(IndexError):
            b[5]

    def test_rejects_entry_above_position(self):
        with pytest.raises(ValueError, match="1 <= b_2 <= 2"):
            RestrictionVector((1, 3, 3))

    def test_rejects_decreasing_entries(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RestrictionVector((1, 2, 1))

    def test_rejects_nonpositive_and_noninteger(self):
        with pytest.raises(ValueError):
            RestrictionVector((0,))
        with pytest.raises(ValueError):
            RestrictionVector((1, 1.5))  # type: ignore[arg-type]

    def test_empty_vector_permitted(self):
        assert RestrictionVector(()).n == 0

    def test_builder_argument_validation(self):
        with pytest.raises(ValueError):
            RestrictionVector.b2(0)
        with pytest.raises(ValueError):
            RestrictionVector.br(0, 5)
        with pytest.raises(ValueError):
            RestrictionVector.br(2, 0)

    def test_staircase_budget_is_checked_before_building(self, monkeypatch):
        # b2(2^20 + 2) must still be built, so that its count meets the bit cap
        assert (1 << 20) + 2 <= core._STAIRCASE_BUDGET
        monkeypatch.setattr(core, "_STAIRCASE_BUDGET", 8)
        assert RestrictionVector.b2(8).n == RestrictionVector.br(3, 8).n == 8

        def built(self):
            raise AssertionError("the vector was built")

        monkeypatch.setattr(RestrictionVector, "__post_init__", built)
        for build, args in ((RestrictionVector.b2, (9,)), (RestrictionVector.br, (3, 9))):
            with pytest.raises(CapExceeded) as info:
                build(*args)
            assert (info.value.needed, info.value.cap) == (9, 8)

    @given(strategies.restriction_vectors(max_n=10))
    @settings(deadline=None)
    def test_generated_vectors_are_valid(self, b):
        assert len(b.entries) == b.n
        assert all(1 <= v <= i for i, v in enumerate(b.entries, start=1))
        assert all(b.entries[i] <= b.entries[i + 1] for i in range(b.n - 1))


class TestRestrictionMatrix:
    def test_from_vector_staircase(self):
        m = matrix_from_vector(RestrictionVector((1, 1, 2, 4, 4)))
        assert m.rows == (
            (1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1),
            (0, 1, 1, 1, 1),
            (0, 0, 0, 1, 1),
            (0, 0, 0, 1, 1),
        )
        assert m.rows[2][0] == 0 and m.rows[2][1] == 1

    def test_rejects_empty_and_ragged_and_nonbinary(self):
        with pytest.raises(ValueError, match="at least one row"):
            RestrictionMatrix(())
        with pytest.raises(ValueError, match="length"):
            RestrictionMatrix(((1, 0), (1,)))
        with pytest.raises(ValueError, match="0 or 1"):
            RestrictionMatrix(((2,),))

    def test_from_rows_normalises(self):
        m = RestrictionMatrix([[1, 0], [0, 1]])
        assert m.rows == ((1, 0), (0, 1))
        assert m.n == 2

    def test_from_vector_is_capped_before_building(self):
        # n^2 entries against a 2^20 budget, so n <= 1024
        with pytest.raises(CapExceeded) as info:
            matrix_from_vector(RestrictionVector.b2(2000))
        assert (info.value.needed, info.value.cap) == (2000**2, 1 << 20)

    def test_vector_of_empty_has_no_matrix(self):
        with pytest.raises(ValueError):
            matrix_from_vector(RestrictionVector(()))

    @given(strategies.restriction_vectors(max_n=8))
    @settings(deadline=None)
    def test_row_i_has_ones_from_b_i(self, b):
        m = matrix_from_vector(b)
        for i in range(1, b.n + 1):
            for j in range(1, b.n + 1):
                assert m.rows[i - 1][j - 1] == (1 if j >= b[i] else 0)


class TestPermutation:
    def test_images_and_validation(self):
        p = Permutation((2, 1, 3))
        assert p.n == 3
        assert p.images[0] == 2 and p.images[2] == 3
        # a duplicate, 0, n + 1, a non-integer, mixed types: ValueError, never TypeError
        for images in ((1, 1, 3), (2, 3, 1, 3), (0, 1, 2), (1, 2, 4), (3, 1), (1, 1.5), ("a", 1), (1, "2")):
            with pytest.raises(ValueError, match="rearrangement"):
                Permutation(images)
        with pytest.raises(ValueError):
            Permutation(())

    def test_satisfies(self):
        b = RestrictionVector.b2(4)
        assert Permutation((1, 3, 2, 4)).satisfies(b)
        assert Permutation((2, 1, 4, 3)).satisfies(b)
        assert not Permutation((2, 3, 4, 1)).satisfies(b)
        assert not Permutation((4, 3, 2, 1)).satisfies(b)
        with pytest.raises(ValueError, match="does not match"):
            Permutation((1, 2)).satisfies(b)

    def test_satisfies_agrees_with_filter_oracle(self):
        b = RestrictionVector.b2(5)
        members = {p for p in oracles.family(b.entries)}
        import itertools

        for images in itertools.permutations(range(1, 6)):
            assert Permutation(images).satisfies(b) == (images in members)

    def test_cycles_start_at_minimum_in_application_order(self):
        assert Permutation((2, 1, 3)).cycles() == ((1, 2), (3,))
        assert Permutation((3, 1, 2)).cycles() == ((1, 3, 2),)
        assert Permutation((2, 3, 1, 5, 4)).cycles() == ((1, 2, 3), (4, 5))

    @given(strategies.permutations(max_n=12))
    @settings(deadline=None)
    def test_cycles_partition_and_follow_images(self, p):
        cycles = p.cycles()
        flattened = sorted(v for c in cycles for v in c)
        assert flattened == list(range(1, p.n + 1))
        for c in cycles:
            assert c[0] == min(c)
            for t in range(len(c)):
                assert p.images[c[t] - 1] == c[(t + 1) % len(c)]


class TestCycleType:
    def test_from_permutation(self):
        assert cycle_type(Permutation((2, 1, 3))).counts == ((1, 1), (2, 1))
        ct = cycle_type(Permutation((2, 3, 1, 5, 4, 6)))
        assert ct.counts == ((1, 1), (2, 1), (3, 1))
        assert ct.multiplicity(2) == 1
        assert ct.multiplicity(4) == 0

    @given(strategies.permutations(max_n=12))
    @settings(deadline=None)
    def test_matches_cycle_length_oracle(self, p):
        from collections import Counter

        expected = Counter(oracles.cycle_lengths(p.images))
        counts = cycle_type(p).counts
        assert counts == tuple(sorted(expected.items()))
        assert sum(k * m for k, m in counts) == p.n


class TestComposition:
    def test_parts_and_counts(self):
        c = Composition((1, 3, 1, 5))
        assert c.total == 10
        assert c.count_parts(1) == 2
        assert c.count_parts(5) == 1
        assert c.count_parts(2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((1, 0, 2))


class TestCapExceeded:
    def test_message_and_attributes(self):
        exc = CapExceeded("permanent_ryser matrix dimension", 40, 30)
        assert str(exc) == "permanent_ryser matrix dimension needs 40, exceeding the cap of 30"
        assert exc.what == "permanent_ryser matrix dimension"
        assert exc.needed == 40
        assert exc.cap == 30
        assert isinstance(exc, RuntimeError)

    def test_needed_wider_than_64_bits_is_shown_as_a_power_of_two(self):
        assert str(CapExceeded("x", (1 << 64) - 1, 8)) == f"x needs {(1 << 64) - 1}, exceeding the cap of 8"
        exc = CapExceeded("x", 3 << 64, 8)
        assert str(exc) == "x needs at least 2^65, exceeding the cap of 8"
        assert exc.needed == 3 << 64
