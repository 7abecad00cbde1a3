"""The correspondence between one-subdiagonal permutations and integer
compositions: record positions, both directions, the cut-word codec, and
the part-count totals."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import strategies
from bregperm import oracles
from bregperm.bijection import (
    composition_from_index,
    composition_to_index,
    composition_to_perm,
    enumerate_compositions,
    perm_to_composition,
    record_positions,
    total_k_parts,
)
from bregperm.core import CapExceeded, Composition, Permutation


class TestRecords:
    def test_anchor(self):
        prof = record_positions(Permutation((2, 1, 5, 3, 4, 6)))
        assert prof.positions == (1, 3, 6)
        assert prof.values == (2, 5, 6)

    def test_identity_has_all_records(self):
        prof = record_positions(Permutation((1, 2, 3, 4)))
        assert prof.positions == (1, 2, 3, 4)

    @given(strategies.permutations(max_n=12))
    @settings(deadline=None)
    def test_records_are_running_maxima(self, p):
        prof = record_positions(p)
        assert prof.positions[0] == 1
        for pos, val in zip(prof.positions, prof.values):
            assert p.images[pos - 1] == val
            assert all(v < val for v in p.images[: pos - 1])


class TestBothDirections:
    def test_anchors(self):
        assert perm_to_composition(Permutation((1, 4, 2, 3, 5, 10, 6, 7, 8, 9))).parts == (1, 3, 1, 5)
        assert composition_to_perm(Composition((5,))).images == (5, 1, 2, 3, 4)
        assert composition_to_perm(Composition((1, 3, 1, 5))).images == (1, 4, 2, 3, 5, 10, 6, 7, 8, 9)

    def test_rejects_non_subdiagonal(self):
        with pytest.raises(ValueError, match="one-subdiagonal"):
            perm_to_composition(Permutation((3, 2, 1)))

    def test_to_perm_is_capped_before_building(self):
        with pytest.raises(CapExceeded) as info:
            composition_to_perm(Composition((1, 1 << 20)))
        assert (info.value.needed, info.value.cap) == ((1 << 20) + 1, 1 << 20)

    def test_blocks_become_cycles(self):
        c = Composition((2, 3, 1))
        p = composition_to_perm(c)
        assert p.cycles() == ((1, 2), (3, 5, 4), (6,))

    @given(strategies.part_lists())
    @settings(deadline=None)
    def test_round_trip_from_parts(self, parts):
        c = Composition(parts)
        p = composition_to_perm(c)
        assert perm_to_composition(p) == c
        for k in range(1, c.total + 1):
            assert c.count_parts(k) == oracles.count_cycles(p.images, k)


class TestCutWordCodec:
    def test_anchors(self):
        assert composition_from_index(4, 0).parts == (4,)
        assert composition_from_index(4, 0b101).parts == (1, 2, 1)
        assert composition_from_index(4, 0b111).parts == (1, 1, 1, 1)
        assert composition_to_index(Composition((1, 2, 1))) == 0b101

    def test_index_validation(self):
        with pytest.raises(ValueError):
            composition_from_index(4, 8)
        with pytest.raises(ValueError):
            composition_from_index(4, -1)
        with pytest.raises(ValueError):
            composition_from_index(0, 0)


class TestEnumerateCompositions:
    def test_counts_and_distinctness(self):
        for n in range(1, 12):
            comps = list(enumerate_compositions(n))
            assert len(comps) == 2 ** (n - 1)
            assert len(set(comps)) == len(comps)
            assert oracles.compositions(n) == sorted(c.parts for c in comps)

    def test_cap(self):
        # 2^(n-1) members against a 2^22 budget, reported as log2 of both
        assert next(enumerate_compositions(23)).parts == (23,)
        for n in (24, 10**18):
            with pytest.raises(CapExceeded) as info:
                enumerate_compositions(n)
            assert (info.value.needed, info.value.cap) == (n - 1, 22)


class TestTotalKParts:
    def test_anchors(self):
        assert total_k_parts(5, 1) == 28
        assert total_k_parts(6, 2) == 28
        assert total_k_parts(7, 7) == 1
        assert total_k_parts(7, 6) == 2
        assert total_k_parts(3, 9) == 0

    def test_equals_the_closed_form(self):
        # the closed form and edge values the function once restated itself
        for n in range(1, 201):
            for k in range(1, n + 3):
                if k <= n - 2:
                    expected = (n - k + 3) * 2 ** (n - k - 2)
                else:
                    expected = {n - 1: 2, n: 1}.get(k, 0)
                assert total_k_parts(n, k) == expected, (n, k)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            total_k_parts(0, 1)
        with pytest.raises(ValueError):
            total_k_parts(3, 0)
