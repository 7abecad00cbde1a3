"""Bijection between one-subdiagonal permutations and integer compositions.

A permutation with pi(i) >= i - 1 decomposes into cycles on blocks of
consecutive integers; reading off the block lengths left to right gives a
composition of n, and the record (left-to-right maximum) positions are
exactly the block starts.  Conversely a composition rebuilds the
permutation by making each block {s, ..., e} the cycle
pi(s) = e, pi(m) = m - 1 for s < m <= e.

Compositions of n are indexed by (n-1)-bit words: bit i-1 (least
significant first) set means "cut after position i", and parts are the
run lengths between cuts.  Word 0 is the single part (n); word 2^(n-1)-1
is all ones.

The counts of compositions by their k-parts, part totals included, live in
``cycindex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import _ELEMENT_BUDGET, _ENUMERATION_BUDGET, CapExceeded, Composition, Permutation
from .cycindex import _marked_parts


@dataclass(frozen=True)
class RecordProfile:
    """Record (left-to-right maximum) positions and values of a permutation."""

    positions: tuple[int, ...]
    values: tuple[int, ...]


def record_positions(p: Permutation) -> RecordProfile:
    """Positions i where pi(i) exceeds every earlier value, with those values.

    >>> record_positions(Permutation((2, 1, 5, 3, 4, 6))).positions
    (1, 3, 6)
    """
    positions: list[int] = []
    values: list[int] = []
    best = 0
    for i, v in enumerate(p.images, start=1):
        if v > best:
            positions.append(i)
            values.append(v)
            best = v
    return RecordProfile(tuple(positions), tuple(values))


def perm_to_composition(p: Permutation) -> Composition:
    """Composition of gaps between record positions (last part runs to n).

    One pass over the images both checks pi(i) >= i - 1 and finds the
    records.

    >>> perm_to_composition(Permutation((1, 4, 2, 3, 5, 10, 6, 7, 8, 9))).parts
    (1, 3, 1, 5)
    """
    parts: list[int] = []
    best = 0
    last = 1  # position of the latest record
    for i, v in enumerate(p.images, start=1):
        if v < i - 1:
            raise ValueError(f"pi({i}) = {v} < {i - 1}; permutation is not one-subdiagonal")
        if v > best:
            if i > 1:
                parts.append(i - last)
            best = v
            last = i
    parts.append(len(p.images) + 1 - last)
    return Composition(tuple(parts))


def composition_to_perm(c: Composition) -> Permutation:
    """Inverse map: each part of size m becomes the cycle on the next m
    consecutive integers that sends its start to its end and every other
    element one step down.

    Raises CapExceeded before building anything when the n images exceed
    ``core._ELEMENT_BUDGET`` (2^20).

    >>> composition_to_perm(Composition((5,))).images
    (5, 1, 2, 3, 4)
    >>> composition_to_perm(Composition((1, 3, 1, 5))).images
    (1, 4, 2, 3, 5, 10, 6, 7, 8, 9)
    """
    n = c.total
    if n > _ELEMENT_BUDGET:
        raise CapExceeded("composition_to_perm images", n, _ELEMENT_BUDGET)
    images = list(range(n))  # every m but a block start maps to m - 1
    end = 0
    for part in c.parts:
        images[end] = end + part  # the block start, end + 1, maps to the block's last element
        end += part
    return Permutation(tuple(images))


def composition_from_index(n: int, index: int) -> Composition:
    """Composition encoded by an (n-1)-bit cut word (see module docstring).

    >>> composition_from_index(4, 0).parts
    (4,)
    >>> composition_from_index(4, 0b101).parts
    (1, 2, 1)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= index < (1 << (n - 1)):
        raise ValueError(f"index {index} out of range for n={n}")
    parts: list[int] = []
    run = 0
    for i in range(1, n + 1):
        run += 1
        if i == n or (index >> (i - 1)) & 1:
            parts.append(run)
            run = 0
    return Composition(tuple(parts))


def composition_to_index(c: Composition) -> int:
    """Inverse of composition_from_index."""
    index = 0
    pos = 0
    for part in c.parts[:-1]:
        pos += part
        index |= 1 << (pos - 1)
    return index


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n in increasing cut-word order.

    Raises CapExceeded at the call when the 2^(n-1) members exceed
    ``core._ENUMERATION_BUDGET`` (2^22, so n <= 23).  The refusal reports
    log2 of both, so an astronomical n is refused without building 2^(n-1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log2_budget = _ENUMERATION_BUDGET.bit_length() - 1
    if n - 1 > log2_budget:
        raise CapExceeded("enumerate_compositions log2 of members", n - 1, log2_budget)
    return (composition_from_index(n, w) for w in range(1 << (n - 1)))


def total_k_parts(n: int, k: int) -> int:
    """Total number of parts equal to k over all compositions of n.

    This is S(n - k, 1) of ``cycindex``, compositions of n with one marked
    part of size k: (n - k + 3) * 2^(n-k-2) whenever k <= n - 1, with the
    edge values total(n, n) = 1 and total(n, n-1) = 2.

    >>> total_k_parts(5, 1)
    28
    >>> total_k_parts(6, 2)
    28
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    return _marked_parts(n - k, 1)
