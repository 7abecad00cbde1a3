"""Brute-force reference implementations: the one oracle behind
``bregperm verify`` and the test suite.

Every function here is written from first principles with the standard
library only, deliberately avoiding the algorithms under test: permanents
by summing over all permutations, restricted families by filtering the
full symmetric group, compositions by recursion, cycle structure by
walking the functional graph, part positions by walking the parts.  They
are slow and simple on purpose — their job is to be obviously correct at
small sizes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable


def staircase(r: int, n: int) -> tuple[int, ...]:
    """Lower-bound entries max(1, i - r + 1) for positions i = 1..n."""
    return tuple(max(1, i - r + 1) for i in range(1, n + 1))


def b2(n: int) -> tuple[int, ...]:
    """Entries of the one-step staircase: 1, 1, 2, 3, ..., n - 1."""
    return staircase(2, n)


def valid_vectors(n: int) -> list[tuple[int, ...]]:
    """Every non-decreasing tuple (b_1, ..., b_n) with 1 <= b_i <= i.

    >>> valid_vectors(3)
    [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3)]
    """
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]) -> None:
        i = len(prefix) + 1
        if i > n:
            out.append(prefix)
            return
        lo = prefix[-1] if prefix else 1
        for v in range(lo, i + 1):
            extend(prefix + (v,))

    extend(())
    return out


def permanent(rows: list[list[int]]) -> int:
    """Permanent by direct summation over all n! permutations."""
    n = len(rows)
    total = 0
    for cols in itertools.permutations(range(n)):
        product = 1
        for i, j in enumerate(cols):
            product *= rows[i][j]
            if product == 0:
                break
        total += product
    return total


def family(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All permutations of 1..n with image(i) >= entries[i-1], filtered
    out of the full symmetric group, in lexicographic order."""
    n = len(entries)
    return [
        images
        for images in itertools.permutations(range(1, n + 1))
        if all(v >= low for v, low in zip(images, entries))
    ]


def compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered sequences of positive integers summing to n."""
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for first in range(1, n + 1):
        out.extend((first, *rest) for rest in compositions(n - first))
    return out


def part_starts(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """1-based positions at which a part of size k starts.

    >>> part_starts((2, 1, 2), 2)
    (1, 4)
    """
    starts = []
    position = 1
    for size in parts:
        if size == k:
            starts.append(position)
        position += size
    return tuple(starts)


def cycle_lengths(images: tuple[int, ...]) -> list[int]:
    """Cycle lengths of a permutation given as a 1-based image tuple,
    ordered by smallest element of each cycle."""
    n = len(images)
    seen = [False] * (n + 1)
    lengths: list[int] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        size = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
            size += 1
        lengths.append(size)
    return lengths


def count_parts(parts: tuple[int, ...], k: int) -> int:
    """Number of parts equal to k in a composition."""
    return sum(1 for p in parts if p == k)


def count_cycles(images: tuple[int, ...], k: int) -> int:
    """Number of cycles of length k in a permutation."""
    return sum(1 for size in cycle_lengths(images) if size == k)


def count_stats(counts: Iterable[int]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean, variance, and second falling moment E[C(C-1)] of a
    count C over equally likely objects, one count per object.

    >>> count_stats([0, 1, 1, 2])
    (Fraction(1, 1), Fraction(1, 2), Fraction(1, 2))
    """
    m = s1 = s2 = 0
    for c in counts:
        m += 1
        s1 += c
        s2 += c * c
    mean = Fraction(s1, m)
    second = Fraction(s2, m)
    return mean, second - mean * mean, second - mean


def falling_moment(counts: Iterable[int], m: int) -> Fraction:
    """Exact m-th falling moment E[C (C-1) ... (C-m+1)] of a count C over
    equally likely objects, one count per object.

    >>> falling_moment([0, 1, 1, 2], 2)
    Fraction(1, 2)
    """
    total = objects = 0
    for c in counts:
        objects += 1
        total += math.perm(c, m)
    return Fraction(total, objects)


def fixed_point_stats(perms: Iterable[tuple[int, ...]]) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the fixed-point count over a family."""
    mean, variance, _ = count_stats(
        sum(1 for i, v in enumerate(images, 1) if v == i) for images in perms
    )
    return mean, variance


def cycle_count_stats(
    perms: Iterable[tuple[int, ...]], k: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean, variance, and second falling moment E[C(C-1)] of the
    number of k-cycles over a family."""
    return count_stats(count_cycles(images, k) for images in perms)
