"""Counting, enumeration and uniform sampling of b-regular permutations.

S_b is the set of permutations with pi(i) >= b_i.  Its size factorises as
the product of the per-position slack counts (1 + i - b_i): assigning
positions from n down to 1, the number of still-available values >= b_i is
always exactly i - b_i + 1, whatever was chosen before.  The same fact
drives the enumerator and the uniform sampler below.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator

from .core import _ENUMERATION_BUDGET, CapExceeded, Permutation, RestrictionVector, cycle_type
from .permanent import count_with_fixed_points

_COUNT_BIT_BUDGET = 1 << 20  # bits of an exact count, about 315 653 decimal digits


def count_b_regular(b: RestrictionVector) -> int:
    """|S_b| = prod_i (1 + i - b_i), exactly.

    Equal slacks are grouped and raised to their multiplicity, so a
    staircase costs a few big multiplications, not one per position.
    Raises CapExceeded, from the slacks alone and before multiplying, when
    log2 of the count exceeds ``_COUNT_BIT_BUDGET`` (2^20 bits).

    >>> count_b_regular(RestrictionVector.b2(5))
    16
    >>> count_b_regular(RestrictionVector((1, 1, 2, 4, 4)))
    8
    """
    slacks = Counter(1 + i - bi for i, bi in enumerate(b, start=1))
    bits = math.ceil(sum(m * math.log2(s) for s, m in slacks.items()))
    if bits > _COUNT_BIT_BUDGET:
        raise CapExceeded("count_b_regular bits", bits, _COUNT_BIT_BUDGET)
    return math.prod(s**m for s, m in slacks.items())


def enumerate_b_regular(b: RestrictionVector) -> Iterator[Permutation]:
    """Yield every permutation of S_b exactly once.

    Positions are filled from n down to 1; at each position the candidate
    values are tried in increasing order, which fixes a deterministic
    output order.  Cost is linear in the output size.  Raises CapExceeded
    at the call, before the first member is produced, when the members
    exceed ``core._ENUMERATION_BUDGET`` (2^22).
    """
    n = b.n
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    total = count_b_regular(b)
    if total > _ENUMERATION_BUDGET:
        raise CapExceeded("enumerate_b_regular members", total, _ENUMERATION_BUDGET)
    return _members(b.entries)


def _members(b: tuple[int, ...]) -> Iterator[Permutation]:
    """Backtracking walk with one candidate index per position, no recursion.

    Every value picked at a position j >= i is at least b_j >= b_i, so the
    b_i - 1 values below b_i are still free when position i is filled: its
    candidates are always available[b_i - 1 :], and available holds i values.
    """
    n = len(b)
    images = [0] * n
    available = list(range(1, n + 1))  # kept sorted
    index = [0] * n  # candidate index in `available` per 0-based position
    pos = n - 1
    while True:
        while pos >= 0:  # fill the remaining positions with their first candidates
            index[pos] = b[pos] - 1
            images[pos] = available.pop(b[pos] - 1)
            pos -= 1
        yield Permutation(tuple(images))
        pos = 0
        while True:  # put values back until some position has a next candidate
            k = index[pos]
            available.insert(k, images[pos])
            if k < pos:  # positions 0..pos own the pos + 1 available values
                index[pos] = k + 1
                images[pos] = available.pop(k + 1)
                pos -= 1
                break
            pos += 1
            if pos == n:
                return


def sample_b_regular(b: RestrictionVector, rng: random.Random | int) -> Permutation:
    """Draw one permutation uniformly from S_b.

    Fills positions from n down to 1, choosing uniformly among the
    still-available values >= b_i.  Every draw sequence has probability
    1/|S_b| because the choice count at position i is i - b_i + 1
    regardless of earlier choices.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    n = b.n
    if n < 1:
        raise ValueError("sampling needs n >= 1")
    available = list(range(1, n + 1))  # kept sorted
    images = [0] * n
    for i in range(n, 0, -1):
        lo = b[i] - 1  # candidates are available[lo:], i - b_i + 1 of them (see _members)
        images[i - 1] = available.pop(lo + rng.randrange(i - lo))
    return Permutation(tuple(images))


def fixed_point_mean(b: RestrictionVector) -> Fraction:
    """Mean number of fixed points of a uniform draw from S_b.

    Computed as the exact sum of per-position fixed-point probabilities,
    each obtained by one vector reduction.

    >>> fixed_point_mean(RestrictionVector.b2(5))
    Fraction(7, 4)
    """
    total = count_b_regular(b)
    hits = sum(count_with_fixed_points(b, {i}) for i in range(1, b.n + 1))
    return Fraction(hits, total)


def fixed_point_variance(b: RestrictionVector) -> Fraction:
    """Variance of the number of fixed points of a uniform draw from S_b.

    Indicator covariance expansion: sum_i p_i(1-p_i)
    + 2 sum_{i<j} (p_ij - p_i p_j), with every probability an exact ratio
    of reduced-vector counts.

    >>> fixed_point_variance(RestrictionVector.b2(5))
    Fraction(29, 16)
    """
    n = b.n
    total = count_b_regular(b)
    p = [Fraction(count_with_fixed_points(b, {i}), total) for i in range(1, n + 1)]
    var = sum((pi * (1 - pi) for pi in p), Fraction(0))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pij = Fraction(count_with_fixed_points(b, {i, j}), total)
            var += 2 * (pij - p[i - 1] * p[j - 1])
    return var


def count_k_cycles(p: Permutation, k: int) -> int:
    """Number of k-cycles in the orbit decomposition of p."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    return cycle_type(p).multiplicity(k)
