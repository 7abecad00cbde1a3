"""Counting, enumeration and uniform sampling of b-regular permutations.

S_b is the set of permutations with pi(i) >= b_i.  Its size factorises as
the product of the per-position slack counts (1 + i - b_i): assigning
positions from n down to 1, the number of still-available values >= b_i is
always exactly i - b_i + 1, whatever was chosen before.  The same fact
drives the enumerator and the uniform sampler below.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .core import (
    _ENUMERATION_BUDGET,
    CapExceeded,
    Permutation,
    RestrictionVector,
    _bucket_product,
    _slack_bits,
    _slack_histogram,
    cycle_type,
)
from .permanent import _pinned_count

_SLACK_STEP_BUDGET = 1 << 23  # pinned counts of the fixed-point moments times max(n, log2 |S_b|)


def count_b_regular(b: RestrictionVector) -> int:
    """|S_b| = prod_i (1 + i - b_i), exactly.

    One power per distinct slack, multiplied by ``core._bucket_product``,
    which raises CapExceeded before multiplying when log2 of the count
    exceeds 2^20 bits.

    >>> count_b_regular(RestrictionVector.b2(5))
    16
    >>> count_b_regular(RestrictionVector((1, 1, 2, 4, 4)))
    8
    """
    return _bucket_product(_slack_histogram(b.entries), "count_b_regular bits")


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


def _refuse_pinned_counts(b: RestrictionVector, histogram: dict[int, int], counts: int, what: str) -> None:
    """Raise CapExceeded, from b's slack histogram alone, when `counts`
    pinned counts of b exceed ``_SLACK_STEP_BUDGET``.

    Each count moves a few positions per label between the histogram's
    buckets and multiplies one power per distinct slack into an integer up
    to |S_b|, so max(n, log2 |S_b|) steps bound it from above.  A staircase
    b2(n) has log2 |S_b| = n - 1 and is charged n per count, while (1,) * n
    is charged about n log2 n.
    """
    steps = counts * max(b.n, _slack_bits(histogram))
    if steps > _SLACK_STEP_BUDGET:
        raise CapExceeded(what, steps, _SLACK_STEP_BUDGET)


def fixed_point_mean(b: RestrictionVector) -> Fraction:
    """Mean number of fixed points of a uniform draw from S_b.

    E[fix] = sum_i N_i / N, where N_i = ``count_with_fixed_points(b, {i})``
    and N = |S_b|: the integer counts are summed and one Fraction is built.
    b's slack histogram is built once, and N, the cap and every N_i read
    it.  Raises CapExceeded before the first count when the n counts, at
    max(n, log2 N) steps each, exceed ``_SLACK_STEP_BUDGET`` (2^23, so
    b2(n) for n <= 2896); each count costs no more than that.

    >>> fixed_point_mean(RestrictionVector.b2(5))
    Fraction(7, 4)
    """
    n, entries = b.n, b.entries
    histogram = _slack_histogram(entries)
    _refuse_pinned_counts(b, histogram, n, "fixed_point_mean slack steps")
    hits = sum(_pinned_count(entries, histogram, (i,)) for i in range(1, n + 1))
    return Fraction(hits, _bucket_product(histogram, "count_b_regular bits"))


def fixed_point_variance(b: RestrictionVector) -> Fraction:
    """Variance of the number of fixed points of a uniform draw from S_b.

    By falling moments, Var = E[fix (fix - 1)] + mu - mu^2 with
    E[fix (fix - 1)] = 2 sum_{i<j} N_ij / N and mu = sum_i N_i / N, where
    N_F = ``count_with_fixed_points(b, F)`` and N = |S_b|.  b's slack
    histogram is built once, and N, the cap and every N_F read it.  The
    pinned counts are summed as integers and one Fraction is built at the
    end.  Raises CapExceeded before the first count when the n (n - 1) / 2
    pair counts, at max(n, log2 N) steps each, exceed ``_SLACK_STEP_BUDGET``
    (2^23, so b2(n) for n <= 256); each count costs no more than that.

    >>> fixed_point_variance(RestrictionVector.b2(5))
    Fraction(29, 16)
    """
    n, entries = b.n, b.entries
    histogram = _slack_histogram(entries)
    _refuse_pinned_counts(b, histogram, n * (n - 1) // 2, "fixed_point_variance slack steps")
    total = _bucket_product(histogram, "count_b_regular bits")
    singles = sum(_pinned_count(entries, histogram, (i,)) for i in range(1, n + 1))
    pairs = sum(_pinned_count(entries, histogram, (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return Fraction((2 * pairs + singles) * total - singles * singles, total * total)


def count_k_cycles(p: Permutation, k: int) -> int:
    """Number of k-cycles in the orbit decomposition of p."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    return cycle_type(p).multiplicity(k)
