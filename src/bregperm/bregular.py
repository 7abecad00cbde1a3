"""Counting, enumeration, uniform sampling and pinned fixed-point counts of
b-regular permutations.

S_b is the set of permutations with pi(i) >= b_i.  Its size factorises as
the product of the per-position slack counts (1 + i - b_i): assigning
positions from n down to 1, the number of still-available values >= b_i is
always exactly i - b_i + 1, whatever was chosen before.  The same fact
drives the enumerator and the uniform sampler below.

Pinned counts come straight from the slacks s_l = 1 + l - b_l: the
permutations of S_b that fix every label in F number

    prod over l not in F of (s_l - #{f in F : b_l <= f < l}).

Fill the free positions from n down to 1.  The n - l positions above l hold
values >= b_l, and each pinned f < l holds f, so of the n - b_l + 1 values
>= b_l exactly that factor is left for position l, whatever came before.
At most l - b_l labels lie in [b_l, l), so every factor is at least 1.

Read by label, the correction is an interval.  Since b is non-decreasing
with b_l <= l, label f lowers the factor of exactly the positions l in
(f, u_f], where u_f = #{l : b_l <= f} is found by bisection: its cover
interval.  On a staircase b2(n) every cover interval is one position long.

So a count starts from b's slack histogram, the multiplicity of each
slack value, which one pass over b builds and every count of that b can
share.  Each label moves its pinned position to bucket 1 and lowers its
cover interval.  Along the interval the slacks step up by one while b_l
stays the same, and lowering such a run v..w by one moves a single
position, from bucket w to bucket v - 1.  Then each distinct slack s of
multiplicity m is one power s^m, and their product is an integer of up to
log2 |S_b| bits.  A count therefore costs its labels, the runs of their
cover intervals and the distinct slack values, not n.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from operator import sub
from typing import Iterator, Sequence

from .core import _ENUMERATION_BUDGET, CapExceeded, Permutation, RestrictionVector, cycle_type

_COUNT_BIT_BUDGET = 1 << 20  # bits of an exact count, about 315 653 decimal digits
_SLACK_STEP_BUDGET = 1 << 23  # pinned counts of the fixed-point moments times max(n, log2 |S_b|)


def _slack_histogram(entries: tuple[int, ...]) -> Counter[int]:
    """Multiplicity of each slack s_l = 1 + l - b_l over the positions l of b."""
    return Counter(map(sub, range(2, len(entries) + 2), entries))


def _slack_bits(buckets: dict[int, int]) -> int:
    """ceil(log2 prod(s**m)) over the (slack s, multiplicity m) buckets."""
    return math.ceil(sum(m * math.log2(s) for s, m in buckets.items()))


def _bucket_product(buckets: dict[int, int], what: str) -> int:
    """prod(s**m) over the (slack s >= 1, multiplicity m) buckets, exactly.

    Each distinct slack is one power, so a staircase costs a few big
    multiplications, not one per position.  Raises CapExceeded, from the
    buckets alone and before multiplying, when log2 of the product exceeds
    ``_COUNT_BIT_BUDGET`` (2^20 bits).
    """
    bits = _slack_bits(buckets)
    if bits > _COUNT_BIT_BUDGET:
        raise CapExceeded(what, bits, _COUNT_BIT_BUDGET)
    return math.prod(s**m for s, m in buckets.items())


def count_b_regular(b: RestrictionVector) -> int:
    """|S_b| = prod_i (1 + i - b_i), exactly.

    One power per distinct slack, multiplied by ``_bucket_product``,
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


def reduce_vector_on_fixed_point(b: RestrictionVector, i: int) -> RestrictionVector:
    """Restriction vector for the permutations of S_b with pi(i) = i, after
    deleting row and column i and relabelling order-preservingly.

    Entry j > i keeps its value when b_j <= i (column i sat inside its ones
    range) and drops by one otherwise.

    >>> reduce_vector_on_fixed_point(RestrictionVector((1, 1, 2, 4, 4)), 2).entries
    (1, 2, 3, 3)
    >>> reduce_vector_on_fixed_point(RestrictionVector((1,)), 1).entries
    ()
    """
    if not isinstance(i, int):
        raise ValueError(f"index is not an integer: {i!r}")
    n = b.n
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    entries = b.entries
    reduced = entries[: i - 1] + tuple(v - 1 if v > i else v for v in entries[i:])
    return RestrictionVector(reduced)


def count_with_fixed_points(b: RestrictionVector, fixed: frozenset[int] | set[int]) -> int:
    """Number of permutations in S_b with pi(i) = i for every i in `fixed`.

    The product over unpinned positions i of 1 + i - b_i - #{f in fixed : b_i <= f < i},
    read straight off b (see the module docstring): each label f takes one
    from the slack of every position in its cover interval (f, u_f], with u_f
    the number of entries <= f.  One pass builds b's slack histogram; each
    label then moves its own position to bucket 1 and one position per run
    of its cover interval, 2 |fixed| moves on a staircase.  Multiplied within
    ``_COUNT_BIT_BUDGET`` (2^20 bits): CapExceeded before multiplying.
    A label that is not an int, lies outside 1..n or repeats raises ValueError.

    >>> count_with_fixed_points(RestrictionVector.b2(5), {1})
    8
    >>> count_with_fixed_points(RestrictionVector.b2(5), {2, 3})
    2
    """
    for f in fixed:
        if not isinstance(f, int):
            raise ValueError(f"fixed label is not an integer: {f!r}")
    labels = sorted(fixed)
    n = b.n
    if labels and not (1 <= labels[0] and labels[-1] <= n):
        raise ValueError(f"fixed labels {labels} out of range 1..{n}")
    if len(set(labels)) != len(labels):
        raise ValueError("fixed labels must be distinct")
    return _pinned_count(b.entries, _slack_histogram(b.entries), labels)


def _pinned_count(entries: tuple[int, ...], histogram: dict[int, int], labels: Sequence[int]) -> int:
    """``count_with_fixed_points`` for distinct ascending labels in 1..n,
    from ``_slack_histogram(entries)``, which is left unchanged.

    When label f comes, position l has lost one slack to each earlier label
    in [b_l, l).  Along f's cover interval that loss changes only where b_l
    does, so a run of equal b_l has consecutive slacks v..w, and lowering
    them by one moves a single position from bucket w to bucket v - 1.
    """
    buckets = dict(histogram)
    for k, f in enumerate(labels):
        b = entries[f - 1]
        buckets[f + 1 - b - (k - bisect_left(labels, b, 0, k))] -= 1
        buckets[1] = buckets.get(1, 0) + 1  # a pinned position's factor
        at, u = f, bisect_right(entries, f)  # 0-based indices of positions f + 1 .. u_f
        while at < u:
            b = entries[at]
            stop = bisect_right(entries, b, at, u)
            shift = b + k - bisect_left(labels, b, 0, k)  # slack at index i is i + 2 - shift
            buckets[stop + 1 - shift] -= 1
            buckets[at + 1 - shift] = buckets.get(at + 1 - shift, 0) + 1
            at = stop
    return _bucket_product(buckets, "count_with_fixed_points bits")


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
