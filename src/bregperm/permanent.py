"""Exact permanents of 0/1 matrices, pinned fixed-point counts and reduction of restriction vectors.

The permanent of the restriction matrix of b counts S_b, so these routines
double as counting oracles.  Every result is exact: Python integers, or in
the Ryser kernel residues modulo 2^64 and 2^31 - 1 joined by the Chinese
remainder theorem.

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
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from . import oracles
from .core import (
    _ENUMERATION_BUDGET,
    CapExceeded,
    RestrictionMatrix,
    RestrictionVector,
    _bucket_product,
    _refuse_matrix,
    _slack_histogram,
    matrix_from_vector,
)

_RYSER_BUDGET = 1 << 30  # n * 2^n row-sum updates, so n <= 25
_CRT_PRIME = (1 << 31) - 1  # 25! < 2^64 * _CRT_PRIME, so one residue joins every admitted permanent
_LOW_COLUMNS = 12  # columns in the row-sum table; it holds 2^12 subsets
_PRIME_ROWS = 6  # rows multiplied per reduction mod _CRT_PRIME: 25^6 * _CRT_PRIME < 2^59


def permanent_ryser(m: RestrictionMatrix) -> int:
    """Permanent via Ryser's inclusion-exclusion over column subsets, O(n * 2^n).

    perm(M) = sum over column sets S of (-1)^(n-|S|) prod_i (row sum i over S).
    A table holds the row sums of every subset of the low columns (at most
    12), split by the parity of the subset.  The high-column subsets are
    walked in Gray-code order, one column added or removed per step, and at
    each step the products over rows are taken across the whole table at
    once in wrapping uint64 arithmetic, which is exact modulo 2^64.  When
    the permanent could reach 2^64 by Bregman's bound prod_i (r_i!)^(1/r_i)
    over the row sums r_i, the walk is repeated modulo the prime 2^31 - 1
    and the two residues are joined by the Chinese remainder theorem.  That
    walk multiplies six rows at a time before each reduction: six row sums
    of at most 25 times a residue stay below 2^59.  The
    bound is at most both the product of the row sums and n!, and every n
    the budget admits has n! < 2^64 * (2^31 - 1), so one residue suffices.

    Raises CapExceeded before allocating anything when n * 2^n exceeds
    ``_RYSER_BUDGET`` (2^30, so n <= 25).
    """
    n = m.n
    _refuse_ryser(n)
    a = np.array(m.rows, dtype=np.uint64)
    # low-column row sums, even-size subsets first: shape (n, 2^low)
    low = min(n, _LOW_COLUMNS)
    even, odd = np.zeros((n, 1), dtype=np.uint64), np.zeros((n, 0), dtype=np.uint64)
    for j in range(low):
        col = a[:, j : j + 1]
        even, odd = np.concatenate((even, odd + col), axis=1), np.concatenate((odd, even + col), axis=1)
    table = np.concatenate((even, odd), axis=1)
    value = _ryser_walk(a, table, low, None)
    # log2 of Bregman's bound: a zero row makes the permanent 0, so its factor
    # is skipped, and the margin is far above the float sum's rounding error
    if sum(math.lgamma(r + 1) / r for r in map(sum, m.rows) if r) / math.log(2) > 64 - 1e-9:
        p = _CRT_PRIME
        residue = _ryser_walk(a, table, low, p)
        value += (1 << 64) * ((residue - value) * pow(1 << 64, -1, p) % p)
    return value


def _refuse_ryser(n: int) -> None:
    if n << n > _RYSER_BUDGET:
        raise CapExceeded("permanent_ryser n*2^n steps", n << n, _RYSER_BUDGET)


def _ryser_walk(a: np.ndarray, table: np.ndarray, low: int, p: int | None) -> int:
    """Ryser's sum modulo p, or modulo 2^64 when p is None, as an int in [0, modulus)."""
    n = a.shape[0]
    half = table.shape[1] // 2
    sums = np.empty_like(table)
    prods, chunk = np.empty(table.shape[1], dtype=np.uint64), np.empty(table.shape[1], dtype=np.uint64)
    high = np.zeros((n, 1), dtype=np.uint64)  # row sums of the current high subset
    members = 0
    state = 0
    total = 0
    for s in range(1 << (n - low)):
        if s:
            flip = (s & -s).bit_length() - 1  # bit that changes between consecutive Gray words
            col = a[:, low + flip : low + flip + 1]
            state ^= 1 << flip
            if state >> flip & 1:
                high += col
                members += 1
            else:
                high -= col
                members -= 1
        np.add(table, high, out=sums)
        if p is None:
            np.multiply.reduce(sums, axis=0, out=prods)
        else:
            prods.fill(1)
            for first in range(0, n, _PRIME_ROWS):
                np.multiply.reduce(sums[first : first + _PRIME_ROWS], axis=0, out=chunk)
                prods *= chunk
                prods %= p
        term = int(prods[:half].sum()) - int(prods[half:].sum())
        total += term if (n - members) % 2 == 0 else -term
    return total % (1 << 64 if p is None else p)


def permanent_enumerate(m: RestrictionMatrix) -> int:
    """Permanent by summing the product over all n! permutations.

    Independent oracle for permanent_ryser; the sum is
    :func:`bregperm.oracles.permanent`.  Raises CapExceeded before summing
    when the n! terms exceed ``core._ENUMERATION_BUDGET`` (2^22, so n <= 10).
    """
    _refuse_enumerate(m.n)
    return oracles.permanent(m.rows)


def _refuse_enumerate(n: int) -> None:
    terms = math.factorial(n)
    if terms > _ENUMERATION_BUDGET:
        raise CapExceeded("permanent_enumerate terms", terms, _ENUMERATION_BUDGET)


def _staircase_permanent(b: RestrictionVector, method: str) -> int:
    """``permanent_ryser`` (method "permanent") or ``permanent_enumerate`` of
    b's staircase matrix.  The matrix's cap refuses first, then the method's
    budget, both before the n^2 entries are built.
    """
    ryser = method == "permanent"
    _refuse_matrix(b.n)
    (_refuse_ryser if ryser else _refuse_enumerate)(b.n)
    m = matrix_from_vector(b)
    return permanent_ryser(m) if ryser else permanent_enumerate(m)


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
    ``core._COUNT_BIT_BUDGET`` (2^20 bits): CapExceeded before multiplying.
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
    from ``core._slack_histogram(entries)``, which is left unchanged.

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
