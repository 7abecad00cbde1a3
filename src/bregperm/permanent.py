"""Exact permanents of 0/1 matrices.

The permanent of the restriction matrix of b counts S_b, so these routines
double as counting oracles.  Every result is exact: Python integers, or in
the Ryser kernel residues modulo 2^64 and 2^31 - 1 joined by the Chinese
remainder theorem.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracles
from .core import (
    _ENUMERATION_BUDGET,
    CapExceeded,
    RestrictionMatrix,
    RestrictionVector,
    _refuse_matrix,
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
