"""Exact k-cycle moments of one-subdiagonal permutations.

Under the bijection with compositions, a uniform permutation of size n
corresponds to a uniform composition, and its k-cycles to parts of size k.
Weighting every size-n object by u^n / 2^(n-1) and marking parts of size k
with x gives

    G(u, x) = 2T / (1 - T),  T = (u/2) / (1 - u/2) + (x - 1) (u/2)^k,

because a composition with parts (c_1, ..., c_j) contributes the product of
(u/2)^{c_l}, with x attached to parts of size k, and 2^{n-1} compositions
share each n.  Substituting x = 1 collapses G to u / (1 - u), total mass 1
per size.

With y = x - 1, the coefficient of u^n y^m times m! is exactly the m-th
falling (factorial) moment of the k-cycle count.  It has a closed form for
every n, k and m, from counting marked parts.  Since (C)_m = m! C(C, m),
E[(C)_m] is m! / 2^(n-1) times the number of pairs (composition of n, set of
m of its parts of size k).  Delete the m marked parts: what is left is a
composition of N = n - m k into some j free parts, C(N - 1, j - 1) ways, and
the marked parts interleave with the free ones in C(m + j, m) ways.
Expanding C(m + j, m) = sum_t C(m + 1, t + 1) C(j - 1, t) by Vandermonde and
summing over j leaves

    S(N, m) = sum_{t=0}^{min(m, N-1)} C(m + 1, t + 1) C(N - 1, t) 2^(N-1-t)

pairs for N >= 1, S(0, m) = 1 (only the composition (k, ..., k)) and
S(N, m) = 0 for N < 0, so E[(C)_m] = m! S(n - m k, m) / 2^(n-1).  The
paper's closed forms below are the m = 1 and m = 2 cases of this sum at
N >= 1, which is exactly where each of them holds.

This module is the one place that counts compositions by their k-parts:
``_marked_parts`` is S(N, m), and ``_segment_count`` is its m = 0 case
2^(N-1) as a shift.  ``bijection.total_k_parts`` is S(n - k, 1), and the
``stein`` indicator probabilities are products of segment counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CapExceeded

_TABLE_BIT_BUDGET = 1 << 25  # n bits per moment-table row at size n: all n rows up to n = 5792


def extract_factorial_moment(n: int, k: int, m: int) -> Fraction:
    """m-th falling moment E[C (C-1) ... (C-m+1)] of the k-cycle count of a
    uniform one-subdiagonal permutation of size n, exact for every n, k, m.

    >>> extract_factorial_moment(5, 1, 1)
    Fraction(7, 4)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rest = n - m * k  # N of the module docstring
    if rest < 0:
        return Fraction(0)
    return Fraction(math.factorial(m) * _marked_parts(rest, m), 1 << (n - 1))


def _refuse_moment_table(n: int, rows: int) -> None:
    """Raise CapExceeded when `rows` moment-table rows at size n exceed
    ``_TABLE_BIT_BUDGET`` bits.

    A row's moments are ratios over 2^(n-1) or its square, and the m = 1, 2
    sums behind them have n-bit terms, so each row is charged n bits.
    """
    bits = rows * n
    if bits > _TABLE_BIT_BUDGET:
        raise CapExceeded("moments table row bits", bits, _TABLE_BIT_BUDGET)


def _marked_parts(rest: int, m: int) -> int:
    """S(N, m) of the module docstring at N = rest: pairs (composition of
    rest + m k, set of m of its parts of size k), for any k."""
    if rest <= 0:
        return int(rest == 0)
    return sum(math.comb(m + 1, t + 1) * math.comb(rest - 1, t) << (rest - 1 - t) for t in range(min(m, rest - 1) + 1))


def _segment_count(mass: int) -> int:
    """S(mass, 0) as a shift: compositions filling a free segment of that
    mass; the empty segment counts once."""
    if mass < 0:
        raise ValueError(f"segment mass must be >= 0, got {mass}")
    return 1 if mass == 0 else 1 << (mass - 1)


def mean_k_cycles(n: int, k: int) -> Fraction:
    """Closed form (n - k + 3) / 2^(k+1) for the mean k-cycle count.

    Exact for k <= n - 1; at k = n the true mean is 2^(1-n) instead.

    >>> mean_k_cycles(10, 1)
    Fraction(3, 1)
    """
    _check_nk(n, k)
    return Fraction(n - k + 3, 1 << (k + 1))


def second_falling_moment(n: int, k: int) -> Fraction:
    """Closed form (n+2-2k)(n+7-2k) / 4^(k+1) for E[C(C-1)].

    Exact for n >= 2k + 1; inside n <= 2k it no longer matches
    extract_factorial_moment(n, k, 2), except at accidental zeros.

    >>> second_falling_moment(10, 1)
    Fraction(75, 8)
    """
    _check_nk(n, k)
    return Fraction((n + 2 - 2 * k) * (n + 7 - 2 * k), 1 << (2 * (k + 1)))


def variance_k_cycles(n: int, k: int) -> Fraction:
    """Variance of the k-cycle count via the identity E[C(C-1)] + mu - mu^2.

    Equals ((2^(k+1) - 2k + 3) n + 3k(k-4) + (3-k) 2^(k+1) + 5) / 4^(k+1);
    exact for n >= 2k + 1.

    >>> variance_k_cycles(10, 1)
    Fraction(27, 8)
    """
    mu = mean_k_cycles(n, k)
    return second_falling_moment(n, k) + mu - mu * mu


def _check_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"cycle length k={k} exceeds n={n}")


def mean_formula_is_exact(n: int, k: int) -> bool:
    """Validity range of mean_k_cycles: n - m k >= 1 at m = 1, the range
    where the closed form is the m = 1 case of the module docstring's sum."""
    return 1 <= k <= n - 1


def second_falling_formula_is_exact(n: int, k: int) -> bool:
    """Validity range of second_falling_moment (and hence variance_k_cycles):
    n - m k >= 1 at m = 2, the range where the closed form is the m = 2 case
    of the module docstring's sum."""
    return 1 <= k and n >= 2 * k + 1
