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
falling (factorial) moment of the k-cycle count.  Scaling row n by 2^n makes
every coefficient an integer: H_n = 2^n [u^n] G satisfies H_0 = 0 and

    H_n = 2 + 2 [n = k] y + sum_{j < n} H_j + y H_{n-k}   (last term for n > k),

which is G = 2T + T G read coefficientwise.  Truncating every H_j after y^m
is an ideal truncation (it commutes with sums and with the shift by y), so
the y^m coefficient stays exact; truncating in powers of x instead would
silently drop the high-degree terms that feed every moment.  With a running
prefix sum the recurrence costs O(n m) integer additions.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction


def _scaled_row(n: int, k: int, order: int) -> list[int]:
    """H_n of the module docstring: coefficients of y^0..y^order, integers."""
    window = deque([[0] * (order + 1)], maxlen=k)  # H_{max(0, j-k)} .. H_{j-1}
    prefix = [0] * (order + 1)  # sum of H_i for i < j
    for j in range(1, n + 1):
        row = prefix.copy()
        row[0] += 2
        if j == k and order >= 1:
            row[1] += 2
        if len(window) == k:
            shifted = window[0]  # H_{j-k}
            for d in range(order):
                row[d + 1] += shifted[d]
        for d in range(order + 1):
            prefix[d] += row[d]
        window.append(row)
    return window[-1]


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
    return Fraction(math.factorial(m) * _scaled_row(n, k, m)[m], 1 << n)


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

    Exact for n >= 2k + 1; inside n <= 2k the expression no longer matches
    the distribution (the verification suite reports those points against
    the exact series).

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
    """Validity range of mean_k_cycles, established against enumeration."""
    return 1 <= k <= n - 1


def second_falling_formula_is_exact(n: int, k: int) -> bool:
    """Validity range of second_falling_moment (and hence variance_k_cycles)."""
    return 1 <= k and n >= 2 * k + 1
