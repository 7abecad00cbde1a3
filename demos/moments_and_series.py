#!/usr/bin/env python3
"""Exact k-cycle moments: the marked-parts closed form against the paper's.

The number of k-cycles of a uniform one-subdiagonal permutation has exact
rational moments.  Counting compositions with m marked parts of size k
gives every falling moment, m! S(n - m k, m) / 2^(n-1), for every n, k and
m; the paper's short closed forms cover the mean and the variance where
n - m k >= 1.  This walk prints both and shows exactly where the paper's
forms stop being the truth.
"""

from __future__ import annotations

from fractions import Fraction

from bregperm import (
    RestrictionVector,
    count_k_cycles,
    enumerate_b_regular,
    extract_factorial_moment,
    mean_formula_is_exact,
    mean_k_cycles,
    second_falling_formula_is_exact,
    second_falling_moment,
    variance_k_cycles,
)


def enumeration_mean(n: int, k: int) -> Fraction:
    members = list(enumerate_b_regular(RestrictionVector.b2(n)))
    return Fraction(sum(count_k_cycles(p, k) for p in members), len(members))


def main() -> None:
    print("== Marked parts ==")
    print("  k = 2; m! times the compositions of n with m marked 2-parts,")
    print("  over 2^(n-1), is the m-th falling moment of the 2-cycle count.")
    print("  with no marks (m = 0) it is the total mass, 1 at every size:")
    print(f"    m = 0 at n = 1..8: {[str(extract_factorial_moment(n, 2, 0)) for n in range(1, 9)]}")
    print("  mean number of 2-cycles at size n (m = 1);")
    print("  note n=2 is the k=n edge where the closed form differs (see below):")
    for n in range(2, 9):
        print(f"    n={n}: exact {str(extract_factorial_moment(n, 2, 1)):>6}"
              f"   closed form {str(mean_k_cycles(n, 2)):>6}"
              f"   enumeration {str(enumeration_mean(n, 2)):>6}")

    print("\n== Mean and variance table (exact rationals) ==")
    n = 12
    print(f"  n = {n}; the variance and E[C(C-1)] forms hold for k <= (n-1)/2")
    print("   k     mean       variance   E[C(C-1)]")
    for k in range(1, (n - 1) // 2 + 1):
        print(f"   {k}  {str(mean_k_cycles(n, k)):>8}  {str(variance_k_cycles(n, k)):>11}"
              f"  {str(second_falling_moment(n, k)):>10}")

    print("\n== Where the closed forms are the truth ==")
    print("  mean (n-k+3)/2^(k+1): exact iff k <= n-1.  At k = n the single")
    print("  full cycle appears once in 2^(n-1) draws:")
    for n in (4, 6, 8):
        truth = extract_factorial_moment(n, n, 1)
        print(f"    n=k={n}: exact {str(truth):>7}, closed form {str(mean_k_cycles(n, n)):>7}")

    print("\n  E[C(C-1)] = (n+2-2k)(n+7-2k)/4^(k+1): exact iff n >= 2k+1.")
    print("  Inside k+2 <= n <= 2k two k-windows barely fit or not at all:")
    for n, k in ((4, 2), (6, 3), (5, 3)):
        truth = extract_factorial_moment(n, k, 2)
        formula = second_falling_moment(n, k)
        marker = "==" if truth == formula else "!="
        print(f"    (n={n}, k={k}): exact {str(truth):>5} {marker} formula {str(formula):>6}"
              f"   predicate says exact: {second_falling_formula_is_exact(n, k)}")
    print("  the validity predicates make the ranges queryable:")
    print(f"    mean_formula_is_exact(10, 9)  = {mean_formula_is_exact(10, 9)}")
    print(f"    mean_formula_is_exact(10, 10) = {mean_formula_is_exact(10, 10)}")

    print("\n== High moments come from the same closed form ==")
    n, k = 20, 1
    print(f"  falling moments E[C (C-1) ... (C-m+1)] at n={n}, k={k}:")
    for m in range(0, 5):
        value = extract_factorial_moment(n, k, m)
        print(f"    m={m}: {value}")


if __name__ == "__main__":
    main()
