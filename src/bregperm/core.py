"""Core value types for permutations with one-sided position restrictions.

A restriction vector b = (b_1, ..., b_n) with 1 <= b_1 <= ... <= b_n and
b_i <= i describes the set S_b of permutations pi of {1, ..., n} with
pi(i) >= b_i for every position i.  All positions and values are 1-based.

Everything here is immutable; instances can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# Fixed budgets, each in the unit of the work it bounds, checked before that work starts.
_ELEMENT_BUDGET = 1 << 20  # entries of a built matrix, or images of a built permutation
_ENUMERATION_BUDGET = 1 << 22  # members, or summed terms, of an exhaustive enumeration
_STAIRCASE_BUDGET = 1 << 21  # entries of a built b2 or br staircase vector


class CapExceeded(RuntimeError):
    """Raised when a computation would exceed a configured resource cap.

    The message shows a ``needed`` wider than 64 bits as the power of two
    below it, so it stays short and within Python's int-to-str digit limit.
    """

    def __init__(self, what: str, needed: int, cap: int):
        shown = f"at least 2^{needed.bit_length() - 1}" if needed.bit_length() > 64 else needed
        super().__init__(f"{what} needs {shown}, exceeding the cap of {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True)
class RestrictionVector:
    """Non-decreasing vector b with b_i <= i, the lower bounds pi(i) >= b_i.

    The empty vector is permitted and describes the empty permutation
    (exactly one object, by convention); it arises only from repeated
    fixed-point reduction.

    >>> RestrictionVector((1, 1, 2, 3, 4)).n
    5
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.entries
        if not isinstance(b, tuple):
            object.__setattr__(self, "entries", tuple(b))
            b = self.entries
        for i, v in enumerate(b, start=1):
            if not isinstance(v, int):
                raise ValueError(f"entry {i} is not an integer: {v!r}")
            if v < 1 or v > i:
                raise ValueError(f"entry {i} must satisfy 1 <= b_{i} <= {i}, got {v}")
            if i > 1 and v < b[i - 2]:
                raise ValueError(f"entries must be non-decreasing, got b_{i}={v} < b_{i-1}={b[i-2]}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        """1-based access: self[i] is b_i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    @classmethod
    def b2(cls, n: int) -> "RestrictionVector":
        """The one-subdiagonal staircase (1, 1, 2, 3, ..., n-1): pi(i) >= i-1.

        Raises CapExceeded before building anything when n exceeds
        ``_STAIRCASE_BUDGET`` (2^21 entries).

        >>> RestrictionVector.b2(5).entries
        (1, 1, 2, 3, 4)
        """
        return cls.br(2, n)

    @classmethod
    def br(cls, r: int, n: int) -> "RestrictionVector":
        """The r-subdiagonal staircase: r leading ones, then 2, 3, ..., n-r+1.

        Describes pi(i) >= max(1, i - r + 1).  Raises CapExceeded before
        building anything when n exceeds ``_STAIRCASE_BUDGET``.

        >>> RestrictionVector.br(3, 6).entries
        (1, 1, 1, 2, 3, 4)
        """
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > _STAIRCASE_BUDGET:
            raise CapExceeded("RestrictionVector.br entries", n, _STAIRCASE_BUDGET)
        return cls((1,) * min(r, n) + tuple(range(2, n - r + 2)))


@dataclass(frozen=True)
class RestrictionMatrix:
    """Square 0/1 matrix M; M[i][j] = 1 marks the allowed assignments pi(i) = j.

    Rows with no 1 are legal (the associated permutation set is then empty
    and the permanent is 0).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.rows
        if not isinstance(rows, tuple):
            object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
            rows = self.rows
        n = len(rows)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(rows, start=1):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"row {i} contains {v!r}; entries must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.rows)


def matrix_from_vector(b: RestrictionVector) -> RestrictionMatrix:
    """Row i has ones exactly in columns b_i..n (the staircase of b).

    Raises CapExceeded before building anything when the n^2 entries exceed
    ``_ELEMENT_BUDGET`` (2^20, so n <= 1024).

    >>> matrix_from_vector(RestrictionVector((1, 2))).rows
    ((1, 1), (0, 1))
    """
    n = b.n
    if n < 1:
        raise ValueError("cannot build a matrix for the empty vector")
    _refuse_matrix(n)
    return RestrictionMatrix(tuple(tuple(1 if j >= bi else 0 for j in range(1, n + 1)) for bi in b))


def _refuse_matrix(n: int) -> None:
    """Raise CapExceeded when an n x n matrix's entries exceed ``_ELEMENT_BUDGET``."""
    if n * n > _ELEMENT_BUDGET:
        raise CapExceeded("matrix_from_vector entries", n * n, _ELEMENT_BUDGET)


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1, ..., n} stored as the image tuple (pi(1), ..., pi(n)).

    >>> Permutation((2, 1, 3)).images[0]
    2
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = self.images
        if not isinstance(images, tuple):
            object.__setattr__(self, "images", tuple(images))
            images = self.images
        n = len(images)
        if n < 1:
            raise ValueError("permutation must act on at least one element")
        # n distinct values that include all of 1..n are exactly 1..n
        seen = set(images)
        if len(seen) != n or not seen.issuperset(range(1, n + 1)):
            raise ValueError(f"images are not a rearrangement of 1..{n}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def satisfies(self, b: RestrictionVector) -> bool:
        """True when pi(i) >= b_i for every position i."""
        if b.n != self.n:
            raise ValueError(f"vector length {b.n} does not match permutation size {self.n}")
        return all(v >= bi for v, bi in zip(self.images, b))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbit decomposition; each cycle starts at its smallest element and
        lists the orbit in application order (a, pi(a), pi(pi(a)), ...).

        >>> Permutation((2, 1, 3)).cycles()
        ((1, 2), (3,))
        """
        images = self.images
        seen = [False] * (len(images) + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(images) + 1):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            nxt = images[start - 1]
            while nxt != start:
                orbit.append(nxt)
                seen[nxt] = True
                nxt = images[nxt - 1]
            out.append(tuple(orbit))
        return tuple(out)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored as sorted (length, multiplicity)
    pairs; ``cycle_type`` builds it."""

    counts: tuple[tuple[int, int], ...]

    def multiplicity(self, k: int) -> int:
        """Number of cycles of length k."""
        for length, m in self.counts:
            if length == k:
                return m
        return 0


def cycle_type(p: Permutation) -> CycleType:
    """Cycle type of p.

    >>> cycle_type(Permutation((2, 1, 3))).counts
    ((1, 1), (2, 1))
    """
    images = p.images
    n = len(images)
    seen = [False] * (n + 1)
    counts = [0] * (n + 1)  # counts[k] = number of k-cycles
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        nxt = start
        while not seen[nxt]:
            seen[nxt] = True
            length += 1
            nxt = images[nxt - 1]
        counts[length] += 1
    return CycleType(tuple((k, m) for k, m in enumerate(counts) if m))


@dataclass(frozen=True)
class Composition:
    """Ordered sequence of positive parts; a composition of n = sum(parts).

    >>> Composition((1, 3, 1, 5)).total
    10
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        if not isinstance(parts, tuple):
            object.__setattr__(self, "parts", tuple(parts))
            parts = self.parts
        if len(parts) < 1:
            raise ValueError("composition must have at least one part")
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def count_parts(self, k: int) -> int:
        """Number of parts equal to k."""
        return self.parts.count(k)
