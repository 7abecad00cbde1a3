"""Exact k-cycle indicator laws and a normal-approximation bound for the
k-cycle count of a uniform one-subdiagonal permutation.

Through the composition bijection, the k-cycle on {i, ..., i+k-1} occurs
exactly when the composition has a part of size k covering that window, so
every probability below is a ratio of segment counts: a free segment of
mass m can be filled by 2^(m-1) compositions (1 way when m = 0).  These
counts, and every other count of compositions by their k-parts, come from
``cycindex``.

The count W of k-cycles is a sum of n-k+1 such indicators, and indicators
further apart than k positions are independent.  A local-dependence
normal-approximation theorem then bounds the Wasserstein distance between
the standardised W and the standard normal by

    D^2 / sigma^3 * sum_i E|X_i|^3
      + sqrt(28) D^(3/2) / (sqrt(pi) sigma^2) * sqrt(sum_i E[X_i^4]),

where X_i are the centred indicators and D is the dependency-neighbourhood
size, taken here as 2k.  The detected dependence radius actually implies
neighbourhoods of size 2k + 1; the report carries that variant separately.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .bregular import count_b_regular, enumerate_b_regular
from .core import CapExceeded, RestrictionVector
from .cycindex import _segment_count, mean_k_cycles, second_falling_formula_is_exact, variance_k_cycles

# Bumped whenever the sampler maps a seed to different draws.
CLT_STREAM_VERSION = 2
_BLOCK_BYTES = 1 << 18  # per sampler work array: four of them fit a 1 MiB L2
_SAMPLE_WORD_BUDGET = 1 << 28  # drawn plus returned words per sampler call: result < 1 GiB
_PAIR_BUDGET = 1 << 24  # pairs of distinct cycles an independence probe scans: up to 5792 cycles


def _check_indicator_args(n: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"no k-cycle fits: n={n} < k={k}")


def indicator_probability(n: int, k: int, i: int) -> Fraction:
    """P(the k-cycle on {i, ..., i+k-1} occurs), for 1 <= i <= n-k+1.

    The free segments before and after the window fill independently.  That
    gives 1/2^k at the two boundary positions and 1/2^(k+1) in the interior;
    the single-slot case n = k has probability 2^(1-n) (one composition out
    of 2^(n-1)).

    >>> indicator_probability(10, 2, 1)
    Fraction(1, 4)
    >>> indicator_probability(10, 2, 5)
    Fraction(1, 8)
    """
    _check_indicator_args(n, k)
    if not 1 <= i <= n - k + 1:
        raise ValueError(f"start position {i} out of range 1..{n - k + 1}")
    # a free segment's mass past its first slot cancels against 2^(n-1), so
    # both are taken at mass <= 1 and the integers stay k bits wide at any n
    before, after = min(i - 1, 1), min(n - k - i + 1, 1)
    return Fraction(_segment_count(before) * _segment_count(after), 1 << (k - 1 + before + after))


def joint_indicator_probability(n: int, k: int, i: int, j: int) -> Fraction:
    """P(both k-cycles at start positions i < j occur).

    Zero when the windows overlap; otherwise the three free segments
    (before, between, after) fill independently.

    >>> joint_indicator_probability(6, 1, 2, 3)
    Fraction(1, 8)
    >>> joint_indicator_probability(6, 1, 2, 4)
    Fraction(1, 16)
    """
    _check_indicator_args(n, k)
    if not (1 <= i < j <= n - k + 1):
        raise ValueError(f"need 1 <= i < j <= {n - k + 1}, got i={i}, j={j}")
    if j - i < k:
        return Fraction(0)
    ways = _segment_count(i - 1) * _segment_count(j - i - k) * _segment_count(n - j - k + 1)
    return Fraction(ways, 1 << (n - 1))


@dataclass(frozen=True)
class IndicatorLaw:
    """All n-k+1 occurrence probabilities for k-cycles at each start position."""

    n: int
    k: int
    probabilities: tuple[Fraction, ...]

    def probability(self, i: int) -> Fraction:
        if not 1 <= i <= len(self.probabilities):
            raise ValueError(f"start position {i} out of range 1..{len(self.probabilities)}")
        return self.probabilities[i - 1]


def indicator_law(n: int, k: int) -> IndicatorLaw:
    """The law at every start position; only the two ends differ from the interior.

    >>> indicator_law(5, 2).probabilities
    (Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(1, 4))
    """
    last = n - k + 1
    first = indicator_probability(n, k, 1)
    if last == 1:
        return IndicatorLaw(n, k, (first,))
    inner = indicator_probability(n, k, 2) if last > 2 else first
    return IndicatorLaw(n, k, (first,) + (inner,) * (last - 2) + (indicator_probability(n, k, last),))


@dataclass(frozen=True)
class DependenceReport:
    """Exact pairwise dependence structure of the k-cycle indicators.

    threshold is the least d such that every pair with |i-j| >= d is
    independent; witness is a dependent pair at distance threshold - 1.
    """

    n: int
    k: int
    threshold: int
    witness: tuple[int, int]

    @property
    def matches_at_least_k_plus_1(self) -> bool:
        """Does the detected threshold equal k + 1 (independence iff |i-j| >= k+1)?"""
        return self.threshold == self.k + 1

    @property
    def matches_strictly_greater_than_k_plus_1(self) -> bool:
        """Does it instead equal k + 2 (independence iff |i-j| > k+1)?"""
        return self.threshold == self.k + 2


def dependence_threshold(n: int, k: int) -> DependenceReport:
    """Scan every pair exactly and locate the independence threshold.

    Requires n >= 2k + 4 so that interior pairs on both sides of the
    candidate thresholds exist.

    >>> dependence_threshold(12, 1).threshold
    2
    """
    _check_indicator_args(n, k)
    if n < 2 * k + 4:
        raise ValueError(f"need n >= 2k + 4 = {2 * k + 4} for a meaningful scan, got n={n}")
    p = indicator_law(n, k).probabilities
    _, widest, witness = _scan_gaps(
        (j - i, (i, j), joint_indicator_probability(n, k, i, j) == p[i - 1] * p[j - 1])
        for i, j in itertools.combinations(range(1, n - k + 2), 2)
    )
    return DependenceReport(n=n, k=k, threshold=widest + 1, witness=witness)


def _scan_gaps(pairs: Iterable[tuple[int, tuple[int, int], bool]]) -> tuple[dict[int, list[int]], int, tuple | None]:
    """Tally (gap, pair, independent) triples by gap.

    Returns the [independent, dependent] counts at each gap, the widest gap
    holding a dependent pair (0 when none does) and the first dependent pair
    seen at that gap (None when none).
    """
    tally: dict[int, list[int]] = {}
    widest, witness = 0, None
    for gap, pair, independent in pairs:
        tally.setdefault(gap, [0, 0])[not independent] += 1
        if not independent and gap > widest:
            widest, witness = gap, pair
    return tally, widest, witness


def shifted_moment_sums(n: int, k: int) -> tuple[Fraction, Fraction]:
    """(sum_i E|X_i|^3, sum_i E[X_i^4]) over the centred indicators X_i.

    Two boundary positions contribute at the parameter p of position 1 and
    the n-k-1 interior ones at that of position 2 (indicator_probability);
    a centred Bernoulli(p) has E|X|^3 = p q (p^2 + q^2) and
    E[X^4] = p q (p^3 + q^3), q = 1 - p.

    >>> shifted_moment_sums(10, 1)
    (Fraction(19, 16), Fraction(25, 32))
    """
    _check_indicator_args(n, k)
    if n < k + 1:
        raise ValueError(f"need n >= k + 1 positions, got n={n}, k={k}")
    weights = ((2, indicator_probability(n, k, 1)), (n - k - 1, indicator_probability(n, k, 2)))
    third = sum(c * p * (1 - p) * (p * p + (1 - p) * (1 - p)) for c, p in weights)
    fourth = sum(c * p * (1 - p) * (p**3 + (1 - p) ** 3) for c, p in weights)
    return third, fourth


PRINTED_DEPENDENCY_SIZE_FACTOR = 2  # D = 2k in the headline bound
WASSERSTEIN_TO_KOLMOGOROV_C = 1.0 / math.sqrt(2.0 * math.pi)


def wasserstein_bound(n: int, k: int) -> float:
    """Upper bound on the Wasserstein distance between the standardised
    k-cycle count and the standard normal (module docstring formula), at
    neighbourhood size D = 2k.  ``stein_bound_report`` also carries the
    variant at 2k + 1 implied by the detected dependence radius.

    >>> round(wasserstein_bound(10, 1), 2)
    2.98
    """
    _check_indicator_args(n, k)
    _require_exact_variance(n, k)
    return _wasserstein(PRINTED_DEPENDENCY_SIZE_FACTOR * k, *shifted_moment_sums(n, k), float(variance_k_cycles(n, k)))


def _require_exact_variance(n: int, k: int) -> None:
    if not second_falling_formula_is_exact(n, k):
        raise ValueError(f"need n >= 2k + 1 = {2 * k + 1} for an exact variance, got n={n}")


def _wasserstein(d: int, third: Fraction, fourth: Fraction, sigma2: float) -> float:
    """The module docstring's bound at neighbourhood size d, from the two
    moment sums and the variance."""
    sigma = math.sqrt(sigma2)
    term1 = d * d / sigma**3 * float(third)
    term2 = math.sqrt(28.0) * d**1.5 / (math.sqrt(math.pi) * sigma2) * math.sqrt(float(fourth))
    return term1 + term2


def kolmogorov_from_wasserstein(dw: float) -> float:
    """Kolmogorov-distance bound sqrt(2 C dw) with C = 1/sqrt(2 pi).

    >>> round(kolmogorov_from_wasserstein(math.sqrt(2 * math.pi) / 2), 12)
    1.0
    """
    if dw < 0:
        raise ValueError(f"distance bound must be >= 0, got {dw}")
    return math.sqrt(2.0 * WASSERSTEIN_TO_KOLMOGOROV_C * dw)


@dataclass(frozen=True)
class SteinBoundReport:
    """Bound evaluation at (n, k), with exact ingredient sums."""

    n: int
    k: int
    dependency_size: int
    sigma: float
    third_moment_sum: Fraction
    fourth_moment_sum: Fraction
    wasserstein: float
    kolmogorov: float
    # the pairwise scan finds dependence out to distance k, so each indicator
    # has 2k + 1 neighbours including itself; the headline value uses the
    # smaller printed size D = 2k, this one the measured size
    measured_dependency_size: int
    wasserstein_at_measured_size: float


def stein_bound_report(n: int, k: int) -> SteinBoundReport:
    third, fourth = shifted_moment_sums(n, k)
    _require_exact_variance(n, k)
    sigma2 = float(variance_k_cycles(n, k))
    dw = _wasserstein(PRINTED_DEPENDENCY_SIZE_FACTOR * k, third, fourth, sigma2)
    return SteinBoundReport(
        n=n,
        k=k,
        dependency_size=PRINTED_DEPENDENCY_SIZE_FACTOR * k,
        sigma=math.sqrt(sigma2),
        third_moment_sum=third,
        fourth_moment_sum=fourth,
        wasserstein=dw,
        kolmogorov=kolmogorov_from_wasserstein(dw),
        measured_dependency_size=2 * k + 1,
        wasserstein_at_measured_size=_wasserstein(2 * k + 1, third, fourth, sigma2),
    )


def standard_normal_cdf(z: float) -> float:
    """Phi(z) via the C library erf; absolute error well below 1e-10."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _shift_into(dst: np.ndarray, src: np.ndarray, s: int, scratch: np.ndarray) -> None:
    """dst = src >> s, each row read as one LSB-first multiword integer.

    The flat row-major buffer is shifted in one pass, each word borrowing
    its high bits from the next word.  Only the last q + 1 words of a row
    borrow across its end, so they are set again: the row's last word
    shifted by the bit offset, then zeros.
    """
    q, r = divmod(s, 64)
    width = src.shape[1]
    d, a, t = dst.reshape(-1), src.reshape(-1), scratch.reshape(-1)
    size = a.size
    np.right_shift(a[q:], r, out=d[: size - q])
    np.left_shift(a[q + 1 :], 64 - r, out=t[: size - q - 1])  # numpy: x << 64 == 0
    np.bitwise_or(d[: size - q - 1], t[: size - q - 1], out=d[: size - q - 1])
    np.right_shift(src[:, width - 1], r, out=dst[:, width - 1 - q])
    dst[:, width - q :] = 0


def sample_k_part_counts(n: int, k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """k-part counts of `samples` uniform compositions of n, bit-packed.

    Each composition is an (n+1)-bit cut word c packed LSB first into
    W = (n + 64) // 64 uint64 words drawn straight from `rng`: bit p is bit
    p % 64 of word p // 64, bits 0 and n are forced to 1 and bits above n
    are cleared.  A part of size k starts at p exactly when cuts sit at p and
    p + k with none in between, so the count is the broadword popcount of

        c & (c >> k) & ~(c >> 1) & ... & ~(c >> (k-1))

    with shifts carrying across words.  Clearing the bits above n already
    confines the starts to 0..n-k, and the run of k-1 clear bits is found
    by doubling, in O(log k) shifts.

    The words are processed in blocks of rows small enough for four
    (rows, W) arrays to stay in a core's L2 cache.  Each block draws its
    words with one full-range `integers` call, which takes exactly one
    64-bit generator output per word, so the blocks read the stream as one
    draw of (samples, W) words would: the seeded counts do not depend on
    the block size.  Every shift, AND, invert and popcount writes into the
    drawn array or into three arrays allocated once per call.  A word holds
    at most 64 hits, so its popcount goes into a byte-wide view of the
    scratch array, and the row sums accumulate in int64 straight into the
    result.

    Raises CapExceeded before allocating anything when samples * (W + 1)
    words, the random words plus the int64 result, exceed
    ``_SAMPLE_WORD_BUDGET`` (2^28: about 8.1 * 10^6 draws at n = 2000).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_indicator_args(n, k)
    width, top = (n + 64) // 64, n % 64
    words = samples * (width + 1)
    if words > _SAMPLE_WORD_BUDGET:
        raise CapExceeded("sample_k_part_counts random words and result words", words, _SAMPLE_WORD_BUDGET)
    out = np.empty(samples, dtype=np.int64)
    rows = max(1, min(_BLOCK_BYTES // (8 * width), samples))
    free, hits, scratch = (np.empty((rows, width), dtype=np.uint64) for _ in range(3))
    # contiguous bytes at the front of scratch, free once the hits are found
    popcounts = scratch.reshape(-1).view(np.uint8)[: rows * width].reshape(rows, width)
    for pos in range(0, samples, rows):
        m = min(rows, samples - pos)
        fb, hb, sb = free[:m], hits[:m], scratch[:m]
        cb = rng.integers(0, 2**64, size=(m, width), dtype=np.uint64)
        cb[:, 0] |= np.uint64(1)
        last = cb[:, width - 1]
        np.bitwise_and(last, np.uint64((2 << top) - 1), out=last)
        np.bitwise_or(last, np.uint64(1 << top), out=last)
        _shift_into(hb, cb, k, sb)
        np.bitwise_and(hb, cb, out=hb)
        if k > 1:
            # c is spent once inverted, so it holds each shifted copy of free
            np.invert(cb, out=fb)
            span = 1  # bit p of free: no cut at p .. p+span-1
            while span < k - 1:
                _shift_into(cb, fb, min(span, k - 1 - span), sb)
                np.bitwise_and(fb, cb, out=fb)
                span = min(2 * span, k - 1)
            _shift_into(cb, fb, 1, sb)
            np.bitwise_and(hb, cb, out=hb)
        np.bitwise_count(hb, out=popcounts[:m])
        np.add.reduce(popcounts[:m], axis=1, dtype=np.int64, out=out[pos : pos + m])
    return out


@dataclass(frozen=True)
class CltReport:
    """Result of one empirical normal-approximation run."""

    n: int
    k: int
    samples: int
    seed: int
    mu: Fraction
    sigma2: Fraction
    emp_mean: float
    emp_var: float
    ks_stat: float
    dw_bound: float
    dk_bound: float
    histogram: tuple[tuple[float, float, int], ...]


def clt_empirical_test(n: int, k: int, samples: int, seed: int) -> CltReport:
    """Draw `samples` uniform compositions of n, standardise the k-part
    count with the exact mean and variance, and measure the KS distance to
    the standard normal.

    The random stream is derived deterministically from (seed, n, k).
    The counts are tallied with `np.bincount`, so the observed values come
    out ascending without a sort.  Histogram bins are the standardised unit
    intervals around each observed integer count.
    """
    _check_indicator_args(n, k)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not second_falling_formula_is_exact(n, k):
        raise ValueError(f"need n >= 2k + 1 = {2 * k + 1} for exact moments, got n={n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n, k])))
    counts = sample_k_part_counts(n, k, samples, rng)
    mu = mean_k_cycles(n, k)
    sigma2 = variance_k_cycles(n, k)
    dw = _wasserstein(PRINTED_DEPENDENCY_SIZE_FACTOR * k, *shifted_moment_sums(n, k), float(sigma2))
    mu_f = float(mu)
    sigma_f = math.sqrt(float(sigma2))
    tally = np.bincount(counts)
    values = np.flatnonzero(tally)
    freq = tally[values]
    cum = np.cumsum(freq)
    phi = np.array(list(map(standard_normal_cdf, ((values - mu_f) / sigma_f).tolist())))
    ks = max(0.0, (cum / samples - phi).max(), (phi - (cum - freq) / samples).max())
    edges = (((values + shift - mu_f) / sigma_f).tolist() for shift in (-0.5, 0.5))
    hist = tuple(zip(*edges, freq.tolist()))
    return CltReport(
        n=n,
        k=k,
        samples=samples,
        seed=seed,
        mu=mu,
        sigma2=sigma2,
        emp_mean=float(counts.mean()),
        emp_var=float(counts.var(ddof=1)),
        ks_stat=float(ks),
        dw_bound=dw,
        dk_bound=kolmogorov_from_wasserstein(dw),
        histogram=hist,
    )


@dataclass(frozen=True)
class IndependenceProbeReport:
    """Empirical cycle-pair independence evidence for an r-subdiagonal family.

    Every cycle (as a specific cyclic map) occurring in the family is an
    indicator; for each unordered pair with disjoint supports the exact
    joint frequency is compared with the product of marginals.  gap_summary
    rows are (gap, independent_pairs, dependent_pairs) where gap is the
    minimum absolute difference between the two supports.
    """

    n: int
    r: int
    family_size: int
    distinct_cycles: int
    disjoint_pairs: int
    gap_summary: tuple[tuple[int, int, int], ...]
    least_all_independent_gap: int | None
    dependent_witness_at_gap: tuple[int, ...] | None


def independence_probe(n: int, r: int = 3) -> IndependenceProbeReport:
    """Exhaustive independence scan over all cycles of the r-subdiagonal
    family of size n.  Evidence only; nothing downstream consumes this.

    Raises CapExceeded as soon as the cycles numbered so far make more pairs
    than ``_PAIR_BUDGET`` (2^24), before any pair is scanned; the reported
    pair count is then a lower bound on the family's.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    b = RestrictionVector.br(r, n)
    ids: dict[tuple[int, ...], int] = {}  # each cycle numbered in order of first sight
    marginal: Counter[int] = Counter()
    joint: Counter[tuple[int, int]] = Counter()
    for p in enumerate_b_regular(b):
        seen = sorted(ids.setdefault(cyc, len(ids)) for cyc in p.cycles())
        pairs = len(ids) * (len(ids) - 1) // 2
        if pairs > _PAIR_BUDGET:
            raise CapExceeded("independence_probe cycle pairs (lower bound)", pairs, _PAIR_BUDGET)
        marginal.update(seen)
        joint.update(itertools.combinations(seen, 2))
    total = count_b_regular(b)
    supports = [tuple(sorted(cyc)) for cyc in ids]
    masks = [sum(1 << e for e in cyc) for cyc in ids]
    tally, widest, witness = _scan_gaps(
        (min(abs(x - y) for x in supports[a] for y in supports[c]), (a, c),
         joint[a, c] * total == marginal[a] * marginal[c])
        for a, c in itertools.combinations(range(len(ids)), 2)
        if not masks[a] & masks[c]
    )
    return IndependenceProbeReport(
        n=n,
        r=r,
        family_size=total,
        distinct_cycles=len(ids),
        disjoint_pairs=sum(map(sum, tally.values())),
        gap_summary=tuple((gap, *tally[gap]) for gap in sorted(tally)),
        # every pair past the widest dependent gap is independent
        least_all_independent_gap=widest + 1 if max(tally, default=0) > widest else None,
        dependent_witness_at_gap=None if witness is None else supports[witness[0]] + supports[witness[1]],
    )
