"""Command-line driver: counting, moment tables, normal-approximation
bounds, sampling, the composition bijection, and the verification suites.

Every command prints enough metadata (command, arguments, seed, version) to
reproduce its output exactly.  Exact integers print in full at any size,
exact rationals as ``p/q``; floats appear only in human-facing summary
lines, at six significant digits.  Tables are RFC-4180 CSV with a header
row and LF line endings.

Exit codes: 0 success, 1 usage error (any argument the library rejects),
2 verification failure, 3 resource cap exceeded (the library refuses, before
the work starts, any operation over its fixed budget).  Exits 1 and 3 print
one stderr line and no stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import random
import sys
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import __version__
from .bijection import composition_to_perm, perm_to_composition
from .bregular import count_b_regular, sample_b_regular
from .core import CapExceeded, Composition, Permutation, RestrictionVector, matrix_from_vector
from .cycindex import extract_factorial_moment
from .permanent import permanent_enumerate, permanent_ryser
from .stein import CLT_STREAM_VERSION, clt_empirical_test, stein_bound_report
from .verify import CLT_PUBLISHED_SEED, LEVELS, format_results, run_checks


class _UsageError(ValueError):
    """Bad command line; rendered as a usage message with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def parse_b_spec(text: str) -> RestrictionVector:
    """Parse ``"1,1,2,4,4"``, ``"b2:n"``, ``"b3:n"`` or ``"br:r,n"``.

    >>> parse_b_spec("b2:4").entries
    (1, 1, 2, 3)
    >>> parse_b_spec("br:3,5").entries
    (1, 1, 1, 2, 3)
    >>> parse_b_spec("1,1,2").entries
    (1, 1, 2)
    """
    try:
        if text.startswith("b2:"):
            return RestrictionVector.b2(int(text[3:]))
        if text.startswith("b3:"):
            return RestrictionVector.br(3, int(text[3:]))
        if text.startswith("br:"):
            r_text, n_text = text[3:].split(",")
            return RestrictionVector.br(int(r_text), int(n_text))
        return RestrictionVector(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise _UsageError(f"bad restriction spec {text!r}: {exc}") from exc


def _parse_k_range(text: str, n: int) -> list[int]:
    """``"2"``, ``"1:4"`` (inclusive) or ``"1,3,5"`` -> sorted k values."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":")
            values: Sequence[int] = range(int(lo_text), int(hi_text) + 1)
        else:
            values = sorted({int(v) for v in text.split(",")})
    except ValueError as exc:
        raise _UsageError(f"bad k range {text!r}: {exc}") from exc
    # the ends of the sorted values, so a range is only listed once it fits
    if not values or values[0] < 1 or values[-1] > n:
        raise _UsageError(f"k range {text!r} leaves 1..{n}")
    return list(values)


def _fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _emit_meta(stream: TextIO, command: str, argv: Sequence[str], seed: int | None = None) -> None:
    print(f"command={command}", file=stream)
    print(f"args={' '.join(argv)}", file=stream)
    if seed is not None:
        print(f"seed={seed}", file=stream)
    print(f"version={__version__}", file=stream)


def _write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_csv_file(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path!r}: {exc.strerror}") from exc
    with fh:
        _write_csv(fh, header, rows)


def _resolve_b(args: argparse.Namespace) -> RestrictionVector:
    if args.b_spec is not None:
        if args.n is not None or args.r is not None:
            raise _UsageError(f"give a restriction spec or --n/--r, not both (spec {args.b_spec!r})")
        return parse_b_spec(args.b_spec)
    if args.n is None:
        raise _UsageError("give a restriction spec or --n (with optional --r)")
    return RestrictionVector.br(2 if args.r is None else args.r, args.n)


def _cmd_count(args: argparse.Namespace, argv: Sequence[str]) -> int:
    b = _resolve_b(args)
    if args.method == "product":
        value = count_b_regular(b)
    elif args.method == "permanent":
        value = permanent_ryser(matrix_from_vector(b))
    else:
        value = permanent_enumerate(matrix_from_vector(b))
    _emit_meta(sys.stdout, "count", argv)
    print(f"b={','.join(str(v) for v in b.entries)}")
    print(f"method={args.method}")
    print(f"count={value}")
    return 0


def _cmd_moments(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.n < 1:
        raise _UsageError(f"need --n >= 1, got {args.n}")
    ks = list(range(1, args.n + 1)) if args.k is None else _parse_k_range(args.k, args.n)
    header = ("n", "k", "mean_num", "mean_den", "var_num", "var_den",
              "second_falling_num", "second_falling_den")
    rows = []
    for k in ks:
        mean, sf = extract_factorial_moment(args.n, k, 1), extract_factorial_moment(args.n, k, 2)
        var = sf + mean - mean * mean
        rows.append((args.n, k, mean.numerator, mean.denominator,
                     var.numerator, var.denominator, sf.numerator, sf.denominator))
    if args.out:
        _write_csv_file(args.out, header, rows)
        _emit_meta(sys.stdout, "moments", argv)
        print(f"out={args.out}")
        print(f"rows={len(rows)}")
    elif args.format == "kv":
        _emit_meta(sys.stdout, "moments", argv)
        for _, k, mn, md, vn, vd, sn, sd in rows:
            print(f"n={args.n} k={k} mean={mn}/{md} variance={vn}/{vd} second_falling={sn}/{sd}")
    else:
        _emit_meta(sys.stderr, "moments", argv)
        _write_csv(sys.stdout, header, rows)
    return 0


def _cmd_bound(args: argparse.Namespace, argv: Sequence[str]) -> int:
    report = stein_bound_report(args.n, args.k)
    _emit_meta(sys.stdout, "bound", argv)
    print(f"n={report.n}")
    print(f"k={report.k}")
    print(f"dependency_size={report.dependency_size}")
    print(f"third_moment_sum={_fraction(report.third_moment_sum)}")
    print(f"fourth_moment_sum={_fraction(report.fourth_moment_sum)}")
    print(f"sigma={_sig6(report.sigma)}")
    print(f"wasserstein={_sig6(report.wasserstein)}")
    print(f"kolmogorov={_sig6(report.kolmogorov)}")
    print(f"measured_dependency_size={report.measured_dependency_size}")
    print(f"wasserstein_at_measured_size={_sig6(report.wasserstein_at_measured_size)}")
    return 0


def _cmd_clt(args: argparse.Namespace, argv: Sequence[str]) -> int:
    report = clt_empirical_test(args.n, args.k, args.samples, args.seed)
    header = ("z_lo", "z_hi", "count")
    hist_rows = [(f"{lo:.6g}", f"{hi:.6g}", count) for lo, hi, count in report.histogram]
    if args.out:  # before any output, so an unwritable path prints only the usage error
        _write_csv_file(args.out, header, hist_rows)
    meta_stream = sys.stderr if args.format == "csv" and not args.out else sys.stdout
    _emit_meta(meta_stream, "clt", argv, seed=args.seed)
    print(f"stream={CLT_STREAM_VERSION}", file=meta_stream)
    print(f"n={report.n}", file=meta_stream)
    print(f"k={report.k}", file=meta_stream)
    print(f"samples={report.samples}", file=meta_stream)
    print(f"mu={_fraction(report.mu)}", file=meta_stream)
    print(f"sigma2={_fraction(report.sigma2)}", file=meta_stream)
    print(f"emp_mean={_sig6(report.emp_mean)}", file=meta_stream)
    print(f"emp_var={_sig6(report.emp_var)}", file=meta_stream)
    print(f"ks_stat={_sig6(report.ks_stat)}", file=meta_stream)
    print(f"dw_bound={_sig6(report.dw_bound)}", file=meta_stream)
    print(f"dk_bound={_sig6(report.dk_bound)}", file=meta_stream)
    if args.out:
        print(f"out={args.out}", file=meta_stream)
    elif args.format == "csv":
        _write_csv(sys.stdout, header, hist_rows)
    return 0


def _cmd_sample(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.samples < 0:
        raise _UsageError(f"need --samples >= 0, got {args.samples}")
    b = _resolve_b(args)
    _emit_meta(sys.stdout, "sample", argv, seed=args.seed)
    print(f"b={','.join(str(v) for v in b.entries)}")
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        p = sample_b_regular(b, rng)
        print(",".join(str(v) for v in p.images))
    return 0


def _cmd_compose(args: argparse.Namespace, argv: Sequence[str]) -> int:
    values = tuple(int(v) for v in args.input.split(","))
    if args.direction == "to-comp":
        result = perm_to_composition(Permutation(values)).parts
    else:
        result = composition_to_perm(Composition(values)).images
    _emit_meta(sys.stdout, "compose", argv)
    print(",".join(str(v) for v in result))
    return 0


def _cmd_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    _emit_meta(sys.stdout, "verify", argv)
    results = run_checks(args.level)
    print(format_results(results))
    return 0 if all(res.passed for res in results) else 2


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="bregperm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_b_spec(p: _Parser) -> None:
        p.add_argument("b_spec", nargs="?", default=None,
                       help="explicit vector '1,1,2,4,4' or shorthand b2:n / b3:n / br:r,n")
        p.add_argument("--n", type=int, default=None, help="size for the --r staircase shorthand")
        p.add_argument("--r", type=int, default=None, help="staircase offset with --n (default 2)")

    p_count = sub.add_parser("count", help="number of permutations compatible with a restriction")
    add_b_spec(p_count)
    p_count.add_argument("--method", choices=("product", "permanent", "enumerate"), default="product",
                         help="product formula (default), inclusion-exclusion permanent, or direct enumeration")

    p_moments = sub.add_parser("moments", help="exact k-cycle moment table (CSV)")
    p_moments.add_argument("--n", type=int, required=True)
    p_moments.add_argument("--k", default=None, help="k range: '2', '1:4' or '1,3,5' (default all)")
    p_moments.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_moments.add_argument("--format", choices=("csv", "kv"), default="csv")

    p_bound = sub.add_parser("bound", help="normal-approximation error bound for the k-cycle count")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)

    p_clt = sub.add_parser("clt", help="seeded sampling run against the standard normal")
    p_clt.add_argument("--n", type=int, required=True)
    p_clt.add_argument("--k", type=int, required=True)
    p_clt.add_argument("--samples", type=int, default=100_000)
    p_clt.add_argument("--seed", type=int, default=CLT_PUBLISHED_SEED)
    p_clt.add_argument("--out", default=None, help="write the standardized histogram CSV here")
    p_clt.add_argument("--format", choices=("csv", "kv"), default="kv",
                       help="csv prints the histogram to stdout when --out is absent")

    p_sample = sub.add_parser("sample", help="uniform draws from a restricted family")
    add_b_spec(p_sample)
    p_sample.add_argument("--samples", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)

    p_compose = sub.add_parser("compose", help="translate between permutations and compositions")
    p_compose.add_argument("direction", choices=("to-comp", "to-perm"))
    p_compose.add_argument("input", help="comma-separated images or parts")

    p_verify = sub.add_parser("verify", help="run the cross-verification suites")
    p_verify.add_argument("level", choices=LEVELS)

    return parser


_DISPATCH = {
    "count": _cmd_count,
    "moments": _cmd_moments,
    "bound": _cmd_bound,
    "clt": _cmd_clt,
    "sample": _cmd_sample,
    "compose": _cmd_compose,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # exact integers print in full; Python 3.10.0-3.10.6 has no digit limit
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        args = build_parser().parse_args(argv)
        if digit_limit:
            sys.set_int_max_str_digits(0)
        return _DISPATCH[args.cmd](args, argv)
    except (ValueError, OverflowError) as exc:  # a _UsageError or an argument the library rejects
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
