"""Command-line driver: counting, moment tables, normal-approximation
bounds, sampling, the composition bijection, and the verification suites.

Each command computes one record and ``_render`` alone prints it: the
metadata that reproduces the output exactly (command, arguments, seed,
version), the key=value fields, plain lines, and an RFC-4180 CSV table with
a header row and LF line endings.  ``_text`` is the one value format (exact
integers in full at any size, exact rationals as ``p/q``, floats at six
significant digits) and ``_render`` picks each part's stream or file.

Exit codes: 0 success, 1 usage error (any argument the library rejects),
2 verification failure, 3 resource cap exceeded (the library refuses, before
the work starts, any operation over its fixed budget).  Exits 1 and 3 print
one stderr line and no stdout.  A reader that closes the pipe early (``|
head``) ends the output quietly: nothing more is printed, on stderr either,
and the exit code is the one the command computed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import random
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, TextIO

from . import __version__
from .bijection import composition_to_perm, perm_to_composition
from .bregular import count_b_regular, sample_b_regular
from .core import CapExceeded, Composition, Permutation, RestrictionVector
from .cycindex import _refuse_moment_table, extract_factorial_moment
from .permanent import _staircase_permanent
from .stein import CLT_STREAM_VERSION, clt_empirical_test, stein_bound_report
from .verify import CLT_PUBLISHED_SEED, LEVELS, format_results, run_checks


class _UsageError(ValueError):
    """Bad command line; rendered as a usage message with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        parsed = super().parse_args(args, namespace)
        # argparse before Python 3.12 reads `--opt=--` as an empty list
        if [] in vars(parsed).values():
            self.error("'--' is not an option value")
        return parsed


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


def _parse_k_range(text: str, n: int) -> Sequence[int]:
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
    return values


class _Record(NamedTuple):
    """What one subcommand computed, in print order; ``_render`` alone prints it."""

    fields: dict[str, object]  # key=value lines; a None value is left out
    lines: Iterable[object] = ()  # may be lazy: `sample` streams its draws in constant memory
    table: tuple[Sequence[str], Iterable[Sequence[object]]] | None = None
    code: int = 0


def _text(value: object) -> str:
    """The one value format: ints in full, Fractions as p/q, floats at six
    significant digits, tuples joined by commas, dicts as key=value pairs."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    if isinstance(value, dict):
        return " ".join(f"{key}={_text(v)}" for key, v in value.items())
    return str(value)


def _write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_text(v) for v in row] for row in rows)


def _render(args: argparse.Namespace, argv: Sequence[str], record: _Record) -> int:
    """Print a record: metadata, fields, lines, then the table where it goes.

    A table goes to --out, written before anything prints; under --format
    csv without --out it goes to stdout and the rest to stderr; otherwise it
    is not printed.  Everything else goes to stdout.
    """
    out, table = getattr(args, "out", None), record.table
    if table is not None and out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, *table)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    table_to_stdout = table is not None and not out and getattr(args, "format", None) == "csv"
    stream = sys.stderr if table_to_stdout else sys.stdout
    meta = {"command": args.cmd, "args": " ".join(argv), "seed": getattr(args, "seed", None),
            "version": __version__}
    for key, value in (*meta.items(), *record.fields.items()):
        if value is not None:
            print(f"{key}={_text(value)}", file=stream)
    for line in record.lines:
        print(_text(line), file=stream)
    if table_to_stdout:
        _write_csv(sys.stdout, *table)
    sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's exit flush
    return record.code


def _cmd_count(args: argparse.Namespace) -> _Record:
    b = parse_b_spec(args.b_spec)
    value = count_b_regular(b) if args.method == "product" else _staircase_permanent(b, args.method)
    return _Record({"method": args.method, "count": value})


def _cmd_moments(args: argparse.Namespace) -> _Record:
    if args.n < 1:
        raise _UsageError(f"need --n >= 1, got {args.n}")
    ks = range(1, args.n + 1) if args.k is None else _parse_k_range(args.k, args.n)
    _refuse_moment_table(args.n, len(ks))
    header = ("n", "k", "mean_num", "mean_den", "var_num", "var_den",
              "second_falling_num", "second_falling_den")
    rows, lines = [], []
    for k in ks:
        mean, sf = extract_factorial_moment(args.n, k, 1), extract_factorial_moment(args.n, k, 2)
        var = sf + mean - mean * mean
        rows.append((args.n, k, mean.numerator, mean.denominator,
                     var.numerator, var.denominator, sf.numerator, sf.denominator))
        lines.append({"n": args.n, "k": k, "mean": mean, "variance": var, "second_falling": sf})
    if args.out:
        return _Record({"out": args.out, "rows": len(rows)}, table=(header, rows))
    return _Record({}, lines if args.format == "kv" else (), (header, rows))


def _cmd_bound(args: argparse.Namespace) -> _Record:
    report = stein_bound_report(args.n, args.k)
    names = ("n", "k", "dependency_size", "third_moment_sum", "fourth_moment_sum", "sigma", "wasserstein",
             "kolmogorov", "measured_dependency_size", "wasserstein_at_measured_size")
    return _Record({name: getattr(report, name) for name in names})


def _cmd_clt(args: argparse.Namespace) -> _Record:
    report = clt_empirical_test(args.n, args.k, args.samples, args.seed)
    names = ("n", "k", "samples", "mu", "sigma2", "emp_mean", "emp_var", "ks_stat", "dw_bound", "dk_bound")
    fields = {"stream": CLT_STREAM_VERSION, **{name: getattr(report, name) for name in names}, "out": args.out}
    return _Record(fields, table=(("z_lo", "z_hi", "count"), report.histogram))


def _cmd_sample(args: argparse.Namespace) -> _Record:
    if args.samples < 0:
        raise _UsageError(f"need --samples >= 0, got {args.samples}")
    if args.seed < 0:  # random.Random would draw from abs(seed)
        raise _UsageError(f"need --seed >= 0, got {args.seed}")
    b = parse_b_spec(args.b_spec)
    rng = random.Random(args.seed)
    return _Record({}, (sample_b_regular(b, rng).images for _ in range(args.samples)))


def _cmd_compose(args: argparse.Namespace) -> _Record:
    values = tuple(int(v) for v in args.input.split(","))
    if args.direction == "to-comp":
        return _Record({}, [perm_to_composition(Permutation(values)).parts])
    return _Record({}, [composition_to_perm(Composition(values)).images])


def _cmd_verify(args: argparse.Namespace) -> _Record:
    results = run_checks(args.level)
    return _Record({}, [format_results(results)], code=0 if all(res.passed for res in results) else 2)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="bregperm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    b_spec_help = "explicit vector '1,1,2,4,4' or shorthand b2:n / b3:n / br:r,n"

    p_count = sub.add_parser("count", help="number of permutations compatible with a restriction")
    p_count.add_argument("b_spec", help=b_spec_help)
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
    p_sample.add_argument("b_spec", help=b_spec_help)
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
        record = _DISPATCH[args.cmd](args)
        return _render(args, argv, record)
    except BrokenPipeError:  # the reader has gone: stop quietly with the command's exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot fail
        return record.code
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
