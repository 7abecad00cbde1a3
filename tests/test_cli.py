"""Command-line driver: parsing, output contracts, exit codes, and file
output.  Everything goes through main() so the tests cover exactly what a
shell user sees."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bregperm
from bregperm import __version__
from bregperm.cli import main, parse_b_spec
from bregperm.core import RestrictionVector
from bregperm.cycindex import extract_factorial_moment
from bregperm.stein import CLT_STREAM_VERSION


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit() -> int:
    """Python's int/str digit limit; 0 (none) on 3.10.0-3.10.6."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@contextmanager
def any_size_ints():
    """Convert between int and str at any size inside the block, as main() does."""
    limit = digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# opens, then refuses every write; absolute, so tmp_path / "/dev/full" is /dev/full
DEV_FULL = pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"))


def kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


class TestParseBSpec:
    def test_shorthands(self):
        assert parse_b_spec("b2:4") == RestrictionVector.b2(4)
        assert parse_b_spec("b3:5") == RestrictionVector.br(3, 5)
        assert parse_b_spec("br:4,6") == RestrictionVector.br(4, 6)
        assert parse_b_spec("1,1,2,4,4") == RestrictionVector((1, 1, 2, 4, 4))

    def test_bad_specs_raise_usage_errors(self):
        from bregperm.cli import _UsageError

        for text in ("b2:x", "br:3", "1,5,2", "2,2", ""):
            with pytest.raises(_UsageError):
                parse_b_spec(text)


class TestCount:
    def test_product_method(self, capsys):
        code, out, _ = run(capsys, "count", "b3:5")
        assert code == 0
        fields = kv(out)
        assert fields["command"] == "count"
        assert "b" not in fields  # the args line already carries the spec
        assert fields["method"] == "product"
        assert fields["count"] == "54"
        assert fields["version"] == __version__

    def test_explicit_vector(self, capsys):
        code, out, _ = run(capsys, "count", "1,2,3")
        assert code == 0
        assert kv(out)["count"] == "1"

    def test_methods_agree(self, capsys):
        for method in ("product", "permanent", "enumerate"):
            code, out, _ = run(capsys, "count", "b2:8", "--method", method)
            assert code == 0
            assert kv(out)["count"] == "128"

    def test_cap_exit_code(self, capsys):
        for argv in (
            ("b2:11", "--method", "enumerate"),  # 11! terms
            ("b2:26", "--method", "permanent"),  # 26 * 2^26 Ryser steps
            ("b2:1100000",),  # 1 099 999 bits of count
        ):
            code, out, err = run(capsys, "count", *argv)
            assert code == 3
            assert out == ""
            assert err.startswith("cap exceeded: ") and err.count("\n") == 1

    def test_huge_cap_message_stays_short(self, capsys):
        # 1000! terms: the message names a power of two, not 2 568 digits
        code, out, err = run(capsys, "count", "b2:1000", "--method", "enumerate")
        assert (code, out) == (3, "")
        assert err == "cap exceeded: permanent_enumerate terms needs at least 2^8529, exceeding the cap of 4194304\n"
        assert len(err) < 200

    def test_matrix_is_refused_before_it_is_built(self, capsys):
        for method in ("permanent", "enumerate"):
            code, out, err = run(capsys, "count", "b2:100000", "--method", method)
            assert code == 3
            assert out == ""
            assert err == "cap exceeded: matrix_from_vector entries needs 10000000000, exceeding the cap of 1048576\n"

    def test_method_budget_refuses_before_the_matrix_is_built(self, capsys, monkeypatch):
        def built(rows):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr("bregperm.core.RestrictionMatrix", built)
        for spec, method, err_expected in (
            ("b2:1024", "permanent", "permanent_ryser n*2^n steps needs at least 2^1034, exceeding the cap of 1073741824"),
            ("b2:11", "enumerate", "permanent_enumerate terms needs 39916800, exceeding the cap of 4194304"),
        ):
            code, out, err = run(capsys, "count", spec, "--method", method)
            assert (code, out, err) == (3, "", f"cap exceeded: {err_expected}\n")

    def test_exact_count_prints_at_any_size(self, capsys):
        # 2^19999 has 6021 digits, past Python's default int-to-str limit,
        # which main() lifts for the command and then restores
        limit = digit_limit()
        code, out, _ = run(capsys, "count", "b2:20000")
        assert code == 0
        assert digit_limit() == limit
        with any_size_ints():
            assert out.splitlines()[-1] == f"count={2 ** 19999}"

    def test_missing_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count")
        assert code == 1
        assert "usage error" in err


class TestMoments:
    def test_kv_format(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "8", "--k", "2", "--format", "kv")
        assert code == 0
        assert "n=8 k=2 mean=9/8 variance=57/64 second_falling=33/32" in out

    def test_csv_to_file(self, capsys, tmp_path):
        for fmt in ("csv", "kv"):  # --out wins over --format, as in clt
            target = tmp_path / f"moments-{fmt}.csv"
            code, out, _ = run(capsys, "moments", "--n", "6", "--format", fmt, "--out", str(target))
            assert code == 0
            fields = kv(out)
            assert fields["out"] == str(target)
            assert fields["rows"] == "6"
            rows = list(csv.reader(io.StringIO(target.read_text())))
            assert len(rows) == 7  # header + k = 1..6

    @pytest.mark.parametrize("where", ["missing/moments.csv", ".", DEV_FULL])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        code, out, err = run(capsys, "moments", "--n", "6", "--out", str(tmp_path / where))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_k_selection_variants(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "9", "--k", "1,3")
        assert code == 0
        data_rows = out.strip().splitlines()[1:]
        assert [r.split(",")[1] for r in data_rows] == ["1", "3"]

    @pytest.mark.parametrize(
        "argv, stdout_sha256",
        [
            (("--n", "200"), "9bf9580a3d5650cab96770bdb4147d9eb23f64197b378ce11076bc25d219ebde"),
            (("--n", "10", "--format", "kv"), "6756db615487e97448baf220efba6a5cdcbb9520baa199e094c61f56b3d2f85f"),
        ],
    )
    def test_output_is_pinned(self, capsys, argv, stdout_sha256):
        # every row, including those where the paper's closed forms fail
        code, out, _ = run(capsys, "moments", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256

    def test_every_row_is_exact(self, capsys):
        # the paper's closed forms stop being the truth for k > (n - 1) / 2;
        # every row, those included, must equal the exact falling moments
        code, out, _ = run(capsys, "moments", "--n", "10")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(r[1]) for r in rows] == list(range(1, 11))
        for row in rows:
            n, k, mn, md, vn, vd, sn, sd = map(int, row)
            mean = extract_factorial_moment(n, k, 1)
            falling = extract_factorial_moment(n, k, 2)
            assert Fraction(mn, md) == mean
            assert Fraction(sn, sd) == falling
            assert Fraction(vn, vd) == falling + mean - mean * mean

    def test_bad_k_range(self, capsys):
        code, _, err = run(capsys, "moments", "--n", "5", "--k", "0:9")
        assert code == 1
        assert "usage error" in err

    def test_rows_with_huge_values_are_exact(self, capsys):
        # the numerators and denominators run past 4300 digits
        code, out, _ = run(capsys, "moments", "--n", "20000", "--k", "19999")
        assert code == 0
        [row] = list(csv.reader(io.StringIO(out)))[1:]
        mean, falling = extract_factorial_moment(20000, 19999, 1), extract_factorial_moment(20000, 19999, 2)
        with any_size_ints():
            n, k, mn, md, vn, vd, sn, sd = map(int, row)
        assert (n, k) == (20000, 19999)
        assert Fraction(mn, md) == mean
        assert Fraction(vn, vd) == falling + mean - mean * mean
        assert Fraction(sn, sd) == falling

    def test_table_bits_are_capped_before_the_first_row(self, capsys, tmp_path):
        # each row at size n is charged n bits; 5792 full rows fit 2^25, 400 rows at n = 10^5 do not
        target = tmp_path / "moments.csv"
        for argv, bits in ((("--n", "100000", "--k", "1:400"), 400 * 100000),
                           (("--n", "5793"), 5793 * 5793),
                           (("--n", "1000000000000", "--out", str(target)), 10**24)):
            code, out, err = run(capsys, "moments", *argv)
            shown = bits if bits < 2**64 else f"at least 2^{bits.bit_length() - 1}"
            assert (code, out) == (3, "")
            assert err == f"cap exceeded: moments table row bits needs {shown}, exceeding the cap of {1 << 25}\n"
        assert not target.exists()


class TestBound:
    @pytest.mark.parametrize(
        "argv, stdout_sha256",
        [
            (("--n", "10", "--k", "1"), "22402df0a42790770d759bd21a41a06e581b1e0acc1930a3de20c9125e948124"),
            (("--n", "100", "--k", "3"), "d5ab217e723e04b2e6536ae3f2390a68c9896b6335e91f92c0031897b5f08dac"),
            (("--n", "2000", "--k", "2"), "a0d56e8876ac936a657ffb265c2ffeb15a2418808cc9f56cde8de19e68a60191"),
            (("--n", "1000000", "--k", "5"), "ef38f5b8f8741714b6260b3ff4e68c823fd6e3c87b907fdf7c68c2033c7f4fd5"),
        ],
    )
    def test_output_is_pinned(self, capsys, argv, stdout_sha256):
        # the exact moment sums and every printed float
        code, out, _ = run(capsys, "bound", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256

    def test_huge_n_answers_at_once(self, capsys):
        # every ingredient stays k bits wide, so only the float variance limits n
        start = time.perf_counter()
        code, out, _ = run(capsys, "bound", "--n", "1000000000000", "--k", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "45da1cd2a39ae64e84b57ab998d605cf181162244f36de08de968681476296ac"
        )

    def test_variance_past_a_float_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "1" + "0" * 400, "--k", "1")
        assert (code, out) == (1, "")
        assert err == "usage error: integer division result too large for a float\n"


class TestClt:
    def test_histogram_to_file(self, capsys, tmp_path):
        target = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "clt", "--n", "50", "--k", "2", "--samples", "3000", "--seed", "4",
            "--out", str(target),
        )
        assert code == 0
        assert kv(out)["out"] == str(target)
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0] == ["z_lo", "z_hi", "count"]
        assert sum(int(r[2]) for r in rows[1:]) == 3000

    @pytest.mark.parametrize("where", ["missing/hist.csv", ".", DEV_FULL])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        code, out, err = run(
            capsys, "clt", "--n", "5", "--k", "2", "--samples", "2", "--out", str(tmp_path / where),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_histogram_csv_to_stdout(self, capsys):
        code, out, err = run(
            capsys, "clt", "--n", "50", "--k", "1", "--samples", "2000", "--seed", "4",
            "--format", "csv",
        )
        assert code == 0
        assert "command=clt" in err  # metadata moves to stderr
        assert kv(err)["stream"] == str(CLT_STREAM_VERSION)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["z_lo", "z_hi", "count"]
        assert sum(int(r[2]) for r in rows[1:]) == 2000

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "60", "--k", "1", "--seed", "-1"),
            ("--n", "60", "--k", "1", "--samples", "1"),
            ("--n", "60", "--k", "1", "--samples", "0"),
            ("--n", "60", "--k", "1", "--samples", "-5"),
            ("--n", "4", "--k", "2"),
            ("--n", "60", "--k", "0"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "clt", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1


    def test_sample_budget_is_a_cap_error(self, capsys):
        for samples in (2**31, 2**62):
            code, out, err = run(capsys, "clt", "--n", "10", "--k", "1", "--samples", str(samples))
            assert code == 3
            assert out == ""
            assert err.startswith("cap exceeded: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "k, stdout_sha256, stats",
        [
            (1, "c966af2a6e2cbb62cc0e9a0e2a6f80a77787630adcb23a42207d48a24fb63894",
             ["emp_mean=500.652", "emp_var=627.642", "ks_stat=0.00918741"]),
            (2, "05f6695c4f82b88a2a3e1eaf8781450702fbb2b003e4eeb2a94fcf5a67b86454",
             ["emp_mean=250.094", "emp_var=221.101", "ks_stat=0.0188948"]),
            (3, "345e3c75f9747528eba08a669f491180e11ef2e2595258a7cebbf719b60c72cf",
             ["emp_mean=125.05", "emp_var=101.589", "ks_stat=0.0232743"]),
        ],
    )
    def test_published_run_is_pinned(self, capsys, k, stdout_sha256, stats):
        # the paper's n = 2000, 10^5-draw run at seed 42 on stream 2
        code, out, err = run(
            capsys, "clt", "--n", "2000", "--k", str(k), "--samples", "100000", "--seed", "42",
            "--format", "csv",
        )
        assert code == 0
        assert kv(err)["stream"] == "2" == str(CLT_STREAM_VERSION)
        assert [ln for ln in err.splitlines() if ln.startswith(("emp_", "ks_"))] == stats
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


class TestSample:
    def test_seeded_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "sample", "b2:8", "--samples", "6", "--seed", "5")
        assert code == 0
        assert [ln for ln in out.splitlines() if "=" not in ln] == [
            "4,1,2,3,6,5,7,8",
            "4,1,2,3,6,5,7,8",
            "4,1,2,3,6,5,7,8",
            "8,1,2,3,4,5,6,7",
            "1,6,2,3,4,5,7,8",
            "2,1,5,3,4,6,8,7",
        ]

    def test_negative_sample_count_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "b2:5", "--samples", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_negative_seed_is_usage_error(self, capsys):
        # random.Random(-5) draws what random.Random(5) draws
        code, out, err = run(capsys, "sample", "b2:12", "--samples", "2", "--seed", "-5")
        assert code == 1
        assert out == ""
        assert err == "usage error: need --seed >= 0, got -5\n"

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = run(capsys, "sample", "b2:10", "--samples", "3", "--seed", "1")
        _, out2, _ = run(capsys, "sample", "b2:10", "--samples", "3", "--seed", "2")
        lines1 = [ln for ln in out1.splitlines() if "=" not in ln]
        lines2 = [ln for ln in out2.splitlines() if "=" not in ln]
        assert lines1 != lines2


class TestCompose:
    def test_inverse_pair(self, capsys):
        _, out, _ = run(capsys, "compose", "to-perm", "2,2,3")
        perm_text = out.splitlines()[-1]
        _, out, _ = run(capsys, "compose", "to-comp", perm_text)
        assert out.splitlines()[-1] == "2,2,3"

    def test_rejects_non_subdiagonal_input(self, capsys):
        code, _, err = run(capsys, "compose", "to-comp", "3,2,1")
        assert code == 1
        assert "one-subdiagonal" in err

    def test_rejects_malformed_input(self, capsys):
        code, _, err = run(capsys, "compose", "to-perm", "1,x")
        assert code == 1
        assert "usage error" in err

    def test_to_perm_output_is_capped(self, capsys):
        code, out, err = run(capsys, "compose", "to-perm", "1000000000000")
        assert code == 3
        assert out == ""
        assert err.startswith("cap exceeded: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_bad_level_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "loose")
        assert code == 1
        assert "usage error" in err


class TestTopLevel:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--n", "3", "--k", "2"),
            ("bound", "--n", "10", "--k", "0"),
            ("count", "b2:0"),
            ("count", "br:0,3"),
            ("sample", "b2:0"),
            ("moments", "--n", "0"),
            ("moments", "--n", "5", "--k", "1:100000000000"),  # bounds checked before the range is built
            ("moments", "--n", "3", "--k="),
            ("compose", "to-perm", "0"),
            ("compose", "to-comp", "3,2,1"),
            ("count", "b2:3", "--method", "permanent", "--cap", "-1"),
            ("count", "b2:3", "--cap", "1"),
            ("bound", "--n", "1" + "0" * 400, "--k", "1"),
            ("clt", "--n", "60", "--k", "-1"),
            ("moments", "--n", "1", "--k=--"),  # argparse before 3.12 reads `--k=--` as []
            ("count", "--n", "6"),  # the restriction is a spec, not --n/--r
            ("moments", "--n", "3", "--out=--"),
        ],
    )
    def test_out_of_range_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


class TestOutputBytes:
    """Every subcommand's stdout, stderr and --out file, byte for byte: the
    metadata, the field order, each value's format and the stream it goes
    to.  The verify table's elapsed times are masked."""

    @pytest.mark.parametrize(
        "argv, stdout_sha256, stderr_sha256, out_sha256",
        [
            (("count", "b2:12"),
             "ef1bd910387c1f098fa3991e8bb5f4dbf6c35c7272bc2a7a395985c237d389e1", EMPTY_SHA256, None),
            (("count", "br:3,9", "--method", "permanent"),
             "557631e191ffa26534d7ff86ea8610cd28c8c1615ee4232d25682def88877dae", EMPTY_SHA256, None),
            (("moments", "--n", "10", "--k", "1:3"),
             "513353a23f62e5428def1555289a90d6fe2cb6199eab61c288acafde95324fec",
             "e3f5d8357df1bc498e0431ef65309976a34128f449609168131ab8e84becebf6", None),
            (("moments", "--n", "8", "--format", "kv"),
             "951a878acca7734f78145dc320a4f4552f13333ab5a7fcca898ae4e7da05ecc2", EMPTY_SHA256, None),
            (("moments", "--n", "6", "--format", "kv", "--out", "moments.csv"),
             "0fa60ea09e442b6cd4469c037f2f62e3725a2f4f9ccb6a3c096866dd2447c65a", EMPTY_SHA256,
             "60986a63dd9fab35c180d8d3f1d3395edca0fe044ef5c6d96c2676ef1fa6721e"),
            (("bound", "--n", "10", "--k", "1"),
             "22402df0a42790770d759bd21a41a06e581b1e0acc1930a3de20c9125e948124", EMPTY_SHA256, None),
            (("clt", "--n", "60", "--k", "1", "--samples", "4000", "--seed", "9"),
             "a3a1977decf79acb214fb6d523be98326f18e5ccf2398f0b41dd01d849bd39f9", EMPTY_SHA256, None),
            (("clt", "--n", "50", "--k", "2", "--samples", "3000", "--seed", "4", "--format", "csv"),
             "f0bc9bbd1737503d5d20738b190fb883da15b8219b48a40ebd24bb7cf0bb6d3c",
             "c06f73aa13543f7bd68428c0f906ae6a946888d8db1f4d55c670327435e5dbfa", None),
            (("clt", "--n", "50", "--k", "2", "--samples", "3000", "--seed", "4", "--format", "csv",
              "--out", "hist.csv"),
             "16122df6efc84a001c47c91a0c44b0d24e226ecf3c235ec965c54972d6bb340c", EMPTY_SHA256,
             "f0bc9bbd1737503d5d20738b190fb883da15b8219b48a40ebd24bb7cf0bb6d3c"),
            (("sample", "b2:8", "--samples", "5", "--seed", "17"),
             "9c2d838fdaae6ad3da025c930635f24cda04dbaa282fa03edd5727a7a079ebb9", EMPTY_SHA256, None),
            (("compose", "to-comp", "1,4,2,3,5,10,6,7,8,9"),
             "c76aa28956e0ff448834a8dc037ed723eaa409faf91256e3eeabcf9770b52b90", EMPTY_SHA256, None),
            (("compose", "to-perm", "1,3,1,5"),
             "b3dba8e4abdeb27e966a13d08b5f37daea62403903f42084634955a231b7f6db", EMPTY_SHA256, None),
            (("verify", "quick"),
             "be6cdbe9a0bbf62710b373b017dffa60100093785745af1da9ff1b93ac419361", EMPTY_SHA256, None),
        ],
        ids=["count-product", "count-permanent", "moments-csv", "moments-kv", "moments-out", "bound",
             "clt-kv", "clt-csv", "clt-out", "sample", "compose-to-comp", "compose-to-perm", "verify-quick"],
    )
    def test_output_is_pinned(self, capsys, tmp_path, monkeypatch, argv, stdout_sha256, stderr_sha256, out_sha256):
        monkeypatch.chdir(tmp_path)  # --out names a relative path, so the args line is the same everywhere
        code, out, err = run(capsys, *argv)
        assert code == 0
        out = re.sub(r", \d+\.\d\ds\]", ", -s]", out)
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(err.encode()).hexdigest() == stderr_sha256
        if out_sha256 is not None:
            written = (tmp_path / argv[-1]).read_bytes()
            assert hashlib.sha256(written).hexdigest() == out_sha256


class TestClosedPipe:
    """A reader that stops early (`| head`) ends the output quietly: the
    command's own exit code and nothing more on stderr.  The child runs with
    Python's default block-buffered stdout, as from a shell."""

    @pytest.mark.parametrize(
        "argv, nbytes, stderr",
        [
            (("moments", "--n", "3000"), 100,  # the table goes to stdout, the metadata to stderr
             f"command=moments\nargs=moments --n 3000\nversion={__version__}\n"),
            (("sample", "b2:50", "--samples", "200000"), 100, ""),
            (("sample", "b2:50", "--samples", "10"), 0, ""),  # all of it still buffered when the pipe closes
        ],
        ids=["moments", "sample", "sample-buffered"],
    )
    def test_reader_that_stops_early(self, argv, nbytes, stderr):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(bregperm.__file__).resolve().parents[1]),
                                                          env.get("PYTHONPATH"))))
        proc = subprocess.Popen([sys.executable, "-m", "bregperm.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.read(nbytes)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, stderr)


class TestParserReuse:
    """main() builds its parser once per process; a reused parser must
    answer every call, errors and --help included, as a fresh one does."""

    SEQUENCE = (
        ("clt", "--n", "60"),  # a parser-level usage error
        ("--help",),
        ("count", "b2:5"),
        ("clt", "--n", "2000", "--k", "1", "--samples", "100000", "--seed", "42", "--format", "csv"),
    )

    @staticmethod
    def outcome(capsys, argv) -> tuple[object, str, str]:
        try:
            code: object = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self):
        from bregperm.cli import build_parser

        assert build_parser() is build_parser()

    def test_reused_parser_matches_a_first_call(self, capsys):
        from bregperm.cli import build_parser

        first = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            first.append(self.outcome(capsys, argv))
        assert [code for code, _, _ in first] == [1, ("exit", 0), 0, 0]
        for _ in range(2):  # the second pass starts from a parser that served the whole sequence
            assert [self.outcome(capsys, argv) for argv in self.SEQUENCE] == first


def int_lists(lo: int, hi: int, max_size: int) -> st.SearchStrategy[str]:
    """Comma-joined lists of integers in [lo, hi], possibly empty."""
    return st.lists(st.integers(lo, hi), max_size=max_size).map(lambda v: ",".join(map(str, v)))


class TestArgvProperty:
    """Any argv of these shapes ends in exit 0, 1 or 3 without a traceback;
    a nonzero exit prints nothing on stdout and one line on stderr.  Sizes
    are drawn small or past the library's caps, which refuse before any
    work, so every example is fast; sizes admitted but slow are not drawn."""

    @staticmethod
    def check(argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), (argv, code)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), method=st.sampled_from(["product", "permanent", "enumerate"]))
    def test_count(self, data, method):
        top = 8 if method == "enumerate" else 12
        # the first size refused: 11! enumeration terms, 26 * 2^26 Ryser steps
        refused = {"product": top + 1, "enumerate": 11, "permanent": 26}[method]
        n = data.draw(st.integers(-1, top) | st.integers(refused, 10**5))
        spec = data.draw(st.one_of(
            st.sampled_from([f"b2:{n}", f"b3:{n}", f"b2:{n}x", "br:3"]),
            st.integers(-1, 4).map(lambda r: f"br:{r},{n}"),
            int_lists(-1, top, top),
        ))
        self.check(["count", spec, "--method", method])

    @settings(deadline=None, max_examples=80)
    @given(direction=st.sampled_from(["to-comp", "to-perm"]),
           text=st.one_of(int_lists(-2, 12, 10), int_lists(-2, 10**15, 4), st.text("0123456789,x", max_size=8)))
    def test_compose(self, direction, text):
        self.check(["compose", direction, text])

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(-2, 40), k=st.one_of(st.none(), st.text("0123456789:,-", max_size=6)),
           fmt=st.sampled_from(["csv", "kv"]))
    def test_moments(self, n, k, fmt):
        argv = ["moments", "--n", str(n), "--format", fmt]
        if k is not None:
            argv += [f"--k={k}"]
        self.check(argv)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(-2, 60), k=st.integers(-2, 30))
    def test_bound(self, n, k):
        self.check(["bound", "--n", str(n), "--k", str(k)])

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(-2, 60), k=st.integers(-2, 30),
           samples=st.integers(-2, 50) | st.integers(2**27 + 1, 2**62),  # 2^27 draws of 2 words fill the budget
           seed=st.integers(-3, 3), fmt=st.sampled_from(["csv", "kv"]))
    def test_clt(self, n, k, samples, seed, fmt):
        self.check(["clt", "--n", str(n), "--k", str(k), "--samples", str(samples),
                    "--seed", str(seed), "--format", fmt])

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), samples=st.integers(-2, 50), seed=st.integers(-3, 3))
    def test_sample(self, data, samples, seed):
        n = data.draw(st.integers(-1, 8))
        spec = data.draw(st.one_of(
            st.sampled_from([f"b2:{n}", f"b3:{n}", f"b2:{n}x", "br:3"]),
            st.integers(-1, 4).map(lambda r: f"br:{r},{n}"),
            int_lists(-1, 8, 8),
        ))
        self.check(["sample", spec, "--samples", str(samples), "--seed", str(seed)])
