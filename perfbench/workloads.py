"""The benchmark's four workloads.

Each workload turns (seed, op index) into the inputs of one op, runs the op
through bregperm's public API or CLI, checks the output outside the timed
region, and renders the op's exact results as one line of the run's digest.
Ops call library functions through their module attribute at call time, so
the tracer's wrappers take effect once installed.

Index -1 is the untimed warm-up op; timed ops use 0, 1, 2, ...  Op types
come in blocks that hold every type in fixed shares, in a seeded order, so
a run's cost mix does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from bregperm import bijection, bregular, cli, core, cycindex, permanent
from bregperm.core import RestrictionVector

WARMUP = -1


class CheckFailed(Exception):
    """An op's output disagrees with an independent expectation."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _slot(seed: int, name: str, pattern: tuple, index: int) -> tuple[object, int]:
    """Op type of op `index`, and how many ops of that type came before it."""
    block, pos = divmod(index, len(pattern))
    order = list(pattern)
    _rng(name, seed, "block", block).shuffle(order)
    kind = order[pos]
    return kind, block * pattern.count(kind) + order[:pos].count(kind)


def _fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Clt:
    """The paper's sampling run through the CLI, k cycling through 1, 2, 3."""

    name = "clt"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n = 200 if tiny else 2000
        # at least one sampler chunk (about 10^4 rows at n = 2000)
        self.samples = 500 if tiny else 10_000

    def inputs(self, index: int) -> tuple[int, int]:
        k = 2 if index == WARMUP else 1 + index % 3
        return k, _rng(self.name, self.seed, index).randrange(1 << 31)

    def run(self, inputs: tuple[int, int]) -> tuple[int, str, str]:
        k, op_seed = inputs
        argv = ["clt", "--n", str(self.n), "--k", str(k), "--samples", str(self.samples),
                "--seed", str(op_seed), "--format", "csv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _parse(self, output: tuple[int, str, str]) -> tuple[dict[str, str], int]:
        _, table, meta = output
        fields = dict(line.split("=", 1) for line in meta.splitlines() if "=" in line)
        rows = list(csv.reader(io.StringIO(table)))
        return fields, sum(int(row[2]) for row in rows[1:])

    def check(self, inputs: tuple[int, int], output: tuple[int, str, str]) -> None:
        k, _ = inputs
        _expect(output[0] == 0, f"clt exited {output[0]}")
        fields, total = self._parse(output)
        _expect(fields.get("mu") == _fraction(cycindex.mean_k_cycles(self.n, k)), f"mu {fields.get('mu')}")
        _expect(fields.get("sigma2") == _fraction(cycindex.variance_k_cycles(self.n, k)),
                f"sigma2 {fields.get('sigma2')}")
        _expect(total == self.samples, f"histogram holds {total} of {self.samples} samples")

    def exact(self, inputs: tuple[int, int], output: tuple[int, str, str]) -> str:
        fields, total = self._parse(output)
        return f"k={inputs[0]} seed={inputs[1]} mu={fields.get('mu')} sigma2={fields.get('sigma2')} total={total}"

    def info(self, done: list[tuple[tuple[int, int], tuple[int, str, str]]]) -> dict:
        """Pooled sample mean per k, as a z-score against the exact mean."""
        pooled: dict[int, list[float]] = {}
        for (k, _), output in done:
            pooled.setdefault(k, []).append(float(self._parse(output)[0]["emp_mean"]))
        z = {}
        for k, means in sorted(pooled.items()):
            mu = float(cycindex.mean_k_cycles(self.n, k))
            sd = float(cycindex.variance_k_cycles(self.n, k)) ** 0.5
            z[str(k)] = (sum(means) / len(means) - mu) / (sd / (self.samples * len(means)) ** 0.5)
        return {"pooled_mean_z": z}


class _Blocks:
    """Op types in blocks that hold every type of PATTERN in its fixed share,
    each block in a seeded order, so a run's cost mix does not depend on the
    seed.  `make(kind, seen, index)` builds the inputs of one op of a type."""

    name: str
    PATTERN: tuple[str, ...]
    WARMUP_KIND: str

    def inputs(self, index: int):
        if index == WARMUP:
            kind, seen = self.WARMUP_KIND, -1
        else:
            kind, seen = _slot(self.seed, self.name, self.PATTERN, index)
        return kind, self.make(kind, seen, index)


class Moments(_Blocks):
    """Exact k-cycle moments from the series, plus fixed-point moments of a b.

    Size classes "small", "medium" and "large" centre n on 90, 120 and 150.
    Within a class n takes nine values around the centre and k runs over
    1-4, so (n, k) repeats every 36 ops of the class; the size of b steps
    down by one each time, so whole inputs repeat only after 180.  Shares in
    tenths are 2, 4 and 4: in order of cost that puts the median inside
    "medium" and the tail inside "large".  b has size n // 2 and alternates
    between b2 and a random valid vector.
    """

    name = "moments"
    PATTERN = ("small",) * 2 + ("medium",) * 4 + ("large",) * 4
    WARMUP_KIND = "medium"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.centre = {"small": 12, "medium": 16, "large": 20} if tiny else {"small": 90, "medium": 120, "large": 150}
        self.offset = {kind: _rng(self.name, seed, "offset", kind).randrange(36) for kind in self.centre}

    def make(self, kind: str, seen: int, index: int) -> tuple[int, int, RestrictionVector]:
        cycle, pos = divmod(seen + self.offset[kind], 36)
        turn, step = divmod(pos, 9)
        n, k = self.centre[kind] - 4 + step, 1 + (step + turn) % 4
        size = n // 2 - cycle % 5
        if index % 2 == 0:
            b = RestrictionVector.b2(size)
        else:
            rng = _rng(self.name, self.seed, "b", index)
            entries = [1]
            for i in range(2, size + 1):
                entries.append(max(entries[-1], i - rng.randint(0, 3)))
            b = RestrictionVector(tuple(entries))
        return n, k, b

    def run(self, inputs):
        _, (n, k, b) = inputs
        mean = cycindex.extract_factorial_moment(n, k, 1)
        falling = cycindex.extract_factorial_moment(n, k, 2)
        return (mean, falling, falling + mean - mean * mean,
                bregular.fixed_point_mean(b), bregular.fixed_point_variance(b))

    def check(self, inputs, output) -> None:
        _, (n, k, b) = inputs
        mean, falling, variance, fp_mean, fp_var = output
        if cycindex.mean_formula_is_exact(n, k):
            _expect(mean == cycindex.mean_k_cycles(n, k), f"E[C] at n={n} k={k}")
        if cycindex.second_falling_formula_is_exact(n, k):
            _expect(falling == cycindex.second_falling_moment(n, k), f"E[C(C-1)] at n={n} k={k}")
            _expect(variance == cycindex.variance_k_cycles(n, k), f"Var C at n={n} k={k}")
        if b == RestrictionVector.b2(b.n):
            m1 = cycindex.extract_factorial_moment(b.n, 1, 1)
            m2 = cycindex.extract_factorial_moment(b.n, 1, 2)
            _expect(fp_mean == m1, f"fixed-point mean of b2({b.n})")
            _expect(fp_var == m2 + m1 - m1 * m1, f"fixed-point variance of b2({b.n})")

    def exact(self, inputs, output) -> str:
        kind, (n, k, b) = inputs
        values = " ".join(_fraction(q) for q in output)
        return f"{kind} n={n} k={k} b={','.join(map(str, b.entries))} {values}"


class Oracle(_Blocks):
    """Exhaustive enumeration with the bijection round trip, cycle-type
    tallies and the Ryser permanent, on seeded variants of b2 and br(3, n).

    Variants keep the family size of their type fixed, so every op of a type
    costs about the same: "br3" is br(3, 10) with two entries raised and
    two others lowered by one (10 368 members, no bijection); "b2" is b2(16)
    with two positions pinned to b_i = i and "b2-18" is b2(18) with four
    pinned (8 192 members each).  Shares in tenths are 3, 4 and 3: in order
    of cost that puts the median inside "b2" and the tail inside "b2-18",
    whose Ryser permanent has 2^18 - 1 subsets.
    """

    name = "oracle"
    PATTERN = ("br3",) * 3 + ("b2",) * 4 + ("b2-18",) * 3
    WARMUP_KIND = "b2"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        shapes = {"br3": 8, "b2": (8, 2), "b2-18": (10, 4)} if tiny else {"br3": 10, "b2": (16, 2), "b2-18": (18, 4)}
        self.variants = {}
        for kind, shape in shapes.items():
            found = self._br3_variants(shape) if kind == "br3" else self._pinned_b2(*shape)
            _rng(self.name, seed, "variants", kind).shuffle(found)
            self.variants[kind] = found

    @staticmethod
    def _pinned_b2(n: int, pins: int) -> list[RestrictionVector]:
        base = RestrictionVector.b2(n).entries
        return [
            RestrictionVector(tuple(i + 1 if i + 1 in pinned else v for i, v in enumerate(base)))
            for pinned in itertools.combinations(range(2, n + 1), pins)
        ]

    @staticmethod
    def _br3_variants(n: int) -> list[RestrictionVector]:
        base = RestrictionVector.br(3, n).entries
        out = []
        for ups in itertools.combinations(range(3, n + 1), 2):
            for downs in itertools.combinations(range(4, n + 1), 2):
                entries = list(base)
                for i in ups:
                    entries[i - 1] += 1
                for i in downs:
                    entries[i - 1] -= 1
                if not set(ups) & set(downs) and all(a <= b for a, b in zip(entries, entries[1:])):
                    out.append(RestrictionVector(tuple(entries)))
        return out

    def make(self, kind: str, seen: int, index: int) -> RestrictionVector:
        variants = self.variants[kind]
        return variants[seen % len(variants)]

    def run(self, inputs):
        kind, b = inputs
        size = mismatches = 0
        tally: Counter[int] = Counter()
        for p in bregular.enumerate_b_regular(b):
            size += 1
            if kind != "br3":
                q = bijection.composition_to_perm(bijection.perm_to_composition(p))
                mismatches += q != p
                p = q
            for length, mult in core.cycle_type(p).counts:
                tally[length] += mult
        ryser = permanent.permanent_ryser(core.matrix_from_vector(b))
        return size, mismatches, tuple(sorted(tally.items())), ryser

    def check(self, inputs, output) -> None:
        kind, b = inputs
        size, mismatches, tally, ryser = output
        n = b.n
        _expect(size == bregular.count_b_regular(b) == ryser, f"{kind} sizes {size} {ryser}")
        _expect(mismatches == 0, f"{mismatches} bijection round trips differ")
        _expect(sum(k * m for k, m in tally) == n * size, "cycle lengths do not sum to n")
        if kind != "br3":
            # pinned positions start a cycle, so the family is a product of
            # full staircases on the segments between them
            starts = [1] + [i for i in range(2, n + 1) if b[i] == i] + [n + 1]
            segments = [hi - lo for lo, hi in zip(starts, starts[1:])]
            expected = {
                k: sum(bijection.total_k_parts(m, k) * size // (1 << (m - 1)) for m in segments)
                for k in range(1, n + 1)
            }
            _expect(dict(tally) == {k: v for k, v in expected.items() if v}, f"{kind} k-part tallies")

    def exact(self, inputs, output) -> str:
        kind, b = inputs
        size, _, tally, ryser = output
        return f"{kind} b={','.join(map(str, b.entries))} size={size} ryser={ryser} tally={tally}"


class VerifyQuick:
    """`python -m bregperm.cli verify quick` in a fresh child per op."""

    name = "verify-quick"
    STATUS = re.compile(r"^(PASS|FAIL)  (.*)  \[(\d+) assertions, [0-9.]+s\]$")

    def __init__(self, seed: int, tiny: bool) -> None:
        self.root = Path(__file__).resolve().parent.parent
        self.trace_file: Path | None = None

    def inputs(self, index: int) -> int:
        return index  # the suite is deterministic and takes no input

    def run(self, inputs: int) -> tuple[int, str]:
        if self.trace_file is None:
            cmd = [sys.executable, "-m", "bregperm.cli", "verify", "quick"]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(self.trace_file),
                   "verify", "quick"]
        done = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    def _statuses(self, stdout: str) -> list[tuple[str, str, str]]:
        return [m.groups() for m in map(self.STATUS.match, stdout.splitlines()) if m]

    def check(self, inputs: int, output: tuple[int, str]) -> None:
        code, stdout = output
        _expect(code == 0, f"verify quick exited {code}")
        statuses = self._statuses(stdout)
        _expect(bool(statuses) and all(s[0] == "PASS" for s in statuses), "a check did not PASS")
        _expect(f"checks: {len(statuses)}/{len(statuses)} passed" in stdout, "summary line disagrees")

    def exact(self, inputs: int, output: tuple[int, str]) -> str:
        return f"code={output[0]} " + ";".join(" ".join(s) for s in self._statuses(output[1]))


WORKLOADS = {w.name: w for w in (Clt, Moments, Oracle, VerifyQuick)}
