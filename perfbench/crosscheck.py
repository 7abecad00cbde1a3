"""Put the traced runs' per-layer rates next to the ROADMAP Baseline rows.

Usage: python3 perfbench/crosscheck.py

Reads the span files the last `--trace 1` run of each workload left in
perfbench/out/ (and the verify-quick `--trace 0` records) and prints one
markdown row per Baseline row they overlap.  The Baseline figures are single
wall-clock runs with about +-20% noise, so a ratio outside 0.8-1.25 is
marked as a disagreement.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"
NOISE = (0.8, 1.25)


def load(workload: str):
    path = OUT / f"spans-{workload}.npz"
    if not path.exists():
        return None
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        cols = {key: data[key] for key in data.files if key != "meta"}
    cols["dur"] = cols["end"] - cols["start"]
    return meta, cols


def calls(spans, qualname: str):
    """(duration, info) of each call span of `qualname`."""
    meta, cols = spans
    nid = meta["names"].index(qualname)
    idx = np.flatnonzero((cols["name"] == nid) & (cols["kind"] == 0))
    return [(float(cols["dur"][i]), meta["info"].get(str(i))) for i in idx]


def rows():
    clt, moments, oracle = load("clt"), load("moments"), load("oracle")
    if clt:
        for k, base_s in ((1, 2.33), (2, 3.50), (3, 3.71)):
            got = [(d, info) for d, info in calls(clt, "stein.sample_k_part_counts") if info[1] == k]
            if got:
                base = 1e5 * 1999 / base_s
                rate = sum(info[2] * (info[0] - 1) for _, info in got) / sum(d for d, _ in got)
                yield (f"`sample_k_part_counts(2000, {k}, 10^5)` {base_s} s", "cut bits/s",
                       base, rate, f"{len(got)} calls of {got[0][1][2]} samples")
    if moments:
        got = [(d, info) for d, info in calls(moments, "cycindex.extract_factorial_moment") if info[1:] == [1, 2]]
        if got:
            per_n2 = sum(d for d, _ in got) / sum(info[0] ** 2 for _, info in got)
            ns = sorted(info[0] for _, info in got)
            for n, base_s in ((100, 0.18), (200, 0.68)):
                yield (f"`extract_factorial_moment({n}, 1, 2)` {base_s} s", "s, scaled as n^2",
                       base_s, per_n2 * n * n, f"{len(got)} calls, n {ns[0]}-{ns[-1]}")
        alpha = math.log2(0.43 / 0.07)
        got = [(d, info) for d, info in calls(moments, "bregular.fixed_point_variance") if info[1]]
        if got:
            predicted = sum(0.07 * (info[0] / 60) ** alpha for _, info in got)
            ns = sorted(info[0] for _, info in got)
            yield ("`fixed_point_variance(b2(n))`, n = 60/120: 0.07/0.43 s", f"s, scaled as n^{alpha:.2f}",
                   predicted, sum(d for d, _ in got), f"{len(got)} calls, n {ns[0]}-{ns[-1]}")
    if oracle:
        got = [d for d, info in calls(oracle, "permanent.permanent_ryser") if info[0] == 16]
        if got:
            yield ("`permanent_ryser(b2(16))` 0.039 s", "s per call", 0.039, statistics.median(got),
                   f"median of {len(got)} calls at n = 16")
        meta, cols = oracle
        nid = meta["names"].index("bregular.enumerate_b_regular")
        nexts = (cols["name"] == nid) & (cols["kind"] == 1)
        perms = float(np.nansum(cols["work"][nexts]))
        if perms:
            yield ("full pass of `enumerate_b_regular(b2(18))`: 131 072 perms in 0.90 s", "perms/s",
                   131072 / 0.90, perms / float(cols["dur"][nexts].sum()), "next() spans, families of n 10, 16 and 18")
    imports = [t for spans in (clt, moments, oracle) if spans for t in spans[0]["import_s"]]
    if imports:
        yield ("`import bregperm` 0.21 s", "s", 0.21, statistics.median(imports), f"median of {len(imports)} imports")
    p50 = [json.loads(p.read_text())["metrics"]["op_p50_s"] for p in OUT.glob("verify-quick-seed*-trace0.json")]
    if p50:
        yield ("`verify quick` via CLI 0.96 s", "s per run", 0.96, statistics.median(p50),
               f"median op_p50_s of {len(p50)} runs")


def main() -> None:
    print("| Baseline row | unit | Baseline | traced run | ratio | note |")
    print("|---|---|---|---|---|---|")
    for label, unit, base, got, note in rows():
        ratio = got / base
        flag = "" if NOISE[0] <= ratio <= NOISE[1] else " **outside noise**"
        print(f"| {label} | {unit} | {base:.4g} | {got:.4g} | {ratio:.2f}{flag} | {note} |")


if __name__ == "__main__":
    main()
