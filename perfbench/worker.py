"""One workload process: set up, run the timed phase, check, report.

Usage: python worker.py WORKLOAD SEED SECONDS MODE [--tiny]

MODE is `probe` (set up, then exit), `timed` (one untraced phase of SECONDS)
or `traced` (an untraced phase of SECONDS/2, then a traced one of
SECONDS/2).  Set-up is `import bregperm`, input generation and one untimed
warm-up op; the worker prints `ready` when it is done, so the parent can time
set-up from process start.  In the other modes the last line printed is a
JSON report.
"""

from __future__ import annotations

import sys
from time import perf_counter

_start = perf_counter()
import bregperm  # noqa: E402,F401  (timed: import is part of set-up)

IMPORT_S = perf_counter() - _start

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import OP, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    index: int
    inputs: object
    output: object = None
    error: str | None = None
    latency: float = 0.0


@dataclass
class Phase:
    ops: list[Op]
    elapsed: float

    @property
    def ops_per_s(self) -> float:
        return sum(op.error is None for op in self.ops) / self.elapsed


def attempt(wl, index: int, tracer: Tracer | None = None) -> Op:
    op = Op(index, wl.inputs(index))
    if tracer is not None:
        tracer.op_id = index
        span = tracer.open(OP)
    start = perf_counter()
    try:
        op.output = wl.run(op.inputs)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        op.error = f"{type(exc).__name__}: {exc}"
    op.latency = perf_counter() - start
    if tracer is not None:
        tracer.close(span, op.error is not None)
        child_spans = getattr(wl, "trace_file", None)
        if child_spans is not None and child_spans.exists():
            tracer.merge(child_spans, span)
            child_spans.unlink()
    return op


def run_phase(wl, first: int, seconds: float, min_ops: int, tracer: Tracer | None = None) -> Phase:
    """Closed loop, one caller: each op starts when the previous one returns."""
    ops: list[Op] = []
    start = perf_counter()
    while True:
        ops.append(attempt(wl, first + len(ops), tracer))
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(ops) >= min_ops:
            return Phase(ops, elapsed)


def check(wl, op: Op) -> str | None:
    """Why the op failed, or None."""
    if op.error is not None:
        return op.error
    try:
        wl.check(op.inputs, op.output)
    except workloads.CheckFailed as exc:
        return f"check: {exc}"
    return None


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tiny = "--tiny" in argv[4:]
    wl = workloads.WORKLOADS[name](seed, tiny)
    warmup = attempt(wl, workloads.WARMUP)
    print("ready", flush=True)
    if mode == "probe":
        return 0  # the timed worker repeats this warm-up op and checks it

    min_ops = 3 if tiny else 11  # 11 ops leave ten beyond the tail percentile
    tracer = None
    if mode == "timed":
        phases = [run_phase(wl, 0, seconds, min_ops)]
    else:
        first = run_phase(wl, 0, seconds / 2, min_ops)
        OUT.mkdir(exist_ok=True)
        tracer = Tracer()
        tracer.import_s.append(IMPORT_S)
        tracer.install()
        if isinstance(wl, workloads.VerifyQuick):
            wl.trace_file = OUT / f"child-spans-{os.getpid()}.npz"
        try:
            second = run_phase(wl, len(first.ops), seconds / 2, min_ops, tracer)
        finally:
            tracer.uninstall()
        phases = [first, second]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    done = []
    for op in [warmup] + [op for phase in phases for op in phase.ops]:
        why = check(wl, op)
        if why is None:
            done.append((op.inputs, op.output))
        else:
            problems.append(f"op {op.index}: {why}")
    digest_ops = phases[0].ops[:min_ops]
    digest = hashlib.sha256()
    for op in digest_ops:
        digest.update(f"{op.index} {wl.exact(op.inputs, op.output) if op.error is None else op.error}\n".encode())

    attempted = 1 + sum(len(phase.ops) for phase in phases)
    report = {
        "import_s": IMPORT_S,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ops_per_s": [phase.ops_per_s for phase in phases],
        "latencies": [op.latency for op in phases[0].ops if op.error is None],
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:10],
        "digest": digest.hexdigest(),
        "digest_ops": len(digest_ops),
        "peak_rss_mb": peak_rss_mb,
        "info": wl.info(done) if hasattr(wl, "info") else {},
    }
    if tracer is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = [m["name"] for m in spec["per_layer"]]
        per_layer = layer_metrics(tracer, wanted, len(phases[1].ops))
        per_layer["trace_overhead"] = phases[0].ops_per_s / phases[1].ops_per_s
        per_layer["fail_ratio"] = len(problems) / attempted
        report["per_layer"] = {m: per_layer[m] for m in wanted}
        ops = {str(op.index): repr(op.inputs) for op in phases[1].ops}
        tracer.save(OUT / f"spans-{name}.npz", {"workload": name, "seed": seed, "ops": ops})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
