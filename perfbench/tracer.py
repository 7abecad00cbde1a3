"""Spans around the calls into bregperm's eight modules, and the per-layer
metrics computed from them.

`Tracer.install()` replaces every public function of each module, at every
module attribute that binds it (so both `bregperm.stein.mean_k_cycles` and
`bregperm.cycindex.mean_k_cycles`), with a wrapper that records one span per
call.  Calls between layers therefore nest as child spans.  A function that
returns a generator gets one span per `next()` call as well.  Spans live in
flat arrays while the run lasts and are written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import re
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import GeneratorType

import numpy as np

MODULES = ("cli", "core", "permanent", "bregular", "bijection", "cycindex", "stein", "verify")

OP_SPAN = "bench.op"
OP = 0  # name id of OP_SPAN, the span around one benchmark op
CALL, NEXT = 0, 1

# Functions whose spans count work units; the hook sees the bound arguments
# and the result and returns (work, info), info being kept beside the span.


def _sampler(a, result):
    return a["samples"] * (a["n"] - 1), [a["n"], a["k"], a["samples"]]


def _ryser(a, result):
    n = a["m"].n
    return (1 << n) - 1, [n]


def _series(a, result):
    return math.nan, [a["n"], a["k"], a["m"]]


def _fixed_point(a, result):
    b = a["b"].entries
    return math.nan, [len(b), b == (1,) + tuple(range(1, len(b)))]


def _checks(a, result):
    return len(result), [[r.name, r.elapsed, r.passed] for r in result]


HOOKS = {
    "stein.sample_k_part_counts": _sampler,
    "permanent.permanent_ryser": _ryser,
    "cycindex.extract_factorial_moment": _series,
    "bregular.fixed_point_variance": _fixed_point,
    "verify.run_checks": _checks,
}

# Per-layer names that stand for several functions at once.
GROUPS = {
    "cycindex.closed_forms": (
        "cycindex.mean_k_cycles",
        "cycindex.second_falling_moment",
        "cycindex.variance_k_cycles",
    ),
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.name = array("i")
        self.kind = array("b")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.error = array("b")
        self.info: dict[int, object] = {}
        self.import_s: list[float] = []
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, kind: int = CALL) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.work.append(math.nan)
        self.error.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    def _wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, True)
                raise
            tracer.close(idx, False)
            if hook is not None:
                work, tracer.info[idx] = hook(signature.bind(*args, **kwargs).arguments, result)
                tracer.work[idx] = work
            if isinstance(result, GeneratorType):
                return _TracedGenerator(tracer, nid, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the eight modules wherever bound."""
        modules = {m: importlib.import_module(f"bregperm.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for module in (sys.modules["bregperm"], *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "kind": np.array(self.kind, dtype=np.int8),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.float64),
            "error": np.array(self.error, dtype=np.int8),
        }

    def save(self, path: Path, extra: dict | None = None) -> None:
        meta = {
            "names": self.names,
            "info": {str(k): v for k, v in self.info.items()},
            "import_s": self.import_s,
            **(extra or {}),
        }
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **self.arrays())

    def merge(self, path: Path, parent_idx: int) -> None:
        """Append the spans a child process saved, its roots under `parent_idx`."""
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            cols = {key: data[key] for key in data.files if key != "meta"}
        ids = [self._intern(name) for name in meta["names"]]
        base = len(self.name)
        parent = cols["parent"]
        self.name.extend(ids[i] for i in cols["name"])
        self.kind.extend(int(v) for v in cols["kind"])
        self.parent.extend(int(p) + base if p >= 0 else parent_idx for p in parent)
        self.op.extend([int(self.op[parent_idx])] * len(parent))
        for key in ("start", "end", "work"):
            getattr(self, key).extend(float(v) for v in cols[key])
        self.error.extend(int(v) for v in cols["error"])
        self.info.update({int(k) + base: v for k, v in meta["info"].items()})
        self.import_s.extend(meta["import_s"])


class _TracedGenerator:
    """Times each `next()` of a generator a wrapped function returned."""

    def __init__(self, tracer: Tracer, nid: int, gen) -> None:
        self._tracer = tracer
        self._nid = nid
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.open(self._nid, NEXT)
        try:
            item = next(self._gen)
        except StopIteration:
            tracer.close(idx, False)
            tracer.work[idx] = 0.0
            raise
        except BaseException:
            tracer.close(idx, True)
            raise
        tracer.close(idx, False)
        tracer.work[idx] = 1.0
        return item


def check_slug(name: str) -> str:
    """`"core: restriction matrices"` -> `"core_restriction_matrices"`."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def layer_metrics(tracer: Tracer, wanted: list[str], ops: int) -> dict[str, float]:
    """Evaluate the per-layer metric names in `wanted` over the recorded spans.

    Times and counts are per traced op (totals divided by `ops`); rates are
    work units per busy second.  Names the spans never touched read 0.
    """
    s = tracer.arrays()
    names = tracer.names
    dur = s["end"] - s["start"]
    parent = s["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    module_of = np.array([n.split(".", 1)[0] for n in names])[s["name"]]
    calls = s["kind"] == CALL

    def members(qualnames) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n in qualnames]
        return np.isin(s["name"], ids)

    def busy(mask: np.ndarray) -> float:
        """Wall time some span in `mask` is open, nested ones counted once."""
        outer = mask.copy()
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            outer[live] &= ~mask[anc[live]]
            anc[live] = parent[anc[live]]
        return float(dur[outer].sum())

    checks: dict[str, list[float]] = {}
    run_checks = tracer._ids.get("verify.run_checks")
    for idx, value in tracer.info.items():
        if s["name"][idx] == run_checks:
            for check_name, elapsed, _ in value:
                checks.setdefault(check_slug(check_name), []).append(elapsed)

    per_op = 1.0 / max(ops, 1)
    out: dict[str, float] = {}
    for metric in wanted:
        head, _, stat = metric.rpartition(".")
        if metric == "import.bregperm_s":
            out[metric] = statistics.median(tracer.import_s) if tracer.import_s else 0.0
        elif head.startswith("verify.check."):
            times = checks.get(head[len("verify.check."):], [])
            out[metric] = statistics.median(times) if times else 0.0
        else:
            mask = module_of == head if head in MODULES else members(GROUPS.get(head, (head,)))
            if stat == "self_s":
                out[metric] = float(self_time[mask].sum()) * per_op
            elif stat == "calls":
                out[metric] = float((mask & calls).sum()) * per_op
            elif stat == "errors":
                out[metric] = float(s["error"][mask].sum()) * per_op
            elif stat == "busy_s":
                out[metric] = busy(mask) * per_op
            elif stat.endswith("_per_s"):
                seconds = busy(mask)
                out[metric] = float(np.nansum(s["work"][mask]) / seconds) if seconds > 0 else 0.0
        if metric not in out and metric not in ("trace_overhead", "fail_ratio"):
            raise ValueError(f"no rule computes the per-layer metric {metric!r}")
    return out
