"""bregperm benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it runs the closed-loop timed phase in one fresh worker
process, times set-up in that worker and in fresh probe workers started
before and after it, and prints the end-to-end metrics.  With `--trace 1` one worker runs an untraced half and a traced half
and prints the per-layer metrics.  Either way the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A record of the
run goes to perfbench/out/.  The metric names and units are those in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 2  # set-up probes before and again after the timed worker, which also counts
DEADLINE_S = 170  # a run ends within this, or fails


class WorkerFailed(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one process measures one core's work
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def start_worker(args: argparse.Namespace, mode: str, env: dict[str, str]) -> tuple[float, str]:
    """Run one worker; return its set-up time and its stdout after `ready`."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds), mode]
    if args.tiny:
        cmd.append("--tiny")
    start = perf_counter()
    # its own process group, so a worker stopped early takes its children along
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(args.deadline - start, 0))
        line = proc.stdout.readline() if readable else ""
        setup_s = perf_counter() - start
        if line.strip() != "ready":
            raise WorkerFailed(f"{mode} worker did not get ready: {line!r}")
        rest, _ = proc.communicate(timeout=max(args.deadline - perf_counter(), 0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
    return setup_s, rest


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(args: argparse.Namespace, spec: dict) -> dict:
    env = worker_env()
    # write the byte-code caches before anything is timed
    subprocess.run([sys.executable, "-c", "import bregperm.cli"], cwd=ROOT, env=env, check=True, timeout=60)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        _, out = start_worker(args, "traced", env)
        report = json.loads(out.splitlines()[-1])
        values = report["per_layer"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        probes = 1 if args.tiny else PROBES
        setups = [start_worker(args, "probe", env)[0] for _ in range(probes)]
        setup_s, out = start_worker(args, "timed", env)
        setups.append(setup_s)
        # probes on both sides of the timed phase, so drift in CPU speed
        # over the run reaches the median from both ends
        setups += [start_worker(args, "probe", env)[0] for _ in range(probes)]
        report = json.loads(out.splitlines()[-1])
        op_tail_s, tail_pct = tail(report["latencies"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": report["ops_per_s"][0],
            "op_p50_s": statistics.median(report["latencies"]),
            "op_tail_s": op_tail_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        record.update(setups_s=setups, tail_percentile=tail_pct, timed_ops=len(report["latencies"]))
    record.update(
        machine={"nproc": os.cpu_count(), "python": report["python"], "numpy": report["numpy"], "git": git_sha()},
        metrics=values,
        **{key: report[key] for key in ("attempted", "failed", "problems", "digest", "digest_ops", "info")},
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    if not args.trace:
        print(f"tail: p{record['tail_percentile']:.1f} of {record['timed_ops']} timed ops")
    print(f"digest: {report['digest']} over the first {report['digest_ops']} ops")
    for problem in report["problems"]:
        print(f"failed: {problem}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "bregperm" / "__init__.py").is_file():
        print(f"no bregperm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    args.deadline = perf_counter() + DEADLINE_S
    try:
        result = measure(args, spec)
    except (WorkerFailed, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
