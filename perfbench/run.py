"""Benchmark entry point: one run of one workload, reported as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each run starts a fresh child process
(``workloads.py``) with ``PYTHONHASHSEED`` pinned and the library taken
from ``src``, so module-level caches start empty and ``ru_maxrss`` is the
run's own.  Only one child runs at a time.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  Their times are rescaled by the speed probe (``speed.py``) to
seconds at its nominal speed; the line before the result gives them
unscaled too, with the mean scale factor.  With ``--trace 1`` the run
makes one untraced and one traced child run of the same inputs, each for
half of ``--seconds``, and reports the per-layer metrics, plus the tracing
overhead between the two; layer times are not rescaled.  The line before
the result also records the sample counts, the Python version, the CPU
count and the load average.  The exit code is 1 when a verdict check failed, 2 on bad arguments or a
missing library, and 3 when a child run produced no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170


def child_run(args, traced: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="src",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / 2 if args.trace else args.seconds)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("benchmark child exceeded the run deadline", file=sys.stderr)
        raise SystemExit(3) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"benchmark child failed with exit code {proc.returncode}",
              file=sys.stderr)
        raise SystemExit(3)
    return json.loads(lines[-1])


def rescaled(res: dict) -> dict:
    """The run's per-batch and per-model times at the probe's nominal
    speed: each batch's times times NOMINAL_S over the mean of the speed
    probes taken during that batch (see ``speed.py``)."""
    scale = [NOMINAL_S / statistics.fmean(p) for p in res["probe_s"]]
    return {
        "batch_s": [t * k for t, k in zip(res["batch_s"], scale)],
        "load_s": [t * k for t, k in zip(res["load_s"], scale)],
        "model_s": [t * k for ts, k in zip(res["model_s"], scale)
                    for t in ts],
        "scale": statistics.fmean(scale),
    }


def end_to_end(res: dict) -> dict:
    """Per-batch figures are averaged over the run's batches, and the
    per-model quantiles are taken over all of its models (at least 100),
    so their 90th percentile has at least ten samples beyond it."""
    deciles = statistics.quantiles(res["model_s"], n=10, method="inclusive")
    return {
        "total_s": (statistics.fmean(res["batch_s"]), "s"),
        "setup_s": (statistics.median(res["load_s"]), "s"),
        "model_s.p50": (deciles[4], "s"),
        "model_s.p90": (deciles[8], "s"),
    }


def environment() -> dict:
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": load}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="contextuality benchmark run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "contextuality", "__init__.py")):
        print("run from the repository root: src/contextuality is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env_before = environment()
    plain = child_run(args, False, deadline)
    runs = [plain]
    scaled = rescaled(plain)
    metrics = end_to_end(scaled)
    metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
    raw = end_to_end({"batch_s": plain["batch_s"], "load_s": plain["load_s"],
                      "model_s": [t for ts in plain["model_s"] for t in ts]})
    if args.trace:
        traced = child_run(args, True, deadline)
        runs.append(traced)
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        # Both children draw the same batches in the same order; compare
        # the ones both ran, so the draw's cost does not enter.
        on, off = rescaled(traced)["batch_s"], scaled["batch_s"]
        common = min(len(on), len(off))
        metrics["trace.overhead_frac"] = (
            sum(on[:common]) / sum(off[:common]) - 1, "ratio")
        metrics["trace.coverage_frac"] = (
            traced["traced_top_s"] / sum(traced["batch_s"]), "ratio")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = {
        "workload": args.workload, "seed": args.seed,
        "batches": [r["batches"] for r in runs],
        "models": [sum(map(len, r["model_s"])) for r in runs],
        "failed_frac": failed / attempted,
        "scale": scaled["scale"],
        "unscaled": {k: v for k, (v, _unit) in raw.items()},
        "problems": [p for r in runs for p in r["problems"]],
        "digest_batches": [r["digest_batches"] for r in runs],
        "env": env_before,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
