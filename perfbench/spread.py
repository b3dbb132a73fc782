"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads pauli-sweep,cycle-search \
        --seeds 1-10 [--seconds 45] [--trace 0|1] [--out FILE] \
        [--against EARLIER_FILE]

Run it from the repository root.  Runs are sequential, one ``run.py`` at
a time.  For each workload and metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, and with ``--out`` writes every value
to a JSON record together with the run environment.  With ``--against``
it also gives, for each workload and metric, the change of the median
from an earlier record's, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": wall, "info": info,
                         "result": result})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"correct={result['correct']}", file=sys.stderr)
        if not runs:
            continue
        names = list(runs[0]["result"]["metrics"])
        stats = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = dict(summary(values), values=values,
                               unit=runs[0]["result"]["metrics"][name]["unit"])
            s = stats[name]
            print(f"{workload:16s} {name:28s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.3f} values "
                  + " ".join(f"{v:.4g}" for v in values))
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                s["median_change"] = s["median"] / before["median"] - 1
                print(f"{workload:16s} {name:28s} median change against "
                      f"{args.against}: {s['median_change']:+.3f}")
        record["workloads"][workload] = {
            "metrics": stats,
            "wall_s": summary([r["wall_s"] for r in runs]),
            "runs": runs,
        }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
