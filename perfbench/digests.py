"""Record the pauli-sweep verdict digests that benchmark runs check.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/digests.py \
        --seeds 1-10 --batches 20

Run it from the repository root, at the commit whose verdicts the digests
should pin.  It analyses batches 0 .. BATCHES-1 of every seed, untimed,
runs the workload's checks on each model and writes
``perfbench/pauli_digests.json``.  A benchmark run checks each of its
batches that the file covers and reports how many it did not cover; runs
with other seeds, or runs fast enough to fit more batches, are checked by
the cross-check invariants alone on the batches left over.  A batch whose
checks fail is not recorded: the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spread import seeds_of  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "pauli-sweep"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--batches", type=int, default=20)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("set PYTHONHASHSEED=0, as benchmark runs do", file=sys.stderr)
        return 2
    make_batch = workloads.WORKLOADS[WORKLOAD][0]
    digests = {}
    for seed in seeds_of(args.seeds):
        for batch in range(args.batches):
            docs = make_batch(workloads.batch_rng(WORKLOAD, seed, batch))
            res = workloads.run_batch(WORKLOAD, docs)
            if res["problems"]:
                print(f"seed {seed} batch {batch}: {res['problems'][:3]}",
                      file=sys.stderr)
                return 1
            digests[f"{seed}/{batch}"] = res["digest"]
        print(f"seed {seed}: {args.batches} batches", file=sys.stderr)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "batches": args.batches,
                   "digests": digests}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
