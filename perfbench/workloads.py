"""One benchmark run of one workload, in the current process.

Run as ``python3 perfbench/workloads.py --workload NAME --seed N
--seconds S [--trace]`` with the library on ``PYTHONPATH``; ``run.py``
starts it in a fresh child process.  It prints one JSON object with the
raw samples of the run: per-batch, per-model and per-batch load times,
the attempted and failed operation counts, and with ``--trace`` the
per-layer spans and counters.

A batch is the workload's full problem: its documents, each taken from
``loads_model`` to its last verdict.  Batches repeat, with fresh seeded
draws, while another one fits in ``--seconds``; there is always at least
one.  Verdict checks run between models, outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

import contextuality as ctx  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "pauli_digests.json")

PAULI_CAP = 40
PAULI_MODELS = 100
CYCLES_PER_BATCH = 100
CYCLE_SIZES = (16, 40)
CHAIN_LENGTH = 200
# Fixed 48-cycle in every batch: 131 sections; one pinned search takes
# almost all of its ~1.4 s classification.  The ~7 s instance of the
# ROADMAP row is too long for a batch and runs in the scale probe.
SLOW_CYCLE_SEED = 20


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def batch_rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{batch}")


def section_count(model) -> int:
    return sum(len(s) for s in model.sections)


# --- analyses: document -> verdicts (timed) ------------------------------

def analyze_crosscheck(structured):
    model = structured.model
    return {
        "class": ctx.classify(model),
        "avn": ctx.is_avn(model),
        "report": ctx.cross_check_obstructions(structured),
    }


def analyze_cycle(model):
    verdict = ctx.classify(model)
    avn = ctx.is_avn(model)
    if verdict.kind == "strongly_contextual":
        queries = [(ci, s) for ci, secs in enumerate(model.sections)
                   for s in secs]
    else:
        queries = list(verdict.witnesses)
    routes = [(ci, s, ctx.cech_obstruction_vanishes(model, ci, s),
               ctx.connecting_cocycle(model, ci, s))
              for ci, s in queries]
    return {"class": verdict, "avn": avn, "routes": routes}


# --- checks (untimed) ------------------------------------------------------

def pauli_verdict_digest(out) -> str:
    rows = [(r.context_index, int(r.cech_vanishes), int(r.group_vanishes))
            for r in out["report"].rows]
    text = json.dumps([out["class"].kind, out["avn"].avn, rows])
    return hashlib.sha256(text.encode()).hexdigest()


def check_pauli(_doc, structured, out):
    model = structured.model
    report = out["report"]
    verdict = out["class"]
    expect(report.consistent, "cross-check is inconsistent")
    expect(len(report.rows) == section_count(model),
           "cross-check skipped sections")
    if out["avn"].avn:
        expect(verdict.kind == "strongly_contextual",
               "AvN model is not strongly contextual")
        expect(not any(r.cech_vanishes for r in report.rows),
               "AvN model with a vanishing Cech class")
    if verdict.kind != "strongly_contextual":
        blocked = {(ci, s) for ci, s in verdict.witnesses}
        for r in report.rows:
            if (r.context_index, r.section) not in blocked:
                expect(r.cech_vanishes and r.group_vanishes,
                       "an extendable section is obstructed")


def check_cycle(doc, model, out):
    kind, witnesses = oracle.classify_pair_cover(doc)
    verdict = out["class"]
    expect(verdict.kind == kind,
           f"classify says {verdict.kind}, the oracle {kind}")
    got = sorted((ci, [s[x] for x in model.scenario.contexts[ci]])
                 for ci, s in verdict.witnesses)
    expect(got == witnesses, "witness set differs from the oracle")
    data = json.loads(doc)
    parities = []
    for ci, c in enumerate(data["contexts"]):
        rows = data["sections"][str(ci)]
        if len(rows) == 2 and len({(a + b) % 2 for a, b in rows}) == 1:
            parities.append((c, (rows[0][0] + rows[0][1]) % 2))
    for ci, s, r1, r2 in out["routes"]:
        expect(r1.vanishes == r2.vanishes, "Cech routes disagree")
        if out["avn"].avn:
            expect(not r1.vanishes, "AvN model with a vanishing Cech class")
        if r1.vanishes:
            g = ctx.collapse_family(model, r1.family)
            expect(all(g[x] == s[x] for x in model.scenario.contexts[ci]),
                   "collapsed family does not extend the section")
            expect(all((g[a] + g[b]) % 2 == p for (a, b), p in parities),
                   "collapsed family breaks a functional edge")


# --- workloads: seeded batches of documents -------------------------------

def pauli_batch(rng):
    return gen.pauli_sweep_documents(rng, PAULI_MODELS, PAULI_CAP)


def cycle_batch(rng):
    """Fixed mix, seeded edges.  Sizes spread evenly over CYCLE_SIZES.
    One cycle in three is a pure parity cycle, odd and even in turn; the
    rest are functional with n // 7 three-element edges and one full edge
    (Hardy-like), half of them planted.  The order is shuffled."""
    lo, hi = CYCLE_SIZES
    docs = []
    for k in range(CYCLES_PER_BATCH):
        n = lo + k * (hi - lo + 1) // CYCLES_PER_BATCH
        if k % 3 == 0:
            docs.append(gen.parity_cycle_document(rng, n, k % 6 == 0))
        else:
            docs.append(gen.hardy_cycle_document(rng, n, n // 7,
                                                 k % 3 == 1))
    rng.shuffle(docs)
    docs.append(gen.chain_document(rng, CHAIN_LENGTH))
    docs.append(gen.slow_cycle_document(SLOW_CYCLE_SEED))
    return docs


WORKLOADS = {
    "pauli-sweep": (pauli_batch, analyze_crosscheck, check_pauli),
    "cycle-search": (cycle_batch, analyze_cycle, check_cycle),
}


def load_digests() -> dict:
    """Committed pauli-sweep verdict digests, keyed "seed/batch".  They
    cover the seeds and batches listed in the file; a run reports how
    many of its batches they covered."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run_batch(workload: str, docs, clock=time.perf_counter,
              probe_every: float | None = None) -> dict:
    """Analyse one batch: per-model times (timed), checks (untimed) and,
    with ``probe_every``, speed probes between models (untimed): one
    before the first model and then one whenever that many seconds have
    passed since the last."""
    _make, analyze, check = WORKLOADS[workload]
    model_s, load_s, problems, probe_s = [], 0.0, [], []
    digest = hashlib.sha256()
    last_probe = None
    for doc in docs:
        if probe_every is not None and (
                last_probe is None or clock() - last_probe >= probe_every):
            probe_s.append(speed.probe(clock))
            last_probe = clock()
        t0 = clock()
        try:
            model = ctx.loads_model(doc)
            t1 = clock()
            out = analyze(model)
            t2 = clock()
        except Exception as exc:  # an operation that raises has failed
            problems.append(f"{type(exc).__name__}: {exc}"[:300])
            continue
        model_s.append(t2 - t0)
        load_s += t1 - t0
        try:
            check(doc, model, out)
            if workload == "pauli-sweep":
                digest.update(pauli_verdict_digest(out).encode())
        except CheckFailed as exc:
            problems.append(str(exc))
    return {"model_s": model_s, "load_s": load_s, "problems": problems,
            "digest": digest.hexdigest()[:16], "probe_s": probe_s}


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    make_batch = WORKLOADS[workload][0]
    digests = load_digests() if workload == "pauli-sweep" else {}
    clock = time.perf_counter
    batch_s, model_s, load_s, probe_s = [], [], [], []
    attempted = failed = 0
    problems = []
    checked = unchecked = 0
    began = clock()
    batch = 0
    while True:
        docs = make_batch(batch_rng(workload, seed, batch))
        res = run_batch(workload, docs, clock, speed.EVERY_S)
        batch_failed = len(res["problems"])  # at most one per model
        key = f"{seed}/{batch}"
        if workload == "pauli-sweep" and key not in digests:
            unchecked += 1
        elif workload == "pauli-sweep":
            checked += 1
            if digests[key] != res["digest"]:
                # the digest cannot tell which model changed: fail them all
                batch_failed = len(docs)
                res["problems"].append("verdict digest differs from the "
                                       "committed one")
        problems += [f"batch {batch}: {p}" for p in res["problems"]]
        attempted += len(docs)
        failed += batch_failed
        total = sum(res["model_s"])
        batch_s.append(total)
        model_s.append(res["model_s"])
        load_s.append(res["load_s"])
        probe_s.append(res["probe_s"])
        batch += 1
        if clock() - began + total > seconds:
            break
    result = {
        "workload": workload,
        "seed": seed,
        "batches": batch,
        "batch_s": batch_s,
        "model_s": model_s,
        "load_s": load_s,
        "probe_s": probe_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest_batches": {"checked": checked, "unchecked": unchecked},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(batch)
        result["traced_top_s"] = tracer.top_ns / 1e9
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    result = run(args.workload, args.seed, args.seconds, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
