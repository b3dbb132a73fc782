"""One-shot scale probe: the stages too long for a gated benchmark run.

    python3 perfbench/probe.py [--out perfbench/results/scale_probe.json]

Run it from the repository root.  Each stage runs once, in its own fresh
child process with ``PYTHONHASHSEED`` pinned, and its time, verdict or
error is recorded; nothing here is gated.  An error, or a verdict that
differs from the known answer, is recorded as a failure of that stage,
not hidden.  The stages:

* ``ghz3-crosscheck``: GHZ-3 build, ``classify``, ``is_avn`` and the
  cross-check of all 135 sections;
* ``ghz4-group``: GHZ-4 build, ``classify``, ``GroupObstructionAnalyzer``
  set-up, then group queries on two fixed sections;
* ``ghz4-is_avn``: GHZ-4 build, then ``is_avn``;
* ``ghz4-cech``: GHZ-4 build, ``CechAnalyzer`` set-up, then the first
  route-2 query (context 0, section 0);
* ``chain1500-classify``: ``classify`` on a 1,500-measurement chain;
* ``cycle48-classify``: ``classify`` on the 48-cycle whose one pinned
  search takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STAGES = ("ghz3-crosscheck", "ghz4-group", "ghz4-is_avn", "ghz4-cech",
          "chain1500-classify", "cycle48-classify")
STAGE_TIMEOUT_S = 900
# The seeded 48-cycle that reproduces the ROADMAP's slow pinned search.
ROADMAP_CYCLE_SEED = 3
# (context index, section index) pairs for the GHZ-4 group queries.
GHZ4_GROUP_QUERIES = ((5, 1), (200, 1))


def check_ghz3(model, verdict, avn, report) -> None:
    """Known answers: 72 measurements, 30 contexts and 135 sections;
    strongly contextual, AvN, every section obstructed in both theories."""
    from workloads import expect, section_count
    scenario = model.scenario
    expect((len(scenario.measurements), len(scenario.contexts),
            section_count(model)) == (72, 30, 135),
           "GHZ-3 shape differs from (72, 30, 135)")
    expect(verdict.kind == "strongly_contextual",
           "GHZ-3 is not strongly contextual")
    expect(avn.avn, "GHZ-3 is not AvN")
    expect(len(report.rows) == 135, "cross-check skipped sections")
    expect(not any(r.cech_vanishes or r.group_vanishes for r in report.rows),
           "a GHZ-3 section is unobstructed")


def _timed(rows, name, fn):
    t0 = time.perf_counter()
    value = fn()
    rows[name] = time.perf_counter() - t0
    return value


def run_stage(stage: str) -> dict:
    sys.path.insert(0, HERE)
    import gen
    import workloads
    import contextuality as ctx
    from workloads import expect

    times: dict = {}
    detail: dict = {"seconds": times}
    try:
        if stage == "ghz3-crosscheck":
            doc = gen.ghz_document(3)
            structured = _timed(times, "build", lambda: ctx.loads_model(doc))
            model = structured.model
            verdict = _timed(times, "classify", lambda: ctx.classify(model))
            avn = _timed(times, "is_avn", lambda: ctx.is_avn(model))
            report = _timed(times, "crosscheck",
                            lambda: ctx.cross_check_obstructions(structured))
            check_ghz3(model, verdict, avn, report)
        elif stage.startswith("ghz4"):
            doc = gen.ghz_document(4)
            structured = _timed(times, "build", lambda: ctx.loads_model(doc))
            model = structured.model
            if stage == "ghz4-group":
                verdict = _timed(times, "classify",
                                 lambda: ctx.classify(model))
                group = _timed(
                    times, "group_setup",
                    lambda: ctx.GroupObstructionAnalyzer(structured))
                detail["quotient_elements"] = len(
                    group.quotient.monoid.elements)
                expect(verdict.kind == "strongly_contextual",
                       "GHZ-4 is not strongly contextual")
                for k, (ci, j) in enumerate(GHZ4_GROUP_QUERIES):
                    report = _timed(
                        times, f"group_query_{k}",
                        lambda: group.analyze(ci, model.sections[ci][j]))
                    expect(not report.vanishes,
                           "a GHZ-4 section is unobstructed")
            elif stage == "ghz4-is_avn":
                report = _timed(times, "is_avn", lambda: ctx.is_avn(model))
                detail["equations"] = len(report.theory.equations)
                expect(report.avn, "GHZ-4 is not AvN")
            else:
                analyzer = _timed(times, "cech_setup",
                                  lambda: ctx.CechAnalyzer(model))
                section = model.sections[0][0]
                decision = _timed(
                    times, "first_route2",
                    lambda: analyzer.connecting_cocycle(0, section))
                detail["unknowns"] = analyzer.nunknowns
                detail["rows"] = len(analyzer.rows)
                expect(not decision.vanishes,
                       "a GHZ-4 section is unobstructed")
        elif stage == "chain1500-classify":
            doc = gen.chain_document(random.Random(0), 1500)
            model = _timed(times, "load", lambda: ctx.loads_model(doc))
            verdict = _timed(times, "classify", lambda: ctx.classify(model))
            detail["kind"] = verdict.kind
        elif stage == "cycle48-classify":
            doc = gen.slow_cycle_document(ROADMAP_CYCLE_SEED)
            model = _timed(times, "load", lambda: ctx.loads_model(doc))
            verdict = _timed(times, "classify", lambda: ctx.classify(model))
            detail["kind"] = verdict.kind
            detail["sections"] = workloads.section_count(model)
        detail["ok"] = True
    except Exception as exc:  # recorded as this stage's failure
        detail["ok"] = False
        detail["error"] = f"{type(exc).__name__}: {exc}"[:300]
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stage", choices=STAGES)
    ap.add_argument("--out", default=os.path.join(HERE, "results",
                                                  "scale_probe.json"))
    args = ap.parse_args(argv)
    if args.stage:
        print(json.dumps(run_stage(args.stage)))
        return 0
    import run
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="src",
               PYTHONDONTWRITEBYTECODE="1")
    record = {"env": run.environment(), "stages": {}}
    for stage in STAGES:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--stage", stage],
                env=env, capture_output=True, text=True,
                timeout=STAGE_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            result = (json.loads(lines[-1]) if lines else
                      {"ok": False, "error": proc.stderr[-300:]})
        except subprocess.TimeoutExpired:
            result = {"ok": False,
                      "error": f"no result within {STAGE_TIMEOUT_S} s"}
        record["stages"][stage] = result
        print(stage, json.dumps(result), flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
