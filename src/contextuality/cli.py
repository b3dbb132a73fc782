"""Command-line front end.

    contextuality analyze <source> [--classify --cech --group --avn
                                    --crosscheck --all]
                                   [--context I] [--section J|auto|all]
                                   [--format text|structured]
    contextuality fixtures list
    contextuality validate <source>

A source is a built-in fixture name or a path to a JSON model
document.  Exit codes: 0 success, 2 bad input or unsatisfied
precondition, 3 violated internal invariant or any other failure, which
is reported on one line without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .avn import is_avn
from .cech import CrossCheckReport, _cross_check_steps, collapse_family
from .errors import InternalCheckError, PreconditionError
from .fixtures import get_fixture, list_fixtures
from .mcohom import validate_structured_model
from .modelio import load_model
from .pmonoid import StructuredModel
from .scenario import check_no_signalling, classify, validate_scenario


def _load_source(source: str):
    """Fixture name or JSON path -> (name, model, structured-or-None)."""
    names = {name for name, _ in list_fixtures()}
    if source in names:
        bundle = get_fixture(source)
        return bundle.name, bundle.model, bundle.structured
    if os.path.exists(source):
        loaded = load_model(source)
        if isinstance(loaded, StructuredModel):
            return source, loaded.model, loaded
        return source, loaded, None
    raise PreconditionError(
        f"{source!r} is neither a fixture ({', '.join(sorted(names))}) "
        f"nor an existing file")


def _select_queries(model, args, witnesses):
    """Expand --context/--section into concrete (context, section) pairs."""
    contexts = range(len(model.scenario.contexts))
    if args.context is not None:
        if not 0 <= args.context < len(model.scenario.contexts):
            raise PreconditionError("--context index out of range")
        contexts = [args.context]
    sel = args.section
    if sel == "auto":
        return [(ci, s) for ci, s in witnesses
                if args.context is None or ci == args.context]
    out = []
    for ci in contexts:
        secs = model.sections[ci]
        if sel == "all":
            out.extend((ci, s) for s in secs)
        else:
            try:
                j = int(sel)
            except ValueError:
                raise PreconditionError(
                    "--section must be an index, 'auto' or 'all'") from None
            if not 0 <= j < len(secs):
                raise PreconditionError(
                    f"--section index out of range for context {ci}")
            out.append((ci, secs[j]))
    return out


def _cech_row(model, dec, witnesses) -> dict:
    """The --cech row of a route-1 decision."""
    row = {"context": dec.context_index, "section": dec.section.as_dict(),
           "vanishes": dec.vanishes}
    if dec.vanishes:
        row["family"] = [
            {"context": fci, "section": fs.as_dict(), "coefficient": c}
            for (fci, fs), c in sorted(
                dec.family.items(),
                key=lambda kv: (kv[0][0], str(kv[0][1])))]
        row["collapse"] = collapse_family(model, dec.family)
        if (dec.context_index, dec.section) in witnesses:
            row["false_positive"] = True
    else:
        cert = dec.certificate
        row["certificate"] = {"kind": cert.kind, "rows": len(cert.rows)}
    return row


def _group_row(rep) -> dict:
    """The --group row of a group obstruction report."""
    row = {"context": rep.context_index, "section": rep.section.as_dict(),
           "vanishes": rep.vanishes, "path": rep.decision.path}
    if rep.vanishes:
        row["global_splitting"] = dict(sorted(rep.global_splitting.items()))
    else:
        row["certificates"] = [
            {"factor": k, "rows": len(res.certificate)}
            for k, res in rep.decision.certificates]
    return row


def _cmd_analyze(args) -> int:
    name, model, structured = _load_source(args.source)
    want = {
        "classify": args.classify,
        "cech": args.cech,
        "group": args.group,
        "avn": args.avn,
        "crosscheck": args.crosscheck,
    }
    if args.all:
        want = {k: True for k in want}
        if structured is None:
            want["group"] = False
            want["crosscheck"] = False
    if not any(want.values()):
        want["classify"] = True
    payload: dict = {
        "source": name,
        "measurements": len(model.scenario.measurements),
        "contexts": len(model.scenario.contexts),
        "outcome_modulus": model.scenario.outcome_modulus,
    }
    timings: dict = {}

    t0 = time.perf_counter()
    ns = check_no_signalling(model)
    payload["no_signalling"] = ns.ok
    if not ns.ok:
        payload["no_signalling_violations"] = list(ns.violations)
    timings["no_signalling"] = time.perf_counter() - t0

    if want["cech"] and not ns.ok:
        raise PreconditionError("Cech analysis needs a no-signalling model")

    witnesses = []  # --cech marks those that vanish as false positives
    if want["classify"] or want["cech"] or args.section == "auto":
        t0 = time.perf_counter()
        cls = classify(model)
        timings["classify"] = time.perf_counter() - t0
        witnesses = list(cls.witnesses)
        if want["classify"]:
            payload["classification"] = {
                "kind": cls.kind,
                "witnesses": [
                    {"context": ci, "section": s.as_dict()}
                    for ci, s in cls.witnesses],
            }
    if (want["group"] or want["crosscheck"]) and structured is None:
        raise PreconditionError(
            "group analysis and cross-checking need partial-monoid "
            "structure (a Pauli or structured document)")
    queries = (_select_queries(model, args, witnesses)
               if want["cech"] or want["group"] else [])
    cech_rows, group_rows = {}, {}

    if want["crosscheck"]:
        # one pass over the sections answers the --cech and --group rows too
        t0 = time.perf_counter()
        wanted = set(queries)
        rows = []
        paths = dict.fromkeys(("absolute", "relative", "shortcut"), 0)
        for row, r1, g in _cross_check_steps(structured):
            rows.append(row)
            paths[g.decision.path] += 1
            key = (row.context_index, row.section)
            if key in wanted:
                cech_rows[key] = _cech_row(model, r1, witnesses)
                group_rows[key] = _group_row(g)
        rep = CrossCheckReport(tuple(rows))
        payload["crosscheck"] = {
            "sections": len(rep.rows),
            "consistent": rep.consistent,
            "cech_vanishing": sum(1 for r in rep.rows if r.cech_vanishes),
            "group_vanishing": sum(1 for r in rep.rows if r.group_vanishes),
            "group_paths": paths,
        }
        timings["crosscheck"] = time.perf_counter() - t0

    if want["cech"]:
        t0 = time.perf_counter()
        analyzer = model.cech_analyzer
        payload["cech"] = [
            cech_rows.get(q)
            or _cech_row(model, analyzer.family_obstruction(*q), witnesses)
            for q in queries]
        timings["cech"] = time.perf_counter() - t0

    if want["group"]:
        t0 = time.perf_counter()
        gan = structured.group_analyzer
        payload["group"] = [group_rows.get(q) or _group_row(gan.analyze(*q))
                            for q in queries]
        timings["group"] = time.perf_counter() - t0

    if want["avn"]:
        t0 = time.perf_counter()
        rep = is_avn(model)
        payload["avn"] = {
            "avn": rep.avn,
            "equations": len(rep.theory.equations),
        }
        if rep.avn:
            payload["avn"]["certificate_rows"] = sum(
                1 for c in rep.certificate.certificate if c)
        else:
            payload["avn"]["witness"] = dict(sorted(rep.witness.items()))
        timings["avn"] = time.perf_counter() - t0

    if args.format == "structured":
        print(json.dumps({"payload": payload, "timings": timings},
                         indent=2, sort_keys=True))
    else:
        _print_text(payload)
    return 0


def _print_text(payload: dict) -> None:
    print(f"model: {payload['source']} "
          f"({payload['measurements']} measurements, "
          f"{payload['contexts']} contexts, "
          f"modulus {payload['outcome_modulus']})")
    print(f"no-signalling: {'ok' if payload['no_signalling'] else 'VIOLATED'}")
    if "classification" in payload:
        cls = payload["classification"]
        extra = ""
        if cls["witnesses"]:
            extra = f" ({len(cls['witnesses'])} non-extendable sections)"
        print(f"classification: {cls['kind']}{extra}")
    for row in payload.get("cech", ()):
        sec = ", ".join(f"{k}={v}" for k, v in row["section"].items())
        verdict = "vanishes" if row["vanishes"] else "does not vanish"
        note = "  ** false positive: section does not extend" \
            if row.get("false_positive") else ""
        print(f"cech obstruction  ctx {row['context']} [{sec}]: "
              f"{verdict}{note}")
    for row in payload.get("group", ()):
        sec = ", ".join(f"{k}={v}" for k, v in row["section"].items())
        verdict = "vanishes" if row["vanishes"] else "does not vanish"
        print(f"group obstruction ctx {row['context']} [{sec}]: {verdict}")
    if "avn" in payload:
        verdict = ("holds (theory refutes all assignments)"
                   if payload["avn"]["avn"] else "does not hold")
        print(f"all-vs-nothing: {verdict}")
    if "crosscheck" in payload:
        cc = payload["crosscheck"]
        print(f"cross-check: {cc['sections']} sections, "
              f"cech vanishing {cc['cech_vanishing']}, "
              f"group vanishing {cc['group_vanishing']}, "
              f"consistent: {cc['consistent']}")


def _cmd_fixtures(args) -> int:
    if args.action != "list":
        raise PreconditionError("supported: fixtures list")
    for name, summary in list_fixtures():
        print(f"{name:8s} {summary}")
    return 0


def _cmd_validate(args) -> int:
    name, model, structured = _load_source(args.source)
    problems = []
    rep = validate_scenario(model.scenario)
    problems.extend(rep.violations)
    ns = check_no_signalling(model)
    problems.extend(ns.violations)
    if structured is not None:
        problems.extend(validate_structured_model(structured).violations)
    if problems:
        print(f"{name}: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 2
    scope = "scenario, no-signalling"
    if structured is not None:
        scope += ", partial-monoid structure"
    print(f"{name}: ok ({scope})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="possibilistic contextuality analysis with exact "
                    "cohomological obstructions")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run analyses against a model")
    an.add_argument("source", help="fixture name or JSON document path")
    an.add_argument("--classify", action="store_true",
                    help="contextuality class and witnesses")
    an.add_argument("--cech", action="store_true",
                    help="Cech obstruction (pinned family feasibility)")
    an.add_argument("--group", action="store_true",
                    help="group-cohomology obstruction (needs structure)")
    an.add_argument("--avn", action="store_true",
                    help="all-vs-nothing equation argument")
    an.add_argument("--crosscheck", action="store_true",
                    help="run both obstruction theories on every section "
                         "and enforce their compatibility")
    an.add_argument("--all", action="store_true",
                    help="every applicable analysis")
    an.add_argument("--context", type=int, default=None,
                    help="restrict obstruction queries to one context")
    an.add_argument("--section", default="all",
                    help="section index, 'auto' (non-extendable only) "
                         "or 'all'")
    an.add_argument("--format", choices=("text", "structured"),
                    default="text")
    an.set_defaults(func=_cmd_analyze)

    fx = sub.add_parser("fixtures", help="built-in example models")
    fx.add_argument("action", choices=("list",))
    fx.set_defaults(func=_cmd_fixtures)

    va = sub.add_parser("validate", help="check a model document")
    va.add_argument("source", help="fixture name or JSON document path")
    va.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        where = f"{exc.where}: " if exc.where else ""
        print(f"internal invariant violated: {where}{exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other failure is a library fault
        first = str(exc).partition("\n")[0]
        print(f"internal error in {args.command}: {type(exc).__name__}"
              + (f": {first}" if first else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
