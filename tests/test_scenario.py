"""Scenario and model layer: validation, no-signalling, classification."""

import inspect
import itertools
import random
import sys
import time

import pytest

from contextuality.errors import PreconditionError
from contextuality.scenario import (
    ContextualityClass,
    EmpiricalModel,
    MeasurementScenario,
    Section,
    check_no_signalling,
    classify,
    extension,
    global_sections,
    section_extends,
    sections_below,
    validate_scenario,
)


def _model(measurements, d, contexts, supports):
    scenario = MeasurementScenario.make(measurements, d, contexts)
    secs = []
    for ctx in scenario.contexts:
        rows = [Section.of(dict(zip(ctx, vals))) for vals in supports[ctx]]
        secs.append(rows)
    return EmpiricalModel.make(scenario, secs)


def _pr_box():
    sup = {
        ("a1", "b1"): [(0, 0), (1, 1)],
        ("a1", "b2"): [(0, 0), (1, 1)],
        ("a2", "b1"): [(0, 0), (1, 1)],
        ("a2", "b2"): [(0, 1), (1, 0)],
    }
    return _model(("a1", "a2", "b1", "b2"), 2,
                  [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")],
                  sup)


def _product_model():
    # two contexts sharing x; every outcome allowed
    sup = {
        ("x", "y"): [(i, j) for i in range(2) for j in range(2)],
        ("x", "z"): [(i, j) for i in range(2) for j in range(2)],
    }
    return _model(("x", "y", "z"), 2, [("x", "y"), ("x", "z")], sup)


# --- Section ----------------------------------------------------------------


def test_section_basics():
    s = Section.of({"b": 1, "a": 0})
    assert s.domain == ("a", "b")
    assert s["a"] == 0 and s["b"] == 1
    assert s.restrict(("a",)) == Section.of({"a": 0})
    assert s.restrict(["b"]) == Section.of({"b": 1})
    assert s == Section.of({"a": 0, "b": 1})
    assert len({s, Section.of({"a": 0, "b": 1})}) == 1
    assert s.as_dict() == {"a": 0, "b": 1}


def test_section_restrict_unknown_label():
    s = Section.of({"a": 0})
    with pytest.raises(PreconditionError):
        s.restrict(("c",))


# --- Scenario ----------------------------------------------------------------


def test_scenario_canonicalizes():
    sc = MeasurementScenario.make(("a", "b", "c"), 2, [("c", "a"), ("b", "c")])
    assert all(ctx == sc.sort_labels(ctx) for ctx in sc.contexts)
    assert set(sc.contexts) == {("a", "c"), ("b", "c")}
    assert sc.containing_contexts(("c",)) == (0, 1) or \
        sc.containing_contexts(("c",)) == (1, 0) or \
        len(sc.containing_contexts(("c",))) == 2


def test_scenario_rejections():
    with pytest.raises(PreconditionError):
        MeasurementScenario.make(("a", "a"), 2, [("a",)])
    with pytest.raises(PreconditionError):
        MeasurementScenario.make(("a",), 2, [("a", "b")])
    with pytest.raises(PreconditionError):
        MeasurementScenario.make(("a",), 1, [("a",)])


def test_validate_scenario_violations():
    # covering fails: b in no context
    sc = MeasurementScenario.make(("a", "b"), 2, [("a",)])
    rep = validate_scenario(sc)
    assert not rep.ok and any("b" in v for v in rep.violations)
    # antichain fails: one context inside another
    sc = MeasurementScenario.make(("a", "b"), 2, [("a",), ("a", "b")])
    rep = validate_scenario(sc)
    assert not rep.ok
    # disconnected cover
    sc = MeasurementScenario.make(("a", "b"), 2, [("a",), ("b",)])
    rep = validate_scenario(sc)
    assert not rep.ok and any("connect" in v.lower() for v in rep.violations)
    # a good one
    sc = MeasurementScenario.make(("a", "b", "c"), 2, [("a", "b"), ("b", "c")])
    assert validate_scenario(sc).ok


# --- Model -------------------------------------------------------------------


def test_model_make_checks_sections():
    sc = MeasurementScenario.make(("a", "b"), 2, [("a", "b")])
    with pytest.raises(PreconditionError):
        EmpiricalModel.make(sc, [[Section.of({"a": 0})]])
    with pytest.raises(PreconditionError):
        EmpiricalModel.make(sc, [[Section.of({"a": 0, "b": 2})]])
    with pytest.raises(PreconditionError):
        EmpiricalModel.make(sc, [[]])
    m = EmpiricalModel.make(
        sc, [[Section.of({"a": 1, "b": 0}), Section.of({"a": 0, "b": 0}),
              Section.of({"a": 1, "b": 0})]])
    assert len(m.sections[0]) == 2  # deduped
    assert m.section_index(0, Section.of({"a": 0, "b": 0})) >= 0
    for bad in (-1, 1):
        with pytest.raises(PreconditionError):
            m.section_index(bad, Section.of({"a": 0, "b": 0}))
        with pytest.raises(PreconditionError):
            section_extends(m, bad, Section.of({"a": 0, "b": 0}))


def test_no_signalling_detects_violation(hardy):
    assert check_no_signalling(hardy.model).ok
    sup = {
        ("x", "y"): [(0, 0), (1, 1)],
        ("x", "z"): [(0, 0), (0, 1)],  # x=1 possible on the left only
    }
    bad = _model(("x", "y", "z"), 2, [("x", "y"), ("x", "z")], sup)
    rep = check_no_signalling(bad)
    assert not rep.ok and rep.violations


def test_sections_below(hardy):
    below = sections_below(hardy.model, ("a1",))
    assert set(below) == {Section.of({"a1": 0}), Section.of({"a1": 1})}
    # restriction of a two-label context to both labels is the identity
    ctx = hardy.model.scenario.contexts[0]
    assert set(sections_below(hardy.model, ctx)) == set(
        hardy.model.sections[0])


def test_global_sections_product_model():
    m = _product_model()
    gs = global_sections(m)
    assert len(gs) == 8
    for g in gs:
        assert set(g.domain) == {"x", "y", "z"}
        for ci in range(2):
            assert section_extends(m, ci, g.restrict(m.scenario.contexts[ci]))


def test_classify_three_kinds(mermin, hardy):
    assert classify(_product_model()).kind == "noncontextual"
    assert classify(_pr_box()).kind == "strongly_contextual"
    assert classify(_pr_box()).strongly_contextual
    assert classify(mermin.model).kind == "strongly_contextual"
    cls = classify(hardy.model)
    assert cls.kind == "logically_contextual"
    assert cls.contextual and not cls.strongly_contextual
    assert cls.witnesses == ((0, Section.of({"a1": 0, "b1": 0})),)


def test_hardy_frozen_shape(hardy):
    m = hardy.model
    assert len(m.scenario.measurements) == 4
    assert [len(s) for s in m.sections] == [4, 3, 3, 3]
    assert len(global_sections(m)) == 5
    # the witness section extends nowhere, every other one extends
    for ci in range(4):
        for s in m.sections[ci]:
            expected = (ci, s) not in classify(m).witnesses
            assert section_extends(m, ci, s) == expected


def test_contextuality_class_str():
    assert str(ContextualityClass("noncontextual")) == "noncontextual"
    assert "1" in str(ContextualityClass(
        "logically_contextual",
        ((0, Section.of({"a": 0})),)))


# --- Global-section search against independent answers ----------------------


def _random_model(rng):
    """At most 8 measurements, d in {2, 3}, contexts of 1-3 labels; half
    the draws keep a planted global assignment in every context."""
    n = rng.randint(1, 8)
    d = rng.choice((2, 3))
    labels = [f"m{i}" for i in range(n)]
    contexts = [rng.sample(labels, rng.randint(1, min(3, n)))
                for _ in range(rng.randint(1, 6))]
    scenario = MeasurementScenario.make(labels, d, contexts)
    planted = ({m: rng.randrange(d) for m in labels}
               if rng.random() < 0.5 else None)
    density = rng.choice((0.3, 0.5, 0.8))
    secs = []
    for ctx in scenario.contexts:
        rows = [r for r in itertools.product(range(d), repeat=len(ctx))
                if rng.random() < density]
        if planted:
            rows.append(tuple(planted[m] for m in ctx))
        if not rows:
            rows.append(tuple(rng.randrange(d) for _ in ctx))
        secs.append([Section.of(dict(zip(ctx, r))) for r in rows])
    return EmpiricalModel.make(scenario, secs)


def _brute_force_globals(model):
    sc = model.scenario
    allowed = [set(secs) for secs in model.sections]
    found = []
    for values in itertools.product(range(sc.outcome_modulus),
                                    repeat=len(sc.measurements)):
        g = Section.of(dict(zip(sc.measurements, values)))
        if all(g.restrict(ctx) in ok
               for ctx, ok in zip(sc.contexts, allowed)):
            found.append(g)
    return found


def test_search_matches_brute_force_on_random_models():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(150):
        model = _random_model(rng)
        sc = model.scenario
        brute = _brute_force_globals(model)
        extends = {(ci, g.restrict(ctx)) for g in brute
                   for ci, ctx in enumerate(sc.contexts)}
        expected_witnesses = tuple(
            (ci, s) for ci, secs in enumerate(model.sections) for s in secs
            if (ci, s) not in extends)
        if not brute:
            expected = ContextualityClass("strongly_contextual")
        elif expected_witnesses:
            expected = ContextualityClass("logically_contextual",
                                          expected_witnesses)
        else:
            expected = ContextualityClass("noncontextual")
        assert classify(model) == expected
        assert global_sections(model) == tuple(brute)  # both sorted
        for ci, secs in enumerate(model.sections):
            for s in secs:
                assert section_extends(model, ci, s) == ((ci, s) in extends)
                g = extension(model, ci, s)
                assert (g is not None) == ((ci, s) in extends)
                if g is not None:
                    assert g in brute and g.restrict(sc.contexts[ci]) == s
        kinds.add(expected.kind)
    assert kinds == {"noncontextual", "logically_contextual",
                     "strongly_contextual"}


def _no_signalling_models(rng):
    """Restrictions of a few random global assignments to 1-5 contexts,
    each also with one row dropped or one mixing those assignments added,
    to be kept where no-signalling survives;
    then the PR box (strongly contextual) and a scenario with no contexts."""
    for _ in range(30):
        d = rng.choice((2, 3))
        labels = [f"m{i}" for i in range(rng.randint(2, 6))]
        contexts = sorted({tuple(sorted(rng.sample(labels, rng.randint(
            1, min(3, len(labels)))))) for _ in range(rng.randint(1, 5))})
        scenario = MeasurementScenario.make(labels, d, contexts)
        globals_ = [{m: rng.randrange(d) for m in labels}
                    for _ in range(rng.randint(1, 4))]
        rows = [{tuple(g[m] for m in ctx) for g in globals_}
                for ctx in scenario.contexts]
        yield scenario, rows
        ci = rng.randrange(len(rows))
        changed = [set(r) for r in rows]
        if len(rows[ci]) > 1 and rng.random() < 0.5:
            changed[ci].discard(min(rows[ci]))
        else:
            changed[ci].add(tuple(rng.choice(globals_)[m]
                                  for m in scenario.contexts[ci]))
        yield scenario, changed
    pr = _pr_box()
    yield pr.scenario, [set(r) for r in pr.rows]
    yield MeasurementScenario.make(("x",), 2, ()), []


def test_extension_table_matches_pinned_searches(hardy):
    """On those models and on hardy, every entry of the classification
    pass's table agrees with a fresh pinned search: None exactly where
    ``extension`` finds nothing, and
    otherwise a global section, one row per context, through its own row
    whose rows agree on every pair overlap; ``classify``'s witnesses are
    the None entries, in order, unless every entry is None."""
    rng = random.Random(9)
    kinds, tested = set(), 0
    hardy_rows = (hardy.model.scenario, hardy.model.rows)
    for scenario, rows in [*_no_signalling_models(rng), hardy_rows]:
        model = EmpiricalModel.make(scenario, [
            [Section.of(dict(zip(ctx, r))) for r in sorted(rs)]
            for ctx, rs in zip(scenario.contexts, rows)])
        if not check_no_signalling(model).ok:
            continue
        table = model.extension_table
        assert len(table) == len(model.sections)
        overlaps = list(model.pair_restrictions())
        for c, marks in enumerate(table):
            assert len(marks) == len(model.sections[c])
            for r, g in enumerate(marks):
                assert ((g is None)
                        == (extension(model, c, model.sections[c][r]) is None))
                if g is not None:
                    assert len(g) == len(table) and g[c] == r
                    assert all(left[g[i]] == right[g[j]]
                               for i, j, _l, left, right in overlaps)
        blocked = tuple((c, model.sections[c][r])
                        for c, marks in enumerate(table)
                        for r, g in enumerate(marks) if g is None)
        verdict = classify(model)
        if verdict.strongly_contextual:  # every entry None, none listed
            assert len(blocked) == sum(map(len, table)) and table
            blocked = ()
        assert verdict.witnesses == blocked
        kinds.add(verdict.kind)
        tested += 1
    assert tested >= 45
    assert kinds == {"noncontextual", "logically_contextual",
                     "strongly_contextual"}
    empty = EmpiricalModel.make(MeasurementScenario.make(("x",), 2, ()), ())
    assert classify(empty).kind == "noncontextual"


def _chain_model(rng, n):
    """Open binary chain x0-...-x{n-1} with random edge supports that keep
    a planted assignment; the supports may signal, so some sections fail
    to extend."""
    labels = [f"x{i}" for i in range(n)]
    planted = [rng.randint(0, 1) for _ in range(n)]
    supports = []
    for i in range(n - 1):
        pairs = {(a, b) for a in (0, 1) for b in (0, 1)
                 if rng.random() < 0.5}
        supports.append(pairs | {(planted[i], planted[i + 1])})
    scenario = MeasurementScenario.make(
        labels, 2, [(labels[i], labels[i + 1]) for i in range(n - 1)])
    secs = [[Section.of({labels[i]: a, labels[i + 1]: b})
             for a, b in sorted(supports[i])] for i in range(n - 1)]
    return EmpiricalModel.make(scenario, secs), supports


def _chain_witnesses(model, supports):
    """Transfer-matrix answer: an edge section (a, b) extends exactly when
    a is reachable from the left end and b from the right end."""
    left = [{0, 1}]
    for pairs in supports:
        left.append({b for a, b in pairs if a in left[-1]})
    right = [{0, 1}]
    for pairs in reversed(supports):
        right.append({a for a, b in pairs if b in right[-1]})
    right.reverse()
    out = []
    for i, secs in enumerate(model.sections):
        x, y = model.scenario.contexts[i]
        for s in secs:
            if not (s[x] in left[i] and s[y] in right[i + 1]):
                out.append((i, s))
    return tuple(out)


def test_classify_long_chain_needs_no_recursion():
    model, supports = _chain_model(random.Random(300), 300)
    expected = _chain_witnesses(model, supports)
    assert expected  # the draw is logically contextual
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        verdict = classify(model)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict == ContextualityClass("logically_contextual", expected)


def test_one_solution_reads_each_domain_once():
    """An uncovered measurement ranges over all of Z_d.  A search for one
    global section takes its least value without listing the domain, so a
    model at d = 10^6 classifies as quickly, and alike, as at d = 8."""
    sup = {("a", "b"): [(0, 0), (1, 1)], ("b", "c"): [(0, 5), (2, 7)]}
    verdicts = []
    for d in (8, 10**6):
        model = _model(("a", "b", "c", "u"), d, [("a", "b"), ("b", "c")],
                       sup)
        start = time.perf_counter()
        verdicts.append(classify(model))
        assert time.perf_counter() - start < 2.0
        assert extension(model, 0, model.sections[0][0])["u"] == 0
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].kind == "logically_contextual"
    assert len(verdicts[0].witnesses) == 2
