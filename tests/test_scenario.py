"""Scenario and model layer: validation, no-signalling, classification."""

import inspect
import itertools
import random
import re
import sys
import time
import tracemalloc

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


def test_section_index_reads_rows_and_keeps_its_messages(hardy, mermin,
                                                        ghz):
    """``section_index`` finds every section at the position of its row,
    without building the model's ``Section``s, and refuses a section of
    another domain or with other values, and a context out of range, with
    the messages it always gave."""
    for model in (hardy.model, mermin.model, ghz.model):
        rebuilt = EmpiricalModel.from_rows(model.scenario, model.rows)
        for c, (ctx, rows) in enumerate(zip(model.scenario.contexts,
                                            model.rows)):
            for u, row in enumerate(rows):
                s = Section.from_values(ctx, row)
                assert rebuilt.section_index(c, s) == u
        assert "sections" not in rebuilt.__dict__
        for c, secs in enumerate(model.sections):
            for u, s in enumerate(secs):
                assert model.section_index(c, s) == u
    m = hardy.model
    ctx = m.scenario.contexts[1]
    missing = Section.from_values(ctx, (0, 0))
    assert missing not in m.sections[1]
    wider = Section.of({**m.sections[1][0].as_dict(), "a2": 0})
    for bad in (missing, m.sections[1][0].restrict(ctx[:1]), wider,
                m.sections[0][0]):
        with pytest.raises(PreconditionError) as err:
            m.section_index(1, bad)
        assert str(err.value) == (
            f"section {bad} is not allowed at context {ctx}")
    for c in (-1, len(m.rows)):
        with pytest.raises(PreconditionError) as err:
            m.section_index(c, missing)
        assert str(err.value) == f"context index {c} out of range"


def test_from_rows_refuses_malformed_rows():
    """A row must list one int outcome per label of its context: a short,
    a long, a float, a bool or a str row is refused, also when the rows
    come as an iterator, and the message names the row."""
    sc = MeasurementScenario.make(("a", "b"), 3, [("a", "b")])
    for bad in ((0,), (0, 1, 2), (0, 1.0), (True, 0), (0, "1")):
        for rows in ([(0, 0), bad], iter([(0, 0), bad])):
            with pytest.raises(PreconditionError,
                               match=re.escape(f"row {bad} does not list")):
                EmpiricalModel.from_rows(sc, [rows])
    with pytest.raises(PreconditionError, match="outside Z_3"):
        EmpiricalModel.from_rows(sc, [iter([(0, 0), (0, 3)])])
    model = EmpiricalModel.from_rows(sc, [iter([(2, 1), [0, 0], (2, 1)])])
    assert model.rows == (((0, 0), (2, 1)),)


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


def _wide_model(rng):
    """Contexts of 4 labels at d = 3 that keep more than 64 of their 81
    rows, so a row mask passes a machine word, beside smaller ones; half
    the draws keep a planted global assignment."""
    labels = [f"m{i}" for i in range(rng.randint(4, 6))]
    contexts = [rng.sample(labels, 4) for _ in range(rng.randint(1, 3))]
    contexts += [rng.sample(labels, rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))]
    scenario = MeasurementScenario.make(labels, 3, contexts)
    planted = ({m: rng.randrange(3) for m in labels}
               if rng.random() < 0.5 else None)
    secs = []
    for ctx in scenario.contexts:
        density = 0.85 if len(ctx) == 4 else rng.choice((0.3, 0.6))
        rows = [r for r in itertools.product(range(3), repeat=len(ctx))
                if rng.random() < density]
        if planted:
            rows.append(tuple(planted[m] for m in ctx))
        if not rows:
            rows.append(tuple(rng.randrange(3) for _ in ctx))
        secs.append([Section.of(dict(zip(ctx, r))) for r in rows])
    return EmpiricalModel.make(scenario, secs)


def _sparse_value_model(rng):
    """d = 5 supports that use only some of the values: each measurement
    draws its outcomes from a random subset of Z_5."""
    labels = [f"m{i}" for i in range(rng.randint(2, 5))]
    contexts = [rng.sample(labels, rng.randint(1, min(3, len(labels))))
                for _ in range(rng.randint(1, 5))]
    scenario = MeasurementScenario.make(labels, 5, contexts)
    values = {m: rng.sample(range(5), rng.randint(1, 3)) for m in labels}
    secs = []
    for ctx in scenario.contexts:
        rows = [r for r in itertools.product(*(values[m] for m in ctx))
                if rng.random() < 0.6]
        if not rows:
            rows.append(tuple(rng.choice(values[m]) for m in ctx))
        secs.append([Section.of(dict(zip(ctx, r))) for r in rows])
    return EmpiricalModel.make(scenario, secs)


def _check_against_brute_force(model):
    """classify, global_sections, section_extends and extension agree
    with enumeration; returns the verdict's kind."""
    sc = model.scenario
    brute = _brute_force_globals(model)
    extends = {(ci, g.restrict(ctx)) for g in brute
               for ci, ctx in enumerate(sc.contexts)}
    blocked = tuple((ci, s) for ci, secs in enumerate(model.sections)
                    for s in secs if (ci, s) not in extends)
    verdict = classify(model)
    if not brute:
        assert verdict == ContextualityClass("strongly_contextual")
    elif blocked:
        assert verdict == ContextualityClass("logically_contextual", blocked)
    else:
        assert verdict == ContextualityClass("noncontextual")
    assert global_sections(model) == tuple(brute)
    for ci, secs in enumerate(model.sections):
        for s in secs:
            assert section_extends(model, ci, s) == ((ci, s) in extends)
            g = extension(model, ci, s)
            assert (g is not None) == ((ci, s) in extends)
            if g is not None:
                assert g in brute and g.restrict(sc.contexts[ci]) == s
    return verdict.kind


def test_search_matches_brute_force_on_random_models():
    """150 small random models, 25 with contexts of more than 64 rows, so
    a row mask passes a machine word, and 80 at d = 5 whose supports use
    only some of the values."""
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(150):
        kinds.add(_check_against_brute_force(_random_model(rng)))
    assert kinds == {"noncontextual", "logically_contextual",
                     "strongly_contextual"}
    rng, kinds, wide = random.Random(18), set(), 0
    for _ in range(25):
        model = _wide_model(rng)
        wide += max(map(len, model.rows)) > 64
        kinds.add(_check_against_brute_force(model))
    assert wide >= 20
    assert {"noncontextual", "logically_contextual"} <= kinds
    rng, kinds = random.Random(1805), set()
    for _ in range(80):
        kinds.add(_check_against_brute_force(_sparse_value_model(rng)))
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
    global section takes its least value without listing the domain, and
    each covered domain starts from the values its rows use, so a model
    at d = 10^6 or 10^9 classifies as quickly, and alike, as at d = 8,
    in a few MB."""
    sup = {("a", "b"): [(0, 0), (1, 1)], ("b", "c"): [(0, 5), (2, 7)]}
    verdicts = []
    for d in (8, 10**6, 10**9):
        model = _model(("a", "b", "c", "u"), d, [("a", "b"), ("b", "c")],
                       sup)
        tracemalloc.start()
        start = time.perf_counter()
        verdicts.append(classify(model))
        assert time.perf_counter() - start < 2.0
        assert extension(model, 0, model.sections[0][0])["u"] == 0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 5 * 2**20
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert verdicts[0].kind == "logically_contextual"
    assert len(verdicts[0].witnesses) == 2


def test_all_solutions_list_each_domain_from_its_set_bits():
    """Listing every global section reads each domain's values off its
    set bits, so a model with 20 global sections on covered measurements
    gives the same sections, as quickly, at d = 10^6 or 10^9 as at
    d = 32, in a few MB."""
    sup = {("a", "b"): [(i, i) for i in range(20)],
           ("b", "c"): [(i, 31 - i) for i in range(20)]}
    found = []
    for d in (32, 10**6, 10**9):
        model = _model(("a", "b", "c"), d, [("a", "b"), ("b", "c")], sup)
        tracemalloc.start()
        start = time.perf_counter()
        found.append(global_sections(model))
        assert time.perf_counter() - start < 2.0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 5 * 2**20
    assert found[0] == found[1] == found[2]
    assert found[0] == tuple(Section.of({"a": i, "b": i, "c": 31 - i})
                             for i in range(20))


def test_outcome_size_sizes_no_mask():
    """Each measurement's values are numbered densely, in ascending order,
    so a chain whose rows hold d - 1 at d = 10^10 classifies, lists its
    global sections and extends a section in at most 10 ms and a 5 MB
    peak, where a mask indexed by value would need 10^10 bits."""
    d = 10**10
    sup = {("a", "b"): [(0, 0), (d - 1, 1)],
           ("b", "c"): [(0, 0), (1, d - 1)]}
    top = Section.of({"a": d - 1, "b": 1, "c": d - 1})

    def answers(model):
        return (classify(model), global_sections(model),
                extension(model, 1, top.restrict(("b", "c"))))

    models = [_model(("a", "b", "c"), d, [("a", "b"), ("b", "c")], sup)
              for _ in range(4)]
    elapsed = []
    for model in models[:3]:
        start = time.perf_counter()
        answers(model)
        elapsed.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        verdict, found, g = answers(models[3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == "noncontextual"
    assert found == (Section.of({"a": 0, "b": 0, "c": 0}), top) and g == top
    assert min(elapsed) <= 0.010
    assert peak <= 5 * 2**20


def test_wide_values_answer_as_their_small_images():
    """Mapping some measurements' values through an increasing map onto
    values from 60 to beyond 10^12 leaves every answer the image of the
    small model's: the class and witnesses, each row's extension, and,
    where every measurement is covered, the global sections; a
    measurement in no context stands at 0 in both.  Every measurement
    numbers its values densely, so the wide values take the bits of the
    small ones, on 60 random models."""
    rng = random.Random(2121)
    wide_models = 0
    for k in range(60):
        model = (_random_model if k % 2 else _sparse_value_model)(rng)
        sc = model.scenario
        covered = {m for ctx in sc.contexts for m in ctx}
        scale = {m: rng.choice((1, 10**12)) if m in covered else 1
                 for m in sc.measurements}
        image = {m: (lambda v, m=m: v if scale[m] == 1 else 60 + v * scale[m])
                 for m in sc.measurements}
        big = EmpiricalModel.from_rows(
            MeasurementScenario.make(sc.measurements, 10**13, sc.contexts),
            [[tuple(image[m](v) for m, v in zip(ctx, row)) for row in rows]
             for ctx, rows in zip(sc.contexts, model.rows)])
        wide_models += any(max(map(max, rows)) >= 64 for rows in big.rows)

        def lift(s):
            return None if s is None else Section.of(
                {m: image[m](v) for m, v in s.items})

        assert classify(big).kind == classify(model).kind
        assert classify(big).witnesses == tuple(
            (c, lift(s)) for c, s in classify(model).witnesses)
        for c, secs in enumerate(model.sections):
            for r, s in enumerate(secs):
                assert extension(big, c, big.sections[c][r]) == lift(
                    extension(model, c, s))
        if covered == set(sc.measurements):
            assert global_sections(big) == tuple(
                map(lift, global_sections(model)))
    assert wide_models >= 40
