"""Cover-nerve obstructions: both decision routes, audited independently.

Certificates returned by the analyzer are re-verified here from the
model alone (no analyzer internals), so a wrong verdict cannot hide
behind its own bookkeeping.
"""

import gc
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

import contextuality.cech as cech_module
import contextuality.scenario as scenario_module
from contextuality import cli, linalg
from contextuality.avn import avn_cech_consistency, theory_of
from contextuality.cech import (
    CechAnalyzer,
    CechCertificate,
    build_nerve,
    cech_coboundary,
    cech_obstruction_vanishes,
    collapse_family,
    connecting_cocycle,
    cross_check_obstructions,
    fs_restrict,
    make_cech_cochain,
)
from contextuality.errors import InternalCheckError, PreconditionError
from contextuality.linalg import Gf2AffineSystem, IntegerSystem
from contextuality.mcohom import CoboundarySolver, GroupObstructionAnalyzer
from contextuality.modelio import document_to_model, model_to_document
from contextuality.pauli import build_state_independent_model, parse_pauli
from contextuality.pmonoid import StructuredModel
from contextuality.scenario import (
    EmpiricalModel,
    MeasurementScenario,
    Section,
    check_no_signalling,
    classify,
    global_sections,
    section_extends,
    sections_below,
)
from test_pauli import _random_generators


# --- Independent audits -------------------------------------------------------


def _pair_row(model, tag):
    """Dense coefficient row for a compatibility tag, from scratch."""
    _kind, i, j, t = tag
    scenario = model.scenario
    labels = tuple(t.domain)
    row = {}
    offs = []
    off = 0
    for secs in model.sections:
        offs.append(off)
        off += len(secs)
    for jj, sign in ((i, 1), (j, -1)):
        for u, s in enumerate(model.sections[jj]):
            if s.restrict(labels) == t:
                k = offs[jj] + u
                row[k] = row.get(k, 0) + sign
    return {k: v for k, v in row.items() if v}, off, offs


def _audit_route1_certificate(model, context_index, section, cert):
    """y^T A integral per column while y^T b is not."""
    acc = {}
    rhs = Fraction(0)
    for tag, coeff in zip(cert.rows, cert.coefficients):
        coeff = Fraction(coeff)
        if tag[0] == "pair":
            row, _n, _offs = _pair_row(model, tag)
        else:
            _kind, ci, t = tag
            off = sum(len(s) for s in model.sections[:ci])
            row = {off + list(model.sections[ci]).index(t): 1}
            if ci == context_index and t == section:
                rhs += coeff
        for k, v in row.items():
            acc[k] = acc.get(k, Fraction(0)) + coeff * v
    assert all(v.denominator == 1 for v in acc.values())
    assert rhs.denominator != 1 or (cert.kind == "rational" and rhs != 0)


def _audit_family(model, context_index, section, family):
    scenario = model.scenario
    per_ctx = [dict() for _ in scenario.contexts]
    for (ci, s), c in family.items():
        assert s in model.sections[ci]
        per_ctx[ci][s] = c
    for fs in per_ctx:
        assert sum(fs.values()) == 1
    assert per_ctx[context_index] == {section: 1}
    for i in range(len(scenario.contexts)):
        for j in range(i + 1, len(scenario.contexts)):
            overlap = set(scenario.contexts[i]) & set(scenario.contexts[j])
            if not overlap:
                continue
            labels = scenario.sort_labels(overlap)
            assert fs_restrict(per_ctx[i], labels) == \
                fs_restrict(per_ctx[j], labels)


def _audit_route2(model, context_index, decision):
    scenario = model.scenario
    c0 = set(scenario.contexts[context_index])
    if decision.vanishes:
        pot = decision.potential
        assert all(c for fs in pot.values() for c in fs.values())
        for j, fs in pot.items():
            inner = [x for x in scenario.contexts[j] if x in c0]
            assert not fs_restrict(fs, inner)
        for i in range(len(scenario.contexts)):
            for j in range(i + 1, len(scenario.contexts)):
                overlap = set(scenario.contexts[i]) & set(
                    scenario.contexts[j])
                if not overlap:
                    continue
                labels = scenario.sort_labels(overlap)
                got = {}
                for s, c in fs_restrict(pot.get(j, {}), labels).items():
                    got[s] = got.get(s, 0) + c
                for s, c in fs_restrict(pot.get(i, {}), labels).items():
                    got[s] = got.get(s, 0) - c
                got = {s: c for s, c in got.items() if c}
                want = decision.cocycle.get((i, j), {})
                assert got == want
    else:
        _audit_route2_certificate(model, context_index, decision)


def _kernel_rows(model, context_index, tags):
    """Route 2's constraint rows for ``tags``, rebuilt from the sections.

    Two sections of a context are in one class when they restrict alike
    into C0; each class's first section is its representative rep, and
    every other section s gives the basis vector s - rep of the kernel
    presheaf.  The row of tag (i, j, t) on that vector is
    [s|t = t] - [rep|t = t] when s lives on C_j, and minus that on C_i.
    """
    scenario = model.scenario
    c0 = set(scenario.contexts[context_index])
    basis = []
    for j, ctx in enumerate(scenario.contexts):
        reps = {}
        for s in model.sections[j]:
            rep = reps.setdefault(
                s.restrict([x for x in ctx if x in c0]), s)
            if rep != s:
                basis.append((j, s, rep))
    rows = {}
    for tag in tags:
        _kind, i, j, t = tag
        row = {}
        for k, (jj, s, rep) in enumerate(basis):
            if jj in (i, j):
                sign = 1 if jj == j else -1
                c = sign * ((s.restrict(t.domain) == t)
                            - (rep.restrict(t.domain) == t))
                if c:
                    row[k] = c
        rows[tag] = row
    return rows


def _audit_route2_certificate(model, context_index, decision):
    """y^T R against route 2's rows rebuilt from the sections, and y.z:
    even and odd for parity, integral and not for "integral", zero and
    nonzero for "rational"."""
    cert = decision.certificate
    contexts = model.scenario.contexts
    for _kind, i, j, t in cert.rows:
        assert i < j
        assert set(t.domain) == set(contexts[i]) & set(contexts[j])
    rows = _kernel_rows(model, context_index, cert.rows)
    acc = {}
    pairing = Fraction(0)
    for tag, coeff in zip(cert.rows, cert.coefficients):
        coeff = Fraction(coeff)
        for k, v in rows[tag].items():
            acc[k] = acc.get(k, Fraction(0)) + coeff * v
        _kind, i, j, t = tag
        pairing += coeff * decision.cocycle.get((i, j), {}).get(t, 0)
    if cert.kind == "parity":
        assert all(v % 2 == 0 for v in acc.values())
        assert pairing % 2 == 1
    elif cert.kind == "integral":
        assert all(v.denominator == 1 for v in acc.values())
        assert pairing.denominator != 1
    else:
        assert cert.kind == "rational"
        assert not any(acc.values()) and pairing != 0


def _random_binary_cycles(seed, count):
    """Binary 3- to 7-cycles whose every edge keeps both outcomes of each
    of its measurements, so every model is no-signalling."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        n = rng.randint(3, 7)
        keep = rng.choice((0.3, 0.6))
        labels = [f"x{i}" for i in range(n)]
        scenario = MeasurementScenario.make(
            labels, 2, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
        sections = []
        for x, y in scenario.contexts:
            rows = []
            while ({a for a, _ in rows} != {0, 1}
                   or {b for _, b in rows} != {0, 1}):
                rows = [(a, b) for a in (0, 1) for b in (0, 1)
                        if rng.random() < keep]
            sections.append([Section.of({x: a, y: b}) for a, b in rows])
        models.append(EmpiricalModel.make(scenario, sections))
    return models


def _differential_models(hardy, mermin, ghz):
    return [hardy.model, mermin.model, ghz.model] + _random_binary_cycles(
        42, 12)


# --- Nerve and cochains --------------------------------------------------------


def test_nerve_shapes(hardy, mermin):
    nerve = build_nerve(hardy.model.scenario)
    assert [len(nerve.degree(q)) for q in range(3)] == [4, 12, 28]
    assert (0, 0) in nerve.degree(1)
    assert (0, 3) not in nerve.degree(1)  # disjoint contexts
    assert nerve.supports[(0, 1)] == ("a1",)
    nerve_m = build_nerve(mermin.model.scenario)
    assert [len(nerve_m.degree(q)) for q in range(3)] == [6, 36, 216]
    with pytest.raises(PreconditionError):
        nerve.degree(3)


def test_make_cech_cochain_domain_check(hardy):
    nerve = build_nerve(hardy.model.scenario)
    good = Section.of({"a1": 0, "b1": 0})
    c = make_cech_cochain(nerve, 0, {(0,): {good: 2}})
    assert c.value((0,)) == {good: 2}
    with pytest.raises(PreconditionError):
        make_cech_cochain(nerve, 0, {(1,): {good: 1}})
    with pytest.raises(PreconditionError):
        make_cech_cochain(nerve, 0, {(9,): {good: 1}})


def test_coboundary_signs_on_a_path():
    sc = MeasurementScenario.make(("a", "b", "c"), 2,
                                  [("a", "b"), ("b", "c")])
    model = EmpiricalModel.make(sc, [
        [Section.of({"a": i, "b": j}) for i in range(2) for j in range(2)],
        [Section.of({"b": i, "c": j}) for i in range(2) for j in range(2)],
    ])
    nerve = build_nerve(sc)
    s = Section.of({"a": 0, "b": 1})
    t = Section.of({"b": 0, "c": 0})
    c = make_cech_cochain(nerve, 0, {(0,): {s: 1}, (1,): {t: 1}})
    dc = cech_coboundary(nerve, c)
    # d c (0, 1) = c(1)|b - c(0)|b
    assert dc.value((0, 1)) == {Section.of({"b": 0}): 1,
                                Section.of({"b": 1}): -1}
    assert dc.value((0, 0)) == {}


def test_cech_d_after_d_random(hardy, mermin):
    rng = random.Random(3)
    for model in (hardy.model, mermin.model):
        nerve = build_nerve(model.scenario)
        for _ in range(30):
            vals = {}
            for simplex in nerve.degree(0):
                supp = nerve.supports[simplex]
                pool = sections_below(model, supp)
                fs = {s: rng.randint(-3, 3)
                      for s in rng.sample(pool, k=min(len(pool), 3))}
                vals[simplex] = fs
            c = make_cech_cochain(nerve, 0, vals)
            dd = cech_coboundary(nerve, cech_coboundary(nerve, c))
            assert not dd.values


def test_compatibility_rows_are_minus_the_cech_differential(
        hardy, mermin, ghz):
    """Column k of the analyzer's compatibility matrix, as ``_columns``
    reads it, is -delta of the 0-cochain 1*s on s's context, read on the
    pairs i < j; the audits' ``_parities_at`` reads the same rows mod 2."""
    for model in _differential_models(hardy, mermin, ghz):
        ana = CechAnalyzer(model)
        nerve = build_nerve(model.scenario, max_degree=1)
        columns = ana._columns()
        assert ana._parities_at(range(len(ana.rows))) == [
            linalg._parity_mask(row.items()) for row in columns]
        k = 0
        for ci, secs in enumerate(model.sections):
            for s in secs:
                d = cech_coboundary(
                    nerve, make_cech_cochain(nerve, 0, {(ci,): {s: 1}}))
                want = {(i, j, t): -c for (i, j), fs in d.values.items()
                        if i < j for t, c in fs.items()}
                got = {tag[1:]: row[k] for tag, row in zip(ana.rows, columns)
                       if k in row}
                assert got == want
                k += 1
        assert k == ana.nunknowns


def test_connecting_cocycle_is_delta_of_the_lift(hardy, mermin, ghz):
    """Route 2's cocycle is cech_coboundary of the lift that takes, in
    each context, the first section agreeing with s0 on the overlap."""
    for model in _differential_models(hardy, mermin, ghz):
        ana = CechAnalyzer(model)
        nerve = build_nerve(model.scenario, max_degree=1)
        contexts = model.scenario.contexts
        for c0, secs0 in enumerate(model.sections):
            for s0 in secs0:
                lift = {}
                for j, ctx in enumerate(contexts):
                    inner = [x for x in ctx if x in contexts[c0]]
                    want = s0.restrict(inner)
                    first = next(s for s in model.sections[j]
                                 if s.restrict(inner) == want)
                    lift[(j,)] = {first: 1}
                z = cech_coboundary(nerve, make_cech_cochain(nerve, 0, lift))
                assert ana.connecting_cocycle(c0, s0).cocycle == {
                    (i, j): fs for (i, j), fs in z.values.items() if i < j}


def test_route2_certificates_hold_against_rebuilt_rows(hardy, mermin, ghz):
    for model in _differential_models(hardy, mermin, ghz):
        ana = CechAnalyzer(model)
        for ci, secs in enumerate(model.sections):
            for s in secs:
                _audit_route2(model, ci, ana.connecting_cocycle(ci, s))


# --- Route 1 --------------------------------------------------------------------


def test_hardy_all_obstructions_vanish(hardy):
    model = hardy.model
    ana = CechAnalyzer(model)
    for ci in range(4):
        for sec in model.sections[ci]:
            dec = ana.family_obstruction(ci, sec)
            assert dec.vanishes
            _audit_family(model, ci, sec, dec.family)
            assert cech_obstruction_vanishes(model, ci, sec)


def test_hardy_false_positive_witness(hardy):
    # the non-extendable section still gets a compatible family
    model = hardy.model
    sec = Section.of({"a1": 0, "b1": 0})
    assert not section_extends(model, 0, sec)
    dec = CechAnalyzer(model).family_obstruction(0, sec)
    assert dec.vanishes
    _audit_family(model, 0, sec, dec.family)
    # necessarily a signed combination: no 0/1 family exists for it
    assert any(c < 0 for c in dec.family.values())


def test_mermin_route1_all_fail(mermin):
    model = mermin.model
    ana = CechAnalyzer(model)
    for ci in range(6):
        for sec in model.sections[ci]:
            dec = ana.family_obstruction(ci, sec)
            assert not dec.vanishes
            assert dec.certificate.kind == "parity"
            _audit_route1_certificate(model, ci, sec, dec.certificate)


def test_route1_on_extendable_sections_uses_global(hardy):
    model = hardy.model
    ana = CechAnalyzer(model)
    sec = model.sections[1][0]
    dec = ana.family_obstruction(1, sec)
    assert dec.vanishes
    # when a global section passes through, the family is its delta
    if all(c == 1 for c in dec.family.values()):
        g = {}
        for (ci, s), _ in dec.family.items():
            for x in s.domain:
                assert g.setdefault(x, s[x]) == s[x]


def test_shortcut_on_a_long_free_chain():
    """An open chain of 40 binary measurements whose every edge allows all
    four rows has 2**40 global sections; the shortcut must find one
    through the queried section without listing them."""
    labels = [f"x{i}" for i in range(40)]
    scenario = MeasurementScenario.make(
        labels, 2, [(labels[i], labels[i + 1]) for i in range(39)])
    model = EmpiricalModel.make(scenario, [
        [Section.of({x: a, y: b}) for a in (0, 1) for b in (0, 1)]
        for x, y in scenario.contexts])
    ana = CechAnalyzer(model)
    sec = model.sections[19][2]
    d1 = ana.family_obstruction(19, sec)
    d2 = ana.connecting_cocycle(19, sec)
    assert d1.vanishes and d2.vanishes
    _audit_family(model, 19, sec, d1.family)
    assert all(c == 1 for c in d1.family.values())
    _audit_route2(model, 19, d2)


def _certificate_key(cert):
    return None if cert is None else (cert.kind, cert.rows, cert.coefficients)


def test_shared_analyzer_answers_like_fresh_ones(hardy, mermin):
    """The per-context systems and audited rows an analyzer caches, and the
    extension table the model caches, must not make an answer depend on
    earlier queries: one analyzer
    queried in reverse section order agrees, on both routes, with a fresh
    analyzer per query, down to its families, cocycles and potentials."""
    routes = (CechAnalyzer.family_obstruction, CechAnalyzer.connecting_cocycle)
    for bundle in (hardy, mermin):
        model = bundle.model
        shared = CechAnalyzer(model)
        queries = [(ci, s) for ci, secs in enumerate(model.sections)
                   for s in secs]
        for ci, s in reversed(queries):
            for route in routes:
                got = route(shared, ci, s)
                want = route(CechAnalyzer(model), ci, s)
                assert got.vanishes == want.vanishes
                assert (_certificate_key(got.certificate)
                        == _certificate_key(want.certificate))
                for field in ("family", "cocycle", "potential"):
                    assert (getattr(got, field, None)
                            == getattr(want, field, None))


def _visits(count):
    """Contexts 0, 1, 0, 2, 1, 3, 2, ...: each is left and entered again."""
    order = [0]
    for k in range(1, count):
        order += [k, k - 1]
    return order


def _group_key(report):
    ob, dec = report.obstruction, report.decision
    return (ob.eta_ids, ob.beta.columns, ob.inside, dec.vanishes,
            dec.gamma_ids, dec.certificates, report.global_splitting)


def _fresh_copy(structured):
    model = structured.model
    return StructuredModel(EmpiricalModel.make(model.scenario, model.sections),
                           structured.context_ops, structured.action)


def test_reentered_contexts_answer_like_fresh_analyzers(hardy, mermin, ghz):
    """The model's analyzers hold one context's systems, so a context
    entered again is rebuilt.  Contexts visited as (0, 1, 0, 2, 1, ...)
    through both Cech routes and the group route answer as a fresh
    analyzer of each kind, asked about contexts in turn, does: every
    verdict, family, cocycle, potential, certificate and group report.
    On mermin and ghz parity decides; Hardy's witness reaches both
    routes' lattice stage, and the split Pauli model's sections reach the
    shortcut and the group route's reconstruction."""
    split = build_state_independent_model(
        [parse_pauli(s) for s in ("+XI", "+IX", "+ZI", "-II")])
    plain = EmpiricalModel.make(hardy.model.scenario, hardy.model.sections)
    cases = [(plain, None)] + [
        (st.model, st) for st in map(_fresh_copy, (
            mermin.structured, ghz.structured, split))]
    for model, st in cases:
        want = {}
        cech = CechAnalyzer(model)
        group = st and GroupObstructionAnalyzer(st)
        for ci, secs in enumerate(model.sections):
            for s in secs:
                want[ci, s] = (cech.family_obstruction(ci, s),
                               cech.connecting_cocycle(ci, s),
                               group and _group_key(group.analyze(ci, s)))
        for ci in _visits(len(model.sections)):
            for s in model.sections[ci]:
                r1, r2, g = want[ci, s]
                got1 = model.cech_analyzer.family_obstruction(ci, s)
                got2 = model.cech_analyzer.connecting_cocycle(ci, s)
                for got, ref in ((got1, r1), (got2, r2)):
                    assert got.vanishes == ref.vanishes
                    assert (_certificate_key(got.certificate)
                            == _certificate_key(ref.certificate))
                    for field in ("family", "cocycle", "potential"):
                        assert (getattr(got, field, None)
                                == getattr(ref, field, None))
                if st is not None:
                    assert _group_key(st.group_analyzer.analyze(ci, s)) == g


def test_cross_check_leaves_one_context_of_systems(ghz, monkeypatch):
    """Each analyzer drops a context's systems when a query enters the
    next, so after the cross-check of a fresh ghz copy the GF(2), integer
    and coboundary systems still alive were all built in one context."""
    built = []  # (weak reference to a system, the context being queried)
    at = [None]
    for cls in (Gf2AffineSystem, IntegerSystem, CoboundarySolver):
        def counted(self, *args, _real=cls.__init__):
            built.append((weakref.ref(self), at[0]))
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for cls, name in ((CechAnalyzer, "family_obstruction"),
                      (CechAnalyzer, "connecting_cocycle"),
                      (GroupObstructionAnalyzer, "analyze")):
        def entered(self, ci, *args, _real=getattr(cls, name)):
            at[0] = ci
            return _real(self, ci, *args)

        monkeypatch.setattr(cls, name, entered)
    st = _fresh_copy(ghz.structured)
    assert cross_check_obstructions(st).consistent
    gc.collect()
    assert {ci for _ref, ci in built} == set(range(len(st.model.sections)))
    assert len({ci for ref, ci in built if ref() is not None}) <= 1


def test_both_routes_share_one_pinned_search(hardy, mermin, ghz,
                                             monkeypatch):
    """An analyzer builds one search over all its queries on both routes:
    the extension table, made by the first query that reaches the
    global-section shortcut.  On mermin and ghz parity refutes every
    section, so none is built.  Each model is a fresh copy, since the
    table is cached on the model."""
    built = []
    real = scenario_module._Search.__init__

    def counted(self, model):
        built.append(model)
        real(self, model)

    monkeypatch.setattr(scenario_module._Search, "__init__", counted)
    for bundle, searches in ((hardy, 1), (mermin, 0), (ghz, 0)):
        model = EmpiricalModel.make(bundle.model.scenario,
                                    bundle.model.sections)
        ana = CechAnalyzer(model)
        built.clear()
        for ci, secs in enumerate(model.sections):
            for sec in secs:
                ana.family_obstruction(ci, sec)
                ana.connecting_cocycle(ci, sec)
        assert len(built) == searches


def test_model_holds_its_cech_analyzer(mermin, monkeypatch):
    """Every module-level Cech query on a model, the cross-check and the
    AvN consistency check read the one analyzer the model holds: it is
    built once, and no query hashes the model.  The analyzer reads the
    model through a weak proxy, so dropping the model frees both without
    the cycle collector."""
    built = []
    real = CechAnalyzer.__init__

    def counted(self, model):
        built.append(model)
        real(self, model)

    def unhashable(_self):
        raise AssertionError("a Cech query hashed the model")

    monkeypatch.setattr(CechAnalyzer, "__init__", counted)
    monkeypatch.setattr(EmpiricalModel, "__hash__", unhashable)
    st = mermin.structured
    model = EmpiricalModel.make(st.model.scenario, st.model.sections)
    for ci, secs in enumerate(model.sections):
        for sec in secs:
            assert not cech_obstruction_vanishes(model, ci, sec).vanishes
            assert not connecting_cocycle(model, ci, sec).vanishes
    assert avn_cech_consistency(model).avn
    assert cross_check_obstructions(
        StructuredModel(model, st.context_ops, st.action)).consistent
    assert len(built) == 1 and model.cech_analyzer.model == model
    alive = weakref.ref(model.cech_analyzer)
    del model
    assert alive() is None


def test_classify_and_cross_check_share_one_search(monkeypatch):
    """``classify`` and the cross-check's global-section shortcuts read one
    extension table per model: on a noncontextual model, whose every
    section reaches the shortcut on both routes, one search is built."""
    built = []
    real = scenario_module._Search.__init__

    def counted(self, model):
        built.append(model)
        real(self, model)

    monkeypatch.setattr(scenario_module._Search, "__init__", counted)
    st = build_state_independent_model(
        [parse_pauli(s) for s in ("+X", "+Z", "-I")])
    assert classify(st.model).kind == "noncontextual"
    report = cross_check_obstructions(st)
    assert all(r.cech_vanishes for r in report.rows)
    assert built == [st.model]


def test_disconnected_cover_is_bad_input(hardy, tmp_path, capsys):
    """On a disconnected cover nothing fixes a family's mass on a component
    without the pinned context, so both routes refuse the model as bad
    input before any solve, and ``--cech`` exits 2; ``--classify`` works."""
    doc = model_to_document(hardy.model)
    doc["measurements"].append("e")
    doc["contexts"].append(["e"])
    doc["sections"][str(len(doc["contexts"]) - 1)] = [[0]]
    ana = CechAnalyzer(document_to_model(doc))
    witness = Section.of({"a1": 0, "b1": 0})
    for route in (ana.family_obstruction, ana.connecting_cocycle):
        with pytest.raises(PreconditionError, match="connected cover"):
            route(0, witness)
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path), "--cech"]) == 2
    assert "connected cover" in capsys.readouterr().err
    assert cli.main(["analyze", str(path), "--classify"]) == 0


# --- Route 2 --------------------------------------------------------------------


def test_routes_agree_on_hardy_and_mermin(hardy, mermin):
    for bundle in (hardy, mermin):
        model = bundle.model
        ana = CechAnalyzer(model)
        for ci in range(len(model.scenario.contexts)):
            for sec in model.sections[ci]:
                d1 = ana.family_obstruction(ci, sec)
                d2 = ana.connecting_cocycle(ci, sec)
                assert d1.vanishes == d2.vanishes
                _audit_route2(model, ci, d2)


def test_route2_cocycle_lives_in_kernel(mermin):
    model = mermin.model
    ana = CechAnalyzer(model)
    sec = model.sections[0][0]
    dec = ana.connecting_cocycle(0, sec)
    c0 = set(model.scenario.contexts[0])
    for (i, j), fs in dec.cocycle.items():
        overlap = set(model.scenario.contexts[i]) & set(
            model.scenario.contexts[j])
        inner = [x for x in model.scenario.sort_labels(overlap) if x in c0]
        assert not fs_restrict(fs, inner)


# --- Collapse and cross-check -----------------------------------------------------


def test_collapse_hardy_witness_family(hardy):
    model = hardy.model
    sec = Section.of({"a1": 0, "b1": 0})
    dec = CechAnalyzer(model).family_obstruction(0, sec)
    g = collapse_family(model, dec.family)
    assert g == {"a1": 0, "a2": 0, "b1": 0, "b2": 0}
    # mod-2 collapse of the witness family is NOT a global section
    gsec = Section.of(g)
    ok = all(
        section_extends(model, ci, gsec.restrict(ctx))
        for ci, ctx in enumerate(model.scenario.contexts))
    assert not ok


def test_collapse_family_preconditions(hardy):
    model = hardy.model
    s0 = model.sections[0][0]
    with pytest.raises(PreconditionError):
        collapse_family(model, {(0, s0): 2})
    with pytest.raises(PreconditionError):
        collapse_family(model, {(9, s0): 1})
    with pytest.raises(PreconditionError):
        collapse_family(model, {(0, Section.of({"a1": 0, "b1": 1})): 1,
                                (0, s0): 1})


def test_collapse_family_detects_disagreement():
    sc = MeasurementScenario.make(("a", "b", "c"), 2,
                                  [("a", "b"), ("b", "c")])
    model = EmpiricalModel.make(sc, [
        [Section.of({"a": i, "b": j}) for i in range(2) for j in range(2)],
        [Section.of({"b": i, "c": j}) for i in range(2) for j in range(2)],
    ])
    fam = {(0, Section.of({"a": 0, "b": 0})): 1,
           (1, Section.of({"b": 1, "c": 0})): 1}
    with pytest.raises(InternalCheckError):
        collapse_family(model, fam)


def test_cross_check_mermin(mermin):
    report = cross_check_obstructions(mermin.structured)
    assert len(report.rows) == 24
    assert report.consistent
    assert all(not r.cech_vanishes and not r.group_vanishes
               for r in report.rows)


def test_cross_check_noncontextual_model():
    st = build_state_independent_model(
        [parse_pauli(s) for s in ("+X", "+Z", "-I")])
    report = cross_check_obstructions(st)
    assert report.consistent
    assert all(r.cech_vanishes and r.group_vanishes for r in report.rows)


def test_cross_check_audits_the_collapse(monkeypatch):
    """On a model whose sections all vanish, a collapsed family with one
    value flipped, outside the pinned context or at -I, fails the
    cross-check's audit of the collapse."""
    st = build_state_independent_model(
        [parse_pauli(s) for s in ("+X", "+Z", "-I")])
    scenario = st.model.scenario
    # the cross-check collapses context 0's first section first
    outside = next(x for x in scenario.measurements
                   if x not in scenario.contexts[0])
    real = cech_module.collapse_family
    for label, match in ((outside, "not a global splitting"),
                         ("-I", "collapse")):
        def flipped(model, family, _label=label):
            out = real(model, family)
            out[_label] = (out[_label] + 1) % 2
            return out

        monkeypatch.setattr(cech_module, "collapse_family", flipped)
        with pytest.raises(InternalCheckError, match=match):
            cross_check_obstructions(st)


def test_analyzer_rejects_signalling_model():
    sc = MeasurementScenario.make(("a", "b", "c"), 2,
                                  [("a", "b"), ("b", "c")])
    model = EmpiricalModel.make(sc, [
        [Section.of({"a": 0, "b": 0})],
        [Section.of({"b": 1, "c": 0})],
    ])
    with pytest.raises(PreconditionError):
        CechAnalyzer(model)


def test_no_signalling_is_decided_by_the_set_up(hardy, mermin, monkeypatch):
    """Set-up's own per-pair comparison of restriction sets decides
    no-signalling; ``check_no_signalling`` runs only to word the error."""
    calls = []
    real = cech_module.check_no_signalling

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(cech_module, "check_no_signalling", counted)
    for model in (hardy.model, mermin.model):
        CechAnalyzer(model)
    assert calls == []
    sc = MeasurementScenario.make(("a", "b", "c"), 2,
                                  [("a", "b"), ("b", "c")])
    model = EmpiricalModel.make(sc, [
        [Section.of({"a": 0, "b": 0})],
        [Section.of({"b": 1, "c": 0})],
    ])
    with pytest.raises(PreconditionError,
                       match="^model is signalling: signalling between"):
        CechAnalyzer(model)
    assert calls == [model]


def _row_of(ana):
    """Each row tag of ``ana`` to its row of A."""
    return {tag: r for r, tag in enumerate(ana.rows)}


def _separation_terms(ana, cert):
    """A route-1 certificate as ``_check_separation`` takes it: terms on
    rows of A, ``(coeff, row)``, and on pinning rows, ``(coeff, context,
    section position)``."""
    row_of = _row_of(ana)
    pair_terms, pin_terms = [], []
    for tag, coeff in zip(cert.rows, cert.coefficients):
        if tag[0] == "pair":
            pair_terms.append((coeff, row_of[tag]))
        else:
            _kind, ci, t = tag
            pin_terms.append((coeff, ci, ana.model.sections[ci].index(t)))
    return pair_terms, pin_terms


def _odd_rows(ana, cert):
    """The rows of A that a route-2 certificate's odd coefficients name an
    odd number of times, as ``_check_refuter`` takes them."""
    row_of = _row_of(ana)
    odd: set[int] = set()
    for tag, coeff in zip(cert.rows, cert.coefficients):
        if coeff % 2 == 1:
            odd ^= {row_of[tag]}
    return sorted(odd)


def _terms(model, family):
    """A label family ``{(j, section): coeff}`` as terms (j, u, coeff) on
    section positions."""
    return [(j, model.sections[j].index(s), c)
            for (j, s), c in family.items()]


def _on_positions(model, potential):
    """A label 0-cochain ``{j: {section: coeff}}`` on section positions."""
    return {j: {model.sections[j].index(s): c for s, c in fs.items()}
            for j, fs in potential.items()}


def test_audits_reject_mutated_refutations(mermin):
    """A parity certificate with one pair row dropped, with a pair row's
    coefficient raised from 1/2 to 1, or with its pin moved to another
    section fails the route-1 separation audit; a route-2 refuter with
    one row dropped, one row of odd coefficient added, or one coefficient
    doubled (the audit reads coefficients mod 2) fails the refutation
    audit, and so does the refuter against a cocycle made even at one of
    its rows.  Certificates are read onto rows and section positions."""
    model = mermin.model
    ana = CechAnalyzer(model)
    n = len(ana.rows)
    mutants = 0
    for ci, secs in enumerate(model.sections):
        for s_pos, s in enumerate(secs):
            cert = ana.family_obstruction(ci, s).certificate
            assert cert.kind == "parity"
            pair_terms, pin_terms = _separation_terms(ana, cert)
            ana._check_separation(ci, s_pos, pair_terms, pin_terms)
            assert pair_terms[0][0] == Fraction(1, 2)
            raised = [(Fraction(1), pair_terms[0][1])] + pair_terms[1:]
            pin = pin_terms.index((Fraction(1, 2), ci, s_pos))
            moved = list(pin_terms)
            moved[pin] = (Fraction(1, 2), ci, (s_pos + 1) % len(secs))
            for pairs, pins in ((pair_terms[1:], pin_terms),
                                (raised, pin_terms), (pair_terms, moved)):
                with pytest.raises(InternalCheckError):
                    ana._check_separation(ci, s_pos, pairs, pins)
                mutants += 1
            dec = ana.connecting_cocycle(ci, s)
            cert = dec.certificate
            assert cert.kind == "parity"
            rows = _odd_rows(ana, cert)
            odd = cech_module._odd_mask(dec.z, n)
            ana._check_refuter(ci, rows, odd)
            basis = ana._route2_rows(ci)[0]
            flip = next(r for r, row in enumerate(ana._columns(basis))
                        if any(v % 2 for v in row.values()) and r not in rows)
            doubled = CechCertificate("parity", cert.rows,
                                      (2,) + cert.coefficients[1:])
            for bad in (rows[1:], sorted(rows + [flip]),
                        _odd_rows(ana, doubled)):
                with pytest.raises(InternalCheckError):
                    ana._check_refuter(ci, bad, odd)
                mutants += 1
            # the refuter pairs oddly with z; made even at one of its rows,
            # z pairs evenly
            r = next(r for r in rows if dec.z.get(r, 0) % 2)
            even = {**dec.z, r: dec.z[r] + 1}
            with pytest.raises(InternalCheckError):
                ana._check_refuter(ci, rows, cech_module._odd_mask(even, n))
            mutants += 1
    assert mutants == 7 * 24
    # parity certificates name only pivot rows of the set-up echelon, so
    # the audits keep at most rank(A) rows read from the incidence
    assert 0 < len(ana._parities_read) <= len(ana._gf2.pivots)


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except InternalCheckError:
        return False
    return True


def test_parity_audits_agree_with_separates(hardy, mermin, ghz):
    """Both routes audit a parity refutation by its GF(2) law, and accept
    exactly what ``separates`` accepts on rows rebuilt from the model.
    Route 1, 1/2-coefficient functionals against ``separates(terms, 1)``:
    every real certificate, sums of one to three real certificates of a
    model judged against each of their pins, and seeded random multisets
    of rows and pins.  Route 2, 0/1 refuters on its kernel-coordinate
    rows against ``separates(terms, 2)`` with the cocycle as right-hand
    side: every real refuter and seeded random sets of rows."""
    rng = random.Random(97)
    half = Fraction(1, 2)
    counts = {(route, ok): 0 for route in (1, 2) for ok in (False, True)}
    models = [hardy.model, mermin.model, ghz.model]
    for model in models + _random_binary_cycles(43, 20):
        ana = CechAnalyzer(model)
        offs = _pair_row(model, ana.rows[0])[2]
        full = {r: _pair_row(model, tag)[0] for r, tag in enumerate(ana.rows)}

        def route1(ci, s_pos, pairs, pins):
            terms = [(c, full[r], 0) for c, r in pairs]
            terms += [(c, {offs[cj] + u: 1}, int((cj, u) == (ci, s_pos)))
                      for c, cj, u in pins]
            ok = _accepts(ana._check_separation, ci, s_pos, pairs, pins)
            assert ok == linalg.separates(terms, 1)
            counts[1, ok] += 1
            return ok

        certs = []
        for ci, secs in enumerate(model.sections):
            for s_pos, s in enumerate(secs):
                cert = ana.family_obstruction(ci, s).certificate
                if cert is not None and cert.kind == "parity":
                    certs.append(_separation_terms(ana, cert))
                    assert route1(ci, s_pos, *certs[-1])
                dec = ana.connecting_cocycle(ci, s)
                basis = ana._route2_rows(ci)[0]
                columns = ana._columns(basis)
                odd = cech_module._odd_mask(dec.z, len(ana.rows))
                drawn = [rng.sample(range(len(ana.rows)),
                                    rng.randint(1, min(6, len(ana.rows))))
                         for _ in range(4)]
                if dec.certificate is not None \
                        and dec.certificate.kind == "parity":
                    drawn.append(_odd_rows(ana, dec.certificate))
                for rows in drawn:
                    ok = _accepts(ana._check_refuter, ci, rows, odd)
                    assert ok == linalg.separates(
                        [(1, columns[r], dec.z.get(r, 0)) for r in rows], 2)
                    counts[2, ok] += 1
        if not certs:
            continue
        pins_of = [(ci, u) for ci, secs in enumerate(model.sections)
                   for u in range(len(secs))]
        for _ in range(40):
            pairs, pins = [], []
            for cp, cq in rng.sample(certs, rng.randint(1, min(3, len(certs)))):
                pairs += cp
                pins += cq
            rng.shuffle(pairs)
            for _kind, ci, u in sorted(set(pins)):
                route1(ci, u, pairs, pins)
            pairs = [(half, rng.randrange(len(ana.rows)))
                     for _ in range(rng.randint(0, 8))]
            pins = [(half, *rng.choice(pins_of))
                    for _ in range(rng.randint(1, 3))]
            route1(*pins[0][1:], pairs, pins)
    assert min(counts.values()) > 50, counts


def _restrict_apart(model, c, s, t):
    """Do sections s and t of context c restrict differently onto its
    overlap with some other context?"""
    contexts = model.scenario.contexts
    for j, ctx in enumerate(contexts):
        overlap = [x for x in contexts[c] if x in ctx]
        if j != c and overlap and s.restrict(overlap) != t.restrict(overlap):
            return True
    return False


def test_audits_reject_mutated_families_and_potentials(hardy, mermin, ghz):
    """A vanishing verdict's family with one coefficient moved to another
    section of its context, one that restricts differently onto some
    overlap, fails the route-1 audit (delta on the rows of A), as it
    fails the independent one on labels; so does the family, read onto
    section positions, with a term at a position outside its context
    (past its end, or -1), with every coefficient doubled, or with its
    pin moved to another section, each under its own message.  The
    models are the differential ones and 40 seeded random no-signalling
    models of every kind.  A potential with its sign flipped, or with one
    section added where it meets the pinned context, fails the route-2
    audit; a lone section on a pair meeting the pinned context leaves the
    kernel presheaf."""
    moved = unknown = heavy = unpinned = negated = widened = 0
    models = (_differential_models(hardy, mermin, ghz)
              + _random_no_signalling_models(172, 40))
    for model in models:
        ana = CechAnalyzer(model)
        contexts = model.scenario.contexts
        for ci, secs in enumerate(model.sections):
            for s_pos, s in enumerate(secs):
                dec = ana.family_obstruction(ci, s)
                if not dec.vanishes:
                    continue
                move = next(((key, k, u) for key, k in dec.family.items()
                             if key[0] != ci for u in model.sections[key[0]]
                             if _restrict_apart(model, key[0], u, key[1])),
                            None)
                c = (ci + 1) % len(contexts)
                if move is not None:  # none where every move is compatible
                    (c, t), k, other = move
                    bad = dict(dec.family)
                    del bad[(c, t)]
                    bad[(c, other)] = bad.get((c, other), 0) + k
                    bad = {key: v for key, v in bad.items() if v}
                    with pytest.raises(AssertionError):
                        _audit_family(model, ci, s, bad)
                    with pytest.raises(InternalCheckError,
                                       match="pair compatibility"):
                        ana._audit_family(ci, s_pos, _terms(model, bad))
                    moved += 1
                terms = _terms(model, dec.family)
                for u in (len(model.sections[c]), -1):
                    with pytest.raises(InternalCheckError,
                                       match="unknown section"):
                        ana._audit_family(ci, s_pos, terms + [(c, u, 1)])
                unknown += 1
                with pytest.raises(InternalCheckError,
                                   match="mass differs from 1"):
                    ana._audit_family(ci, s_pos, [(j, u, 2 * v)
                                                  for j, u, v in terms])
                heavy += 1
                pin = next((u for u in secs if u != s), None)
                if pin is not None:
                    bad = {key: v for key, v in dec.family.items()
                           if key != (ci, s)}
                    with pytest.raises(InternalCheckError,
                                       match="not pinned"):
                        ana._audit_family(ci, s_pos, _terms(
                            model, {**bad, (ci, pin): 1}))
                    unpinned += 1
                r2 = ana.connecting_cocycle(ci, s)
                potential = _on_positions(model, r2.potential)
                if r2.z:
                    with pytest.raises(InternalCheckError, match="bound"):
                        ana._check_potential(ci, {
                            j: {u: -v for u, v in fs.items()}
                            for j, fs in potential.items()}, r2.z)
                    negated += 1
                j = next(j for j, ctx in enumerate(contexts)
                         if j != ci and set(ctx) & set(contexts[ci]))
                wide = {**potential, j: dict(potential.get(j, {}))}
                wide[j][0] = wide[j].get(0, 0) + 1
                with pytest.raises(InternalCheckError, match="kernel"):
                    ana._check_potential(ci, wide, r2.z)
                widened += 1
        row_of = _row_of(ana)
        for (i, j), labels in ana.pair_overlaps.items():
            t = model.sections[i][0].restrict(labels)
            for c in (i, j):
                assert cech_module._nonzero_sums(
                    ana._kernel_keys(c), [(row_of["pair", i, j, t], 1)])
    assert moved > 100 and negated > 100 and widened > 100
    assert unknown == heavy >= moved and unpinned > 100


def test_kernel_check_on_supports_disjoint_from_the_pin(hardy):
    """Into a pinned context that shares no label with a support, a sum
    restricts to its total coefficient: the kernel-presheaf check rejects
    a nonzero total there, on potentials and on cocycle entries alike."""
    model = hardy.model
    ana = CechAnalyzer(model)
    contexts = model.scenario.contexts
    assert not set(contexts[0]) & set(contexts[3])
    assert not set(contexts[0]) & set(ana.pair_overlaps[(2, 3)])
    assert ana._potential_leaves(0, {3: {0: 1}})
    assert not ana._potential_leaves(0, {3: {0: 2, 1: -2}})
    u = model.sections[3][0].restrict(ana.pair_overlaps[(2, 3)])
    r = _row_of(ana)["pair", 2, 3, u]
    assert cech_module._nonzero_sums(ana._kernel_keys(0), [(r, -1)])
    r2 = ana.connecting_cocycle(0, model.sections[0][1])
    assert r2.vanishes
    wide = _on_positions(model, r2.potential)
    wide[3] = dict(wide.get(3, {}))
    wide[3][0] = wide[3].get(0, 0) + 1
    with pytest.raises(InternalCheckError, match="kernel"):
        ana._check_potential(0, wide, r2.z)


# --- Route 2 on row indexes: brute force and mutants -------------------------


def _random_no_signalling_models(seed, count):
    """Binary models on 3-6 contexts of two or three of 3-6 measurements,
    over a connected anti-chain cover.  Each context keeps a random set of
    rows (all those of one parity, for two in five contexts), pruned to a
    fixpoint where every pair of contexts restricts to the same set on
    its overlap, so every model is no-signalling; models of every kind
    come out, contextual or not."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        labels = [f"x{i}" for i in range(rng.randint(3, 6))]
        contexts = {tuple(sorted(rng.sample(labels, rng.randint(2, 3))))
                    for _ in range(rng.randint(3, 6))}
        sets = [set(c) for c in contexts]
        if (len(contexts) < 3 or set().union(*sets) != set(labels)
                or any(a < b for a in sets for b in sets)
                or not scenario_module._cover_connected(list(contexts))):
            continue
        scenario = MeasurementScenario.make(labels, 2, contexts)
        support = []
        for ctx in scenario.contexts:
            rows = list(itertools.product((0, 1), repeat=len(ctx)))
            if rng.random() < 0.4:  # a parity constraint
                b = rng.randrange(2)
                rows = [bits for bits in rows if sum(bits) % 2 == b]
            else:
                rows = [bits for bits in rows if rng.random() < 0.6]
            support.append({Section.of(dict(zip(ctx, bits)))
                            for bits in rows})
        changed = True
        while changed:
            changed = False
            for i, j in itertools.combinations(range(len(support)), 2):
                overlap = [x for x in scenario.contexts[i]
                           if x in scenario.contexts[j]]
                if not overlap:
                    continue
                common = ({s.restrict(overlap) for s in support[i]}
                          & {s.restrict(overlap) for s in support[j]})
                for k in (i, j):
                    kept = {s for s in support[k]
                            if s.restrict(overlap) in common}
                    changed |= kept != support[k]
                    support[k] = kept
        if all(support):
            models.append(EmpiricalModel.make(scenario, support))
    return models


def _leaves_kernel_by_labels(model, context_index, simplices):
    """The kernel-presheaf check on labelled sums, the reference for the
    int-key check: each value, restricted into the pinned context (to its
    total coefficient where the support misses it), must vanish.
    ``simplices`` lists each simplex's support labels and formal sum."""
    c0 = set(model.scenario.contexts[context_index])
    for labels, fs in simplices:
        inner = [x for x in labels if x in c0]
        if fs_restrict(fs, inner) if inner else sum(fs.values()):
            return True
    return False


def _eager_cocycle(ana, model, c0, s0):
    """The connecting cocycle built eagerly, the reference for the lazy
    one: the lift (each context's first section agreeing with s0 where it
    meets C0), a dense z = -A x_lift over every row of A, then the row
    tags of its nonzero rows, in row order."""
    contexts = model.scenario.contexts
    rhs = [0] * len(ana.rows)
    for j, ctx in enumerate(contexts):
        inner = [x for x in ctx if x in contexts[c0]]
        u = next(u for u, s in enumerate(model.sections[j])
                 if s.restrict(inner) == s0.restrict(inner))
        for side, sign in ana._incident[j]:
            rhs[side[u]] -= sign
    cocycle = {}
    for r, z in enumerate(rhs):
        if z:
            _k, i, j, t = ana.rows[r]
            cocycle.setdefault((i, j), {})[t] = z
    return cocycle


def test_row_keyed_kernel_check_and_lazy_cocycle_by_brute_force():
    """On 120 seeded random no-signalling models: the int-key kernel check
    agrees with the check on labelled sums for random 1-cochains supported
    on rows of A and random 0-cochains on section positions, and every
    section's lazily built cocycle equals the eager dense construction,
    insertion order included."""
    rng = random.Random(1703)
    models = _random_no_signalling_models(170, 120)
    assert {classify(m).kind for m in models} == {
        "noncontextual", "logically_contextual", "strongly_contextual"}
    leaves = stays = 0
    for model in models:
        ana = CechAnalyzer(model)
        nrows = len(ana.rows)
        for c0, secs0 in enumerate(model.sections):
            keys = ana._kernel_keys(c0)
            for _ in range(6):
                z = {r: rng.choice((-2, -1, 1, 2))
                     for r in rng.sample(range(nrows),
                                         rng.randint(0, min(nrows, 4)))}
                if z and rng.random() < 0.5:  # a balanced pair of rows
                    r = rng.choice(list(z))
                    same = [q for q in range(nrows)
                            if q != r and keys[q] == keys[r]]
                    if same:
                        z[rng.choice(same)] = -z[r]
                labelled = {}
                for r, v in z.items():
                    _k, i, j, t = ana.rows[r]
                    labelled.setdefault((i, j), {})[t] = v
                want = _leaves_kernel_by_labels(model, c0, [
                    (ana.pair_overlaps[pair], fs)
                    for pair, fs in labelled.items()])
                assert cech_module._nonzero_sums(keys, z.items()) == want
                leaves += want
                stays += not want
                potential = {}
                for j in rng.sample(range(len(model.sections)), 2):
                    n = len(model.sections[j])
                    potential[j] = {u: rng.choice((-1, 1))
                                    for u in rng.sample(range(n),
                                                        min(n, 2))}
                want = _leaves_kernel_by_labels(model, c0, [
                    (model.scenario.contexts[j],
                     {model.sections[j][u]: c for u, c in fs.items()})
                    for j, fs in potential.items()])
                assert ana._potential_leaves(c0, potential) == want
                leaves += want
                stays += not want
            for s0 in secs0:
                dec = ana.connecting_cocycle(c0, s0)
                assert repr(dec.cocycle) == repr(
                    _eager_cocycle(ana, model, c0, s0))
    assert leaves > 500 and stays > 500


def test_row_cores_reject_mutants(mermin, ghz):
    """The int-key kernel check fails on z built from a lift with the
    representative of one context other than the pinned one replaced by a
    section of another class (z is then nonzero on two rows of the pair
    it forms with the pinned context, whose overlap restricts to itself),
    and on z with one sign flipped.  The odd-row refutation audit fails on an
    odd-row mask with one refuter row flipped, and on a refuter with one
    row dropped or one row added, exactly when the mutant is no refuter:
    the rows it names must sum to zero in route 2's system and pair oddly
    with z."""
    models = [mermin.model, ghz.model] + _random_no_signalling_models(171, 40)
    wrong_lift = flipped_sign = flipped_odd = dropped = added = 0
    for model in models:
        ana = CechAnalyzer(model)
        for c0, secs0 in enumerate(model.sections):
            for s_pos, s0 in enumerate(secs0):
                dec = ana.connecting_cocycle(c0, s0)
                keys = ana._kernel_keys(c0)
                _basis, classes, parity = ana._route2_rows(c0)
                lift = [reps[key_c[s_pos]] for key_c, reps in classes]
                assert ana._delta((j, u, 1) for j, u in enumerate(lift)) \
                    == dec.z
                assert not cech_module._nonzero_sums(keys, dec.z.items())
                for j, (_key_c, reps) in enumerate(classes):
                    other = next((u for u in reps.values()
                                  if u != lift[j]), None)
                    if other is not None and j != c0:
                        bad = lift[:j] + [other] + lift[j + 1:]
                        z = ana._delta((k, u, 1) for k, u in enumerate(bad))
                        assert cech_module._nonzero_sums(keys, z.items())
                        wrong_lift += 1
                for r in list(dec.z)[:3]:
                    z = {**dec.z, r: -dec.z[r]}
                    assert cech_module._nonzero_sums(keys, z.items())
                    flipped_sign += 1
                cert = dec.certificate
                if cert is None or cert.kind != "parity":
                    continue
                row_of = _row_of(ana)
                rows = [row_of[tag] for tag in cert.rows]
                odd = cech_module._odd_mask(dec.z, len(ana.rows))
                ana._check_refuter(c0, rows, odd)

                def holds(rs, mask):
                    acc = 0
                    for r in rs:
                        acc ^= parity.rows[r]
                    return acc == 0 and sum(mask >> r & 1 for r in rs) % 2

                for r in rows:
                    with pytest.raises(InternalCheckError):
                        ana._check_refuter(c0, rows, odd ^ 1 << r)
                    flipped_odd += 1
                    rest = [q for q in rows if q != r]
                    if not holds(rest, odd):
                        with pytest.raises(InternalCheckError):
                            ana._check_refuter(c0, rest, odd)
                        dropped += 1
                for r in range(len(ana.rows)):
                    more = sorted(rows + [r])
                    if r not in rows and not holds(more, odd):
                        with pytest.raises(InternalCheckError):
                            ana._check_refuter(c0, more, odd)
                        added += 1
    assert min(wrong_lift, flipped_sign, flipped_odd, dropped, added) > 100


def _noncontextual_pauli_models(seed, count):
    """``count`` seeded Pauli closures whose every section extends."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        _n, gens = _random_generators(rng, cap=24)
        try:
            model = build_state_independent_model(gens).model
        except PreconditionError:
            continue
        if classify(model).kind == "noncontextual":
            models.append(model)
    return models


def test_queries_index_once_and_vanishing_queries_read_no_tags(
        monkeypatch):
    """Both routes on every section of 12 seeded noncontextual Pauli
    closures and 40 seeded random no-signalling models: each query looks
    its section up with ``EmpiricalModel.section_index`` once, before
    anything else, and a query that vanishes reads no row tag of A, so
    its family, kernel keys and audits run on section positions and int
    rows alone."""
    log = []
    real = EmpiricalModel.section_index

    def section_index(self, context_index, section):
        log.append("index")
        return real(self, context_index, section)

    class Tags(list):
        def __getitem__(self, r):
            log.append("tag")
            return super().__getitem__(r)

    monkeypatch.setattr(EmpiricalModel, "section_index", section_index)
    models = (_noncontextual_pauli_models(2601, 12)
              + _random_no_signalling_models(2602, 40))
    vanishing = {True: 0, False: 0}
    for model in models:
        ana = CechAnalyzer(model)
        ana.rows = Tags(ana.rows)
        for ci, secs in enumerate(model.sections):
            for s in secs:
                for query in (ana.family_obstruction, ana.connecting_cocycle):
                    log.clear()
                    dec = query(ci, s)
                    assert log[0] == "index" and log.count("index") == 1
                    if dec.vanishes:
                        assert log == ["index"]
                    vanishing[dec.vanishes] += 1
    assert vanishing[True] > 500 and vanishing[False] > 50


# --- Sections on int rows -------------------------------------------------------


def test_loaded_models_are_read_from_int_rows(hardy, mermin, ghz,
                                              monkeypatch):
    """Once a model is loaded, classification, the Cech set-up, the
    global-section shortcut, the no-signalling check and the affine
    theories read its int rows: none derives section values from labels.
    The audits restrict labelled sections on purpose and are not run.
    Fresh copies of the models, whose extension tables are not yet
    cached, make classification run its search here."""
    models = [EmpiricalModel.make(b.model.scenario, b.model.sections)
              for b in (hardy, mermin, ghz)]
    calls = []
    for name in ("restrict",):
        def counted(self, labels, _real=getattr(Section, name), _name=name):
            calls.append(_name)
            return _real(self, labels)
        monkeypatch.setattr(Section, name, counted)
    for model in models:
        classify(model)
        CechAnalyzer(model)
        check_no_signalling(model)
        theory_of(model)
    assert calls == []
    Section.of({"a": 0}).restrict(("a",))
    assert calls == ["restrict"]  # the hook itself counts


def _reference_violations(model):
    """No-signalling violations from sets of restricted ``Section``s."""
    out = []
    contexts = model.scenario.contexts
    for i, j in itertools.combinations(range(len(contexts)), 2):
        overlap = tuple(m for m in contexts[i] if m in contexts[j])
        if not overlap:
            continue
        left = {s.restrict(overlap) for s in model.sections[i]}
        right = {s.restrict(overlap) for s in model.sections[j]}
        if left != right:
            only_left = sorted(str(s) for s in left - right)
            only_right = sorted(str(s) for s in right - left)
            out.append(
                f"signalling between {contexts[i]} and {contexts[j]} on "
                f"{overlap}: only-left={only_left} only-right={only_right}")
    return tuple(out)


def _restricted_model(rng):
    """2-5 distinct contexts of 1-3 labels over at most 6 measurements,
    binary or ternary, whose sections are the restrictions of a few random
    global assignments (so no-signalling holds)."""
    d = rng.choice((2, 3))
    labels = [f"m{i}" for i in range(rng.randint(2, 6))]
    subsets = [c for k in (1, 2, 3)
               for c in itertools.combinations(labels, k)]
    contexts = rng.sample(subsets, rng.randint(2, min(5, len(subsets))))
    scenario = MeasurementScenario.make(labels, d, contexts)
    globals_ = [{m: rng.randrange(d) for m in labels}
                for _ in range(rng.randint(1, 4))]
    secs = [[Section.of({m: g[m] for m in ctx}) for g in globals_]
            for ctx in scenario.contexts]
    return scenario, secs


def test_pair_restrictions_match_section_restrictions():
    """check_no_signalling and the analyzer's set-up read one per-pair
    restriction; on random models, half made signalling by dropping one
    row, its violations equal, word for word, those of sets of restricted
    ``Section``s, and the set-up raises exactly when there are some."""
    rng = random.Random(7)
    signalling = 0
    for k in range(50):
        scenario, secs = _restricted_model(rng)
        if k % 2:
            wide = [ci for ci, ss in enumerate(secs) if len(set(ss)) > 1]
            if wide:
                ci = rng.choice(wide)
                drop = rng.choice(secs[ci])
                secs[ci] = [s for s in secs[ci] if s != drop]
        model = EmpiricalModel.make(scenario, secs)
        want = _reference_violations(model)
        assert check_no_signalling(model).violations == want
        if want:
            signalling += 1
            with pytest.raises(PreconditionError,
                               match="^model is signalling"):
                CechAnalyzer(model)
        else:
            ana = CechAnalyzer(model)
            for (i, j), labels in ana.pair_overlaps.items():
                for c in (i, j):
                    assert set(sections_below(model, labels)) == {
                        s.restrict(labels) for s in model.sections[c]}
    assert 5 <= signalling <= 25


def test_cech_errors_name_the_context_and_section(hardy, capsys,
                                                  monkeypatch):
    """An internal check that fails under either Cech query keeps its
    message and names the query's context index and section position,
    and the CLI prints them before the message.  The queries read a Hardy
    analyzer whose side table for the pair (0, 1) has two rows swapped,
    so that section 2 of context 0 restricts to the wrong row."""
    model = document_to_model(model_to_document(hardy.model))
    ana = model.cech_analyzer
    side = ana._side[(0, 1)]
    other = next(k for k, r in enumerate(side) if r != side[0])
    side[0], side[other] = side[other], side[0]
    s = model.sections[0][2]
    for query, message in ((ana.family_obstruction,
                            "family fails pair compatibility"),
                           (ana.connecting_cocycle,
                            "potential leaves the kernel presheaf")):
        with pytest.raises(InternalCheckError, match=message) as err:
            query(0, s)
        assert err.value.where == "context 0, section 2"
    monkeypatch.setattr(cli, "_load_source",
                        lambda _source: ("hardy", model, None))
    code = cli.main(["analyze", "hardy", "--cech", "--context", "0",
                     "--section", "2"])
    assert code == 3
    assert capsys.readouterr().err == (
        "internal invariant violated: context 0, section 2: family fails "
        "pair compatibility\n")
