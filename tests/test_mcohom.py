"""Monoid cohomology: bar differential, beta, coboundary decisions.

Ground truth comes from two hand-checkable quotients (the split group
Z3 x Z3 and the non-split extension Z9 of Z3, whose carry cocycle is
the textbook representative of a non-trivial class) plus brute-force
enumeration of candidate potentials on the small fixture quotient.
"""

import itertools
import json
import random

import pytest

import contextuality.mcohom as mcohom_module
import contextuality.pmonoid as pmonoid_module
from contextuality.cech import cross_check_obstructions
from contextuality.errors import PreconditionError, InternalCheckError
from contextuality.linalg import ModSolveResult
from contextuality.mcohom import (
    Cochain,
    CoboundarySolver,
    GroupObstructionAnalyzer,
    coboundary,
    group_obstruction,
    make_cochain,
    obstruction_cocycle,
    splitting_of_section,
    validate_structured_model,
)
from contextuality.modelio import loads_model
from contextuality.pauli import build_state_independent_model, parse_pauli
from contextuality.pmonoid import (
    CoefficientAction,
    PartialMonoid,
    StructuredModel,
    glue_contexts,
    quotient_by_action,
)
from contextuality.scenario import (
    EmpiricalModel,
    Section,
    global_sections,
    section_extends,
)

from _oracles import signed_pass_coboundary, validate_partial_monoid
from test_pauli import _random_generators


def _z9_quotient():
    els = [f"g{k}" for k in range(9)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % 9}"
             for i in range(9) for j in range(9)}
    m = PartialMonoid(els, "g0", table)
    return quotient_by_action(m, CoefficientAction((3,), ("g3",)))


def _z3xz3_quotient():
    els = [f"{u}{v}" for u in range(3) for v in range(3)]
    table = {
        (a, b): f"{(int(a[0]) + int(b[0])) % 3}{(int(a[1]) + int(b[1])) % 3}"
        for a in els for b in els}
    m = PartialMonoid(els, "00", table)
    return quotient_by_action(m, CoefficientAction((3,), ("10",)))


def _z2cubed_quotient():
    """Z2^3 modulo the Z2 x Z2 on its first two bits: two cyclic factors."""
    els = [f"{a}{b}{c}" for a in range(2) for b in range(2) for c in range(2)]
    table = {(x, y): "".join(str((int(u) + int(v)) % 2)
                             for u, v in zip(x, y))
             for x in els for y in els}
    m = PartialMonoid(els, "000", table)
    return quotient_by_action(m, CoefficientAction((2, 2), ("100", "010")))


def _mermin_quotient(mermin):
    """The quotient of a fixture's glued monoid (mermin's, or any other)."""
    mon = glue_contexts(mermin.structured)
    return quotient_by_action(mon, mermin.structured.action)


# --- Bar complex -------------------------------------------------------------


def test_composable_tuples_degrees(mermin):
    q = _mermin_quotient(mermin)
    mon = q.monoid
    assert mon.composable(0) == [()]
    assert mon.composable(1) == [(x,) for x in mon.elements]
    assert mon.composable(2) == [
        (mon.elements[x], mon.elements[y]) for x, y, _ in zip(*mon.pairs())]
    assert mon.composable(3) == mon.composable_triples()
    with pytest.raises(PreconditionError):
        mon.composable(4)
    # weak associativity: both bracketings defined
    for x, y, z in mon.composable_triples():
        assert mon.defined(x, y) and mon.defined(mon.add(x, y), z)
        assert mon.defined(y, z) and mon.defined(x, mon.add(y, z))


def test_make_cochain_rejections(mermin):
    q = _mermin_quotient(mermin)
    mon = q.monoid
    with pytest.raises(PreconditionError):
        make_cochain(mon, (2,), 2, {("[+II]", "nope"): (1,)})
    with pytest.raises(PreconditionError):
        make_cochain(mon, (2,), 1, {("[+XX]",): (1, 0)})
    c = make_cochain(mon, (2,), 1, {("[+XX]",): (2,)})
    assert c.values == {}  # reduced mod 2 to zero and dropped


def test_coboundary_formula_by_hand():
    q = _z9_quotient()
    mon = q.monoid
    f = make_cochain(mon, (3,), 1, {(x,): (i,) for i, x in
                                    enumerate(mon.elements)})
    df = coboundary(f)
    for a, b in mon.composable(2):
        want = (f.value((b,))[0] - f.value((mon.add(a, b),))[0]
                + f.value((a,))[0]) % 3
        assert df.value((a, b)) == (want,)


def test_d_after_d_is_zero_random(mermin):
    rng = random.Random(77)
    quotients = [_mermin_quotient(mermin), _z9_quotient(), _z3xz3_quotient(),
                 _z2cubed_quotient()]
    for _ in range(60):
        q = rng.choice(quotients)
        mon = q.monoid
        moduli = q.action.moduli
        for deg in (0, 1):  # the materialised complex spans degrees 0..3
            tuples = mon.composable(deg)
            vals = {t: tuple(rng.randrange(d) for d in moduli)
                    for t in rng.sample(tuples, k=min(len(tuples), 6))}
            c = make_cochain(mon, moduli, deg, vals)
            dd = coboundary(coboundary(c))
            assert not dd.values


def test_degree_two_coboundary_formula_by_hand(mermin):
    """d beta(x, y, z) = beta(y, z) - beta(x + y, z) + beta(x, y + z)
    - beta(x, y) on every composable triple, for random 2-cochains that
    are not cocycles, with one and with several cyclic factors."""
    rng = random.Random(2024)
    quotients = [_mermin_quotient(mermin), _z9_quotient(), _z3xz3_quotient(),
                 _z2cubed_quotient()]
    non_cocycles = 0
    for _ in range(60):
        q = rng.choice(quotients)
        mon = q.monoid
        moduli = rng.choice([q.action.moduli, (2, 3), (4, 9, 2)])
        pairs = mon.composable(2)
        vals = {t: tuple(rng.randrange(d) for d in moduli)
                for t in rng.sample(pairs, k=min(len(pairs), 8))}
        beta = make_cochain(mon, moduli, 2, vals)
        d_beta = coboundary(beta)
        assert d_beta.degree == 3 and d_beta.moduli == moduli
        triples = mon.composable(3)
        assert set(d_beta.values) <= set(triples)
        for x, y, z in triples:
            want = tuple(
                (beta.value((y, z))[k] - beta.value((mon.add(x, y), z))[k]
                 + beta.value((x, mon.add(y, z)))[k]
                 - beta.value((x, y))[k]) % d
                for k, d in enumerate(moduli))
            assert d_beta.value((x, y, z)) == want
        non_cocycles += bool(d_beta.values)
    assert non_cocycles >= 50


def test_coboundary_matches_signed_pass_reference(mermin, ghz):
    """The one-pass bar differential gives the columns of the signed-pass
    reference (``_oracles.signed_pass_coboundary``) on seeded random
    cochains of degrees 0-2, for moduli 2, 3, 4, 6, 9 and the pair (6, 9),
    with reduced values and with unreduced, negative ones, on the mermin,
    ghz and Z9 monoids and their quotients."""
    rng = random.Random(41)
    monoids = []
    for q in [_mermin_quotient(mermin), _mermin_quotient(ghz),
              _z9_quotient()]:
        monoids += [q.parent, q.monoid]
    checked = 0
    for mon in monoids:
        for degree in (0, 1, 2):
            for moduli in ((2,), (3,), (4,), (6,), (9,), (6, 9)):
                for reduced in (True, False):
                    cols = [[rng.randrange(d) if reduced
                             else rng.randrange(-3 * d, 3 * d)
                             for _ in range(mon.count(degree))]
                            for d in moduli]
                    c = Cochain.of_columns(mon, moduli, degree, cols)
                    got = coboundary(c)
                    assert (got.degree, got.moduli) == (degree + 1, moduli)
                    assert got.columns == signed_pass_coboundary(c)
                    checked += 1
    assert checked == 6 * 3 * 6 * 2


def test_coboundary_rejects_values_off_the_composable_tuples(mermin):
    mon = _mermin_quotient(mermin).monoid
    apart = next((x, y) for x in mon.elements for y in mon.elements
                 if not mon.defined(x, y))
    for key in (apart, ("[+II]", "nope"), ("[+II]",)):
        with pytest.raises(PreconditionError):
            coboundary(Cochain(mon, (2,), 2, {key: (1,)}))
    with pytest.raises(PreconditionError):
        coboundary(Cochain(mon, (2,), 1, {(mon.elements[1],): (1, 0)}))


# --- Obstruction cocycles -------------------------------------------------------


def test_z9_carry_cocycle_not_a_coboundary():
    q = _z9_quotient()
    ctx = ("g0", "g3", "g6")
    s = {"g0": (0,), "g3": (1,), "g6": (2,)}
    ob = obstruction_cocycle(q, ctx, s)
    # the representative map eta is forced to g0 inside and defaults to
    # the least member outside, making beta the carry of base-3 addition
    assert ob.eta == {"[g0]": "g0", "[g1]": "g1", "[g2]": "g2"}
    assert ob.beta.value(("[g1]", "[g2]")) == (1,)
    assert ob.beta.value(("[g1]", "[g1]")) == (0,)
    assert ob.beta.value(("[g2]", "[g2]")) == (1,)
    dec = CoboundarySolver(q, ob.relative_orbits).decide(ob.beta)
    assert not dec.vanishes and dec.gamma is None
    assert dec.certificates
    # brute force: no relative 1-cochain bounds the carry
    free = [x for x in q.monoid.elements if x not in ob.relative_orbits]
    for vals in itertools.product(range(3), repeat=len(free)):
        g = dict(zip(free, vals))
        g.update({x: 0 for x in ob.relative_orbits})
        ok = all(
            (g[b] - g[q.monoid.add(a, b)] + g[a]) % 3
            == ob.beta.value((a, b))[0]
            for a, b in q.monoid.composable(2))
        assert not ok


def test_z3xz3_splits():
    q = _z3xz3_quotient()
    ctx = ("00", "10", "20")
    s = {"00": (0,), "10": (1,), "20": (2,)}
    ob = obstruction_cocycle(q, ctx, s)
    dec = CoboundarySolver(q, ob.relative_orbits).decide(ob.beta)
    assert dec.vanishes and dec.gamma is not None
    # gamma really bounds beta and is relative
    for x in ob.relative_orbits:
        assert dec.gamma[x] == (0,)
    for a, b in q.monoid.composable(2):
        want = ob.beta.value((a, b))[0]
        got = (dec.gamma[b][0] - dec.gamma[q.monoid.add(a, b)][0]
               + dec.gamma[a][0]) % 3
        assert got == want


def test_obstruction_rejects_bad_splitting():
    q = _z9_quotient()
    with pytest.raises(PreconditionError):
        obstruction_cocycle(q, ("g0", "g3", "g6"),
                            {"g0": (0,), "g3": (2,), "g6": (1,)})
    with pytest.raises(PreconditionError):
        obstruction_cocycle(
            q, ("g0", "g3", "g6"), {"g0": (0,), "g3": (1,), "g6": (2,)},
            eta_override={"[g1]": "g2"})


def test_mermin_sections_all_obstructed(mermin, mermin_group):
    st = mermin.structured
    count = 0
    for ci, ctx in enumerate(st.model.scenario.contexts):
        for sec in st.model.sections[ci]:
            rep = mermin_group.analyze(ci, sec)
            assert not rep.vanishes
            assert rep.global_splitting is None
            assert rep.decision.certificates
            count += 1
    assert count == 24


def _report_key(report):
    ob, dec = report.obstruction, report.decision
    return (ob.eta_ids, ob.beta.columns, ob.inside, dec.vanishes,
            dec.gamma_ids, dec.certificates, report.global_splitting)


def test_shared_group_analyzer_answers_like_fresh_ones(mermin):
    """One analyzer, whose obstruction frames and coboundary solvers serve
    every later section of their context, queried in reverse section
    order agrees with a fresh analyzer per query: eta, beta, gamma, the
    certificates and the global splitting, also after a query on each
    context that overrode every free representative.  The models are
    mermin and 30 seeded Pauli models, some of whose sections vanish."""
    rng = random.Random(113)
    models = [mermin.structured]
    while len(models) < 31:
        _n, gens = _random_generators(rng, cap=24)
        try:
            models.append(build_state_independent_model(gens))
        except PreconditionError:
            continue
    vanishing = 0
    for st in models:
        shared = GroupObstructionAnalyzer(st)
        q = shared.quotient
        for ci, secs in enumerate(st.model.sections):
            inside = shared.analyze(ci, secs[0]).obstruction.relative_orbits
            shared.analyze(ci, secs[0], eta_override={
                o: q.members(o)[-1] for o in q.monoid.elements
                if o not in inside})
        queries = [(ci, s) for ci, secs in enumerate(st.model.sections)
                   for s in secs]
        for ci, s in reversed(queries):
            got = shared.analyze(ci, s)
            want = GroupObstructionAnalyzer(st).analyze(ci, s)
            assert _report_key(got) == _report_key(want)
            vanishing += got.vanishes
    assert vanishing >= 30


def test_mermin_verdicts_match_brute_force(mermin, mermin_group):
    st = mermin.structured
    quotient = _mermin_quotient(mermin)
    mon = quotient.monoid
    for ci, ctx in enumerate(st.model.scenario.contexts):
        sec = st.model.sections[ci][0]
        s = splitting_of_section(sec, ctx, st.action)
        ob = obstruction_cocycle(quotient, ctx, s)
        free = [x for x in mon.elements if x not in ob.relative_orbits]
        brute = False
        for vals in itertools.product(range(2), repeat=len(free)):
            g = dict(zip(free, vals))
            g.update({x: 0 for x in ob.relative_orbits})
            if all((g[b] - g[mon.add(a, b)] + g[a]) % 2
                   == ob.beta.value((a, b))[0]
                   for a, b in mon.composable(2)):
                brute = True
                break
        dec = CoboundarySolver(quotient, ob.relative_orbits).decide(ob.beta)
        assert dec.vanishes == brute == False  # noqa: E712


def test_eta_override_invariance(mermin):
    rng = random.Random(13)
    st = mermin.structured
    quotient = _mermin_quotient(mermin)
    ctx = st.model.scenario.contexts[0]
    sec = st.model.sections[0][0]
    s = splitting_of_section(sec, ctx, st.action)
    base = obstruction_cocycle(quotient, ctx, s)
    solver = CoboundarySolver(quotient, base.relative_orbits)
    verdict = solver.decide(base.beta).vanishes
    free = [x for x in quotient.monoid.elements
            if x not in base.relative_orbits]
    for _ in range(10):
        override = {x: rng.choice(quotient.members(x)) for x in free}
        ob = obstruction_cocycle(quotient, ctx, s, eta_override=override)
        assert solver.decide(ob.beta).vanishes == verdict
        # the two cocycles differ by a coboundary: their difference is
        # bounded by the relative 1-cochain measuring the eta shift
        diff = {
            t: ((ob.beta.value(t)[0] - base.beta.value(t)[0]) % 2,)
            for t in quotient.monoid.composable(2)}
        shift = {}
        for x in quotient.monoid.elements:
            shift[x] = quotient.value_at(ob.eta[x], base.eta[x])
        for a, b in quotient.monoid.composable(2):
            want = (shift[b][0] - shift[quotient.monoid.add(a, b)][0]
                    + shift[a][0]) % 2
            assert diff[(a, b)][0] == want


# --- Structured-model validation and reconstruction -----------------------------


def test_validate_structured_models(mermin, ghz):
    assert validate_structured_model(mermin.structured).ok
    assert validate_structured_model(ghz.structured).ok


def test_validate_structured_model_violations(mermin):
    st = mermin.structured
    wrong_action = StructuredModel(
        st.model, st.context_ops, CoefficientAction((4,), ("-II",)))
    rep = validate_structured_model(wrong_action)
    assert not rep.ok
    # corrupt one section so it is no longer a homomorphism
    secs = [list(rows) for rows in st.model.sections]
    broken = secs[0][0].as_dict()
    broken["+II"] = 1
    secs[0][0] = Section.of(broken)
    bad_model = EmpiricalModel.make(st.model.scenario, secs)
    rep2 = validate_structured_model(
        StructuredModel(bad_model, st.context_ops, st.action))
    assert not rep2.ok


def twisted_document(twists=(0, 0, 0, 1), rng=None):
    """Four Z_2^3 contexts glued along {e, m}: <m, x, y> with x + y = p,
    <m, p, z> with p + z = q, <m, y, z> with y + z = r and <m, x, r> with
    x + r = q, where ``twists[k]`` multiplies the k-th product by m.  Each
    context is a group; (x + y) + z = x + (y + z) only for even twists.
    Z_2 acts through m and every splitting is a section.  ``rng``
    shuffles the measurements, which moves each orbit's least member."""
    gens = [("x", "y", "p"), ("p", "z", "q"), ("y", "z", "r"),
            ("x", "r", "q")]
    meas = ["e", "m"] + [pre + g for g in "xypzqr" for pre in ("", "m")]
    if rng is not None:
        rng.shuffle(meas)
    els = list(itertools.product((0, 1), repeat=3))
    contexts, tables, sections = [], [], {}
    for ci, ((g1, g2, g3), t) in enumerate(zip(gens, twists)):
        def label(a, b, c):
            base = g3 if b and c else g1 if b else g2 if c else ""
            a ^= t if b and c else 0
            return ("m" if a else "") + base or "e"
        contexts.append([label(*u) for u in els])
        tables.append([[label(*u), label(*v),
                        label(*(i ^ j for i, j in zip(u, v)))]
                       for u in els for v in els])
        sections[str(ci)] = [[(a + s * b + w * c) % 2 for a, b, c in els]
                             for s in (0, 1) for w in (0, 1)]
    return {"measurements": meas, "outcome_modulus": 2,
            "contexts": contexts, "sections": sections,
            "partial_monoid": {"contexts": tables,
                               "action": {"moduli": [2], "images": ["m"]}}}


def test_cross_context_associativity_agrees_with_the_oracle():
    """Glued monoids associative in each context, twisted or not across
    contexts: validation reports a triple exactly when the exhaustive
    axiom check finds one, and the group route refuses a twisted monoid
    as bad input, not as a broken invariant."""
    rng = random.Random(1607)
    verdicts = set()
    for _ in range(12):
        twists = [rng.randrange(2) for _ in range(4)]
        st = loads_model(json.dumps(twisted_document(twists, rng)))
        want = [v for v in validate_partial_monoid(
            glue_contexts(st)).violations if "associativity" in v]
        report = validate_structured_model(st)
        verdicts.add(report.ok)
        assert report.ok == (not want) == (sum(twists) % 2 == 0)
        if report.ok:
            assert cross_check_obstructions(st).consistent
            continue
        (bad,) = report.violations
        triple = bad.split(" at ")[1].split(":")[0]
        assert f"associativity fails at {triple}" in want
        with pytest.raises(PreconditionError, match="not associative"):
            GroupObstructionAnalyzer(st).analyze(0, st.model.sections[0][0])
    assert verdicts == {True, False}


def test_noncontextual_reconstruction():
    st = build_state_independent_model(
        [parse_pauli(s) for s in ("+X", "+Z", "-I")])
    model = st.model
    assert len(model.scenario.contexts) == 2
    assert validate_structured_model(st).ok
    ana = GroupObstructionAnalyzer(st)
    for ci, ctx in enumerate(model.scenario.contexts):
        for sec in model.sections[ci]:
            rep = ana.analyze(ci, sec)
            assert rep.vanishes
            g = rep.global_splitting
            assert g is not None
            # extends the section and restricts into every context
            assert all(g[x] == sec[x] for x in ctx)
            gsec = Section.of(g)
            for cj, other in enumerate(model.scenario.contexts):
                assert section_extends(
                    model, cj, gsec.restrict(other))
    # the one-shot helper agrees
    rep = group_obstruction(st, 0, model.sections[0][0])
    assert rep.vanishes


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyzer_glues_and_quotients_once(mermin, monkeypatch):
    """Set-up keeps the glued monoid and quotient its validation built."""
    glued = _counted(monkeypatch, mcohom_module, "glue_contexts")
    quotients = _counted(monkeypatch, mcohom_module, "quotient_by_action")
    ana = GroupObstructionAnalyzer(mermin.structured)
    assert len(glued) == 1 and len(quotients) == 1
    assert ana.monoid is ana.quotient.parent


def test_splittings_are_validated_once_at_set_up(mermin, monkeypatch):
    """Every section's splitting is validated by set-up and not again by
    ``analyze``; the public ``obstruction_cocycle`` still validates."""
    checked = _counted(monkeypatch, mcohom_module, "validate_splitting")
    model = mermin.model
    ana = GroupObstructionAnalyzer(mermin.structured)
    assert len(checked) == sum(len(secs) for secs in model.sections)
    checked.clear()
    for ci, secs in enumerate(model.sections):
        for s in secs:
            ana.analyze(ci, s)
    assert checked == []
    ctx = model.scenario.contexts[0]
    sp = splitting_of_section(model.sections[0][0], ctx,
                              mermin.structured.action)
    obstruction_cocycle(ana.quotient, ctx, sp)
    assert len(checked) == 1


def test_reconstruction_validates_the_trivialisation_once(monkeypatch):
    st = build_state_independent_model(
        [parse_pauli(s) for s in ("+X", "+Z", "-I")])
    ana = GroupObstructionAnalyzer(st)
    checked = _counted(monkeypatch, pmonoid_module, "_require_trivialisation")
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            checked.clear()
            assert ana.analyze(ci, s).global_splitting is not None
            assert len(checked) == 1


def test_analyzer_rejects_foreign_section(mermin, mermin_group):
    with pytest.raises(PreconditionError):
        mermin_group.analyze(0, Section.of({"zz": 0}))
    with pytest.raises(PreconditionError):
        mermin_group.analyze(99, mermin.model.sections[0][0])


def test_coboundary_solver_rejects_non_symmetric(mermin):
    """A cochain moved on one kept pair but not on its mirror fails the
    symmetry audit; moved on a pair inside the context block, it fails
    the relative audit first."""
    quotient = _mermin_quotient(mermin)
    st = mermin.structured
    ctx = st.model.scenario.contexts[0]
    sec = st.model.sections[0][0]
    ob = obstruction_cocycle(quotient, ctx, splitting_of_section(
        sec, ctx, st.action))
    solver = CoboundarySolver(quotient, ob.relative_orbits)

    def moved(t):
        vals = dict(ob.beta.values)
        vals[t] = ((vals.get(t, (0,))[0] + 1) % 2,)
        return make_cochain(quotient.monoid, (2,), 2, vals)

    mon, rel = quotient.monoid, ob.relative_orbits
    kept = next(t for t in mon.composable(2)
                if t[0] != t[1] and not {*t, mon.add(*t)} <= rel)
    with pytest.raises(InternalCheckError, match="not symmetric"):
        solver.decide(moved(kept))
    inside = next(t for t in mon.composable(2)
                  if t[0] != t[1] and {*t, mon.add(*t)} <= rel)
    with pytest.raises(InternalCheckError, match="not relative"):
        solver.decide(moved(inside))


def test_group_route_rejects_input_it_cannot_use(mermin):
    """A relative orbit name that is no orbit, and an eta override keyed by
    no orbit or by an orbit inside the context, where the representative
    is forced, are precondition errors, not silently dropped."""
    quotient = _mermin_quotient(mermin)
    st = mermin.structured
    ctx = st.model.scenario.contexts[0]
    sec = st.model.sections[0][0]
    sp = splitting_of_section(sec, ctx, st.action)
    inside = sorted(obstruction_cocycle(quotient, ctx, sp).relative_orbits)
    with pytest.raises(PreconditionError, match="is not an orbit"):
        CoboundarySolver(quotient, inside + ["+XX"])
    forced = inside[-1]
    ana = GroupObstructionAnalyzer(st)
    for override, message in (
            ({"[nope]": "+II"}, "names no orbit outside"),
            ({"+XX": "+XX"}, "names no orbit outside"),
            ({forced: quotient.members(forced)[1]}, "names no orbit outside")):
        with pytest.raises(PreconditionError, match=message):
            obstruction_cocycle(quotient, ctx, sp, eta_override=override)
        with pytest.raises(PreconditionError, match=message):
            ana.analyze(0, sec, eta_override=override)


_AUDITED = "beta is not a 2-cocycle|beta does not vanish on the context block"


def test_obstruction_audits_catch_a_tampered_value_table(mermin):
    """Each value-table entry that beta reads, changed to the other group
    element, makes the next query fail the block check or the 2-cocycle
    audit; each audit fires on some entry."""
    st = mermin.structured
    fired = set()
    for ci, secs in enumerate(st.model.sections):
        ana = GroupObstructionAnalyzer(st)
        q = ana.quotient
        n = q.parent.size
        eta = ana.analyze(ci, secs[0]).obstruction.eta_ids
        qx, qy, qz = q.monoid.pairs()
        for a, b, c in zip(qx, qy, qz):
            k = q.parent.sums[eta[a] * n + eta[b]] * n + eta[c]
            q.value_table[k] ^= 1
            with pytest.raises(InternalCheckError, match=_AUDITED) as err:
                ana.analyze(ci, secs[0])
            fired.add(str(err.value))
            q.value_table[k] ^= 1
    assert fired == set(_AUDITED.split("|"))


def _split_model():
    """A noncontextual two-context model: every section vanishes, and each
    orbit outside a context composes with an orbit other than itself and
    the identity's, so no single orbit's indicator is a 1-cocycle."""
    return build_state_independent_model(
        [parse_pauli(s) for s in ("+XI", "+IX", "+ZI", "-II")])


def test_decide_catches_a_tampered_gamma(monkeypatch):
    """A coboundary witness with one coordinate moved by 1 no longer bounds
    beta, and ``decide`` says so, on every coordinate of every section."""
    st = _split_model()
    real = mcohom_module.ModSystem
    moved = []

    class Tampered(real):
        def solve(self, rhs):
            res = real.solve(self, rhs)
            w = list(res.witness)
            w[moved[-1]] = (w[moved[-1]] + 1) % self.modulus
            return ModSolveResult(True, tuple(w), None)

    free = {}
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            report = GroupObstructionAnalyzer(st).analyze(ci, s)
            assert report.vanishes
            free[ci, s] = (report.obstruction.quotient.monoid.size
                           - len(report.obstruction.relative_orbits))
    monkeypatch.setattr(mcohom_module, "ModSystem", Tampered)
    tampered = 0
    for (ci, s), unknowns in free.items():
        ana = GroupObstructionAnalyzer(st)
        for j in range(unknowns):
            moved.append(j)
            with pytest.raises(InternalCheckError,
                               match="gamma does not bound beta"):
                ana.analyze(ci, s)
            tampered += 1
    assert tampered == 16


def test_reconstruction_catches_a_tampered_action_table():
    """Each action-table entry that the reconstruction reads, moved to a
    member of another orbit, makes h fail to be a section of the quotient
    map, and the query is refused."""
    st = _split_model()
    tampered = 0
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            ana = GroupObstructionAnalyzer(st)
            report = ana.analyze(ci, s)
            q = ana.quotient
            n = q.parent.size
            for a, x in zip(report.decision.gamma_ids,
                            report.obstruction.eta_ids):
                k = a * n + x
                real = q.act_table[k]
                q.act_table[k] = next(y for y in range(n)
                                      if q.orbit_ids[y] != q.orbit_ids[real])
                with pytest.raises(PreconditionError,
                                   match="not a right splitting: not a "
                                         "section"):
                    ana.analyze(ci, s)
                q.act_table[k] = real
                tampered += 1
    assert tampered == 8 * 6
