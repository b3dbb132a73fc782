"""Monoid cohomology: bar differential, beta, coboundary decisions.

Ground truth comes from two hand-checkable quotients (the split group
Z3 x Z3 and the non-split extension Z9 of Z3, whose carry cocycle is
the textbook representative of a non-trivial class) plus brute-force
enumeration of candidate potentials on the small fixture quotient.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import contextuality.cech as cech_module
import contextuality.cli as cli_module
import contextuality.mcohom as mcohom_module
import contextuality.pmonoid as pmonoid_module
from contextuality.cech import (
    cech_obstruction_vanishes,
    collapse_family,
    connecting_cocycle,
    cross_check_obstructions,
)
from contextuality.errors import (
    InternalCheckError,
    PreconditionError,
    StructureError,
)
from contextuality.linalg import ModSolveResult
from contextuality.mcohom import (
    Cochain,
    CoboundaryDecision,
    CoboundarySolver,
    GroupObstructionAnalyzer,
    coboundary,
    group_obstruction,
    make_cochain,
    obstruction_cocycle,
    validate_structured_model,
)
from contextuality.modelio import dumps_model, loads_model
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
    classify,
    global_sections,
    section_extends,
)

from _oracles import (
    signed_pass_coboundary,
    splitting_of_section,
    validate_partial_monoid,
)
from test_cech import _audit_family, _audit_route1_certificate, _audit_route2
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
                    c = Cochain(mon, moduli, degree, cols)
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
            coboundary(make_cochain(mon, (2,), 2, {key: (1,)}))
    with pytest.raises(PreconditionError):
        coboundary(make_cochain(mon, (2,), 1, {(mon.elements[1],): (1, 0)}))
    # a dict handed to the constructor is refused, not read as columns
    with pytest.raises(PreconditionError, match="column per modulus"):
        Cochain(mon, (2,), 1, {(mon.elements[1],): (1,)})


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


def test_validate_structured_model_names_a_section_that_is_no_splitting():
    """One row of an untwisted document moved off the splittings at m:
    the report names the section, its context, every pair where the
    homomorphism law fails and the unretracted embedding, in that order."""
    doc = twisted_document((0, 0, 0, 0))
    doc["sections"]["0"][0][4] ^= 1  # the outcome at m
    rep = validate_structured_model(loads_model(json.dumps(doc)))
    pairs = [("m", "x"), ("m", "mx"), ("m", "y"), ("m", "my"), ("m", "p"),
             ("m", "mp"), ("x", "m"), ("x", "mx"), ("mx", "m"), ("mx", "x"),
             ("y", "m"), ("y", "my"), ("my", "m"), ("my", "y"), ("p", "m"),
             ("p", "mp"), ("mp", "m"), ("mp", "p")]
    assert rep.violations == (
        "section {e:0, m:0, mp:1, mx:1, my:1, p:0, x:0, y:0} of context 0 "
        "is not a splitting: "
        + "; ".join(f"not a homomorphism at {pair}" for pair in pairs)
        + "; does not retract the embedding at i((1,))",)


def twisted_document(twists=(0, 0, 0, 1), rng=None, last="q"):
    """Four Z_2^3 contexts glued along {e, m}: <m, x, y> with x + y = p,
    <m, p, z> with p + z = q, <m, y, z> with y + z = r and <m, x, r> with
    x + r = ``last``, where ``twists[k]`` multiplies the k-th product by m.
    Each context is a group; with ``last`` = q, (x + y) + z = x + (y + z)
    only for even twists, and with a new label the quotient is not
    associative either.  Z_2 acts through m and every splitting is a
    section.  ``rng`` shuffles the measurements, which moves each orbit's
    least member."""
    gens = [("x", "y", "p"), ("p", "z", "q"), ("y", "z", "r"),
            ("x", "r", last)]
    meas = ["e", "m"] + [pre + g for g in dict.fromkeys("xypzqr" + last)
                         for pre in ("", "m")]
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


def bell_document(d, support):
    """The structured Bell document at outcome modulus d: contexts (i, j)
    for i, j in {0, 1}, each the group Z_d^3 of the measurements
    m^u a_i^p b_j^q (the identity is e), glued along the shared
    measurements m^u a_i^p and m^u b_j^q.  A section with outcomes
    (x, y) for (a_i, b_j) reads u + p x + q y; ``support(i, j)`` lists the
    allowed (x, y).  Z_d acts through m."""
    def part(name, k):
        return "" if not k else name if k == 1 else f"{name}^{k}"

    def label(i, j, u, p, q):
        return (part("m", u) + part(f"a{i}", p) + part(f"b{j}", q)) or "e"

    els = list(itertools.product(range(d), repeat=3))
    meas, contexts, tables, sections = {}, [], [], {}
    for ci, (i, j) in enumerate(itertools.product((0, 1), repeat=2)):
        contexts.append([label(i, j, *e) for e in els])
        meas.update(dict.fromkeys(contexts[-1]))
        tables.append([[label(i, j, *e), label(i, j, *f),
                        label(i, j, *((a + b) % d for a, b in zip(e, f)))]
                       for e in els for f in els])
        sections[str(ci)] = [[(u + p * x + q * y) % d for u, p, q in els]
                             for x, y in support(i, j)]
    return {"measurements": list(meas), "outcome_modulus": d,
            "contexts": contexts, "sections": sections,
            "partial_monoid": {"contexts": tables,
                               "action": {"moduli": [d], "images": ["m"]}}}


def pr_box(d):
    """The Z_d PR box: y = x + ij."""
    return lambda i, j: [(x, (x + i * j) % d) for x in range(d)]


def local_support(d):
    """Every outcome pair at every context."""
    return lambda i, j: list(itertools.product(range(d), repeat=2))


def hardy_support(i, j):
    """Hardy's support at d = 2: (0, 0) is impossible at (0, 1) and
    (1, 0), (1, 1) at (1, 1), so (0, 0) at (0, 0) does not extend."""
    ruled_out = {(0, 0): None, (0, 1): (0, 0), (1, 0): (0, 0),
                 (1, 1): (1, 1)}[i, j]
    return [xy for xy in itertools.product((0, 1), repeat=2)
            if xy != ruled_out]


def bell_model(d, support):
    return loads_model(json.dumps(bell_document(d, support)))


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


def test_non_associative_quotient_is_refused_at_construction():
    """With x + r = s, a new label, the quotient is not associative:
    (x + y) + z = q but x + (y + z) = s.  Validation reports the triple
    once, and the analyzer refuses the model as bad input when it builds
    the quotient, before any query, and again on every later attempt."""
    st = loads_model(json.dumps(twisted_document((0, 0, 0, 0), last="s")))
    message = ("not associative at ('x', 'y', 'z'): (x + y) + z = 'q', "
               "x + (y + z) = 's'")
    (bad,) = validate_structured_model(st).violations
    assert message in bad
    for _ in range(2):
        with pytest.raises(PreconditionError) as exc:
            GroupObstructionAnalyzer(st)
        assert message in str(exc.value)
        with pytest.raises(PreconditionError) as exc:
            st.group_analyzer
        assert message in str(exc.value)


@pytest.mark.parametrize("twists, last, right", [((0, 0, 0, 1), "q", "mq"),
                                                 ((0, 0, 0, 0), "s", "s")])
def test_no_quotient_of_a_non_associative_glued_monoid(twists, last, right):
    """Whether the quotient's own bracketings agree (x + r = q twisted by
    m) or not (x + r = s), a glued monoid that is not associative across
    contexts has no quotient, so no group door returns a verdict on it."""
    st = loads_model(json.dumps(twisted_document(twists, last=last)))
    message = ("glued monoid not associative at ('x', 'y', 'z'): "
               f"(x + y) + z = 'q', x + (y + z) = '{right}'")
    with pytest.raises(StructureError) as exc:
        quotient_by_action(glue_contexts(st), st.action)
    assert str(exc.value) == message
    for ci, sections in enumerate(st.model.sections):
        for s in sections:
            with pytest.raises(PreconditionError) as exc:
                group_obstruction(st, ci, s)
            assert message in str(exc.value)
    with pytest.raises(PreconditionError) as exc:
        cross_check_obstructions(st)
    assert message in str(exc.value)


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
    checked = _counted(monkeypatch, mcohom_module, "splitting_violations")
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
    """A PR-box section extends to no global section, so its query solves
    and reconstructs, and validates the trivialisation once; a section
    through a global section takes the shortcut and reconstructs
    nothing."""
    st = bell_model(2, pr_box(2))
    ana = GroupObstructionAnalyzer(st)
    checked = _counted(monkeypatch, pmonoid_module, "_require_trivialisation")
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            checked.clear()
            assert ana.analyze(ci, s).global_splitting is not None
            assert len(checked) == 1
    st = build_state_independent_model(
        [parse_pauli(s) for s in ("+X", "+Z", "-I")])
    ana = GroupObstructionAnalyzer(st)
    checked.clear()
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            assert ana.analyze(ci, s).global_splitting is not None
    assert checked == []


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


def test_decide_catches_a_tampered_gamma(monkeypatch):
    """A coboundary witness with one coordinate moved by 1 no longer bounds
    beta, and ``decide`` says so, on every coordinate of every section of
    the binary PR box, whose sections all vanish and none extends, so
    each is solved: every orbit outside a context composes with an orbit
    other than itself and the identity's, so no single orbit's indicator
    is a 1-cocycle."""
    st = bell_model(2, pr_box(2))
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
    assert tampered == 8 * 5


def test_reconstruction_catches_a_tampered_action_table():
    """Each action-table entry that the reconstruction reads, -gamma(q)
    acting on eta(q), moved to a member of another orbit, makes h fail to
    be a section of the quotient map, and the query is refused; the
    binary PR box's sections are all reconstructed."""
    st = bell_model(2, pr_box(2))
    tampered = 0
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            ana = GroupObstructionAnalyzer(st)
            report = ana.analyze(ci, s)
            q = ana.quotient
            n, order = q.parent.size, len(q.embedding)
            for a, x in zip(report.decision.gamma_ids,
                            report.obstruction.eta_ids):
                minus = q.group_sums[a * order:(a + 1) * order].index(0)
                k = minus * n + x
                real = q.act_table[k]
                q.act_table[k] = next(y for y in range(n)
                                      if q.orbit_ids[y] != q.orbit_ids[real])
                with pytest.raises(PreconditionError,
                                   match="not a right splitting: not a "
                                         "section"):
                    ana.analyze(ci, s)
                q.act_table[k] = real
                tampered += 1
    assert tampered == 8 * 9


# --- Structured Bell documents and the global-section shortcut ----------------


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name, support", [
    ("bell_z3_pr_box.json", pr_box(3)), ("bell_z3_local.json", local_support(3))])
def test_committed_bell_documents_are_the_helpers(name, support):
    assert json.loads((DATA / name).read_text()) == bell_document(3, support)


def _audit_global_splitting(st, ci, section, g):
    """``g`` extends ``section`` and is a global splitting, read straight
    off the document's tables: every product sums, and m^u reads u."""
    d = st.action.moduli[0]
    contexts = st.model.scenario.contexts
    assert all(g[x] == section[x] for x in contexts[ci])
    for ctx, table in zip(contexts, st.context_ops):
        k = len(ctx)
        for i, c in enumerate(table):
            assert (g[ctx[i // k]] + g[ctx[i % k]] - g[ctx[c]]) % d == 0
    ctx, table = contexts[0], st.context_ops[0]
    m = "e"
    for u in range(d):
        assert g[m] == u
        m = ctx[table[ctx.index(m) * len(ctx) + ctx.index("m")]]


@pytest.mark.parametrize("d", [2, 3])
def test_pr_box_separates_the_theories(d):
    """Every PR-box section is Cech-obstructed, by both routes with
    audited certificates, and group-vanishing with an audited global
    splitting: the strict side of 'Cech is at least as strong'."""
    st = bell_model(d, pr_box(d))
    model = st.model
    assert classify(model).kind == "strongly_contextual"
    count = 0
    for ci, secs in enumerate(model.sections):
        for s in secs:
            r1 = cech_obstruction_vanishes(model, ci, s)
            r2 = connecting_cocycle(model, ci, s)
            assert not r1.vanishes and not r2.vanishes
            _audit_route1_certificate(model, ci, s, r1.certificate)
            _audit_route2(model, ci, r2)
            report = group_obstruction(st, ci, s)
            assert report.vanishes
            _audit_global_splitting(st, ci, s, report.global_splitting)
            count += 1
    assert count == 4 * d
    report = cross_check_obstructions(st)
    assert report.consistent
    assert [(r.cech_vanishes, r.group_vanishes) for r in report.rows] == [
        (False, True)] * count


def test_hardy_section_extends_nowhere_yet_both_theories_vanish():
    """On the structured Hardy support the section (0, 0) at context
    (0, 0) extends to no global section, yet both Cech routes and the
    group route vanish on it; the other 12 sections extend."""
    st = bell_model(2, hardy_support)
    model = st.model
    (hardy,) = [s for s in model.sections[0] if s["a0"] == s["b0"] == 0]
    verdict = classify(model)
    assert verdict.kind == "logically_contextual"
    assert verdict.witnesses == ((0, hardy),)
    rows = cross_check_obstructions(st).rows
    assert len(rows) == 13
    for row in rows:
        assert row.cech_vanishes and row.group_vanishes
        ci, s = row.context_index, row.section
        assert section_extends(model, ci, s) == (s != hardy)
        r1 = cech_obstruction_vanishes(model, ci, s)
        _audit_family(model, ci, s, r1.family)
        _audit_route2(model, ci, connecting_cocycle(model, ci, s))
        _audit_global_splitting(
            st, ci, s, group_obstruction(st, ci, s).global_splitting)


def _random_bell_support(rng, d):
    """A union of no-signalling supports, so no-signalling: one or two
    shifted PR boxes, y = x + t(i, j), and one or two local deterministic
    boxes, (f(i), g(j))."""
    boxes = []
    for _ in range(rng.randint(1, 2)):
        t = {ij: rng.randrange(d) for ij in itertools.product((0, 1), repeat=2)}
        boxes.append(lambda i, j, t=t: [(x, (x + t[i, j]) % d)
                                        for x in range(d)])
    for _ in range(rng.randint(1, 2)):
        f, g = rng.choices(range(d), k=2), rng.choices(range(d), k=2)
        boxes.append(lambda i, j, f=f, g=g: [(f[i], g[j])])
    return lambda i, j: sorted({xy for box in boxes for xy in box(i, j)})


@pytest.mark.parametrize("d", [3, 4, 5])
def test_group_route_off_z2_against_brute_force(d):
    """On seeded no-signalling Bell supports at d = 3, 4 and 5, every
    section's group class vanishes, as brute force says: any outcomes
    (x_0, x_1, y_0, y_1) give a global splitting, so every section extends
    to one.  Each splitting returned, reconstructed where the section
    extends to no global section, is a homomorphism on every composable
    pair and agrees with its section."""
    rng = random.Random(2303 + d)
    reconstructed = 0
    for _ in range(2):
        st = bell_model(d, _random_bell_support(rng, d))
        model = st.model
        assert cross_check_obstructions(st).consistent
        for ci, secs in enumerate(model.sections):
            for u, s in enumerate(secs):
                report = group_obstruction(st, ci, s)
                assert report.vanishes
                _audit_global_splitting(st, ci, s, report.global_splitting)
                reconstructed += model.extension_table[ci][u] is None
    assert reconstructed > 0


def _shortcut_models(mermin, ghz):
    rng = random.Random(2301)
    models = [mermin.structured, ghz.structured]
    while len(models) < 32:
        _n, gens = _random_generators(rng, cap=24)
        try:
            models.append(build_state_independent_model(gens))
        except PreconditionError:
            continue
    return models


def test_shortcut_answers_like_the_solver(mermin, ghz):
    """On mermin, ghz and 30 seeded Pauli models, each section's verdict
    is that of a fresh solver with no gamma given; a section through a
    global section is answered by it, gamma and all: its splitting is the
    global section's assignment, and gamma bounds beta."""
    shortcut = 0
    for st in _shortcut_models(mermin, ghz):
        model = st.model
        ana = GroupObstructionAnalyzer(st)
        q = ana.quotient
        for ci, secs in enumerate(model.sections):
            for u, s in enumerate(secs):
                report = ana.analyze(ci, s)
                ob = report.obstruction
                fresh = CoboundarySolver(q, ob.relative_orbits).decide(ob.beta)
                assert report.vanishes == fresh.vanishes
                g = model.extension_table[ci][u]
                if g is None:
                    continue
                want = {}
                for ctx, rows, r in zip(model.scenario.contexts, model.rows, g):
                    want.update(zip(ctx, rows[r]))
                assert report.global_splitting == want
                one = make_cochain(q.monoid, q.action.moduli, 1, {
                    (o,): v for o, v in report.decision.gamma.items()})
                assert coboundary(one).same_as(ob.beta)
                shortcut += 1
    assert shortcut >= 100


def _zeros(q, g):
    """Per orbit id, the member where the assignment ``g`` vanishes."""
    return [next(x for x in members if not g[q.parent.elements[x]])
            for members in q.member_ids]


def test_shortcut_catches_a_tampered_value_table():
    """Each value-table entry that the shortcut reads off eta and the
    global section, where they differ, moved to another group element,
    makes the gamma it reads fail to bound beta.  The Z_3 local support
    extends every section."""
    st = loads_model((DATA / "bell_z3_local.json").read_text())
    tampered = 0
    for ci, secs in enumerate(st.model.sections):
        for s in secs:
            ana = GroupObstructionAnalyzer(st)
            q = ana.quotient
            n = q.parent.size
            report = ana.analyze(ci, s)
            zeros = _zeros(q, report.global_splitting)
            for x, h in zip(report.obstruction.eta_ids, zeros):
                if x == h:
                    continue
                k = x * n + h
                real = q.value_table[k]
                q.value_table[k] = (real + 1) % 3
                with pytest.raises(InternalCheckError,
                                   match="gamma does not bound beta"):
                    ana.analyze(ci, s)
                q.value_table[k] = real
                tampered += 1
    assert tampered > 0


def test_shortcut_catches_a_tampered_global_row():
    """A global section whose row at the first context is swapped for any
    other row is a new assignment: it is checked, and it is no splitting
    of the whole monoid."""
    st = bell_model(3, local_support(3))
    model = st.model
    table = model.extension_table
    tampered = 0
    for u, s in enumerate(model.sections[0]):
        g = table[0][u]
        for r in range(len(model.rows[0])):
            if r == g[0]:
                continue
            table[0][u] = (r,) + g[1:]
            with pytest.raises(InternalCheckError,
                               match="global section is not a global "
                                     "splitting"):
                GroupObstructionAnalyzer(st).analyze(0, s)
            tampered += 1
        table[0][u] = g
    assert tampered == 9 * 8


def test_one_whole_monoid_check_per_global_assignment(monkeypatch):
    """The cross-check of the Z_3 local support checks each distinct
    global assignment once as a splitting of the whole monoid: the group
    route's global section and the Cech collapse, equal on every section,
    share the check."""
    st = loads_model((DATA / "bell_z3_local.json").read_text())
    whole = len(st.model.scenario.measurements)
    checked = _counted(monkeypatch, mcohom_module, "splitting_violations")
    steps = list(cech_module._cross_check_steps(st))
    assert len(steps) == 36
    seen = set()
    for row, r1, report in steps:
        assert row.cech_vanishes and row.group_vanishes
        assert collapse_family(st.model, r1.family) == \
            report.global_splitting
        seen.add(tuple(sorted(report.global_splitting.items())))
    assert len([c for c in checked if len(c[1]) == whole]) == len(seen)


def test_group_route_builds_no_sections(mermin):
    """Loaded from their documents, mermin and both Z_3 Bell documents
    set up both analyzers and answer every group query, through the solve
    and reconstruction (mermin, the PR box) and through the global-section
    shortcut (the local support), without building the model's
    ``Section``s: set-up and queries read the int rows."""
    docs = [dumps_model(mermin.structured)] + [
        (DATA / name).read_text()
        for name in ("bell_z3_pr_box.json", "bell_z3_local.json")]
    for doc in docs:
        st = loads_model(doc)
        model = st.model
        assert model.cech_analyzer.nunknowns == sum(map(len, model.rows))
        group = st.group_analyzer
        for ci, (ctx, rows) in enumerate(zip(model.scenario.contexts,
                                             model.rows)):
            for row in rows:
                group.analyze(ci, Section.from_values(ctx, row))
        assert "sections" not in model.__dict__


# --- The absolute class and the pair checks --------------------------------


def _absolute_class_vanishes(q):
    """[beta0] = 0, decided apart: beta0 is beta of the empty context, at
    the least members, solved with no relative orbits."""
    beta0 = obstruction_cocycle(q, (), {}).beta
    return CoboundarySolver(q, ()).decide(beta0).vanishes


def _absolute_models(mermin, ghz):
    """Bell documents at d = 2..5, mermin, ghz and 30 seeded Pauli models."""
    rng = random.Random(2701)
    models = []
    for d in (2, 3, 4, 5):
        models += [bell_model(d, pr_box(d)), bell_model(d, local_support(d)),
                   bell_model(d, _random_bell_support(rng, d))]
    return models + _shortcut_models(mermin, ghz)


def test_absolute_decision_answers_like_a_hint_free_relative_solve(
        mermin, ghz):
    """Every section's verdict is that of a fresh relative solve given no
    global section; a model whose absolute class is not 0 has no vanishing
    section, and each of its sections that extends nowhere is decided on
    the absolute path; relative certificates read after the whole model
    was queried are the fresh solve's."""
    paths = set()
    for st in _absolute_models(mermin, ghz):
        ana = GroupObstructionAnalyzer(st)
        q = ana.quotient
        absolute = not _absolute_class_vanishes(q)
        reports = [ana.analyze(ci, s) for ci, secs in
                   enumerate(st.model.sections) for s in secs]
        solvers = {}  # one per context, apart from the analyzer's
        for report in reports:
            ob, dec = report.obstruction, report.decision
            if report.context_index not in solvers:
                solvers[report.context_index] = CoboundarySolver(
                    q, ob.relative_orbits)
            fresh = solvers[report.context_index].decide(ob.beta)
            assert dec.vanishes == fresh.vanishes
            assert dec.certificates == fresh.certificates
            assert not (absolute and dec.vanishes)
            u = st.model.section_index(report.context_index, report.section)
            if st.model.extension_table[report.context_index][u] is None:
                assert (dec.path == "absolute") == absolute
            paths.add(dec.path)
    assert paths == {"absolute", "relative", "shortcut"}


def _read_entries(ana, ci, s):
    """The value-table entries that a query of section ``s`` reads: its
    beta, beta0, the shift between their representatives and, on the
    shortcut, gamma read off the global section."""
    q = ana.quotient
    n, sums = q.parent.size, q.parent.sums
    report = ana.analyze(ci, s)
    eta = report.obstruction.eta_ids
    eta0 = [members[0] for members in q.member_ids]
    qx, qy, qz = q.monoid.pairs()
    entries = set()
    for e in (eta, eta0):
        entries |= {sums[e[a] * n + e[b]] * n + e[c]
                    for a, b, c in zip(qx, qy, qz)}
    entries |= {x * n + y for x, y in zip(eta, eta0)}
    if report.global_splitting is not None:
        entries |= {x * n + h for x, h in
                    zip(eta, _zeros(q, report.global_splitting))}
    return sorted(entries)


@pytest.mark.parametrize("name", ["mermin", "ghz", "pr_box", "shortcut"])
def test_pair_checks_catch_what_the_triple_audit_caught(name, mermin, ghz):
    """Each value-table entry that a query reads, moved to another group
    element before the analyzer's first query or after it, is refused by
    the query whenever the 2-cocycle audit of ``obstruction_cocycle``
    refuses the section's beta on the tampered table, with the same
    message.  The models take the absolute path (mermin, ghz), the
    relative solve (the binary PR box) and the global-section shortcut
    (a noncontextual Pauli closure)."""
    st = {"mermin": mermin.structured, "ghz": ghz.structured,
          "pr_box": bell_model(2, pr_box(2)),
          "shortcut": build_state_independent_model(
              [parse_pauli(p) for p in ("+X", "+Z", "-I")])}[name]
    model = st.model
    path = {"mermin": "absolute", "ghz": "absolute", "pr_box": "relative",
            "shortcut": "shortcut"}[name]
    audited = {True: 0, False: 0}
    for ci in (0, len(model.sections) - 1):
        ctx, s = model.scenario.contexts[ci], model.sections[ci][0]
        sp = splitting_of_section(s, ctx, st.action)
        queried = GroupObstructionAnalyzer(st)
        entries = _read_entries(queried, ci, s)
        assert queried.analyze(ci, s).decision.path == path
        for k in entries:
            for before_first_query in (True, False):
                ana = (GroupObstructionAnalyzer(st) if before_first_query
                       else queried)
                q = ana.quotient
                real = q.value_table[k]
                q.value_table[k] = (real + 1) % len(q.embedding)
                try:
                    obstruction_cocycle(q, ctx, sp)
                except InternalCheckError as exc:
                    with pytest.raises(InternalCheckError) as err:
                        ana.analyze(ci, s)
                    assert str(err.value) == str(exc)
                    audited[before_first_query] += 1
                q.value_table[k] = real
    assert audited[True] > 0 and audited[False] > 0


def test_group_errors_name_the_context_and_section(mermin, capsys,
                                                   monkeypatch):
    """An internal check that fails under ``analyze`` keeps its message and
    names the query's context index and section position, and the CLI
    prints them before the message.  The query is a mermin section whose
    beta reads a tampered value-table entry."""
    st = loads_model(dumps_model(mermin.structured))
    ci, u = 2, 1
    s = st.model.sections[ci][u]
    ana = st.group_analyzer
    eta = ana.analyze(ci, s).obstruction.eta_ids
    q = ana.quotient
    n, sums = q.parent.size, q.parent.sums
    a, b, c = (col[-1] for col in q.monoid.pairs())
    q.value_table[sums[eta[a] * n + eta[b]] * n + eta[c]] ^= 1
    with pytest.raises(InternalCheckError, match=_AUDITED) as err:
        ana.analyze(ci, s)
    assert err.value.where == f"context {ci}, section {u}"
    message = str(err.value)
    monkeypatch.setattr(cli_module, "_load_source",
                        lambda _source: ("mermin", st.model, st))
    code = cli_module.main(["analyze", "mermin", "--group", "--context",
                            str(ci), "--section", str(u)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"internal invariant violated: context {ci}, section {u}: "
        f"{message}\n")


def test_absolute_class_is_decided_once_and_only_when_needed(ghz,
                                                             monkeypatch):
    """The cross-check of GHZ-3, whose absolute class is not 0, audits one
    2-cocycle (beta0's) and builds one modular system (its absolute
    solve); the Z_3 local support, whose sections all extend, and a
    noncontextual Pauli closure run neither."""
    audits = []
    real = mcohom_module.coboundary

    def counted(c):
        if c.degree == 2:
            audits.append(c)
        return real(c)

    monkeypatch.setattr(mcohom_module, "coboundary", counted)
    systems = _counted(monkeypatch, mcohom_module, "ModSystem")
    model = ghz.model
    ghz3 = StructuredModel(EmpiricalModel.make(model.scenario, model.sections),
                           ghz.structured.context_ops, ghz.structured.action)
    rows = cross_check_obstructions(ghz3).rows
    assert len(rows) == 135 and not any(r.group_vanishes for r in rows)
    assert len(audits) == 1 and len(systems) == 1
    for st in (loads_model((DATA / "bell_z3_local.json").read_text()),
               build_state_independent_model(
                   [parse_pauli(p) for p in ("+X", "+Z", "-I")])):
        audits.clear()
        systems.clear()
        assert cross_check_obstructions(st).consistent
        assert audits == [] and systems == []


def test_decide_catches_a_tampered_gamma_after_the_absolute_class(
        monkeypatch):
    """On the binary PR box, once the first query has decided the absolute
    class (0 there), a relative solve whose witness is moved on one
    coordinate is refused by the section's own gamma audit, in each later
    context."""
    st = bell_model(2, pr_box(2))
    real = mcohom_module.ModSystem

    class Tampered(real):
        def solve(self, rhs):
            res = real.solve(self, rhs)
            w = list(res.witness)
            w[0] = (w[0] + 1) % self.modulus
            return ModSolveResult(True, tuple(w), None)

    for ci in range(1, len(st.model.sections)):
        ana = GroupObstructionAnalyzer(st)
        assert ana.analyze(0, st.model.sections[0][0]).vanishes
        monkeypatch.setattr(mcohom_module, "ModSystem", Tampered)
        with pytest.raises(InternalCheckError,
                           match="gamma does not bound beta") as err:
            ana.analyze(ci, st.model.sections[ci][0])
        assert err.value.where == f"context {ci}, section 0"
        monkeypatch.setattr(mcohom_module, "ModSystem", real)


def test_each_section_checks_the_absolute_certificate(mermin, monkeypatch):
    """An absolute certificate that separates nothing (y = 0, past the
    solver's own check) is refused by the first section it would refute,
    on its own right-hand side."""
    real = mcohom_module.ModSystem

    class Blank(real):
        def solve(self, rhs):
            res = real.solve(self, rhs)
            if res.feasible:
                return res
            return ModSolveResult(False, None, (0,) * len(res.certificate))

    monkeypatch.setattr(mcohom_module, "ModSystem", Blank)
    ana = GroupObstructionAnalyzer(mermin.structured)
    with pytest.raises(InternalCheckError,
                       match="absolute certificate does not separate"):
        ana.analyze(0, mermin.model.sections[0][0])


@pytest.mark.parametrize("analyzer_kept", [True, False])
def test_a_deferred_read_refuses_a_relative_solve_that_bounds_beta(
        analyzer_kept, mermin, monkeypatch):
    """Certificates of a section that the absolute class refuted are
    solved on first read, through the analyzer's held solver or, once the
    analyzer is gone, a fresh one.  A solve that claims beta bounds is an
    internal fault either way: a feasible ``ModSystem`` fails the gamma
    audit, and a decision that vanishes outright contradicts the absolute
    class."""
    s = mermin.model.sections[0][0]
    real = mcohom_module.ModSystem

    class Feasible(real):
        def solve(self, rhs):
            return ModSolveResult(True, (0,) * self.ncols, None)

    def vanishing(self, beta, gamma_ids=None):
        return CoboundaryDecision(True, [0] * self.quotient.monoid.size,
                                  None, self.quotient)

    for patch, message in (((mcohom_module, "ModSystem", Feasible),
                            "gamma does not bound beta"),
                           ((CoboundarySolver, "decide", vanishing),
                            "contradicts the absolute class")):
        ana = GroupObstructionAnalyzer(mermin.structured)
        decision = ana.analyze(0, s).decision
        assert decision.path == "absolute"
        if not analyzer_kept:
            del ana
            assert decision.deferred[0]() is None
        monkeypatch.setattr(*patch)
        with pytest.raises(InternalCheckError, match=message):
            decision.certificates
        monkeypatch.undo()
