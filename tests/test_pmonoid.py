"""Partial monoids, gluing, quotients and the splitting correspondences."""

import random

import pytest

from contextuality.errors import (
    InternalCheckError,
    PreconditionError,
    StructureError,
)
from contextuality.mcohom import GroupObstructionAnalyzer
from contextuality.pauli import (
    build_state_dependent_model,
    build_state_independent_model,
    close_under_commuting_products,
    ghz_state,
    parse_pauli,
)
from contextuality.pmonoid import (
    CoefficientAction,
    PartialMonoid,
    StructuredModel,
    glue_contexts,
    quotient_by_action,
    right_splitting_of,
    splitting_from_trivialisation,
    trivialisation_from_right_splitting,
    trivialisation_from_splitting,
    splitting_violations,
    validate_right_splitting,
    validate_splitting,
)

from test_mcohom import bell_model, local_support, pr_box
from _oracles import (
    SplittingOracle,
    maximal_total_submonoids,
    restriction,
    splitting_of_section,
    validate_partial_monoid,
)


def _sym(table):
    out = dict(table)
    for (x, y), z in table.items():
        out.setdefault((y, x), z)
    return out


def _z2xz2():
    # labels uv for the element (u, v)
    els = ["00", "01", "10", "11"]
    table = {}
    for a in els:
        for b in els:
            table[(a, b)] = f"{(int(a[0]) + int(b[0])) % 2}" \
                            f"{(int(a[1]) + int(b[1])) % 2}"
    return PartialMonoid(els, "00", table)


def _z9():
    els = [f"g{k}" for k in range(9)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % 9}"
             for i in range(9) for j in range(9)}
    return PartialMonoid(els, "g0", table)


# --- PartialMonoid basics ----------------------------------------------------


def test_partial_monoid_total_group():
    m = _z2xz2()
    assert m.identity == "00"
    assert m.add("01", "11") == "10"
    assert m.defined("01", "10")
    assert len(m.composable(2)) == 16
    assert len(m.composable_triples()) == 64
    assert validate_partial_monoid(m).ok
    assert maximal_total_submonoids(m) == [tuple(m.elements)]


def test_partial_monoid_restriction():
    m = _z2xz2()
    r = restriction(m, ["00", "01"])
    assert set(r.elements) == {"00", "01"}
    assert r.add("01", "01") == "00"
    assert not r.defined("01", "10")
    with pytest.raises(PreconditionError):
        restriction(m, ["00", "xx"])
    with pytest.raises(PreconditionError):
        restriction(m, ["01"])  # identity missing
    with pytest.raises(PreconditionError):
        restriction(m, ["00", "01", "10"])  # not sum-closed


def test_validate_partial_monoid_violations():
    # conflicting orientations are rejected at construction
    tab = {("a", "b"): "a", ("b", "a"): "b", ("e", "e"): "e"}
    with pytest.raises(StructureError):
        PartialMonoid(["e", "a", "b"], "e", tab)
    # identity not neutral
    tab2 = {("e", "e"): "e", ("e", "a"): "e", ("a", "e"): "e"}
    m2 = PartialMonoid(["e", "a"], "e", tab2)
    rep2 = validate_partial_monoid(m2)
    assert not rep2.ok and any("neutral" in v for v in rep2.violations)
    # identity sum missing somewhere
    m2b = PartialMonoid(["e", "a"], "e", {("e", "e"): "e"})
    assert any("undefined" in v
               for v in validate_partial_monoid(m2b).violations)
    # broken associativity on a composable triple
    tab3 = _sym({("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                 ("e", "c"): "c", ("a", "a"): "e", ("a", "b"): "c",
                 ("a", "c"): "c", ("b", "b"): "e", ("b", "c"): "a",
                 ("c", "c"): "e"})
    m3 = PartialMonoid(["e", "a", "b", "c"], "e", tab3)
    rep3 = validate_partial_monoid(m3)
    assert not rep3.ok and any("assoc" in v for v in rep3.violations)


# --- Gluing -------------------------------------------------------------------


def test_glue_mermin_and_ghz(mermin, ghz):
    mon = glue_contexts(mermin.structured)
    assert len(mon.elements) == 20
    assert mon.identity == "+II"
    assert validate_partial_monoid(mon).ok
    covers = {frozenset(c) for c in mermin.model.scenario.contexts}
    assert {frozenset(s) for s in maximal_total_submonoids(mon)} == covers
    gmon = glue_contexts(ghz.structured)
    assert len(gmon.elements) == 72
    gcovers = {frozenset(c) for c in ghz.model.scenario.contexts}
    assert {frozenset(s) for s in maximal_total_submonoids(gmon)} == gcovers


def test_glue_rejects_overlap_disagreement(mermin):
    st = mermin.structured
    tables = [list(t) for t in st.context_ops]
    # corrupt one overlap product, and its mirror, in context 0 only
    contexts = st.model.scenario.contexts
    ctx0 = contexts[0]
    k = len(ctx0)
    a, b = 0, 1
    if not any(ctx0[a] in c and ctx0[b] in c for c in contexts[1:]):
        # pick a pair that two contexts share: +II with anything works
        a, b = ctx0.index("+II"), 2
    plus, minus = ctx0.index("+II"), ctx0.index("-II")
    tables[0][a * k + b] = minus if tables[0][a * k + b] != minus else plus
    tables[0][b * k + a] = tables[0][a * k + b]
    broken = StructuredModel(st.model, tuple(map(tuple, tables)), st.action)
    with pytest.raises(StructureError):
        glue_contexts(broken)


def test_glue_rejects_noncommutative_table():
    from contextuality.scenario import EmpiricalModel, MeasurementScenario, \
        Section

    sc = MeasurementScenario.make(("e", "a"), 2, [("a", "e")])
    model = EmpiricalModel.make(
        sc, [[Section.of({"e": 0, "a": 0}), Section.of({"e": 0, "a": 1})]])
    st = StructuredModel(model, ((0, 1, 0, 0),),
                         CoefficientAction((2,), ("a",)))
    with pytest.raises(StructureError, match="not commutative"):
        glue_contexts(st)


def test_glue_names_contexts_that_disagree():
    """Two contexts that are groups on their own, Z_4 and Z_2 x Z_2 on
    the shared e, a, m, glue into no monoid: they disagree on a + a."""
    from contextuality.scenario import EmpiricalModel, MeasurementScenario

    sc = MeasurementScenario.make(("e", "a", "m", "x", "y"), 2,
                                  [("e", "a", "m", "x"), ("e", "a", "m", "y")])
    model = EmpiricalModel.from_rows(sc, [[(0, 0, 0, 0)], [(0, 0, 0, 0)]])
    z4 = tuple((i + j) % 4 for i in range(4) for j in range(4))
    klein = tuple(i ^ j for i in range(4) for j in range(4))
    st = StructuredModel(model, (z4, klein), CoefficientAction((1,), ("e",)))
    with pytest.raises(StructureError) as info:
        glue_contexts(st)
    assert str(info.value) == ("contexts 0 and 1 disagree on ('a', 'a'): "
                               "'m' vs 'e'")


@pytest.mark.parametrize("table", [
    (0, 1, 1), (0, 1, 1, 0, 0), (0, 1, 1, 2), (0, -1, -1, 0),
    (0, True, True, 0), (0, "a", "a", 0)])
def test_glue_rejects_tables_that_are_not_positions(table):
    """A table is k * k ints in range(k): a wrong length, an entry out of
    range, and a bool or str entry are each refused with one message."""
    from contextuality.scenario import EmpiricalModel, MeasurementScenario

    sc = MeasurementScenario.make(("e", "a"), 2, [("a", "e")])
    model = EmpiricalModel.from_rows(sc, [[(0, 0), (0, 1)]])
    action = CoefficientAction((2,), ("a",))
    glue_contexts(StructuredModel(model, ((0, 1, 1, 0),), action))
    with pytest.raises(StructureError) as info:
        glue_contexts(StructuredModel(model, (table,), action))
    assert str(info.value) == ("table for ('e', 'a') is not 4 positions in "
                               "range(2)")


# --- Coefficient actions --------------------------------------------------------


def test_coefficient_action_arithmetic():
    act = CoefficientAction((2, 3), ("p", "q"))
    assert act.zero == (0, 0)
    assert len(act.elements()) == 6
    assert act.add((1, 2), (1, 2)) == (0, 1)


def test_embedding_into_glued_monoid(mermin):
    mon = glue_contexts(mermin.structured)
    emb = mermin.structured.action.embedding(mon)
    assert emb == {(0,): "+II", (1,): "-II"}


def test_embedding_order_mismatch():
    m = _z9()
    act = CoefficientAction((2,), ("g3",))  # g3 has order 3, not 2
    with pytest.raises(StructureError):
        act.embedding(m)


# --- Quotients -------------------------------------------------------------------


def test_quotient_of_glued_mermin(mermin):
    mon = glue_contexts(mermin.structured)
    q = quotient_by_action(mon, mermin.structured.action)
    assert len(q.monoid.elements) == 10
    assert q.monoid.identity == "[+II]"
    assert q.orbit_of("+XX") == q.orbit_of("-XX") == "[+XX]"
    assert q.members("[+XX]") == ("+XX", "-XX")
    assert q.act((1,), "+XX") == "-XX"
    assert q.value_at("-XX", "+XX") == (1,)
    assert q.value_at("+XX", "+XX") == (0,)


def test_quotient_label_methods_name_unknown_labels(mermin):
    """A label that names no element, or an element outside the base's
    orbit, is bad input to a label method."""
    q = quotient_by_action(glue_contexts(mermin.structured),
                           mermin.structured.action)
    for call in (lambda: q.orbit_of("+QQ"), lambda: q.members("+XX"),
                 lambda: q.act((1,), "+QQ"), lambda: q.value_at("+QQ", "+XX"),
                 lambda: q.value_at("-XX", "+QQ")):
        with pytest.raises(PreconditionError, match="unknown label"):
            call()
    with pytest.raises(PreconditionError, match="not in the orbit"):
        q.value_at("+ZZ", "+XX")


def test_quotient_z9_by_z3():
    m = _z9()
    act = CoefficientAction((3,), ("g3",))
    q = quotient_by_action(m, act)
    assert len(q.monoid.elements) == 3
    assert q.orbit_of("g4") == q.orbit_of("g7") == q.orbit_of("g1")
    assert q.monoid.add(q.orbit_of("g1"), q.orbit_of("g2")) == \
        q.orbit_of("g0")


def test_quotient_rejects_unfree_action():
    # a absorbs g, so translation by g fixes a
    tab = _sym({("e", "e"): "e", ("e", "g"): "g", ("e", "a"): "a",
                ("g", "g"): "e", ("g", "a"): "a"})
    m = PartialMonoid(["e", "g", "a"], "e", tab)
    act = CoefficientAction((2,), ("g",))
    with pytest.raises(StructureError, match="free"):
        quotient_by_action(m, act)


def _partial_tab(entries):
    base = {("e", "e"): "e", ("e", "g"): "g", ("g", "g"): "e"}
    names = set()
    for (x, y), z in entries.items():
        names |= {x, y, z}
    for x in sorted(names):
        base[("e", x)] = x
        base[("g", x)] = ("g" + x) if not x.startswith("g") else x[1:]
        names.add(base[("g", x)])
    for x in sorted(names):
        base.setdefault(("e", x), x)
        if ("g", x) not in base:
            base[("g", x)] = ("g" + x) if not x.startswith("g") else x[1:]
    base.update(entries)
    els = ["e", "g"] + sorted(n for n in names if n not in ("e", "g"))
    return PartialMonoid(els, "e", _sym(base))


def test_quotient_rejects_ill_defined_values():
    # x+u = p on one pair of representatives, q on the translated pair
    m = _partial_tab({("x", "u"): "p", ("gx", "gu"): "q"})
    act = CoefficientAction((2,), ("g",))
    with pytest.raises(StructureError, match="ill-defined"):
        quotient_by_action(m, act)


def test_quotient_rejects_ill_defined_definedness():
    # x+u defined but the translated pair gx+gu is not
    m = _partial_tab({("x", "u"): "p", ("gx", "gp"): "x"})
    act = CoefficientAction((2,), ("g",))
    with pytest.raises(StructureError, match="definedness"):
        quotient_by_action(m, act)


# --- Splitting correspondences ----------------------------------------------------


def _quotient_of(structured):
    mon = glue_contexts(structured)
    return quotient_by_action(mon, structured.action)


def test_splitting_round_trips_mermin(mermin):
    st = mermin.structured
    q = _quotient_of(st)
    for ci, ctx in enumerate(st.model.scenario.contexts):
        for sec in st.model.sections[ci]:
            s = {x: (sec[x],) for x in ctx}
            assert validate_splitting(q, ctx, s).ok
            phi = trivialisation_from_splitting(q, ctx, s)
            assert splitting_from_trivialisation(q, ctx, phi) == {
                x: tuple(v) for x, v in s.items()}
            # phi is a bijection onto group x orbits
            orbits = {q.orbit_of(x) for x in ctx}
            assert len(set(phi.values())) == len(ctx)
            assert len(ctx) == len(q.action.elements()) * len(orbits)
            h = right_splitting_of(q, ctx, phi)
            assert validate_right_splitting(q, ctx, h).ok
            assert trivialisation_from_right_splitting(q, ctx, h) == phi


def test_right_splitting_error_names_three_violations(mermin):
    """A right splitting moved by the action at the identity's orbit
    breaks the homomorphism law on ten pairs; the error names three and
    counts the rest."""
    st = mermin.structured
    q = _quotient_of(st)
    ctx = st.model.scenario.contexts[0]
    sec = st.model.sections[0][0]
    phi = trivialisation_from_splitting(q, ctx, {x: (sec[x],) for x in ctx})
    h = right_splitting_of(q, ctx, phi)
    ref = SplittingOracle(q)
    orbit = min(h)
    h[orbit] = ref.act((1,), h[orbit])
    assert len(ref.right_splitting_violations(ctx, h)) == 10
    with pytest.raises(PreconditionError) as err:
        trivialisation_from_right_splitting(q, ctx, h)
    message = str(err.value)
    assert message.count("not a homomorphism") == 3
    assert message.startswith("not a right splitting: not a homomorphism")
    assert message.endswith("; and 7 more")


def test_splitting_validators_reject():
    m = _z2xz2()
    act = CoefficientAction((2,), ("10",))
    q = quotient_by_action(m, act)
    labels = tuple(m.elements)
    good = {x: (int(x[0]),) for x in labels}
    assert validate_splitting(q, labels, good).ok
    # flipping one value breaks the homomorphism law
    bad = dict(good)
    bad["10"] = (0,)
    assert not validate_splitting(q, labels, bad).ok
    # failing to retract the embedding
    bad2 = {x: (0,) for x in labels}
    rep = validate_splitting(q, labels, bad2)
    assert not rep.ok and any("retract" in v for v in rep.violations)
    # subset that is not action invariant
    assert not validate_splitting(q, ("00", "01"), good).ok
    # right splitting hitting the wrong orbit
    phi = trivialisation_from_splitting(q, labels, good)
    h = right_splitting_of(q, labels, phi)
    hbad = dict(h)
    ks = sorted(hbad)
    hbad[ks[0]], hbad[ks[1]] = hbad[ks[1]], hbad[ks[0]]
    assert not validate_right_splitting(q, labels, hbad).ok


def test_trivialisation_rejections():
    m = _z2xz2()
    act = CoefficientAction((2,), ("10",))
    q = quotient_by_action(m, act)
    labels = tuple(m.elements)
    good = {x: (int(x[0]),) for x in labels}
    phi = trivialisation_from_splitting(q, labels, good)
    squashed = {x: ((0,), q.orbit_of(x)) for x in labels}
    with pytest.raises(StructureError, match="injective"):
        splitting_from_trivialisation(q, labels, squashed)
    wrong_pi = {x: (v[0], q.orbit_of("10" if x == "00" else "00"))
                for x, v in phi.items()}
    with pytest.raises(StructureError):
        splitting_from_trivialisation(q, labels, wrong_pi)


# --- Int-table validators against the label-dict reference ------------------


def _outcome(fn, *args):
    """What a call returns, or the class of the library error it raises."""
    try:
        return ("returned", fn(*args))
    except (PreconditionError, InternalCheckError) as exc:
        return ("raised", type(exc))


def _pauli_models(seed, count):
    """Seeded small commuting-closed Pauli models, state-independent and
    GHZ-state ones, each with a quotient of at most 20 orbits."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        gens = [parse_pauli(rng.choice("+-") +
                            "".join(rng.choice("IXYZ") for _ in range(n)))
                for _ in range(rng.randint(1, 3))]
        gens.append(parse_pauli("-" + "I" * n))
        if len(close_under_commuting_products(gens)) > 40:
            continue
        if rng.random() < 0.5:
            out.append(build_state_dependent_model(gens, ghz_state(n)))
        else:
            out.append(build_state_independent_model(gens))
    return out


def _check_against_oracle(st, rng, ladder=None):
    """Every section's splitting, trivialisation and right splitting, and
    one mutation of each, give the reference's verdicts; on the whole
    monoid the same holds for each global splitting the group route
    reconstructs.  The id law, ``splitting_violations``, reports what the
    reference does on every context row, which is a splitting, and on a
    copy of it moved at one label, which is not.  ``ladder`` caps how many
    sections of each context, and how many global splittings, go through
    the label-dict validators.  Returns how many mutations were
    rejected."""
    q = _quotient_of(st)
    ref = SplittingOracle(q)
    d = st.action.moduli[0]
    rejected = 0

    def same(fn, ref_fn, *args):
        got, want = _outcome(fn, *args), _outcome(ref_fn, *args)
        assert got == want
        return got[0] == "raised"

    def same_report(validate, ref_violations, labels, data):
        got = validate(q, labels, data).violations
        assert sorted(got) == sorted(ref_violations(labels, data))
        return bool(got)

    def mutate_all(labels, s):
        nonlocal rejected
        assert not same_report(validate_splitting, ref.splitting_violations,
                               labels, s)
        flipped = dict(s)
        x = rng.choice(labels)
        flipped[x] = ((s[x][0] + 1) % d,)
        rejected += same_report(validate_splitting,
                                ref.splitting_violations, labels, flipped)
        unretracted = dict(s)
        unretracted[ref.embedding[(1,)]] = (0,)
        rejected += same_report(validate_splitting,
                                ref.splitting_violations, labels, unretracted)
        phi = trivialisation_from_splitting(q, labels, s)
        assert phi == {x: (s[x], ref.orbit_of[x]) for x in labels}
        assert not same(lambda *a: splitting_from_trivialisation(q, *a),
                        ref.splitting_from_trivialisation, labels, phi)
        squashed = {x: ((0,), qx) for x, (_a, qx) in phi.items()}
        other = {ref.orbit_of[y] for y in labels} - {ref.orbit_of[x]}
        moved = dict(phi)
        moved[x] = (phi[x][0], min(other)) if other else phi[x]
        broken = dict(phi)
        img = ref.embedding[(1,)]
        broken[img] = ((0,), phi[img][1])
        for bad in (squashed, moved, broken):
            rejected += same(lambda *a: splitting_from_trivialisation(q, *a),
                             ref.splitting_from_trivialisation, labels, bad)
        h = right_splitting_of(q, labels, phi)
        assert not same_report(validate_right_splitting,
                               ref.right_splitting_violations, labels, h)
        assert not same(lambda *a: trivialisation_from_right_splitting(q, *a),
                        ref.trivialisation_from_right_splitting, labels, h)
        if len(h) > 1:  # two orbits sent into each other's orbit
            swapped = dict(h)
            a, b = sorted(h)[:2]
            swapped[a], swapped[b] = h[b], h[a]
            rejected += same_report(validate_right_splitting,
                                    ref.right_splitting_violations, labels,
                                    swapped)
        shifted = dict(h)
        orbit = rng.choice(sorted(h))
        shifted[orbit] = ref.act((1,), h[orbit])
        same_report(validate_right_splitting,
                    ref.right_splitting_violations, labels, shifted)
        rejected += same(
            lambda *a: trivialisation_from_right_splitting(q, *a),
            ref.trivialisation_from_right_splitting, labels, shifted)

    model = st.model
    for ctx, rows in zip(model.scenario.contexts, model.rows):
        for row in rows:
            moved = list(row)
            k = rng.randrange(len(row))
            moved[k] = (row[k] + rng.randrange(1, d)) % d
            for ids, splits in ((row, True), (moved, False)):
                want = ref.splitting_violations(
                    ctx, {x: (v,) for x, v in zip(ctx, ids)})
                assert splitting_violations(q, ctx, ids) == want
                assert bool(want) != splits
            rejected += 1
    for ci, ctx in enumerate(model.scenario.contexts):
        for sec in model.sections[ci][:ladder]:
            mutate_all(list(ctx), splitting_of_section(sec, ctx, st.action))
    group = GroupObstructionAnalyzer(st)
    for ci, secs in enumerate(model.sections[:ladder]):
        rep = group.analyze(ci, secs[0])
        if rep.vanishes:
            mutate_all(list(q.parent.elements),
                       {x: (v,) for x, v in rep.global_splitting.items()})
    return rejected


def test_int_validators_match_the_label_reference(mermin, ghz):
    """On mermin, ghz, seeded Pauli models and the Bell documents at
    d = 3, 4 and 5 with PR-box and local supports, where a group element
    is not its own inverse.  On those the id law sees every row; the
    label-dict validators, whose reference is quadratic in the context,
    see one section per context and one global splitting at d = 3 only."""
    rng = random.Random(606)
    rejected = 0
    for st in [mermin.structured, ghz.structured] + _pauli_models(607, 12):
        rejected += _check_against_oracle(st, rng)
    for d in (3, 4, 5):
        for support in (pr_box, local_support):
            rejected += _check_against_oracle(bell_model(d, support(d)),
                                              rng, ladder=1 if d == 3 else 0)
    assert rejected > 1000
