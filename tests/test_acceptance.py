"""Acceptance gate: one test per advertised guarantee of the package.

Each test prints a single ``[PASS] criterion N`` line with the measured
evidence once its assertions hold, so ``pytest -v`` doubles as a
checklist.  Timed guarantees clear the fixture caches first and build
everything inside the stopwatch.
"""

import random
import time

import numpy as np

from contextuality import fixtures
from contextuality.avn import LinearEquation, entails, is_avn, theory_of
from contextuality.cech import (
    build_nerve,
    cech_coboundary,
    cross_check_obstructions,
    fs_restrict,
    make_cech_cochain,
)
from contextuality.fixtures import get_fixture
from contextuality.mcohom import (
    coboundary,
    make_cochain,
    obstruction_cocycle,
)
from contextuality.pauli import (
    build_state_dependent_model,
    build_state_independent_model,
    close_under_commuting_products,
    commutes,
    ghz_state,
    multiply,
    parse_pauli,
)
from contextuality.pmonoid import (
    right_splitting_of,
    splitting_from_trivialisation,
    trivialisation_from_right_splitting,
    trivialisation_from_splitting,
    validate_splitting,
)
from contextuality.scenario import classify, section_extends, sections_below

from _oracles import all_ops, op_matrix, splitting_of_section
from test_linalg import certifies, decide_integer, decide_mod
from test_mcohom import _z3xz3_quotient, _z9_quotient

GHZ_SIGN_EQUATIONS = (
    LinearEquation((("+XXX", 1),), 0),
    LinearEquation((("+XYY", 1),), 1),
    LinearEquation((("+YXY", 1),), 1),
    LinearEquation((("+YYX", 1),), 1),
)


def _fresh_start():
    fixtures.mermin_square.cache_clear()
    fixtures.ghz_mermin.cache_clear()
    fixtures.hardy_model.cache_clear()


def _ok(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


def test_criterion_01_mermin_strongly_contextual():
    _fresh_start()
    t0 = time.perf_counter()
    model = get_fixture("mermin").model
    verdict = classify(model)
    dt = time.perf_counter() - t0
    assert verdict.kind == "strongly_contextual"
    assert len(model.scenario.measurements) == 20
    assert len(model.scenario.contexts) == 6
    assert dt < 5.0
    _ok(1, f"Mermin square strongly contextual in {dt:.2f}s (< 5s)")


def test_criterion_02_ghz_verdict_and_sign_equations():
    _fresh_start()
    t0 = time.perf_counter()
    bundle = get_fixture("ghz")
    model = bundle.model
    verdict = classify(model)
    theory = theory_of(model)
    entailed = [entails(theory, eq) for eq in GHZ_SIGN_EQUATIONS]
    dt = time.perf_counter() - t0
    assert verdict.kind == "strongly_contextual"
    # the commuting-product closure of the signed three-qubit X/Y grid
    assert len(model.scenario.measurements) == 72
    assert len(model.scenario.contexts) == 30
    assert all(entailed)
    assert dt < 10.0
    _ok(2, "GHZ model strongly contextual; theory entails XXX=0 and "
           f"XYY=YXY=YYX=1 in {dt:.2f}s (< 10s)")


def test_criterion_03_avn_with_checkable_certificates():
    reports = {name: is_avn(get_fixture(name).model)
               for name in ("mermin", "ghz")}
    for name, report in reports.items():
        assert report.avn, name
        # re-verify the refuting combination by direct substitution
        y = report.certificate.certificate
        eqs = report.theory.equations
        assert len(y) == len(eqs)
        for x in report.theory.model.scenario.measurements:
            total = sum(yi * dict(eq.coeffs).get(x, 0)
                        for yi, eq in zip(y, eqs))
            assert total % 2 == 0
        assert sum(yi * eq.constant for yi, eq in zip(y, eqs)) % 2 == 1
    hardy = is_avn(get_fixture("hardy").model)
    assert not hardy.avn and hardy.witness is not None
    for eq in hardy.theory.equations:
        assert eq.evaluate(hardy.witness, 2) == 0
    _ok(3, "AvN refutations re-verified for mermin "
           f"({len(reports['mermin'].theory.equations)} equations) and ghz "
           f"({len(reports['ghz'].theory.equations)} equations); "
           "hardy admits a global witness")


def test_criterion_04_cech_obstructed_everywhere_and_routes_agree():
    _fresh_start()
    t0 = time.perf_counter()
    agreed = total = 0
    blocked = 0
    for name in ("mermin", "ghz"):
        model = get_fixture(name).model
        an = model.cech_analyzer
        for ci in range(len(model.scenario.contexts)):
            for sec in model.sections[ci]:
                d1 = an.family_obstruction(ci, sec)
                d2 = an.connecting_cocycle(ci, sec)
                assert not d1.vanishes and not d2.vanishes
                total += 1
                agreed += d1.vanishes == d2.vanishes
                blocked += 1
    hardy = get_fixture("hardy").model
    an = hardy.cech_analyzer
    for ci in range(len(hardy.scenario.contexts)):
        for sec in hardy.sections[ci]:
            d1 = an.family_obstruction(ci, sec)
            d2 = an.connecting_cocycle(ci, sec)
            total += 1
            agreed += d1.vanishes == d2.vanishes
    dt = time.perf_counter() - t0
    assert agreed == total == 24 + 135 + 13
    assert blocked == 24 + 135
    assert dt < 60.0
    _ok(4, f"obstruction nonzero for all {blocked} mermin+ghz sections; "
           f"routes agree on {agreed}/{total} triples in {dt:.1f}s (< 60s)")


def test_criterion_05_hardy_false_positive_with_integer_family(hardy):
    model = hardy.model
    verdict = classify(model)
    assert verdict.kind == "logically_contextual"
    ci, sec = verdict.witnesses[0]
    assert not section_extends(model, ci, sec)
    decision = model.cech_analyzer.family_obstruction(ci, sec)
    assert decision.vanishes
    family = decision.family
    assert all(isinstance(c, int) for c in family.values())
    assert any(c < 0 for c in family.values())
    # audit compatibility from scratch: mass one per context, pinned at
    # the witness, equal restrictions on every overlap
    per_ctx = [dict() for _ in model.scenario.contexts]
    for (cj, s), c in family.items():
        assert s in model.sections[cj]
        per_ctx[cj][s] = c
    for fs in per_ctx:
        assert sum(fs.values()) == 1
    assert per_ctx[ci] == {sec: 1}
    for i in range(len(per_ctx)):
        for j in range(i + 1, len(per_ctx)):
            overlap = set(model.scenario.contexts[i]) & \
                set(model.scenario.contexts[j])
            if overlap:
                labels = model.scenario.sort_labels(overlap)
                assert fs_restrict(per_ctx[i], labels) == \
                    fs_restrict(per_ctx[j], labels)
    _ok(5, f"hardy section {dict(sec.items)} at context {ci} has "
           "no global extension, yet its class vanishes with a compatible "
           f"integer family over {len(family)} weighted sections")


def test_criterion_06_group_obstruction_blocks_fixtures(
        mermin, ghz, mermin_group, ghz_group):
    for ci in range(len(mermin.model.scenario.contexts)):
        for sec in mermin.model.sections[ci]:
            report = mermin_group.analyze(ci, sec)
            assert not report.vanishes
            assert report.decision.certificates
    x_contexts = [i for i, ctx in enumerate(ghz.model.scenario.contexts)
                  if "+XXX" in ctx]
    assert x_contexts
    checked = 0
    for ci in x_contexts:
        for sec in ghz.model.sections[ci]:
            report = ghz_group.analyze(ci, sec)
            assert not report.vanishes
            assert report.decision.certificates
            checked += 1
    assert checked >= 1
    _ok(6, "group obstruction nonzero on all 24 mermin sections and on "
           f"{checked} section(s) of the {len(x_contexts)} GHZ context(s) "
           "containing +XXX")


def test_criterion_07_no_vanishing_cech_with_blocked_group(mermin, ghz):
    for bundle in (mermin, ghz):
        report = cross_check_obstructions(bundle.structured)
        assert report.consistent
        assert all(not r.cech_vanishes and not r.group_vanishes
                   for r in report.rows)
    rng = random.Random(20260814)
    built = rows = vanishing = 0
    while built < 100:
        n = rng.randint(1, 3)
        gens = [parse_pauli(rng.choice("+-") +
                            "".join(rng.choice("IXYZ") for _ in range(n)))
                for _ in range(rng.randint(1, 4))]
        gens.append(parse_pauli("-" + "I" * n))
        if len(close_under_commuting_products(gens)) > 40:
            continue
        if rng.random() < 0.5:
            st = build_state_dependent_model(gens, ghz_state(n))
        else:
            st = build_state_independent_model(gens)
        # raises internally if the routes split, or if a vanishing class
        # fails to collapse to a verified global splitting extending s0
        report = cross_check_obstructions(st)
        assert report.consistent
        built += 1
        rows += len(report.rows)
        vanishing += sum(r.cech_vanishes for r in report.rows)
    assert built == 100 and vanishing > 0
    _ok(7, "no vanishing-Cech/blocked-group instance across mermin, ghz "
           f"and 100 random commuting-closed submodels ({rows} sections, "
           f"{vanishing} with vanishing class collapsed and re-verified)")


def test_criterion_08_coboundary_squares_to_zero_and_beta_is_stable(
        mermin, ghz, mermin_group, ghz_group):
    rng = random.Random(91)
    cech_count = 0
    for name in ("hardy", "mermin"):
        model = get_fixture(name).model
        nerve = build_nerve(model.scenario)
        for _ in range(300):
            vals = {}
            for simplex in nerve.degree(0):
                pool = sections_below(model, nerve.supports[simplex])
                vals[simplex] = {
                    s: rng.randint(-3, 3)
                    for s in rng.sample(pool, k=min(len(pool), 3))}
            c = make_cech_cochain(nerve, 0, vals)
            assert not cech_coboundary(nerve, cech_coboundary(nerve, c)).values
            cech_count += 1
    quotients = [mermin_group.quotient, _z9_quotient(), _z3xz3_quotient()]
    monoid_count = 0
    for _ in range(500):
        q = rng.choice(quotients)
        tuples = q.monoid.composable(1)
        vals = {t: tuple(rng.randrange(d) for d in q.action.moduli)
                for t in rng.sample(tuples, k=min(len(tuples), 6))}
        c = make_cochain(q.monoid, q.action.moduli, 1, vals)
        assert not coboundary(coboundary(c)).values
        monoid_count += 1
    assert cech_count + monoid_count >= 1000

    def beta_is_cocycle(ob):
        assert not coboundary(ob.beta).values

    obstructions = 0
    for ci in range(len(mermin.model.scenario.contexts)):
        for sec in mermin.model.sections[ci]:
            beta_is_cocycle(mermin_group.analyze(ci, sec).obstruction)
            obstructions += 1
    ghz_ci = next(i for i, ctx in enumerate(ghz.model.scenario.contexts)
                  if "+XXX" in ctx)
    ghz_sec = ghz.model.sections[ghz_ci][0]
    beta_is_cocycle(ghz_group.analyze(ghz_ci, ghz_sec).obstruction)
    obstructions += 1

    overrides = 0
    for group, bundle, ci, sec in (
            (mermin_group, mermin, 0, mermin.model.sections[0][0]),
            (ghz_group, ghz, ghz_ci, ghz_sec)):
        q = group.quotient
        ctx = bundle.model.scenario.contexts[ci]
        base = obstruction_cocycle(
            q, ctx, splitting_of_section(sec, ctx, bundle.structured.action))
        verdict = group.analyze(ci, sec).vanishes
        free = [x for x in q.monoid.elements
                if x not in base.relative_orbits]
        for _ in range(10):
            override = {x: rng.choice(q.members(x)) for x in free}
            report = group.analyze(ci, sec, eta_override=override)
            assert report.vanishes == verdict
            beta_is_cocycle(report.obstruction)
            overrides += 1
    _ok(8, f"d(d(c)) = 0 on {cech_count} Cech and {monoid_count} monoid "
           f"random cochains; beta a relative 2-cocycle on {obstructions} "
           f"obstructions, verdicts stable under {overrides} eta overrides")


def test_criterion_09_splitting_lemma_round_trips(
        mermin, ghz, mermin_group, ghz_group):
    trips = 0
    for group, bundle in ((mermin_group, mermin), (ghz_group, ghz)):
        q = group.quotient
        action = bundle.structured.action
        for ci, ctx in enumerate(bundle.model.scenario.contexts):
            for sec in bundle.model.sections[ci]:
                s = splitting_of_section(sec, ctx, action)
                assert validate_splitting(q, ctx, s).ok
                phi = trivialisation_from_splitting(q, ctx, s)
                # a bijection onto A x (orbits inside the context)
                assert len(set(phi.values())) == len(ctx)
                assert splitting_from_trivialisation(q, ctx, phi) == s
                h = right_splitting_of(q, ctx, phi)
                assert trivialisation_from_right_splitting(q, ctx, h) == phi
                trips += 1
    assert trips == 24 + 135
    _ok(9, f"splitting lemma round trips (s -> phi -> s and phi -> h -> "
           f"phi) on all {trips} fixture context sections, every "
           "trivialisation bijective")


def test_criterion_10_kernels_match_independent_oracles():
    for n in (1, 2):
        ops = all_ops(n)
        mats = {p: op_matrix(p) for p in ops}
        for p in ops:
            for q in ops:
                assert np.allclose(mats[multiply(p, q)], mats[p] @ mats[q])
                same = np.allclose(mats[p] @ mats[q], mats[q] @ mats[p])
                assert commutes(p, q) == same
    rng = random.Random(5)
    mod_checked = 0
    for modulus in (2, 3, 4):
        for _ in range(25):
            ncols = rng.randint(1, 4)
            nrows = rng.randint(1, 5)
            rows = [[rng.randrange(modulus) for _ in range(ncols)]
                    for _ in range(nrows)]
            rhs = [rng.randrange(modulus) for _ in range(nrows)]
            result = decide_mod(rows, rhs, modulus, ncols=ncols)
            assert certifies(rows, rhs, result, modulus)
            brute = any(
                all(sum(r * x for r, x in zip(row, vec)) % modulus == b
                    for row, b in zip(rows, rhs))
                for vec in _vectors(modulus, ncols))
            assert result.feasible == brute
            mod_checked += 1
    # a 12-unknown parity chain forcing x0 = x11 twice over, then broken
    rows = [[1 if j in (i, i + 1) else 0 for j in range(12)]
            for i in range(11)]
    rows += [[1] + [0] * 11, [1] + [0] * 10 + [1]]
    rhs = [0] * 11 + [0, 1]
    result = decide_mod(rows, rhs, 2, ncols=12)
    assert not result.feasible
    assert certifies(rows, rhs, result, 2)
    assert not any(
        all(sum(r * x for r, x in zip(row, vec)) % 2 == b
            for row, b in zip(rows, rhs))
        for vec in _vectors(2, 12))
    int_checked = 0
    for _ in range(50):
        ncols = rng.randint(1, 4)
        nrows = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)]
                for _ in range(nrows)]
        rhs = [rng.randint(-6, 6) for _ in range(nrows)]
        result = decide_integer(rows, rhs, ncols=ncols)
        assert certifies(rows, rhs, result)
        if result.feasible:
            for row, b in zip(rows, rhs):
                assert sum(r * x for r, x in zip(row, result.witness)) == b
        int_checked += 1
    _ok(10, "pauli arithmetic matches the dense-matrix oracle (n <= 2 "
            f"exhaustive); ModSystem matches brute force on {mod_checked} "
            "systems plus a 12-unknown contradiction; IntegerSystem "
            f"re-verified by substitution on {int_checked} systems")


def _vectors(modulus, ncols):
    vec = [0] * ncols
    while True:
        yield tuple(vec)
        i = 0
        while i < ncols and vec[i] == modulus - 1:
            vec[i] = 0
            i += 1
        if i == ncols:
            return
        vec[i] += 1
