"""Affine theories: extraction, entailment, the all-vs-nothing verdict."""

import random

import pytest

from contextuality import avn
from contextuality.avn import (
    LinearEquation,
    avn_cech_consistency,
    entails,
    is_avn,
    theory_of,
)
from contextuality.errors import PreconditionError
from contextuality.linalg import affine_annihilator
from contextuality.scenario import EmpiricalModel, MeasurementScenario, Section

MERMIN_SQUARE_EQUATIONS = [
    # rows multiply to +1, columns to +1, +1, -1
    LinearEquation((("+XI", 1), ("+IX", 1), ("+XX", 1)), 0),
    LinearEquation((("+IZ", 1), ("+ZI", 1), ("+ZZ", 1)), 0),
    LinearEquation((("+XZ", 1), ("+ZX", 1), ("+YY", 1)), 0),
    LinearEquation((("+XI", 1), ("+IZ", 1), ("+XZ", 1)), 0),
    LinearEquation((("+IX", 1), ("+ZI", 1), ("+ZX", 1)), 0),
    LinearEquation((("+XX", 1), ("+ZZ", 1), ("+YY", 1)), 1),
]

GHZ_EQUATIONS = [
    LinearEquation((("+XXX", 1),), 0),
    LinearEquation((("+XYY", 1),), 1),
    LinearEquation((("+YXY", 1),), 1),
    LinearEquation((("+YYX", 1),), 1),
]


def test_theory_of_mermin(mermin):
    theory = theory_of(mermin.model)
    assert theory.modulus == 2
    assert len(theory.equations) == 36
    # every equation holds on every section of its owning context
    for eq, ci in zip(theory.equations, theory.context_of):
        for sec in mermin.model.sections[ci]:
            assert eq.evaluate(sec.as_dict(), 2) == 0


def test_theory_of_hardy_is_empty(hardy):
    assert theory_of(hardy.model).equations == ()


def test_mermin_square_equations_entailed(mermin):
    theory = theory_of(mermin.model)
    for eq in MERMIN_SQUARE_EQUATIONS:
        assert entails(theory, eq)
    # the six together contradict: every label twice, constants sum odd
    counts = {}
    total = 0
    for eq in MERMIN_SQUARE_EQUATIONS:
        for x, c in eq.coeffs:
            counts[x] = counts.get(x, 0) + c
        total += eq.constant
    assert all(v % 2 == 0 for v in counts.values())
    assert total % 2 == 1


def test_ghz_equations_entailed(ghz):
    theory = theory_of(ghz.model)
    for eq in GHZ_EQUATIONS:
        assert entails(theory, eq)


def test_entails_rejects_unknown_label(mermin):
    theory = theory_of(mermin.model)
    with pytest.raises(PreconditionError):
        entails(theory, LinearEquation((("nope", 1),), 0))


def test_entails_on_empty_theory(hardy):
    theory = theory_of(hardy.model)
    assert entails(theory, LinearEquation((), 0))
    assert not entails(theory, LinearEquation((("a1", 1),), 0))
    assert not entails(theory, LinearEquation((), 1))


def test_is_avn_verdicts(mermin, ghz, hardy):
    rm = is_avn(mermin.model)
    rg = is_avn(ghz.model)
    rh = is_avn(hardy.model)
    assert rm.avn and rg.avn and not rh.avn
    assert rh.witness is not None
    for eq in rh.theory.equations:
        assert eq.evaluate(rh.witness, 2) == 0
    # independently re-verify the refuting combinations
    for report in (rm, rg):
        y = report.certificate.certificate
        eqs = report.theory.equations
        assert len(y) == len(eqs)
        labels = report.theory.model.scenario.measurements
        for x in labels:
            total = sum(
                yi * dict(eq.coeffs).get(x, 0)
                for yi, eq in zip(y, eqs))
            assert total % 2 == 0
        rhs = sum(yi * eq.constant for yi, eq in zip(y, eqs))
        assert rhs % 2 == 1


def test_avn_forces_nonvanishing_cech(mermin, hardy):
    rep = avn_cech_consistency(mermin.model)
    assert rep.avn
    assert len(rep.rows) == 24
    assert all(not row.gamma_vanishes for row in rep.rows)
    # nothing to enforce on a non-AvN model
    rep2 = avn_cech_consistency(hardy.model)
    assert not rep2.avn and rep2.rows == ()


def test_linear_equation_evaluate():
    eq = LinearEquation((("a", 1), ("b", 3)), 2)
    assert eq.evaluate({"a": 1, "b": 1}, 4) == 2
    assert eq.evaluate({"a": 1, "b": 3}, 4) == 0


def _binary_cycle(rng, n):
    """A binary n-cycle on pairs (x_i, x_{i+1}), each pair's support a
    random nonempty set of outcome pairs, so supports repeat."""
    labels = [f"x{i}" for i in range(n)]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    scenario = MeasurementScenario.make(
        labels, 2, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
    return EmpiricalModel.make(scenario, [
        [Section.of(dict(zip(ctx, p)))
         for p in rng.sample(pairs, rng.randint(1, 4))]
        for ctx in scenario.contexts])


def _reference_theory(model):
    """Each context's own ``affine_annihilator`` on its labels, stacked
    in context order, without the trivial relation 0 = 0."""
    d = model.scenario.outcome_modulus
    equations, owners = [], []
    for ci, ctx in enumerate(model.scenario.contexts):
        for r, a in affine_annihilator(model.rows[ci], d):
            coeffs = tuple((x, c) for x, c in zip(ctx, r) if c % d)
            if coeffs or a % d:
                equations.append(LinearEquation(coeffs, a % d))
                owners.append(ci)
    return tuple(equations), tuple(owners)


def test_theory_has_one_annihilator_per_distinct_support(
        mermin, ghz, hardy, monkeypatch):
    """The theory equals the per-context reference, equation for
    equation, while ``affine_annihilator`` runs once per distinct row
    set."""
    rng = random.Random(1502)
    models = [mermin.model, ghz.model, hardy.model,
              *(_binary_cycle(rng, rng.randint(8, 30)) for _ in range(12))]
    calls = []

    def counted(points, modulus):
        calls.append(points)
        return affine_annihilator(points, modulus)

    monkeypatch.setattr(avn, "affine_annihilator", counted)
    shared = 0
    for model in models:
        calls.clear()
        theory = theory_of(model)
        assert (theory.equations, theory.context_of) == \
            _reference_theory(model)
        assert sorted(calls) == sorted(set(model.rows))
        shared += len(set(model.rows)) < len(model.rows)
    assert shared >= 12
