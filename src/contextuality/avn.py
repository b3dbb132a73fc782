"""All-vs-Nothing arguments from affine equation theories.

Each context of a possibilistic model satisfies a set of affine
equations over Z_d: the relations every section of that context obeys.
Stacking the equations of all contexts gives the model's theory.  When
the stacked system has no solution at all, no global assignment can
satisfy even the linear consequences of the supports; the model is
then contextual in the strongest, equational sense, and the refuting
combination of equations is an explicit certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError
from .linalg import ModSolveResult, ModSystem, affine_annihilator
from .scenario import EmpiricalModel


@dataclass(frozen=True)
class LinearEquation:
    """sum of coeff * outcome(label) = constant (mod the theory modulus)."""

    coeffs: tuple[tuple[str, int], ...]
    constant: int

    def evaluate(self, assignment, modulus: int) -> int:
        return (sum(c * assignment[x] for x, c in self.coeffs)
                - self.constant) % modulus


@dataclass(eq=False)
class Theory:
    """The affine consequences of a model's supports, per context."""

    model: EmpiricalModel
    modulus: int
    equations: tuple[LinearEquation, ...]
    context_of: tuple[int, ...]


def theory_of(model: EmpiricalModel) -> Theory:
    """Generators of every context's affine relations on its rows, stacked
    in context order.  Contexts with the same rows share one call to
    ``affine_annihilator``, whose relations each context reads on its own
    labels."""
    scenario = model.scenario
    d = scenario.outcome_modulus
    relations = {}
    equations = []
    owners = []
    for ci, (ctx, rows) in enumerate(zip(scenario.contexts, model.rows)):
        if rows not in relations:
            relations[rows] = affine_annihilator(rows, d)
        for r, a in relations[rows]:
            coeffs = tuple((x, c) for x, c in zip(ctx, r) if c % d)
            if not coeffs and a % d == 0:
                continue
            equations.append(LinearEquation(coeffs, a % d))
            owners.append(ci)
    return Theory(model, d, tuple(equations), tuple(owners))


def entails(theory: Theory, equation: LinearEquation) -> bool:
    """Is the equation a Z_d-linear combination of the theory?

    Combination means matching both the coefficient of every
    measurement and the constant term.
    """
    labels = theory.model.scenario.measurements
    pos = {x: i for i, x in enumerate(labels)}
    rows = [{} for _ in range(len(labels) + 1)]
    for j, eq in enumerate(theory.equations):
        for x, c in eq.coeffs:
            rows[pos[x]][j] = c % theory.modulus
        rows[len(labels)][j] = eq.constant % theory.modulus
    rhs = [0] * (len(labels) + 1)
    for x, c in equation.coeffs:
        if x not in pos:
            raise PreconditionError(f"unknown measurement {x!r}")
        rhs[pos[x]] = c % theory.modulus
    rhs[len(labels)] = equation.constant % theory.modulus
    res = ModSystem(rows, theory.modulus, len(theory.equations)).solve(rhs)
    return res.feasible


@dataclass(eq=False)
class AvnReport:
    """Whether the stacked theory refutes every global assignment."""

    avn: bool
    theory: Theory
    witness: dict | None = None
    certificate: ModSolveResult | None = None


def is_avn(model: EmpiricalModel) -> AvnReport:
    """Decide solvability of the full theory over Z_d.

    Infeasibility (the All-vs-Nothing case) comes with a refuting
    combination of equations; feasibility with a satisfying global
    assignment, which need not be a section of the model.
    """
    theory = theory_of(model)
    labels = model.scenario.measurements
    pos = {x: i for i, x in enumerate(labels)}
    d = theory.modulus
    rows = [{pos[x]: c % d for x, c in eq.coeffs} for eq in theory.equations]
    rhs = [eq.constant % d for eq in theory.equations]
    if not rows:
        return AvnReport(False, theory, witness={x: 0 for x in labels})
    res = ModSystem(rows, d, len(labels)).solve(rhs)
    if res.feasible:
        witness = {x: res.witness[pos[x]] for x in labels}
        for eq in theory.equations:
            if eq.evaluate(witness, d):
                raise InternalCheckError("theory witness fails an equation")
        return AvnReport(False, theory, witness=witness)
    return AvnReport(True, theory, certificate=res)


@dataclass(eq=False)
class AvnCechRow:
    context_index: int
    section: object
    gamma_vanishes: bool


@dataclass(eq=False)
class AvnCechReport:
    """Cech verdicts under an All-vs-Nothing theory.

    When the model is AvN, every pinned obstruction must refuse to
    vanish; a vanishing one would collapse to a solution of the theory
    modulo d, so it is flagged as an internal inconsistency.
    """

    avn: bool
    rows: tuple


def avn_cech_consistency(model: EmpiricalModel) -> AvnCechReport:
    report = is_avn(model)
    if not report.avn:
        return AvnCechReport(False, ())
    analyzer = model.cech_analyzer
    rows = []
    for ci in range(len(model.scenario.contexts)):
        for s in model.sections[ci]:
            dec = analyzer.family_obstruction(ci, s)
            if dec.vanishes:
                raise InternalCheckError(
                    f"AvN model with vanishing Cech obstruction at "
                    f"context {ci}, section {s}")
            rows.append(AvnCechRow(ci, s, dec.vanishes))
    return AvnCechReport(True, tuple(rows))
