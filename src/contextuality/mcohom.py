"""Cohomological obstructions on quotients of glued measurement monoids.

A section s over a context C is a splitting of the quotient map
pi: X -> X/A on the sub-monoid C.  Choosing a representative eta(q) in
each orbit q, with eta on pi(C) forced to the representative where s
vanishes, measures the failure of eta to be a global homomorphic
section by

    eta(q1) + eta(q2) = eta(q1 + q2) + i(beta(q1, q2)).

beta is a 2-cocycle of the bar complex of X/A, relative to pi(C); its
class is independent of the representative choice.  The class vanishes
iff s extends to a global splitting, which this module reconstructs
explicitly whenever the deciding linear system is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError, StructureError
from .linalg import ModSolveResult, ModSystem
from .pmonoid import (
    CoefficientAction,
    PartialMonoid,
    Quotient,
    StructuredModel,
    glue_contexts,
    quotient_by_action,
    trivialisation_from_right_splitting,
    validate_splitting,
)
from .scenario import Section, ValidationReport


@dataclass(frozen=True, eq=False)
class Cochain:
    """A sparse A-valued function on the composable tuples of a degree."""

    monoid: PartialMonoid
    moduli: tuple[int, ...]
    degree: int
    values: dict

    @property
    def zero_value(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def value(self, t) -> tuple[int, ...]:
        return self.values.get(tuple(t), self.zero_value)

    def same_as(self, other: "Cochain") -> bool:
        if self.degree != other.degree or self.moduli != other.moduli:
            return False
        keys = set(self.values) | set(other.values)
        return all(self.value(t) == other.value(t) for t in keys)

    def is_zero_on(self, tuples) -> bool:
        return all(self.value(t) == self.zero_value for t in tuples)


def make_cochain(monoid, moduli, degree, values) -> Cochain:
    moduli = tuple(moduli)
    zero = (0,) * len(moduli)
    norm = {}
    known = monoid.positions(degree)
    for t, v in values.items():
        t = tuple(t)
        if t not in known:
            raise PreconditionError(f"{t} is not a composable {degree}-tuple")
        if len(tuple(v)) != len(moduli):
            raise PreconditionError("value arity does not match the moduli")
        v = tuple(int(a) % d for a, d in zip(v, moduli))
        if v != zero:
            norm[t] = v
    return Cochain(monoid, moduli, degree, norm)


def coboundary(c: Cochain) -> Cochain:
    """The bar differential.

    d f(m_1..m_{n+1}) = f(m_2..) + sum_i (-1)^i f(.. m_i + m_{i+1} ..)
                        + (-1)^{n+1} f(.. m_n),
    taken componentwise modulo the coefficient moduli.  All inner sums
    are defined whenever the outer tuple is composable.

    Each cyclic factor of f is scattered into a flat list over the
    n-tuples and summed along the monoid's cached face columns
    (``PartialMonoid.faces``), one signed column at a time; only the
    nonzero (n+1)-tuples are kept.  A value on a tuple that is not
    composable is a precondition error, as in ``make_cochain``.
    """
    P = c.monoid
    n = c.degree
    moduli = c.moduli
    cols = P.faces(n)
    pos = P.positions(n)
    scattered = []
    for t, v in c.values.items():
        j = pos.get(t)
        if j is None:
            raise PreconditionError(f"{t} is not a composable {n}-tuple")
        if len(v) != len(moduli):
            raise PreconditionError("value arity does not match the moduli")
        scattered.append((j, v))
    sums = []
    for k, d in enumerate(moduli):
        f = [0] * len(pos)
        for j, v in scattered:
            f[j] = v[k]
        acc = [f[j] for j in cols[0]]
        for i in range(1, n + 2):
            if i % 2:
                acc = [a - f[j] for a, j in zip(acc, cols[i])]
            else:
                acc = [a + f[j] for a, j in zip(acc, cols[i])]
        sums.append([a % d for a in acc])
    upper = P.composable(n + 1)
    out = {upper[j]: v for j, v in enumerate(zip(*sums)) if any(v)}
    return Cochain(P, moduli, n + 1, out)


def splitting_of_section(section: Section, context,
                         action: CoefficientAction):
    """Read a scenario section as an A-valued map on its context.

    The coefficient group must be a single cyclic factor matching the
    outcome modulus, which is how structured models are built.
    """
    if len(action.moduli) != 1:
        raise PreconditionError(
            "sections translate to splittings only for cyclic coefficients")
    return {x: (section[x] % action.moduli[0],) for x in context}


@dataclass(frozen=True, eq=False)
class SectionObstruction:
    """beta and the data that produced it."""

    quotient: Quotient
    context_labels: tuple[str, ...]
    relative_orbits: frozenset[str]
    splitting: dict
    eta: dict
    beta: Cochain


def obstruction_cocycle(quotient: Quotient, context_labels, splitting,
                        eta_override=None) -> SectionObstruction:
    """The 2-cocycle measuring how far a context section is from global.

    ``splitting`` must be a left splitting on the context.  ``eta`` picks
    one representative per orbit: on orbits inside the context it is
    forced to the member where the splitting vanishes; elsewhere it
    defaults to the least member, and ``eta_override`` may replace those
    free choices (the cohomology class does not depend on them).
    """
    context_labels = tuple(context_labels)
    report = validate_splitting(quotient, context_labels, splitting)
    if not report.ok:
        raise PreconditionError(
            "not a left splitting: " + "; ".join(report.violations))
    return _obstruction(quotient, context_labels, splitting, eta_override)


def _obstruction(quotient: Quotient, context_labels: tuple, splitting,
                 eta_override) -> SectionObstruction:
    """``obstruction_cocycle`` on a splitting already validated."""
    action = quotient.action
    zero = action.zero
    inside = {quotient.orbit_of[x] for x in context_labels}
    eta = {}
    for q in quotient.monoid.elements:
        if q in inside:
            flat = [x for x in quotient.members[q]
                    if tuple(splitting[x]) == zero]
            if len(flat) != 1:
                raise InternalCheckError(
                    f"splitting vanishes on {len(flat)} members of {q}")
            eta[q] = flat[0]
        elif eta_override is not None and q in eta_override:
            cand = eta_override[q]
            if quotient.orbit_of.get(cand) != q:
                raise PreconditionError(
                    f"override {cand!r} is not a member of {q}")
            eta[q] = cand
        else:
            eta[q] = quotient.default_representative(q)
    parent = quotient.parent
    beta_values = {}
    for q1, q2 in quotient.monoid.composable_pairs():
        w = parent.add(eta[q1], eta[q2])
        base = eta[quotient.monoid.add(q1, q2)]
        beta_values[(q1, q2)] = quotient.value_at(w, base)
    beta = make_cochain(quotient.monoid, action.moduli, 2, beta_values)
    rel_pairs = [(a, b) for a, b in quotient.monoid.composable_pairs()
                 if a in inside and b in inside]
    if not beta.is_zero_on(rel_pairs):
        raise InternalCheckError("beta does not vanish on the context block")
    if coboundary(beta).values:
        raise InternalCheckError("beta is not a 2-cocycle")
    return SectionObstruction(
        quotient, context_labels, frozenset(inside), dict(splitting),
        eta, beta)


@dataclass(frozen=True, eq=False)
class CoboundaryDecision:
    """Outcome of deciding beta = d(gamma) with gamma relative to C."""

    vanishes: bool
    gamma: dict | None
    certificates: tuple[tuple[int, ModSolveResult], ...] | None
    pair_order: tuple


class CoboundarySolver:
    """Decides relative-coboundary questions for one context block.

    The linear system depends only on the quotient and on which orbits
    the cochain must vanish on, so one solver serves every section of a
    context; beta only changes the right-hand side.  Since the monoid
    is commutative and beta is built symmetrically, only ordered pairs
    are kept.  Each cyclic factor's modulus gets one ``ModSystem``, built
    on first use and reused for every later beta; its modulus-2 local is
    the bitmask GF(2) solver.
    """

    def __init__(self, quotient: Quotient, relative_orbits):
        self.quotient = quotient
        self.relative = frozenset(relative_orbits)
        monoid = quotient.monoid
        self.unknowns = [q for q in monoid.elements if q not in self.relative]
        index = {q: j for j, q in enumerate(self.unknowns)}
        order = {q: j for j, q in enumerate(monoid.elements)}
        self.pair_order = tuple(
            t for t in monoid.composable_pairs()
            if order[t[0]] <= order[t[1]]
            and not (t[0] in self.relative and t[1] in self.relative
                     and monoid.add(*t) in self.relative))
        self._rows = []
        for q1, q2 in self.pair_order:
            row = [0] * len(self.unknowns)
            for q, coeff in ((q1, 1), (q2, 1), (monoid.add(q1, q2), -1)):
                j = index.get(q)
                if j is not None:
                    row[j] += coeff
            self._rows.append(row)
        self._systems: dict[int, ModSystem] = {}

    def _solve_factor(self, d: int, rhs: list[int]) -> ModSolveResult:
        if d not in self._systems:
            self._systems[d] = ModSystem(
                [[a % d for a in row] for row in self._rows], d,
                ncols=len(self.unknowns))
        return self._systems[d].solve(rhs)

    def decide(self, beta: Cochain) -> CoboundaryDecision:
        moduli = self.quotient.action.moduli
        kept = set(self.pair_order)
        monoid = self.quotient.monoid
        for t in monoid.composable_pairs():
            if t in kept or tuple(reversed(t)) in kept:
                continue
            if beta.value(t) != beta.zero_value:
                raise InternalCheckError(
                    "cochain not relative to the context block")
        for q1, q2 in self.pair_order:
            if beta.value((q1, q2)) != beta.value((q2, q1)):
                raise InternalCheckError("cochain is not symmetric")
        gamma_cols = []
        certificates = []
        for k, d in enumerate(moduli):
            rhs = [beta.value(t)[k] % d for t in self.pair_order]
            res = self._solve_factor(d, rhs)
            if res.feasible:
                gamma_cols.append(res.witness)
            else:
                certificates.append((k, res))
        if certificates:
            return CoboundaryDecision(
                False, None, tuple(certificates), self.pair_order)
        gamma = {q: tuple(col[j] for col in gamma_cols)
                 for j, q in enumerate(self.unknowns)}
        zero = (0,) * len(moduli)
        for q in self.relative:
            gamma[q] = zero
        one = make_cochain(self.quotient.monoid, moduli, 1,
                           {(q,): v for q, v in gamma.items()})
        if not coboundary(one).same_as(beta):
            raise InternalCheckError("gamma does not bound beta")
        return CoboundaryDecision(True, gamma, None, self.pair_order)


def is_coboundary(obstruction: SectionObstruction) -> CoboundaryDecision:
    solver = CoboundarySolver(
        obstruction.quotient, obstruction.relative_orbits)
    return solver.decide(obstruction.beta)


# --- Structured-model validation and the full per-section report -------


def validate_structured_model(structured: StructuredModel) -> ValidationReport:
    """Does the model satisfy the gluing/action/splitting axioms?

    Checks that the context tables glue, that the coefficient group is
    the outcome group embedded in the intersection of all contexts,
    that its translation action is free, and that every listed section
    is a left splitting of its context.
    """
    return _validate(structured)[0]


def _validate(structured: StructuredModel):
    """The report of ``validate_structured_model`` and the quotient of
    the glued monoid it built, None when it stopped before that."""
    bad = []
    model = structured.model
    scenario = model.scenario
    if structured.action.moduli != (scenario.outcome_modulus,):
        bad.append(
            "coefficient group must be one cyclic factor matching the "
            "outcome modulus")
        return ValidationReport(tuple(bad)), None
    try:
        monoid = glue_contexts(structured)
    except (PreconditionError, StructureError) as exc:
        bad.append(f"contexts do not glue: {exc}")
        return ValidationReport(tuple(bad)), None
    try:
        images = structured.action.embedding(monoid)
    except StructureError as exc:
        bad.append(f"coefficient embedding fails: {exc}")
        return ValidationReport(tuple(bad)), None
    for a, img in images.items():
        for ctx in scenario.contexts:
            if img not in ctx:
                bad.append(
                    f"image i({a}) = {img!r} misses context {ctx}")
    if bad:
        return ValidationReport(tuple(bad)), None
    try:
        quotient = quotient_by_action(monoid, structured.action)
    except StructureError as exc:
        bad.append(f"group action fails: {exc}")
        return ValidationReport(tuple(bad)), None
    for ci, ctx in enumerate(scenario.contexts):
        for s in model.sections[ci]:
            sp = splitting_of_section(s, ctx, structured.action)
            rep = validate_splitting(quotient, ctx, sp)
            if not rep.ok:
                bad.append(
                    f"section {s} of context {ci} is not a splitting: "
                    + "; ".join(rep.violations))
    return ValidationReport(tuple(bad)), quotient


@dataclass(frozen=True, eq=False)
class GroupObstructionReport:
    """Everything the group-cohomology route says about one section."""

    context_index: int
    section: Section
    obstruction: SectionObstruction
    decision: CoboundaryDecision
    global_splitting: dict | None

    @property
    def vanishes(self) -> bool:
        return self.decision.vanishes


class GroupObstructionAnalyzer:
    """Shared gluing, quotient and per-context solvers for one model.

    Set-up validates every section's splitting, so queries do not."""

    def __init__(self, structured: StructuredModel):
        report, quotient = _validate(structured)
        if not report.ok:
            raise PreconditionError(
                "structured model invalid: " + "; ".join(report.violations))
        self.structured = structured
        self.quotient = quotient
        self.monoid = quotient.parent
        self._solvers: dict[int, CoboundarySolver] = {}

    def _solver(self, context_index: int) -> CoboundarySolver:
        if context_index not in self._solvers:
            ctx = self.structured.model.scenario.contexts[context_index]
            inside = frozenset(self.quotient.orbit_of[x] for x in ctx)
            self._solvers[context_index] = CoboundarySolver(
                self.quotient, inside)
        return self._solvers[context_index]

    def analyze(self, context_index: int, section: Section,
                eta_override=None) -> GroupObstructionReport:
        model = self.structured.model
        scenario = model.scenario
        if not 0 <= context_index < len(scenario.contexts):
            raise PreconditionError("context index out of range")
        if section not in model.sections[context_index]:
            raise PreconditionError(
                f"{section} is not a section of context {context_index}")
        ctx = scenario.contexts[context_index]
        sp = splitting_of_section(section, ctx, self.structured.action)
        obstruction = _obstruction(self.quotient, ctx, sp, eta_override)
        decision = self._solver(context_index).decide(obstruction.beta)
        glob = None
        if decision.vanishes:
            glob = self._reconstruct(obstruction, decision, ctx, section)
        return GroupObstructionReport(
            context_index, section, obstruction, decision, glob)

    def _reconstruct(self, obstruction, decision, ctx, section):
        """Turn eta + gamma into a verified global splitting.

        h = eta + i(gamma) is a homomorphic section of the quotient
        map.  The splitting-lemma correspondence turns it into a
        trivialisation, validated by ``trivialisation_from_right_splitting``,
        whose first component is a left splitting on all measurements
        that must agree with the section on its own context.
        """
        q = self.quotient
        h = {orbit: q.act(decision.gamma[orbit], obstruction.eta[orbit])
             for orbit in q.monoid.elements}
        phi = trivialisation_from_right_splitting(
            q, q.parent.elements, h)
        d = self.structured.action.moduli[0]
        outcome = {x: phi[x][0][0] % d for x in q.parent.elements}
        for x in ctx:
            if outcome[x] != section[x]:
                raise InternalCheckError(
                    f"reconstructed splitting disagrees with the section "
                    f"at {x!r}")
        return outcome


def group_obstruction(structured: StructuredModel, context_index: int,
                      section: Section,
                      eta_override=None) -> GroupObstructionReport:
    """One-shot wrapper around the analyzer for a single section."""
    return GroupObstructionAnalyzer(structured).analyze(
        context_index, section, eta_override=eta_override)
