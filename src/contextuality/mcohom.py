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


class Cochain:
    """An A-valued function on the composable tuples of one degree.

    It is held as one flat int list per cyclic factor over
    ``monoid.composable(degree)``; ``values`` reads it as a sparse dict
    from label tuples to the nonzero value tuples.  Built from such a
    dict, a value on a tuple that is not composable, or whose arity does
    not match the moduli, is a precondition error.
    """

    def __init__(self, monoid: PartialMonoid, moduli, degree: int,
                 values: dict):
        moduli = tuple(moduli)
        columns = tuple([0] * monoid.count(degree) for _ in moduli)
        for t, v in values.items():
            j = monoid.position(t) if len(t) == degree else None
            if j is None:
                raise PreconditionError(
                    f"{t} is not a composable {degree}-tuple")
            if len(v) != len(moduli):
                raise PreconditionError("value arity does not match the moduli")
            for col, a in zip(columns, v):
                col[j] = a
        self._set(monoid, moduli, degree, columns)

    @classmethod
    def of_columns(cls, monoid: PartialMonoid, moduli, degree: int,
                   columns) -> "Cochain":
        self = cls.__new__(cls)
        self._set(monoid, tuple(moduli), degree, tuple(columns))
        return self

    def _set(self, monoid, moduli, degree, columns) -> None:
        self.monoid = monoid
        self.moduli = moduli
        self.degree = degree
        self.columns = columns

    @property
    def zero_value(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    @property
    def values(self) -> dict:
        tuples = self.monoid.composable(self.degree)
        return {tuples[j]: v for j, v in enumerate(zip(*self.columns))
                if any(v)}

    def value(self, t) -> tuple[int, ...]:
        t = tuple(t)
        j = self.monoid.position(t) if len(t) == self.degree else None
        if j is None:
            return self.zero_value
        return tuple(col[j] for col in self.columns)

    def is_zero(self) -> bool:
        return not any(any(col) for col in self.columns)

    def same_as(self, other: "Cochain") -> bool:
        if self.degree != other.degree or self.moduli != other.moduli:
            return False
        if self.monoid is other.monoid:
            return self.columns == other.columns
        return self.values == other.values


def make_cochain(monoid, moduli, degree, values) -> Cochain:
    moduli = tuple(moduli)
    norm = {}
    for t, v in values.items():
        if len(tuple(v)) != len(moduli):
            raise PreconditionError("value arity does not match the moduli")
        norm[tuple(t)] = tuple(int(a) % d for a, d in zip(v, moduli))
    return Cochain(monoid, moduli, degree, norm)


def coboundary(c: Cochain) -> Cochain:
    """The bar differential.

    d f(m_1..m_{n+1}) = f(m_2..) + sum_i (-1)^i f(.. m_i + m_{i+1} ..)
                        + (-1)^{n+1} f(.. m_n),
    taken componentwise modulo the coefficient moduli.  All inner sums
    are defined whenever the outer tuple is composable.

    Each output entry is one signed sum over the monoid's cached face
    columns (``PartialMonoid.faces``), read in a single pass over the
    zipped columns and reduced there.
    """
    n = c.degree
    cols = c.monoid.faces(n)
    sums = []
    for f, d in zip(c.columns, c.moduli):
        if n == 0:
            sums.append([(f[a] - f[b]) % d for a, b in zip(*cols)])
        elif n == 1:
            sums.append([(f[a] - f[b] + f[x]) % d for a, b, x in zip(*cols)])
        else:
            sums.append([(f[a] - f[b] + f[x] - f[y]) % d
                         for a, b, x, y in zip(*cols)])
    return Cochain.of_columns(c.monoid, c.moduli, n + 1, sums)


def splitting_of_section(section: Section, context,
                         action: CoefficientAction):
    """Read a scenario section as an A-valued map on its context.

    The coefficient group must be a single cyclic factor matching the
    outcome modulus, which is how structured models are built.
    """
    if len(action.moduli) != 1:
        raise PreconditionError(
            "sections translate to splittings only for cyclic coefficients")
    d, values = action.moduli[0], dict(section.items)
    return {x: (values[x] % d,) for x in context}


@dataclass(frozen=True, eq=False)
class SectionObstruction:
    """beta and the data that produced it.

    ``inside`` flags the orbits of the context and ``eta_ids`` holds the
    parent id of each orbit's representative, both over quotient ids;
    ``relative_orbits`` and ``eta`` read them as labels.
    """

    quotient: Quotient
    context_labels: tuple[str, ...]
    inside: bytes
    splitting: dict
    eta_ids: list[int]
    beta: Cochain

    @property
    def relative_orbits(self) -> frozenset[str]:
        names = self.quotient.monoid.elements
        return frozenset(names[q] for q, flag in enumerate(self.inside)
                         if flag)

    @property
    def eta(self) -> dict:
        els = self.quotient.parent.elements
        return {q: els[x] for q, x in
                zip(self.quotient.monoid.elements, self.eta_ids)}


def _frame(quotient: Quotient, context_labels) -> tuple:
    """What every section's obstruction on one context shares: its labels,
    their parent ids, the inside-orbit flags and the inside orbits, the
    positions of the context block's pairs, and the least members."""
    ids = [quotient.parent.id_of(x) for x in context_labels]
    m, index = quotient.monoid.size, quotient.monoid.pair_index
    inside = bytearray(m)
    for i in ids:
        inside[quotient.orbit_ids[i]] = 1
    orbits = [q for q, flag in enumerate(inside) if flag]
    # (a, b) runs in id order, as the pair positions do
    block = [index[a * m + b] for a in orbits for b in orbits
             if index[a * m + b] >= 0]
    return (tuple(context_labels), ids, bytes(inside), orbits, block,
            [members[0] for members in quotient.member_ids])


def obstruction_cocycle(quotient: Quotient, context_labels, splitting,
                        eta_override=None) -> SectionObstruction:
    """The 2-cocycle measuring how far a context section is from global.

    ``splitting`` must be a left splitting on the context.  ``eta`` picks
    one representative per orbit: on orbits inside the context it is
    forced to the member where the splitting vanishes; elsewhere it
    defaults to the least member, and ``eta_override`` may replace those
    free choices (the cohomology class does not depend on them); a key
    that names no orbit, or one inside the context, is refused.
    """
    context_labels = tuple(context_labels)
    report = validate_splitting(quotient, context_labels, splitting)
    if not report.ok:
        raise PreconditionError(
            "not a left splitting: " + "; ".join(report.violations))
    return _obstruction(quotient, _frame(quotient, context_labels),
                        splitting, eta_override)


def _obstruction(quotient: Quotient, frame: tuple, splitting,
                 eta_override) -> SectionObstruction:
    """``obstruction_cocycle`` on a splitting already validated, with its
    context's ``_frame``."""
    labels, ids, inside, orbits, block, defaults = frame
    parent, monoid = quotient.parent, quotient.monoid
    n, names, orbit = parent.size, monoid.elements, quotient.orbit_ids
    eta = list(defaults)
    for name, cand in (eta_override or {}).items():
        q = monoid.id_of(name)
        if q < 0 or inside[q]:
            raise PreconditionError(
                f"override key {name!r} names no orbit outside the context")
        x = parent.id_of(cand)
        if x < 0 or orbit[x] != q:
            raise PreconditionError(
                f"override {cand!r} is not a member of {name}")
        eta[q] = x
    # validated values are reduced, so 0 is the one with no nonzero entry
    flat = [i for x, i in zip(labels, ids) if not any(splitting[x])]
    hits = [orbit[i] for i in flat]
    if sorted(hits) != orbits:
        q = next(q for q in orbits if hits.count(q) != 1)
        raise InternalCheckError(
            f"splitting vanishes on {hits.count(q)} members of {names[q]}")
    for q, i in zip(hits, flat):
        eta[q] = i
    qx, qy, qz = monoid.pairs()
    sums = parent.sums
    w = [sums[eta[a] * n + eta[b]] for a, b in zip(qx, qy)]
    if -1 in w:
        k = w.index(-1)
        raise PreconditionError(
            f"sum {parent.elements[eta[qx[k]]]!r} + "
            f"{parent.elements[eta[qy[k]]]!r} is undefined")
    table = quotient.value_table
    beta_ids = [table[x * n + eta[c]] for x, c in zip(w, qz)]
    if -1 in beta_ids:
        k = beta_ids.index(-1)
        raise InternalCheckError(
            f"{parent.elements[w[k]]!r} not in the orbit of "
            f"{parent.elements[eta[qz[k]]]!r}")
    if any([beta_ids[p] for p in block]):
        raise InternalCheckError("beta does not vanish on the context block")
    beta = Cochain.of_columns(monoid, quotient.action.moduli, 2,
                              quotient.action.columns(beta_ids))
    if not coboundary(beta).is_zero():
        bad = _associativity_violation(quotient)
        raise (PreconditionError(bad) if bad else
               InternalCheckError("beta is not a 2-cocycle"))
    return SectionObstruction(quotient, labels, inside, dict(splitting), eta,
                              beta)


def _associativity_violation(quotient: Quotient) -> str | None:
    """Where the glued monoid fails associativity, or None: the input fault
    that breaks a d(beta)=0 audit.  Each context is associative and holds
    i(A), so i(a) moves out of any sum, and a triple is associative when
    its orbits' least members are: the quotient is associative and their
    beta is a 2-cocycle."""
    parent, monoid = quotient.parent, quotient.monoid
    n, sums, els = parent.size, parent.sums, parent.elements
    eta = [members[0] for members in quotient.member_ids]
    qx, qy, _qz = monoid.pairs()
    d0, _d1, _d2, d3 = monoid.faces(2)
    for p, q in zip(d3, d0):
        x, y, z = eta[qx[p]], eta[qy[p]], eta[qy[q]]
        left = sums[sums[x * n + y] * n + z]
        right = sums[x * n + sums[y * n + z]]
        if left != right:
            return (f"glued monoid not associative at "
                    f"{(els[x], els[y], els[z])}: (x + y) + z = "
                    f"{els[left]!r}, x + (y + z) = {els[right]!r}")
    return None


@dataclass(frozen=True, eq=False)
class CoboundaryDecision:
    """Outcome of deciding beta = d(gamma) with gamma relative to C.

    ``gamma_ids`` holds gamma's group id on each quotient id; ``gamma``
    reads it as a label dict.  It keeps the quotient, not the solver, so
    a kept decision keeps no linear system alive."""

    vanishes: bool
    gamma_ids: list[int] | None
    certificates: tuple[tuple[int, ModSolveResult], ...] | None
    quotient: Quotient

    @property
    def gamma(self) -> dict | None:
        if self.gamma_ids is None:
            return None
        q = self.quotient
        group = q.action.elements()
        return {name: group[a]
                for name, a in zip(q.monoid.elements, self.gamma_ids)}


class CoboundarySolver:
    """Decides relative-coboundary questions for one context block.

    The linear system depends only on the quotient and on which orbits
    the cochain must vanish on, so one solver serves every section of a
    context; beta only changes the right-hand side.  A relative name that
    is no orbit is refused.  Since the monoid is commutative and beta is
    built symmetrically, only ordered pairs are kept: their positions
    among the composable pairs, each with the position of its mirror
    (y, x); the audits compare columns read there as lists.  Each kept
    pair's row is built once, sparse, and every cyclic factor's modulus
    gets one ``ModSystem`` on those rows, built on first use and reused
    for every later beta; its modulus-2 local is the bitmask GF(2)
    solver.
    """

    def __init__(self, quotient: Quotient, relative_orbits):
        self.quotient = quotient
        self.relative = frozenset(relative_orbits)
        monoid = quotient.monoid
        m = monoid.size
        rel = bytearray(m)
        for name in self.relative:
            q = monoid.id_of(name)
            if q < 0:
                raise PreconditionError(f"{name!r} is not an orbit")
            rel[q] = 1
        self._unknowns = [q for q in range(m) if not rel[q]]
        column = [-1] * m
        for j, q in enumerate(self._unknowns):
            column[q] = j
        qx, qy, qz = monoid.pairs()
        index = monoid.pair_index
        self._kept = [p for p, (a, b, c) in enumerate(zip(qx, qy, qz))
                      if a <= b and not (rel[a] and rel[b] and rel[c])]
        self._mirror = [index[qy[p] * m + qx[p]] for p in self._kept]
        # neither the pair nor its mirror is kept
        self._outside = [p for p, (a, b, c) in enumerate(zip(qx, qy, qz))
                         if rel[a] and rel[b] and rel[c]]
        self._rows = []
        for p in self._kept:
            row = {}
            for q, coeff in ((qx[p], 1), (qy[p], 1), (qz[p], -1)):
                if column[q] >= 0:
                    row[column[q]] = row.get(column[q], 0) + coeff
            self._rows.append({j: a for j, a in row.items() if a})
        self._systems: dict[int, ModSystem] = {}

    def _solve_factor(self, d: int, rhs: list[int]) -> ModSolveResult:
        if d not in self._systems:
            self._systems[d] = ModSystem(self._rows, d, len(self._unknowns))
        return self._systems[d].solve(rhs)

    def decide(self, beta: Cochain) -> CoboundaryDecision:
        action = self.quotient.action
        for col in beta.columns:
            if any([col[p] for p in self._outside]):
                raise InternalCheckError(
                    "cochain not relative to the context block")
        for col in beta.columns:
            if [col[p] for p in self._kept] != [col[r] for r in self._mirror]:
                raise InternalCheckError("cochain is not symmetric")
        gamma_cols = []
        certificates = []
        for k, (col, d) in enumerate(zip(beta.columns, action.moduli)):
            res = self._solve_factor(d, [col[p] % d for p in self._kept])
            if res.feasible:
                gamma = [0] * self.quotient.monoid.size
                for q, v in zip(self._unknowns, res.witness):
                    gamma[q] = v % d
                gamma_cols.append(gamma)
            else:
                certificates.append((k, res))
        if certificates:
            return CoboundaryDecision(False, None, tuple(certificates),
                                      self.quotient)
        one = Cochain.of_columns(self.quotient.monoid, action.moduli, 1,
                                 gamma_cols)
        if not coboundary(one).same_as(beta):
            raise InternalCheckError("gamma does not bound beta")
        gamma_ids = [action.id_of(v) for v in zip(*gamma_cols)]
        return CoboundaryDecision(True, gamma_ids, None, self.quotient)


# --- Structured-model validation and the full per-section report -------


def validate_structured_model(structured: StructuredModel) -> ValidationReport:
    """Does the model satisfy the gluing/action/splitting axioms?

    Checks that the context tables glue, that the coefficient group is
    the outcome group embedded in the intersection of all contexts,
    that its translation action is free, that every listed section
    is a left splitting of its context, and that the glued monoid is
    associative across contexts.
    """
    report, quotient = _validate(structured)
    bad = quotient is not None and _associativity_violation(quotient)
    return ValidationReport(report.violations + ((bad,) if bad else ()))


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
    """Shared gluing and quotient for one model, and the obstruction frame
    and coboundary solver of the one context it is answering, which a
    query in another context replaces.

    Set-up validates every section's splitting, so queries do not."""

    def __init__(self, structured: StructuredModel):
        report, quotient = _validate(structured)
        if not report.ok:
            raise PreconditionError(
                "structured model invalid: " + "; ".join(report.violations))
        self.structured = structured
        self.quotient = quotient
        self.monoid = quotient.parent
        self._slot: tuple = (None, None)

    def _context(self, context_index: int):
        if self._slot[0] != context_index:
            self._slot = (None, None)  # dropped before the new ones are built
            ctx = self.structured.model.scenario.contexts[context_index]
            inside = frozenset(self.quotient.orbit_of(x) for x in ctx)
            self._slot = (context_index, (
                _frame(self.quotient, ctx),
                CoboundarySolver(self.quotient, inside)))
        return self._slot[1]

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
        frame, solver = self._context(context_index)
        sp = splitting_of_section(section, ctx, self.structured.action)
        obstruction = _obstruction(self.quotient, frame, sp, eta_override)
        decision = solver.decide(obstruction.beta)
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
        els, n = q.parent.elements, q.parent.size
        h = {orbit: els[q.act_table[a * n + x]] for orbit, a, x in
             zip(q.monoid.elements, decision.gamma_ids, obstruction.eta_ids)}
        phi = trivialisation_from_right_splitting(q, els, h)
        d = self.structured.action.moduli[0]
        outcome = {x: a[0] % d for x, (a, _orbit) in phi.items()}
        values = dict(section.items)
        for x in ctx:
            if outcome[x] != values[x]:
                raise InternalCheckError(
                    f"reconstructed splitting disagrees with the section "
                    f"at {x!r}")
        return outcome


def group_obstruction(structured: StructuredModel, context_index: int,
                      section: Section,
                      eta_override=None) -> GroupObstructionReport:
    """The group obstruction of one section, from the analyzer the model
    holds (``StructuredModel.group_analyzer``)."""
    return structured.group_analyzer.analyze(
        context_index, section, eta_override=eta_override)
