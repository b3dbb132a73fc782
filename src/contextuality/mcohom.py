"""Cohomological obstructions on quotients of glued measurement monoids.

A section s over a context C is a splitting of the quotient map
pi: X -> X/A on the sub-monoid C.  Choosing a representative eta(q) in
each orbit q, with eta on pi(C) forced to the representative where s
vanishes, measures the failure of eta to be a global homomorphic
section by

    eta(q1) + eta(q2) = eta(q1 + q2) + i(beta(q1, q2)).

beta is a 2-cocycle of the bar complex of X/A, relative to pi(C); its
class is independent of the representative choice.  The class vanishes
iff s extends to a global splitting.  beta0, the cocycle of the least
members with no context forced, differs from beta(s) by d(eps), where
eps(q) moves eta0(q) to eta(q); so if [beta0] is not 0, no section
extends.  Each query is a ladder, and every rung is audited: beta
vanishes on the context block and is symmetric; a global section of the
model through s (its cached ``extension_table``) is checked once as a
splitting of the whole monoid and read off as the gamma with
d(gamma) = beta.  The first section that extends to no global section
has the model's [beta0] decided: beta0 is audited once as a 2-cocycle
and solved with no relative orbits.  If [beta0] is not 0, that solve's
certificate y, checked once by ``separates``, refutes every such
section, each checking y.beta(s) != 0 mod d; otherwise the relative
solve decides, and a feasible one is turned into a global splitting by
the reconstruction.  d(beta) = 0 is checked on pairs: d(gamma) = beta
implies it on a vanishing section, since d(d(gamma)) = 0 on the
associative quotient, and a refuted one checks
beta(s) = beta0 + d(eps).  A failed pair check runs the 2-cocycle audit
to name the failure.  Under the one cyclic coefficient factor Z_d that
set-up requires, an outcome row is its own group ids: set-up and
queries read the model's int rows, and build no ``Section``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

from .errors import (InternalCheckError, PreconditionError, StructureError,
                     located)
from .linalg import ModSolveResult, ModSystem
from .pmonoid import (
    PartialMonoid,
    Quotient,
    StructuredModel,
    glue_contexts,
    _splitting_ids,
    quotient_by_action,
    splitting_violations,
    trivialisation_from_right_splitting,
)
from .scenario import Section, ValidationReport


class Cochain:
    """An A-valued function on the composable tuples of one degree.

    It is held as ``columns``, one flat int list per cyclic factor over
    ``monoid.composable(degree)``; ``values`` reads it as a sparse dict
    from label tuples to the nonzero value tuples.  ``make_cochain``
    builds one from such a dict; handed to the constructor, a dict is
    refused, not read as columns.
    """

    def __init__(self, monoid: PartialMonoid, moduli, degree: int, columns):
        self.monoid = monoid
        self.moduli = tuple(moduli)
        self.degree = degree
        self.columns = tuple(columns)
        if isinstance(columns, dict) or len(self.columns) != len(self.moduli):
            raise PreconditionError("a Cochain takes one column per modulus")

    @property
    def values(self) -> dict:
        tuples = self.monoid.composable(self.degree)
        return {tuples[j]: v for j, v in enumerate(zip(*self.columns))
                if any(v)}

    def value(self, t) -> tuple[int, ...]:
        t = tuple(t)
        j = self.monoid.position(t) if len(t) == self.degree else None
        if j is None:
            return (0,) * len(self.moduli)
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
    """The cochain of a dict from label tuples to value tuples, each value
    reduced mod its factor; a value on a tuple that is not composable, or
    whose arity does not match the moduli, is a precondition error."""
    moduli = tuple(moduli)
    columns = [[0] * monoid.count(degree) for _ in moduli]
    for t, v in values.items():
        t, v = tuple(t), tuple(v)
        if len(v) != len(moduli):
            raise PreconditionError("value arity does not match the moduli")
        j = monoid.position(t) if len(t) == degree else None
        if j is None:
            raise PreconditionError(f"{t} is not a composable {degree}-tuple")
        for col, a, d in zip(columns, v, moduli):
            col[j] = int(a) % d
    return Cochain(monoid, moduli, degree, columns)


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
    return Cochain(c.monoid, c.moduli, n + 1, sums)


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
    their parent ids, the inside-orbit flags and the inside orbits, and
    the positions of the context block's pairs."""
    ids = [quotient.parent.id_of(x) for x in context_labels]
    m, index = quotient.monoid.size, quotient.monoid.pair_index
    inside = bytearray(m)
    for i in ids:
        inside[quotient.orbit_ids[i]] = 1
    orbits = [q for q, flag in enumerate(inside) if flag]
    # (a, b) runs in id order, as the pair positions do
    block = [index[a * m + b] for a in orbits for b in orbits
             if index[a * m + b] >= 0]
    return tuple(context_labels), ids, bytes(inside), orbits, block


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
    ids, bad = _splitting_ids(quotient, context_labels, splitting)
    bad = bad or splitting_violations(quotient, context_labels, ids)
    if bad:
        raise PreconditionError("not a left splitting: " + "; ".join(bad))
    obstruction = _obstruction(quotient, _frame(quotient, context_labels),
                               ids, eta_override)
    _check_cocycle(obstruction.beta)
    return obstruction


def _check_cocycle(beta: Cochain) -> None:
    """The 2-cocycle audit, d(beta) = 0 over the composable triples."""
    if not coboundary(beta).is_zero():
        raise InternalCheckError("beta is not a 2-cocycle")


def _obstruction(quotient: Quotient, frame: tuple, row,
                 eta_override) -> SectionObstruction:
    """``obstruction_cocycle`` on a splitting already validated, given as
    ``row``, its group id at each label of the context, with the context's
    ``_frame``, and with no 2-cocycle audit: each caller checks
    d(beta) = 0 its own way."""
    labels, ids, inside, orbits, block = frame
    parent, monoid = quotient.parent, quotient.monoid
    n, names, orbit = parent.size, monoid.elements, quotient.orbit_ids
    eta = list(quotient.least)
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
    flat = [i for i, a in zip(ids, row) if not a]  # the group's zero is 0
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
    beta = Cochain(monoid, quotient.action.moduli, 2,
                   quotient.action.columns(beta_ids))
    return SectionObstruction(quotient, labels, inside, eta, beta)


@dataclass(frozen=True, eq=False)
class CoboundaryDecision:
    """Outcome of deciding beta = d(gamma) with gamma relative to C.

    ``path`` names the rung that decided it: ``"shortcut"`` (gamma read
    off a global section), ``"relative"`` (the relative solve) or
    ``"absolute"`` (the model's absolute certificate).  ``gamma_ids``
    holds gamma's group id on each quotient id; ``gamma`` reads it as a
    label dict.  ``certificates``, per refuted factor, are the relative
    solve's: ``solved`` when it ran, else solved on first read from
    ``deferred`` (a weak reference to the context's solver, its relative
    orbits and beta), through that solver while the analyzer holds it and
    a fresh one otherwise.  A kept decision keeps no linear system alive."""

    vanishes: bool
    gamma_ids: list[int] | None
    solved: tuple[tuple[int, ModSolveResult], ...] | None
    quotient: Quotient
    path: str = "relative"
    deferred: tuple | None = None

    @property
    def gamma(self) -> dict | None:
        if self.gamma_ids is None:
            return None
        q = self.quotient
        group = q.action.elements()
        return {name: group[a]
                for name, a in zip(q.monoid.elements, self.gamma_ids)}

    @cached_property
    def certificates(self) -> tuple[tuple[int, ModSolveResult], ...] | None:
        if self.deferred is None:
            return self.solved
        held, relative, beta = self.deferred
        solver = held() or CoboundarySolver(self.quotient, relative)
        certificates = solver.decide(beta).certificates
        if not certificates:
            raise InternalCheckError(
                "the relative solve contradicts the absolute class")
        return certificates


class CoboundarySolver:
    """Decides relative-coboundary questions for one context block.

    The linear system depends only on the quotient and on which orbits
    the cochain must vanish on, so one solver serves every section of a
    context; beta only changes the right-hand side.  A relative name that
    is no orbit is refused; with no relative orbits the solver decides a
    class in H^2 of the quotient.  Since the monoid is commutative and
    beta is built symmetrically, only ordered pairs are kept: their
    positions among the composable pairs, each with the position of its
    mirror (y, x); the audits compare columns read there as lists.  The
    kept pairs' sparse rows, and one ``ModSystem`` per cyclic factor's
    modulus on them, are built on the first solve and reused for every
    later beta; the modulus-2 local is the bitmask GF(2) solver.
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
        self._rel = rel
        self._unknowns = [q for q in range(m) if not rel[q]]
        qx, qy, qz = monoid.pairs()
        index = monoid.pair_index
        self._kept = [p for p, (a, b, c) in enumerate(zip(qx, qy, qz))
                      if a <= b and not (rel[a] and rel[b] and rel[c])]
        self._mirror = [index[qy[p] * m + qx[p]] for p in self._kept]
        # neither the pair nor its mirror is kept
        self._outside = [p for p, (a, b, c) in enumerate(zip(qx, qy, qz))
                         if rel[a] and rel[b] and rel[c]]
        self._systems: dict[int, ModSystem] = {}

    @cached_property
    def _rows(self) -> list[dict]:
        """Each kept pair's row over the unknowns: d(gamma) at (a, b) is
        gamma(a) + gamma(b) - gamma(a + b)."""
        column = [-1] * self.quotient.monoid.size
        for j, q in enumerate(self._unknowns):
            column[q] = j
        qx, qy, qz = self.quotient.monoid.pairs()
        rows = []
        for p in self._kept:
            row = {}
            for q, coeff in ((qx[p], 1), (qy[p], 1), (qz[p], -1)):
                if column[q] >= 0:
                    row[column[q]] = row.get(column[q], 0) + coeff
            rows.append({j: a for j, a in row.items() if a})
        return rows

    def _audit(self, beta: Cochain) -> None:
        """The audits every decision runs first: beta vanishes on the
        context block and is symmetric."""
        for col in beta.columns:
            if any([col[p] for p in self._outside]):
                raise InternalCheckError(
                    "cochain not relative to the context block")
        for col in beta.columns:
            if [col[p] for p in self._kept] != [col[r] for r in self._mirror]:
                raise InternalCheckError("cochain is not symmetric")

    def decide(self, beta: Cochain, gamma_ids=None) -> CoboundaryDecision:
        """Is beta = d(gamma) for a gamma vanishing on the relative orbits?

        ``gamma_ids``, a group id per orbit, is a candidate known to the
        caller (a global section's): it replaces the solve, and is audited
        like a solved one, relative and bounding beta.  d(gamma) = beta
        on every pair makes beta a 2-cocycle; when it fails, the 2-cocycle
        audit names a beta that is none."""
        action = self.quotient.action
        self._audit(beta)
        path = "shortcut"
        if gamma_ids is None:
            path = "relative"
            gamma_cols = []
            certificates = []
            for k, (col, d) in enumerate(zip(beta.columns, action.moduli)):
                if d not in self._systems:
                    self._systems[d] = ModSystem(self._rows, d,
                                                 len(self._unknowns))
                res = self._systems[d].solve([col[p] % d for p in self._kept])
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
            gamma_ids = [action.id_of(v) for v in zip(*gamma_cols)]
        elif any([a for a, r in zip(gamma_ids, self._rel) if r]):
            raise InternalCheckError("gamma not relative to the context block")
        else:
            gamma_cols = action.columns(gamma_ids)
        one = Cochain(self.quotient.monoid, action.moduli, 1, gamma_cols)
        if not coboundary(one).same_as(beta):
            _check_cocycle(beta)
            raise InternalCheckError("gamma does not bound beta")
        return CoboundaryDecision(True, gamma_ids, None, self.quotient, path)


# --- Structured-model validation and the full per-section report -------


def validate_structured_model(structured: StructuredModel) -> ValidationReport:
    """Does the model satisfy the gluing/action/splitting axioms?

    Checks that the context tables glue, that the coefficient group is
    the outcome group embedded in the intersection of all contexts,
    that its translation action is free, that every listed section
    is a left splitting of its context, and that the glued monoid is
    associative across contexts, which building the quotient checks.
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
        bad.append(f"quotient by the action fails: {exc}")
        return ValidationReport(tuple(bad)), None
    # under the one cyclic factor Z_d, an outcome row is its own group ids
    for ci, (ctx, rows) in enumerate(zip(scenario.contexts, model.rows)):
        for row in rows:
            violations = splitting_violations(quotient, ctx, row)
            if violations:
                bad.append(
                    f"section {Section.from_values(ctx, row)} of context "
                    f"{ci} is not a splitting: " + "; ".join(violations))
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
    """Shared gluing and quotient for one model, its absolute class, and
    the obstruction frame and coboundary solver of the one context it is
    answering, which a query in another context replaces.

    Set-up validates every section's splitting, so queries do not, and
    builds the quotient, which refuses a glued monoid that is not
    associative; a failed d(beta)=0 audit is then a broken invariant.
    [beta0] is decided by the first query that needs it
    (``_absolute_class``).  Every global assignment that a query
    returns, and every collapse that the cross-check hands to
    ``check_global_splitting``, is checked once as a splitting of the
    whole monoid: ``_splittings`` maps each checked assignment, one value
    per measurement, to the member of each orbit where it vanishes.  An
    ``InternalCheckError`` that leaves ``analyze`` names the context index
    and section position in its ``where``."""

    def __init__(self, structured: StructuredModel):
        report, quotient = _validate(structured)
        if not report.ok:
            raise PreconditionError(
                "structured model invalid: " + "; ".join(report.violations))
        self.structured = structured
        self.quotient = quotient
        self.monoid = quotient.parent
        self._slot: tuple = (None, None)
        self._absolute: tuple | None = None
        self._splittings: dict[tuple[int, ...], list[int]] = {}
        # where a global section's rows put each measurement: the labels a
        # context is the first to hold, as positions in it and parent ids
        seen = set()
        self._first = []
        for ctx in structured.model.scenario.contexts:
            new = [p for p, x in enumerate(ctx) if x not in seen]
            seen.update(ctx)
            self._first.append(
                (new, [self.monoid.id_of(ctx[p]) for p in new]))

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
        # an unknown context or section is bad input
        s_pos = model.section_index(context_index, section)
        try:
            obstruction, decision, glob = self._decide(
                context_index, s_pos, eta_override)
        except InternalCheckError as exc:
            raise located(exc, context_index, s_pos)
        return GroupObstructionReport(
            context_index, section, obstruction, decision, glob)

    def _decide(self, context_index: int, s_pos: int, eta_override):
        """The obstruction, decision and global splitting of a query."""
        model = self.structured.model
        ctx = model.scenario.contexts[context_index]
        frame, solver = self._context(context_index)
        row = model.rows[context_index][s_pos]
        obstruction = _obstruction(self.quotient, frame, row, eta_override)
        beta = obstruction.beta
        g = model.extension_table[context_index][s_pos]
        if g is not None:
            values = [0] * self.monoid.size
            for (new, ids), rows, u in zip(self._first, model.rows, g):
                row = rows[u]
                for p, x in zip(new, ids):
                    values[x] = row[p]
            decision = solver.decide(beta, self._gamma(
                obstruction, self.check_global_splitting(
                    values, "global section")))
            return obstruction, decision, dict(zip(self.monoid.elements,
                                                   values))
        beta0, refuters = self._absolute_class()
        if refuters:
            solver._audit(beta)
            self._tie(obstruction, beta0)
            moduli = self.quotient.action.moduli
            for k, terms in refuters:
                col = beta.columns[k]
                if not sum(y * col[p] for p, y in terms) % moduli[k]:
                    raise InternalCheckError(
                        "the absolute certificate does not separate beta")
            return obstruction, CoboundaryDecision(
                False, None, None, self.quotient, "absolute",
                (weakref.ref(solver), solver.relative, beta)
            ), None
        decision = solver.decide(beta)
        if not decision.vanishes:
            self._tie(obstruction, beta0)
            return obstruction, decision, None
        return obstruction, decision, self._reconstruct(
            obstruction, decision, ctx, row)

    def _absolute_class(self) -> tuple:
        """beta0, the cocycle of the least members with no context forced,
        as columns, and for each factor where its class is not 0 the
        certificate y of the solve with no relative orbits, as (pair
        position, coefficient) terms.  Decided on the first call: beta0
        is audited as a 2-cocycle, and as a symmetric cochain by the
        solve, whose ``ModSystem`` checks y by ``separates``."""
        if self._absolute is None:
            q = self.quotient
            beta0 = _obstruction(q, _frame(q, ()), (), None).beta
            _check_cocycle(beta0)
            solver = CoboundarySolver(q, ())
            refuters = tuple(
                (k, [(p, y) for p, y in zip(solver._kept, res.certificate)
                     if y])
                for k, res in solver.decide(beta0).certificates or ())
            self._absolute = (beta0.columns, refuters)
        return self._absolute

    def _tie(self, obstruction, beta0) -> None:
        """Check beta = beta0 + d(eps) on every pair, where eps(q) is the
        group element that moves the least member of q, beta0's
        representative, to eta(q).  With d(beta0) = 0 checked once, the
        tie gives d(beta) = 0, since d(d(eps)) = 0.  A tie that fails runs
        the 2-cocycle audit to name a beta that is no cocycle."""
        q = self.quotient
        n, table, moduli = q.parent.size, q.value_table, q.action.moduli
        eps = [table[x * n + y] for x, y in zip(obstruction.eta_ids, q.least)]
        beta = obstruction.beta
        if -1 not in eps:
            shift = coboundary(Cochain(q.monoid, moduli, 1,
                                       q.action.columns(eps)))
            if all(col == [(a + b) % d for a, b in zip(col0, step)]
                   for col, col0, step, d in zip(
                       beta.columns, beta0, shift.columns, moduli)):
                return
        _check_cocycle(beta)
        raise InternalCheckError(
            "beta is not beta0 plus the coboundary of its representative "
            "shift")

    def check_global_splitting(self, values, what: str) -> list[int]:
        """Check ``values``, an outcome per measurement in measurement
        order, as a splitting of the whole monoid (the splitting law and
        the retraction of i), once per distinct assignment; return the
        member of each orbit where it vanishes.  A failure names ``what``
        was checked."""
        key = tuple(values)
        zeros = self._splittings.get(key)
        if zeros is None:
            q = self.quotient
            bad = splitting_violations(q, self.monoid.elements, key)
            if bad:
                raise InternalCheckError(
                    f"{what} is not a global splitting: " + "; ".join(bad[:3]))
            # a splitting takes each value once on every orbit, 0 included
            zeros = [0] * q.monoid.size
            for x, (v, orbit) in enumerate(zip(key, q.orbit_ids)):
                if not v:
                    zeros[orbit] = x
            self._splittings[key] = zeros
        return zeros

    def _gamma(self, obstruction, zeros) -> list[int]:
        """gamma(q), the group id with eta(q) = i(gamma(q)) + h(q), where
        h(q) = ``zeros[q]`` is a homomorphic section of the quotient map:
        then d(gamma) = beta, and gamma is 0 on the context, where eta is
        the member at which the section, and so the splitting, vanishes."""
        q = self.quotient
        n, table = q.parent.size, q.value_table
        gamma = [table[x * n + h] for x, h in zip(obstruction.eta_ids, zeros)]
        if -1 in gamma:
            k = gamma.index(-1)
            raise InternalCheckError(
                f"{q.parent.elements[obstruction.eta_ids[k]]!r} not in the "
                f"orbit of {q.parent.elements[zeros[k]]!r}")
        return gamma

    def _reconstruct(self, obstruction, decision, ctx, row):
        """Turn eta and gamma into a verified global splitting.

        Subtracting beta = d(gamma), that is
        beta(q1, q2) = gamma(q1) + gamma(q2) - gamma(q1 + q2), from the
        defining relation of beta gives h(q1) + h(q2) = h(q1 + q2) for
        h = eta - i(gamma), which is thus a homomorphic section of the
        quotient map: each h(q) is -gamma(q) acting on eta(q).  The
        splitting-lemma correspondence turns it into a trivialisation,
        validated by ``trivialisation_from_right_splitting``, whose first
        component is a left splitting on all measurements that must agree
        with the section's row on its own context.  It is then a checked
        global assignment, with h where it vanishes.
        """
        q = self.quotient
        els, n = q.parent.elements, q.parent.size
        order = len(q.embedding)
        minus = [q.group_sums[a * order:(a + 1) * order].index(0)
                 for a in range(order)]
        image = [q.act_table[minus[a] * n + x] for a, x in
                 zip(decision.gamma_ids, obstruction.eta_ids)]
        h = {orbit: els[x] for orbit, x in zip(q.monoid.elements, image)}
        phi = trivialisation_from_right_splitting(q, els, h)
        d = self.structured.action.moduli[0]
        outcome = {x: a[0] % d for x, (a, _orbit) in phi.items()}
        for x, v in zip(ctx, row):
            if outcome[x] != v:
                raise InternalCheckError(
                    f"reconstructed splitting disagrees with the section "
                    f"at {x!r}")
        self._splittings.setdefault(tuple(outcome[x] for x in els), image)
        return outcome


def group_obstruction(structured: StructuredModel, context_index: int,
                      section: Section,
                      eta_override=None) -> GroupObstructionReport:
    """The group obstruction of one section, from the analyzer the model
    holds (``StructuredModel.group_analyzer``)."""
    return structured.group_analyzer.analyze(
        context_index, section, eta_override=eta_override)
