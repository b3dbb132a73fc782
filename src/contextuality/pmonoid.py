"""Commutative partial monoids with a free abelian group action.

A measurement scenario whose contexts each carry a total commutative
monoid structure glues into a single partial monoid: the sum x + y is
defined exactly when some context contains both operands.  A finite
abelian coefficient group A embeds into the intersection of all
contexts and acts freely by translation; quotienting by its orbits
yields a second partial monoid.  Splittings of the quotient map (which
correspond to outcome assignments) and trivialisations (isomorphisms
with A x (X/A)) translate into each other by an explicit splitting
lemma, implemented here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InternalCheckError, PreconditionError, StructureError
from .graphs import maximal_cliques
from .scenario import EmpiricalModel, ValidationReport


class PartialMonoid:
    """Finite commutative partial monoid given by its operation table.

    ``table`` maps unordered pairs of element labels to their sum; a
    missing pair means the sum is undefined.  The table is stored with
    both orientations, so lookups never need to sort.

    The bar complex is cached beside the table: the composable tuples of
    each degree 0..3, the position of each tuple in that list, and per
    degree n the face table of the (n+1)-tuples, one int column per face
    d_0..d_{n+1} holding the face's position among the n-tuples.  The
    bar differential then sums flat columns instead of labels.
    """

    def __init__(self, elements, identity: str, table):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise PreconditionError("duplicate element labels")
        if identity not in elements:
            raise PreconditionError(f"identity {identity!r} not an element")
        self.elements = elements
        self.identity = identity
        self._index = {x: i for i, x in enumerate(elements)}
        self._table: dict[tuple[str, str], str] = {}
        for (x, y), z in table.items():
            for lab in (x, y, z):
                if lab not in self._index:
                    raise PreconditionError(f"unknown label {lab!r} in table")
            for key in ((x, y), (y, x)):
                old = self._table.get(key)
                if old is not None and old != z:
                    raise StructureError(
                        f"conflicting sums for {key}: {old!r} vs {z!r}")
                self._table[key] = z
        self._pairs: list[tuple[str, str]] | None = None
        self._triples: list[tuple[str, str, str]] | None = None
        self._positions: dict[int, dict[tuple, int]] = {}
        self._faces: dict[int, tuple[list[int], ...]] = {}

    def index(self, x: str) -> int:
        return self._index[x]

    def defined(self, x: str, y: str) -> bool:
        return (x, y) in self._table

    def add(self, x: str, y: str) -> str:
        try:
            return self._table[(x, y)]
        except KeyError:
            raise PreconditionError(f"sum {x!r} + {y!r} is undefined") from None

    def composable_pairs(self) -> list[tuple[str, str]]:
        """All ordered pairs (x, y) with x + y defined, in element order."""
        if self._pairs is None:
            self._pairs = [
                (x, y)
                for x in self.elements
                for y in self.elements
                if self.defined(x, y)
            ]
        return self._pairs

    def composable_triples(self) -> list[tuple[str, str, str]]:
        """Ordered triples where both groupings of the sum are defined."""
        if self._triples is None:
            out = []
            for x, y in self.composable_pairs():
                xy = self.add(x, y)
                for z in self.elements:
                    if not (self.defined(y, z) and self.defined(xy, z)):
                        continue
                    if self.defined(x, self.add(y, z)):
                        out.append((x, y, z))
            self._triples = out
        return self._triples

    def composable(self, degree: int) -> list[tuple]:
        """The composable tuples of a degree 0..3, in element order.

        Degree 0 is the empty tuple; degree 2 requires the pair sum to
        be defined; degree 3 requires both bracketings to be defined.
        """
        if degree == 0:
            return [()]
        if degree == 1:
            return [(x,) for x in self.elements]
        if degree == 2:
            return self.composable_pairs()
        if degree == 3:
            return self.composable_triples()
        raise PreconditionError("only degrees 0..3 are materialised")

    def positions(self, degree: int) -> dict[tuple, int]:
        """Each composable tuple of a degree -> its index in ``composable``."""
        pos = self._positions.get(degree)
        if pos is None:
            pos = {t: i for i, t in enumerate(self.composable(degree))}
            self._positions[degree] = pos
        return pos

    def faces(self, degree: int) -> tuple[list[int], ...]:
        """The face columns from degree n = ``degree`` to n + 1 (n <= 2).

        Row j of column i is the position among the n-tuples of face d_i
        of the j-th composable (n+1)-tuple t: d_0 drops t[0], d_i for
        0 < i <= n merges t[i-1] + t[i], and d_{n+1} drops t[n].  Every
        face of a composable tuple is composable, so no entry is missing.
        """
        cols = self._faces.get(degree)
        if cols is None:
            pos = self.positions(degree)
            table = self._table
            cols = tuple([] for _ in range(degree + 2))
            for t in self.composable(degree + 1):
                cols[0].append(pos[t[1:]])
                for i in range(1, degree + 1):
                    merged = table[(t[i - 1], t[i])]
                    cols[i].append(pos[t[:i - 1] + (merged,) + t[i + 1:]])
                cols[degree + 1].append(pos[t[:-1]])
            self._faces[degree] = cols
        return cols

    def restriction(self, labels) -> "PartialMonoid":
        """The induced partial monoid on a subset of elements.

        pre: the subset is closed under defined sums and contains the
        identity.
        """
        keep = set(labels)
        unknown = keep - set(self.elements)
        if unknown:
            raise PreconditionError(
                f"restriction to unknown labels {sorted(unknown)}")
        if self.identity not in keep:
            raise PreconditionError("restriction must contain the identity")
        sub = {}
        for (x, y), z in self._table.items():
            if x in keep and y in keep:
                if z not in keep:
                    raise PreconditionError(
                        f"subset not closed: {x!r} + {y!r} = {z!r} escapes")
                sub[(x, y)] = z
        order = [x for x in self.elements if x in keep]
        return PartialMonoid(order, self.identity, sub)

    def maximal_total_submonoids(self) -> list[tuple[str, ...]]:
        """Maximal subsets on which the operation is total.

        Any two elements of such a subset are composable, so the
        subsets are the maximal cliques of the definedness graph that
        are closed under the operation.  For monoids glued from
        contexts the cliques are automatically closed.
        """
        els = self.elements
        cliques = maximal_cliques(
            len(els), lambda i, j: self.defined(els[i], els[j]))
        out = []
        for cl in cliques:
            members = {els[i] for i in cl}
            if all(self.add(x, y) in members
                   for x in members for y in members):
                out.append(tuple(els[i] for i in cl))
        return out


def validate_partial_monoid(monoid: PartialMonoid) -> ValidationReport:
    """Check the partial-monoid axioms exhaustively.

    Identity must be total and neutral; the operation must be
    commutative; associativity must hold on every triple for which
    both groupings are defined.  Violations are reported, not raised.
    """
    bad = []
    e = monoid.identity
    for x in monoid.elements:
        if not monoid.defined(e, x):
            bad.append(f"identity sum undefined at {x!r}")
        elif monoid.add(e, x) != x:
            bad.append(f"identity not neutral at {x!r}")
    for x, y in monoid.composable_pairs():
        if not monoid.defined(y, x):
            bad.append(f"commutativity definedness fails at ({x!r}, {y!r})")
        elif monoid.add(x, y) != monoid.add(y, x):
            bad.append(f"commutativity fails at ({x!r}, {y!r})")
    for x, y, z in monoid.composable_triples():
        left = monoid.add(monoid.add(x, y), z)
        right = monoid.add(x, monoid.add(y, z))
        if left != right:
            bad.append(f"associativity fails at ({x!r}, {y!r}, {z!r})")
    return ValidationReport(tuple(bad))


@dataclass(frozen=True)
class CoefficientAction:
    """A finite abelian group acting on measurement labels.

    The group is a direct sum of cyclic groups Z_{d_1} x ... x Z_{d_k};
    elements are integer tuples reduced mod the moduli.
    ``generator_images`` names the label that each standard generator
    maps to under the embedding into the measurement monoid.
    """

    moduli: tuple[int, ...]
    generator_images: tuple[str, ...]

    def __post_init__(self):
        if len(self.moduli) != len(self.generator_images):
            raise PreconditionError("one image per cyclic generator required")
        if any(d < 1 for d in self.moduli):
            raise PreconditionError("cyclic moduli must be positive")
        # The group is listed once; the dataclass is frozen, hence the
        # object.__setattr__.
        object.__setattr__(self, "_elements", tuple(itertools.product(
            *(range(d) for d in self.moduli))))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return self._elements

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((u + v) % d for u, v, d in zip(a, b, self.moduli))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-u) % d for u, d in zip(a, self.moduli))

    def embedding(self, monoid: PartialMonoid) -> dict[tuple[int, ...], str]:
        """The label i(a) for every group element a.

        Built by repeated addition from the generator images; raises a
        structure error if any required sum is undefined, if the map
        fails to be an injective homomorphism, or if a generator image
        has the wrong order.
        """
        images = {self.zero: monoid.identity}
        for a in self.elements():
            label = monoid.identity
            for gen, (coeff, img) in enumerate(zip(a, self.generator_images)):
                for _ in range(coeff):
                    if not monoid.defined(label, img):
                        raise StructureError(
                            f"embedding undefined while forming i({a})")
                    label = monoid.add(label, img)
            images[tuple(a)] = label
        if len(set(images.values())) != len(images):
            raise StructureError("embedding is not injective")
        for a, la in images.items():
            for b, lb in images.items():
                if not monoid.defined(la, lb):
                    raise StructureError(
                        f"embedded group not sum-closed at i({a}) + i({b})")
                if monoid.add(la, lb) != images[self.add(a, b)]:
                    raise StructureError(
                        f"embedding is not a homomorphism at i({a}) + i({b})")
        return images


@dataclass(frozen=True, eq=False)
class StructuredModel:
    """An empirical model whose contexts carry total monoid operations.

    ``context_ops`` is aligned with the scenario's context list; each
    entry maps ordered label pairs within that context to their
    product's label.  ``action`` names the coefficient group and where
    its generators land among the measurements.
    """

    model: EmpiricalModel
    context_ops: tuple[dict[tuple[str, str], str], ...]
    action: CoefficientAction


def glue_contexts(structured: StructuredModel) -> PartialMonoid:
    """Union the per-context operation tables into one partial monoid.

    Every context table must be total on its context, closed inside
    it, commutative, associative and share one identity; tables must
    agree wherever contexts overlap.  Violations raise structure
    errors naming the offending entries.
    """
    scenario = structured.model.scenario
    if len(structured.context_ops) != len(scenario.contexts):
        raise PreconditionError("one operation table per context required")
    units = None
    for ctx, table in zip(scenario.contexts, structured.context_ops):
        members = set(ctx)
        for a in ctx:
            for b in ctx:
                if (a, b) not in table:
                    raise StructureError(
                        f"table for {ctx} misses the pair ({a!r}, {b!r})")
                if table[(a, b)] not in members:
                    raise StructureError(
                        f"context {ctx} not closed: {a!r} + {b!r} = "
                        f"{table[(a, b)]!r}")
                if table[(a, b)] != table[(b, a)]:
                    raise StructureError(
                        f"context {ctx} not commutative at ({a!r}, {b!r})")
        for spurious in set(table) - {(a, b) for a in ctx for b in ctx}:
            raise StructureError(
                f"table for {ctx} mentions outside pair {spurious}")
        for a in ctx:
            for b in ctx:
                for c in ctx:
                    if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                        raise StructureError(
                            f"context {ctx} not associative at "
                            f"({a!r}, {b!r}, {c!r})")
        ctx_units = [e for e in ctx
                     if all(table[(e, x)] == x for x in ctx)]
        if len(ctx_units) != 1:
            raise StructureError(f"context {ctx} lacks a unique identity")
        if units is None:
            units = ctx_units[0]
        elif units != ctx_units[0]:
            raise StructureError(
                f"contexts disagree on the identity: {units!r} vs "
                f"{ctx_units[0]!r}")
    merged: dict[tuple[str, str], str] = {}
    origin: dict[tuple[str, str], int] = {}
    for idx, table in enumerate(structured.context_ops):
        for key, val in table.items():
            old = merged.get(key)
            if old is not None and old != val:
                raise StructureError(
                    f"contexts {origin[key]} and {idx} disagree on "
                    f"{key}: {old!r} vs {val!r}")
            merged[key] = val
            origin[key] = idx
    return PartialMonoid(scenario.measurements, units, merged)


class Quotient:
    """A partial monoid modulo a free coefficient-group action.

    Orbits {a . x : a in A} become the elements of the quotient; the
    induced operation must be independent of the chosen
    representatives, otherwise construction fails with a structure
    error naming the offending pair.
    """

    def __init__(self, parent: PartialMonoid, action: CoefficientAction):
        self.parent = parent
        self.action = action
        self.embedding = action.embedding(parent)
        self._act = {}
        for a, img in self.embedding.items():
            for x in parent.elements:
                if not parent.defined(img, x):
                    raise StructureError(
                        f"action not total: i({a}) + {x!r} undefined")
                self._act[(a, x)] = parent.add(img, x)
        # (a . x, x) -> a, the least such a in group order.
        self._value = {}
        for (a, x), y in self._act.items():
            self._value.setdefault((y, x), a)
        # Freeness: only the zero element may fix a point.
        for a in action.elements():
            if a == action.zero:
                continue
            for x in parent.elements:
                if self._act[(a, x)] == x:
                    raise StructureError(
                        f"action not free: i({a}) fixes {x!r}")
        self.orbit_of: dict[str, str] = {}
        self.members: dict[str, tuple[str, ...]] = {}
        order = {x: i for i, x in enumerate(parent.elements)}
        for x in parent.elements:
            if x in self.orbit_of:
                continue
            orbit = sorted({self._act[(a, x)] for a in action.elements()},
                           key=order.__getitem__)
            label = f"[{orbit[0]}]"
            self.members[label] = tuple(orbit)
            for y in orbit:
                self.orbit_of[y] = label
        table = {}
        for (x, y), z in parent._table.items():
            key = (self.orbit_of[x], self.orbit_of[y])
            zq = self.orbit_of[z]
            old = table.get(key)
            if old is not None and old != zq:
                raise StructureError(
                    f"quotient operation ill-defined at {key}: "
                    f"{old!r} vs {zq!r}")
            table[key] = zq
        # Definedness must also be orbit-independent.
        for (qx, qy), zq in table.items():
            for x in self.members[qx]:
                for y in self.members[qy]:
                    if not parent.defined(x, y):
                        raise StructureError(
                            f"quotient definedness ill-defined at "
                            f"({qx}, {qy}): {x!r} + {y!r} undefined")
        orbit_order = []
        seen = set()
        for x in parent.elements:
            q = self.orbit_of[x]
            if q not in seen:
                seen.add(q)
                orbit_order.append(q)
        self.monoid = PartialMonoid(
            orbit_order, self.orbit_of[parent.identity], table)

    def act(self, a, x: str) -> str:
        return self._act[(tuple(a), x)]

    def default_representative(self, orbit: str) -> str:
        return self.members[orbit][0]

    def value_at(self, x: str, base: str) -> tuple[int, ...]:
        """The unique a with x = a . base, for base in the orbit of x."""
        try:
            return self._value[(x, base)]
        except KeyError:
            raise InternalCheckError(
                f"{x!r} not in the orbit of {base!r}") from None


def quotient_by_action(parent: PartialMonoid,
                       action: CoefficientAction) -> Quotient:
    return Quotient(parent, action)


# --- Splittings and trivialisations -----------------------------------
#
# On any action-invariant, sum-closed subset L of the parent (a context,
# or the whole monoid):
#   left splitting   s: L -> A        with s(x+y) = s(x)+s(y), s(i(a)) = a
#   trivialisation   phi: L -> A x L/A,  phi = <s, pi>
#   right splitting  h: L/A -> L      a homomorphic section of pi
# These translate into each other bijectively.


def _check_invariant_subset(q: Quotient, labels) -> list[str]:
    labs = list(labels)
    seen = set(labs)
    if len(seen) != len(labs):
        return ["duplicate labels in subset"]
    bad = []
    for x in labs:
        if x not in q.orbit_of:
            bad.append(f"unknown label {x!r}")
            continue
        for a in q.action.elements():
            if q.act(a, x) not in seen:
                bad.append(f"subset not action-invariant at {x!r}")
                break
    for x in labs:
        for y in labs:
            if q.parent.defined(x, y) and q.parent.add(x, y) not in seen:
                bad.append(f"subset not sum-closed at ({x!r}, {y!r})")
    return bad


def validate_splitting(q: Quotient, labels, s) -> ValidationReport:
    """Is ``s`` a left splitting on the given subset?"""
    bad = _check_invariant_subset(q, labels)
    labs = list(labels)
    for x in labs:
        if x not in s:
            bad.append(f"splitting undefined at {x!r}")
    if bad:
        return ValidationReport(tuple(bad))
    for x in labs:
        for y in labs:
            if q.parent.defined(x, y):
                lhs = s[q.parent.add(x, y)]
                rhs = q.action.add(s[x], s[y])
                if tuple(lhs) != rhs:
                    bad.append(f"not a homomorphism at ({x!r}, {y!r})")
    for a, img in q.embedding.items():
        if img in s and tuple(s[img]) != a:
            bad.append(f"does not retract the embedding at i({a})")
    return ValidationReport(tuple(bad))


def validate_right_splitting(q: Quotient, labels, h) -> ValidationReport:
    """Is ``h`` a homomorphic section of the quotient map on pi(labels)?"""
    bad = _check_invariant_subset(q, labels)
    if bad:
        return ValidationReport(tuple(bad))
    orbits = []
    seen = set()
    for x in labels:
        qx = q.orbit_of[x]
        if qx not in seen:
            seen.add(qx)
            orbits.append(qx)
    for qx in orbits:
        if qx not in h:
            bad.append(f"section undefined at {qx}")
        elif q.orbit_of.get(h[qx]) != qx:
            bad.append(f"not a section at {qx}")
    if bad:
        return ValidationReport(tuple(bad))
    for qx in orbits:
        for qy in orbits:
            if q.monoid.defined(qx, qy):
                lhs = h[q.monoid.add(qx, qy)]
                rhs = q.parent.add(h[qx], h[qy])
                if lhs != rhs:
                    bad.append(f"not a homomorphism at ({qx}, {qy})")
    return ValidationReport(tuple(bad))


def trivialisation_from_splitting(q: Quotient, labels, s):
    """phi = <s, pi> as a map label -> (group element, orbit)."""
    report = validate_splitting(q, labels, s)
    if not report.ok:
        raise PreconditionError(
            "not a left splitting: " + "; ".join(report.violations))
    return {x: (tuple(s[x]), q.orbit_of[x]) for x in labels}


def splitting_from_trivialisation(q: Quotient, labels, phi):
    """First component of a trivialisation, validated as a splitting."""
    _require_trivialisation(q, labels, phi)
    return {x: tuple(phi[x][0]) for x in labels}


def _require_trivialisation(q: Quotient, labels, phi) -> None:
    labs = list(labels)
    bad = _check_invariant_subset(q, labels)
    if bad:
        raise PreconditionError("; ".join(bad))
    for x in labs:
        if x not in phi:
            raise PreconditionError(f"trivialisation undefined at {x!r}")
        a, qx = phi[x]
        if q.orbit_of[x] != qx:
            raise StructureError(
                f"second component is not the quotient map at {x!r}")
    if len({(tuple(phi[x][0]), phi[x][1]) for x in labs}) != len(labs):
        raise StructureError("trivialisation is not injective")
    for x in labs:
        for y in labs:
            if q.parent.defined(x, y):
                z = q.parent.add(x, y)
                want = (q.action.add(phi[x][0], phi[y][0]), q.orbit_of[z])
                got = (tuple(phi[z][0]), phi[z][1])
                if want != got:
                    raise StructureError(
                        f"trivialisation not a homomorphism at ({x!r}, {y!r})")
    for a, img in q.embedding.items():
        if img in phi and tuple(phi[img][0]) != a:
            raise StructureError(
                f"trivialisation does not extend the embedding at i({a})")


def right_splitting_of(q: Quotient, labels, phi):
    """h = phi^(-1)(0, -): the zero-level section of a trivialisation."""
    _require_trivialisation(q, labels, phi)
    h = {}
    zero = q.action.zero
    for x in labels:
        a, qx = phi[x]
        if tuple(a) == zero:
            h[qx] = x
    orbits = {q.orbit_of[x] for x in labels}
    if set(h) != orbits:
        raise StructureError("trivialisation misses a zero level")
    return h


def trivialisation_from_right_splitting(q: Quotient, labels, h):
    """The inverse correspondence: solve h(pi(x)) = x - i(s(x)) for s.

    Freeness of the action makes the group element unique; the
    resulting map <s, pi> is returned after validation.
    """
    report = validate_right_splitting(q, labels, h)
    if not report.ok:
        raise PreconditionError(
            "not a right splitting: " + "; ".join(report.violations))
    phi = {}
    for x in labels:
        qx = q.orbit_of[x]
        a = q.value_at(x, h[qx])
        phi[x] = (a, qx)
    _require_trivialisation(q, labels, phi)
    return phi
