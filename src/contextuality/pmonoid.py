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

Everything runs on int ids.  A monoid's elements are 0..n-1 in label
order and its operation is one flat list, ``sums[x * n + y]``, with -1
for an undefined sum; its composable pairs are three int columns
(x, y, x + y).  Group elements are mixed-radix ints, the index in
``CoefficientAction.elements()``, with 0 the zero.  A quotient keeps the
embedding i(a), the action a . x, the orbit map and each orbit's
members as flat int lists.  Labels appear only at the edge: the
constructors, the label methods (``add``, ``defined``, ``orbit_of``,
``members``, ``act``, ``value_at``), the label dicts that the splitting
lemma functions take and return, and error messages.

The splitting law (values in the group, the homomorphism law on the
subset's composable pairs, the embedding retracted) has one checker,
``_splitting_law``: ``validate_splitting`` and the trivialisation checks
both call it.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalCheckError, PreconditionError, StructureError
from .scenario import EmpiricalModel, ValidationReport


class PartialMonoid:
    """Finite commutative partial monoid given by its operation table.

    ``table`` maps unordered pairs of element labels to their sum; a
    missing pair means the sum is undefined.  It is stored with both
    orientations in the flat int list ``sums``.

    The bar complex is cached beside the table: the composable pairs as
    int columns, the position of each pair (``pair_index``, flat like
    ``sums``), and per degree n the face table of the (n+1)-tuples, one
    int column per face d_0..d_{n+1} holding the face's position among
    the n-tuples.  The bar differential then sums flat columns instead
    of labels.
    """

    def __init__(self, elements, identity: str, table):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise PreconditionError("duplicate element labels")
        if identity not in elements:
            raise PreconditionError(f"identity {identity!r} not an element")
        index = {x: i for i, x in enumerate(elements)}
        n = len(elements)
        sums = [-1] * (n * n)
        for (x, y), z in table.items():
            for lab in (x, y, z):
                if lab not in index:
                    raise PreconditionError(f"unknown label {lab!r} in table")
            i, j, k = index[x], index[y], index[z]
            for key, pair in ((i * n + j, (x, y)), (j * n + i, (y, x))):
                old = sums[key]
                if old >= 0 and old != k:
                    raise StructureError(
                        f"conflicting sums for {pair}: {elements[old]!r} "
                        f"vs {z!r}")
                sums[key] = k
        self._setup(elements, index, index[identity], sums)

    @classmethod
    def _of_ids(cls, elements, unit: int, sums: list[int]) -> "PartialMonoid":
        """A monoid on an already symmetric flat table of ids."""
        self = cls.__new__(cls)
        elements = tuple(elements)
        self._setup(elements, {x: i for i, x in enumerate(elements)}, unit,
                    sums)
        return self

    def _setup(self, elements, index, unit, sums) -> None:
        self.elements = elements
        self.size = len(elements)
        self.unit = unit
        self.identity = elements[unit]
        self.sums = sums
        self._index = index
        self._pairs: tuple[list[int], list[int], list[int]] | None = None
        self._pair_index: list[int] | None = None
        self._faces: dict[int, tuple[list[int], ...]] = {}
        self._labels: dict[int, list[tuple]] = {}
        self._triple_index: dict[tuple, int] | None = None

    def id_of(self, x) -> int:
        """The id of a label, -1 for an unknown one."""
        return self._index.get(x, -1)

    def defined(self, x: str, y: str) -> bool:
        i, j = self.id_of(x), self.id_of(y)
        return i >= 0 and j >= 0 and self.sums[i * self.size + j] >= 0

    def add(self, x: str, y: str) -> str:
        i, j = self.id_of(x), self.id_of(y)
        z = self.sums[i * self.size + j] if i >= 0 and j >= 0 else -1
        if z < 0:
            raise PreconditionError(f"sum {x!r} + {y!r} is undefined")
        return self.elements[z]

    def pairs(self) -> tuple[list[int], list[int], list[int]]:
        """The composable pairs as columns (x, y, x + y), in id order."""
        if self._pairs is None:
            n = self.size
            xs, ys, zs = [], [], []
            index = [-1] * (n * n)
            for x in range(n):
                for y, z in enumerate(self.sums[x * n:(x + 1) * n]):
                    if z >= 0:
                        index[x * n + y] = len(xs)
                        xs.append(x)
                        ys.append(y)
                        zs.append(z)
            self._pairs = (xs, ys, zs)
            self._pair_index = index
        return self._pairs

    @property
    def pair_index(self) -> list[int]:
        """``pair_index[x * n + y]``: the position of (x, y), or -1."""
        self.pairs()
        return self._pair_index

    def composable_triples(self) -> list[tuple[str, str, str]]:
        """Ordered triples where both groupings of the sum are defined."""
        return self.composable(3)

    def composable(self, degree: int) -> list[tuple]:
        """The composable tuples of a degree 0..3, in element order.

        Degree 0 is the empty tuple; degree 2 requires the pair sum to
        be defined; degree 3 requires both bracketings to be defined.
        """
        if degree == 0:
            return [()]
        if degree == 1:
            return [(x,) for x in self.elements]
        if degree not in (2, 3):
            raise PreconditionError("only degrees 0..3 are materialised")
        if degree not in self._labels:
            els = self.elements
            xs, ys, _zs = self.pairs()
            if degree == 2:
                ids = zip(xs, ys)
            else:
                d0, _d1, _d2, d3 = self.faces(2)
                ids = ((xs[p], ys[p], ys[q]) for q, p in zip(d0, d3))
            self._labels[degree] = [tuple(els[i] for i in t) for t in ids]
        return self._labels[degree]

    def count(self, degree: int) -> int:
        """How many composable tuples a degree 0..3 has."""
        return 1 if degree == 0 else len(self.faces(degree - 1)[0])

    def position(self, t) -> int | None:
        """The index in ``composable(len(t))`` of a label tuple, or None
        when it is not a composable tuple of a degree 0..3."""
        ids = [self.id_of(x) for x in t]
        if -1 in ids:
            return None
        if len(ids) <= 1:
            return ids[0] if ids else 0
        if len(ids) == 2:
            p = self.pair_index[ids[0] * self.size + ids[1]]
            return p if p >= 0 else None
        if len(ids) == 3:
            if self._triple_index is None:
                xs, ys, _zs = self.pairs()
                d0, _d1, _d2, d3 = self.faces(2)
                self._triple_index = {
                    (xs[p], ys[p], ys[q]): j
                    for j, (q, p) in enumerate(zip(d0, d3))}
            return self._triple_index.get(tuple(ids))
        return None

    def faces(self, degree: int) -> tuple[list[int], ...]:
        """The face columns from degree n = ``degree`` to n + 1 (n <= 2).

        Row j of column i is the position among the n-tuples of face d_i
        of the j-th composable (n+1)-tuple t: d_0 drops t[0], d_i for
        0 < i <= n merges t[i-1] + t[i], and d_{n+1} drops t[n].  Every
        face of a composable tuple is composable, so no entry is missing.
        The degree-2 columns list the composable triples (x, y, z), pair
        by pair and z ascending: (x, y) is pair d_3 and z is the second
        entry of pair d_0.
        """
        cols = self._faces.get(degree)
        if cols is None:
            n = self.size
            xs, ys, zs = self.pairs()
            if degree == 0:
                cols = ([0] * n, [0] * n)
            elif degree == 1:
                cols = (ys, zs, xs)
            elif degree == 2:
                cols = self._triple_faces(xs, ys, zs)
            else:
                raise PreconditionError("only degrees 0..3 are materialised")
            self._faces[degree] = cols
        return cols

    def _triple_faces(self, xs, ys, zs):
        n = self.size
        rows = [self.sums[i * n:(i + 1) * n] for i in range(n)]
        index = self.pair_index
        prow = [index[i * n:(i + 1) * n] for i in range(n)]
        d0, d1, d2, d3 = [], [], [], []
        for p, (x, y, xy) in enumerate(zip(xs, ys, zs)):
            rx = rows[x]
            tail = [(z, yz) for z, (yz, xyz) in enumerate(zip(rows[y], rows[xy]))
                    if yz >= 0 and xyz >= 0 and rx[yz] >= 0]
            if tail:
                py, pxy, px = prow[y], prow[xy], prow[x]
                d0 += [py[z] for z, _ in tail]
                d1 += [pxy[z] for z, _ in tail]
                d2 += [px[yz] for _, yz in tail]
                d3 += [p] * len(tail)
        return d0, d1, d2, d3


@dataclass(frozen=True)
class CoefficientAction:
    """A finite abelian group acting on measurement labels.

    The group is a direct sum of cyclic groups Z_{d_1} x ... x Z_{d_k};
    elements are integer tuples reduced mod the moduli.  Their ids are
    mixed-radix ints, the last factor fastest: the index in
    ``elements()``, so the zero is 0.  ``generator_images`` names the
    label that each standard generator maps to under the embedding into
    the measurement monoid.
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
        elements = tuple(itertools.product(*(range(d) for d in self.moduli)))
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_ids",
                           {a: i for i, a in enumerate(elements)})

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return self._elements

    def id_of(self, a) -> int:
        """The id of a reduced element tuple, -1 for anything else."""
        return self._ids.get(tuple(a), -1)

    def columns(self, ids) -> tuple[list[int], ...]:
        """Per cyclic factor, the components of a list of element ids."""
        els = self._elements
        return tuple([els[a][k] for a in ids] for k in range(len(self.moduli)))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((u + v) % d for u, v, d in zip(a, b, self.moduli))

    def sum_table(self) -> list[int]:
        """``table[a * |A| + b]``: the id of a + b."""
        els, ids = self._elements, self._ids
        return [ids[self.add(a, b)] for a in els for b in els]

    def embed(self, monoid: PartialMonoid) -> list[int]:
        """The id of i(a) for every group id a.

        Built by repeated addition from the generator images; raises a
        structure error if any required sum is undefined, if the map
        fails to be an injective homomorphism, or if a generator image
        has the wrong order.
        """
        n, sums = monoid.size, monoid.sums
        images = [monoid.id_of(img) for img in self.generator_images]
        out = []
        for a in self._elements:
            x = monoid.unit
            for coeff, img in zip(a, images):
                for _ in range(coeff):
                    x = sums[x * n + img] if img >= 0 else -1
                    if x < 0:
                        raise StructureError(
                            f"embedding undefined while forming i({a})")
            out.append(x)
        if len(set(out)) != len(out):
            raise StructureError("embedding is not injective")
        # injective, so |A| <= n and the |A| x |A| table stays small
        table = self.sum_table()
        order = len(out)
        for a, x in enumerate(out):
            for b, y in enumerate(out):
                z = sums[x * n + y]
                if z < 0:
                    raise StructureError(
                        f"embedded group not sum-closed at "
                        f"i({self._elements[a]}) + i({self._elements[b]})")
                if z != out[table[a * order + b]]:
                    raise StructureError(
                        f"embedding is not a homomorphism at "
                        f"i({self._elements[a]}) + i({self._elements[b]})")
        return out

    def embedding(self, monoid: PartialMonoid) -> dict[tuple[int, ...], str]:
        """The label i(a) for every group element a; see ``embed``."""
        return {a: monoid.elements[x]
                for a, x in zip(self._elements, self.embed(monoid))}


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

    @cached_property
    def group_analyzer(self):
        """The model's ``mcohom.GroupObstructionAnalyzer``, shared by every
        group query; read through a weak proxy, as ``cech_analyzer`` is."""
        from .mcohom import GroupObstructionAnalyzer
        return GroupObstructionAnalyzer(weakref.proxy(self))


def glue_contexts(structured: StructuredModel) -> PartialMonoid:
    """Union the per-context operation tables into one partial monoid.

    Every context table must be total on its context, closed inside
    it, commutative, associative and share one identity; tables must
    agree wherever contexts overlap.  Violations raise structure
    errors naming the offending entries.  Each table is read once into
    a k x k table of positions in its context, and the checks run on
    that; associativity compares whole rows, (a + b) + c against
    a + (b + c) for every c at once.
    """
    scenario = structured.model.scenario
    if len(structured.context_ops) != len(scenario.contexts):
        raise PreconditionError("one operation table per context required")
    labels = scenario.measurements
    n = len(labels)
    gid = {x: i for i, x in enumerate(labels)}
    sums = [-1] * (n * n)
    origin = [-1] * (n * n)
    units = None
    for idx, (ctx, table) in enumerate(zip(scenario.contexts,
                                           structured.context_ops)):
        k = len(ctx)
        pos = {x: i for i, x in enumerate(ctx)}
        rows = []
        for a in ctx:
            row = []
            for b in ctx:
                if (a, b) not in table:
                    raise StructureError(
                        f"table for {ctx} misses the pair ({a!r}, {b!r})")
                c = pos.get(table[(a, b)])
                if c is None:
                    raise StructureError(
                        f"context {ctx} not closed: {a!r} + {b!r} = "
                        f"{table[(a, b)]!r}")
                row.append(c)
            rows.append(row)
        for i in range(k):
            for j in range(i + 1, k):
                if rows[i][j] != rows[j][i]:
                    raise StructureError(
                        f"context {ctx} not commutative at "
                        f"({ctx[i]!r}, {ctx[j]!r})")
        if len(table) != k * k:
            spurious = next(key for key in table
                            if key[0] not in pos or key[1] not in pos)
            raise StructureError(
                f"table for {ctx} mentions outside pair {spurious}")
        rows = [tuple(row) for row in rows]
        # a one-element context is associative once it is closed
        take = [itemgetter(*row) for row in rows] if k > 1 else []
        for a in range(len(take)):
            for b in range(k):
                # (a + b) + c is row a + b; a + (b + c) is row a read at row b
                if rows[rows[a][b]] != take[b](rows[a]):
                    c = next(c for c in range(k)
                             if rows[rows[a][b]][c] != rows[a][rows[b][c]])
                    raise StructureError(
                        f"context {ctx} not associative at "
                        f"({ctx[a]!r}, {ctx[b]!r}, {ctx[c]!r})")
        own = tuple(range(k))
        ctx_units = [ctx[e] for e in range(k) if rows[e] == own]
        if len(ctx_units) != 1:
            raise StructureError(f"context {ctx} lacks a unique identity")
        if units is None:
            units = ctx_units[0]
        elif units != ctx_units[0]:
            raise StructureError(
                f"contexts disagree on the identity: {units!r} vs "
                f"{ctx_units[0]!r}")
        ids = [gid[x] for x in ctx]
        for a, row in zip(ids, rows):
            for b, c in zip(ids, row):
                key = a * n + b
                old = sums[key]
                if old >= 0 and old != ids[c]:
                    raise StructureError(
                        f"contexts {origin[key]} and {idx} disagree on "
                        f"{(labels[a], labels[b])}: {labels[old]!r} vs "
                        f"{labels[ids[c]]!r}")
                sums[key] = ids[c]
                origin[key] = idx
    return PartialMonoid._of_ids(labels, gid[units], sums)


class Quotient:
    """A partial monoid modulo a free coefficient-group action.

    Orbits {a . x : a in A} become the elements of the quotient; the
    induced operation must be independent of the chosen
    representatives, otherwise construction fails with a structure
    error naming the offending pair.

    The tables, all over ids (n parent elements, |A| group elements):
    ``embedding[a]`` is i(a); ``act_table[a * n + x]`` is a . x =
    i(a) + x; ``value_table[y * n + x]`` is the least a with a . x = y,
    or -1; ``orbit_ids[x]`` is the orbit of x, an element of
    ``monoid``; ``member_ids[q]`` lists the orbit's members in element
    order; ``group_sums`` is the action's ``sum_table``.
    """

    def __init__(self, parent: PartialMonoid, action: CoefficientAction):
        self.parent = parent
        self.action = action
        self.embedding = action.embed(parent)
        self.group_sums = action.sum_table()
        n, sums, els = parent.size, parent.sums, parent.elements
        group = action.elements()
        act = []
        for a, img in enumerate(self.embedding):
            row = sums[img * n:(img + 1) * n]
            if -1 in row:
                raise StructureError(
                    f"action not total: i({group[a]}) + "
                    f"{els[row.index(-1)]!r} undefined")
            act += row
        self.act_table = act
        value = [-1] * (n * n)
        for a in range(len(group) - 1, -1, -1):
            for x, y in enumerate(act[a * n:(a + 1) * n]):
                value[y * n + x] = a
        self.value_table = value
        # Freeness: only the zero element may fix a point.
        for a in range(1, len(group)):
            for x, y in enumerate(act[a * n:(a + 1) * n]):
                if x == y:
                    raise StructureError(
                        f"action not free: i({group[a]}) fixes {els[x]!r}")
        # An orbit is named after its least member; a later orbit takes
        # over the members it shares with an earlier one.
        orbit_label = [None] * n
        members = {}
        for x in range(n):
            if orbit_label[x] is None:
                orbit = sorted(set(act[x::n]))
                label = f"[{els[orbit[0]]}]"
                members[label] = orbit
                for y in orbit:
                    orbit_label[y] = label
        names = list(dict.fromkeys(orbit_label))
        qid = {label: q for q, label in enumerate(names)}
        self.orbit_ids = [qid[label] for label in orbit_label]
        self.member_ids = [members[label] for label in names]
        orbit = self.orbit_ids
        m = len(names)
        table = [-1] * (m * m)
        for x, y, z in zip(*parent.pairs()):
            key = orbit[x] * m + orbit[y]
            old = table[key]
            if old != orbit[z]:
                if old >= 0:
                    raise StructureError(
                        f"quotient operation ill-defined at "
                        f"{(names[orbit[x]], names[orbit[y]])}: "
                        f"{names[old]!r} vs {names[orbit[z]]!r}")
                table[key] = orbit[z]
        # Definedness must also be orbit-independent.
        for key, zq in enumerate(table):
            if zq < 0:
                continue
            qx, qy = divmod(key, m)
            for x in self.member_ids[qx]:
                row = sums[x * n:(x + 1) * n]
                for y in self.member_ids[qy]:
                    if row[y] < 0:
                        raise StructureError(
                            f"quotient definedness ill-defined at "
                            f"({names[qx]}, {names[qy]}): {els[x]!r} + "
                            f"{els[y]!r} undefined")
        self.monoid = PartialMonoid._of_ids(names, orbit[parent.unit], table)
        self._subsets: dict[tuple, _Subset] = {}

    def orbit_of(self, x: str) -> str:
        return self.monoid.elements[self.orbit_ids[_known(self.parent, x)]]

    def members(self, orbit: str) -> tuple[str, ...]:
        ids = self.member_ids[_known(self.monoid, orbit)]
        return tuple(self.parent.elements[x] for x in ids)

    def act(self, a, x: str) -> str:
        g = self.action.id_of(a)
        if g < 0:
            raise PreconditionError(f"{a} is not an element of the group")
        return self.parent.elements[
            self.act_table[g * self.parent.size + _known(self.parent, x)]]

    def value_at(self, x: str, base: str) -> tuple[int, ...]:
        """The unique a with x = a . base, for base in the orbit of x."""
        i, j = _known(self.parent, x), _known(self.parent, base)
        a = self.value_table[i * self.parent.size + j]
        if a < 0:
            raise PreconditionError(f"{x!r} not in the orbit of {base!r}")
        return self.action.elements()[a]


def _known(monoid: PartialMonoid, x) -> int:
    """The id of a label given to a label method; unknown is bad input."""
    i = monoid.id_of(x)
    if i < 0:
        raise PreconditionError(f"unknown label {x!r}")
    return i


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


class _Subset(NamedTuple):
    """A subset of the parent, as given and as ids (-1 for an unknown
    label), what keeps it from being invariant and sum-closed, and its
    composable pairs (x, y, x + y) as id columns, in label order."""

    labels: tuple
    ids: list[int]
    violations: tuple[str, ...]
    pairs: tuple[list[int], list[int], list[int]]


def _subset(q: Quotient, labels) -> _Subset:
    """``_check_invariant_subset``, once per quotient and subset: the
    answer depends on nothing else, and every section of a context, and
    every reconstruction, asks about the same subset."""
    labs = tuple(labels)
    sub = q._subsets.get(labs)
    if sub is None:
        sub = q._subsets[labs] = _check_invariant_subset(q, labs)
    return sub


def _check_invariant_subset(q: Quotient, labs: tuple) -> _Subset:
    parent = q.parent
    ids = [parent.id_of(x) for x in labs]
    if len(set(labs)) != len(labs):
        return _Subset(labs, ids, ("duplicate labels in subset",),
                       ([], [], []))
    n, sums, act = parent.size, parent.sums, q.act_table
    inside = bytearray(n)
    for i in ids:
        if i >= 0:
            inside[i] = 1
    bad = []
    for x, i in zip(labs, ids):
        if i < 0:
            bad.append(f"unknown label {x!r}")
        elif not all(inside[y] for y in act[i::n]):
            bad.append(f"subset not action-invariant at {x!r}")
    xs, ys, zs = [], [], []
    for x, i in zip(labs, ids):
        if i < 0:
            continue
        row = sums[i * n:(i + 1) * n]
        for y, j in zip(labs, ids):
            z = row[j] if j >= 0 else -1
            if z >= 0:
                if not inside[z]:
                    bad.append(f"subset not sum-closed at ({x!r}, {y!r})")
                xs.append(i)
                ys.append(j)
                zs.append(z)
    return _Subset(labs, ids, tuple(bad), (xs, ys, zs))


def _splitting_law(q: Quotient, sub: _Subset, values) -> list[str]:
    """The one check of the splitting law: what keeps ``values``, the
    group element at each label of the subset, from a left splitting.

    Values that are not group elements are reported alone; otherwise the
    composable pairs where the homomorphism law fails, then the embedding
    images in the subset that the values do not retract.
    """
    ids = [-1] * q.parent.size
    bad = []
    for x, i, v in zip(sub.labels, sub.ids, values):
        ids[i] = q.action.id_of(v)
        if ids[i] < 0:
            bad.append(f"value {v!r} at {x!r} is not a group element")
    if bad:
        return bad
    els = q.parent.elements
    table, order = q.group_sums, len(q.embedding)
    bad = [f"not a homomorphism at ({els[x]!r}, {els[y]!r})"
           for x, y, z in zip(*sub.pairs)
           if ids[z] != table[ids[x] * order + ids[y]]]
    group = q.action.elements()
    bad += [f"does not retract the embedding at i({group[a]})"
            for a, img in enumerate(q.embedding) if ids[img] not in (-1, a)]
    return bad


def validate_splitting(q: Quotient, labels, s) -> ValidationReport:
    """Is ``s`` a left splitting on the given subset?"""
    sub = _subset(q, labels)
    bad = list(sub.violations)
    bad += [f"splitting undefined at {x!r}" for x in sub.labels if x not in s]
    if not bad:
        bad = _splitting_law(q, sub, [s[x] for x in sub.labels])
    return ValidationReport(tuple(bad))


def _right_splitting(q: Quotient, sub: _Subset, h):
    """The parent id of h at each orbit of the subset (-1 elsewhere) and
    what keeps h from being a homomorphic section there."""
    parent, monoid, orbit = q.parent, q.monoid, q.orbit_ids
    names = monoid.elements
    orbits = list(dict.fromkeys(orbit[i] for i in sub.ids))
    image = [-1] * monoid.size
    bad = []
    for o in orbits:
        if names[o] not in h:
            bad.append(f"section undefined at {names[o]}")
            continue
        x = parent.id_of(h[names[o]])
        if x < 0 or orbit[x] != o:
            bad.append(f"not a section at {names[o]}")
        image[o] = x
    if bad:
        return image, bad
    n, sums = parent.size, parent.sums
    xs, ys, zs = monoid.pairs()
    if len(orbits) < monoid.size:  # only the pairs of the subset's orbits
        on = [p for p, (a, b) in enumerate(zip(xs, ys))
              if image[a] >= 0 and image[b] >= 0]
        xs, ys, zs = ([col[p] for p in on] for col in (xs, ys, zs))
    got = [sums[image[a] * n + image[b]] for a, b in zip(xs, ys)]
    if -1 in got:
        k = got.index(-1)
        raise PreconditionError(
            f"sum {parent.elements[image[xs[k]]]!r} + "
            f"{parent.elements[image[ys[k]]]!r} is undefined")
    if got != [image[c] for c in zs]:
        bad = [f"not a homomorphism at ({names[a]}, {names[b]})"
               for a, b, c, z in zip(xs, ys, zs, got) if image[c] != z]
    return image, bad


def validate_right_splitting(q: Quotient, labels, h) -> ValidationReport:
    """Is ``h`` a homomorphic section of the quotient map on pi(labels)?"""
    sub = _subset(q, labels)
    if sub.violations:
        return ValidationReport(sub.violations)
    return ValidationReport(tuple(_right_splitting(q, sub, h)[1]))


def trivialisation_from_splitting(q: Quotient, labels, s):
    """phi = <s, pi> as a map label -> (group element, orbit)."""
    report = validate_splitting(q, labels, s)
    if not report.ok:
        raise PreconditionError(
            "not a left splitting: " + "; ".join(report.violations))
    return {x: (tuple(s[x]), q.orbit_of(x)) for x in labels}


def splitting_from_trivialisation(q: Quotient, labels, phi):
    """First component of a trivialisation, validated as a splitting."""
    _require_trivialisation(q, labels, phi)
    return {x: tuple(phi[x][0]) for x in labels}


def _require_trivialisation(q: Quotient, labels, phi) -> None:
    sub = _subset(q, labels)
    if sub.violations:
        raise PreconditionError("; ".join(sub.violations))
    names, orbit = q.monoid.elements, q.orbit_ids
    for x, i in zip(sub.labels, sub.ids):
        if x not in phi:
            raise PreconditionError(f"trivialisation undefined at {x!r}")
        _a, qx = phi[x]
        if names[orbit[i]] != qx:
            raise StructureError(
                f"second component is not the quotient map at {x!r}")
    # with the second components pinned to pi, injectivity and the
    # splitting law are about the first components alone
    firsts = [phi[x][0] for x in sub.labels]
    if len({(tuple(a), orbit[i]) for a, i in zip(firsts, sub.ids)}) != len(
            sub.ids):
        raise StructureError("trivialisation is not injective")
    bad = _splitting_law(q, sub, firsts)
    if bad:
        raise StructureError(f"trivialisation breaks the splitting law: "
                             f"{bad[0]}")


def right_splitting_of(q: Quotient, labels, phi):
    """h = phi^(-1)(0, -): the zero-level section of a trivialisation."""
    _require_trivialisation(q, labels, phi)
    h = {}
    zero = q.action.zero
    for x in labels:
        a, qx = phi[x]
        if tuple(a) == zero:
            h[qx] = x
    orbits = {q.orbit_of(x) for x in labels}
    if set(h) != orbits:
        raise StructureError("trivialisation misses a zero level")
    return h


def trivialisation_from_right_splitting(q: Quotient, labels, h):
    """The inverse correspondence: solve h(pi(x)) = x - i(s(x)) for s.

    Freeness of the action makes the group element unique; the
    resulting map <s, pi> is returned after validation.
    """
    sub = _subset(q, labels)
    bad = sub.violations
    if not bad:
        image, bad = _right_splitting(q, sub, h)
    if bad:
        raise PreconditionError("not a right splitting: " + "; ".join(bad))
    n, value, orbit = q.parent.size, q.value_table, q.orbit_ids
    group, names = q.action.elements(), q.monoid.elements
    phi = {}
    for x, i in zip(sub.labels, sub.ids):
        a = value[i * n + image[orbit[i]]]
        if a < 0:
            raise InternalCheckError(
                f"{x!r} not in the orbit of "
                f"{q.parent.elements[image[orbit[i]]]!r}")
        phi[x] = (group[a], names[orbit[i]])
    _require_trivialisation(q, labels, phi)
    return phi
