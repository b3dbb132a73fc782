"""Cech-style obstructions over the nerve of a measurement cover.

The free abelian presheaf F assigns to each set of jointly measurable
labels the integer formal sums of its possibilistic sections.  A
section s0 at a context C0 extends to a compatible integer family iff
its class gamma(s0) in the first Cech cohomology of the kernel
presheaf (sums vanishing under restriction into C0) is zero.  Both
routes run on the compatibility matrix A = -delta on 0-cochains, read on
the pairs i < j of the nerve:

* family feasibility: an integer linear system pins the C0 component
  to 1*s0 and demands A x = 0;
* connecting cocycle: lift s0 to a 0-cochain, take its coboundary
  z = -A x_lift, and decide whether A in kernel-presheaf coordinates
  reaches z, i.e. whether z bounds inside the kernel presheaf.

Both run a GF(2) refutation first, then an exact integer decision, and
every verdict carries a re-verified witness or separating certificate.
Each audit calls the one checker of its law: ``_check_parity`` for a
parity refutation of either route, GF(2) rows that sum to zero against
an odd right-hand side; ``linalg.separates``, inside the integer solver,
for a lattice certificate; the analyzer's differential on rows of A for
a family's compatibility and a potential's coboundary; and the group
analyzer's once-per-assignment whole-monoid splitting check for the
cross-check's collapsed family, so a collapse equal to the global
section that the group route already checked is not checked again.
Both routes and their audits work on section positions, row indexes of
the compatibility matrix and the model's int rows, so every audit reads
the same incidence that builds route 2's cocycle.  ``Section``s label
only what a query returns: families, pins and potentials come from the
model's sections, certificates and cocycles from the matrix's row tags, a
label table built once at set-up, since certificates read each tag many
times over.

``cech_coboundary`` on the nerve of ``build_nerve``, over ``Section``-keyed
formal sums, is the label reference for that differential: no query
calls it, and the tests tie the analyzer's incidence to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .errors import InternalCheckError, PreconditionError, located
from .linalg import Gf2AffineSystem, IntegerSystem
from .pmonoid import StructuredModel
from .scenario import (
    EmpiricalModel,
    Section,
    _cover_connected,
    _set_bits,
    check_no_signalling,
)

FormalSum = dict  # Section -> int coefficient
_HALF = Fraction(1, 2)  # every coefficient of a route-1 parity certificate


def fs_combine(target: FormalSum, other: FormalSum, scale: int = 1) -> None:
    for s, c in other.items():
        new = target.get(s, 0) + scale * c
        if new:
            target[s] = new
        else:
            target.pop(s, None)


def fs_restrict(fs: FormalSum, labels) -> FormalSum:
    """Push a formal sum along the restriction of its sections."""
    out: FormalSum = {}
    for s, c in fs.items():
        fs_combine(out, {s.restrict(labels): c})
    return out


@dataclass(frozen=True)
class Nerve:
    """Tuples of cover indices with jointly measurable support.

    ``build_nerve`` retains degenerate tuples (repeated indices); each
    degree lists its simplices in lexicographic order.
    """

    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    supports: dict

    def degree(self, q: int) -> tuple[tuple[int, ...], ...]:
        if not 0 <= q < len(self.simplices):
            raise PreconditionError(f"nerve holds degrees 0..{len(self.simplices)-1}")
        return self.simplices[q]


def build_nerve(scenario, max_degree: int = 2) -> Nerve:
    contexts = [set(c) for c in scenario.contexts]
    m = len(contexts)
    levels = []
    supports: dict[tuple[int, ...], tuple[str, ...]] = {}
    prev = [()]
    for q in range(max_degree + 1):
        cur = []
        for stem in prev:
            base = (set.intersection(*(contexts[i] for i in stem))
                    if stem else None)
            for i in range(m):
                supp = contexts[i] if base is None else base & contexts[i]
                if supp:
                    simplex = stem + (i,)
                    cur.append(simplex)
                    supports[simplex] = scenario.sort_labels(supp)
        levels.append(tuple(cur))
        prev = cur
    return Nerve(tuple(levels), supports)


@dataclass(eq=False)
class CechCochain:
    """Presheaf-valued cochain: a formal sum of sections per simplex."""

    degree: int
    values: dict

    def value(self, simplex) -> FormalSum:
        return self.values.get(tuple(simplex), {})


def make_cech_cochain(nerve: Nerve, degree: int, values) -> CechCochain:
    known = set(nerve.degree(degree))
    out = {}
    for simplex, fs in values.items():
        simplex = tuple(simplex)
        if simplex not in known:
            raise PreconditionError(f"{simplex} is not a {degree}-simplex")
        supp = nerve.supports[simplex]
        fs = {s: int(c) for s, c in fs.items() if c}
        for s in fs:
            if set(s.domain) != set(supp):
                raise PreconditionError(
                    f"section {s} does not live on the support of {simplex}")
        if fs:
            out[simplex] = fs
    return CechCochain(degree, out)


def cech_coboundary(nerve: Nerve, cochain: CechCochain) -> CechCochain:
    """Alternating sum of face restrictions, one degree up."""
    q = cochain.degree
    out = {}
    for simplex in nerve.degree(q + 1):
        supp = nerve.supports[simplex]
        total: FormalSum = {}
        for i in range(q + 2):
            face = simplex[:i] + simplex[i + 1:]
            fs = cochain.value(face)
            if fs:
                fs_combine(total, fs_restrict(fs, supp),
                           1 if i % 2 == 0 else -1)
        if total:
            out[simplex] = total
    return CechCochain(q + 1, out)


# --- Decisions ----------------------------------------------------------


@dataclass(eq=False)
class CechCertificate:
    """Separating functional over tagged constraint rows.

    ``kind`` is "parity" for a GF(2) refutation (odd pairing with the
    right-hand side), or "rational"/"integral" from the exact solver.
    Only nonzero coefficients are kept.
    """

    kind: str
    rows: tuple
    coefficients: tuple


@dataclass(eq=False)
class FamilyDecision:
    """Route 1 verdict for one pinned section."""

    context_index: int
    section: Section
    vanishes: bool
    family: dict | None
    certificate: CechCertificate | None


@dataclass(eq=False)
class CocycleDecision:
    """Route 2 verdict: the connecting cocycle and what it bounds.

    ``z`` holds the cocycle on row indexes of the analyzer's compatibility
    matrix, ``{row: nonzero value}``, and ``tags`` is the analyzer's row
    tag list; ``cocycle`` reads them as ``{(i, j): {section: value}}`` in
    row order, on first use."""

    context_index: int
    section: Section
    vanishes: bool
    z: dict = field(repr=False)
    tags: list = field(repr=False)
    potential: dict | None
    certificate: CechCertificate | None

    @cached_property
    def cocycle(self) -> dict:
        cocycle = {}
        for r, v in self.z.items():  # z is built in row order
            _k, i, j, t = self.tags[r]
            cocycle.setdefault((i, j), {})[t] = v
        return cocycle


class CechAnalyzer:
    """Shared matrices for every obstruction query against one model.

    The compatibility matrix A has a column per context section, section
    u of C_j at column ``_offsets[j] + u``, and a row per pair i < j of
    overlapping contexts and section t of the overlap:
    +1 on C_i's and -1 on C_j's sections restricting to t, so A x is
    -delta(x) read on the pairs i < j.  A is kept once, as its incidence:
    each pair's rows are consecutive, ``_pair_of[r]`` is r's pair (i, j),
    and per pair an int list per side maps section positions to rows,
    read from ``pair_restrictions`` (a signalling model, whose two sides
    restrict to different sets, is rejected).  ``rows[r]`` tags row r
    ("pair", i, j, t), a label table read only for the certificates and
    cocycles that queries return.  ``_parity_rows`` reads A mod 2 on
    any column basis as bitmasks, for the set-up GF(2) echelon ``_gf2``,
    whose kept rows the route-1 audit reads, and route 2's parity
    system; ``_columns`` reads it as sparse rows ``{k: entry}``, which
    both routes' integer systems take as they are, so no system here is
    dense.  ``_delta`` reads A's incidence as the Cech differential on
    section positions.  No query restricts a section: both routes and
    their audits work on row indexes, section positions and the model's
    int rows.

    Pinning a section, or taking its cocycle, changes only the right-hand
    side of a linear system fixed by the pinned context.  So each route
    builds its GF(2) system on a context's first query and answers every
    section of the context from it.  Route 1 works in kernel coordinates
    of the unpinned compatibility system, which is echeloned over GF(2)
    once; route 2's system is A in kernel-presheaf coordinates.  A query
    the parity stage does not refute tries the global-section shortcut
    (the model's cached ``extension_table``), then an exact integer
    system, built on first use.  Certificate rows are read once from the
    set bits of a refuter or its track.  Only one context's systems are
    held: a query in another context drops them, and a context asked
    about again is rebuilt, alike, since its systems depend on the model
    alone.
    """

    def __init__(self, model: EmpiricalModel):
        self.model = model
        contexts = model.scenario.contexts
        self._offsets = [0, *accumulate(map(len, model.rows))]
        self.nunknowns = self._offsets.pop()
        self.pair_overlaps = {}
        # (j, k) -> for each section of C_j, the row of pair {j, k} that
        # it restricts to; (j, j) -> section positions (singleton classes)
        self._side = {(j, j): range(len(rows))
                      for j, rows in enumerate(model.rows)}
        self._incident = [[] for _ in contexts]  # A's columns: (side, sign)
        self.rows = []   # ("pair", i, j, section over the overlap)
        self._pair_of = []  # per row, its pair (i, j)
        for i, j, labels, left, right in model.pair_restrictions():
            below = set(left)
            if set(right) != below:
                # the same comparison, worded for the user
                ns = check_no_signalling(model)
                raise PreconditionError(
                    "model is signalling: " + "; ".join(ns.violations[:3]))
            below = sorted(below)
            row_of = {key: len(self.rows) + p for p, key in enumerate(below)}
            self.pair_overlaps[(i, j)] = labels
            self._pair_of += [(i, j)] * len(below)
            self.rows += [("pair", i, j, Section.from_values(labels, key))
                          for key in below]
            for k, other, sign, keys in ((i, j, 1, left), (j, i, -1, right)):
                side = [row_of[key] for key in keys]
                self._side[(k, other)] = side
                self._incident[k].append((side, sign))
        self._gf2 = Gf2AffineSystem(self._parity_rows(), self.nunknowns)
        self._kernel = self._gf2.kernel_basis()
        self.connected = _cover_connected(contexts)
        self._slot: tuple[int | None, dict] = (None, {})

    def _held(self, context_index: int) -> dict:
        """The systems held for ``context_index``, by name.  Those of any
        other context are dropped here, before the caller builds anew."""
        if self._slot[0] != context_index:
            self._slot = (context_index, {})
        return self._slot[1]

    def _position(self, context_index: int, section: Section) -> int:
        """The pinned section's position.  On a disconnected cover nothing
        fixes a family's mass on a component without the pin."""
        if not self.connected:
            raise PreconditionError("Cech analysis needs a connected cover")
        return self.model.section_index(context_index, section)

    # -- route 1: pinned compatible-family feasibility -------------------

    def family_obstruction(self, context_index: int,
                           section: Section) -> FamilyDecision:
        s_pos = self._position(context_index, section)
        try:
            _sol, ref = self._route1_parity(context_index).solve(1 << s_pos)
            if ref is not None:
                return FamilyDecision(
                    context_index, section, False, None,
                    self._parity_certificate(context_index, s_pos, ref))
            witness = self._integral_family(context_index, s_pos)
            if isinstance(witness, CechCertificate):
                return FamilyDecision(context_index, section, False, None,
                                      witness)
            return FamilyDecision(context_index, section, True, witness, None)
        except InternalCheckError as exc:
            raise located(exc, context_index, s_pos)

    def _route1_parity(self, context_index: int) -> Gf2AffineSystem:
        """The pinning rows of one context over GF(2), in kernel
        coordinates of the compatibility system."""
        held = self._held(context_index)
        if "route1 parity" not in held:
            off = self._offsets[context_index]
            masks = [sum(1 << k for k, vec in enumerate(self._kernel)
                         if vec >> (off + u) & 1)
                     for u in range(len(self.model.rows[context_index]))]
            held["route1 parity"] = Gf2AffineSystem(masks, len(self._kernel))
        return held["route1 parity"]

    def _parity_certificate(self, context_index, s_pos,
                            ref) -> CechCertificate:
        """Half-integer separating functional from a parity refutation.

        The refuting set phi of pinning rows sums, over GF(2), to a
        vector orthogonal to the kernel of the compatibility matrix,
        hence expressible from its rows; pairing the resulting
        half-integer combination with the pinned right-hand side gives
        1/2, which no integer family can produce.
        """
        track = self._gf2.express(ref << self._offsets[context_index])
        if track is None:
            raise InternalCheckError(
                "parity refuter escaped the compatibility row space")
        rows, pins = _set_bits(track), _set_bits(ref)
        self._check_separation(context_index, s_pos,
                               [(_HALF, r) for r in rows],
                               [(_HALF, context_index, u) for u in pins])
        secs = self.model.sections[context_index]
        tags = [self.rows[r] for r in rows]
        tags += [("pin", context_index, secs[u]) for u in pins]
        return CechCertificate("parity", tuple(tags), (_HALF,) * len(tags))

    def _check_separation(self, context_index, s_pos, pair_terms,
                          pin_terms) -> None:
        """Check y, on rows of A ``(coeff, row)`` and on pinning rows
        ``(coeff, context, section position)``, by ``_check_parity``:
        every coefficient is 1/2, the rows of A mod 2 and the pins sum to
        0, and the pins name section ``s_pos`` of ``context_index`` an odd
        number of times: for such a y, what ``separates(terms, 1)`` says."""
        message = "certificate does not separate the pinned section"
        # list.count tries identity first: the shared _HALF is cheap
        coeffs = [t[0] for t in pair_terms] + [t[0] for t in pin_terms]
        if coeffs.count(_HALF) != len(coeffs):
            raise InternalCheckError(message)
        masks = [self._gf2.rows[r] for _coeff, r in pair_terms]
        pinned = 0
        for _coeff, ci, u in pin_terms:
            masks.append(1 << (self._offsets[ci] + u))
            pinned += ci == context_index and u == s_pos
        _check_parity(masks, pinned, message)

    def _basis(self, basis) -> list:
        """Column basis vector k is ``(j, u, v)``, the column A e_u - A e_v of
        sections u, v of C_j, or A e_u when v is None; by default every
        A e_u in order."""
        if basis is None:
            basis = [(j, u, None) for j, rows in enumerate(self.model.rows)
                     for u in range(len(rows))]
        return basis

    def _columns(self, basis=None) -> list[dict]:
        """A on a column basis (``_basis``), one sparse row ``{k: entry}``
        per row, read from the incidence."""
        rows = [{} for _ in self.rows]
        for k, (j, u, v) in enumerate(self._basis(basis)):
            for side, sign in self._incident[j]:
                if v is None:
                    rows[side[u]][k] = sign
                elif side[u] != side[v]:
                    rows[side[u]][k] = sign
                    rows[side[v]][k] = -sign
        return rows

    def _parity_rows(self, basis=None) -> list[int]:
        """A mod 2 on a column basis (``_basis``), one bitmask over k per
        row, read from the incidence: each row meets a basis vector on at
        most one side of its pair, so every entry there is +-1."""
        masks = [0] * len(self.rows)
        for k, (j, u, v) in enumerate(self._basis(basis)):
            bit = 1 << k
            for side, _sign in self._incident[j]:
                if v is None:
                    masks[side[u]] |= bit
                elif side[u] != side[v]:
                    masks[side[u]] |= bit
                    masks[side[v]] |= bit
        return masks

    def _integral_family(self, context_index, s_pos):
        """The pinned family as terms (j, u, c) on section positions, by the
        global-section shortcut or the exact solver, audited and returned
        on sections; or the solver's certificate."""
        # a global section through s0 is a family with coefficients 1
        g = self.model.extension_table[context_index][s_pos]
        if g is not None:
            terms = [(j, u, 1) for j, u in enumerate(g)]
        else:
            held, npair = self._held(context_index), len(self.rows)
            npins = len(self.model.rows[context_index])
            if "route1 integer" not in held:
                off = self._offsets[context_index]
                held["route1 integer"] = IntegerSystem(
                    self._columns() + [{off + u: 1} for u in range(npins)],
                    self.nunknowns)
            rhs = [0] * (npair + npins)
            rhs[npair + s_pos] = 1
            res = held["route1 integer"].solve(rhs)
            if not res.feasible:
                secs = self.model.sections[context_index]
                return _tagged_certificate(
                    res.certificate.kind, res.certificate.vector,
                    lambda r: self.rows[r] if r < npair
                    else ("pin", context_index, secs[r - npair]))
            w = res.witness
            terms = [(j, u, w[o + u]) for j, (o, rs)
                     in enumerate(zip(self._offsets, self.model.rows))
                     for u in range(len(rs)) if w[o + u]]
        self._audit_family(context_index, s_pos, terms)
        sections = self.model.sections
        return {(j, sections[j][u]): c for j, u, c in terms}

    def _audit_family(self, context_index, s_pos, terms) -> None:
        """A claimed family, terms (j, u, c) on section positions, must name
        sections of its contexts, be pinned to section ``s_pos`` of
        ``context_index``, mass-1 and pair-compatible: its delta vanishes
        on every row of A."""
        mass = [0] * len(self._offsets)
        for j, u, c in terms:
            if not 0 <= u < len(self.model.rows[j]):  # -1 would index too
                raise InternalCheckError("family uses an unknown section")
            mass[j] += c
        if any(m != 1 for m in mass):
            raise InternalCheckError("family mass differs from 1")
        if {u: c for j, u, c in terms if j == context_index} != {s_pos: 1}:
            raise InternalCheckError("family is not pinned to the section")
        if self._delta(terms):
            raise InternalCheckError("family fails pair compatibility")

    # -- route 2: connecting cocycle --------------------------------------

    def connecting_cocycle(self, context_index: int,
                           section: Section) -> CocycleDecision:
        s_pos = self._position(context_index, section)
        try:
            _basis, classes, parity = self._route2_rows(context_index)
            # the lift takes, in each context, the representative of s0's class
            lift = [reps[key_c[s_pos]] for key_c, reps in classes]
            z = self._delta((j, u, 1) for j, u in enumerate(lift))
            if _nonzero_sums(self._kernel_keys(context_index), z.items()):
                raise InternalCheckError(
                    "connecting cochain leaves the kernel presheaf")
            odd = _odd_mask(z, len(self.rows))
            _sol, ref = parity.solve(odd)
            if ref is not None:
                rows = _set_bits(ref)
                self._check_refuter(context_index, rows, odd)
                cert = CechCertificate("parity",
                                       tuple(self.rows[r] for r in rows),
                                       (1,) * len(rows))
                return CocycleDecision(context_index, section, False, z,
                                       self.rows, None, cert)
            potential = self._route2_potential(context_index, s_pos, lift, z)
            if isinstance(potential, CechCertificate):
                return CocycleDecision(context_index, section, False, z,
                                       self.rows, None, potential)
            return CocycleDecision(context_index, section, True, z, self.rows,
                                   potential, None)
        except InternalCheckError as exc:
            raise located(exc, context_index, s_pos)

    def _delta(self, terms) -> dict:
        """delta(x) = -A x on the rows of A, ``{row: nonzero value}``, for
        x the sum of c e_u over ``terms`` (j, u, c), section u of C_j: route
        2's cocycle, and both routes' audits of delta.  Summed in a list
        over the rows, which is quicker than a dict even where most rows
        stay 0."""
        acc = [0] * len(self.rows)
        incident = self._incident
        for j, u, c in terms:
            for side, sign in incident[j]:
                acc[side[u]] -= sign * c
        return {r: v for r, v in enumerate(acc) if v}

    def _route2_rows(self, c: int):
        """The kernel-presheaf basis of pin c, its classes and the GF(2)
        system of A in its coordinates.

        Sections of C_j are in one class when they restrict alike into
        C_c, read off the (j, c) side list; a context disjoint from C_c
        is one class.  The first section rep of a class represents it,
        and each other one s gives the basis vector (j, rep, s), the
        0-cochain s - rep, whose column is A e_rep - A e_s =
        delta(s - rep).  ``classes[j]`` is (the class of each section of
        C_c, class -> rep in C_j).
        """
        held = self._held(c)
        if "route2 parity" not in held:
            basis = []
            classes = []
            # a context disjoint from C_c: one class, shared, read only
            none_c = ([0] * len(self.model.rows[c]), {0: 0})
            for j, rows in enumerate(self.model.rows):
                side = self._side.get((j, c))
                if side is None:
                    basis += [(j, 0, u) for u in range(1, len(rows))]
                    classes.append(none_c)
                    continue
                reps: dict[int, int] = {}
                for u, key in enumerate(side):
                    rep = reps.setdefault(key, u)
                    if rep != u:
                        basis.append((j, rep, u))
                classes.append((self._side[(c, j)], reps))
            held["route2 parity"] = (basis, classes, Gf2AffineSystem(
                self._parity_rows(basis), len(basis)))
        return held["route2 parity"]

    def _kernel_keys(self, c: int) -> list:
        """Pin c's kernel-presheaf key of each row of A: rows of one pair
        whose overlap sections restrict alike into C_c share a key, the
        first such row.  A pair whose overlap misses C_c restricts wholly
        to the empty section, so its key is the pair (i, j); one inside C_c
        restricts to itself, so each row is its own key."""
        held = self._held(c)
        if "route2 keys" not in held:
            contexts = self.model.scenario.contexts
            inner = set(contexts[c])
            keys = list(self._pair_of)
            # an overlap that meets C_c lies in two contexts that meet it
            near = [j for j in range(len(self._offsets))
                    if (j, c) in self._side]
            for a, i in enumerate(near):
                for j in near[a + 1:]:
                    labels = self.pair_overlaps.get((i, j))
                    if labels is None:
                        continue
                    # C_i's positions of the overlap's labels inside C_c
                    at = [p for p, x in enumerate(contexts[i])
                          if x in inner and x in labels]
                    if not at:
                        continue
                    side = self._side[(i, j)]  # reaches every row of the pair
                    start, end = min(side), max(side) + 1
                    if len(at) == len(labels):
                        keys[start:end] = range(start, end)
                        continue
                    # each row keyed by a section of C_i that restricts to it
                    key_of = dict(zip(side, map(itemgetter(*at),
                                                self.model.rows[i])))
                    first = {}
                    for r in range(start, end):
                        keys[r] = first.setdefault(key_of[r], r)
            held["route2 keys"] = keys
        return held["route2 keys"]

    def _route2_potential(self, context_index, s_pos, lift, z):
        """Integer potential via the global-section shortcut, else the
        exact solver on the kernel-coordinate system; audited on section
        positions, returned on sections."""
        g = self.model.extension_table[context_index][s_pos]
        if g is not None:
            potential = {j: {u: 1, v: -1}
                         for j, (u, v) in enumerate(zip(lift, g)) if u != v}
        else:
            basis, _classes, _parity = self._route2_rows(context_index)
            held = self._held(context_index)
            if "route2 integer" not in held:
                held["route2 integer"] = IntegerSystem(self._columns(basis),
                                                       len(basis))
            rhs = [0] * len(self.rows)
            for r, v in z.items():
                rhs[r] = v
            res = held["route2 integer"].solve(rhs)
            if not res.feasible:
                return _tagged_certificate(res.certificate.kind,
                                           res.certificate.vector,
                                           self.rows.__getitem__)
            potential = {}
            for k, (j, rep, u) in enumerate(basis):
                c = res.witness[k]
                if c:  # add c (e_u - e_rep), dropping entries summed to 0
                    fs = potential.setdefault(j, {})
                    for v, dv in ((u, c), (rep, -c)):
                        fs[v] = fs.get(v, 0) + dv
                        if not fs[v]:
                            del fs[v]
            potential = {j: fs for j, fs in potential.items() if fs}
        self._check_potential(context_index, potential, z)
        sections = self.model.sections
        return {j: {sections[j][u]: c for u, c in fs.items()}
                for j, fs in potential.items()}

    # -- route 2's audits: on rows and section positions ------------------

    def _potential_leaves(self, c, potential) -> bool:
        """Does a 0-cochain on section positions, ``{j: {u: coeff}}``,
        leave pin c's kernel presheaf?  Section u of C_j restricts into
        C_c as it does onto the pair {j, c}: its key is its row there
        (its own position when j = c), and one key for all of C_j when
        C_j misses C_c."""
        for j, fs in potential.items():
            keys = self._side.get((j, c)) or [0] * len(self.model.rows[j])
            if _nonzero_sums(keys, fs.items()):
                return True
        return False

    def _check_potential(self, context_index, potential, z) -> None:
        """A potential on section positions must live in the kernel
        presheaf and bound z, both on rows of A."""
        if self._potential_leaves(context_index, potential):
            raise InternalCheckError("potential leaves the kernel presheaf")
        if self._delta((j, u, c) for j, fs in potential.items()
                       for u, c in fs.items()) != z:
            raise InternalCheckError("potential does not bound the cocycle")

    def _check_refuter(self, context_index, rows, odd) -> None:
        """The parity refuter, its distinct rows ``rows`` of A, must
        annihilate the rows of route 2's system and pair oddly with z,
        read as ``odd``, the bitmask of the rows where z is odd."""
        parity_rows = self._route2_rows(context_index)[2].rows
        _check_parity([parity_rows[r] for r in rows],
                      sum(odd >> r & 1 for r in rows),
                      "route-2 parity certificate failed audit")


def _check_parity(masks, pairing: int, message: str) -> None:
    """The one check of a parity refutation, on both routes: its rows, GF(2)
    bitmasks, sum to 0 and ``pairing``, their right-hand sides' sum, is odd."""
    acc = 0
    for mask in masks:
        acc ^= mask
    if acc or not pairing & 1:
        raise InternalCheckError(message)


def _nonzero_sums(keys, entries) -> bool:
    """The kernel-presheaf check on row keys: do the values of ``entries``,
    ``(index, value)`` pairs, sum to nonzero on some key ``keys[index]``?"""
    acc: dict = {}
    for i, v in entries:
        k = keys[i]
        acc[k] = acc.get(k, 0) + v
    return any(acc.values())


def _odd_mask(values: dict, n: int) -> int:
    """The bitmask of the odd values of ``{index: value}`` over range(n),
    written as binary digits, so each index costs one byte, not a shift."""
    digits = bytearray(b"0" * (n + 1))  # a leading 0 keeps n = 0 readable
    for i, v in values.items():
        if v & 1:
            digits[n - i] = 49  # ord("1")
    return int(digits, 2)


def _tagged_certificate(kind, coefficients, tag_of) -> CechCertificate:
    """A certificate over tagged rows: the nonzero coefficients, each with
    the tag ``tag_of(r)`` of its row r."""
    kept = [(tag_of(r), c) for r, c in enumerate(coefficients) if c]
    return CechCertificate(kind, tuple(t for t, _c in kept),
                           tuple(c for _t, c in kept))


def cech_obstruction_vanishes(model: EmpiricalModel, context_index: int,
                              section: Section) -> FamilyDecision:
    """Route 1: does gamma(1*s0) vanish, i.e. does a pinned compatible
    integer family exist?"""
    return model.cech_analyzer.family_obstruction(context_index, section)


def connecting_cocycle(model: EmpiricalModel, context_index: int,
                       section: Section) -> CocycleDecision:
    """Route 2: the connecting cocycle of s0 and whether it bounds."""
    return model.cech_analyzer.connecting_cocycle(context_index, section)


def collapse_family(model: EmpiricalModel, family) -> dict:
    """Weighted outcome sum g(x) = sum_s r_C(s) s(x) of a mass-1 family.

    Pair compatibility makes the value independent of the context used
    to read it off, which is re-checked here; the result is reduced
    modulo the outcome group order.
    """
    scenario = model.scenario
    d = scenario.outcome_modulus
    per_ctx = [[] for _ in scenario.contexts]  # (section's row, coeff)
    for (ci, s), c in family.items():
        u = model.section_index(ci, s)  # an unknown one is bad input
        if c:
            per_ctx[ci].append((model.rows[ci][u], c))
    for ci, terms in enumerate(per_ctx):
        if sum(c for _v, c in terms) != 1:
            raise PreconditionError(
                f"family mass at context {ci} differs from 1")
    out: dict[str, int] = {}
    for ci, ctx in enumerate(scenario.contexts):
        for p, x in enumerate(ctx):
            val = sum(c * v[p] for v, c in per_ctx[ci]) % d
            if x in out and out[x] != val:
                raise InternalCheckError(
                    f"collapse disagrees across contexts at {x!r}")
            out[x] = val
    return out


# --- Cross-checking the two obstruction theories ------------------------


@dataclass(eq=False)
class CrossCheckRow:
    context_index: int
    section: Section
    cech_vanishes: bool
    group_vanishes: bool


@dataclass(eq=False)
class CrossCheckReport:
    """Per-section verdicts from both theories, with the implication
    'Cech vanishing forces group vanishing' enforced along the way."""

    rows: tuple

    @property
    def consistent(self) -> bool:
        return all(not r.cech_vanishes or r.group_vanishes
                   for r in self.rows)


def cross_check_obstructions(structured: StructuredModel) -> CrossCheckReport:
    """Run both routes and the group obstruction on every section.

    Raises an internal check error if the two Cech routes ever
    disagree, if a vanishing Cech obstruction fails to produce (via
    family collapse) a global splitting extending the section, or if
    it coexists with a non-vanishing group obstruction.
    """
    return CrossCheckReport(tuple(
        row for row, _r1, _g in _cross_check_steps(structured)))


def _cross_check_steps(structured: StructuredModel):
    """The cross-check one section at a time: its row, route-1 decision and
    group report, for a caller that answers its queries from the pass."""
    model = structured.model
    cech = model.cech_analyzer
    group = structured.group_analyzer
    for ci, ctx in enumerate(model.scenario.contexts):
        for s, row in zip(model.sections[ci], model.rows[ci]):
            r1 = cech.family_obstruction(ci, s)
            r2 = cech.connecting_cocycle(ci, s)
            if r1.vanishes != r2.vanishes:
                raise InternalCheckError(
                    f"Cech routes disagree at context {ci}, section {s}")
            g = group.analyze(ci, s)
            if r1.vanishes and not g.vanishes:
                raise InternalCheckError(
                    f"vanishing Cech obstruction with non-vanishing group "
                    f"obstruction at context {ci}, section {s}")
            if r1.vanishes:
                collapsed = collapse_family(model, r1.family)
                if any(collapsed[x] != v for x, v in zip(ctx, row)):
                    raise InternalCheckError(
                        "collapse does not extend the pinned section")
                group.check_global_splitting(
                    [collapsed[x] for x in group.monoid.elements], "collapse")
            yield CrossCheckRow(ci, s, r1.vanishes, g.vanishes), r1, g
