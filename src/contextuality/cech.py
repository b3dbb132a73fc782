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
Each audit calls the one checker of its law: ``linalg.separates`` for a
separating functional, ``cech_coboundary`` on the analyzer's nerve for a
family's compatibility, and ``pmonoid.validate_splitting`` for the
cross-check's collapsed family.  Route 2 works on row indexes of the
compatibility matrix, so its audits (the kernel-presheaf check, a
potential's coboundary and a parity refutation) read the same incidence
that builds its cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import itemgetter

from .errors import InternalCheckError, PreconditionError
from .linalg import Gf2AffineSystem, Gf2Echelon, IntegerSystem, separates
from .pmonoid import StructuredModel, validate_splitting
from .scenario import (
    EmpiricalModel,
    Section,
    _cover_connected,
    check_no_signalling,
)

FormalSum = dict  # Section -> int coefficient


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

    The compatibility matrix A has a column per context section and a row
    per pair i < j of overlapping contexts and section t of the overlap:
    +1 on C_i's and -1 on C_j's sections restricting to t, so A x is
    -delta(x) read on the pairs i < j.  A is kept once, as its incidence:
    ``rows[r]`` tags row r ("pair", i, j, t), each pair's rows are
    consecutive, ``_pair_start[r]`` is the first row of r's pair, and per
    pair an int list per side maps section positions to rows, read from
    ``pair_restrictions`` (a signalling model, whose two sides restrict
    to different sets, is rejected).  ``_parity_rows`` reads A mod 2 on
    any column basis as bitmasks, for the set-up GF(2) echelon and route
    2's parity system; ``_columns`` reads it as sparse rows ``{k:
    entry}``, which both routes' integer systems take as they are, so no
    system here is dense.
    ``_row_of`` maps a row's pair and overlap section to its index, for
    the audits of label input; ``_row_at`` reads the rows that route-1
    certificates name.  No query restricts a section: route 2 and its
    audits work on row indexes and section positions.

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
        self.blocks = []
        offset = 0
        for secs in model.sections:
            self.blocks.append((offset, list(secs)))
            offset += len(secs)
        self.nunknowns = offset
        self.pair_overlaps = {}
        # (j, k) -> for each section of C_j, the row of pair {j, k} that
        # it restricts to; (j, j) -> section positions (singleton classes)
        self._side = {(j, j): range(len(secs))
                      for j, secs in enumerate(model.sections)}
        self._incident = [[] for _ in contexts]  # A's columns: (side, sign)
        self.rows = []   # ("pair", i, j, section over the overlap)
        self._pair_start = []  # per row, the first row of its pair
        # (i, j, section items) -> row: hashes the section's items tuple,
        # not the Section through its dataclass __hash__
        self._row_of = {}
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
            self._pair_start += [len(self.rows)] * len(below)
            for key in below:
                t = Section.from_values(labels, key)
                self._row_of[i, j, t.items] = len(self.rows)
                self.rows.append(("pair", i, j, t))
            for k, other, sign, keys in ((i, j, 1, left), (j, i, -1, right)):
                side = [row_of[key] for key in keys]
                self._side[(k, other)] = side
                self._incident[k].append((side, sign))
        self._rows_read: dict[int, dict] = {}
        # the audits' nerve: contexts in degree 0, pairs i < j in degree 1
        self.nerve = Nerve(
            (tuple((c,) for c in range(len(contexts))),
             tuple(self.pair_overlaps)),
            {**{(c,): ctx for c, ctx in enumerate(contexts)},
             **self.pair_overlaps})
        self._gf2 = Gf2Echelon(self._parity_rows(), self.nunknowns)
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
        off, secs = self.blocks[context_index]
        _sol, ref = self._route1_parity(context_index).solve(1 << s_pos)
        if ref is not None:
            return FamilyDecision(
                context_index, section, False, None,
                self._parity_certificate(context_index, s_pos, ref, off,
                                         secs))
        witness = self._integral_family(context_index, section, off, secs,
                                        s_pos)
        if isinstance(witness, CechCertificate):
            return FamilyDecision(context_index, section, False, None,
                                  witness)
        return FamilyDecision(context_index, section, True, witness, None)

    def _route1_parity(self, context_index: int) -> Gf2AffineSystem:
        """The pinning rows of one context over GF(2), in kernel
        coordinates of the compatibility system."""
        held = self._held(context_index)
        if "route1 parity" not in held:
            off, secs = self.blocks[context_index]
            masks = [sum(1 << k for k, vec in enumerate(self._kernel)
                         if vec >> (off + u) & 1) for u in range(len(secs))]
            held["route1 parity"] = Gf2AffineSystem(masks, len(self._kernel))
        return held["route1 parity"]

    def _parity_certificate(self, context_index, s_pos, ref, off,
                            secs) -> CechCertificate:
        """Half-integer separating functional from a parity refutation.

        The refuting set phi of pinning rows sums, over GF(2), to a
        vector orthogonal to the kernel of the compatibility matrix,
        hence expressible from its rows; pairing the resulting
        half-integer combination with the pinned right-hand side gives
        1/2, which no integer family can produce.
        """
        track = self._gf2.express(ref << off)
        if track is None:
            raise InternalCheckError(
                "parity refuter escaped the compatibility row space")
        rows, pins = _set_bits(track), _set_bits(ref)
        half = Fraction(1, 2)
        self._check_separation(context_index, s_pos,
                               [(half, r) for r in rows],
                               [(half, context_index, u) for u in pins])
        tags = [self.rows[r] for r in rows]
        tags += [("pin", context_index, secs[u]) for u in pins]
        return CechCertificate("parity", tuple(tags), (half,) * len(tags))

    def _check_separation(self, context_index, s_pos, pair_terms,
                          pin_terms) -> None:
        """Re-verify y^T A integral and y^T b non-integral with ``separates``,
        for y given on rows of A, ``(coeff, row)``, and on pinning rows,
        ``(coeff, context, section position)``.

        The right-hand side is zero on compatibility rows and the
        indicator of the pinned section, at position ``s_pos`` of
        ``context_index``, on pinning rows.
        """
        terms = [(coeff, self._row_at(r), 0) for coeff, r in pair_terms]
        terms += [(coeff, {self.blocks[ci][0] + u: 1},
                   int(ci == context_index and u == s_pos))
                  for coeff, ci, u in pin_terms]
        if not separates(terms, 1):
            raise InternalCheckError(
                "certificate does not separate the pinned section")

    def _audit_certificate(self, context_index, section, cert) -> None:
        """``_check_separation`` on a certificate over tagged rows."""
        pair_terms, pin_terms = [], []
        for tag, coeff in zip(cert.rows, cert.coefficients):
            if tag[0] == "pair":
                pair_terms.append((coeff, self._row_indexes([tag])[0]))
            else:
                _kind, ci, t = tag
                pin_terms.append((coeff, ci, self._pin_position(ci, t)))
        self._check_separation(context_index,
                               self._pin_position(context_index, section),
                               pair_terms, pin_terms)

    def _pin_position(self, ci, t) -> int:
        """The position of section t in context ci, for a pinning row."""
        secs = self.blocks[ci][1] if 0 <= ci < len(self.blocks) else []
        try:
            return secs.index(t)
        except ValueError:
            raise InternalCheckError(
                f"certificate pins an unknown section {t} of context {ci}"
            ) from None

    def _row_indexes(self, tags) -> list[int]:
        """The rows of A that a certificate's pair tags name."""
        rows = [self._row_of.get((i, j, t.items)) for _k, i, j, t in tags]
        if None in rows:
            raise InternalCheckError(
                f"certificate names no row of A: {tags[rows.index(None)]}")
        return rows

    def _row_at(self, r: int) -> dict:
        """Row r of A, ``{column: entry}``, read from the incidence and kept
        in ``_rows_read`` for the next audit that names it.  A parity
        certificate names only rows that made a pivot of the set-up
        echelon, so at most rank(A) rows are kept."""
        row = self._rows_read.get(r)
        if row is None:
            _kind, i, j, _t = self.rows[r]
            row = self._rows_read[r] = {}
            for k, other, sign in ((i, j, 1), (j, i, -1)):
                off = self.blocks[k][0]
                for u, at in enumerate(self._side[k, other]):
                    if at == r:
                        row[off + u] = sign
        return row

    def _basis(self, basis) -> list:
        """Column basis vector k is ``(j, u, v)``, the column A e_u - A e_v of
        sections u, v of C_j, or A e_u when v is None; by default every
        A e_u in order."""
        if basis is None:
            basis = [(j, u, None) for j, (_o, secs) in enumerate(self.blocks)
                     for u in range(len(secs))]
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

    def _integral_family(self, context_index, section, off, secs, s_pos):
        # shortcut: a global section through s0 is itself a compatible
        # family with coefficient 1 everywhere.
        g = self.model.extension_table[context_index][s_pos]
        if g is not None:
            family = {(ci, ss[u]): 1
                      for ci, ((_o, ss), u) in enumerate(zip(self.blocks, g))}
            self._audit_family(context_index, section, family)
            return family
        held = self._held(context_index)
        if "route1 integer" not in held:
            pins = [{off + u: 1} for u in range(len(secs))]
            held["route1 integer"] = IntegerSystem(self._columns() + pins,
                                                   self.nunknowns)
        rhs = [0] * len(self.rows) + [
            1 if u == s_pos else 0 for u in range(len(secs))]
        res = held["route1 integer"].solve(rhs)
        if res.feasible:
            family = {(ci, s): res.witness[o + u]
                      for ci, (o, ss) in enumerate(self.blocks)
                      for u, s in enumerate(ss) if res.witness[o + u]}
            self._audit_family(context_index, section, family)
            return family
        npair = len(self.rows)
        return _tagged_certificate(
            res.certificate.kind, res.certificate.vector,
            lambda r: self.rows[r] if r < npair
            else ("pin", context_index, secs[r - npair]))

    def _audit_family(self, context_index, section, family) -> None:
        """A claimed family must be pinned, mass-1 and pair-compatible."""
        per_ctx: dict = {}
        for (ci, s), c in family.items():
            if s not in self.model.sections[ci]:
                raise InternalCheckError("family uses an unknown section")
            per_ctx.setdefault((ci,), {})[s] = c
        for ci in range(len(self.blocks)):
            if sum(per_ctx.get((ci,), {}).values()) != 1:
                raise InternalCheckError("family mass differs from 1")
        if per_ctx[(context_index,)] != {section: 1}:
            raise InternalCheckError("family is not pinned to the section")
        if cech_coboundary(self.nerve, CechCochain(0, per_ctx)).values:
            raise InternalCheckError("family fails pair compatibility")

    # -- route 2: connecting cocycle --------------------------------------

    def connecting_cocycle(self, context_index: int,
                           section: Section) -> CocycleDecision:
        s_pos = self._position(context_index, section)
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
            cert = CechCertificate("parity", tuple(self.rows[r] for r in rows),
                                   (1,) * len(rows))
            return CocycleDecision(context_index, section, False, z,
                                   self.rows, None, cert)
        potential = self._route2_potential(context_index, s_pos, lift, z)
        if isinstance(potential, CechCertificate):
            return CocycleDecision(context_index, section, False, z,
                                   self.rows, None, potential)
        return CocycleDecision(context_index, section, True, z, self.rows,
                               potential, None)

    def _delta(self, terms) -> dict:
        """delta(x) = -A x on the rows of A, ``{row: nonzero value}``, for
        x the sum of c e_u over ``terms`` (j, u, c), section u of C_j.
        Summed in a list over the rows, which is quicker than a dict even
        where most rows stay 0."""
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
            none_c = [0] * len(self.blocks[c][1])
            for j, (_off, secs) in enumerate(self.blocks):
                side = self._side.get((j, c))
                if side is None:
                    basis.extend((j, 0, u) for u in range(1, len(secs)))
                    classes.append((none_c, {0: 0}))
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

    def _kernel_keys(self, c: int) -> list[int]:
        """Pin c's kernel-presheaf key of each row of A: rows of one pair
        whose overlap sections restrict alike into C_c share a key, the
        first such row.  A pair whose overlap misses C_c restricts wholly
        to the empty section, so its key is its first row; one inside C_c
        restricts to itself, so each row is its own key."""
        held = self._held(c)
        if "route2 keys" not in held:
            inner = set(self.model.scenario.contexts[c])
            keys = list(self._pair_start)
            # an overlap that meets C_c lies in two contexts that meet it
            near = [j for j in range(len(self.blocks)) if (j, c) in self._side]
            for a, i in enumerate(near):
                for j in near[a + 1:]:
                    labels = self.pair_overlaps.get((i, j))
                    if labels is None:
                        continue
                    # a row's tag lists its overlap in sorted label order
                    at = [k for k, x in enumerate(sorted(labels))
                          if x in inner]
                    if not at:
                        continue
                    side = self._side[(i, j)]  # reaches every row of the pair
                    start, end = min(side), max(side) + 1
                    if len(at) == len(labels):
                        keys[start:end] = range(start, end)
                        continue
                    read, first = itemgetter(*at), {}
                    for r in range(start, end):
                        keys[r] = first.setdefault(
                            read(self.rows[r][3].items), r)
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
                if c:
                    fs_combine(potential.setdefault(j, {}), {u: 1, rep: -1}, c)
            potential = {j: fs for j, fs in potential.items() if fs}
        self._check_potential(context_index, potential, z)
        return {j: {self.blocks[j][1][u]: c for u, c in fs.items()}
                for j, fs in potential.items()}

    # -- route 2's audits: on rows and section positions, and on labels ---

    def _potential_leaves(self, c, potential) -> bool:
        """Does a 0-cochain on section positions, ``{j: {u: coeff}}``,
        leave pin c's kernel presheaf?  Section u of C_j restricts into
        C_c as it does onto the pair {j, c}: its key is its row there
        (its own position when j = c), and one key for all of C_j when
        C_j misses C_c."""
        for j, fs in potential.items():
            keys = self._side.get((j, c)) or [0] * len(self.blocks[j][1])
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
        acc = 0
        for r in rows:
            acc ^= parity_rows[r]
        if acc != 0 or sum(odd >> r & 1 for r in rows) & 1 != 1:
            raise InternalCheckError("route-2 parity certificate failed audit")

    def _on_rows(self, cocycle) -> dict:
        """A label 1-cochain ``{(i, j): {section: value}}`` on row indexes."""
        tags = [("pair", i, j, t) for (i, j), fs in cocycle.items()
                for t in fs]
        return dict(zip(self._row_indexes(tags),
                        [v for fs in cocycle.values() for v in fs.values()]))

    def _on_positions(self, potential) -> dict:
        """A label 0-cochain ``{j: {section: coeff}}`` on section positions."""
        out = {}
        for j, fs in potential.items():
            secs = self.blocks[j][1]
            if any(s not in secs for s in fs):
                raise InternalCheckError(
                    f"cochain names an unknown section of context {j}")
            out[j] = {secs.index(s): c for s, c in fs.items()}
        return out

    def _leaves_kernel(self, context_index, cochain) -> bool:
        """Does some value of a label cochain on the nerve (degree 0 or 1)
        restrict to a nonzero sum into the pinned context, i.e. leave the
        kernel presheaf?  Read onto positions or rows, then keyed."""
        if cochain.degree == 0:
            return self._potential_leaves(context_index, self._on_positions(
                {j: fs for (j,), fs in cochain.values.items()}))
        return _nonzero_sums(self._kernel_keys(context_index),
                             self._on_rows(cochain.values).items())

    def _audit_potential(self, context_index, cocycle, potential) -> None:
        """``_check_potential`` on a label potential and cocycle."""
        self._check_potential(context_index, self._on_positions(potential),
                              self._on_rows(cocycle))

    def _audit_route2_refutation(self, context_index, cocycle, cert) -> None:
        """``_check_refuter`` on a label cocycle and certificate: the rows
        its odd coefficients name an odd number of times."""
        odd_rows: set[int] = set()
        for coeff, r in zip(cert.coefficients,
                            self._row_indexes(cert.rows)):
            if coeff % 2 == 1:
                odd_rows ^= {r}
        self._check_refuter(context_index, sorted(odd_rows),
                            _odd_mask(self._on_rows(cocycle), len(self.rows)))


def _nonzero_sums(keys, entries) -> bool:
    """The kernel-presheaf check on int keys: do the values of ``entries``,
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


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> list[int]:
    """The indexes of the set bits of ``mask``, ascending, selected from
    its binary digits, bit 0 first."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
    return list(compress(range(len(digits)), digits))


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
    per_ctx = [[] for _ in scenario.contexts]  # (section as dict, coeff)
    for (ci, s), c in family.items():
        if not 0 <= ci < len(per_ctx):
            raise PreconditionError("family context index out of range")
        if s not in model.sections[ci]:
            raise PreconditionError(f"{s} is not a section of context {ci}")
        if c:
            per_ctx[ci].append((dict(s.items), c))
    for ci, terms in enumerate(per_ctx):
        if sum(c for _v, c in terms) != 1:
            raise PreconditionError(
                f"family mass at context {ci} differs from 1")
    out: dict[str, int] = {}
    for ci, ctx in enumerate(scenario.contexts):
        for x in ctx:
            val = sum(c * v[x] for v, c in per_ctx[ci]) % d
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
        for s in model.sections[ci]:
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
                for x in ctx:
                    if collapsed[x] != s[x]:
                        raise InternalCheckError(
                            "collapse does not extend the pinned section")
                _check_splitting(group.quotient, collapsed)
            yield CrossCheckRow(ci, s, r1.vanishes, g.vanishes), r1, g


def _check_splitting(quotient, values) -> None:
    """The collapsed assignment must be a splitting on the whole monoid."""
    els = quotient.parent.elements
    report = validate_splitting(quotient, els, {x: (values[x],) for x in els})
    if not report.ok:
        raise InternalCheckError(
            "collapse is not a global splitting: "
            + "; ".join(report.violations[:3]))
