"""Exact n-qubit Pauli operators and the models they generate.

An operator is stored as i^phase * W(x, z) where W(x, z) is the
canonical word i^(z.x) X^x Z^z; x and z are bitmasks with qubit 1 in
the most significant bit, matching the letter order of labels like
"+XZ".  With this convention W(1,0) = X, W(0,1) = Z, W(1,1) = Y, and
all phase bookkeeping is integer arithmetic mod 4.

Sign operators (phase 0 or 2) square to the identity and model sharp
two-outcome measurements.  Sets of them that are closed under products
of commuting members carve out measurement scenarios: the contexts are
the maximal pairwise-commuting subsets, and the possibilistic table at
each context consists of the group homomorphisms to Z_2 sending -I to
1.  State vectors over the Gaussian integers make the Born-rule
support test exact.

Models are built on (x, z, phase) int triples between parsing and
``EmpiricalModel.from_rows``, in the style of Aaronson and Gottesman
(quant-ph/0406196): commutation is the parity of (x1 & z2) ^ (z1 & x2),
and products follow the phase rule of ``multiply``.  Each closure
member's label is made once, and contexts are the cliques of the
unsigned words (+P and -P always share them).  A context of k = 2^r
members is an elementary abelian 2-group; ``_coordinates`` picks a
greedy basis of r generators and gives every member a coordinate mask
over it, so the product of two members is the member whose mask is the
xor of theirs, and a homomorphism ``hom`` to Z_2 takes the parity of
``hom & mask``.  Born supports are tested on the basis alone, each
projector step on raw amplitude lists through the one W(x, z) kernel
``_apply``.  That is exact: for a homomorphism chi, each member p is a
product of basis generators, and the product of the factors
(I + chi(p) p) over the context is 2^(k - r) times the product over the
basis, so one annihilates the state exactly when the other does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import PreconditionError
from .graphs import maximal_cliques
from .pmonoid import CoefficientAction, StructuredModel
from .scenario import EmpiricalModel, MeasurementScenario

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _LETTERS.items()}
_MINUS = (0, 0, 2)
# GHZ-4 closes to 272 operators and perfbench's pauli-sweep draws to at
# most 40; a closure's build time grows about fourfold per doubling
_MAX_CLOSURE = 1024


def _word(x: int, z: int, n: int) -> str:
    return "".join(_LETTERS[((x >> k) & 1, (z >> k) & 1)]
                   for k in range(n - 1, -1, -1))


def _word_key(x: int, z: int) -> int:
    """Sorts words of one length as their strings do: each letter is a
    base-4 digit, I < X < Y < Z, qubit 1 the most significant."""
    y = x ^ z
    key = 0
    for k in range((x | z).bit_length()):
        key |= (((z >> k) & 1) << 1 | ((y >> k) & 1)) << 2 * k
    return key


def _order(p: PauliOperator) -> tuple[int, int]:
    """The (word, phase) order of operators on one qubit count."""
    return (_word_key(p.x, p.z), p.phase)


def _mul(p, q):
    """Product of (x, z, phase) triples, tracking the i^phase prefactor."""
    px, pz, pph = p
    qx, qz, qph = q
    x, z = px ^ qx, pz ^ qz
    return (x, z, (pph + qph + (pz & px).bit_count() + (qz & qx).bit_count()
                   + 2 * (pz & qx).bit_count() - (z & x).bit_count()) % 4)


def _anticommute(p, q) -> int:
    """1 when the triples anticommute, 0 when they commute."""
    return ((p[0] & q[1]) ^ (p[1] & q[0])).bit_count() & 1


@dataclass(frozen=True, order=True)
class PauliOperator:
    """i^phase * W(x, z) on n qubits; the field order gives a canonical
    sort with +P immediately before -P."""

    n: int
    x: int
    z: int
    phase: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("need at least one qubit")
        top = 1 << self.n
        if not (0 <= self.x < top and 0 <= self.z < top):
            raise PreconditionError("bitmask out of range")
        if not 0 <= self.phase < 4:
            raise PreconditionError("phase must be reduced mod 4")

    @property
    def word(self) -> str:
        return _word(self.x, self.z, self.n)

    @property
    def is_sign_operator(self) -> bool:
        return self.phase % 2 == 0

    def label(self) -> str:
        """Measurement label, e.g. "-YY".  Defined for sign operators."""
        if not self.is_sign_operator:
            raise PreconditionError(f"{self} has no +/- label")
        return ("+" if self.phase == 0 else "-") + self.word

    def __str__(self) -> str:
        return ("", "i*", "-", "-i*")[self.phase] + self.word


def parse_pauli(text: str) -> PauliOperator:
    """Parse a signed Pauli word such as "XZI", "+XX" or "-YY"."""
    if not text:
        raise PreconditionError("empty operator text")
    phase = 0
    if text[0] in "+-":
        phase = 0 if text[0] == "+" else 2
        text = text[1:]
    if not text or any(c not in "IXZY" for c in text):
        raise PreconditionError(f"bad Pauli word {text!r}")
    x = z = 0
    for c in text:
        xb, zb = _BITS[c]
        x = (x << 1) | xb
        z = (z << 1) | zb
    return PauliOperator(len(text), x, z, phase)


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def negate(p: PauliOperator) -> PauliOperator:
    return PauliOperator(p.n, p.x, p.z, (p.phase + 2) % 4)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact operator product, tracking the i^phase prefactor."""
    if p.n != q.n:
        raise PreconditionError("qubit counts differ")
    return PauliOperator(p.n, *_mul((p.x, p.z, p.phase), (q.x, q.z, q.phase)))


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    if p.n != q.n:
        raise PreconditionError("qubit counts differ")
    return not _anticommute((p.x, p.z), (q.x, q.z))


def close_under_commuting_products(ops) -> tuple[PauliOperator, ...]:
    """Smallest superset closed under products of commuting members.

    pre: all operators are sign operators on the same qubit count, and
    the closure has at most ``_MAX_CLOSURE`` members.
    """
    pool = set(ops)
    if not pool:
        raise PreconditionError("need at least one operator")
    sizes = {p.n for p in pool}
    if len(sizes) != 1:
        raise PreconditionError("qubit counts differ")
    for p in pool:
        if not p.is_sign_operator:
            raise PreconditionError(f"{p} is not a sign operator")
    members = {(p.x, p.z, p.phase) for p in pool}
    # commuting operators have one product, so each unordered pair is
    # multiplied once: a frontier member by every older member, and by
    # itself and the frontier members after it
    older, frontier = [], list(members)
    while frontier:
        fresh = set()
        for k, p in enumerate(frontier):
            for q in chain(older, frontier[k:]):
                if not _anticommute(p, q):
                    r = _mul(p, q)
                    if r not in members:
                        fresh.add(r)
            if len(members) + len(fresh) > _MAX_CLOSURE:
                raise PreconditionError(
                    f"closure exceeds {_MAX_CLOSURE} operators")
        older += frontier
        members |= fresh
        frontier = list(fresh)
    n = sizes.pop()
    return tuple(sorted((PauliOperator(n, *t) for t in members), key=_order))


def maximal_contexts(ops) -> list[tuple[PauliOperator, ...]]:
    """Maximal pairwise-commuting subsets of a product-closed set, found
    on the unsigned words (x, z), numbered by first appearance: operators
    with one word commute and share their neighbours, so each clique holds
    all or none of them, and the expanded cliques stay in sorted order."""
    ops = tuple(ops)
    if len({p.n for p in ops}) > 1:
        raise PreconditionError("qubit counts differ")
    members: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(ops):
        members.setdefault((p.x, p.z), []).append(i)
    words = list(members)
    cliques = maximal_cliques(
        len(words), lambda i, j: not _anticommute(words[i], words[j]))
    return [tuple(ops[i] for i in sorted(
        j for w in cl for j in members[words[w]])) for cl in cliques]


# --- Exact state vectors ----------------------------------------------


@dataclass(frozen=True)
class GaussianStateVector:
    """Unnormalised n-qubit state with Gaussian-integer amplitudes.

    ``entries[c]`` is the (real, imaginary) pair at basis index c,
    where qubit 1 is the most significant bit of c.
    """

    n: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.entries) != 1 << self.n:
            raise PreconditionError("amplitude count must be 2**n")

    @property
    def is_zero(self) -> bool:
        return all(a == 0 and b == 0 for a, b in self.entries)


def ghz_state(n: int) -> GaussianStateVector:
    """|0...0> + |1...1>, unnormalised."""
    if n < 1:
        raise PreconditionError("need at least one qubit")
    entries = [(0, 0)] * (1 << n)
    entries[0] = (1, 0)
    entries[-1] = (1, 0)
    return GaussianStateVector(n, tuple(entries))


def _apply(x, z, k, re, im, keep=0):
    """keep * v + i^k W(x, z) v on the amplitudes (re, im) of v, exactly:
    W(x, z)|b> = i^(z.x) (-1)^(z.b) |b xor x>, and i(a + bi) = -b + ai."""
    k += (z & x).bit_count()
    flip = k >> 1 & 1
    p, q, u = (im, re, -1) if k & 1 else (re, im, 1)
    out_re, out_im = [], []
    for c in range(len(re)):
        b = c ^ x
        s = -1 if ((z & b).bit_count() ^ flip) & 1 else 1
        out_re.append(keep * re[c] + u * s * p[b])
        out_im.append(keep * im[c] + s * q[b])
    return out_re, out_im


def apply_pauli(p: PauliOperator,
                v: GaussianStateVector) -> GaussianStateVector:
    """The vector p|v>, computed exactly."""
    if p.n != v.n:
        raise PreconditionError("qubit counts differ")
    re, im = _apply(p.x, p.z, p.phase, *zip(*v.entries))
    return GaussianStateVector(v.n, tuple(zip(re, im)))


def born_consistent(assignment, state: GaussianStateVector) -> bool:
    """Can these commuting sign measurements jointly yield these values?

    ``assignment`` maps operators to outcomes in {0, 1}.  The joint
    outcome has nonzero probability iff the product of the projectors
    (I + (-1)^a M)/2 does not annihilate the state; the factor 2 is
    dropped since only support matters.
    """
    items = list(assignment.items() if hasattr(assignment, "items")
                 else assignment)
    for p, a in items:
        if not p.is_sign_operator:
            raise PreconditionError(f"{p} is not a sign operator")
        if a not in (0, 1):
            raise PreconditionError("outcomes must be 0 or 1")
    for i, (p, _) in enumerate(items):
        for q, _ in items[i + 1:]:
            if not commutes(p, q):
                raise PreconditionError(
                    f"{p} and {q} do not commute")
    if items and items[0][0].n != state.n:
        raise PreconditionError("qubit counts differ")
    re, im = zip(*state.entries)
    for p, a in items:
        re, im = _apply(p.x, p.z, p.phase + 2 * a, re, im, 1)
        if not any(re) and not any(im):
            return False
    return True


# --- Contexts as elementary abelian 2-groups --------------------------


def _coordinates(members, n: int):
    """Greedy basis of a context and the coordinate mask of each member.

    ``members`` are (x, z, phase) triples in (word, phase) order on ``n``
    qubits.  Each member not yet spanned joins the basis, and its
    products with the members spanned so far are placed at their masks,
    so that ``span[m]`` is the position of the member whose coordinate
    mask is m.  Returns the basis positions and ``span``.  The checks
    run in O(k + r^2) for k members and r generators: the identity is
    present, the basis commutes, every product placed is a member and
    is placed once (so the masks cover all k members), and a generator
    that squares to -I finds -I in the context.
    """
    def named(t):
        return PauliOperator(n, *t)

    index = {t: i for i, t in enumerate(members)}
    if (0, 0, 0) not in index:
        raise PreconditionError("context must contain the identity")
    span = [index[(0, 0, 0)]]
    placed = set(span)
    basis: list[int] = []
    for i, p in enumerate(members):
        if i in placed:
            continue
        for b in basis:
            if _anticommute(p, members[b]):
                raise PreconditionError(
                    f"{named(members[b])} and {named(p)} do not commute")
        if p[2] % 2 and _MINUS not in index:
            raise PreconditionError(
                f"context not product-closed at {named(p)}, {named(p)}")
        for j in list(span):
            at = index.get(_mul(p, members[j]))
            if at is None:
                raise PreconditionError(
                    f"context not product-closed at {named(p)}, "
                    f"{named(members[j])}")
            if at in placed:
                raise PreconditionError("context is not a subgroup")
            placed.add(at)
            span.append(at)
        basis.append(i)
    return basis, span


def context_splittings(context) -> list[dict[PauliOperator, int]]:
    """All admissible joint-outcome assignments on a closed context.

    The context must be a pairwise-commuting, product-closed set of
    sign operators containing the identity.  Assignments are the group
    homomorphisms to Z_2; when -I is present only those sending it to
    1 survive (quantum mechanics forbids the rest, and so does the
    algebra of eigenvalues).
    """
    ops = sorted(set(context), key=_order)
    if not ops:
        raise PreconditionError("empty context")
    n = ops[0].n
    if any(p.n != n for p in ops):
        raise PreconditionError("qubit counts differ")
    triples = [(p.x, p.z, p.phase) for p in ops]
    basis, span = _coordinates(triples, n)
    minus = span.index(triples.index(_MINUS)) if _MINUS in triples else 0
    out = []
    for hom in range(1 << len(basis)):
        if minus and not (hom & minus).bit_count() & 1:
            continue
        out.append({ops[at]: (hom & m).bit_count() & 1
                    for m, at in enumerate(span)})
    return out


# --- Model builders ----------------------------------------------------


def _build(closure, state) -> StructuredModel:
    """The structured model of a closure; with a ``state``, a context's
    homomorphism survives only if its Born support is nonzero on the
    context's basis generators."""
    n = closure[0].n
    triples = [(p.x, p.z, p.phase) for p in closure]
    at = {t: i for i, t in enumerate(triples)}
    if (0, 0, 0) not in at or _MINUS not in at:
        raise PreconditionError("closure must contain +I...I and -I...I")
    labels = [("+" if ph == 0 else "-") + _word(x, z, n)
              for x, z, ph in triples]
    # Cliques come in closure (= measurement) order and sorted, which is
    # the order MeasurementScenario.make keeps for contexts.
    contexts = [[at[(p.x, p.z, p.phase)] for p in ctx]
                for ctx in maximal_contexts(closure)]
    scenario = MeasurementScenario.make(
        labels, 2, [[labels[i] for i in ids] for ids in contexts])
    tables, rows_by_context = [], []
    for ids in contexts:
        basis, span = _coordinates([triples[i] for i in ids], n)
        mask = [0] * len(ids)
        for m, j in enumerate(span):
            mask[j] = m
        tables.append(tuple(span[ma ^ mb] for ma in mask for mb in mask))
        minus = mask[ids.index(at[_MINUS])]
        gens = [closure[ids[b]] for b in basis]
        rows = []
        for hom in range(1 << len(basis)):
            if not (hom & minus).bit_count() & 1:
                continue
            if state is not None and not born_consistent(
                    {g: (hom >> k) & 1 for k, g in enumerate(gens)}, state):
                continue
            rows.append(tuple((hom & m).bit_count() & 1 for m in mask))
        rows_by_context.append(rows)
    model = EmpiricalModel.from_rows(scenario, rows_by_context)
    action = CoefficientAction((2,), (labels[at[_MINUS]],))
    return StructuredModel(model, tuple(tables), action)


def build_state_independent_model(generators) -> StructuredModel:
    """Scenario, possibilistic table and monoid structure from sign
    operators; every admissible assignment is allowed at each context."""
    return _build(close_under_commuting_products(generators), None)


def build_state_dependent_model(generators,
                                state: GaussianStateVector) -> StructuredModel:
    """Like the state-independent build, but a context assignment
    survives only if the state gives its joint outcome nonzero
    probability (exact Born-rule support test)."""
    closure = close_under_commuting_products(generators)
    if closure[0].n != state.n:
        raise PreconditionError("state and operators disagree on qubits")
    if state.is_zero:
        raise PreconditionError("state vector must be nonzero")
    return _build(closure, state)
