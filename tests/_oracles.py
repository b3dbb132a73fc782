"""Dense-matrix oracle for Pauli arithmetic, shared across test modules."""

from fractions import Fraction

import numpy as np

from contextuality.pauli import GaussianStateVector, PauliOperator

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def op_matrix(p: PauliOperator) -> np.ndarray:
    """i^phase times the tensor product of single-qubit factors
    i^{x z} X^x Z^z, qubit 1 at the most significant bit."""
    out = np.array([[1]], dtype=complex)
    for k in range(p.n - 1, -1, -1):
        xb = (p.x >> k) & 1
        zb = (p.z >> k) & 1
        fac = np.eye(2, dtype=complex)
        if xb:
            fac = fac @ _X
        if zb:
            fac = fac @ _Z
        fac = (1j ** (xb * zb)) * fac
        out = np.kron(out, fac)
    return (1j ** p.phase) * out


def all_ops(n):
    return [PauliOperator(n, x, z, ph)
            for x in range(1 << n) for z in range(1 << n) for ph in range(4)]


def state_vector(v: GaussianStateVector) -> np.ndarray:
    return np.array([re + 1j * im for re, im in v.entries], dtype=complex)


def projector_support(assignment, state: GaussianStateVector) -> bool:
    """Whether the product of the dense projectors (I + (-1)^a p)/2 over
    ``assignment``'s (p, a) pairs leaves ``state`` nonzero."""
    dim = 1 << state.n
    proj = np.eye(dim, dtype=complex)
    for p, a in dict(assignment).items():
        proj = proj @ (np.eye(dim) + (-1) ** a * op_matrix(p)) / 2
    return bool(np.linalg.norm(proj @ state_vector(state)) > 1e-9)


# --- Label-dict reference for the splitting lemma ------------------------
#
# These follow the definitions directly on label dicts, using only the
# parent's label ``add``/``defined`` and tuple arithmetic in the group:
# the embedding by repeated addition, orbits as sets of translates, and
# each check as a loop over labels.  Violations come back as lists and
# failures raise the exception class the definition names.

from contextuality.errors import PreconditionError, StructureError  # noqa: E402


def splitting_of_section(section, context, action):
    """A section read as a splitting on its context: Z_d-valued maps."""
    return {x: (section[x] % action.moduli[0],) for x in context}


class SplittingOracle:
    def __init__(self, q):
        parent, action = q.parent, q.action
        self.parent, self.action = parent, action
        self.embedding = {}
        for a in action.elements():
            x = parent.identity
            for coeff, img in zip(a, action.generator_images):
                for _ in range(coeff):
                    x = parent.add(x, img)
            self.embedding[a] = x
        order = {x: i for i, x in enumerate(parent.elements)}
        self.orbit_of = {}
        for x in parent.elements:
            orbit = {parent.add(img, x) for img in self.embedding.values()}
            self.orbit_of[x] = f"[{min(orbit, key=order.__getitem__)}]"

    def act(self, a, x):
        return self.parent.add(self.embedding[tuple(a)], x)

    def value_at(self, x, base):
        for a in self.action.elements():
            if self.act(a, base) == x:
                return a
        raise AssertionError(f"{x!r} not in the orbit of {base!r}")

    def subset_violations(self, labels):
        labs = list(labels)
        seen = set(labs)
        if len(seen) != len(labs):
            return ["duplicate labels in subset"]
        bad = []
        for x in labs:
            if x not in self.orbit_of:
                bad.append(f"unknown label {x!r}")
            elif any(self.act(a, x) not in seen
                     for a in self.action.elements()):
                bad.append(f"subset not action-invariant at {x!r}")
        for x in labs:
            for y in labs:
                if (self.parent.defined(x, y)
                        and self.parent.add(x, y) not in seen):
                    bad.append(f"subset not sum-closed at ({x!r}, {y!r})")
        return bad

    def splitting_violations(self, labels, s):
        bad = self.subset_violations(labels)
        bad += [f"splitting undefined at {x!r}" for x in labels if x not in s]
        if bad:
            return bad
        for x in labels:
            for y in labels:
                if self.parent.defined(x, y):
                    if (tuple(s[self.parent.add(x, y)])
                            != self.action.add(s[x], s[y])):
                        bad.append(f"not a homomorphism at ({x!r}, {y!r})")
        for a, img in self.embedding.items():
            if img in s and tuple(s[img]) != a:
                bad.append(f"does not retract the embedding at i({a})")
        return bad

    def right_splitting_violations(self, labels, h):
        bad = self.subset_violations(labels)
        if bad:
            return bad
        orbits = list(dict.fromkeys(self.orbit_of[x] for x in labels))
        for qx in orbits:
            if qx not in h:
                bad.append(f"section undefined at {qx}")
            elif self.orbit_of.get(h[qx]) != qx:
                bad.append(f"not a section at {qx}")
        if bad:
            return bad
        for qx in orbits:
            for qy in orbits:
                x, y = h[qx], h[qy]
                if not self.parent.defined(x, y):
                    continue
                z = self.parent.add(x, y)
                if h[self.orbit_of[z]] != z:
                    bad.append(f"not a homomorphism at ({qx}, {qy})")
        return bad

    def require_trivialisation(self, labels, phi):
        bad = self.subset_violations(labels)
        if bad:
            raise PreconditionError("; ".join(bad))
        for x in labels:
            if x not in phi:
                raise PreconditionError(f"trivialisation undefined at {x!r}")
            if phi[x][1] != self.orbit_of[x]:
                raise StructureError(f"second component at {x!r}")
        if len({(tuple(phi[x][0]), phi[x][1]) for x in labels}) != len(
                labels):
            raise StructureError("not injective")
        for x in labels:
            for y in labels:
                if self.parent.defined(x, y):
                    z = self.parent.add(x, y)
                    want = (self.action.add(phi[x][0], phi[y][0]),
                            self.orbit_of[z])
                    if want != (tuple(phi[z][0]), phi[z][1]):
                        raise StructureError(f"not a homomorphism at {x, y}")
        for a, img in self.embedding.items():
            if img in phi and tuple(phi[img][0]) != a:
                raise StructureError(f"does not extend the embedding at {a}")

    def splitting_from_trivialisation(self, labels, phi):
        self.require_trivialisation(labels, phi)
        return {x: tuple(phi[x][0]) for x in labels}

    def trivialisation_from_right_splitting(self, labels, h):
        bad = self.right_splitting_violations(labels, h)
        if bad:
            raise PreconditionError("not a right splitting")
        phi = {x: (self.value_at(x, h[self.orbit_of[x]]), self.orbit_of[x])
               for x in labels}
        self.require_trivialisation(labels, phi)
        return phi


# --- Label-level reference for the Pauli model build ---------------------
#
# The build on PauliOperator objects, one operator at a time: closure by
# pairwise ``commutes`` and ``multiply``, contexts by set-based
# Bron-Kerbosch over ``commutes``, greedy coordinates by ``multiply``,
# every table entry as ``multiply(a, b).label()`` and Born supports from
# the dense projectors of every member of a context.

from contextuality.pauli import (  # noqa: E402
    commutes,
    identity,
    multiply,
    negate,
)
from contextuality.pmonoid import (  # noqa: E402
    CoefficientAction,
    PartialMonoid,
    StructuredModel,
)
from contextuality.scenario import (  # noqa: E402
    EmpiricalModel,
    MeasurementScenario,
    Section,
)


def _reference_closure(generators):
    pool = set(generators)
    frontier = set(pool)
    while frontier:
        fresh = {multiply(p, q) for p in frontier for q in pool
                 if commutes(p, q)} - pool
        pool |= fresh
        frontier = fresh
    return sorted(pool, key=lambda p: (p.word, p.phase))


def _reference_cliques(ops):
    nbrs = [{j for j, q in enumerate(ops) if j != i and commutes(p, q)}
            for i, p in enumerate(ops)]
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(nbrs[v] & p))
        for v in sorted(p - nbrs[pivot]):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(len(ops))), set())
    return sorted(out)


def _reference_splittings(ops):
    """Homomorphisms to Z_2 sending -I to 1, on coordinates of a greedy
    basis; ``ops`` in (word, phase) order."""
    ident = identity(ops[0].n)
    coords = {ident: 0}
    rank = 0
    for p in ops:
        if p not in coords:
            for q, mask in list(coords.items()):
                coords[multiply(p, q)] = mask | 1 << rank
            rank += 1
    assert set(coords) == set(ops)
    minus = negate(ident)
    out = []
    for hom in range(1 << rank):
        s = {p: bin(hom & mask).count("1") % 2 for p, mask in coords.items()}
        if s.get(minus, 1) == 1:
            out.append(s)
    return out


def reference_pauli_model(generators, state=None) -> StructuredModel:
    """The structured model of ``generators``, kept to the sections whose
    Born support on ``state`` is nonzero when a state is given."""
    closure = _reference_closure(generators)
    ident = identity(closure[0].n)
    if ident not in closure or negate(ident) not in closure:
        raise PreconditionError("closure must contain +I...I and -I...I")
    labels = [p.label() for p in closure]
    by_label = dict(zip(labels, closure))
    scenario = MeasurementScenario.make(
        labels, 2, [[labels[i] for i in cl]
                    for cl in _reference_cliques(closure)])
    tables, sections = [], []
    for ctx in scenario.contexts:
        ops = [by_label[lab] for lab in ctx]
        tables.append(tuple(ctx.index(multiply(a, b).label())
                            for a in ops for b in ops))
        sections.append([Section.of({p.label(): v for p, v in s.items()})
                         for s in _reference_splittings(ops)
                         if state is None or projector_support(s, state)])
    return StructuredModel(EmpiricalModel.make(scenario, sections),
                           tuple(tables),
                           CoefficientAction((2,), (negate(ident).label(),)))


# --- Dense exact kernels: the references for the sparse ones in linalg ----
#
# ``dense_hermite_normal_form`` keeps both H and U as dense lists, and
# ``EagerGf2Echelon`` keeps its pivot rows fully reduced as each row
# arrives: the direct forms of linalg's sparse Hermite form and of its
# echelon reduced on demand.  ``dense_integer_solve`` reads integer
# witnesses and certificates off the dense (H, U).  The differential
# tests require the same (H, U), integer answers and GF(2) answers.


def dense_hermite_normal_form(mat):
    """Row-style Hermite normal form ``(H, U)`` with ``U * mat == H``."""
    h = [list(map(int, row)) for row in mat]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    t = 0
    for j in range(n):
        if t >= m:
            break
        # gcd-eliminate column j below row t
        while True:
            nz = [i for i in range(t, m) if h[i][j] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(h[i][j]), i))
            if best != t:
                h[t], h[best] = h[best], h[t]
                u[t], u[best] = u[best], u[t]
            done = True
            piv = h[t][j]
            for i in range(t + 1, m):
                if h[i][j]:
                    q = h[i][j] // piv
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[t])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[t])]
                    if h[i][j]:
                        done = False
            if done:
                break
        if t < m and h[t][j] != 0:
            if h[t][j] < 0:
                h[t] = [-a for a in h[t]]
                u[t] = [-a for a in u[t]]
            piv = h[t][j]
            for i in range(t):
                q = h[i][j] // piv  # floor: leaves 0 <= entry < pivot
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[t])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[t])]
            t += 1
    return h, u


def dense_integer_solve(mat, rhs):
    """``A x = b`` over the integers, from the dense Hermite form of A^T:
    ``("witness", x)`` with x the sum of U's rows weighted by b's
    coefficients in the basis of H's nonzero rows, or ``(kind, y)`` for a
    certificate.  b is expanded over Q by forward substitution on the
    pivot columns.  A residual left over gives kind "rational": y_q = 1 on
    its first nonzero coordinate q.  Else the first non-integral
    coefficient k gives kind "integral": y.h_k = 1.  Either way y lives on
    the pivot coordinates (and q), with y.h_j = 0 on every other basis
    row."""
    ncols = len(mat[0]) if mat else 0
    h, u = dense_hermite_normal_form([list(col) for col in zip(*mat)]
                                     if mat else [[]] * ncols)
    basis = [(row, next(j for j, a in enumerate(row) if a))
             for row in h if any(row)]
    residual = [Fraction(b) for b in rhs]
    coeffs = []
    for row, p in basis:
        c = residual[p] / row[p]
        coeffs.append(c)
        residual = [a - c * b for a, b in zip(residual, row)]

    def dual(target, q=None):
        alpha = [Fraction(0)] * len(basis)
        for j in range(len(basis) - 1, -1, -1):
            row, p = basis[j]
            s = Fraction(-row[q] if q is not None else int(j == target))
            s -= sum(alpha[l] * row[basis[l][1]]
                     for l in range(j + 1, len(basis)))
            alpha[j] = s / row[p]
        y = [Fraction(0)] * len(rhs)
        if q is not None:
            y[q] = Fraction(1)
        for (_row, p), a in zip(basis, alpha):
            y[p] = a
        return tuple(y)

    if any(residual):
        return "rational", dual(None, q=next(
            i for i, a in enumerate(residual) if a))
    bad = [k for k, c in enumerate(coeffs) if c.denominator != 1]
    if bad:
        return "integral", dual(bad[0])
    return "witness", tuple(sum(int(c) * urow[j]
                                for c, urow in zip(coeffs, u))
                            for j in range(ncols))


class EagerGf2Echelon:
    """Reduced row echelon over GF(2), cleared as each row arrives: a new
    pivot column is removed from every earlier pivot row at once."""

    def __init__(self, row_masks, ncols):
        self.ncols = ncols
        self.pivots = {}  # column -> (reduced row, track of original rows)
        self.rows = []
        self.dependent = []
        for mask in row_masks:
            self.add_row(mask)

    def add_row(self, mask):
        r = len(self.rows)
        self.rows.append(mask)
        reduced, track = self._reduce(mask, 1 << r)
        if reduced == 0:
            self.dependent.append(r)
            return
        col = reduced.bit_length() - 1
        for c, (m, tr) in list(self.pivots.items()):
            if m >> col & 1:
                self.pivots[c] = (m ^ reduced, tr ^ track)
        self.pivots[col] = (reduced, track)

    def _reduce(self, mask, track):
        for col, (m, tr) in self.pivots.items():
            if mask >> col & 1:
                mask ^= m
                track ^= tr
        return mask, track

    def express(self, mask):
        mask, track = self._reduce(mask, 0)
        return track if mask == 0 else None

    def solution(self, rhs_mask):
        sol = 0
        for col, (_m, track) in self.pivots.items():
            if (track & rhs_mask).bit_count() & 1:
                sol |= 1 << col
        return sol

    def refute(self, rhs_mask):
        x = self.solution(rhs_mask)
        for r in self.dependent:
            if ((self.rows[r] & x).bit_count() ^ (rhs_mask >> r)) & 1:
                return (1 << r) | self.express(self.rows[r])
        return None

    def kernel_basis(self):
        basis = []
        for f in range(self.ncols):
            if f in self.pivots:
                continue
            vec = 1 << f
            for c, (m, _tr) in self.pivots.items():
                if m >> f & 1:
                    vec |= 1 << c
            basis.append(vec)
        return basis


# --- Dense elimination over Z_{p^e}: the reference for linalg's sparse one -
#
# ``DensePrimePowerSystem`` keeps its rows and its m x m track as dense
# lists, each row operation applied to every entry: the direct form of
# ``linalg._PrimePowerSystem``, which does the same operations on sparse
# rows and tracks.  The differential tests require the same pivots, rank,
# reduced rows, tracks, witnesses, certificates and kernels.


def _valuation(a, p):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


class DensePrimePowerSystem:
    """Elimination over Z_{p^e} with valuation-minimal pivoting: the least
    (valuation, column, row), up to the first row that offers a unit."""

    def __init__(self, rows, ncols, p, e):
        self.p, self.e, self.q = p, e, p**e
        self.ncols = ncols
        q = self.q
        self.mat = [[a % q for a in row] for row in rows]
        m = len(self.mat)
        self.track = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        self.pivots = []  # (row, col, valuation)
        self._eliminate()

    def _eliminate(self):
        p, q = self.p, self.q
        m = len(self.mat)
        used_cols = set()
        r = 0
        while r < m:
            best = None  # (valuation, col, row)
            for i in range(r, m):
                row = self.mat[i]
                for j in range(self.ncols):
                    if j in used_cols or row[j] == 0:
                        continue
                    v = _valuation(row[j], p)
                    if best is None or (v, j, i) < best:
                        best = (v, j, i)
                if best is not None and best[0] == 0:
                    break
            if best is None:
                break
            v, j, i = best
            self.mat[r], self.mat[i] = self.mat[i], self.mat[r]
            self.track[r], self.track[i] = self.track[i], self.track[r]
            unit = self.mat[r][j] // (p**v)
            inv = pow(unit, -1, q)
            self.mat[r] = [(a * inv) % q for a in self.mat[r]]
            self.track[r] = [(a * inv) % q for a in self.track[r]]
            pv = p**v
            for i2 in range(r + 1, m):
                a = self.mat[i2][j]
                if a:
                    f = a // pv
                    row2, rowr = self.mat[i2], self.mat[r]
                    self.mat[i2] = [(x - f * y) % q for x, y in zip(row2, rowr)]
                    t2, tr = self.track[i2], self.track[r]
                    self.track[i2] = [(x - f * y) % q for x, y in zip(t2, tr)]
            self.pivots.append((r, j, v))
            used_cols.add(j)
            r += 1
        self.rank = r

    def _apply_track(self, rhs):
        q = self.q
        return [sum(t * b for t, b in zip(trow, rhs)) % q for trow in self.track]

    def solve(self, rhs):
        """(witness mod q, None) or (None, certificate mod q)."""
        p, q = self.p, self.q
        c = self._apply_track(rhs)
        for i in range(self.rank, len(self.mat)):
            if c[i] % q:
                return None, tuple(self.track[i])
        x = [0] * self.ncols
        for r, j, v in reversed(self.pivots):
            residual = (c[r] - sum(self.mat[r][t] * x[t]
                                   for t in range(self.ncols) if x[t])) % q
            pv = p**v
            if residual % pv:
                scale = q // pv
                return None, tuple((scale * t) % q for t in self.track[r])
            x[j] = (residual // pv) % (q // pv)
        return tuple(x), None

    def kernel(self):
        """Generating set of ``{x : A x = 0 (mod p^e)}``."""
        p = self.p
        pivot_cols = {j for _, j, _ in self.pivots}
        gens = []
        for f in range(self.ncols):
            if f in pivot_cols:
                continue
            x = [0] * self.ncols
            x[f] = 1
            self._back_substitute_homogeneous(x)
            gens.append(x)
        for r, j, v in self.pivots:
            if v == 0:
                continue
            x = [0] * self.ncols
            x[j] = p ** (self.e - v)
            self._back_substitute_homogeneous(x, skip_row=r)
            gens.append(x)
        return gens

    def _back_substitute_homogeneous(self, x, skip_row=-1):
        p, q = self.p, self.q
        for r, j, v in reversed(self.pivots):
            if r == skip_row:
                continue
            residual = (-sum(self.mat[r][t] * x[t]
                             for t in range(self.ncols) if x[t])) % q
            pv = p**v
            if residual % pv:
                raise AssertionError("non-divisible homogeneous residual")
            x[j] = (residual // pv) % (q // pv)


# --- The bar differential as signed passes: the reference for mcohom's ----
#
# ``signed_pass_coboundary`` sums a cochain's face columns one signed pass
# at a time and reduces at the end, as the one-pass ``mcohom.coboundary``
# did before it read each entry in a single comprehension.  It returns the
# columns of d(c), one flat list per cyclic factor.


def signed_pass_coboundary(c):
    n = c.degree
    cols = c.monoid.faces(n)
    sums = []
    for f, d in zip(c.columns, c.moduli):
        acc = [f[j] for j in cols[0]]
        for i in range(1, n + 2):
            if i % 2:
                acc = [a - f[j] for a, j in zip(acc, cols[i])]
            else:
                acc = [a + f[j] for a, j in zip(acc, cols[i])]
        sums.append([a % d for a in acc])
    return tuple(sums)


# --- Induced partial monoids, read through the label methods -------------
#
# ``restriction`` keeps the sums of a partial monoid among a subset of its
# elements.  Nothing in the library needs it: its analyses read the glued
# monoid's int tables whole.


def restriction(monoid, labels):
    """The induced partial monoid on a subset of elements.

    pre: the subset is closed under defined sums and contains the
    identity.
    """
    keep = set(labels)
    unknown = keep - set(monoid.elements)
    if unknown:
        raise PreconditionError(
            f"restriction to unknown labels {sorted(unknown)}")
    if monoid.identity not in keep:
        raise PreconditionError("restriction must contain the identity")
    els = monoid.elements
    sub = {}
    for x, y, z in zip(*monoid.pairs()):
        if els[x] in keep and els[y] in keep:
            if els[z] not in keep:
                raise PreconditionError(
                    f"subset not closed: {els[x]!r} + {els[y]!r} = "
                    f"{els[z]!r} escapes")
            sub[(els[x], els[y])] = els[z]
    order = [x for x in els if x in keep]
    return PartialMonoid(order, monoid.identity, sub)


# --- The partial-monoid axioms and the maximal total submonoids ----------
#
# References for ``glue_contexts``: the axioms checked exhaustively on the
# glued monoid, and its contexts recovered from the definedness graph.
# The library checks the laws per context as it glues, and associativity
# across contexts in ``validate_structured_model``.

from contextuality.graphs import maximal_cliques  # noqa: E402
from contextuality.scenario import ValidationReport  # noqa: E402


def validate_partial_monoid(monoid) -> ValidationReport:
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
    for x, y in monoid.composable(2):
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


def maximal_total_submonoids(monoid) -> list[tuple[str, ...]]:
    """Maximal subsets on which the operation is total.

    Any two elements of such a subset are composable, so the
    subsets are the maximal cliques of the definedness graph that
    are closed under the operation.  For monoids glued from
    contexts the cliques are automatically closed.
    """
    els = monoid.elements
    cliques = maximal_cliques(
        len(els), lambda i, j: monoid.defined(els[i], els[j]))
    out = []
    for cl in cliques:
        members = {els[i] for i in cl}
        if all(monoid.add(x, y) in members
               for x in members for y in members):
            out.append(tuple(els[i] for i in cl))
    return out


# --- Documents read through label dicts ----------------------------------
#
# ``read_by_label`` reads a well-formed explicit document one label dict
# per row, through ``Section.of``, and files each context's sections by
# their outcomes in the scenario's label order, as a reference for the
# row loader.


def read_by_label(doc):
    """``(model, rows, sections)``: the ``EmpiricalModel.make`` model of
    the document's sections, and each context's rows, sorted without
    repeats, with the section of each row."""
    scenario = MeasurementScenario.make(
        doc["measurements"], doc["outcome_modulus"], doc["contexts"])
    slot = {frozenset(c): k for k, c in enumerate(scenario.contexts)}
    by_slot = [None] * len(scenario.contexts)
    for key, rows in doc["sections"].items():
        ctx = doc["contexts"][int(key)]
        by_slot[slot[frozenset(ctx)]] = [Section.of(dict(zip(ctx, row)))
                                         for row in rows]
    rows, sections = [], []
    for ctx, secs in zip(scenario.contexts, by_slot):
        filed = {tuple(s[m] for m in ctx): s for s in secs}
        rows.append(tuple(sorted(filed)))
        sections.append(tuple(filed[row] for row in rows[-1]))
    return (EmpiricalModel.make(scenario, by_slot), tuple(rows),
            tuple(sections))
