"""Exact integer and modular linear algebra with verifiable certificates.

Nothing here ever rounds: every entry is a Python int.  Every exact
solver works on sparse rows, ``{column: entry}`` dicts over an explicit
column count: the integer solver and its Hermite normal form, and the
modular solver and its eliminations at every prime power.  Dense
``list[list[int]]`` input is taken only by the one-shot public functions
(``hermite_normal_form``, ``solve_integer``, ``solve_mod``,
``kernel_mod``, ``verify_integer_result`` and ``verify_mod_result``),
which convert it and run the same code.  GF(2) rows are bitmasks.  The
solvers share one reporting convention:

* a witness is an assignment satisfying the system exactly;
* an infeasibility certificate is a vector ``y`` that provably separates
  the right-hand side from the reachable set.  For integer systems ``y``
  is rational with ``y^T A`` integral but ``y^T b`` non-integral (kind
  ``"integral"``), or ``y^T A = 0`` with ``y^T b != 0`` when the system is
  already infeasible over the rationals (kind ``"rational"``).  For
  modular systems ``y^T A = 0 (mod d)`` while ``y^T b != 0 (mod d)``.

Every witness and certificate is re-verified before it is returned; a
failed re-verification raises ``InternalCheckError``.  Certificates of
every kind have one checker, ``separates``, which works on integer
numerators over the common denominator of ``y``; the Cech route-1 audit
calls it too.

Each solver factors its matrix once, in its constructor or on its first
solve, and then answers any number of right-hand sides.
``Gf2AffineSystem`` is the GF(2) solver: a bitmask echelon
(``Gf2Echelon``) that keeps its rows as they came, no left kernel, and
pivot rows that are not back-reduced as rows arrive: solutions
back-substitute, the kernel basis reduces the form when asked, and the
refuter is found on demand from the first dependent row that the pivot
solution breaks.  Integer feasibility is decided through a row-style
Hermite normal form of the transposed system (a basis of the column
lattice); callers run their own GF(2) refutation first.  Modular systems
are solved locally at each prime power, then recombined by the Chinese
remainder theorem: modulo 2 by ``Gf2AffineSystem``, modulo any other
prime power by elimination with valuation-minimal pivoting.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalCheckError, PreconditionError

Matrix = list  # list[list[int]]
SparseRow = dict  # {column: nonzero int}


def _shape(rows: Matrix, ncols: int | None) -> int:
    """The column count of a dense system, which must not be ragged."""
    if not rows and ncols is None:
        raise PreconditionError("empty system needs an explicit column count")
    n = len(rows[0]) if rows else int(ncols)
    if any(len(r) != n for r in rows):
        raise PreconditionError("ragged matrix")
    return n


def _sparse(rows: Matrix) -> list[SparseRow]:
    return [{j: a for j, a in enumerate(map(int, row)) if a} for row in rows]


def _dense(rows: list[SparseRow], n: int) -> Matrix:
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _check_columns(rows: list[SparseRow], ncols: int) -> None:
    """The precondition of every sparse system: dict rows over range(ncols)."""
    if not all(isinstance(row, dict) for row in rows):
        raise PreconditionError("rows must be sparse {column: entry} dicts")
    if any(row and (min(row) < 0 or max(row) >= ncols) for row in rows):
        raise PreconditionError("row entry outside the column range")


def _subtract(row: SparseRow, q: int, other: SparseRow) -> None:
    """``row -= q * other`` in place, for ``q != 0``, dropping zeros."""
    for j, b in other.items():
        a = row.get(j, 0) - q * b
        if a:
            row[j] = a
        else:
            del row[j]


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def hermite_normal_form(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U * mat == H``, ``U`` unimodular, ``H`` in row
    echelon form with positive pivots and entries above each pivot reduced
    to ``[0, pivot)``.  Zero rows sit at the bottom.  The dense boundary of
    ``_hermite``, which computes it on sparse rows.
    """
    n = _shape(mat, 0)
    h, u = _hermite(_sparse(mat), n)
    return _dense(h, n), _dense(u, len(mat))


def _hermite(h: list[SparseRow], n: int) -> tuple[list, list]:
    """``hermite_normal_form`` on sparse rows, in place on ``h``.

    Column by column, the row with the smallest nonzero entry (the first
    such row on a tie) is swapped up to the pivot position and floor
    quotients of it are subtracted from the rows below, until the column
    is clear below the pivot; the pivot is made positive and the rows
    above are reduced by floor quotients.  U starts as the identity and
    takes every row operation of H.
    """
    m = len(h)
    u = [{i: 1} for i in range(m)]
    t = 0
    for j in range(n):
        if t >= m:
            break
        while True:
            nz = [i for i in range(t, m) if j in h[i]]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(h[i][j]), i))
            if best != t:
                h[t], h[best] = h[best], h[t]
                u[t], u[best] = u[best], u[t]
            done = True
            piv, ht, ut = h[t][j], h[t], u[t]
            # the rows below t that are nonzero in column j, after the swap
            for i in [best if i == t else i for i in nz if i != best]:
                hi = h[i]
                q = hi[j] // piv
                if q:
                    _subtract(hi, q, ht)
                    _subtract(u[i], q, ut)
                if j in hi:
                    done = False
            if done:
                break
        if j in h[t]:
            if h[t][j] < 0:
                h[t] = {c: -a for c, a in h[t].items()}
                u[t] = {c: -a for c, a in u[t].items()}
            piv, ht, ut = h[t][j], h[t], u[t]
            for i in range(t):
                q = h[i].get(j, 0) // piv  # floor: leaves 0 <= entry < pivot
                if q:
                    _subtract(h[i], q, ht)
                    _subtract(u[i], q, ut)
            t += 1
    return h, u


# ---------------------------------------------------------------------------
# GF(2) echelon with row tracking
# ---------------------------------------------------------------------------


class Gf2Echelon:
    """Row echelon of a GF(2) matrix, rows as bitmasks over columns.

    ``rows`` keeps the rows as they came.  ``pivots`` maps a column index
    to ``(rowmask, trackmask)``: a row whose highest set bit is that
    column, and the independent rows that sum to it.  ``dependent`` lists
    the rows that reduce to zero.  A new pivot is not cleared from the
    earlier pivot rows: the pivot columns are the leading bits of the row
    space either way, ``solution`` back-substitutes in ascending pivot
    order and ``kernel_basis`` reduces the form when it is called.
    """

    def __init__(self, row_masks, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, tuple[int, int]] = {}
        self._order: list[int] = []  # the pivot columns, ascending
        self._pivot_mask = 0
        self.rows: list[int] = []
        self.dependent: list[int] = []
        for mask in row_masks:
            self.add_row(mask)

    def add_row(self, mask: int) -> None:
        r = len(self.rows)
        self.rows.append(mask)
        reduced, track = self._reduce(mask, 1 << r)
        if reduced == 0:
            self.dependent.append(r)
            return
        col = reduced.bit_length() - 1
        self.pivots[col] = (reduced, track)
        insort(self._order, col)
        self._pivot_mask |= 1 << col

    def _reduce(self, mask: int, track: int) -> tuple[int, int]:
        # clear pivot columns from the top: a pivot row's other bits lie
        # below its pivot, so each step leaves the higher bits alone
        hits = mask & self._pivot_mask
        while hits:
            col = hits.bit_length() - 1
            m, tr = self.pivots[col]
            mask ^= m
            track ^= tr
            hits = mask & self._pivot_mask
        return mask, track

    def express(self, mask: int) -> int | None:
        """Track mask writing ``mask`` as a sum of original rows, or None."""
        mask, track = self._reduce(mask, 0)
        return track if mask == 0 else None

    def solution(self, rhs_mask: int) -> int:
        """The x with every free column 0 that meets ``b`` on every
        independent row: pivot row c pairs with x as its track pairs with
        ``b``, which fixes x_c once the lower columns are known."""
        sol = 0
        pivots = self.pivots
        for col in self._order:
            mask, track = pivots[col]
            if ((track & rhs_mask).bit_count() ^ (mask & sol).bit_count()) & 1:
                sol |= 1 << col
        return sol

    def refute(self, rhs_mask: int, solution: int | None = None) -> int | None:
        """Row combination ``y`` with ``y^T A = 0`` and ``y . b`` odd, or
        None: ``e_r + express(row_r)`` for the first dependent row r that
        the pivot ``solution`` x breaks, ``row_r . x != b_r``."""
        x = self.solution(rhs_mask) if solution is None else solution
        for r in self.dependent:
            if ((self.rows[r] & x).bit_count() ^ (rhs_mask >> r)) & 1:
                return (1 << r) | self.express(self.rows[r])
        return None

    def kernel_basis(self) -> list[int]:
        """Masks over columns spanning ``{x : A x = 0 (mod 2)}``: one per
        free column f, read off the reduced form, in which each pivot row
        holds its own pivot and free columns only."""
        reduced = {}
        for col in self._order:
            m = self.pivots[col][0]
            lower = m & self._pivot_mask ^ (1 << col)
            while lower:
                c = lower.bit_length() - 1
                m ^= reduced[c]
                lower ^= 1 << c
            reduced[col] = m
        basis = []
        for f in range(self.ncols):
            if f in reduced:
                continue
            vec = 1 << f
            for c, m in reduced.items():
                if (m >> f) & 1:
                    vec |= 1 << c
            basis.append(vec)
        return basis


def _parity_mask(entries) -> int:
    """The bitmask of the odd values among ``(index, value)`` pairs."""
    mask = 0
    for i, a in entries:
        if a & 1:
            mask |= 1 << i
    return mask


def _bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


class Gf2AffineSystem(Gf2Echelon):
    """Reusable solver for ``A x = b`` over GF(2), the one GF(2) entry point:
    the rows are echeloned once, then ``solve`` answers each right-hand
    side, a bitmask over rows, without touching the echelon."""

    def solve(self, rhs_mask: int) -> tuple[int | None, int | None]:
        """``(solution_mask, None)`` if feasible, else ``(None, refuter)``:
        rows whose GF(2) sum is 0 while their right-hand sides sum to 1."""
        sol = self.solution(rhs_mask)
        ref = self.refute(rhs_mask, sol)
        return (None, ref) if ref is not None else (sol, None)


# ---------------------------------------------------------------------------
# Integer feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Separating functional: kind "rational" or "integral" (see module doc)."""

    kind: str
    vector: tuple[Fraction, ...]


@dataclass(frozen=True)
class IntSolveResult:
    feasible: bool
    witness: tuple[int, ...] | None = None
    certificate: InfeasibilityCertificate | None = None


def separates(terms, modulus: int) -> bool:
    """Does ``y`` separate ``b`` from what ``A`` reaches: the one check of
    every infeasibility certificate.

    ``terms`` lists ``(y_i, row_i, b_i)`` for the rows where ``y`` is
    nonzero, each row sparse as ``{column: coefficient}``; ``y_i`` is an
    int or a ``Fraction``.  With ``D`` the common denominator of ``y`` and
    ``n_i = D y_i``, everything is checked on integer numerators:
    ``sum n_i row_i`` must vanish and ``sum n_i b_i`` must not, modulo
    ``modulus * D``, where modulus 0 means exactly.  So modulus 0 checks
    kind "rational", modulus 1 kind "integral" (``y^T A`` integral,
    ``y^T b`` not) and modulus d an integer certificate mod d.
    """
    terms = list(terms)
    den = lcm(*(y.denominator for y, _row, _b in terms))
    acc: dict[int, int] = {}
    pairing = 0
    for y, row, b in terms:
        n = y.numerator * (den // y.denominator)
        pairing += n * b
        for j, a in row.items():
            acc[j] = acc.get(j, 0) + n * a
    m = modulus * den
    if m == 0:
        return not any(acc.values()) and pairing != 0
    return all(c % m == 0 for c in acc.values()) and pairing % m != 0


def _verify(rows: list[SparseRow], ncols: int, rhs: list[int], result,
            modulus: int, y, cert_modulus: int) -> bool:
    """On sparse rows over ``ncols`` columns: a witness must solve
    A x = b modulo ``modulus`` (0: exactly), a certificate ``y`` must pass
    ``separates`` modulo ``cert_modulus``."""
    if result.feasible:
        x = result.witness
        if x is None or len(x) != ncols:
            return False
        for row, b in zip(rows, rhs):
            r = sum(a * x[j] for j, a in row.items()) - b
            if r % modulus if modulus else r:
                return False
        return True
    if y is None or len(y) != len(rows):
        return False
    return separates([(yi, row, b) for yi, row, b in zip(y, rows, rhs) if yi],
                     cert_modulus)


def _verify_dense(rows: Matrix, rhs: list[int], result, modulus: int, y,
                  cert_modulus: int) -> bool:
    """``_verify`` for dense rows; an empty system takes its column count
    from the witness."""
    n = len(rows[0]) if rows else (len(result.witness) if result.witness else 0)
    return _verify(_sparse(rows), n, rhs, result, modulus, y, cert_modulus)


def verify_integer_result(rows: Matrix, rhs: list[int], result: IntSolveResult) -> bool:
    """Substitution check for a witness or certificate against A x = b."""
    cert = result.certificate
    return _verify_dense(rows, rhs, result, 0, cert and cert.vector,
                         int(cert is not None and cert.kind != "rational"))


class IntegerSystem:
    """Reusable exact solver for ``A x = b`` over the integers.

    ``rows`` are sparse, ``{column: nonzero int}`` over ``ncols`` columns,
    and are kept as given.  Computes a Hermite basis of the column lattice
    of ``A``, sparse, on the first solve and decides every right-hand side
    against it, those infeasible mod 2 included, so many can be decided
    against one matrix.
    """

    def __init__(self, rows: list[SparseRow], ncols: int):
        _check_columns(rows, ncols)
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._lattice: tuple | None = None

    # lattice of reachable right-hand sides, in constraint-index space
    def _lattice_data(self):
        if self._lattice is None:
            transpose = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, a in row.items():
                    transpose[j][i] = a
            h, u = _hermite(transpose, self.nrows)
            basis, pivots, urows = [], [], []
            for row, urow in zip(h, u):
                if row:
                    basis.append(row)
                    pivots.append(min(row))
                    urows.append(urow)
            self._lattice = (basis, pivots, urows)
        return self._lattice

    def solve(self, rhs: list[int]) -> IntSolveResult:
        if len(rhs) != self.nrows:
            raise PreconditionError("right-hand side length mismatch")
        basis, pivots, urows = self._lattice_data()
        # greedy expansion of rhs in the echelon basis, exactly over Q:
        # rhs = den^-1 num + sum coeffs_k basis_k, num sparse
        num = {i: b for i, b in enumerate(rhs) if b}
        den = 1
        coeffs: list[Fraction] = []
        for brow, pcol in zip(basis, pivots):
            v = num.get(pcol, 0)
            p = brow[pcol]
            coeffs.append(Fraction(v, den * p))
            if v == 0:
                continue
            if p != 1:
                num = {i: p * a for i, a in num.items()}
                den *= p
            _subtract(num, v, brow)
            if p != 1:
                g = den
                for a in num.values():
                    g = gcd(g, a)
                    if g == 1:
                        break
                if g > 1:
                    den //= g
                    num = {i: a // g for i, a in num.items()}
        if num:
            y = self._dual(q=min(num))
            return self._checked(rhs, IntSolveResult(
                False, None, InfeasibilityCertificate("rational", tuple(y))))
        bad = next((k for k, c in enumerate(coeffs) if c.denominator != 1), None)
        if bad is not None:
            y = self._dual(bad)
            return self._checked(rhs, IntSolveResult(
                False, None, InfeasibilityCertificate("integral", tuple(y))))
        x = [0] * self.ncols
        for c, urow in zip(coeffs, urows):
            if c:
                ci = int(c)
                for j, a in urow.items():
                    x[j] += ci * a
        return self._checked(rhs, IntSolveResult(True, tuple(x), None))

    def _dual(self, k: int = -1, q: int | None = None) -> list[Fraction]:
        """y on the pivot coordinates with y . h_j = delta_{jk}; or, for a
        non-pivot column q, y_q = 1 and y . h_j = 0 for every basis row."""
        basis, pivots, _ = self._lattice_data()
        r = len(basis)
        index = {p: l for l, p in enumerate(pivots)}
        alpha = [Fraction(0)] * r
        for j in range(r - 1, -1, -1):
            row = basis[j]
            s = Fraction(int(j == k) if q is None else -row.get(q, 0))
            for c, a in row.items():
                l = index.get(c, -1)
                if l > j:
                    s -= alpha[l] * a
            alpha[j] = s / row[pivots[j]]
        y = [Fraction(0)] * self.nrows
        if q is not None:
            y[q] = Fraction(1)
        for l in range(r):
            y[pivots[l]] = alpha[l]
        return y

    def _checked(self, rhs: list[int], result: IntSolveResult) -> IntSolveResult:
        cert = result.certificate
        if not _verify(self.rows, self.ncols, rhs, result, 0,
                       cert and cert.vector,
                       int(cert is not None and cert.kind != "rational")):
            raise InternalCheckError("integer solver produced an unverifiable answer")
        return result


def solve_integer(rows: Matrix, rhs: list[int], ncols: int | None = None) -> IntSolveResult:
    """Decide ``A x = b`` over the integers; witness or certificate."""
    return IntegerSystem(_sparse(rows), _shape(rows, ncols)).solve(rhs)


# ---------------------------------------------------------------------------
# Modular systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModSolveResult:
    feasible: bool
    witness: tuple[int, ...] | None = None
    certificate: tuple[int, ...] | None = None


def verify_mod_result(rows: Matrix, rhs: list[int], modulus: int, result: ModSolveResult) -> bool:
    """Substitution check for a witness or certificate of A x = b (mod d)."""
    return _verify_dense(rows, rhs, result, modulus, result.certificate,
                         modulus)


def _factor(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization by trial division (desk-size moduli)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _val(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _subtract_mod(row: SparseRow, f: int, other: SparseRow, q: int) -> None:
    """``row -= f * other (mod q)`` in place, dropping zeros."""
    for c, b in other.items():
        a = (row.get(c, 0) - f * b) % q
        if a:
            row[c] = a
        else:
            row.pop(c, None)


class _PrimePowerSystem:
    """Elimination over Z_{p^e} with valuation-minimal pivoting.

    Pivots are chosen globally by increasing p-valuation, so every entry
    remaining to the right of (or below) a pivot has valuation at least
    the pivot's.  That makes back-substitution with zeroed free variables
    complete: a division failure genuinely certifies infeasibility.  Rows
    and their tracks, the combinations of original rows they now hold,
    are sparse with entries in ``[1, p^e)``; a track is expanded to a
    dense vector only when it is returned as a certificate.
    """

    def __init__(self, rows: list[SparseRow], ncols: int, p: int, e: int):
        self.p, self.e, self.q = p, e, p**e
        self.ncols = ncols
        q = self.q
        self.mat = [{j: a % q for j, a in row.items() if a % q} for row in rows]
        self.track = [{i: 1} for i in range(len(rows))]
        self.pivots: list[tuple[int, int, int]] = []  # (row, col, valuation)
        self._eliminate()

    def _eliminate(self) -> None:
        p, q = self.p, self.q
        mat, track = self.mat, self.track
        m = len(mat)
        r = 0
        while r < m:
            # least (valuation, col, row), up to the first row with a unit;
            # the rows below a pivot are clear in its column
            best = None
            for i in range(r, m):
                for j, a in mat[i].items():
                    cand = (_val(a, p), j, i)
                    if best is None or cand < best:
                        best = cand
                if best is not None and best[0] == 0:
                    break  # unit pivot is as good as it gets
            if best is None:
                break
            v, j, i = best
            mat[r], mat[i] = mat[i], mat[r]
            track[r], track[i] = track[i], track[r]
            pv = p**v
            inv = pow(mat[r][j] // pv, -1, q)
            rowr = mat[r] = {c: a * inv % q for c, a in mat[r].items()}
            tr = track[r] = {c: a * inv % q for c, a in track[r].items()}
            for i2 in range(r + 1, m):
                a = mat[i2].get(j)
                if a:
                    f = a // pv  # exact: every remaining entry has valuation >= v
                    _subtract_mod(mat[i2], f, rowr, q)
                    _subtract_mod(track[i2], f, tr, q)
            self.pivots.append((r, j, v))
            r += 1
        self.rank = r

    def _certificate(self, i: int, scale: int = 1) -> tuple[int, ...]:
        """``scale`` times track ``i``, dense over the original rows."""
        t = self.track[i]
        return tuple(scale * t.get(k, 0) % self.q for k in range(len(self.mat)))

    def _back_substitute(self, x: list[int], c: list[int], skip_row: int = -1):
        """Set each pivot's column of ``x``, last pivot first, so that its
        row pairs with ``x`` to ``c[row]``; the first pivot row whose
        residual its pivot does not divide, or None."""
        p, q = self.p, self.q
        for r, j, v in reversed(self.pivots):
            if r == skip_row:
                continue
            residual = (c[r] - sum(a * x[t] for t, a in self.mat[r].items())) % q
            pv = p**v
            if residual % pv:
                return r
            x[j] = (residual // pv) % (q // pv)
        return None

    def solve(self, rhs: list[int]) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
        """(witness mod q, None) or (None, certificate mod q)."""
        q = self.q
        c = [sum(t * rhs[k] for k, t in trow.items()) % q for trow in self.track]
        for i in range(self.rank, len(self.mat)):
            if c[i]:
                return None, self._certificate(i)
        x = [0] * self.ncols
        r = self._back_substitute(x, c)
        if r is not None:
            return None, self._certificate(r, q // self.p ** self.pivots[r][2])
        return tuple(x), None

    def kernel(self) -> list[list[int]]:
        """Generating set of ``{x : A x = 0 (mod p^e)}``: one vector per
        free column, and one per pivot of positive valuation v, set to
        ``p^(e-v)`` there, each completed by back-substitution."""
        pivot_cols = {j for _, j, _ in self.pivots}
        starts = [(f, 1, -1) for f in range(self.ncols) if f not in pivot_cols]
        starts += [(j, self.p ** (self.e - v), r) for r, j, v in self.pivots if v]
        zero = [0] * len(self.mat)
        gens = []
        for col, value, skip_row in starts:
            x = [0] * self.ncols
            x[col] = value
            if self._back_substitute(x, zero, skip_row) is not None:
                raise InternalCheckError("homogeneous back-substitution hit a non-divisible residual")
            gens.append(x)
        return gens


class ModSystem:
    """Reusable solver for ``A x = b (mod d)``: CRT over prime-power locals.

    ``rows`` are sparse, ``{column: int}`` over ``ncols`` columns, and are
    kept as given, for re-verification; their entries need not be reduced
    mod d.  The local at ``p^e = 2`` is a ``Gf2AffineSystem`` on their
    parity masks; every other local is a ``_PrimePowerSystem``.
    """

    def __init__(self, rows: list[SparseRow], modulus: int, ncols: int):
        if modulus < 2:
            raise PreconditionError("modulus must be at least 2")
        _check_columns(rows, ncols)
        self.rows = rows
        self.ncols = ncols
        self.modulus = modulus
        self.locals = [
            (p, e, Gf2AffineSystem([_parity_mask(r.items()) for r in rows], ncols)
             if p**e == 2 else _PrimePowerSystem(rows, ncols, p, e))
            for p, e in _factor(modulus)
        ]

    def solve(self, rhs: list[int]) -> ModSolveResult:
        if len(rhs) != len(self.rows):
            raise PreconditionError("right-hand side length mismatch")
        d = self.modulus
        parts = []
        for p, e, system in self.locals:
            if p**e == 2:
                sol, ref = system.solve(_parity_mask(enumerate(rhs)))
                witness = None if sol is None else _bits(sol, self.ncols)
                cert = None if ref is None else _bits(ref, len(self.rows))
            else:
                witness, cert = system.solve(rhs)
            if witness is None:
                q = p**e
                scale = d // q
                y = tuple((scale * int(c)) % d for c in cert)
                return self._checked(rhs, ModSolveResult(False, None, y))
            parts.append((p**e, witness))
        x = [_crt([(q, w[j]) for q, w in parts]) for j in range(self.ncols)]
        return self._checked(rhs, ModSolveResult(True, tuple(v % d for v in x), None))

    def kernel(self) -> list[tuple[int, ...]]:
        """Generating set of the solution module of ``A x = 0 (mod d)``."""
        d = self.modulus
        gens: list[tuple[int, ...]] = []
        for p, e, system in self.locals:
            q = p**e
            rest = d // q
            if q == 2:
                local = [_bits(v, self.ncols) for v in system.kernel_basis()]
            else:
                local = system.kernel()
            for g in local:
                # lift: equal to g mod q, zero mod d/q
                lifted = tuple(_crt([(q, gj), (rest, 0)]) % d if rest > 1 else gj % d for gj in g)
                if any(lifted):
                    gens.append(lifted)
        return gens

    def _checked(self, rhs: list[int], result: ModSolveResult) -> ModSolveResult:
        if not _verify(self.rows, self.ncols, rhs, result, self.modulus,
                       result.certificate, self.modulus):
            raise InternalCheckError("modular solver produced an unverifiable answer")
        return result


def _crt(parts: list[tuple[int, int]]) -> int:
    """x with x = r (mod q) for each (q, r); moduli pairwise coprime."""
    x, m = 0, 1
    for q, r in parts:
        if q == 1:
            continue
        inv = pow(m % q, -1, q)
        x = x + m * ((r - x) % q * inv % q)
        m *= q
    return x % m if m > 1 else 0


def solve_mod(rows: Matrix, rhs: list[int], modulus: int, ncols: int | None = None) -> ModSolveResult:
    """Decide ``A x = b (mod d)``; witness or annihilating certificate."""
    return ModSystem(_sparse(rows), modulus, _shape(rows, ncols)).solve(rhs)


def kernel_mod(rows: Matrix, modulus: int, ncols: int | None = None) -> list[tuple[int, ...]]:
    """Generating set of ``{x : A x = 0 (mod d)}``."""
    n = _shape(rows, ncols)
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return ModSystem(_sparse(rows), modulus, n).kernel()


def affine_annihilator(points: Matrix, modulus: int) -> list[tuple[tuple[int, ...], int]]:
    """All affine relations ``r . s = a (mod d)`` satisfied by every point.

    Returns a generating set of pairs ``(r, a)``: the kernel of the matrix
    of differences against the first point, each paired with its induced
    constant.  For a single point the spanning relations are the
    coordinate evaluations.
    """
    if not points:
        raise PreconditionError("need at least one point")
    base = points[0]
    diffs = [[(s[j] - base[j]) % modulus for j in range(len(base))] for s in points[1:]]
    gens = kernel_mod(diffs, modulus, ncols=len(base))
    out = []
    for r in gens:
        a = sum(x * y for x, y in zip(r, base)) % modulus
        out.append((tuple(v % modulus for v in r), a))
    return out
