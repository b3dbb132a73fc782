"""Exact solvers against brute force and self-certifying output.

Feasible verdicts are checked by substituting the witness; infeasible
verdicts carry separating functionals that are themselves proofs, so
every fuzz case is decided either way without an external solver.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from _oracles import (
    DensePrimePowerSystem,
    EagerGf2Echelon,
    dense_hermite_normal_form,
)
from contextuality import linalg
from contextuality.errors import PreconditionError
from contextuality.linalg import (
    Gf2AffineSystem,
    Gf2Echelon,
    InfeasibilityCertificate,
    IntegerSystem,
    IntSolveResult,
    ModSolveResult,
    ModSystem,
    affine_annihilator,
    hermite_normal_form,
    kernel_mod,
    separates,
)


def _rand_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _sparse(rows):
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def decide_integer(rows, rhs, ncols=None):
    """A dense system ``A x = b`` decided by ``IntegerSystem``."""
    return IntegerSystem(_sparse(rows), len(rows[0]) if rows else ncols
                         ).solve(rhs)


def decide_mod(rows, rhs, modulus, ncols=None):
    """A dense system ``A x = b (mod d)`` decided by ``ModSystem``."""
    return ModSystem(_sparse(rows), modulus, len(rows[0]) if rows else ncols
                     ).solve(rhs)


def certifies(rows, rhs, result, modulus=0):
    """An answer to a dense system, checked from scratch: a witness must
    solve it by substitution modulo ``modulus`` (0: exactly), and a
    certificate must pass ``separates``: modulo ``modulus`` for a modular
    one, exactly for kind "rational" and modulo 1 for kind "integral"."""
    if result.feasible:
        x = result.witness
        residuals = [sum(a * v for a, v in zip(row, x)) - b
                     for row, b in zip(rows, rhs)]
        return len(x) == len(rows[0]) and all(
            r % modulus == 0 if modulus else r == 0 for r in residuals)
    y = result.certificate
    if isinstance(y, InfeasibilityCertificate):
        y, modulus = y.vector, int(y.kind != "rational")
    return len(y) == len(rows) and separates(
        [(yi, dict(enumerate(row)), b) for yi, row, b in zip(y, rows, rhs)
         if yi], modulus)


def _det(mat):
    # fraction-free Gaussian elimination; exact for integer input
    a = [[Fraction(v) for v in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return det


# --- Hermite normal form -------------------------------------------------


def _check_hnf(mat, h, u):
    m = len(mat)
    n = len(mat[0]) if m else 0
    # U * mat == H
    for i in range(m):
        for j in range(n):
            assert sum(u[i][k] * mat[k][j] for k in range(m)) == h[i][j]
    assert abs(_det(u)) == 1
    pivots = []
    for row in h:
        nz = [j for j, v in enumerate(row) if v]
        pivots.append(nz[0] if nz else None)
    # zero rows at the bottom, strictly increasing pivot columns
    seen_zero = False
    prev = -1
    for p in pivots:
        if p is None:
            seen_zero = True
            continue
        assert not seen_zero
        assert p > prev
        prev = p
    for i, p in enumerate(pivots):
        if p is None:
            continue
        assert h[i][p] > 0
        for k in range(i):
            assert 0 <= h[k][p] < h[i][p]


def test_hnf_fuzz():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = _rand_matrix(rng, m, n)
        h, u = hermite_normal_form(mat)
        _check_hnf(mat, h, u)


def test_hnf_known():
    h, u = hermite_normal_form([[2, 4], [1, 3]])
    _check_hnf([[2, 4], [1, 3]], h, u)
    assert h == [[1, 3], [0, 2]] or h[0][0] == 1


def test_hnf_matches_sympy_row_style():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sy_hnf

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = _rand_matrix(rng, n, n)
        if _det(mat) == 0:
            continue
        h, _u = hermite_normal_form(mat)
        # sympy computes the column-style form; transpose to compare
        sy = sy_hnf(sympy.Matrix(mat).T).T.tolist()
        # sympy reduces entries above pivots modulo the pivot as well,
        # but may order differently; compare row lattices via HNF again
        h2, _ = hermite_normal_form([list(map(int, r)) for r in sy])
        assert h == h2


def test_hnf_ragged_rejected():
    with pytest.raises(PreconditionError):
        hermite_normal_form([[1, 2], [3]])


def _hnf_differential_matrices(rng):
    """Seeded matrices of every shape the sparse form must not treat
    differently: non-unit entries, mostly-zero +-1 rows like the Cech
    systems', zero and duplicate rows, and rank-deficient products."""
    yield []
    yield [[0, 0], [0, 0]]
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        yield _rand_matrix(rng, m, n)
    for _ in range(100):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        yield [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)]
               for _ in range(m)]
    for _ in range(100):
        m, n = rng.randint(2, 7), rng.randint(1, 6)
        mat = _rand_matrix(rng, m, n, -4, 4)
        mat[rng.randrange(m)] = [0] * n
        i, k = rng.sample(range(m), 2)
        mat[k] = list(mat[i])
        yield mat
    for _ in range(100):
        m, n, r = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 2)
        left = _rand_matrix(rng, m, r, -3, 3)
        right = _rand_matrix(rng, r, n, -3, 3)
        yield [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
               for row in left]


def test_hnf_matches_dense_reference():
    """The sparse Hermite form gives exactly the dense reference's
    (H, U), entry for entry, so every witness and certificate read from
    it is unchanged."""
    rng = random.Random(67)
    non_unit = deficient = 0
    for mat in _hnf_differential_matrices(rng):
        h, u = hermite_normal_form(mat)
        assert (h, u) == dense_hermite_normal_form(mat)
        if mat:
            _check_hnf(mat, h, u)
        non_unit += any(abs(a) > 1 for row in h for a in row)
        deficient += any(not any(row) for row in h)
    assert non_unit > 100 and deficient > 100


# --- GF(2) echelon --------------------------------------------------------


def _gf2_rowspace(masks, ncols):
    space = {0}
    for m in masks:
        space |= {v ^ m for v in space}
    return space


def test_gf2_echelon_fuzz():
    rng = random.Random(23)
    for _ in range(150):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(0, 10)
        masks = [rng.getrandbits(ncols) for _ in range(nrows)]
        ech = Gf2Echelon([], ncols)
        independent = [ech.add_row(m) for m in masks]
        space = _gf2_rowspace(masks, ncols)
        # the echelon keeps its rows as they came
        assert ech.rows == masks
        rank = len(space).bit_length() - 1
        assert sum(independent) == len(ech.pivots) == rank
        target = rng.getrandbits(ncols)
        combo = ech.express(target)
        if target in space:
            assert combo is not None
            acc = 0
            for i in range(nrows):
                if (combo >> i) & 1:
                    acc ^= masks[i]
            assert acc == target
        else:
            assert combo is None
        kern = ech.kernel_basis()
        assert len(kern) == ncols - len(space).bit_length() + 1
        for v in kern:
            for m in masks:
                assert (v & m).bit_count() % 2 == 0
        # kernel vectors are linearly independent
        sub = Gf2Echelon([], ncols)
        for v in kern:
            sub.add_row(v)
        assert len(_gf2_rowspace(kern, ncols)) == 1 << len(kern)


def test_gf2_echelon_refutes_as_the_solver_does():
    """``Gf2Echelon`` is a second name for the one GF(2) class, so an
    echelon built through it, whole or row by row, refutes each seeded
    right-hand side exactly as ``Gf2AffineSystem.solve`` does."""
    assert Gf2Echelon([3, 3], 2).refute(2) == 0b11
    rng = random.Random(59)
    refuted = 0
    for _ in range(150):
        ncols = rng.randint(1, 8)
        masks = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 10))]
        whole = Gf2Echelon(masks, ncols)
        by_row = Gf2Echelon([], ncols)
        for m in masks:
            by_row.add_row(m)
        system = Gf2AffineSystem(masks, ncols)
        for _ in range(4):
            rhs = rng.getrandbits(len(masks)) if masks else 0
            sol, ref = system.solve(rhs)
            assert whole.refute(rhs) == by_row.refute(rhs) == ref
            assert whole.solve(rhs) == (sol, ref)
            refuted += ref is not None
    assert refuted > 100
    assert Gf2Echelon is Gf2AffineSystem


def test_gf2_affine_fuzz():
    rng = random.Random(31)
    # the reused right-hand sides come from their own generator, so the
    # systems and first right-hand sides are the draws of rng alone
    more = random.Random(32)
    for _ in range(300):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(0, 9)
        rows = [(rng.getrandbits(ncols), rng.getrandbits(1))
                for _ in range(nrows)]
        sysm = Gf2AffineSystem([mask for mask, _b in rows], ncols)
        for rhs in ([b for _mask, b in rows],
                    [more.getrandbits(1) for _ in rows],
                    [more.getrandbits(1) for _ in rows]):
            sol, ref = sysm.solve(sum(b << i for i, b in enumerate(rhs)))
            feasible = any(
                all(((x & mask).bit_count() & 1) == b
                    for (mask, _b), b in zip(rows, rhs))
                for x in range(1 << ncols))
            if feasible:
                assert sol is not None and ref is None
                for (mask, _b), b in zip(rows, rhs):
                    assert ((sol & mask).bit_count() & 1) == b
            else:
                assert sol is None and ref is not None
                acc_mask = 0
                acc_rhs = 0
                for i, ((mask, _b), b) in enumerate(zip(rows, rhs)):
                    if (ref >> i) & 1:
                        acc_mask ^= mask
                        acc_rhs ^= b
                assert acc_mask == 0 and acc_rhs == 1


def _brute_refuter(masks, rhs):
    """The refuter pinned by brute force: e_r plus the unique expression
    of row r in the independent rows before it, for the first dependent
    row r whose expression pairs oddly with the right-hand side; None if
    there is no such row."""
    independent = []  # (index, mask)
    for r, mask in enumerate(masks):
        combos = [sub for k in range(len(independent) + 1)
                  for sub in itertools.combinations(independent, k)
                  if _xor(m for _i, m in sub) == mask]
        if not combos:
            independent.append((r, mask))
            continue
        (sub,) = combos  # independent rows express it at most one way
        expr = sum(1 << i for i, _m in sub)
        if (rhs >> r ^ (expr & rhs).bit_count()) & 1:
            return (1 << r) | expr
    return None


def _xor(masks):
    acc = 0
    for m in masks:
        acc ^= m
    return acc


def test_gf2_refuter_is_pinned_by_brute_force():
    """``Gf2AffineSystem.solve`` and ``ModSystem`` mod 2 return exactly the
    brute-force refuter on seeded random systems of up to 10 x 8, and a
    solution whenever there is none."""
    rng = random.Random(47)
    refuted = 0
    for _ in range(400):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(0, 10)
        masks = [rng.getrandbits(ncols) for _ in range(nrows)]
        dense = [[mask >> j & 1 for j in range(ncols)] for mask in masks]
        gf2 = Gf2AffineSystem(masks, ncols)
        mod2 = ModSystem([{j: a for j, a in enumerate(row) if a}
                          for row in dense], 2, ncols)
        for _ in range(3):
            rhs = rng.getrandbits(nrows) if nrows else 0
            want = _brute_refuter(masks, rhs)
            sol, ref = gf2.solve(rhs)
            res = mod2.solve([rhs >> i & 1 for i in range(nrows)])
            assert ref == want
            if want is None:
                assert res.feasible
                for i, mask in enumerate(masks):
                    assert (sol & mask).bit_count() & 1 == rhs >> i & 1
            else:
                assert sol is None and not res.feasible
                assert res.certificate == tuple(
                    want >> i & 1 for i in range(nrows))
                refuted += 1
    assert refuted > 100


def test_gf2_echelon_matches_eager_reference():
    """The echelon reduced on demand, as the solver that keeps its rows
    (``Gf2AffineSystem``), has the eager reference's pivot columns and
    dependent rows, and the same solution, refuter, expression and kernel
    basis, also when rows arrive after a kernel basis was read; zero and
    duplicate rows included."""
    rng = random.Random(71)
    for _ in range(300):
        ncols = rng.randint(1, 10)
        masks = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 12))]
        if masks and rng.random() < 0.5:
            masks.append(0)
            masks.append(rng.choice(masks))
            rng.shuffle(masks)
        split = rng.randint(0, len(masks))
        ech = Gf2AffineSystem(masks[:split], ncols)
        ref = EagerGf2Echelon(masks[:split], ncols)
        assert ech.kernel_basis() == ref.kernel_basis()
        for mask in masks[split:]:
            ech.add_row(mask)
            ref.add_row(mask)
        assert set(ech.pivots) == set(ref.pivots)
        assert ech.dependent == ref.dependent
        assert ech.kernel_basis() == ref.kernel_basis()
        for _ in range(4):
            rhs = rng.getrandbits(len(masks)) if masks else 0
            assert ech.solution(rhs) == ref.solution(rhs)
            assert ech.refute(rhs) == ref.refute(rhs)
            target = rng.getrandbits(ncols)
            assert ech.express(target) == ref.express(target)
        for mask in masks:
            assert ech.express(mask) == ref.express(mask)


def _gf2_masks(rng, ncols, nrows):
    """Seeded rows over ``ncols`` columns, dense or sparse, with zero and
    duplicate rows mixed in."""
    density = rng.choice((0.05, 0.2, 0.5))
    masks = [sum(1 << c for c in range(ncols) if rng.random() < density)
             for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):
        masks.insert(rng.randint(0, len(masks)), 0)
        if masks:
            masks.insert(rng.randint(0, len(masks)), rng.choice(masks))
    return masks


def test_one_pass_echelon_equals_row_by_row():
    """Echeloning rows in the constructor, in one pass, gives what adding
    them one at a time gives, and what adding the rest one at a time after
    a constructed prefix gives: the same pivots and tracks, pivot order,
    rows, dependent rows, solutions, refuters and kernel basis; the bare
    echelon the same pivots and pivot order.  The pivot columns are the
    eager reference's."""
    rng = random.Random(241)
    for _ in range(120):
        ncols = rng.choice((1, 2, 3, 8, 31, 64, 65, 130, 200))
        masks = _gf2_masks(rng, ncols, rng.randint(0, min(2 * ncols, 60)))
        split = rng.randint(0, len(masks))
        whole = Gf2AffineSystem(masks, ncols)
        by_row = Gf2AffineSystem([], ncols)
        independent = [by_row.add_row(m) for m in masks]
        tail = Gf2AffineSystem(masks[:split], ncols)
        for m in masks[split:]:
            tail.add_row(m)
        bare = Gf2Echelon(masks, ncols)
        bare_by_row = Gf2Echelon([], ncols)
        for m in masks:
            bare_by_row.add_row(m)
        for ech in (by_row, tail):
            assert ech.pivots == whole.pivots
            assert ech._order == whole._order
            assert ech.rows == whole.rows == masks
            assert ech.dependent == whole.dependent
            assert ech.kernel_basis() == whole.kernel_basis()
        assert whole._order == sorted(whole.pivots)
        assert whole.dependent == [r for r, ind in enumerate(independent)
                                   if not ind]
        for ech in (bare, bare_by_row):
            assert ech.pivots == whole.pivots
            assert ech._order == whole._order
        assert set(whole.pivots) == set(EagerGf2Echelon(masks,
                                                        ncols).pivots)
        for _ in range(3):
            rhs = rng.getrandbits(len(masks)) if masks else 0
            assert by_row.solve(rhs) == tail.solve(rhs) == whole.solve(rhs)


# --- Integer systems -------------------------------------------------------


def test_solve_integer_feasible_fuzz():
    rng = random.Random(43)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = _rand_matrix(rng, m, n, -4, 4)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x0)) for row in mat]
        res = decide_integer(mat, rhs)
        assert res.feasible
        assert certifies(mat, rhs, res)
        for row, b in zip(mat, rhs):
            assert sum(a * v for a, v in zip(row, res.witness)) == b


def _integer_fuzz_systems():
    """The seeded systems ``(A, b)`` of the random right-hand-side fuzz."""
    rng = random.Random(47)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = _rand_matrix(rng, m, n, -3, 3)
        yield mat, [rng.randint(-6, 6) for _ in range(m)]


def test_solve_integer_random_rhs_fuzz():
    seen_infeasible = 0
    for mat, rhs in _integer_fuzz_systems():
        m, n = len(mat), len(mat[0])
        res = decide_integer(mat, rhs)
        assert certifies(mat, rhs, res)
        if not res.feasible:
            seen_infeasible += 1
            cert = res.certificate
            y = cert.vector
            for j in range(n):
                v = sum(y[i] * mat[i][j] for i in range(m))
                if cert.kind == "rational":
                    assert v == 0
                else:
                    assert Fraction(v).denominator == 1
            yb = sum(a * b for a, b in zip(y, rhs))
            if cert.kind == "rational":
                assert yb != 0
            else:
                assert Fraction(yb).denominator != 1
    assert seen_infeasible > 10


def test_solve_integer_known_cases():
    res = decide_integer([[2]], [3])
    assert not res.feasible and res.certificate.kind == "integral"
    res = decide_integer([[0]], [1])
    assert not res.feasible and certifies([[0]], [1], res)
    res = decide_integer([[1, 1]], [1])
    assert res.feasible and sum(res.witness) == 1
    res = decide_integer([[2, 4], [1, 3]], [2, 2])
    assert res.feasible
    # empty system is trivially feasible
    assert decide_integer([], [], ncols=3).feasible


# --- Modular systems --------------------------------------------------------


def _brute_mod(rows, rhs, d, n):
    for x in itertools.product(range(d), repeat=n):
        if all(sum(a * v for a, v in zip(row, x)) % d == b % d
               for row, b in zip(rows, rhs)):
            return x
    return None


MODULI = [2, 3, 4, 6, 8, 9, 12]


def _mod_fuzz_systems(d):
    """The seeded systems ``(A, b)`` of the brute-force fuzz mod d."""
    rng = random.Random(100 + d)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randrange(d) for _ in range(n)] for _ in range(m)]
        yield rows, [rng.randrange(d) for _ in range(m)]


@pytest.mark.parametrize("d", MODULI)
def test_solve_mod_brute_force(d):
    for rows, rhs in _mod_fuzz_systems(d):
        m, n = len(rows), len(rows[0])
        res = decide_mod(rows, rhs, d)
        brute = _brute_mod(rows, rhs, d, n)
        assert res.feasible == (brute is not None)
        assert certifies(rows, rhs, res, d)
        if res.feasible:
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, res.witness)) % d == b % d
        else:
            y = res.certificate
            for j in range(n):
                assert sum(y[i] * rows[i][j] for i in range(m)) % d == 0
            assert sum(a * b for a, b in zip(y, rhs)) % d != 0


def test_solve_mod_twelve_unknowns():
    # parity chain with a contradiction: x0+x1=..=x10+x11=0, sum = 1
    n = 12
    rows = [[1 if j in (i, i + 1) else 0 for j in range(n)]
            for i in range(n - 1)]
    rows.append([1] * n)
    rhs = [0] * (n - 1) + [1]
    res = decide_mod(rows, rhs, 2)
    brute = _brute_mod(rows, rhs, 2, n)
    assert brute is None and not res.feasible
    assert certifies(rows, rhs, res, 2)
    rhs2 = [0] * n
    res2 = decide_mod(rows, rhs2, 2)
    assert res2.feasible and set(res2.witness) == {0}


def _mod_differential_systems(rng, d, count):
    """Seeded sparse systems ``(rows, ncols, rhss)`` mod d, entries
    unreduced and of every valuation: some with a zero row, some with a
    duplicate row, some scaled by a proper divisor of d so that no pivot
    is a unit; one right-hand side reachable, one arbitrary."""
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 6)
        scale = rng.choice([1, 1] + [k for k in range(2, d) if d % k == 0])
        rows = [{j: scale * a for j in range(n)
                 if rng.random() < 0.6 and (a := rng.randrange(-d, 2 * d))}
                for _ in range(m)]
        if m > 2 and rng.random() < 0.5:
            rows[rng.randrange(m)] = {}
        if m > 2 and rng.random() < 0.5:
            rows[rng.randrange(m)] = dict(rows[rng.randrange(m)])
        x = [rng.randrange(d) for _ in range(n)]
        reachable = [sum(a * x[j] for j, a in row.items()) for row in rows]
        yield rows, n, (reachable, [rng.randrange(-d, 2 * d) for _ in rows])


def test_prime_power_elimination_matches_dense_reference(monkeypatch):
    """The sparse elimination mod p^e gives exactly the dense reference's
    pivots, rank, reduced rows, tracks, witnesses, certificates and
    kernel, on 600 seeded systems; through ``ModSystem`` at composite
    moduli the CRT answers are the reference's too."""
    rng = random.Random(71)
    non_unit = witnesses = certificates = 0
    for p, e in ((3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (3, 3)):
        for rows, n, rhss in _mod_differential_systems(rng, p**e, 100):
            dense = [[row.get(j, 0) for j in range(n)] for row in rows]
            ref = DensePrimePowerSystem(dense, n, p, e)
            got = linalg._PrimePowerSystem(rows, n, p, e)
            assert (got.pivots, got.rank) == (ref.pivots, ref.rank)
            assert [[row.get(j, 0) for j in range(n)]
                    for row in got.mat] == ref.mat
            assert [[t.get(i, 0) for i in range(len(rows))]
                    for t in got.track] == ref.track
            assert got.kernel() == ref.kernel()
            for rhs in rhss:
                answer = got.solve(rhs)
                assert answer == ref.solve(rhs)
                witnesses += answer[0] is not None
                certificates += answer[1] is not None
            non_unit += any(v for _r, _j, v in got.pivots)
    assert non_unit > 100 and witnesses > 600 and certificates > 400

    def dense_local(rows, n, p, e):
        return DensePrimePowerSystem(
            [[row.get(j, 0) for j in range(n)] for row in rows], n, p, e)

    for d in (6, 12, 18):
        for rows, n, rhss in _mod_differential_systems(rng, d, 50):
            got = ModSystem(rows, d, n)
            with monkeypatch.context() as patched:
                patched.setattr(linalg, "_PrimePowerSystem", dense_local)
                ref = ModSystem(rows, d, n)
            assert got.kernel() == ref.kernel()
            for rhs in rhss:
                assert got.solve(rhs) == ref.solve(rhs)


def _separates_directly(rows, rhs, y, modulus):
    """y^T A = 0 and y^T b != 0 modulo ``modulus`` (0: exactly, 1: modulo
    the integers), column by column over Fractions."""
    def vanishes(v):
        return v == 0 if modulus == 0 else (v / modulus).denominator == 1
    cols = [sum(Fraction(yi) * row[j] for yi, row in zip(y, rows))
            for j in range(len(rows[0]))]
    pairing = sum(Fraction(yi) * b for yi, b in zip(y, rhs))
    return all(map(vanishes, cols)) and not vanishes(pairing)


def _certificate_mutants(rhs, y, halve):
    """Per row i in the support of y: y_i halved, row i dropped, and b_i
    changed, each as ``(rhs, y)``."""
    for i, yi in enumerate(y):
        if yi:
            for new_y, new_b in ((halve(yi), rhs[i]), (0, rhs[i]),
                                 (yi, rhs[i] + 1)):
                yield (rhs[:i] + [new_b] + rhs[i + 1:],
                       tuple(y[:i]) + (new_y,) + tuple(y[i + 1:]))


def test_verifiers_reject_mutated_certificates():
    """Corrupted certificates from the seeded fuzz systems are rejected by
    ``separates`` exactly when a direct check finds them invalid.  A mutant can stay valid (a changed
    b_i often leaves the pairing nonzero), but most do not."""
    mutants = rejected = 0
    for mat, rhs in _integer_fuzz_systems():
        res = decide_integer(mat, rhs)
        if res.feasible:
            continue
        cert = res.certificate
        modulus = 0 if cert.kind == "rational" else 1
        assert _separates_directly(mat, rhs, cert.vector, modulus)
        for new_rhs, y in _certificate_mutants(rhs, cert.vector,
                                               lambda v: v / 2):
            bad = IntSolveResult(False, None,
                                 InfeasibilityCertificate(cert.kind, y))
            valid = _separates_directly(mat, new_rhs, y, modulus)
            assert certifies(mat, new_rhs, bad) == valid
            mutants += 1
            rejected += not valid
    for d in MODULI:
        for rows, rhs in _mod_fuzz_systems(d):
            res = decide_mod(rows, rhs, d)
            if res.feasible:
                continue
            assert _separates_directly(rows, rhs, res.certificate, d)
            for new_rhs, y in _certificate_mutants(rhs, res.certificate,
                                                   lambda v: v // 2):
                valid = _separates_directly(rows, new_rhs, y, d)
                assert certifies(rows, new_rhs, ModSolveResult(
                    False, None, y), d) == valid
                mutants += 1
                rejected += not valid
    assert mutants > 1000 and rejected > 2 * mutants / 3


def test_kernel_mod_fuzz():
    rng = random.Random(59)
    for d in (2, 3, 4, 6):
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(0, 3)
            rows = [[rng.randrange(d) for _ in range(n)] for _ in range(m)]
            gens = kernel_mod(rows, d, ncols=n)
            for v in gens:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) % d == 0
            # the generated span equals the brute-force kernel
            span = {tuple([0] * n)}
            frontier = list(span)
            while frontier:
                cur = frontier.pop()
                for g in gens:
                    nxt = tuple((a + b) % d for a, b in zip(cur, g))
                    if nxt not in span:
                        span.add(nxt)
                        frontier.append(nxt)
            brute = {
                x for x in itertools.product(range(d), repeat=n)
                if all(sum(a * b for a, b in zip(row, x)) % d == 0
                       for row in rows)}
            assert span == brute


def test_affine_annihilator_fuzz():
    rng = random.Random(61)
    for d in (2, 3, 4):
        for _ in range(30):
            n = rng.randint(1, 3)
            pts = [tuple(rng.randrange(d) for _ in range(n))
                   for _ in range(rng.randint(1, 5))]
            out = affine_annihilator([list(p) for p in pts], d)
            for r, a in out:
                for p in pts:
                    assert sum(c * v for c, v in zip(r, p)) % d == a % d
            # every brute-force annihilator lies in the span of the output
            brute = [
                (r, a)
                for r in itertools.product(range(d), repeat=n)
                for a in range(d)
                if all(sum(c * v for c, v in zip(r, p)) % d == a % d
                       for p in pts)]
            if not out:
                # only combinations of nothing: the trivial relations
                for r, a in brute:
                    stacked_ok = all(c % d == 0 for c in r) and a % d == 0
                    assert stacked_ok
                continue
            ncols = len(out)
            rows = [[out[k][0][i] for k in range(ncols)] for i in range(n)]
            rows.append([out[k][1] for k in range(ncols)])
            for r, a in brute:
                res = ModSystem([{j: v for j, v in enumerate(row) if v}
                                 for row in rows], d, ncols).solve(list(r) + [a])
                assert res.feasible


def test_mod_system_reuse():
    sysm = ModSystem([{0: 1, 1: 1}, {1: 2}], 4, 2)
    r1 = sysm.solve([2, 0])
    r2 = sysm.solve([1, 1])
    assert r1.feasible and certifies([[1, 1], [0, 2]], [2, 0], r1, 4)
    assert certifies([[1, 1], [0, 2]], [1, 1], r2, 4)


def test_sparse_systems_refuse_dense_rows():
    """A dense list row is refused by the shared column precondition, as
    bad input, at both moduli and over the integers."""
    for build in (lambda: ModSystem([[0, 1]], 2, 2),
                  lambda: ModSystem([[0, 1]], 3, 2),
                  lambda: linalg.IntegerSystem([[0, 1]], 2).solve([1])):
        with pytest.raises(PreconditionError, match="dict"):
            build()


def test_moduli_factor_by_bounded_trial_division():
    """A modulus is trial-divided below 2^16 only.  Moduli that trial
    division splits whole, 10^30 among them, factor as they did, as do a
    prime near 10^12 and the Mersenne prime 2^61 - 1, whose cofactors are
    certified prime; 2^89 - 1, prime but past the certified range, a
    product of two primes above 2^16 and two strong pseudoprimes with all
    their factors above it are refused, naming the modulus."""
    def naive(n):
        out, p = [], 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
            p += 1
        return out + [(n, 1)] * (n > 1)

    rng = random.Random(83)
    for d in [10**30, 65521 * 65537] + [rng.randrange(2, 10**9)
                                        for _ in range(300)]:
        assert [(p, e) for p, e, _ in ModSystem([], d, 1).locals] == naive(d)
    for d, locals_ in ((999_999_999_989, [(999_999_999_989, 1)]),
                       (2**61 - 1, [(2**61 - 1, 1)]),
                       (18 * (2**61 - 1), [(2, 1), (3, 2), (2**61 - 1, 1)])):
        t0 = time.perf_counter()
        system = ModSystem([{0: 1}], d, 1)
        assert [(p, e) for p, e, _ in system.locals] == locals_
        assert system.solve([5]).witness == (5,)
        assert time.perf_counter() - t0 < 1
    for d in (2**89 - 1, 1_000_003 * 1_000_033, 3825123056546413051,
              318665857834031151167461):
        with pytest.raises(PreconditionError, match=f"^modulus {d}: "):
            ModSystem([{0: 1}], d, 1)
