"""Pauli arithmetic against a dense complex-matrix oracle.

The oracle builds each operator as an explicit tensor product with
numpy, so multiplication, commutation, state action and Born supports
are all cross-checked by a second, independent implementation.
"""

import itertools
import random

import numpy as np
import pytest

from contextuality.errors import PreconditionError
from contextuality.pauli import (
    GaussianStateVector,
    PauliOperator,
    apply_pauli,
    born_consistent,
    build_state_dependent_model,
    build_state_independent_model,
    close_under_commuting_products,
    commutes,
    context_splittings,
    ghz_state,
    identity,
    maximal_contexts,
    multiply,
    negate,
    parse_pauli,
)
from contextuality.fixtures import MERMIN_GENERATORS

from _oracles import all_ops, op_matrix, reference_pauli_model, state_vector

_I = np.eye(2, dtype=complex)


def test_multiply_matches_matrices_exhaustively():
    for n in (1, 2):
        ops = all_ops(n)
        mats = {p: op_matrix(p) for p in ops}
        for p in ops:
            for q in ops:
                r = multiply(p, q)
                assert np.allclose(mats[p] @ mats[q], op_matrix(r))


def test_commutes_matches_matrices_exhaustively():
    from contextuality.pauli import commutes

    for n in (1, 2):
        ops = all_ops(n)
        mats = {p: op_matrix(p) for p in ops}
        for p in ops:
            for q in ops:
                want = np.allclose(mats[p] @ mats[q], mats[q] @ mats[p])
                assert commutes(p, q) == want
                assert (multiply(p, q) == multiply(q, p)) == want


def test_labels_round_trip():
    for n in (1, 2, 3):
        for x in range(1 << n):
            for z in range(1 << n):
                for ph in (0, 2):
                    p = PauliOperator(n, x, z, ph)
                    assert parse_pauli(p.label()) == p
    assert parse_pauli("XZI") == parse_pauli("+XZI")
    assert parse_pauli("-YY").phase == 2
    assert parse_pauli("+Y") == PauliOperator(1, 1, 1, 1 * 0)
    assert parse_pauli("Y").word == "Y"


def test_parse_rejections():
    for bad in ("", "+", "AB", "+XQ", "i"):
        with pytest.raises(PreconditionError):
            parse_pauli(bad)


def test_sign_operators_square_to_identity():
    for n in (1, 2):
        for p in all_ops(n):
            if p.is_sign_operator:
                assert multiply(p, p) == identity(n)


def test_apply_pauli_matches_matrices():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n),
                          rng.randrange(4))
        entries = tuple((rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(1 << n))
        v = GaussianStateVector(n, entries)
        got = state_vector(apply_pauli(p, v))
        want = op_matrix(p) @ state_vector(v)
        assert np.allclose(got, want)


def test_ghz_state_vector():
    v = ghz_state(3)
    arr = state_vector(v)
    want = np.zeros(8, dtype=complex)
    want[0] = want[7] = 1
    assert np.allclose(arr, want)
    assert not v.is_zero
    assert GaussianStateVector(1, ((0, 0), (0, 0))).is_zero


def test_born_consistent_matches_projectors():
    rng = random.Random(9)
    checked = 0
    for _ in range(250):
        n = rng.randint(1, 3)
        # random commuting set of sign operators
        ops = []
        pool = [p for p in all_ops(n) if p.is_sign_operator]
        rng.shuffle(pool)
        for p in pool:
            if all(multiply(p, q) == multiply(q, p) for q in ops):
                ops.append(p)
            if len(ops) == rng.randint(1, 4):
                break
        state = ghz_state(n)
        assign = {p: rng.randrange(2) for p in ops}
        got = born_consistent(assign, state)
        proj = np.eye(1 << n, dtype=complex)
        for p, a in assign.items():
            proj = proj @ (np.eye(1 << n) + ((-1) ** a) * op_matrix(p)) / 2
        want = bool(np.linalg.norm(proj @ state_vector(state)) > 1e-9)
        assert got == want
        checked += 1
    assert checked == 250


def test_born_consistent_preconditions():
    state = ghz_state(2)
    with pytest.raises(PreconditionError):
        born_consistent({parse_pauli("XI"): 0, parse_pauli("ZI"): 0}, state)
    ybad = PauliOperator(2, 2, 2, 1)  # phase i: not a sign operator
    with pytest.raises(PreconditionError):
        born_consistent({ybad: 0}, state)


def test_closure_sizes_frozen():
    mermin = close_under_commuting_products(
        [parse_pauli(s) for s in MERMIN_GENERATORS])
    assert len(mermin) == 20
    words = {p.label() for p in mermin}
    assert "+II" in words and "-II" in words and "+YY" in words
    # every signed word over {X, Y, I}: z-bits only where x-bits sit
    gens = [p for p in all_ops(3) if p.is_sign_operator
            and (p.z & ~p.x) == 0]
    closure = close_under_commuting_products(gens)
    assert len(closure) == 72
    again = close_under_commuting_products(closure)
    assert set(again) == set(closure)
    # every member has an even number of Z-letters in its word
    assert all(sum(ch == "Z" for ch in p.word) % 2 == 0 for p in closure)


def test_maximal_contexts_mermin():
    closure = close_under_commuting_products(
        [parse_pauli(s) for s in MERMIN_GENERATORS])
    ctxs = maximal_contexts(closure)
    assert len(ctxs) == 6 and all(len(c) == 8 for c in ctxs)
    members = set(closure)
    for ctx in ctxs:
        for p, q in itertools.combinations(ctx, 2):
            assert multiply(p, q) == multiply(q, p)
            assert multiply(p, q) in members
        outside = [p for p in closure if p not in set(ctx)]
        for p in outside:
            assert not all(
                multiply(p, q) == multiply(q, p) for q in ctx)


def _brute_splittings(ctx):
    ops = sorted(set(ctx), key=lambda p: (p.word, p.phase))
    minus = negate(identity(ops[0].n))
    out = []
    for vals in itertools.product(range(2), repeat=len(ops)):
        s = dict(zip(ops, vals))
        if any(s[multiply(p, q)] != (s[p] + s[q]) % 2
               for p in ops for q in ops):
            continue
        if minus in s and s[minus] != 1:
            continue
        out.append(s)
    return out


def test_context_splittings_vs_brute_force():
    closure = close_under_commuting_products(
        [parse_pauli(s) for s in MERMIN_GENERATORS])
    for ctx in maximal_contexts(closure):
        got = context_splittings(list(ctx))
        brute = _brute_splittings(ctx)
        key = lambda s: tuple(sorted((p.label(), v) for p, v in s.items()))
        assert sorted(map(key, got)) == sorted(map(key, brute))
        assert len(got) == 4


def test_context_splittings_preconditions():
    with pytest.raises(PreconditionError):
        context_splittings([])
    with pytest.raises(PreconditionError):
        context_splittings([parse_pauli("+XX")])  # no identity
    with pytest.raises(PreconditionError):
        context_splittings(
            [identity(2), parse_pauli("+XI"), parse_pauli("+ZI")])
    # i*I and i*X square to -I, which the context lacks
    with pytest.raises(PreconditionError):
        context_splittings([identity(1), PauliOperator(1, 0, 0, 1),
                            parse_pauli("+X"), PauliOperator(1, 1, 0, 1)])


def _random_generators(rng, cap=40):
    """1-4 random signed words on 1-4 qubits, mostly with -I..I, whose
    closure has at most ``cap`` members."""
    while True:
        n = rng.randint(1, 4)
        gens = [parse_pauli(rng.choice("+-") + "".join(
            rng.choice("IXYZ") for _ in range(n)))
            for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.8:
            gens.append(negate(identity(n)))
        if len(close_under_commuting_products(gens)) <= cap:
            return n, gens


def _random_state(rng, n, gens):
    """Gaussian-integer amplitudes, often sparse, then projected by
    (I +/- g) for some generators g, so that many joint outcomes get zero
    probability."""
    density = rng.choice((0.15, 0.3, 0.9))
    size = rng.choice((1, 2))
    state = None
    while state is None or state.is_zero:
        state = GaussianStateVector(n, tuple(
            (rng.randint(-size, size), rng.randint(-size, size))
            if rng.random() < density else (0, 0) for _ in range(1 << n)))
    for g in gens:
        sign = rng.choice((-1, 0, 1))
        moved = apply_pauli(g, state).entries
        projected = GaussianStateVector(n, tuple(
            (a + sign * c, b + sign * d)
            for (a, b), (c, d) in zip(state.entries, moved)))
        if sign and not projected.is_zero:
            state = projected
    return state


def _structured_dump(st):
    m = st.model
    return (m.scenario, m.sections, m.rows,
            [list(t.items()) for t in st.context_ops], st.action)


def _build_or_error(build):
    try:
        return _structured_dump(build())
    except PreconditionError:
        return PreconditionError


def test_build_matches_label_level_reference():
    rng = random.Random(10)
    kinds = {"none": 0, "ghz": 0, "gaussian": 0}
    for k in range(120):
        n, gens = _random_generators(rng)
        kind = ("none", "ghz", "gaussian")[k % 3]
        if kind == "none":
            got = _build_or_error(lambda: build_state_independent_model(gens))
            want = _build_or_error(lambda: reference_pauli_model(gens))
        else:
            state = (ghz_state(n) if kind == "ghz"
                     else _random_state(rng, n, gens))
            got = _build_or_error(
                lambda: build_state_dependent_model(gens, state))
            want = _build_or_error(lambda: reference_pauli_model(gens, state))
        assert got == want, (kind, [str(g) for g in gens])
        kinds[kind] += got is not PreconditionError
    assert min(kinds.values()) >= 30, kinds


def test_born_support_on_the_basis_matches_projectors():
    """The state-dependent build tests Born supports on each context's
    basis only; every homomorphism it keeps (drops) must have a nonzero
    (zero) product of projectors over all the context's members."""
    rng = random.Random(11)
    checked = dropped = 0
    for _ in range(150):
        # up to four commuting words, so that contexts reach 2^5 members
        n = rng.randint(1, 4)
        size = rng.randint(2, 5)
        pool = [p for p in all_ops(n) if p.is_sign_operator]
        rng.shuffle(pool)
        gens = [negate(identity(n))]
        for p in pool:
            if len(gens) < size and all(commutes(p, q) for q in gens):
                gens.append(p)
        state = _random_state(rng, n, gens)
        model = build_state_dependent_model(gens, state).model
        closure = {p.label(): p for p in close_under_commuting_products(gens)}
        vec = state_vector(state)
        for ctx, kept in zip(model.scenario.contexts, model.sections):
            ops = [closure[lab] for lab in ctx]
            for s in context_splittings(ops):
                proj = np.eye(1 << n, dtype=complex)
                for p, a in s.items():
                    proj = proj @ (np.eye(1 << n) + (-1) ** a * op_matrix(p))
                want = bool(np.linalg.norm(proj @ vec) > 1e-9)
                section = {p.label(): a for p, a in s.items()}
                got = any(t.as_dict() == section for t in kept)
                assert got == want, (ctx, section)
                checked += 1
                dropped += not want
    assert checked > 600 and dropped > 300, (checked, dropped)
