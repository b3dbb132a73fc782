"""Seeded generators of JSON model documents for the benchmark.

Every generator takes a ``random.Random`` (or nothing, for fixed
instances) and returns plain JSON text, so the library only ever sees
documents.  The Pauli closure used to cap random draws is computed here
with its own small word arithmetic, independent of the library.
"""

from __future__ import annotations

import itertools
import json
import random

# --- Pauli documents -----------------------------------------------------

# Product of two single-qubit letters: (letter, power of i).
_LETTER_MUL = {
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}


def _letter_mul(a: str, b: str) -> tuple[str, int]:
    if a == "I":
        return b, 0
    if b == "I" or a == b:
        return ("I", 0) if a == b else (a, 0)
    return _LETTER_MUL[(a, b)]


def _commute(p: str, q: str) -> bool:
    clashes = sum(1 for a, b in zip(p[1:], q[1:])
                  if a != "I" and b != "I" and a != b)
    return clashes % 2 == 0


def _mul(p: str, q: str) -> str:
    """Product of two commuting signed Hermitian words, e.g. "+XY"."""
    power = (0 if p[0] == "+" else 2) + (0 if q[0] == "+" else 2)
    word = []
    for a, b in zip(p[1:], q[1:]):
        c, k = _letter_mul(a, b)
        word.append(c)
        power += k
    power %= 4
    if power % 2:
        raise ValueError(f"{p} and {q} do not commute")
    return ("+" if power == 0 else "-") + "".join(word)


def pauli_closure_size(words) -> int:
    """Size of the closure under products of commuting members."""
    pool = set(words)
    frontier = set(pool)
    while frontier:
        fresh = set()
        for p in frontier:
            for q in pool:
                if _commute(p, q):
                    r = _mul(p, q)
                    if r not in pool:
                        fresh.add(r)
        pool |= fresh
        frontier = fresh
    return len(pool)


def pauli_document(generators, state: str | None = None) -> str:
    block = {"generators": list(generators)}
    if state is not None:
        block["state"] = state
    return json.dumps({"pauli": block})


def ghz_document(n: int) -> str:
    """Both signs of every {X, Y, I}^n word plus -I..I, on ghz:n."""
    gens = [sign + "".join(w)
            for w in itertools.product("XYI", repeat=n) for sign in "+-"]
    gens.append("-" + "I" * n)
    return pauli_document(gens, f"ghz:{n}")


def random_pauli_generators(rng, cap: int) -> tuple[list[str], int]:
    """One draw of the widened criterion-7 generator, closure <= cap.

    2-4 qubits, 1-4 random signed words plus -I..I.  Returns the
    generators and the size of their closure.
    """
    while True:
        n = rng.randint(2, 4)
        gens = [rng.choice("+-") + "".join(rng.choice("IXYZ")
                                           for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        gens.append("-" + "I" * n)
        size = pauli_closure_size(gens)
        if size <= cap:
            return gens, size


def pauli_sweep_documents(rng, count: int, cap: int) -> list[str]:
    """The first ``count`` capped random draws, as they come.  Every
    other document is state dependent on ghz:n."""
    docs = []
    for k in range(count):
        gens, _size = random_pauli_generators(rng, cap)
        n = len(gens[0]) - 1
        docs.append(pauli_document(gens, f"ghz:{n}" if k % 2 == 0 else None))
    return docs


# --- Binary cycles and chains ------------------------------------------

EDGE_KINDS = ("func", "three", "full")


def _edge_support(rng, kind: str, planted) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
    if kind == "full":
        return pairs
    if kind == "func":
        flip = (planted[0] ^ planted[1]) if planted else rng.randint(0, 1)
        return [(a, a ^ flip) for a in (0, 1)]
    drop = rng.choice([p for p in pairs if p != planted])
    return [p for p in pairs if p != drop]


def pair_cover_document(n: int, supports) -> str:
    """Explicit document over x0..x{n-1} with contexts {x_i, x_i+1}.

    ``supports[i]`` lists the allowed (x_i, x_i+1) outcome pairs; with
    n supports the last edge joins x{n-1} back to x0, closing a cycle.
    Contexts are written in the scenario's canonical order, labels in
    measurement order, so each row lines up with its context as the
    loader reads it.
    """
    labels = [f"x{i}" for i in range(n)]
    edges = []
    for i, support in enumerate(supports):
        j = (i + 1) % n
        if i < j:
            edges.append(((i, j), [list(p) for p in support]))
        else:
            edges.append(((j, i), [[b, a] for a, b in support]))
    edges.sort()
    return json.dumps({
        "measurements": labels,
        "outcome_modulus": 2,
        "contexts": [[labels[i], labels[j]] for (i, j), _ in edges],
        "sections": {str(k): sorted(rows)
                     for k, (_, rows) in enumerate(edges)},
    })


def _pair_cover(rng, n: int, nedges: int, kind_of, plant: bool) -> str:
    """Binary pair cover whose i-th edge has kind ``kind_of(i)``.

    With n edges the cover is a cycle, with n - 1 an open chain.  With
    ``plant`` a global assignment is drawn first and every edge keeps it,
    so the model has at least one global section.  Every edge has both
    outcomes in each marginal, so the model is no-signalling.
    """
    glob = [rng.randint(0, 1) for _ in range(n)] if plant else None
    supports = []
    for i in range(nedges):
        kind = kind_of(i)
        planted = (glob[i], glob[(i + 1) % n]) if plant else None
        supports.append(_edge_support(rng, kind, planted))
    return pair_cover_document(n, supports)


def random_pair_cover(rng, n: int, closed: bool, weights,
                      plant: bool) -> str:
    """Binary n-cycle (or open chain) whose edge kinds are drawn with
    the odds ``weights`` of the func, three and full kinds."""
    return _pair_cover(
        rng, n, n if closed else n - 1,
        lambda _i: rng.choices(EDGE_KINDS, weights=weights)[0], plant)


def hardy_cycle_document(rng, n: int, threes: int, plant: bool) -> str:
    """Binary n-cycle of functional edges with ``threes`` 3-element
    edges and one full edge at seeded positions."""
    kinds = ["three"] * threes + ["full"] + ["func"] * (n - threes - 1)
    rng.shuffle(kinds)
    return _pair_cover(rng, n, n, kinds.__getitem__, plant)


def parity_cycle_document(rng, n: int, odd: bool) -> str:
    """Binary n-cycle of functional edges with the given total parity.

    An odd cycle has no global section (strongly contextual); an even
    one is noncontextual.
    """
    flips = [rng.randint(0, 1) for _ in range(n - 1)]
    flips.append((sum(flips) + odd) % 2)
    return pair_cover_document(
        n, [[(a, a ^ f) for a in (0, 1)] for f in flips])


def slow_cycle_document(seed: int) -> str:
    """The seeded 48-cycle draw (edge-kind odds 2:1:1) used for fixed
    instances whose classification is dominated by one pinned search."""
    return random_pair_cover(random.Random(seed), 48, True, (2, 1, 1),
                             False)


def chain_document(rng, n: int) -> str:
    """Open chain of n measurements with seeded edge kinds."""
    return random_pair_cover(rng, n, closed=False, weights=(1, 1, 1),
                             plant=False)
