"""Maximal-clique enumeration against brute force, with no recursion."""

import inspect
import itertools
import random
import sys

from contextuality.graphs import maximal_cliques


def _low_recursion_limit(fn):
    """``fn()`` with at most 100 frames of headroom above the caller."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(limit)


def _brute_force_cliques(n, edges):
    cliques = [set(c) for k in range(n + 1)
               for c in itertools.combinations(range(n), k)
               if all(frozenset(p) in edges
                      for p in itertools.combinations(c, 2))]
    return sorted(tuple(sorted(c)) for c in cliques
                  if not any(c < other for other in cliques))


def test_a_large_clique_needs_no_recursion():
    """The complete graph on 1,100 vertices is one clique, found 1,100
    levels deep."""
    n = 1100
    got = _low_recursion_limit(lambda: maximal_cliques(n, lambda i, j: True))
    assert got == [tuple(range(n))]


def test_maximal_cliques_match_brute_force():
    rng = random.Random(151)
    for _ in range(150):
        n = rng.randint(0, 12)
        density = rng.random()
        edges = {frozenset(p) for p in itertools.combinations(range(n), 2)
                 if rng.random() < density}
        got = _low_recursion_limit(lambda: maximal_cliques(
            n, lambda i, j: frozenset((i, j)) in edges))
        assert got == _brute_force_cliques(n, edges)
