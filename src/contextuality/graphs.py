"""Small graph helpers: deterministic maximal-clique enumeration."""

from __future__ import annotations

from .scenario import _set_bits


def maximal_cliques(n: int, adjacent) -> list[tuple[int, ...]]:
    """All maximal cliques of the graph on ``range(n)``, canonically sorted.

    ``adjacent(i, j)`` must be symmetric and irreflexive; it is read once
    per pair into int bitmask rows.  Bron-Kerbosch with pivoting on those
    bitmasks, its calls ``(r, p, x)`` kept on an explicit stack, so a
    clique of any size needs no recursion; the output is independent of
    search order because each clique is sorted and the list of cliques is
    sorted lexicographically.
    """
    neighbours = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if adjacent(i, j):
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i
    out: list[tuple[int, ...]] = []
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(tuple(_set_bits(r)))
            continue
        most = -1
        for v in _set_bits(p | x):
            degree = (neighbours[v] & p).bit_count()
            if degree > most:
                most, pivot = degree, v
        for v in _set_bits(p & ~neighbours[pivot]):
            stack.append((r | 1 << v, p & neighbours[v], x & neighbours[v]))
            p &= ~(1 << v)
            x |= 1 << v
    out.sort()
    return out

