"""Transfer-matrix oracle for binary pair covers (cycles and chains).

Independent of the library: it reads the JSON document, walks the cover
as a path or a cycle, and decides which edge sections extend to a global
assignment with 2x2 boolean matrix products.
"""

from __future__ import annotations

import json


def _boolmul(a, b):
    return tuple(tuple(any(a[i][k] and b[k][j] for k in (0, 1))
                       for j in (0, 1)) for i in (0, 1))


_IDENTITY = ((True, False), (False, True))


def _walk(doc):
    """Edges in walk order, [(context, i, j, allowed (x_i, x_j) pairs)],
    and whether the walk is closed.

    The cover must be x0-x1-...-x{n-1}, optionally closed by x{n-1}-x0.
    """
    labels = doc["measurements"]
    n = len(labels)
    pos = {x: k for k, x in enumerate(labels)}
    by_edge = {}
    for ci, ctx in enumerate(doc["contexts"]):
        i, j = sorted(pos[x] for x in ctx)
        rows = doc["sections"][str(ci)]
        by_edge[(i, j)] = (ci, {(r[0], r[1]) for r in rows})
    closed = (0, n - 1) in by_edge and n > 2
    walk = []
    for i in range(n - 1 if not closed else n):
        j = (i + 1) % n
        if i < j:
            ci, pairs = by_edge[(i, j)]
        else:
            ci, back = by_edge[(j, i)]
            pairs = {(b, a) for a, b in back}
        walk.append((ci, i, j, pairs))
    if len(walk) != len(by_edge):
        raise ValueError("cover is not a path or a cycle over x0..x{n-1}")
    return walk, closed


def classify_pair_cover(text: str):
    """(kind, witnesses) with witnesses a sorted list of (context, row).

    ``row`` lists the outcomes in the context's label order, as written
    in the document.
    """
    doc = json.loads(text)
    walk, closed = _walk(doc)
    mats = [tuple(tuple((a, b) in pairs for b in (0, 1)) for a in (0, 1))
            for _ci, _i, _j, pairs in walk]
    m = len(mats)
    extends = []   # (context, i, j, a, b, extends?)
    if closed:
        total = _IDENTITY
        for t in mats:
            total = _boolmul(total, t)
        if not (total[0][0] or total[1][1]):
            return "strongly_contextual", []
        for k, (ci, i, j, pairs) in enumerate(walk):
            rest = _IDENTITY
            for step in range(1, m):
                rest = _boolmul(rest, mats[(k + step) % m])
            extends.extend((ci, i, j, a, b, rest[b][a])
                           for a, b in pairs)
    else:
        # reach[k]: values of x_k with a valid prefix; back[k]: with a suffix
        reach = [{0, 1}]
        for t in mats:
            reach.append({b for a in reach[-1] for b in (0, 1) if t[a][b]})
        back = [{0, 1}]
        for t in reversed(mats):
            back.append({a for a in (0, 1) for b in back[-1] if t[a][b]})
        back.reverse()
        for k, (ci, i, j, pairs) in enumerate(walk):
            extends.extend((ci, i, j, a, b,
                            a in reach[k] and b in back[k + 1])
                           for a, b in pairs)
    # rows list outcomes in the context's label order, x_min first
    witnesses = sorted((ci, [a, b] if i < j else [b, a])
                       for ci, i, j, a, b, ok in extends if not ok)
    if witnesses:
        return "logically_contextual", witnesses
    return "noncontextual", []
