"""Oracle: finite lattices freely generated by a poset, via Dean's extension
of Whitman's conditions.  Independent of the package internals; used to pin
the hard-coded coproduct builtins.

Terms are hash-consed tuples: ('g', name), ('j', frozenset), ('m', frozenset).
"""

from functools import lru_cache

import numpy as np

from theory import cocovers_of, covers_of

_ORDER = set()


@lru_cache(maxsize=None)
def _le(s, t):
    ks, kt = s[0], t[0]
    if ks == "g" and kt == "g":
        return s[1] == t[1] or (s[1], t[1]) in _ORDER
    if ks == "j":
        return all(_le(x, t) for x in s[1])
    if kt == "m":
        return all(_le(s, y) for y in t[1])
    if ks == "g" and kt == "j":
        return any(_le(s, y) for y in t[1])
    if ks == "m" and kt == "g":
        return any(_le(x, t) for x in s[1])
    # Whitman's condition for meet <= join
    return any(_le(x, t) for x in s[1]) or any(_le(s, y) for y in t[1])


def _jn(s, t):
    if _le(s, t):
        return t
    if _le(t, s):
        return s
    parts = set()
    for x in (s, t):
        parts |= x[1] if x[0] == "j" else {x}
    parts = frozenset(x for x in parts if not any(x != y and _le(x, y) for y in parts))
    return ("j", parts)


def _mt(s, t):
    if _le(s, t):
        return s
    if _le(t, s):
        return t
    parts = set()
    for x in (s, t):
        parts |= x[1] if x[0] == "m" else {x}
    parts = frozenset(x for x in parts if not any(x != y and _le(y, x) for y in parts))
    return ("m", parts)


def free_lattice_leq(generators, order_pairs, cap=500):
    """Element list (as terms) and the order matrix of the free lattice over
    the given finite poset; raises if more than `cap` elements appear."""
    global _ORDER
    pairs = set(order_pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    _ORDER = pairs
    _le.cache_clear()
    elems = [("g", g) for g in generators]

    def known(t):
        return any(_le(t, e) and _le(e, t) for e in elems)

    frontier = list(elems)
    while frontier:
        new = []
        for s in elems:
            for t in frontier:
                for op in (_jn, _mt):
                    u = op(s, t)
                    if not known(u):
                        elems.append(u)
                        new.append(u)
                        if len(elems) > cap:
                            raise RuntimeError("free lattice larger than cap")
        frontier = new
    n = len(elems)
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            leq[i, j] = _le(elems[i], elems[j])
    return elems, leq


def lattice_isomorphism(A, B):
    """An index bijection preserving the order both ways, or None."""
    if A.n != B.n:
        return None

    def prof(L, i):
        return (len(covers_of(L, i)), len(cocovers_of(L, i)),
                int(L.leq[i].sum()), int(L.leq[:, i].sum()))

    pa = [prof(A, i) for i in range(A.n)]
    pb = [prof(B, i) for i in range(B.n)]
    if sorted(pa) != sorted(pb):
        return None
    order = sorted(range(A.n), key=lambda i: (int(A.leq[:, i].sum()), i))
    image = [None] * A.n
    used = [False] * B.n

    def extend(k):
        if k == A.n:
            return True
        i = order[k]
        for j in range(B.n):
            if used[j] or pb[j] != pa[i]:
                continue
            if all(A.leq[i, order[k2]] == B.leq[j, image[order[k2]]]
                   and A.leq[order[k2], i] == B.leq[image[order[k2]], j]
                   for k2 in range(k)):
                image[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                image[i] = None
                used[j] = False
        return False

    return image if extend(0) else None
