"""Test-side oracles for Con L, for the lower-set lattice of a QO-system,
for Delta and for distributivity.

The congruence oracle is the union-find fixed point that generated
congruences before they were read off the D-relation: close a set of merged
pairs under (x^z, y^z) and (xvz, yvz) for every z, and list Con L by closing
the principal congruences of the prime intervals under join.  Delta is
summed one generator per step of the maximal chain, and distributivity is
tested on the identity x ^ (y v z) = (x ^ y) v (x ^ z) itself.
"""

import itertools

import numpy as np

from dimw.congruence import Congruence
from dimw.lattice import FiniteLattice, _UnionFind
from dimw.monoid import _index_set


def closure_from_pairs(L, pairs):
    """Smallest congruence of L merging every given pair, by closure."""
    uf = _UnionFind(L.n)
    work = []
    for a, b in pairs:
        if uf.union(a, b):
            work.append((a, b))
    while work:
        x, y = work.pop()
        for z in range(L.n):
            for u, v in ((L.mt(x, z), L.mt(y, z)), (L.jn(x, z), L.jn(y, z))):
                if uf.union(u, v):
                    work.append((u, v))
    return Congruence(L, tuple(uf.find(i) for i in range(L.n)))


def closure_principal(L, a, b):
    return closure_from_pairs(L, [(a, b)])


def refines(c, d):
    """c <= d in Con L: every block of c lies in a block of d."""
    seen = {}
    for b, other in zip(c.block_of, d.block_of):
        if seen.setdefault(b, other) != other:
            return False
    return True


def join(c, d):
    uf = _UnionFind(c.over.n)
    for part in (c, d):
        for block in part.blocks():
            for x in block[1:]:
                uf.union(block[0], x)
    return Congruence(c.over, tuple(uf.find(i) for i in range(c.over.n)))


def closure_congruences(L):
    """Con L by join closure, in the order all_congruences lists it, with
    its refinement matrix."""
    gens = list(dict.fromkeys(closure_principal(L, a, b) for a, b in L.covers))
    found = {Congruence.identity(L)}
    frontier = list(found)
    while frontier:
        fresh = []
        for t in frontier:
            for g in gens:
                u = join(t, g)
                if u not in found:
                    found.add(u)
                    fresh.append(u)
        frontier = fresh
    ordered = sorted(found, key=lambda c: (c.block_count(), c.block_of), reverse=True)
    leq = np.array([[refines(c, d) for d in ordered] for c in ordered], dtype=bool)
    return ordered, leq


def is_simple_by_primes(L):
    """L is simple iff every prime interval generates the coarse congruence."""
    return L.n > 1 and all(closure_principal(L, a, b).block_count() == 1
                           for a, b in L.covers)


def semilattice_quotient(qo):
    """The distributive lattice of lower sets of (P, <=) together with the
    map sending a vector to the lower set generated by its support."""
    sets = qo.lower_sets()
    names = ["{" + ",".join(sorted(qo.points[i] for i in s)) + "}" for s in sets]
    member = np.zeros((len(sets), len(qo.points)), dtype=bool)
    for i, s in enumerate(sets):
        member[i, list(s)] = True
    # sets[i] <= sets[j] unless some member of sets[i] is missing from sets[j]
    lat = FiniteLattice(names, ~(member @ ~member.T), name="lowersets", _validate=False)

    def classify(x):
        return _index_set(qo.down_set(np.array(x.values) != 0))

    return lat, sets, classify


def delta_by_steps(D, a, b):
    """Delta(a, b) as one vector addition per step of the index-least
    maximal chain of [a ^ b, a v b]."""
    L = D.lattice
    out = D.qo.zero()
    for u, v in itertools.pairwise(L.maximal_chain(L.mt(a, b), L.jn(a, b))):
        out = out + D.qo.generator(D.gen[(u, v)])
    return out


def is_distributive_by_identity(L):
    """x ^ (y v z) == (x ^ y) v (x ^ z) for all x, y, z."""
    meet, join = L.meet, L.join
    for x in range(L.n):
        mx = meet[x]
        if not np.array_equal(mx[join], join[np.ix_(mx, mx)]):
            return False
    return True
