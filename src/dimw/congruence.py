"""Congruences of finite lattices, their lattice, quotients, rect L.

A congruence is stored as a partition of the element indices; the generation
loop is a union-find fixed point that merges (x^z, y^z) and (xvz, yvz) for
every merged pair (x, y) and every z.
"""

import json

import numpy as np

from .errors import ParamTooLarge
from .lattice import FiniteLattice, _UnionFind, product

CON_SIZE_GUARD = 500
CON_COUNT_GUARD = 100_000


class Congruence:
    """A lattice-compatible partition of the element indices of `over`."""

    def __init__(self, over, block_of):
        self.over = over
        # normalize block ids to the least member of each block: indices are
        # visited in ascending order, so the first one seen is the least
        rep = {}
        self.block_of = tuple(rep.setdefault(b, i) for i, b in enumerate(block_of))
        self._blocks = None

    @classmethod
    def identity(cls, L):
        return cls(L, tuple(range(L.n)))

    @classmethod
    def coarse(cls, L):
        return cls(L, (0,) * L.n)

    def blocks(self):
        if self._blocks is None:
            by_rep = {}
            for i, b in enumerate(self.block_of):
                by_rep.setdefault(b, []).append(i)
            self._blocks = tuple(tuple(v) for _, v in sorted(by_rep.items()))
        return self._blocks

    def block_count(self):
        return len(set(self.block_of))

    def same(self, x, y):
        return self.block_of[x] == self.block_of[y]

    def refines(self, other):
        """self <= other in Con L: every block of self lies in a block of other."""
        seen = {}
        for i in range(self.over.n):
            b = self.block_of[i]
            if b in seen:
                if seen[b] != other.block_of[i]:
                    return False
            else:
                seen[b] = other.block_of[i]
        return True

    def join(self, other):
        uf = _UnionFind(self.over.n)
        for part in (self, other):
            for block in part.blocks():
                for x in block[1:]:
                    uf.union(block[0], x)
        return Congruence(self.over, tuple(uf.find(i) for i in range(self.over.n)))

    def is_compatible(self):
        L = self.over
        for x in range(L.n):
            for y in range(x + 1, L.n):
                if not self.same(x, y):
                    continue
                for z in range(L.n):
                    if not self.same(L.mt(x, z), L.mt(y, z)):
                        return False
                    if not self.same(L.jn(x, z), L.jn(y, z)):
                        return False
        return True

    def to_json(self):
        L = self.over
        return json.dumps({"congruence": [[L.names[i] for i in b] for b in self.blocks()]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, L, text):
        """Parse the sidecar format: {"congruence": [[names...], ...]}."""
        doc = json.loads(text) if isinstance(text, str) else text
        block_of = [None] * L.n
        for block in doc["congruence"]:
            rep = min(L.index[x] for x in block)
            for x in block:
                if block_of[L.index[x]] is not None:
                    raise ValueError(f"element {x!r} appears in two blocks")
                block_of[L.index[x]] = rep
        if None in block_of:
            raise ValueError("blocks do not cover every element")
        theta = cls(L, tuple(block_of))
        if not theta.is_compatible():
            raise ValueError("blocks are not compatible with meet and join")
        return theta

    def __eq__(self, other):
        return self.over is other.over and self.block_of == other.block_of

    def __hash__(self):
        return hash(self.block_of)

    def __repr__(self):
        return "Congruence(%s)" % " | ".join(
            ",".join(self.over.names[i] for i in b) for b in self.blocks())


def congruence_from_pairs(L, pairs):
    """Smallest congruence of L merging every given pair."""
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


def principal_congruence(L, a, b):
    """Theta(a, b): the smallest congruence collapsing a and b."""
    return congruence_from_pairs(L, [(a, b)])


class CongruenceLattice:
    """All congruences of a finite lattice under the refinement order."""

    def __init__(self, L, congruences):
        self.over = L
        self.congruences = congruences
        m = len(congruences)
        leq = np.zeros((m, m), dtype=bool)
        for i, c in enumerate(congruences):
            for j, d in enumerate(congruences):
                leq[i, j] = c.refines(d)
        self.leq = leq
        self._lat = None

    def __len__(self):
        return len(self.congruences)

    def as_lattice(self):
        if self._lat is None:
            names = ["t%d" % i for i in range(len(self.congruences))]
            self._lat = FiniteLattice(names, self.leq.copy(),
                                      name=f"Con({self.over.name})")
        return self._lat

    def join_irreducibles(self):
        K = self.as_lattice()
        return [i for i in range(K.n) if len(K.cocovers_of(i)) == 1]

    def meet_irreducibles(self):
        """Indices of congruences with exactly one upper cover (coarse excluded)."""
        K = self.as_lattice()
        return [i for i in range(K.n) if len(K.covers_of(i)) == 1]

    def index_of(self, theta):
        return self.congruences.index(theta)


def all_congruences(L):
    """Con L, generated by closing the principal prime-interval congruences
    under join, together with the identity."""
    if L.n > CON_SIZE_GUARD:
        raise ParamTooLarge(f"congruence enumeration guarded to {CON_SIZE_GUARD} elements")
    gens = []
    seen = set()
    for a, b in L.covers:
        t = principal_congruence(L, a, b)
        if t not in seen:
            seen.add(t)
            gens.append(t)
    found = {Congruence.identity(L)}
    frontier = list(found)
    while frontier:
        fresh = []
        for t in frontier:
            for g in gens:
                u = t.join(g)
                if u not in found:
                    found.add(u)
                    fresh.append(u)
                    if len(found) > CON_COUNT_GUARD:
                        raise ParamTooLarge("congruence lattice too large")
        frontier = fresh
    ordered = sorted(found, key=lambda c: (c.block_count(), c.block_of), reverse=True)
    return CongruenceLattice(L, ordered)


def quotient_lattice(L, theta):
    """L / theta together with the block index of every element of L."""
    blocks = theta.blocks()
    proj = [0] * L.n
    for bi, block in enumerate(blocks):
        for x in block:
            proj[x] = bi
    m = len(blocks)
    leq = np.zeros((m, m), dtype=bool)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            leq[i, j] = any(L.le(x, y) for x in bi for y in bj)
    names = ["[%s]" % L.names[b[0]] for b in blocks]
    Q = FiniteLattice(names, leq, name=f"{L.name}/~", _validate=False)
    return Q, proj


def meet_irreducible_congruences(L):
    """The non-coarse meet-irreducible congruences of L, in Con L order."""
    con = all_congruences(L)
    return [con.congruences[i] for i in con.meet_irreducibles()]


def rectangular_extension(L):
    """rect L: the product of the quotients by the non-coarse meet-irreducible
    congruences, plus the natural embedding of L."""
    thetas = meet_irreducible_congruences(L)
    factors = []
    projs = []
    for theta in thetas:
        Q, proj = quotient_lattice(L, theta)
        factors.append(Q)
        projs.append(proj)
    if not factors:
        # 1-element lattice: rect is itself
        return L, list(range(L.n)), []
    R = factors[0]
    for F in factors[1:]:
        R = product(R, F)
    embed = []
    for x in range(L.n):
        pos = 0
        for F, proj in zip(factors, projs):
            pos = pos * F.n + proj[x]
        embed.append(pos)
    if len(set(embed)) != L.n:
        raise AssertionError("rectangular embedding failed to be injective")
    R.name = f"rect({L.name})"
    return R, embed, thetas
