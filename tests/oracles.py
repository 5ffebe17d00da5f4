"""Test-side oracles for Con L, for the lower-set lattice of a QO-system,
for Delta, for distributivity and for the cross-checks of dimension and
geometry.

The congruence oracle is the union-find fixed point that generated
congruences before they were read off the D-relation: close a set of merged
pairs under (x^z, y^z) and (xvz, yvz) for every z, and list Con L by closing
the principal congruences of the prime intervals under join.  Delta is
summed one generator per step of the maximal chain, and distributivity is
tested on the identity x ^ (y v z) = (x ^ y) v (x ^ z) itself.  The
maximal chain Delta sums over is walked one cover at a time, independent of
the lattice's step columns.

The lattice predicates are tested on their definitions, element by element
over the meet/join tables, where the library reads them off the covers: the
modular law for every c <= a, the semimodular exchange for every pair, a
complement for every x in every interval [a, b] or [0, a], and every element
a join of atoms.  The residual x -> y searches the even truncation levels
of y - x for the first exact one, where the library computes that level.

The cross-check oracles are the element loops that V-modularity, DEP,
n-distributivity and the decomposition closure ran before they became
passes over the tables: a breadth-first search of weakly projective
intervals with one sum search per target, the pairwise product of DEP word
values, Huhn's identity evaluated one tuple at a time, and the closure
rescanned pair by pair until nothing changes.
"""

import itertools
import random

import numpy as np

from dimw.congruence import Congruence, all_congruences, quotient_lattice
from dimw.dimension import _bounded_sum_search, _primes_mask, delta, dimension_monoid
from dimw.errors import NotBelow
from dimw.geometry import sectional_complements
from dimw.lattice import FiniteLattice, _UnionFind
from dimw.monoid import INF, _index_set, truncate


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


def maximal_chain_by_covers(L, a, b):
    """The index-least maximal chain from a to b, stepping each time to the
    least upper cover that lies below b."""
    chain = [a]
    z = a
    while z != b:
        z = min(w for w in L.covers_of(z) if L.le(w, b))
        chain.append(z)
    return chain


def delta_by_steps(D, a, b):
    """Delta(a, b) as one vector addition per step of the index-least
    maximal chain of [a ^ b, a v b]."""
    L = D.lattice
    out = D.qo.zero()
    for u, v in itertools.pairwise(maximal_chain_by_covers(L, L.mt(a, b), L.jn(a, b))):
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


def is_modular_by_identity(L):
    """a >= c implies a ^ (b v c) == (a ^ b) v c, for all a, b, c."""
    meet, join, leq = L.meet, L.join, L.leq
    for c in range(L.n):
        above = np.flatnonzero(leq[c])
        lhs = meet[np.ix_(above, join[:, c])]
        rhs = join[meet[above, :], c]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def is_semimodular_by_pairs(L):
    """a ^ b < a a cover implies b < a v b a cover, for all a, b."""
    cov = np.zeros((L.n, L.n), dtype=bool)
    for a, b in L.covers:
        cov[a, b] = True
    for a in range(L.n):
        for b in range(L.n):
            if cov[L.mt(a, b), a] and not cov[b, L.jn(a, b)]:
                return False
    return True


def is_sectionally_complemented_by_tables(L):
    """Every x <= a has a y <= a with x ^ y = 0 and x v y = a."""
    for a in range(L.n):
        inside = L.leq[:, a]
        ok = (L.meet == L.bottom) & (L.join == a) & inside[None, :]
        if not ok[inside].any(axis=1).all():
            return False
    return True


def is_relatively_complemented_by_tables(L):
    """Every x in [a, b] has a y in [a, b] with x ^ y = a and x v y = b."""
    for a in range(L.n):
        for b in np.flatnonzero(L.leq[a]):
            inside = L.leq[a] & L.leq[:, b]
            ok = (L.meet == a) & (L.join == int(b)) & inside[None, :]
            if not ok[inside].any(axis=1).all():
                return False
    return True


def is_atomistic_by_atom_joins(L):
    """Every x is the join of the atoms below it."""
    atoms = L.atoms()
    for x in range(L.n):
        s = L.bottom
        for a in atoms:
            if L.le(a, x):
                s = L.jn(s, a)
        if s != x:
            return False
    return True


def residual_by_levels(x, y):
    """The residual by search: zbar = y - x truncated at the levels 0, 2,
    4, ... until the sum is exact."""
    if not x <= y:
        raise NotBelow("residual requires x <= y")
    zbar = tuple(INF if yv == INF else yv - xv for xv, yv in zip(x.values, y.values))
    limit = int(max(x.max_finite(), y.max_finite())) + 1
    for n in range(limit + 1):
        t = truncate(x.qo, zbar, 2 * n)
        if x + t == y:
            return t
    raise AssertionError("residual construction failed; input not canonical?")


def _weak_targets(L, iv):
    """One-step weakly projective successors of the interval iv."""
    u, v = iv
    out = set()
    for c in range(L.n):
        if L.mt(v, c) == u:  # [u, v] up into [c, d] for any d >= v v c
            base = L.jn(v, c)
            for d in range(L.n):
                if L.le(base, d):
                    out.add((c, d))
        if L.jn(u, c) == v:  # [u, v] down into [c', c] for any c' <= u ^ c
            cap = L.mt(u, c)
            for cp in range(L.n):
                if L.le(cp, cap):
                    out.add((cp, c))
    return out


def is_v_modular_by_search(L, bound=4, D=None):
    """V-modularity with a breadth-first search of the weakly projective
    targets of each prime and one sum search per target."""
    D = D or dimension_monoid(L)
    for source in L.covers:
        val = delta(D, *source)
        seen = {source}
        frontier = [source]
        while frontier:
            fresh = []
            for iv in frontier:
                for tgt in _weak_targets(L, iv):
                    if tgt in seen:
                        continue
                    seen.add(tgt)
                    fresh.append(tgt)
            frontier = fresh
        for (c, d) in sorted(seen):
            within = np.flatnonzero(_primes_mask(L, c, d)).tolist()
            parts = sorted({delta(D, *L.covers[i]) for i in within}, key=lambda v: v.values)
            if not _bounded_sum_search(val, parts, bound):
                return False, (source, (c, d))
    return True, None


def dep_check_by_pairs(L, con=None, D=None, k=3, max_pool=8, seed=11):
    """DEP comparing the order of every pair of word values upstairs with
    the order in every factor, one pair at a time."""
    con = con if con is not None else all_congruences(L)
    D = D or dimension_monoid(L)
    quots = []
    for i in con.meet_irreducibles():
        Q, proj = quotient_lattice(L, con.congruences[i])
        quots.append((dimension_monoid(Q), proj))
    rng = random.Random(seed)
    pool = list(L.covers)
    if len(pool) > max_pool:
        pool = sorted(rng.sample(pool, max_pool))
    words = []
    for length in range(0, k + 1):
        words.extend(itertools.combinations_with_replacement(pool, length))
    if len(words) > 400:
        words = [words[0]] + rng.sample(words[1:], 399)

    def evaluate(word):
        big = D.qo.zero()
        for a, b in word:
            big = big + delta(D, a, b)
        small = []
        for DQ, proj in quots:
            v = DQ.qo.zero()
            for a, b in word:
                v = v + delta(DQ, proj[a], proj[b])
            small.append(v)
        return big, small

    evaluated = [evaluate(w) for w in words]
    for (bx, sx), (by, sy) in itertools.product(evaluated, evaluated):
        upstairs = bx <= by
        downstairs = all(u <= v for u, v in zip(sx, sy))
        if upstairs != downstairs:
            return False
    return True


def n_distributive_by_tuples(L, n):
    """Huhn's identity evaluated one multiset of n + 1 elements at a time."""
    meet, join = L.meet, L.join
    for ys in itertools.combinations_with_replacement(range(L.n), n + 1):
        m_all = ys[0]
        for y in ys[1:]:
            m_all = int(meet[m_all, y])
        rhs = None
        for i in range(n + 1):
            m_i = None
            for j, y in enumerate(ys):
                if j != i:
                    m_i = y if m_i is None else int(meet[m_i, y])
            col = join[:, m_i]
            rhs = col if rhs is None else meet[rhs, col]
        if not np.array_equal(join[:, m_all], rhs):
            return False
    return True


def decomposition_closure_by_loop(L, rel):
    """The decomposition closure of rel, rescanning every pair until a pass
    adds nothing."""
    n = L.n
    out = np.array(rel, dtype=bool) | np.eye(n, dtype=bool)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if out[a, b]:
                    continue
                hit = False
                for a0 in L.interval(L.bottom, a):
                    if a0 == L.bottom or a0 == a:
                        continue
                    for b0 in range(n):
                        if not rel[a0, b0] or not L.le(b0, b) or b0 == L.bottom:
                            continue
                        for a1 in sectional_complements(L, a0, a):
                            for b1 in sectional_complements(L, b0, b):
                                if out[a1, b1]:
                                    hit = True
                                    break
                            if hit:
                                break
                        if hit:
                            break
                    if hit:
                        break
                if hit:
                    out[a, b] = True
                    changed = True
    return out
