"""Test-side oracles for Con L, for the lower-set lattice of a QO-system,
for Delta, for distributivity and for the cross-checks of dimension and
geometry.

Con L and the lower sets are listed here in full, where the library only
counts them off the D-class order and compares that order with the point
order.  `down_sets` lists the down-sets of an order, one bool mask each, and
`all_congruences` turns the down-sets of the D-class order into one block
table, `CongruenceLattice.blocks`, ordered by block count and then block_of,
descending; its refinement order, irreducibles and height are read off the
table, not off the class order.

The union-find here is the one the library used for its equality classes
before they became array components; the congruence oracle, the
projectivity classes of `tests/theory.py` and the join of congruences run
on it.  The congruence oracle is the union-find fixed point that generated
congruences before they were read off the D-relation: close a set of merged
pairs under (x^z, y^z) and (xvz, yvz) for every z, and list Con L by closing
the principal congruences of the prime intervals under join.  The D relation
itself is found by its definition, trying every x as a witness, where the
library reads it off the arrow relations.  A congruence
here is a block_of tuple with each block named by its least member, the
root of its union-find set, as in the rows of Con L's table.  A partition is
compatible when every pair of one block agrees on x^z and xvz for every z,
tested pair by pair; perspectivity searches the axes x one at a time,
or compares each row of the meet and join tables with the whole tables as
it did before the library sorted the keys of each axis, and the sectional
complements of x in [0, a] scan that interval.  Delta is summed one
generator per step of the maximal chain, and distributivity is
tested on the identity x ^ (y v z) = (x ^ y) v (x ^ z) itself.  A
dimension word is parsed into a list of terms first and built from the list
after, as the parser ran before it filled the multiset as it read.  The axiom
check and the sampled stage of the correspondence check call `delta` once
per interval, where the library reads the values of many intervals as the
rows of one array.  The maximal chain Delta sums over is walked one cover
at a time, independent of the lattice's step columns.  The caustic pairs are the upper triangle of
both collapse conditions filled as dense tables over every ordered pair, as
they were before one shrinking list of the pairs a < b tested them.  The
join table is the cover recursion filled and tested one row at a time, in
element indices, as it was before the rows held ranks and one pass tested
them all.  The order closure ORs the rows of a bool matrix down a
topological order, and the covers scan each rank-space row with argmax,
clearing the up-set of each cover found, as they ran before both held their
rows as int bitsets.

The lattice predicates are tested on their definitions, element by element
over the meet/join tables, where the library reads them off the covers: the
modular law for every c <= a, the semimodular exchange for every pair, a
complement for every x in every interval [a, b] or [0, a], and every element
a join of atoms.  The covering squares look the top corner c v a of each
pair of covers up in the join table, as they did before the library read
it off the order.

The cross-check oracles are the element loops that V-modularity, DEP,
n-distributivity and the decomposition closure ran before they became passes
over the tables: a breadth-first search of weakly projective intervals with
one bounded breadth-first search over partial sums per target, where the
library tests point membership; the transitive closure of weak projectivity
on element pairs, n^2 x n^2 cells, that V-modularity read its targets off
before it tested the point order for down-sets; the pairwise product of DEP
word values; Huhn's identity evaluated one tuple at a time; and the closure
rescanned pair by pair until nothing changes.  Normality scans the member
pairs one at a time, and a neutral ideal grows from a worklist.  The lattice index, the
homogeneous base sets and the sectionally complemented branch of
n-distributivity come from a depth-first search of homogeneous sequences,
rerun for every element and every base, where the library grows all
sequences at once, level by level.
"""

import functools
import itertools
import random

import numpy as np

from dimw.congruence import DClasses, quotient_lattice
from dimw.dimension import _MULTIPLE, DimensionWord, _primes_mask, delta, dimension_monoid
from dimw.errors import CycleError, MismatchError
from dimw.lattice import (FiniteLattice, _cover_index, _irreducibles, _matches, _padded,
                          _transitive_closure)
from dimw.monoid import DimVector

import theory


class UnionFind:
    """Disjoint sets over 0..n-1; the least index of a set is its root."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _index_set(members):
    """The indices of a bool membership vector, as a frozenset."""
    return frozenset(np.flatnonzero(members).tolist())


def closure_from_pairs(L, pairs):
    """Smallest congruence of L merging every given pair, by closure, as a
    block_of tuple: the root of each union-find set is its least member."""
    uf = UnionFind(L.n)
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
    return tuple(uf.find(i) for i in range(L.n))


def closure_principal(L, a, b):
    return closure_from_pairs(L, [(a, b)])


def is_compatible_by_pairs(L, theta):
    """Every x ~ y of one block of the block_of row theta has x^z ~ y^z and
    xvz ~ yvz for every z."""
    for x in range(L.n):
        for y in range(x + 1, L.n):
            if theta[x] != theta[y]:
                continue
            for z in range(L.n):
                if theta[L.mt(x, z)] != theta[L.mt(y, z)]:
                    return False
                if theta[L.jn(x, z)] != theta[L.jn(y, z)]:
                    return False
    return True


def perspective_by_axes(L, a, b):
    """First axis x (in element order) with a^x == b^x and avx == bvx."""
    for x in range(L.n):
        if L.mt(a, x) == L.mt(b, x) and L.jn(a, x) == L.jn(b, x):
            return x
    return None


def sectional_complements(L, x, a):
    """All y with x ^ y == bottom and x v y == a (x <= a assumed)."""
    return [y for y in theory.interval(L, L.bottom, a)
            if L.mt(x, y) == L.bottom and L.jn(x, y) == a]


def perspectivity_by_axes(L):
    """sim[a, b]: some axis makes a and b perspective, one search per pair."""
    sim = np.zeros((L.n, L.n), dtype=bool)
    for a in range(L.n):
        sim[a, a] = True
        for b in range(a + 1, L.n):
            for x in range(L.n):
                if L.mt(a, x) == L.mt(b, x) and L.jn(a, x) == L.jn(b, x):
                    sim[a, b] = sim[b, a] = True
                    break
    return sim


def perspectivity_by_rows(L):
    """sim[a, b]: a and b are perspective, one row pass per a over the whole
    meet and join tables."""
    sim = np.empty((L.n, L.n), dtype=bool)
    for a in range(L.n):
        sim[a] = ((L.meet[a] == L.meet) & (L.join[a] == L.join)).any(axis=1)
    return sim


def refines(c, d):
    """c <= d in Con L: every block of c lies in a block of d."""
    seen = {}
    for b, other in zip(c, d):
        if seen.setdefault(b, other) != other:
            return False
    return True


def join(c, d):
    """The join of two block_of tuples, each block named by a member of it."""
    uf = UnionFind(len(c))
    for part in (c, d):
        for x, b in enumerate(part):
            uf.union(b, x)
    return tuple(uf.find(i) for i in range(len(c)))


def closure_congruences(L):
    """Con L by join closure, in the order all_congruences lists it, with
    its refinement matrix."""
    gens = list(dict.fromkeys(closure_principal(L, a, b) for a, b in L.covers))
    found = {tuple(range(L.n))}
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
    ordered = sorted(found, key=lambda c: (len(set(c)), c), reverse=True)
    leq = np.array([[refines(c, d) for d in ordered] for c in ordered], dtype=bool)
    return ordered, leq


def down_sets(below):
    """The down-sets of the order below[c, d] (c <= d) as a mask per row.
    Points join in a linear extension, each to the sets that hold all its
    predecessors."""
    k = len(below)
    sets = [0]
    for c in np.argsort(below.sum(axis=0), kind="stable").tolist():
        need = sum(1 << int(d) for d in np.flatnonzero(below[:, c]) if d != c)
        sets += [s | 1 << c for s in sets if s & need == need]
    # bit c of a set is column c: its little-endian bytes, unpacked
    raw = b"".join(s.to_bytes(k // 8 + 1, "little") for s in sets)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(sets), -1)
    return np.unpackbits(bits, axis=1, count=k, bitorder="little").view(bool)


def lower_sets(qo):
    """All lower sets of (P, <=), one bool membership row over the points each."""
    return down_sets(qo.below)


class CongruenceLattice:
    """All congruences of a finite lattice under the refinement order.

    Congruence i collapses the D-classes marked in members[i] and has the
    block_of row blocks[i]; rows go by block count, then block_of, descending.
    """

    def __init__(self, classes, members):
        L = classes.over
        blocks = classes.partitions(members)
        # a block is named by its least member
        count = (blocks == np.arange(L.n)).sum(axis=1)
        order = np.lexsort(np.vstack([blocks.T[::-1], count]))[::-1]
        self.over, self.classes = L, classes
        self.members, self.blocks = members[order], blocks[order]
        self._index = {m.tobytes(): i for i, m in enumerate(self.members)}
        # members[i] <= members[j] unless some class of i is missing from j
        self.leq = ~(self.members @ ~self.members.T)

    def __len__(self):
        return len(self.blocks)

    def index_of(self, masks):
        """Table positions of the congruences whose class masks are the rows."""
        return np.array([self._index[m.tobytes()] for m in masks], dtype=np.intp)

    @functools.cached_property
    def lattice(self):
        """Con L as a lattice under refinement, its elements named t0, t1, ..."""
        return FiniteLattice([f"t{i}" for i in range(len(self))], self.leq,
                             name=f"Con({self.over.name})")

    def join_irreducibles(self):
        """Indices of the congruences with one lower cover."""
        return [i for i in range(len(self)) if len(theory.cocovers_of(self.lattice, i)) == 1]

    def meet_irreducibles(self):
        """Indices of the congruences with one upper cover."""
        return [i for i in range(len(self)) if len(theory.covers_of(self.lattice, i)) == 1]


def all_congruences(L):
    """Con L: one congruence per down-set of the D-class order."""
    classes = DClasses(L)
    return CongruenceLattice(classes, down_sets(classes.below))


def propto(x, y):
    """x is dominated by a multiple of y; the multiplier is bounded by the
    largest finite coefficient of x."""
    n = max(1, int(theory.max_finite(x)))
    return x <= y * n


def congruence_correspondence_by_listing(L, D, con):
    """The correspondence check as it ran on the listings: the lower sets of
    the point order are the images of the congruences of `con`, the points
    below a point with a prime interval that the congruence collapses;
    refinement is inclusion of the images; a cover's principal congruence
    has its point's lower set as image; and on 200 seeded quadruples
    x == y under con(a, b), read off its block row, is the bounded-multiple
    domination of delta values.  Raises MismatchError."""
    hit = np.zeros((len(con), len(D.qo)), dtype=bool)
    rows, primes = np.nonzero(con.blocks[:, L.cover_lo] == con.blocks[:, L.cover_hi])
    hit[rows, D.point_of_cover[primes]] = True
    images = theory.down_set(D.qo, hit)
    found = {m.tobytes() for m in images}
    if len(found) != len(con) or found != {m.tobytes() for m in lower_sets(D.qo)}:
        raise MismatchError("congruence lattice does not match the lower sets")
    if not np.array_equal(con.leq, ~(images @ ~images.T)):
        raise MismatchError("refinement order does not match inclusion")
    rng = random.Random(7)
    quads = [[rng.randrange(L.n) for _ in range(4)] for _ in range(200)]
    rows = con.index_of(con.classes.collapsed_by(list(L.covers) + [q[2:] for q in quads]))
    want = theory.down_set(D.qo, D.point_of_cover[:, None] == np.arange(len(D.qo)))
    if (images[rows[:len(L.covers)]] != want).any():
        raise MismatchError("principal congruence image is not the point's lower set")
    for (x, y, a, b), theta in zip(quads, con.blocks[rows[len(L.covers):]].tolist()):
        if (theta[x] == theta[y]) != propto(delta(D, x, y), delta(D, a, b)):
            raise MismatchError("collapsing and bounded domination disagree")


def sampled_domination_by_loop(L, D, classes):
    """The sampled stage of the correspondence check as it ran before the
    values came in rows: on the same 200 seeded quadruples, mask inclusion
    against `propto` of two `delta` calls per quadruple.  The names of the
    first quadruple where they disagree, or None."""
    rng = random.Random(7)
    quads = [[rng.randrange(L.n) for _ in range(4)] for _ in range(200)]
    xy, ab = (classes.collapsed_by([q[s] for q in quads]) for s in (slice(2), slice(2, 4)))
    for (x, y, a, b), ok in zip(quads, (~(xy & ~ab).any(axis=1)).tolist()):
        if ok != propto(delta(D, x, y), delta(D, a, b)):
            return tuple(L.names[z] for z in (x, y, a, b))
    return None


def axiom_check_by_loop(L, D):
    """The axiom check as a loop over the incomparable pairs in row-major
    order, four `delta` calls and one vector addition each.  Raises
    MismatchError at the first failing pair, additivity's message first."""
    for a in range(L.n):
        for b in np.flatnonzero(~(L.leq[a] | L.leq[:, a])).tolist():
            m, j = L.mt(a, b), L.jn(a, b)
            up = delta(D, a, j)
            if delta(D, m, j) != delta(D, m, a) + up:
                raise MismatchError("additivity axiom broken",
                                    witness=(L.names[a], L.names[b]))
            if up != delta(D, m, b):
                raise MismatchError("transposition axiom broken",
                                    witness=(L.names[a], L.names[b]))


def d_relation_by_witnesses(L):
    """Freese's D on J(L) ascending: j D k iff some x has j <= k v x but not
    j <= k_* v x, one pass of |J| * n cells per j.  A maximal m above
    k_* v x and not above j is meet-irreducible, with j up m and k down m."""
    J, lower = _irreducibles(L._down)
    up, up_lo = L.join[J], L.join[lower]
    out = np.empty((len(J), len(J)), dtype=bool)
    for i, j in enumerate(J.tolist()):
        le = L.leq[j]
        out[i] = (le[up] & ~le[up_lo]).any(axis=1)
    return out


def is_simple_by_primes(L):
    """L is simple iff every prime interval generates the coarse congruence."""
    return L.n > 1 and all(len(set(closure_principal(L, a, b))) == 1
                           for a, b in L.covers)


def semilattice_quotient(qo):
    """The distributive lattice of lower sets of (P, <=) together with the
    map sending a vector to the lower set generated by its support."""
    sets = sorted(map(_index_set, lower_sets(qo)), key=lambda s: (len(s), sorted(s)))
    names = ["{" + ",".join(sorted(qo.points[i] for i in s)) + "}" for s in sets]
    member = np.zeros((len(sets), len(qo.points)), dtype=bool)
    for i, s in enumerate(sets):
        member[i, list(s)] = True
    # sets[i] <= sets[j] unless some member of sets[i] is missing from sets[j]
    lat = FiniteLattice(names, ~(member @ ~member.T), name="lowersets", _validate=False)

    def classify(x):
        return _index_set(theory.down_set(qo, np.array(x.values) != 0))

    return lat, sets, classify


def closure_by_rows(n, edges):
    """The reflexive-transitive closure of the edges on 0..n-1 as a bool
    matrix, or CycleError: each row ORs the rows of its successors, filled
    from the last element of a topological order back to the first."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    stack = sorted((i for i in range(n) if indeg[i] == 0), reverse=True)
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != n:
        raise CycleError("cover pairs induce a cycle")
    leq = np.zeros((n, n), dtype=bool)
    for v in reversed(order):
        leq[v, v] = True
        for w in succ[v]:
            leq[v] |= leq[w]
    return leq


def covers_by_argmax(leq, order):
    """The covering pairs of leq, ascending, given a linear extension
    `order`: in each rank-space row, argmax finds the first element left of
    the strict up-set, and the row drops it and everything above it."""
    n = len(order)
    ranked = leq[np.ix_(order, order)]
    outside = ~ranked
    pairs = []
    for i in range(n):
        rest = ranked[i].copy()
        rest[i] = False
        j = int(rest.argmax())
        while rest[j]:
            pairs.append((order[i], order[j]))
            rest &= outside[j]
            j = int(rest.argmax())
    pairs.sort()
    return tuple(pairs)


def join_table_by_rows(leq, up, order):
    """The join table of the order leq by the cover recursion, one row at a
    time in element indices, or None if some pair has no join: each row
    with several upper covers takes the candidate of least rank and tests
    that it lies below every other candidate before the next row."""
    n = len(order)
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    cols = np.arange(n)
    join = np.empty((n, n), dtype=np.int32)
    for a in reversed(order):
        below = leq[:, a]
        if not up[a]:
            if not below.all():
                return None
            join[a] = a
            continue
        if len(up[a]) == 1:  # one candidate: it is the join
            join[a] = np.where(below, a, join[up[a][0]])
            continue
        cand = join[up[a]]
        best = cand[rank[cand].argmin(axis=0), cols]
        if not (leq[best, cand].all(axis=0) | below).all():
            return None
        join[a] = np.where(below, a, best)
    return join


def maximal_chain_by_covers(L, a, b):
    """The index-least maximal chain from a to b, stepping each time to the
    least upper cover that lies below b."""
    chain = [a]
    z = a
    while z != b:
        z = min(w for w in theory.covers_of(L, z) if theory.le(L, w, b))
        chain.append(z)
    return chain


def _collapses_below(leq, join, meet, up):
    """ok[a, b], for incomparable a and b: x v b == a v b for every x in
    ]a ^ b, a[, tested on the upper covers w <= a of a ^ b (`up` pads them
    with the top).  On the dual order (leq.T, the tables swapped, lower
    covers padded with the bottom) the same pass tests x ^ b == a ^ b for
    every x in ]a, a v b[."""
    out = ~(leq | leq.T)
    cols = np.arange(len(leq))
    for slot in up.T:
        w = slot[meet]
        out &= ~leq[w, cols[:, None]] | (join[w, cols] == join)
    return out


def caustic_pairs_by_tables(L):
    """The caustic pairs (a, b), a < b, in row-major order, from both
    collapse conditions computed as dense tables over every ordered pair."""
    low = _collapses_below(L.leq, L.join, L.meet, _padded(L._up, L.top))
    high = _collapses_below(L.leq.T, L.meet, L.join, _padded(L._down, L.bottom))
    return [tuple(ab) for ab in np.argwhere(np.triu(low & high, 1)).tolist()]


def delta_by_steps(D, a, b):
    """Delta(a, b) as one vector addition per step of the index-least
    maximal chain of [a ^ b, a v b]."""
    L = D.lattice
    out = D.qo.zero()
    for u, v in itertools.pairwise(maximal_chain_by_covers(L, L.mt(a, b), L.jn(a, b))):
        out = out + D.qo.generator(D.gen[(u, v)])
    return out


def parse_word_by_terms(text, L):
    """A dimension word read as the parser read it before it filled the
    multiset in the same pass: each term stripped, its `k*(...)` pattern
    tried, its names looked up, the (a, b, k) triples listed, and the word
    built from the list."""
    index = L.index
    terms = []
    for raw in text.split("+") if text.strip() else ():
        raw = raw.strip()
        mult = 1
        m = _MULTIPLE.fullmatch(raw) if "*" in raw else None
        if m:
            mult, raw = int(m.group(1)), m.group(2).strip()
        if ".." not in raw:
            raise ValueError(f"bad word term {raw!r}")
        aname, bname = raw.split("..", 1)
        a, b = index.get(aname.strip()), index.get(bname.strip())
        if a is None or b is None:
            name = (aname if a is None else bname).strip()
            raise ValueError(f"unknown element {name!r} in word {text!r}")
        terms.append((a, b, mult))
    return DimensionWord(terms)


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


def covering_squares_by_join(lo, hi, join):
    """The covering squares of `lattice._covering_squares` over the covers
    lo[i] < hi[i], sorted by (lo, hi), with c v a read from the join table
    (the meet table for the dual's covers)."""
    i, k = _matches(lo, lo)
    other = i != k
    i, c = i[other], hi[k[other]]
    return i, _cover_index(lo, hi, len(join), c, join[c, hi[i]])


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
    atoms = theory.atoms(L)
    for x in range(L.n):
        s = L.bottom
        for a in atoms:
            if theory.le(L, a, x):
                s = L.jn(s, a)
        if s != x:
            return False
    return True


def _weak_targets(L, iv):
    """One-step weakly projective successors of the interval iv."""
    u, v = iv
    out = set()
    for c in range(L.n):
        if L.mt(v, c) == u:  # [u, v] up into [c, d] for any d >= v v c
            base = L.jn(v, c)
            for d in range(L.n):
                if theory.le(L, base, d):
                    out.add((c, d))
        if L.jn(u, c) == v:  # [u, v] down into [c', c] for any c' <= u ^ c
            cap = L.mt(u, c)
            for cp in range(L.n):
                if theory.le(L, cp, cap):
                    out.add((cp, c))
    return out


def _bounded_sum_search(target, parts, bound):
    """Is target a sum of at most `bound` vectors from parts (with repeats)?

    Breadth-first over partial sums; every prefix of a valid sum stays
    componentwise below the target, so domination is a complete filter.
    """
    sums = {tuple(target.qo.zero().values)}
    if theory.is_zero(target):
        return True
    for _ in range(bound):
        fresh = set()
        for s in sums:
            sv = DimVector(target.qo, s)
            for p in parts:
                t = sv + p
                if t == target:
                    return True
                if t <= target and t.values not in sums:
                    fresh.add(t.values)
        if not fresh:
            return False
        sums |= fresh
    return False


def is_v_modular_by_search(L, D, bound=4):
    """V-modularity with a breadth-first search of the weakly projective
    targets of each prime and one sum search per target."""
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


def _weak_projectivity(L):
    """reach[u*n + v, c*n + d]: [u, v] is weakly projective into [c, d] in one
    or more steps.  One step goes up, [u, v] -> [c, d] when v ^ c == u and
    v v c <= d, or down, [u, v] -> [c', c] when u v c == v and c' <= u ^ c."""
    n = L.n
    ids = np.arange(n)
    up = ((L.meet[None] == ids[:, None, None])[..., None]       # [u, v, c, .]
          & L.leq[L.join][None])                                # [., v, c, d]
    cap = L.leq.T[L.meet].transpose(0, 2, 1)                    # [u, c', c]
    down = ((L.join[:, None, :] == ids[None, :, None])[:, :, None, :]  # [u, v, ., c]
            & cap[:, None])                                     # [u, ., c', c]
    return _transitive_closure((up | down).reshape(n * n, n * n))


def is_v_modular_by_closure(L, D):
    """V-modularity with the targets of each prime read off one transitive
    closure of weak projectivity on element pairs, n^2 x n^2 cells, and a
    target holding a prime's point when one of its primes has that point."""
    n = L.n
    reach = _weak_projectivity(L)
    # inside[c*n + d, p]: some prime of [c, d] has point p
    c, d = np.divmod(np.arange(n * n), n)
    rows, primes = np.nonzero(_primes_mask(L, c[:, None], d[:, None]))
    inside = np.zeros((n * n, len(D.qo)), dtype=bool)
    inside[rows, D.point_of_cover[primes]] = True
    # [u, v] goes up into itself (c = u, d = v), so its row holds it
    fails = reach[L.cover_lo * n + L.cover_hi] & ~inside[:, D.point_of_cover].T
    hit = np.argwhere(fails)
    if not len(hit):
        return True, None
    s, t = hit[0].tolist()
    return False, (L.covers[s], divmod(t, n))


def dep_check_by_pairs(L, factors, D, k=3, max_pool=8, seed=11):
    """DEP comparing the order of every pair of word values upstairs with
    the order in every factor L / theta, theta in `factors`, one pair at a
    time."""
    quots = []
    for theta in factors:
        Q, proj = quotient_lattice(L, theta)
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
                for a0 in theory.interval(L, L.bottom, a):
                    if a0 == L.bottom or a0 == a:
                        continue
                    for b0 in range(n):
                        if not rel[a0, b0] or not theory.le(L, b0, b) or b0 == L.bottom:
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


def is_normal_by_pairs(L, sim, members=None):
    """Normality by scanning the member pairs a < b in the order given: the
    first independent projective pair that is not perspective fails."""
    approx = _transitive_closure(sim)
    members = list(members) if members is not None else list(range(L.n))
    for a in members:
        for b in members:
            if b > a and L.mt(a, b) == L.bottom and approx[a, b] and not sim[a, b]:
                return False, (a, b)
    return True, None


def neutral_ideal_by_worklist(L, gens, sim):
    """The neutral ideal grown from a worklist: each new member adds the
    elements below it, its perspectives and its joins with the members."""
    ideal = set()
    work = list(gens) + [L.bottom]
    while work:
        z = work.pop()
        if z in ideal:
            continue
        ideal.add(z)
        for w in range(L.n):
            if (theory.le(L, w, z) or sim[z, w]) and w not in ideal:
                work.append(w)
        for y in list(ideal):
            j = L.jn(y, z)
            if j not in ideal:
                work.append(j)
    return sorted(ideal)


def max_homogeneous_below_by_search(L, x, sim, base=None, need=None):
    """Longest nontrivial homogeneous sequence below x by depth-first search
    over the partners of each base in index order; with `base` set only
    that base is tried, and with `need` set, returns whether a sequence of
    that length exists."""
    best = 0
    candidates = [a for a in theory.interval(L, L.bottom, x) if a != L.bottom]
    bases = [base] if base is not None else candidates

    def extend(seq, join, partners):
        nonlocal best
        best = max(best, len(seq))
        if need is not None and best >= need:
            return True
        for i, b in enumerate(partners):
            if L.mt(b, join) == L.bottom:
                if extend(seq + [b], L.jn(join, b), partners[i + 1:]):
                    return True
        return False

    for a in bases:
        if a == L.bottom or not theory.le(L, a, x):
            continue
        partners = [b for b in candidates if sim[a, b] and b != a]
        if extend([a], a, partners):
            return best if need is None else True
        if need is None and best >= L.height():
            break
    return best if need is None else best >= need


def lattice_index_by_search(L, sim):
    """The lattice index of every element, one search per element."""
    return [0 if x == L.bottom else max_homogeneous_below_by_search(L, x, sim)
            for x in range(L.n)]


def homogeneous_base_set_by_search(L, m, sim):
    """The bottom, then every element that starts a homogeneous sequence of
    length m, one search per base."""
    return [L.bottom] + [a for a in range(L.n) if a != L.bottom and
                         max_homogeneous_below_by_search(L, L.top, sim, base=a, need=m)]
