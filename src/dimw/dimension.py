"""The dimension pipeline: caustic pairs, relation emission, the primitive
monoid presentation, the covering-square classes of a modular lattice,
interval evaluation, and the cross-validation checks.

D L has two derivations here, and the input picks one.  `dimension_monoid`,
behind `dim`, `eval`, `compare`, `dot --labels` and `catalog`, reads a
modular lattice off its covering squares and any other lattice off the
caustic presentation (`_presented_monoid`).  `check` is the cross-validation
verb, so it builds its own D by the presentation on every lattice and
compares it with the monoids of the dual, the product factors and the
quotients, which take the square classes where those are modular.  The
two agree on a modular lattice: each pair of distinct upper covers a, c of
one element m transposes the prime interval [m, a] up to [c, c v a]; these
transpositions generate projectivity of prime intervals, because a
transposition [u, v] -> [x, x v v] walks a maximal chain from u to x one
covering square per step; and by Jordan-Holder-Dedekind any two maximal
chains of an interval have prime intervals projective in pairs.  So D L is
free on the projectivity classes, an antichain of points numbered by least
cover, as the presentation numbers them.  The test suite compares the two
on every modular lattice it reaches.

Generators are the prime intervals, as their indices in L.covers from
emission to the monoid: the relations are rows of cover indices, and the
monoid holds `point_of_cover`, the point of each prime interval as one int
array over L.covers.  `DimensionMonoid.gen`, the same map keyed by cover
pairs, is a read-only view kept for readers outside the package; no module
here reads it.  For every caustic pair {a, b} and both orientations, the
emitted relation set is the path-free closure of the first-step/last-step
relations: in a finite lattice every prime interval of [w, b] lies on some
maximal chain from w to b, so the per-path relations and the quantified
family generate each other.

Both stages are array passes over the order, meet and join tables.  Caustic
pairs come from one candidate list per block of rows, the incomparable
pairs a < b, that only shrinks: each upper cover slot of a ^ b drops the
pairs it fails, and then each lower cover slot of a v b, on the survivors.
Emission finds the first and last steps of all oriented pairs at once in
the sorted cover arrays (`cover_lo`, `cover_hi`), tests "[p, q] lies in
[lo, hi]" as one mask over the covers per query, and sorts and deduplicates
the relations as rows of cover indices.

Delta is additive along chains, so Delta(a, b) is summed over one maximal
chain of [a ^ b, a v b], the index-least one.  The lattice walks it along a
step column per upper end, memoised on the lattice, that holds the cover
index of each step, so a chain costs two list lookups per step; the
generator points of its prime intervals are one gather from
`point_of_cover`, counted with one bincount and summed in one
`QOSystem.combination`, which does Python work only at the positions that
become infinite and skips the product when the QO-system has no relation
at all.  Each monoid caches its values by pair and by interval, in one
dict: a pair whose interval is known costs no walk.  `DimensionWord.parse`
fills the word's multiset as it reads the terms, tries its compiled
`k*(...)` pattern only on terms that contain `*`, and a word sums in the
order of its terms.

`check` reads Delta in batches instead.  `delta_rows` walks the
index-least chains of many pairs in lockstep, one gather over the upper
cover slots per step for all of them, and counts their points with one
bincount: the values come back as the rows of one float array.  The axiom
check runs over blocks of incomparable pairs and the sampled
correspondence over its 400 pairs that way, the index and relations
checks of `check --all` read Delta(0, x) for every x from one call, and
`dep_check` reads the values of its pooled primes from one call per
monoid.  The walk follows only the requested chains: pointer jumping from
every element toward each target would hold n x k counts per target, 27M
on `chain:300`.

V-modularity and DEP are table passes too.  `is_v_modular` reads weak
projectivity off the point order, which is the order of congruences of
primes: by Dilworth (1950) a prime is weakly projective into [c, d] iff
con(c, d) collapses it, so it reaches the targets whose primes have a
point at or above its own.  Delta of a prime is its generator vector, which a target
holds iff the prime's point is the point of one of the target's primes, so
L is V-modular iff the points of the primes of every interval form a
down-set; the test needs no sum search, no bound and no closure on element
pairs.  `dep_check` stacks the word values upstairs and in each factor as
float arrays and compares their order matrices whole.  The test suite
checks both against the element loops and the closure they replaced
(`tests/oracles.py`).

Delta is functorial: a product projection, a quotient map and order
reversal each send a prime interval to a prime interval or collapse it.
One check per map: `functor_checks` for order reversal, the one `check`
runs, and `product_functor_check` and `quotient_functor_check`, which the
test suite runs.  Each finds the image covers as index arrays, by
`searchsorted` in the target's sorted cover keys, and tests the map of
generator points that they induce for being an isomorphism of QO-systems
onto the target (`_natural_map`).
"""

import functools
import itertools
import random
import re
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .congruence import _block_names, quotient_lattice
from .errors import MismatchError, NotDistributive
from .lattice import dual as lattice_dual
from .lattice import (_components, _cover_index, _distinct_rows, _irreducibles, _matches,
                      _padded, is_distributive, is_modular, product)
from .monoid import INF, QOSystem, build_qosystem


# the row blocks of the caustic-pair passes and of the absorption masks hold
# at most this many cells, which bounds their temporaries on large lattices
_BLOCK_CELLS = 1 << 14


def caustic_pairs(L):
    """All unordered incomparable pairs whose side intervals collapse, as
    the rows (a, b), a < b, of a (k, 2) int array in row-major order.

    The pair is caustic when x v b == a v b for every x in ]a ^ b, a[
    (`low`) and x ^ b == a ^ b for every x in ]a, a v b[ (`high`).  Each x
    of ]a ^ b, a[ lies above an upper cover w <= a of a ^ b, and x v b grows
    with x, so `low` holds iff every upper cover w of a ^ b has w </= a or
    w v b == a v b; dually, `high` holds iff every lower cover v of a v b has
    a </= v or v ^ b == a ^ b.  The cover slots are padded with the top
    (below no such a) and the bottom (above no such a), which pass.

    The conditions on ]a ^ b, b[ and ]b, a v b[ follow: for y in ]a ^ b, b[,
    a v y lies in [a, a v b], and below a v b it would meet b in a ^ b (by
    `high`, or as a itself) although y <= (a v y) ^ b; dually with `low`.

    So the answer is the upper triangle of `low & high` over the ordered
    pairs, triu(low & high, 1) in table form, and this pass tests just the
    cells it reads.  Each block of rows lists its incomparable pairs a < b
    as index arrays, which keep row-major order.  Every cover slot is one
    conjunct of `low` or `high`, and a pair leaves the list at its first
    failing slot; `high` runs on the survivors of `low` alone.  A pair stays
    iff every conjunct holds, that is iff its cell of triu(low & high, 1) is
    set, and dropping pairs keeps the order of the rest.
    """
    n = L.n
    leq, meet, join = (t.ravel() for t in (L.leq, L.meet, L.join))
    # each upper cover w as its row offset w * n into the flat tables
    up, down = L._up_slots.T * n, L._down_slots.T
    step = max(1, _BLOCK_CELLS // n)
    found = [np.empty((0, 2), dtype=np.intp)]
    for s in range(0, n, step):
        a, b = np.nonzero(np.triu(~(L.leq[s:s + step] | L.leq[:, s:s + step].T), s + 1))
        if not len(a):
            continue
        a += s
        m, j = meet[a * n + b], join[a * n + b]
        for slot in up:
            w = slot[m]
            keep = ~leq[w + a] | (join[w + b] == j)
            a, b, m, j = a[keep], b[keep], m[keep], j[keep]
        for slot in down:
            v = slot[j]
            keep = ~leq[a * n + v] | (meet[v * n + b] == m)
            a, b, m, j = a[keep], b[keep], m[keep], j[keep]
        found.append(np.stack([a, b], axis=1))
    return np.concatenate(found)


def _primes_mask(L, lo, hi):
    """Mask over L.covers of the prime intervals [p, q] with lo <= p < q <= hi;
    for columns lo and hi of k queries, a k x |covers| stack of masks."""
    return L.leq[lo, L.cover_lo] & L.leq[L.cover_hi, hi]


def caustic_relations(L):
    """Equality and absorption pairs over the prime intervals of L, as two
    (m, 2) int arrays of cover indices, each sorted and distinct.

    For each caustic pair in both orientations (s, t), with m = s ^ t and
    j = s v t: every first step (m, w), w <= t, equals every last step
    (v, j), s <= v; every prime interval of [w, t] is absorbed by (m, w),
    and every prime interval of [t, v], t <= v, by (v, j).
    """
    pairs = caustic_pairs(L)
    s, t = np.concatenate([pairs, pairs[:, ::-1]]).T
    lo, hi, leq = L.cover_lo, L.cover_hi, L.leq
    # steps as (pair, cover) rows ordered by pair; the cover list is sorted
    # by lower end, `by_hi` orders it by upper end
    i, first = _matches(lo, L.meet[s, t])
    keep = leq[hi[first], t[i]]
    i, first = i[keep], first[keep]
    by_hi = np.argsort(hi, kind="stable")
    k, last = _matches(hi[by_hi], L.join[s, t])
    last = by_hi[last]
    keep = leq[s[k], lo[last]]
    r, q = _matches(k[keep], i)
    X = _distinct_rows(np.stack([first[r], last[keep][q]], axis=1))
    # absorption queries (lo, hi, absorbing cover); an empty interval absorbs nothing
    keep = leq[t[k], lo[last]]
    k, last = k[keep], last[keep]
    queries = np.concatenate([np.stack([hi[first], t[i], first], axis=1),
                              np.stack([t[k], lo[last], last], axis=1)])
    queries = queries[queries[:, 0] != queries[:, 1]]
    absorbed = [np.empty((0, 2), dtype=np.intp)]
    step = max(1, _BLOCK_CELLS // max(1, len(L.covers)))
    for at in range(0, len(queries), step):
        part = queries[at:at + step]
        row, prime = np.nonzero(_primes_mask(L, part[:, :1], part[:, 1:2]))
        absorbed.append(np.stack([prime, part[row, 2]], axis=1))
    return X, _distinct_rows(np.concatenate(absorbed))


@dataclass(eq=False)
class DimensionMonoid:
    lattice: object
    qo: object
    point_of_cover: np.ndarray     # the point of each prime interval, in L.covers order
    _delta_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.point_of_cover.flags.writeable = False

    @functools.cached_property
    def gen(self):
        """Prime interval -> point index, a read-only view of
        `point_of_cover` kept for readers outside the package."""
        return MappingProxyType(dict(zip(self.lattice.covers, self.point_of_cover.tolist())))

    def classes(self):
        """Prime intervals grouped by generator point, in point order."""
        groups = [[] for _ in range(len(self.qo.points))]
        for pq, p in zip(self.lattice.covers, self.point_of_cover.tolist()):
            groups[p].append(pq)
        return groups

    def delta_word(self, word):
        """The sum of the word's terms, from its first term in the word's
        order; 0 if it is empty.  Addition is componentwise, so the order
        does not change the value."""
        out = None
        for (a, b), mult in word._mult.items():
            value = delta(self, a, b)
            if mult != 1:
                value = value * mult
            out = value if out is None else out + value
        return self.qo.zero() if out is None else out

    def report_dict(self):
        L = self.lattice
        return {
            "qosystem": self.qo.to_json_dict(),
            "generators": {"%s..%s" % (L.names[a], L.names[b]): self.qo.points[p]
                           for (a, b), p in zip(L.covers, self.point_of_cover.tolist())},
            "p0": sorted(self.qo.points[p] for p in self.qo.p0),
            "classes": {self.qo.points[i]: ["%s..%s" % (L.names[a], L.names[b])
                                            for a, b in grp]
                        for i, grp in enumerate(self.classes())},
        }


def _presented_monoid(L):
    """D L from its presentation: the prime intervals modulo the caustic
    equalities and absorptions, on any finite lattice."""
    return DimensionMonoid(L, *build_qosystem(len(L.covers), *caustic_relations(L)))


def _square_classes(L):
    """The generator point of each prime interval of a modular L, in
    L.covers order: the components of the covering-square graph, numbered
    by least cover.  The graph joins the cover (m, a) to (c, c v a) for each
    pair of distinct upper covers a, c of m; the module docstring says why
    its components are the points of D L."""
    # (c, c v a) is a cover by semimodularity, so every square has its top
    return _components(len(L.covers), *L._squares)


def dimension_monoid(L):
    """D L.  A modular L takes the covering-square classes, an antichain of
    points; any other lattice takes the caustic presentation."""
    if not is_modular(L):
        return _presented_monoid(L)
    points = _square_classes(L)
    k = int(points.max(initial=-1)) + 1
    return DimensionMonoid(L, QOSystem.closed(np.zeros((k, k), dtype=bool)), points)


def delta(D, a, b):
    """Value of the interval [a^b, avb]; path choice does not matter.  The
    cache is looked up by the pair, then by the interval (a^b, avb), and a
    chain walked on a second miss is stored under both keys: the value
    depends on the interval alone."""
    cache = D._delta_cache
    out = cache.get((a, b))
    if out is None:
        L = D.lattice
        key = L.mt(a, b), L.jn(a, b)
        out = cache.get(key)
        if out is None:
            points = D.point_of_cover[L._chain_covers(*key)]
            out = cache[key] = D.qo.combination(np.bincount(points, minlength=len(D.qo)))
        cache[a, b] = out
    return out


def delta_rows(D, a, b):
    """Delta of each pair (a[i], b[i]) on [a ^ b, a v b], the values `delta`
    gives, as the rows of one float array with INF kept.

    The index-least chains of all pairs walk in lockstep: a round moves each
    unfinished walk from z one step toward its upper end t, to the least
    upper cover of z below t, the step `FiniteLattice._chain_covers` takes,
    for all of them with one gather over the upper cover slots.  One
    bincount turns the steps' points into counts, and the positions that
    become infinite are one product with the relation, as in
    `QOSystem.combination`."""
    L, k = D.lattice, len(D.qo)
    z, top = L.meet[a, b].astype(np.intp), L.join[a, b]
    walks = np.flatnonzero(z != top)
    rows, points = [walks[:0]], [walks[:0]]
    while len(walks):
        t = top[walks]
        step = L._first_cover[z[walks]] + L.leq[L._up_slots[z[walks]], t[:, None]].argmax(axis=1)
        rows.append(walks)
        points.append(D.point_of_cover[step])
        z[walks] = L.cover_hi[step]
        walks = walks[z[walks] != t]
    counts = np.bincount(np.concatenate(rows) * k + np.concatenate(points),
                         minlength=len(z) * k).reshape(len(z), k)
    values = counts.astype(float)
    if not D.qo._free:
        values[(counts > 0) @ D.qo.rel.T] = INF
    return values


# -- dimension words -------------------------------------------------------

# a term `k*(a..b)`: k copies of a..b
_MULTIPLE = re.compile(r"(\d+)\s*\*\s*\((.+)\)")


class DimensionWord:
    """Formal multiset of element pairs, each evaluated through delta."""

    def __init__(self, intervals):
        self._mult = {}
        for item in intervals:
            if len(item) == 3:
                a, b, k = item
            else:
                (a, b), k = item, 1
            if k:
                self._mult[(a, b)] = self._mult.get((a, b), 0) + k

    def __len__(self):
        return sum(self._mult.values())

    @classmethod
    def parse(cls, text, L):
        """Parse `a..b + c..d + 2*(e..f)` using element names of L.  A blank
        text is the empty word; an empty term between `+` signs is an error.
        The multiset fills as the terms are read."""
        index, word = L.index, cls(())
        mult = word._mult
        for raw in text.split("+") if text.strip() else ():
            # a term is read unstripped: the names are stripped once split
            k = 1
            m = _MULTIPLE.fullmatch(raw.strip()) if "*" in raw else None
            if m:
                digits, raw = m.groups()
                limit = sys.get_int_max_str_digits()
                if 0 < limit < len(digits):
                    raise ValueError(f"multiplicity of {len(digits)} digits in word term "
                                     f"'...*({raw.strip()})' exceeds the limit {limit}")
                k = int(digits)
            aname, dots, bname = raw.partition("..")
            if not dots:
                raise ValueError(f"bad word term {raw.strip()!r}")
            aname, bname = aname.strip(), bname.strip()
            a, b = index.get(aname), index.get(bname)
            if a is None or b is None:
                name = aname if a is None else bname
                raise ValueError(f"unknown element {name!r} in word {text!r}")
            if k:
                key = a, b
                mult[key] = mult.get(key, 0) + k
        return word


def word_compare(D, w1, w2):
    """One of "equal", "less", "greater", "incomparable"."""
    v1, v2 = D.delta_word(w1), D.delta_word(w2)
    if v1 == v2:
        return "equal"
    if v1 <= v2:
        return "less"
    if v2 <= v1:
        return "greater"
    return "incomparable"


# -- cross-validation checks ----------------------------------------------


def _collapsed_down_sets(D, blocks):
    """For each block_of row, the membership vector of the points below a
    point with a prime interval that the row collapses."""
    L = D.lattice
    hit = np.zeros((len(blocks), len(D.qo)), dtype=bool)
    rows, primes = np.nonzero(blocks[:, L.cover_lo] == blocks[:, L.cover_hi])
    hit[rows, D.point_of_cover[primes]] = True
    return D.qo.down_set(hit)


def _draws_below(rng, n, count):
    """`count` draws of rng.randrange(n), the same stream at a fraction of
    the calls: randrange(n) takes getrandbits(n.bit_length()) again until
    the draw is below n."""
    getrandbits, bits, out = rng.getrandbits, n.bit_length(), []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        out.append(r)
    return out


def congruence_correspondence_check(L, D, classes):
    """Con L against the lower sets of the point order, as posets.  Con L is
    the lattice of down-sets of the D-class order `classes`, so the two
    lattices match when the orders do: each cover's class, the top of the
    class mask of the congruence it generates, maps to the cover's point,
    one class to one point, and class c lies below class d exactly when
    c's point lies below d's.  On 200 seeded quadruples, x == y under
    con(a, b), the inclusion of the class mask of (x, y) in that of (a, b),
    must agree with the bounded-multiple domination of delta values: the
    value of (x, y) lies below the value of (a, b) times the largest finite
    entry of the first, or times 1.  The masks of the covers and samples
    come from one pass, and the values from one `delta_rows` call."""
    draws = _draws_below(random.Random(7), L.n, 800)
    quads = [draws[i:i + 4] for i in range(0, 800, 4)]
    m = len(L.covers)
    masks = classes.collapsed_by(list(L.covers) + [q[:2] for q in quads]
                                 + [q[2:] for q in quads])
    # the top of a principal down-set is the one member whose own down-set
    # is as large as it
    size = classes.below.sum(axis=0)
    top = (masks[:m] & (size == masks[:m].sum(axis=1)[:, None])) @ np.arange(len(classes))
    point = D.point_of_cover
    pair = np.zeros((len(classes), len(D.qo)), dtype=bool)
    pair[top, point] = True
    # a bijection: one point in each row and one class in each column
    rows, cols = pair.sum(axis=1) == 1, pair.sum(axis=0) == 1
    if not (rows.all() and cols.all()):
        bad = np.flatnonzero(~(rows[top] & cols[point]))
        raise MismatchError("principal congruence image is not the point's lower set",
                            witness=None if not len(bad) else
                            tuple(L.names[x] for x in L.covers[bad[0]]))
    # the first cover of each class, and its point
    first = np.unique(top, return_index=True)[1]
    wrong = np.argwhere(classes.below != D.qo.below[np.ix_(point[first], point[first])])
    if len(wrong):
        raise MismatchError("refinement order does not match inclusion",
                            witness=tuple(tuple(L.names[x] for x in L.covers[first[c]])
                                          for c in wrong[0].tolist()))
    xy, ab = masks[m:m + len(quads)], masks[m + len(quads):]
    inside = ~(xy & ~ab).any(axis=1)
    x, y, a, b = np.array(quads).T
    X, Y = np.split(delta_rows(D, np.concatenate([x, a]), np.concatenate([y, b])), 2)
    scale = np.maximum(1, np.where(X == INF, 0, X).max(axis=1, initial=0))
    bad = np.flatnonzero(inside != (X <= Y * scale[:, None]).all(axis=1))
    if len(bad):
        raise MismatchError("collapsing and bounded domination disagree",
                            witness=tuple(L.names[z] for z in quads[bad[0]]))
    return {"classes": len(classes), "points": len(D.qo), "sampled_quadruples": len(quads)}


# a block of the axiom check holds about this many value cells per row of
# each interval it compares
_AXIOM_CELLS = 1 << 18


def axiom_check(L, D):
    """Additivity and transposition of Delta at every incomparable pair
    (a, b), with m = a ^ b and j = a v b: Delta(m, j) == Delta(m, a) +
    Delta(a, j), and Delta(a, j) == Delta(m, b).  On a comparable pair
    additivity adds some Delta(x, x) = 0, and transposition compares
    Delta(a, b) with itself (a <= b) or 0 with 0 (b <= a).

    The pairs run in row-major order, in blocks of rows.  A block's four
    intervals per pair are made distinct through one n x n slot table,
    the size of the meet table: each interval writes its position there,
    the one written last stands for all of its copies, and the rows of
    those come from one `delta_rows` call.  The witness is the first
    failing pair, additivity's message first."""
    n = L.n
    step = max(1, _AXIOM_CELLS // (n * max(1, len(D.qo))))
    slot = None
    for s in range(0, n, step):
        a, b = np.nonzero(~(L.leq[s:s + step] | L.leq[:, s:s + step].T))
        if not len(a):
            continue
        a += s
        m, j = L.meet[a, b], L.join[a, b]
        lo, hi = np.concatenate([m, m, a, m]), np.concatenate([j, a, j, b])
        keys = lo * n + hi
        if slot is None:
            slot = np.empty(n * n, dtype=np.int32)
        slot[keys] = np.arange(len(keys), dtype=np.int32)
        last = np.flatnonzero(slot[keys] == np.arange(len(keys)))
        slot[keys[last]] = np.arange(len(last), dtype=np.int32)
        values = delta_rows(D, lo[last], hi[last])[slot[keys]]
        mj, ma, aj, mb = values.reshape(4, len(a), len(D.qo))
        additive = (ma + aj == mj).all(axis=1)
        bad = np.flatnonzero(~additive | ~(aj == mb).all(axis=1))
        if len(bad):
            i = bad[0]
            raise MismatchError("additivity axiom broken" if not additive[i] else
                                "transposition axiom broken",
                                witness=(L.names[a[i]], L.names[b[i]]))


def distributive_dim(L):
    """Join-irreducible indicator model of the dimension map.

    Returns (J, f) where f maps an element pair to the indicator vector of
    the join-irreducibles below the larger but not the smaller element.
    """
    if not is_distributive(L):
        raise NotDistributive(f"{L.name} is not distributive")
    J = _irreducibles(L._down)[0].tolist()

    def f(a, b):
        lo, hi = L.mt(a, b), L.jn(a, b)
        return tuple(1 if L.le(j, hi) and not L.le(j, lo) else 0 for j in J)

    return J, f


# -- the functor checks ------------------------------------------------------


def _natural_map(name, D, image, target):
    """The map of generator points that a lattice map induces on D, given as
    the target point image[i] of each cover i of D's lattice, -1 where the
    map collapses it: it must be well defined and one-to-one (each generator
    class goes to one class and comes from one), onto the points of
    `target`, and carry D's relation to `target`.  Returns the points of D
    it is defined on."""
    L, fwd, back = D.lattice, {}, {}
    for (a, b), p, q in zip(L.covers, D.point_of_cover.tolist(), image.tolist()):
        if q >= 0 and (fwd.setdefault(p, q) != q or back.setdefault(q, p) != p):
            raise MismatchError(f"{name} generator classes do not match",
                                witness=(L.names[a], L.names[b]))
    if len(back) != len(target):
        raise MismatchError(f"{name} map is not onto", witness=L.name)
    src, dst = list(fwd), list(fwd.values())
    moved = np.argwhere(D.qo.rel[np.ix_(src, src)] != target[np.ix_(dst, dst)])
    if len(moved):
        i, j = moved[0].tolist()
        raise MismatchError(f"{name} map does not preserve the relation",
                            witness=(src[i], src[j]))
    return src


def _image_points(D, a, b):
    """The point of D of each cover a[i] < b[i] of D's lattice."""
    M = D.lattice
    return D.point_of_cover[_cover_index(M.cover_lo, M.cover_hi, M.n, a, b)]


def functor_checks(L, D):
    """Dual compatibility of the pipeline: interval reversal sends the cover
    (a, b) of L to the cover (b, a) of its dual, and the map of generator
    points it induces must be an isomorphism onto the dual's QO-system."""
    Dd = dimension_monoid(lattice_dual(L))
    _natural_map("dual", D, _image_points(Dd, L.cover_hi, L.cover_lo), Dd.qo.rel)


def product_functor_check(L, D, B):
    """Product compatibility: the covers of L x B map onto the disjoint union
    of the QO-systems of L and B, by the coordinate each cover moves."""
    P = product(L, B)
    DP, DB = dimension_monoid(P), dimension_monoid(B)
    # the disjoint union of the two systems, L's points first
    k = len(D.qo)
    union = np.zeros((k + len(DB.qo),) * 2, dtype=bool)
    union[:k, :k], union[k:, k:] = D.qo.rel, DB.qo.rel
    # (a, b) is element a * B.n + b of P, and a cover moves one coordinate
    (a, b), (c, d) = np.divmod(P.cover_lo, B.n), np.divmod(P.cover_hi, B.n)
    in_L = b == d
    image = np.empty(len(P.covers), dtype=np.intp)
    image[in_L] = _image_points(D, a[in_L], c[in_L])
    image[~in_L] = k + _image_points(DB, b[~in_L], d[~in_L])
    _natural_map("product", DP, image, union)


def quotient_functor_check(L, D, theta):
    """Quotient compatibility for `theta`, the block_of row of a congruence
    of L: the uncollapsed covers map onto the quotient's QO-system, and the
    map is defined exactly on the points that theta does not collapse."""
    Q, proj = quotient_lattice(L, theta)
    DQ = dimension_monoid(Q)
    # an uncollapsed cover (a, b) goes to the cover of their blocks
    lo, hi = proj[L.cover_lo], proj[L.cover_hi]
    image, kept = np.full(len(L.covers), -1), lo != hi
    image[kept] = _image_points(DQ, lo[kept], hi[kept])
    src = _natural_map("quotient", D, image, DQ.qo.rel)
    collapsed = _collapsed_down_sets(D, np.array([theta]))[0]
    if sorted(src) != np.flatnonzero(~collapsed).tolist():
        raise MismatchError("quotient map is not defined on the uncollapsed points",
                            witness=" | ".join(map(",".join, _block_names(L, theta))))


# -- V-modularity and DEP ---------------------------------------------------


def _holding(L, covers):
    """holds[c, d]: [c, d] contains one of the prime intervals picked by the
    bool mask `covers` over L.covers.  The n x n float product counts them."""
    lo, hi = L.cover_lo[covers], L.cover_hi[covers]
    return L.leq[:, lo].astype(float) @ L.leq[hi].astype(float) > 0


def is_v_modular(L, D):
    """Check that weakly projective images stay in the canonical submonoid
    of the target interval: (True, None), or (False, (source, target)) for
    the first failing prime source in cover order and its least target
    (c, d) in c * n + d order.

    Sources range over prime intervals: a general source decomposes into a
    chain of primes, each weakly projective into the same target, so any
    failure already shows up on a prime.  By Dilworth (Ann. of Math. 51,
    1950), a prime [u, v] is weakly projective into [c, d] iff con(c, d)
    collapses it.  con(c, d) is the join of the principal congruences of
    the primes of [c, d], and those are ordered as the points of their
    primes (`congruence_correspondence_check`).  So a prime with point p
    reaches exactly the targets whose S, the points of the target's
    primes, has p in its down-set.

    A target holds Delta of a prime with point p iff p is in S, at any
    bound on the number of parts.  In canonical form Delta of that prime is
    the generator vector f_p, every part is some f_q with q in S, and a sum
    of parts is `QOSystem.combination(c)` for counts c on S.  Suppose
    c_p = 0.  If p lies strictly below no counted point, the sum reads 0 at
    p, where f_p reads 1 or oo.  If p lies strictly below a counted q, the
    sum is nonzero at q, but f_p reads 0 at q: the relation is
    antisymmetric, so q is not strictly below p.  So p in S is necessary,
    and one part f_p is enough.

    So L is V-modular iff S is a down-set of the point order for every
    c <= d.  Only a point with another point strictly above it can fail,
    so an antichain of points answers at once.  Such a point p fails at
    the targets that hold a prime with a point strictly above p and no
    prime with point p, two products over the order table.  The points run
    in the order of their first covers, so the first failing point names
    the first failing prime and its least target."""
    point = D.point_of_cover
    above = D.qo.below & ~np.eye(len(D.qo), dtype=bool)
    firsts = np.sort(np.unique(point, return_index=True)[1])
    for i in firsts[above[point[firsts]].any(axis=1)].tolist():
        p = point[i]
        fails = np.flatnonzero(_holding(L, above[p, point]) & ~_holding(L, point == p))
        if len(fails):
            return False, (L.covers[i], divmod(int(fails[0]), L.n))
    return True, None


def _order_matrix(V):
    """le[i, j]: row i of V lies componentwise below row j."""
    out = np.ones((len(V), len(V)), dtype=bool)
    for col in V.T:
        out &= col[:, None] <= col
    return out


def _word_values(DM, a, b, words):
    """Each word's value in DM, a float row per word with INF kept; `words`
    indexes the pairs (a[i], b[i]), padded with len(a), a zero row."""
    table = np.vstack([delta_rows(DM, a, b), np.zeros((1, len(DM.qo)))])
    return table[words].sum(axis=1)


def dep_check(L, classes, D, k=3):
    """Order preservation and reflection of the subdirect-product map on
    dimension words of length <= k over at most 8 seeded prime intervals;
    the factors are the quotients by the meet-irreducible congruences, one
    per class c of the D-class order `classes`: the congruence that
    collapses the classes not above c.

    The word values stack into one array upstairs and one per factor, from
    one `delta_rows` call over the pooled primes in each; the order upstairs
    must equal the AND of the factors' orders, which no order of the
    factors changes."""
    quots = []
    for theta in classes.partitions(~classes.below):
        Q, proj = quotient_lattice(L, theta)
        quots.append((dimension_monoid(Q), proj))
    rng = random.Random(11)
    pool = list(L.covers)
    if len(pool) > 8:
        pool = sorted(rng.sample(pool, 8))
    words = []
    for length in range(0, k + 1):
        words.extend(itertools.combinations_with_replacement(range(len(pool)), length))
    if len(words) > 400:
        words = [words[0]] + rng.sample(words[1:], 399)
    words = _padded(words, len(pool))
    a, b = np.array(pool, dtype=np.intp).reshape(-1, 2).T
    upstairs = _order_matrix(_word_values(D, a, b, words))
    downstairs = np.ones_like(upstairs)
    for DQ, proj in quots:
        downstairs &= _order_matrix(_word_values(DQ, proj[a], proj[b], words))
    return np.array_equal(upstairs, downstairs)
