"""The structure theory that only the test suite exercises, built on the
parts of `dimw.geometry` and `dimw.dimension` that the verbs run: proper
axes and independence, n-distributivity by its two methods, neutral ideals
and the normal kernel, the bounded decomposition searches (two-piece,
V-measure, refinement of equal words, Jonsson), the modular free-monoid
oracles and interval sublattices.  All searches iterate elements in index
order and return the first witness.  Then comes the algebra of canonical
vectors that no verb runs: the canonical-form test, the value queries and
the index, truncation, residuals (with the level search they are checked
against), refinement and reduced representations.

Last come the parts of the lattice and congruence layers that no verb
runs: the order queries by element (`le`, `interval`, the covers of one
element, the atoms, the index-least maximal chain), lattice files written
and direct products, the congruence that pairs generate, and the functor
checks for products and quotients.

`oracles` is imported as a module, as it reads the queries here in turn.
"""

import functools
import itertools
import json

import numpy as np

from dimw.congruence import DClasses, quotient_lattice
from dimw.dimension import _image_points, _natural_map, delta, dimension_monoid
from dimw.errors import DimwError, MismatchError, ParamTooLarge
from dimw.geometry import (_homogeneous_levels, lattice_index, n_distributive_verdicts,
                           perspectivity_matrix)
from dimw.lattice import (SIZE_GUARD, FiniteLattice, _transitive_closure, is_distributive,
                          is_modular, is_sectionally_complemented)
from dimw.monoid import INF, DimVector

import oracles

# -- perspectivity ------------------------------------------------------------


def proper_axis(L, a, b):
    """A proper axis of perspectivity between a and b, or None."""
    x = oracles.perspective_by_axes(L, a, b)
    return None if x is None else L.mt(x, L.jn(a, b))


def perspective_map(L, b, s, x):
    """Image of x under the perspective isomorphism with axis s onto [0, b]."""
    return L.mt(L.jn(x, s), b)


def lesssim(L, sim):
    """lesssim[a, b]: a is perspective to some element below b."""
    return sim @ L.leq


def independent(L, seq):
    """Whether the sequence is independent (joins define a lattice hom on
    finite index sets).  Modular lattices use the inductive criterion; other
    lattices fall back to the full definition."""
    seq = list(seq)
    if is_modular(L):
        joins = itertools.accumulate(seq, L.jn, initial=L.bottom)
        return all(L.mt(a, j) == L.bottom for a, j in zip(seq, joins))
    # the joins of subsets always respect unions, so only meets can fail
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(len(seq)), r) for r in range(len(seq) + 1)))
    val = {js: functools.reduce(L.jn, (seq[i] for i in js), L.bottom) for js in subsets}
    return all(val[tuple(i for i in A if i in B)] == L.mt(val[A], val[B])
               for A in subsets for B in subsets)


# -- n-distributivity and diamonds --------------------------------------------


def diamonds(L, m, first_only=False):
    """Nontrivial m-diamonds, reported as (bottom, top) pairs; with
    `first_only`, the first one found.

    Entries of a nontrivial diamond lie strictly above its bottom; entry
    sequences are enumerated in increasing index order.
    """
    def spans(u, seq, join, rest):
        # independence over u, inductively; then a common complement in [u, join]
        if len(seq) == m:
            if any(all(L.mt(a, e) == u and L.jn(a, e) == join for a in seq)
                   for e in interval(L, u, join)):
                yield u, join
            return
        for i, b in enumerate(rest):
            if L.mt(b, join) == u:
                yield from spans(u, seq + [b], L.jn(join, b), rest[i + 1:])

    found = (d for u in range(L.n)
             for d in spans(u, [], u, [a for a in range(L.n) if le(L, u, a) and a != u]))
    return list(itertools.islice(found, 1)) if first_only else sorted(set(found))


def n_distributive(L, n, method="both"):
    """n-distributivity, n >= 1, by identity evaluation (A: `is_distributive`
    at n = 1, else the verdict of n_distributive_verdicts at n) and by
    absence of a nontrivial (n+1)-diamond / homogeneous sequence (B); both
    must agree."""
    results = {}
    if method in ("A", "both"):
        results["A"] = (is_distributive(L) if n == 1 else
                        next(itertools.islice(n_distributive_verdicts(L), n - 2, None)))
    if method in ("B", "both"):
        results["B"] = (lattice_index(L, perspectivity_matrix(L))[L.top] <= n
                        if is_sectionally_complemented(L) and is_modular(L)
                        else not diamonds(L, n + 1, first_only=True))
    if len(results) == 2 and results["A"] != results["B"]:
        raise MismatchError("distributivity methods disagree", witness=(L.name, n))
    return results.popitem()[1]


# -- neutral ideals and the normal kernel -------------------------------------


def neutral_ideal(L, gens, sim):
    """Smallest lower subset containing gens, closed under join and
    perspectivity: the least fixpoint of those three closures."""
    ideal = np.isin(np.arange(L.n), [*gens, L.bottom])
    while True:
        grown = ideal | L.leq[:, ideal].any(axis=1) | sim[ideal].any(axis=0)
        grown[L.join[np.ix_(ideal, ideal)]] = True
        if np.array_equal(grown, ideal):
            return np.flatnonzero(ideal).tolist()
        ideal = grown


def normal_kernel(L, sim):
    """Elements whose generated neutral ideal is a normal lattice.

    Perspectivity and projectivity inside a neutral ideal of a sectionally
    complemented modular lattice agree with the ambient relations, so the
    global matrices may be reused.
    """
    # bad[a, b]: a < b are independent and projective, not perspective
    bad = np.triu((L.meet == L.bottom) & _transitive_closure(sim) & ~sim, 1)
    ideals = (neutral_ideal(L, [x], sim) for x in range(L.n))
    return [x for x, m in enumerate(ideals) if not bad[np.ix_(m, m)].any()]


def homogeneous_base_set(L, m, sim):
    """Elements that start a homogeneous sequence of length m."""
    # level 1 starts at every nonzero element, which serves any m <= 1
    levels = _homogeneous_levels(L, sim)[max(m, 1) - 1:]
    return [L.bottom, *sorted(set(levels[0][:, 0].tolist() if levels else ()))]


def m_ideal(L, m, sim):
    """Neutral ideal generated by the first entries of length-m homogeneous
    sequences."""
    return neutral_ideal(L, homogeneous_base_set(L, m, sim), sim)


def diam_congruence(L, m):
    """Congruence generated by (bottom, top) over all nontrivial m-diamonds."""
    return congruence_from_pairs(L, diamonds(L, m))


def diam_ideal_equivalence_check(L, m):
    """x lies in mL iff x collapses to zero modulo the m-diamond congruence."""
    ideal = set(m_ideal(L, m, perspectivity_matrix(L)))
    theta = diam_congruence(L, m)
    for x in range(L.n):
        if (x in ideal) != (theta[x] == theta[L.bottom]):
            raise MismatchError("m-ideal and diamond congruence disagree",
                                witness=(L.names[x], m))
    return True


def normal_kernel_theorems_check(L):
    """4L lies inside the normal kernel; the quotient by the kernel is
    3-distributive."""
    sim = perspectivity_matrix(L)
    four = set(m_ideal(L, 4, sim))
    kernel = set(normal_kernel(L, sim))
    if not four <= kernel:
        raise MismatchError("4L is not inside the normal kernel",
                            witness=sorted(L.names[x] for x in four - kernel))
    theta = congruence_from_pairs(L, [(L.bottom, u) for u in kernel])
    Q, _ = quotient_lattice(L, theta)
    if not n_distributive(Q, 3):
        raise MismatchError("quotient by the normal kernel is not 3-distributive",
                            witness=L.name)
    return {"kernel_size": len(kernel), "four_ideal_size": len(four),
            "quotient_size": Q.n}


# -- bounded decomposition searches -------------------------------------------


def two_piece_decomposition(L, a, b, D, sim):
    """For equal-dimension a, b: a = a0+a1, b = b0+b1 with a0 ~ b0 and
    a1 ~ b1; None when the dimensions differ."""
    if delta(D, L.bottom, a) != delta(D, L.bottom, b):
        return None
    for found in ((a0, a1, b0, b1)
                  for a0 in interval(L, L.bottom, a)
                  for a1 in oracles.sectional_complements(L, a0, a)
                  for b0 in interval(L, L.bottom, b) if sim[a0, b0]
                  for b1 in oracles.sectional_complements(L, b0, b) if sim[a1, b1]):
        return found
    raise MismatchError("no two-piece decomposition found",
                        witness=(L.names[a], L.names[b]))


def v_measure_check(L, D):
    """Every split of a dimension value delta(c) = alpha + beta over the
    dimension range lifts to an element split c = a + b."""
    rng = [delta(D, L.bottom, x) for x in range(L.n)]
    for c, x, y in itertools.product(range(L.n), repeat=3):
        if rng[x] + rng[y] == rng[c] and not any(
                rng[a] == rng[x] and rng[b] == rng[y]
                for a in interval(L, L.bottom, c) for b in oracles.sectional_complements(L, a, c)):
            raise MismatchError("dimension split does not lift",
                                witness=(L.names[c], L.names[x], L.names[y]))
    return True


def eqwords_refinement(L, parts_a, parts_b, approxeq):
    """A refinement matrix (c_ij, d_ij) with c_ij projective-by-decomposition
    to d_ij, row sums parts_a and column sums parts_b; None if the search
    fails."""

    def split_into(x, k):
        """All ordered independent decompositions of x into k parts."""
        if k == 1:
            yield (x,)
            return
        for first in interval(L, L.bottom, x):
            for rest in oracles.sectional_complements(L, first, x):
                for tail in split_into(rest, k - 1):
                    yield (first,) + tail

    def matrices(rows, cols):
        """Every refinement of the rows into what the columns still hold."""
        if not rows:
            if all(c == L.bottom for c in cols):
                yield []
            return
        for cells in split_into(rows[0], len(cols)):
            yield from matched(rows[1:], cols, cells, [])

    def matched(rows, cols, cells, drow):
        # cell j of the row goes inside what column j still holds
        j = len(drow)
        if j == len(cols):
            yield from ([drow] + rest for rest in matrices(rows, cols))
            return
        for d in interval(L, L.bottom, cols[j]):
            if approxeq[cells[j], d]:
                for comp in oracles.sectional_complements(L, d, cols[j]):
                    yield from matched(rows, cols[:j] + [comp] + cols[j + 1:], cells,
                                       drow + [(cells[j], d)])

    return next(matrices(list(parts_a), list(parts_b)), None)


def jonsson_decomposition(L, a, b, sim):
    """Bounded search for the two-step-perspectivity decompositions
    a = u0 + u1 + (sum of a_i), b = u + (sum of b_i) + h with u0 ~ u, u1 ~ u
    and a_i ~ b_i for i < 4 (zero summands allowed)."""
    below_a, below_b = interval(L, L.bottom, a), interval(L, L.bottom, b)
    return next((((u0, u1, rest_a), (u, mid, h))
                 for u0 in below_a for u1 in below_a if L.mt(u1, u0) == L.bottom
                 for rest_a in oracles.sectional_complements(L, L.jn(u0, u1), a)
                 for u in below_b if sim[u0, u] and sim[u1, u]
                 for w in oracles.sectional_complements(L, u, b)
                 for h in interval(L, L.bottom, w)
                 for mid in oracles.sectional_complements(L, h, w)
                 if _matched_decomposition(L, rest_a, mid, sim, 4)), None)


def _matched_decomposition(L, x, y, rel, depth):
    """x and y split into at most `depth` pairwise rel-related independent
    summands."""
    if x == L.bottom and y == L.bottom:
        return True
    if depth == 0:
        return False
    return bool(rel[x, y]) or any(
        _matched_decomposition(L, x1, y1, rel, depth - 1)
        for x0 in interval(L, L.bottom, x) if x0 != L.bottom
        for y0 in interval(L, L.bottom, y) if rel[x0, y0]
        for x1 in oracles.sectional_complements(L, x0, x)
        for y1 in oracles.sectional_complements(L, y0, y))


# -- modular free-monoid oracles ----------------------------------------------


class NotModular(DimwError):
    """Operation requires a modular lattice."""


def projectivity_classes(L):
    """Partition of the prime intervals under transposition closure."""
    primes = list(enumerate(L.covers))
    uf = oracles.UnionFind(len(primes))
    for (i, (a, b)), (k, (c, d)) in itertools.product(primes, repeat=2):
        # [a, b] up-transposes to [c, d] when c^b == a and cvb == d
        if L.mt(c, b) == a and L.jn(c, b) == d:
            uf.union(i, k)
    groups = {}
    for i, pq in primes:
        groups.setdefault(uf.find(i), []).append(pq)
    return [sorted(g) for _, g in sorted(groups.items())]


def schreier_refine(L, chain1, chain2):
    """Common refinement of two chains of the same interval of a modular
    lattice; each cell pairs a step of the first refinement with a projective
    step of the second."""
    if not is_modular(L):
        raise NotModular(f"{L.name} is not modular")
    if chain1[0] != chain2[0] or chain1[-1] != chain2[-1]:
        raise ValueError("chains must share both endpoints")
    cells = [((L.jn(xi, L.mt(xi1, yj)), L.jn(xi, L.mt(xi1, yj1))),
              (L.jn(yj, L.mt(yj1, xi)), L.jn(yj, L.mt(yj1, xi1))))
             for xi, xi1 in itertools.pairwise(chain1) for yj, yj1 in itertools.pairwise(chain2)]
    for (u0, u1), (v0, v1) in cells:
        if (u0 != u1 or v0 != v1) and not intervals_projective(L, (u0, u1), (v0, v1)):
            raise MismatchError("refinement cells are not projective",
                                witness=((L.names[u0], L.names[u1]),
                                         (L.names[v0], L.names[v1])))
    return cells


def intervals_projective(L, iv1, iv2):
    """Whether two intervals are connected by transpositions (BFS)."""
    def moves(u, v):
        for c in range(L.n):
            if L.mt(c, v) == u:  # up to [c, c v v]
                yield c, L.jn(c, v)
            if L.jn(c, u) == v:  # down to [c ^ u, c]
                yield L.mt(c, u), c

    seen = frontier = {iv1}
    while frontier and iv2 not in seen:
        frontier = {t for iv in frontier for t in moves(*iv)} - seen
        seen = seen | frontier
    return iv2 in seen


# -- derived lattices ---------------------------------------------------------


def interval_sublattice(L, a, b):
    """The induced lattice on [a, b] plus the map back into L."""
    members = interval(L, a, b)
    K = FiniteLattice([L.names[z] for z in members], L.leq[np.ix_(members, members)],
                      name=f"{L.name}[{L.names[a]},{L.names[b]}]", _validate=False)
    return K, members

# -- the monoid algebra -------------------------------------------------------
# The canonical-form test, the value queries and the index, truncation,
# residuals, refinement and reduced representations of canonical vectors,
# which criterion 9 and the monoid tests exercise and no verb runs.


class NotInF(DimwError):
    """A coefficient map violates the canonical-form invariants."""


class NotBelow(DimwError):
    """residual(x, y) requires x <= y componentwise."""


def violates_canonical_form(qo, values):
    """The reason a row of values is not in canonical form, or None; for a
    stack of rows, the list of the reasons, one per row.  Each test runs on
    the whole stack, and a row's reason is the first test it fails, at its
    first point, or pair of points, in index order."""
    V = np.array(values, dtype=float)
    single, V = V.ndim == 1, np.atleast_2d(V)
    k, rel = V.shape[1], qo.rel
    if not k:  # the one value over no points, the empty map, is canonical
        return None if single else [None] * len(V)
    # the diagonal of rel never fires: v[p] < v[p] is false
    antitone = (rel & (V[:, :, None] < V[:, None, :])).reshape(len(V), k * k)
    selfrel = rel.diagonal() & (V != 0) & (V != INF)
    # where the first two tests pass, finite positions are plain points, so
    # the diagonal is false here too
    finite = (V > 0) & (V < INF)
    chained = ((finite @ rel) & finite).any(axis=1)
    # a self-related point is related to itself, so only plain points can be
    # infinite with nothing of the support strictly above them
    stranded = (V == INF) & ~((V != 0) @ rel.T)
    first = np.select([antitone.any(axis=1), selfrel.any(axis=1), chained,
                       stranded.any(axis=1)], [1, 2, 3, 4], 0).tolist()
    at = zip(antitone.argmax(axis=1).tolist(), selfrel.argmax(axis=1).tolist(),
             stranded.argmax(axis=1).tolist())
    names, reasons = qo.points, []
    for test, (pq, p, q) in zip(first, at):
        if test == 1:
            reasons.append("not antitone at (%s, %s)" % tuple(names[i] for i in divmod(pq, k)))
        elif test == 2:
            reasons.append(f"finite nonzero value on self-related point {names[p]}")
        elif test == 3:
            reasons.append("finite positions are not an antichain")
        elif test == 4:
            reasons.append(f"infinite value at maximal non-self-related point {names[q]}")
        else:
            reasons.append(None)
    return reasons[0] if single else reasons


def canonical_vector(qo, values):
    """DimVector(qo, values), or NotInF with the reason the values are not
    in canonical form."""
    reason = violates_canonical_form(qo, values)
    if reason:
        raise NotInF(reason)
    return DimVector(qo, values)


def vector(qo, mapping):
    """The canonical vector of a "values" map of `DimVector.to_json_dict`."""
    vals = [0] * len(qo)
    for p, v in mapping.items():
        vals[qo._as_index(p)] = INF if v == INF or v == "inf" else int(v)
    return canonical_vector(qo, tuple(vals))


def is_zero(x):
    return all(v == 0 for v in x.values)


def max_finite(x):
    """The largest finite entry of x, 0 if it has none."""
    return max((v for v in x.values if v != INF), default=0)


def index(x):
    """Largest n for which some nonzero y has n*y <= x: infinity when an
    infinite coefficient occurs, otherwise the largest coefficient."""
    if INF in x.values:
        return INF
    return int(max(x.values, default=0)) if not is_zero(x) else 0


def support(x):
    return [i for i, v in enumerate(x.values) if v != 0]


def maximal_support(x):
    # p is maximal when p itself is the only support point at or above it
    s = np.array(support(x), dtype=int)
    return s[x.qo.below[s][:, s].sum(axis=1) == 1].tolist()


def meet(x, y):
    """Componentwise infimum, as a tuple; not necessarily canonical."""
    return tuple(min(a, b) for a, b in zip(x.values, y.values))


def truncate(qo, mapping, n):
    """rho_n: sum over points of (value ^ n) copies of the generator."""
    if isinstance(mapping, DimVector):
        mapping = mapping.values
    # min(oo, n) == n
    return qo.combination([max(0, int(min(v, n))) for v in mapping])


def residual(x, y):
    """The canonical t with x + t == y, for x <= y componentwise.

    zbar = y - x truncated at 0 if x == y, else at the least even level
    >= max(M, 1), M the largest finite coefficient of zbar.  A level below M
    cuts it; every level >= max(M, 1) gives t the support of zbar, which
    fixes the oo positions of x + t, so all such levels are exact or none
    is.  Existence is guaranteed for canonical inputs.
    """
    if not x <= y:
        raise NotBelow("residual requires x <= y")
    zbar = tuple(INF if yv == INF else yv - xv for xv, yv in zip(x.values, y.values))
    top = max((v for v in zbar if v != INF), default=0)
    t = truncate(x.qo, zbar, 0 if x == y else 2 * ((max(top, 1) + 1) // 2))
    if x + t != y:
        raise AssertionError("residual construction failed; input not canonical?")
    return t


def refine(a0, a1, b0, b1):
    """A 2x2 refinement ((c00, c01), (c10, c11)) of a0 + a1 == b0 + b1: rows
    sum to a0, a1 and columns to b0, b1.  One pass visits each point after
    every point strictly above it.  At a self-related point c_ij is oo if a_i
    and b_j both are, else 0.  At a plain point a cell already nonzero strictly
    above it is forced to oo; the others, in the order 00, 01, 10, 11, take the
    least of what row i and column j still need there (0 if that is oo),
    subtracted from both: the north-west corner rule of Z+.

    Proof.  A cell (i, j) nonzero above p makes a_i and b_j positive above p,
    so both are oo at p (a canonical vector is antitone, finite only on an
    antichain): a forced oo never breaks a sum.  If a_i is oo at a plain p, a_i
    has support strictly above p, where some cell of row i is nonzero, so row
    i holds a forced cell; finite rows and columns hold none.  If
    a0[p] + a1[p] is finite, p is the Z+ case; if it is oo, at most one row
    and one column are finite, and the greedy meets their demands exactly.
    Each cell is canonical: oo at a plain point only below its own support,
    finite and positive only where none of its support lies above.
    """
    qo = a0.qo
    if a0 + a1 != b0 + b1:
        raise ValueError("refine requires equal sums")
    cells = [[0] * len(qo) for _ in range(4)]
    above = [np.flatnonzero(r).tolist() for r in qo.rel]
    # row p of below counts the points at or above p
    for p in np.argsort(qo.below.sum(axis=1), kind="stable").tolist():
        # what rows 0, 1 and columns 2, 3 still need at p; oo - n stays oo
        need = [a0.values[p], a1.values[p], b0.values[p], b1.values[p]]
        for c, i, j in zip(cells, (0, 0, 1, 1), (2, 3, 2, 3)):
            if p in qo.p0:
                c[p] = INF if need[i] == need[j] == INF else 0
            elif any(c[q] for q in above[p]):
                c[p] = INF
            else:
                v = min(need[i], need[j])
                c[p] = v = 0 if v == INF else v
                need[i] -= v
                need[j] -= v
    c00, c01, c10, c11 = (DimVector(qo, c) for c in cells)
    return (c00, c01), (c10, c11)


class ReducedRep:
    """Antichain-supported generator expression; the presentation-layer view."""

    def __init__(self, qo, terms):
        self.qo = qo
        self.terms = dict(terms)
        pts = np.array(list(self.terms), dtype=int)
        # each term is at or below itself; any further pair breaks the antichain
        if qo.below[pts][:, pts].sum() > len(pts):
            raise NotInF("reduced terms must form an antichain")
        for p, c in self.terms.items():
            if p in qo.p0:
                if c != INF:
                    raise NotInF("self-related points carry the infinity marker")
            elif not (isinstance(c, int) and c > 0):
                raise NotInF("plain points carry positive integer coefficients")

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return self.qo is other.qo and self.terms == other.terms

    def __repr__(self):
        body = " + ".join(
            ("e[%s]" % self.qo.points[p]) if c == INF or c == 1
            else "%d*e[%s]" % (c, self.qo.points[p])
            for p, c in self.items())
        return body or "0"


def to_reduced(x):
    """Unique reduced representation of a canonical vector."""
    if violates_canonical_form(x.qo, x.values) is not None:
        raise NotInF("vector is not in canonical form")
    terms = {}
    for p in maximal_support(x):
        terms[p] = INF if p in x.qo.p0 else int(x.values[p])
    return ReducedRep(x.qo, terms)


def from_reduced(r):
    counts = [0] * len(r.qo)
    for p, c in r.items():
        counts[p] = 1 if c == INF else c
    return r.qo.combination(counts)


def residual_by_levels(x, y):
    """The residual by search: zbar = y - x truncated at the levels 0, 2,
    4, ... until the sum is exact, where `residual` computes that level."""
    if not x <= y:
        raise NotBelow("residual requires x <= y")
    zbar = tuple(INF if yv == INF else yv - xv for xv, yv in zip(x.values, y.values))
    limit = int(max(max_finite(x), max_finite(y))) + 1
    for n in range(limit + 1):
        t = truncate(x.qo, zbar, 2 * n)
        if x + t == y:
            return t
    raise AssertionError("residual construction failed; input not canonical?")


# -- lattice queries, files and products --------------------------------------


def le(L, a, b):
    return bool(L.leq[a, b])


def covers_of(L, a):
    """Upper covers of a, ascending."""
    return list(L._up[a])


def cocovers_of(L, b):
    """Lower covers of b, ascending."""
    return list(L._down[b])


def interval(L, a, b):
    """Elements z with a <= z <= b, ascending index order."""
    if not le(L, a, b):
        raise ValueError("interval endpoints must satisfy a <= b")
    return np.flatnonzero(L.leq[a] & L.leq[:, b]).tolist()


def atoms(L):
    return covers_of(L, L.bottom)


def maximal_chain(L, a, b):
    """The index-least maximal chain from a to b (a <= b required), along
    the lattice's step columns."""
    if not L.leq[a, b]:
        raise ValueError("chain endpoints must satisfy a <= b")
    return [a] + [L.covers[i][1] for i in L._chain_covers(a, b)]


def lattice_to_json(L):
    """The lattice file of L, the format `dimw.lattice.from_json` reads."""
    return json.dumps(
        {"name": L.name, "elements": list(L.names),
         "covers": [[L.names[a], L.names[b]] for a, b in L.covers]},
        sort_keys=True)


def save(L, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(lattice_to_json(L) + "\n")


def product(A, B):
    """Direct product with componentwise order."""
    if A.n * B.n > SIZE_GUARD:
        raise ParamTooLarge(f"product would have {A.n * B.n} elements")
    names = [f"({a},{b})" for a in A.names for b in B.names]
    return FiniteLattice(names, np.kron(A.leq, B.leq), name=f"{A.name}x{B.name}",
                         _validate=False)


# -- congruences from pairs and the product and quotient functor checks -------


def congruence_from_pairs(L, pairs):
    """The block_of row of the smallest congruence of L merging every given
    pair."""
    D = DClasses(L)
    return D.partitions(D.collapsed_by(pairs).any(axis=0)[None, :])[0]


def block_names(L, block_of):
    """The blocks of a block_of row as lists of element names, each in index
    order, the blocks in the order of their least members."""
    blocks = {}
    for x, b in enumerate(np.asarray(block_of).tolist()):
        blocks.setdefault(b, []).append(L.names[x])
    return list(blocks.values())


def down_set(qo, members):
    """The points below some member, for a bool membership vector over the
    points of qo or a stack of them; the result has the same shape."""
    return members @ qo.below.T


def _collapsed_down_sets(D, blocks):
    """For each block_of row, the membership vector of the points below a
    point with a prime interval that the row collapses."""
    L = D.lattice
    hit = np.zeros((len(blocks), len(D.qo)), dtype=bool)
    rows, primes = np.nonzero(blocks[:, L.cover_lo] == blocks[:, L.cover_hi])
    hit[rows, D.point_of_cover[primes]] = True
    return down_set(D.qo, hit)


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
                            witness=" | ".join(map(",".join, block_names(L, theta))))
