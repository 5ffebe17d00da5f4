"""Perspectivity-based structure theory on finite lattices with zero:
perspectivity and its closures, independence, homogeneous sequences, the
lattice index, n-distributivity, diamonds, normality, the normal kernel,
and the two-piece decomposition of equal-dimension pairs.

All searches iterate elements in index order and return the first witness,
so outputs are reproducible.

Homogeneous sequences, Huhn's identity, normality, neutral ideals, the
decomposition closures and `lesssim` are passes over the order, meet and
join tables.  The sequences and the identity each grow once, level by
level, over distinct states: (base, join, last partner) give every index,
base set and branch B of n-distributivity, the meets of the variables one
verdict per n.  The closures are least fixpoints of bool matrix products.
The test suite checks them against the loops and searches they replaced
(`tests/oracles.py`).
"""

import itertools

import numpy as np

from .congruence import congruence_from_pairs, quotient_lattice
from .dimension import delta, dimension_monoid
from .errors import MismatchError
from .lattice import _transitive_closure, is_modular, is_sectionally_complemented
from .monoid import index as monoid_index

# a block of n_distributive_verdicts holds about this many states while they
# grow, or cells, one per x and state, while they are tested
_IDENTITY_CELLS = 1 << 15


def _distinct_rows(rows):
    """The distinct rows of an int table in lexsort order, neighbours compared
    one sorted column at a time; np.unique's first call costs resident memory."""
    order = np.lexsort(rows.T)
    fresh = np.arange(len(rows)) == 0
    for col in rows.T:
        fresh[1:] |= np.diff(col[order]) != 0
    return rows[order[fresh]]


def perspective(L, a, b):
    """First axis x (in element order) with a^x == b^x and avx == bvx."""
    axes = np.flatnonzero((L.meet[a] == L.meet[b]) & (L.join[a] == L.join[b]))
    return int(axes[0]) if len(axes) else None


def perspectivity_matrix(L):
    """sim[a, b]: a and b are perspective, one row pass per a."""
    sim = np.empty((L.n, L.n), dtype=bool)
    for a in range(L.n):
        sim[a] = ((L.meet[a] == L.meet) & (L.join[a] == L.join)).any(axis=1)
    return sim


def proper_axis(L, a, b):
    """A proper axis of perspectivity between a and b, or None."""
    x = perspective(L, a, b)
    return None if x is None else L.mt(x, L.jn(a, b))


def perspective_map(L, b, s, x):
    """Image of x under the perspective isomorphism with axis s onto [0, b]."""
    return L.mt(L.jn(x, s), b)


def sectional_complements(L, x, a):
    """All y with x ^ y == bottom and x v y == a (x <= a assumed)."""
    return [y for y in L.interval(L.bottom, a)
            if L.mt(x, y) == L.bottom and L.jn(x, y) == a]


def independent(L, seq):
    """Whether the sequence is independent (joins define a lattice hom on
    finite index sets).  Modular lattices use the inductive criterion; other
    lattices fall back to the full definition."""
    seq = list(seq)
    if is_modular(L):
        j = L.bottom
        for a in seq:
            if L.mt(a, j) != L.bottom:
                return False
            j = L.jn(a, j)
        return True
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(len(seq)), r) for r in range(len(seq) + 1)))

    def phi(js):
        out = L.bottom
        for i in js:
            out = L.jn(out, seq[i])
        return out

    val = {js: phi(js) for js in subsets}
    for A in subsets:
        for B in subsets:
            inter = tuple(i for i in A if i in B)
            union = tuple(sorted(set(A) | set(B)))
            if val[inter] != L.mt(val[A], val[B]):
                return False
            if val[union] != L.jn(val[A], val[B]):
                return False
    return True


# -- homogeneous sequences and the two indices ------------------------------


def _homogeneous_levels(L, sim):
    """Level k: the distinct states (base a, join j, last partner or -1) of
    the nontrivial homogeneous sequences of length k.  A state grows by each
    b > last with sim[a, b] and b ^ j == 0 to (a, j v b, b); outside modular
    lattices the inductive meet test depends on the order, hence `last`."""
    disjoint = L.meet == L.bottom
    ids = np.arange(L.n)
    a = ids[ids != L.bottom]
    states = np.stack([a, a, np.full_like(a, -1)], axis=1)
    levels = []
    while len(states):
        levels.append(states)
        a, j, last = states.T
        rows, b = np.nonzero(sim[a] & disjoint[j] & (ids > last[:, None]))
        states = _distinct_rows(np.stack([a[rows], L.join[j[rows], b], b], axis=1))
    return levels


def lattice_index(L, sim):
    """Largest length of a nontrivial homogeneous sequence below each x, as
    a list over the elements: the number of levels with a join <= x."""
    return sum((L.leq[states[:, 1]].any(axis=0) for states in _homogeneous_levels(L, sim)),
               np.zeros(L.n, dtype=int)).tolist()


def index_equality_check(L, D, sim):
    """Lattice index == monoid index of the dimension value, at every x."""
    index = lattice_index(L, sim)
    for x, li in enumerate(index):
        mi = monoid_index(delta(D, L.bottom, x))
        if li != mi:
            raise MismatchError("lattice and monoid index disagree",
                                witness=(L.names[x], li, mi))
    return dict(zip(L.names, index))


# -- n-distributivity and diamonds ------------------------------------------


def n_distributive_verdicts(L):
    """Method A, Huhn's identity x v (y_0 ^ ... ^ y_n) == meet over i of
    (x v m_i), m_i the meet of the y_j with j != i, for every x and y_0 .. y_n:
    one verdict per n = 0, 1, 2, ... from one growth of the states.
    For n >= 1 the meet of the y is the meet of the m_i, so both sides depend
    only on the state (m_0 .. m_n sorted, g = meet of the y).  One y gives
    (top, y); adding z sends each m_i to m_i ^ z, adds g as an m and g to
    g ^ z.  A level is tested in blocks of about _IDENTITY_CELLS cells, then
    grown in blocks of as many rows, each made distinct, and merged once.
    """
    # the narrowest index type, as a merge holds every grown row of a level
    meet, join = L.meet.astype(np.min_scalar_type(L.n)), L.join

    def holds(block):
        # join is symmetric, so row m of it is the column of x v m over x
        rhs = join[block[:, 0]]
        for m in block[:, 1:-1].T:
            rhs = meet[rhs, join[m]]
        return np.array_equal(join[block[:, -1]], rhs)

    def grown(states, zs):
        g = states[:, None, -1:]
        parts = meet[states[:, None, :-1], zs], g.repeat(len(zs), axis=1), meet[g, zs]
        block = np.concatenate(parts, axis=2).reshape(-1, states.shape[1] + 1)
        block[:, :-1].sort(axis=1)
        return _distinct_rows(block)

    elements = np.arange(L.n, dtype=meet.dtype)
    states = np.stack([np.full_like(elements, L.top), elements], axis=1)
    tested = max(1, _IDENTITY_CELLS // L.n)
    while True:
        yield all(holds(states[s:s + tested]) for s in range(0, len(states), tested))
        step = max(1, _IDENTITY_CELLS // len(states))
        states = _distinct_rows(np.concatenate(
            [grown(states, elements[s:s + step, None]) for s in range(0, L.n, step)]))


def n_distributive_identity(L, n):
    """Method A at one n: the n-th verdict of n_distributive_verdicts."""
    return next(itertools.islice(n_distributive_verdicts(L), n, None))


def diamonds(L, m, first_only=False):
    """Nontrivial m-diamonds, reported as (bottom, top) pairs.

    Entries of a nontrivial diamond lie strictly above its bottom; entry
    sequences are enumerated in increasing index order.
    """
    found = set()
    for u in range(L.n):
        above = [a for a in range(L.n) if L.le(u, a) and a != u]

        def extend(seq, join):
            if len(seq) == m:
                for e in L.interval(u, join):
                    if all(L.mt(a, e) == u and L.jn(a, e) == join for a in seq):
                        found.add((u, join))
                        return True
                return False
            start = above.index(seq[-1]) + 1 if seq else 0
            hit = False
            for b in above[start:]:
                if L.mt(b, join) == u:  # independence over u, inductively
                    if extend(seq + [b], L.jn(join, b)):
                        hit = True
                        if first_only:
                            return True
            return hit

        if extend([], u) and first_only:
            return sorted(found)
    return sorted(found)


def n_distributive(L, n, method="both"):
    """n-distributivity by identity evaluation (A) and by absence of a
    nontrivial (n+1)-diamond / homogeneous sequence (B); both must agree."""
    results = {}
    if method in ("A", "both"):
        results["A"] = n_distributive_identity(L, n)
    if method in ("B", "both"):
        if is_sectionally_complemented(L) and is_modular(L):
            results["B"] = lattice_index(L, perspectivity_matrix(L))[L.top] <= n
        else:
            results["B"] = not diamonds(L, n + 1, first_only=True)
    if len(results) == 2 and results["A"] != results["B"]:
        raise MismatchError("distributivity methods disagree", witness=(L.name, n))
    return results.popitem()[1]


# -- normality ---------------------------------------------------------------


def _abnormal_pairs(L, sim):
    """bad[a, b]: a < b are independent and projective, not perspective."""
    return np.triu((L.meet == L.bottom) & _transitive_closure(sim) & ~sim, 1)


def is_normal(L, sim, members=None):
    """Independent projective elements must be perspective.

    Returns (flag, witness) where witness is a failing pair, if any."""
    m = np.arange(L.n) if members is None else np.fromiter(members, dtype=np.intp)
    hits = np.argwhere(_abnormal_pairs(L, sim)[np.ix_(m, m)])
    if not len(hits):
        return True, None
    return False, tuple(m[hits[0]].tolist())


def neutral_ideal(L, gens, sim=None):
    """Smallest lower subset containing gens, closed under join and
    perspectivity: the least fixpoint of those three closures."""
    sim = sim if sim is not None else perspectivity_matrix(L)
    ideal = np.isin(np.arange(L.n), [*gens, L.bottom])
    while True:
        grown = ideal | L.leq[:, ideal].any(axis=1) | sim[ideal].any(axis=0)
        grown[L.join[np.ix_(ideal, ideal)]] = True
        if np.array_equal(grown, ideal):
            return np.flatnonzero(ideal).tolist()
        ideal = grown


def normal_kernel(L, sim=None):
    """Elements whose generated neutral ideal is a normal lattice.

    Perspectivity and projectivity inside a neutral ideal of a sectionally
    complemented modular lattice agree with the ambient relations, so the
    global matrices may be reused.
    """
    sim = sim if sim is not None else perspectivity_matrix(L)
    bad = _abnormal_pairs(L, sim)
    ideals = (neutral_ideal(L, [x], sim) for x in range(L.n))
    return [x for x, m in enumerate(ideals) if not bad[np.ix_(m, m)].any()]


def homogeneous_base_set(L, m, sim=None):
    """Elements that start a homogeneous sequence of length m."""
    sim = sim if sim is not None else perspectivity_matrix(L)
    # level 1 starts at every nonzero element, which serves any m <= 1
    levels = _homogeneous_levels(L, sim)[max(m, 1) - 1:]
    return [L.bottom, *sorted(set(levels[0][:, 0].tolist() if levels else ()))]


def m_ideal(L, m, sim=None):
    """Neutral ideal generated by the first entries of length-m homogeneous
    sequences."""
    sim = sim if sim is not None else perspectivity_matrix(L)
    return neutral_ideal(L, homogeneous_base_set(L, m, sim), sim)


def diam_congruence(L, m):
    """Congruence generated by (bottom, top) over all nontrivial m-diamonds."""
    return congruence_from_pairs(L, diamonds(L, m))


def diam_ideal_equivalence_check(L, m):
    """x lies in mL iff x collapses to zero modulo the m-diamond congruence."""
    ideal = set(m_ideal(L, m))
    theta = diam_congruence(L, m)
    for x in range(L.n):
        if (x in ideal) != theta.same(x, L.bottom):
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


# -- decompositions ----------------------------------------------------------


def two_piece_decomposition(L, a, b, D=None, sim=None):
    """For equal-dimension a, b: a = a0+a1, b = b0+b1 with a0 ~ b0 and
    a1 ~ b1; None when the dimensions differ."""
    D = D or dimension_monoid(L)
    if delta(D, L.bottom, a) != delta(D, L.bottom, b):
        return None
    sim = sim if sim is not None else perspectivity_matrix(L)
    for a0 in L.interval(L.bottom, a):
        for a1 in sectional_complements(L, a0, a):
            for b0 in L.interval(L.bottom, b):
                if not sim[a0, b0]:
                    continue
                for b1 in sectional_complements(L, b0, b):
                    if sim[a1, b1]:
                        return a0, a1, b0, b1
    raise MismatchError("no two-piece decomposition found",
                        witness=(L.names[a], L.names[b]))


def _decomposition_closure(L, rel):
    """Pairs (a, b) with matching independent decompositions whose parts are
    rel-related (the "by decomposition" closure of rel): the least fixpoint
    above rel | eye of adding (a, b) when a = a0 + a1 and b = b0 + b1 with
    rel[a0, b0], out[a1, b1], a0 not in {0, a} and b0 != 0.

    With sc[x, a, y] = (x ^ y == 0) & (x v y == a), each round is two bool
    matrix products over n^3 tensors; the rounds add pairs monotonically, so
    they stop at the least fixpoint.
    """
    n, bottom = L.n, L.bottom
    ids = np.arange(n)
    sc = (L.meet == bottom)[:, None, :] & (L.join[:, None, :] == ids[None, :, None])
    sc[bottom] = False
    # left[a, (a0, a1)] = sc[a0, a, a1] with a0 != a
    left = sc.copy()
    left[ids, ids] = False
    left = left.transpose(1, 0, 2).reshape(n, n * n)
    # right[a0, b1, b] = OR over b0 of rel[a0, b0] & sc[b0, b, b1]
    right = (np.asarray(rel, dtype=bool) @ sc.reshape(n, n * n)).reshape(n, n, n)
    right = right.transpose(0, 2, 1)
    out = np.array(rel, dtype=bool) | np.eye(n, dtype=bool)
    while True:
        # (out @ right)[a0, a1, b] = OR over b1 of out[a1, b1] & right[a0, b1, b]
        grown = out | left @ (out @ right).reshape(n * n, n)
        if np.array_equal(grown, out):
            return out
        out = grown


def relations_suite(L, D, sim):
    """Perspectivity and its derived closures, cross-checked against the
    dimension pipeline where the theory identifies them: projectivity by
    decomposition is equality of dimension."""
    approx = _transitive_closure(sim)
    lesssim = sim @ L.leq
    approxeq = _decomposition_closure(L, approx)
    if is_sectionally_complemented(L) and is_modular(L):
        values = {}
        ids = np.array([values.setdefault(delta(D, L.bottom, a), len(values))
                        for a in range(L.n)])
        wrong = np.argwhere(approxeq != (ids[:, None] == ids[None, :]))
        if len(wrong):
            a, b = wrong[0].tolist()
            raise MismatchError(
                "projectivity by decomposition must match dimension equality",
                witness=(L.names[a], L.names[b]))
    return {"sim": sim, "approx": approx, "lesssim": lesssim, "approxeq": approxeq}


def transitivity_cancellativity_check(L, D, sim):
    """Perspectivity transitive <=> pipeline order is an antichain without
    self-related points (cancellativity of the monoid)."""
    transitive = np.array_equal(sim, _transitive_closure(sim))
    cancellative = D.qo.is_antichain() and not D.qo.p0
    if transitive != cancellative:
        raise MismatchError("transitivity and cancellativity disagree",
                            witness=L.name)
    return {"transitive": transitive, "cancellative": cancellative}


# -- bounded decomposition witnesses (exercised by the test suite) -----------


def v_measure_check(L, D=None):
    """Every split of a dimension value delta(c) = alpha + beta over the
    dimension range lifts to an element split c = a + b."""
    D = D or dimension_monoid(L)
    rng = {x: delta(D, L.bottom, x) for x in range(L.n)}
    for c in range(L.n):
        target = rng[c]
        for x in range(L.n):
            for y in range(L.n):
                if rng[x] + rng[y] != target:
                    continue
                ok = False
                for a in L.interval(L.bottom, c):
                    if rng[a] != rng[x]:
                        continue
                    for b in sectional_complements(L, a, c):
                        if rng[b] == rng[y]:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
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
        for first in L.interval(L.bottom, x):
            for rest in sectional_complements(L, first, x):
                for tail in split_into(rest, k - 1):
                    yield (first,) + tail

    def go(rows, cols):
        if not rows:
            return [] if all(c == L.bottom for c in cols) else None
        a0 = rows[0]
        for cells in split_into(a0, len(cols)):
            # match cell j inside cols[j]
            def match(j, newcols, drow):
                if j == len(cols):
                    rest = go(rows[1:], newcols)
                    return None if rest is None else [drow] + rest
                for d in L.interval(L.bottom, newcols[j]):
                    if not approxeq[cells[j], d]:
                        continue
                    for comp in sectional_complements(L, d, newcols[j]):
                        got = match(j + 1, newcols[:j] + [comp] + newcols[j + 1:],
                                    drow + [(cells[j], d)])
                        if got is not None:
                            return got
                return None

            got = match(0, list(cols), [])
            if got is not None:
                return got
    return go(list(parts_a), list(parts_b))


def jonsson_decomposition(L, a, b, sim=None):
    """Bounded search for the two-step-perspectivity decompositions
    a = u0 + u1 + (sum of a_i), b = u + (sum of b_i) + h with u0 ~ u, u1 ~ u
    and a_i ~ b_i for i < 4 (zero summands allowed)."""
    sim = sim if sim is not None else perspectivity_matrix(L)

    def four_match(x, y):
        """x = sum a_i, y = sum b_i with a_i ~ b_i, at most 4 summands."""
        return _matched_decomposition(L, x, y, sim, 4)

    for u0 in L.interval(L.bottom, a):
        for u1 in [z for z in L.interval(L.bottom, a) if L.mt(z, u0) == L.bottom]:
            u01 = L.jn(u0, u1)
            if not L.le(u01, a):
                continue
            for rest_a in sectional_complements(L, u01, a):
                for u in L.interval(L.bottom, b):
                    if not (sim[u0, u] and sim[u1, u]):
                        continue
                    for w in sectional_complements(L, u, b):
                        for h in L.interval(L.bottom, w):
                            for mid in sectional_complements(L, h, w):
                                if four_match(rest_a, mid):
                                    return (u0, u1, rest_a), (u, mid, h)
    return None


def _matched_decomposition(L, x, y, rel, depth):
    """x and y split into at most `depth` pairwise rel-related independent
    summands."""
    if x == L.bottom and y == L.bottom:
        return True
    if depth == 0:
        return False
    if rel[x, y]:
        return True
    for x0 in L.interval(L.bottom, x):
        if x0 == L.bottom:
            continue
        for y0 in L.interval(L.bottom, y):
            if not rel[x0, y0]:
                continue
            for x1 in sectional_complements(L, x0, x):
                for y1 in sectional_complements(L, y0, y):
                    if _matched_decomposition(L, x1, y1, rel, depth - 1):
                        return True
    return False
