"""Perspectivity-based structure theory on finite lattices with zero, as far
as the `geom` and `check --all` verbs run it: perspectivity, homogeneous
sequences and the lattice index, Huhn's identity, normality, and the
decomposition closure behind the relations suite.

Homogeneous sequences, Huhn's identity, normality and the decomposition
closure are passes over the order, meet and join tables.  The sequences and
the identity each grow once, level by level, over distinct states: (base,
join, last partner) give every index, the meets of the variables one
verdict per n.  The closure is a least fixpoint of bool matrix products.
The test suite checks them against the loops and searches they replaced
(`tests/oracles.py`), and builds the rest of the theory on them
(`tests/theory.py`): independence, diamonds, neutral ideals and the normal
kernel, and the bounded decomposition searches.
"""

import numpy as np

from .dimension import delta_rows
from .errors import MismatchError
from .lattice import _distinct_rows, _transitive_closure
from .monoid import INF

# a block of n_distributive_verdicts holds about this many states while they
# grow, or cells, one per x and state, while they are tested
_IDENTITY_CELLS = 1 << 15


def perspectivity_matrix(L):
    """sim[a, b]: a and b are perspective, one row pass per a."""
    sim = np.empty((L.n, L.n), dtype=bool)
    for a in range(L.n):
        sim[a] = ((L.meet[a] == L.meet) & (L.join[a] == L.join)).any(axis=1)
    return sim


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


def _bottom_values(L, D):
    """Delta(0, x) for every x, the rows of one `delta_rows` call."""
    return delta_rows(D, np.full(L.n, L.bottom), np.arange(L.n))


def index_equality_check(L, D, sim):
    """Lattice index == monoid index of the dimension value, at every x.  The
    monoid index of a value is oo when some entry is, else its largest entry."""
    index = lattice_index(L, sim)
    values = _bottom_values(L, D)
    infinite = (values == INF).any(axis=1)
    monoid = np.where(infinite, INF, values.max(axis=1, initial=0))
    bad = np.flatnonzero(np.array(index) != monoid)
    if len(bad):
        x = bad[0]
        raise MismatchError("lattice and monoid index disagree",
                            witness=(L.names[x], index[x],
                                     INF if infinite[x] else int(monoid[x])))
    return dict(zip(L.names, index))


# -- n-distributivity ------------------------------------------------------


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


# -- normality ---------------------------------------------------------------


def is_normal(L, sim):
    """Independent projective elements must be perspective.

    Returns (flag, witness) where witness is the first failing pair a < b
    in row-major order, if any."""
    hits = np.argwhere(np.triu((L.meet == L.bottom) & _transitive_closure(sim) & ~sim, 1))
    if not len(hits):
        return True, None
    return False, tuple(hits[0].tolist())


# -- the decomposition closure and the SCM suites ---------------------------


# the decomposition closure holds several n x n x n bool tensors at once; past
# this many cells per tensor, `check --all` refuses before it builds anything
DECOMPOSITION_GUARD = 1 << 29


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


def relations_suite(L, D, sim, approx):
    """Perspectivity and its derived closures, cross-checked against the
    dimension pipeline where the theory identifies them: projectivity by
    decomposition is equality of dimension.  `approx` is projectivity, the
    transitive closure of sim.  L must be sectionally complemented and
    modular, as `check --all` establishes before it calls this."""
    approxeq = _decomposition_closure(L, approx)
    values = _bottom_values(L, D)
    wrong = np.argwhere(approxeq != (values[:, None] == values[None]).all(axis=2))
    if len(wrong):
        a, b = wrong[0].tolist()
        raise MismatchError(
            "projectivity by decomposition must match dimension equality",
            witness=(L.names[a], L.names[b]))
    return {"sim": sim, "approx": approx, "approxeq": approxeq}


def transitivity_cancellativity_check(L, D, sim, approx):
    """Perspectivity transitive <=> pipeline order is an antichain without
    self-related points (cancellativity of the monoid); `approx` is the
    transitive closure of sim."""
    transitive = np.array_equal(sim, approx)
    cancellative = D.qo.is_antichain() and not D.qo.p0
    if transitive != cancellative:
        raise MismatchError("transitivity and cancellativity disagree",
                            witness=L.name)
    return {"transitive": transitive, "cancellative": cancellative}
