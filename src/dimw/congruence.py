"""Congruences of finite lattices, their lattice and quotients.

Con L is read off the join-irreducible elements (R. Freese, "Computing
congruences efficiently", Algebra Universalis 59 (2008) 337-343).  Each
join-irreducible j has one lower cover j_*, and j D k holds when
j <= k v x but j !<= k_* v x for some x.  con(j_*, j) <= con(k_*, k) exactly
when j D* k (the reflexive-transitive closure), so the strong components of
D are the join-irreducible congruences and Con L is the lattice of down-sets
of their quotient order, `DClasses.below`.  Nothing lists Con L: its size is
`count_down_sets` of that order, its join- and meet-irreducibles are the
principal down-sets and their complements, one per class, and its height is
the number of classes.  `DClasses.collapsed_by` gives the class masks the
pairs generate in one stacked pass, and one congruence includes another
when its mask does.

D is read off the arrow relations (R. Freese, J. Jezek and J. B. Nation,
Free Lattices, AMS 1995, ch. II).  Each meet-irreducible m has one upper
cover m*; j up m when j !<= m and j <= m*, and k down m when k !<= m and
k_* <= m.  Then j D k iff j up m and k down m for some m: a maximal m above
k_* v x and not above j, for a witness x, is meet-irreducible with both
arrows; and such an m is a witness, as k v m > m lies above m* >= j.  So D
is one product of the two |J| x |M| tables of `_arrows`.

The congruence that collapses a down-set S of classes sends x to lo(x),
the join of the join-irreducibles below x whose class is not in S; x and y
share a block iff lo(x) = lo(y).  `DClasses.partitions` writes it as a
block_of row, each block named by its least member, and a congruence is
such a row throughout the package.
"""

import numpy as np

from .errors import ParamTooLarge
from .lattice import (_BLOCK_CELLS, FiniteLattice, _irreducibles, _strong_components,
                      _transitive_closure)

# the D stage, the arrow product and its Warshall closure, takes
# |J|^2 * (|J| + |M|) steps
CON_PASS_GUARD = 1 << 31
# the down-set count of the D-class order takes at most 2 * CON_COUNT_GUARD
# steps, and fewer than 2N on an order with N down-sets
CON_COUNT_GUARD = 100_000


def _arrows(L):
    """J(L) ascending and the arrow tables over M(L): up[j, m] when j !<= m
    and j <= m*, down[k, m] when k !<= m and k_* <= m, gathered from the
    order table a block of rows at a time."""
    (J, lower), (M, upper) = _irreducibles(L._down), _irreducibles(L._up)
    up, down = (np.empty((len(J), len(M)), dtype=bool) for _ in range(2))
    step = max(1, _BLOCK_CELLS // L.n)
    for s in range(0, len(J), step):
        rows = L.leq.take(J[s:s + step], axis=0)
        le_m = rows.take(M, axis=1)
        up[s:s + step] = rows.take(upper, axis=1) > le_m
        down[s:s + step] = L.leq.take(lower[s:s + step], axis=0).take(M, axis=1) > le_m
    return J, up, down


def has_one_d_class(L):
    """Do the join-irreducibles of L form a single D-class?  A search from
    the first one along D and then against it: the next step from the
    frontier is every k with an arrow into an m that the frontier's arrows
    reach.  Each search stops as soon as it has reached everything it can."""
    J, up, down = _arrows(L)
    for a, b in ((up, down), (down, up)):
        seen = frontier = np.arange(len(J)) == 0
        while frontier.any():
            hit = b[:, a[frontier].any(axis=0)].any(axis=1)
            frontier, seen = hit & ~seen, seen | hit
        if not seen.all():
            return False
    return True


class DClasses:
    """The join-irreducibles of L grouped into the strong components of D.

    `J` lists them ascending and `cls[a]` is the class of J[a]; classes are
    numbered in the order of their least members.  below[c, d] holds when
    the congruence of class c lies below that of class d.  D is the float32
    product of the arrow tables, exact as each count is at most |M| < 2^24.
    """

    def __init__(self, L):
        j, m = (len(_irreducibles(covers)[0]) for covers in (L._down, L._up))
        steps = j * j * (j + m)
        if steps > CON_PASS_GUARD:
            raise ParamTooLarge(f"D-relation stage of {steps} steps exceeds guard {CON_PASS_GUARD}")
        J, up, down = _arrows(L)
        reach = _transitive_closure(up.astype(np.float32) @ down.T.astype(np.float32) > 0)
        reps, cls = _strong_components(reach)
        self.over, self.J, self.cls = L, J, cls
        self.below = reach[np.ix_(reps, reps)]
        for a in (self.J, self.cls, self.below):
            a.flags.writeable = False

    def __len__(self):
        return len(self.below)

    def collapsed_by(self, pairs):
        """One class mask per pair (a, b) of the congruence it generates: the
        down-set of the classes of the j <= a v b with j !<= a ^ b.  The
        float32 product is exact, as each count is at most |J| < 2^24; a
        bool product would run without BLAS."""
        L = self.over
        a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        leq = L.leq[self.J]
        inside = leq[:, L.join[a, b]] & ~leq[:, L.meet[a, b]]
        onehot = self.cls[:, None] == np.arange(len(self.below))
        return (inside.T.astype(np.float32) @ onehot.astype(np.float32)
                @ self.below.T.astype(np.float32)) > 0

    def partitions(self, collapsed):
        """block_of rows of the congruences that collapse the classes of each
        row of `collapsed`.  lo(x) joins the j <= x of the other classes in
        one masked pass per j; a block is named by its least index."""
        L = self.over
        n = L.n
        keep = ~collapsed[:, self.cls]
        out = np.empty((len(keep), n), dtype=np.int32)
        step = max(1, _BLOCK_CELLS // n)
        for s in range(0, len(keep), step):
            part = keep[s:s + step]
            lo = np.full((len(part), n), L.bottom, dtype=np.intp)
            for a, j in enumerate(self.J.tolist()):
                lo = np.where(part[:, a, None] & L.leq[j], L.join[lo, j], lo)
            # keys distinct across rows; the first index of each key is the
            # least member of its block
            lo += n * np.arange(len(part))[:, None]
            _, first, inverse = np.unique(lo, return_index=True, return_inverse=True)
            out[s:s + step] = (first % n)[inverse].reshape(len(part), n)
        return out


def count_down_sets(below):
    """The number of down-sets of the order below[c, d] (c <= d), |Con L| for
    the D-class order.  Points related to no other point of the rest double
    the count each; of the others, the most related point p splits the
    down-sets into those without p, which avoid the points above it, and
    those with p, which hold the points below it.  Each call counts at
    least the leaves under it, so a count of N takes fewer than 2N calls;
    past 2 * CON_COUNT_GUARD calls it stops with ParamTooLarge."""
    up, down = ([int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
                 for r in m] for m in (below, below.T))
    # the other points related to c, either way
    near = [(u | d) & ~(1 << c) for c, (u, d) in enumerate(zip(up, down))]
    steps = 0

    def count(rest):
        nonlocal steps
        steps += 1
        if steps > 2 * CON_COUNT_GUARD:
            raise ParamTooLarge(f"congruence lattice too large: counting the down-sets of "
                                f"{len(below)} D-classes takes over {2 * CON_COUNT_GUARD} steps")
        free, best, p, scan = 0, 0, -1, rest
        while scan:
            low = scan & -scan
            scan ^= low
            c = low.bit_length() - 1
            degree = (near[c] & rest).bit_count()
            if not degree:
                free |= low
            elif degree > best:
                best, p = degree, c
        if p < 0:
            return 1 << free.bit_count()
        rest ^= free
        return (count(rest & ~up[p]) + count(rest & ~down[p])) << free.bit_count()

    return count((1 << len(below)) - 1)


def quotient_lattice(L, block_of):
    """L / theta, for the block_of row of a congruence theta, together with
    the block index of every element of L as an int array."""
    # blocks in the order of their least members
    reps, proj = np.unique(block_of, return_inverse=True)
    onehot = proj[:, None] == np.arange(len(reps))
    # [x] <= [y] iff some member of [x] lies below some member of [y]
    leq = onehot.T @ L.leq @ onehot
    names = ["[%s]" % L.names[r] for r in reps.tolist()]
    Q = FiniteLattice(names, leq, name=f"{L.name}/~", _validate=False)
    return Q, proj
