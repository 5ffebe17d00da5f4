"""Congruences of finite lattices, their lattice and quotients.

Con L is read off the join-irreducible elements (R. Freese, "Computing
congruences efficiently", Algebra Universalis 59 (2008) 337-343).  Each
join-irreducible j has one lower cover j_*, and j D k holds when
j <= k v x but j !<= k_* v x for some x.  con(j_*, j) <= con(k_*, k) exactly
when j D* k (the reflexive-transitive closure), so the strong components of
D are the join-irreducible congruences and Con L is the lattice of down-sets
of their quotient order.  The congruence that collapses a down-set S of
classes sends x to lo(x), the join of the join-irreducibles below x whose
class is not in S; x and y share a block iff lo(x) = lo(y).  Con L is one
block table: row i of `CongruenceLattice.blocks` is the block_of array of
congruence i, each block named by its least member.  `DClasses.collapsed_by`
gives the class masks the pairs generate in one stacked pass, and
`CongruenceLattice.index_of` turns those masks into rows of the table.

A congruence is such a block_of row throughout the package.  `to_json` and
`from_json` write and read it as a JSON sidecar that lists the blocks by
element names, beside `lattice.to_json` and `lattice.from_json`.
"""

import json

import numpy as np

from .errors import ParamTooLarge
from .lattice import (_BLOCK_CELLS, FiniteLattice, _down_sets, _is_name,
                      _join_irreducibles, _strong_components, _transitive_closure)

# the D pass reads |J|^2 * n cells of the order table
CON_PASS_GUARD = 10 ** 8
# Con L is listed only if it has at most CON_COUNT_GUARD congruences whose
# block_of rows (|Con L| * n int32 cells) fit in CON_TABLE_GUARD cells
CON_COUNT_GUARD = 100_000
CON_TABLE_GUARD = 1 << 21
# the refinement order is a |Con L|^2 bool matrix
CON_ORDER_GUARD = 1 << 24


def _d_block(L, J, lower, rows, cols):
    """out[a, b] == (J[rows[a]] D J[cols[b]]): some x has j <= k v x but not
    j <= k_* v x.  One pass of len(cols) * n cells per row."""
    up, up_lo = L.join[J[cols]], L.join[lower[cols]]
    out = np.empty((len(rows), len(cols)), dtype=bool)
    for i, a in enumerate(rows):
        le = L.leq[J[a]]
        out[i] = (le[up] & ~le[up_lo]).any(axis=1)
    return out


def has_one_d_class(L):
    """Do the join-irreducibles of L form a single D-class?  A search from
    the first one along D and then against it, each of which stops as soon
    as it has reached everything it can; a chain pays for one row."""
    J, lower = _join_irreducibles(L)
    every = np.arange(len(J))
    for forward in (True, False):
        seen = every == 0
        frontier = every[seen]
        while len(frontier):
            hit = (_d_block(L, J, lower, frontier, every).any(axis=0) if forward
                   else _d_block(L, J, lower, every, frontier).any(axis=1))
            frontier = np.flatnonzero(hit & ~seen)
            seen |= hit
        if not seen.all():
            return False
    return True


class DClasses:
    """The join-irreducibles of L grouped into the strong components of D.

    `J` lists them ascending and `cls[a]` is the class of J[a]; classes are
    numbered in the order of their least members.  below[c, d] holds when
    the congruence of class c lies below that of class d.
    """

    def __init__(self, L):
        J, lower = _join_irreducibles(L)
        cells = len(J) ** 2 * L.n
        if cells > CON_PASS_GUARD:
            raise ParamTooLarge(f"D-relation pass of {cells} cells exceeds guard "
                                f"{CON_PASS_GUARD}")
        every = np.arange(len(J))
        reach = _transitive_closure(_d_block(L, J, lower, every, every))
        reps, cls = _strong_components(reach)
        self.over, self.J, self.cls = L, J, cls
        self.below = reach[np.ix_(reps, reps)]
        for a in (self.J, self.cls, self.below):
            a.flags.writeable = False

    def __len__(self):
        return len(self.below)

    def collapsed_by(self, pairs):
        """One class mask per pair (a, b) of the congruence it generates: the
        down-set of the classes of the j <= a v b with j !<= a ^ b."""
        L = self.over
        a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        leq = L.leq[self.J]
        inside = leq[:, L.join[a, b]] & ~leq[:, L.meet[a, b]]
        onehot = self.cls[:, None] == np.arange(len(self.below))
        return inside.T @ onehot @ self.below.T

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


def congruence_from_pairs(L, pairs):
    """The block_of row of the smallest congruence of L merging every given
    pair."""
    D = DClasses(L)
    return D.partitions(D.collapsed_by(pairs).any(axis=0)[None, :])[0]


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
        for a in (self.members, self.blocks):
            a.flags.writeable = False
        self._index = {m.tobytes(): i for i, m in enumerate(self.members)}
        self._leq = None

    def __len__(self):
        return len(self.blocks)

    @property
    def leq(self):
        """leq[i, j]: congruence i refines j, i.e. its classes are among j's."""
        if self._leq is None:
            if len(self) ** 2 > CON_ORDER_GUARD:
                raise ParamTooLarge("congruence lattice too large")
            # members[i] <= members[j] unless some class of i is missing from j
            self._leq = ~(self.members @ ~self.members.T)
            self._leq.flags.writeable = False
        return self._leq

    def height(self):
        """Length of the longest chain of Con L: the number of D-classes."""
        return len(self.classes)

    def index_of(self, masks):
        """Table positions of the congruences whose class masks are the rows."""
        return np.array([self._index[m.tobytes()] for m in masks], dtype=np.intp)

    def join_irreducibles(self):
        """Indices of the congruences with one lower cover: the principal
        down-sets of the class order."""
        return np.sort(self.index_of(self.classes.below.T)).tolist()

    def meet_irreducibles(self):
        """Indices of congruences with exactly one upper cover (coarse
        excluded): the complements of the principal up-sets."""
        return np.sort(self.index_of(~self.classes.below)).tolist()


def all_congruences(L):
    """Con L: one congruence per down-set of the D-class order."""
    classes = DClasses(L)
    limit = min(CON_COUNT_GUARD, CON_TABLE_GUARD // L.n)
    return CongruenceLattice(classes, _down_sets(classes.below, limit, "congruence lattice"))


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


# -- the JSON sidecar ----------------------------------------------------------


def _block_names(L, block_of):
    """The blocks of a block_of row as lists of element names, each in index
    order, the blocks in the order of their least members."""
    blocks = {}
    for x, b in enumerate(np.asarray(block_of).tolist()):
        blocks.setdefault(b, []).append(L.names[x])
    return list(blocks.values())


def is_compatible(L, block_of):
    """Is the partition of a block_of row, each block named by a member of
    it, a congruence?  x ^ z and x v z share a block with r ^ z and r v z for
    all x, z, r the member naming x's block; so do any two members of a block."""
    b = np.asarray(block_of, dtype=np.intp)
    return all((b[t] == b[t[b]]).all() for t in (L.meet, L.join))


def to_json(L, block_of):
    """The sidecar document of a congruence: {"congruence": [[names...], ...]}."""
    return json.dumps({"congruence": _block_names(L, block_of)}, sort_keys=True)


def from_json(L, text):
    """Parse the sidecar format, a JSON text or its parsed document, into the
    block_of row of a congruence of L, each block named by its least member."""
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise ValueError("congruence sidecar must hold a JSON object")
    if "congruence" not in doc:
        raise ValueError("congruence sidecar has no 'congruence' key")
    blocks = doc["congruence"]
    if not isinstance(blocks, list) or not all(
            isinstance(block, list) and all(map(_is_name, block)) for block in blocks):
        raise ValueError("'congruence' must be a list of lists of names")
    block_of = np.full(L.n, -1, dtype=np.int32)
    for block in blocks:
        if not block:
            raise ValueError("empty block in congruence")
        # names match by str(), as in build_lattice
        members = []
        for x in map(str, block):
            if x not in L.index:
                raise ValueError(f"unknown element {x!r} in congruence")
            if block_of[L.index[x]] >= 0 or L.index[x] in members:
                raise ValueError(f"element {x!r} appears in two blocks")
            members.append(L.index[x])
        block_of[members] = min(members)
    if (block_of < 0).any():
        raise ValueError("blocks do not cover every element")
    if not is_compatible(L, block_of):
        raise ValueError("blocks are not compatible with meet and join")
    return block_of
