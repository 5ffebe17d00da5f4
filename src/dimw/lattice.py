"""Finite lattices: validated order/meet/join tables, builtin catalog, predicates.

Elements are dense integer indices with a name table; all order data is kept
in numpy matrices so that downstream searches get O(1) order queries.
"""

import functools
import itertools
import json

import numpy as np

from .errors import CycleError, NotALattice, ParamTooLarge, UnknownBuiltin

SIZE_GUARD = 10_000
# cells in one block of a blocked table pass, so that the temporaries of
# a pass stay far below one n x n table
_BLOCK_CELLS = 1 << 16


def _closure_from_edges(n, edges):
    """Reflexive-transitive closure as a boolean matrix leq[i, j] == (i <= j),
    or CycleError.  The up-sets are int bitsets, bit j for element j, filled
    from the last element of a topological order of the edges back to the
    first: the up-set of v is v OR the up-sets of its successors.  One
    unpack turns the bitsets into the rows of the matrix."""
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
    rows = [0] * n
    for v in reversed(order):
        row = 1 << v
        for w in succ[v]:
            row |= rows[w]
        rows[v] = row
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _transitive_closure(mat):
    """Transitive closure of a boolean relation matrix (Warshall, numpy rows).
    A k that no other point reaches adds no pair, so sparse relations, and
    the loops of reflexive ones, skip it."""
    out = mat.copy()
    for k in range(len(out)):
        if np.count_nonzero(out[:, k]) > out[k, k]:
            out |= out[:, k, None] & out[k, None, :]
    return out


def _numbered(least):
    """Classes given as the least member of each point's class: the least
    members ascending, and the class of each point, numbered 0, 1, ... in
    that order.  Exactly the least members are their own least member."""
    roots = least == np.arange(len(least))
    return np.flatnonzero(roots), (np.cumsum(roots) - 1)[least]


def _strong_components(closed):
    """The strong components of a transitively closed relation: the least
    member of each, ascending, and the component of each point.  Mutual
    pairs share a cycle, so with the diagonal set a row's first is its least."""
    k = len(closed)
    mutual = closed & closed.T | np.eye(k, dtype=bool)
    return _numbered(mutual.argmax(axis=1) if k else np.zeros(0, dtype=np.intp))


def _components(n, first, second):
    """The connected components of the graph on 0..n-1 with the edges
    (first[i], second[i]): the component of each vertex, numbered 0, 1, ...
    in the order of their least members.

    Min-label propagation with pointer jumping: each label is a member of
    its vertex's component and no larger than the vertex, so the labels
    form a forest of pointers down to roots (label[r] == r).  A round hooks
    the root of each edge end to the lesser root of the two, then jumps
    every label to its root.  Labels only fall, so the rounds stop, and they
    stop when every edge joins one root: then a component has one label,
    and its least member, whose label can fall no further, is that label.
    """
    label = np.arange(n)
    while True:
        lf, ls = label[first], label[second]
        if (lf == ls).all():
            return _numbered(label)[1]
        low = np.minimum(lf, ls)
        np.minimum.at(label, lf, low)
        np.minimum.at(label, ls, low)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


def _padded(lists, pad):
    """The lists as the rows of one int array, padded with `pad`."""
    out = np.full((len(lists), max(map(len, lists))), pad)
    for x, row in enumerate(lists):
        out[x, :len(row)] = row
    return out


def _runs(first, count):
    """The pairs (i, first[i] + j) for 0 <= j < count[i], ordered by i and
    then j, as two index arrays."""
    rows = np.arange(len(first)).repeat(count)
    return rows, np.arange(len(rows)) - (count.cumsum() - count - first).repeat(count)


def _matches(keys, values):
    """The pairs (i, k) with keys[k] == values[i], keys sorted, ordered by i
    and then k, as two index arrays."""
    # array methods, not their np.* wrappers: tiny lattices pay per call
    first = keys.searchsorted(values)
    return _runs(first, keys.searchsorted(values, side="right") - first)


def _distinct_rows(rows):
    """The distinct rows of an int table in row-major order, neighbours
    compared one sorted column at a time; not np.unique, whose first call
    in a process costs over 1 MB of resident memory."""
    order = np.lexsort(rows.T[::-1])
    fresh = np.arange(len(rows)) == 0
    for col in rows.T:
        fresh[1:] |= np.diff(col[order]) != 0
    return rows[order[fresh]]


def _covers_of_leq(leq, order):
    """The covering pairs of the order leq, ascending, given a linear
    extension `order` of it.  The up-sets are int bitsets in rank space, bit
    r for order[r], packed from blocks of at most _BLOCK_CELLS cells of leq,
    so the lowest set bit of a set is its least-ranked member, which is
    minimal in it.  The upper covers of a come out one by one: take the
    lowest bit left of its strict up-set, then clear it and its up-set."""
    n, ranks = len(order), np.asarray(order)
    step = max(1, _BLOCK_CELLS // n)
    up = []
    for s in range(0, n, step):
        block = leq.take(ranks[s:s + step], axis=0).take(ranks, axis=1)
        data = memoryview(np.packbits(block, axis=1, bitorder="little").tobytes())
        width = len(data) // len(block)
        up.extend(int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width))
    pairs = []
    for i, rest in enumerate(up):
        rest &= ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            pairs.append((order[i], order[j]))
            rest &= ~up[j]
    pairs.sort()
    return tuple(pairs)


def _least_bounds(leq, up, order):
    """bound[a, b]: the common upper bound of a and b of least rank in
    `order`, a linear extension of leq, or n if there is none.  Rows are
    filled down `order` as ranks by the cover recursion (Freese, Jezek and
    Nation, Free Lattices, 1995): bound(a, b) is a for b <= a, none for the
    other b if a is maximal, and else the least candidate bound(c, b) over
    the upper covers c in `up[a]`, as an upper bound of {a, b} lies above
    some c.  Ranks become elements in blocks whose temporaries hold the
    bytes of at most _BLOCK_CELLS int32 cells.  O(n^2 d), d the most upper
    covers of one element."""
    n = len(order)
    perm = np.array(list(order) + [n], dtype=np.int32)
    rank = np.empty(n, dtype=np.int32)
    rank[perm[:n]] = np.arange(n, dtype=np.int32)
    bound = np.empty((n, n), dtype=np.int32)  # ranks until the map below
    for a in reversed(order):
        row = bound[a]
        if not up[a]:
            row.fill(n)
        elif len(up[a]) == 1:  # one candidate: it is the least
            row[:] = bound[up[a][0]]
        else:
            np.minimum.reduce(bound.take(up[a], axis=0), out=row)
        np.copyto(row, rank[a], where=leq[:, a])
    # take copies a block's int32 ranks to intp indices, so a block of half
    # _BLOCK_CELLS cells keeps that copy at the bytes of a full int32 block;
    # every rank is in range, so "wrap" changes none, and unlike "raise" it
    # writes into `out` without a second buffer
    cells, half = bound.reshape(-1), _BLOCK_CELLS // 2
    for s in range(0, n * n, half):
        block = cells[s:s + half]
        np.take(perm, block, out=block, mode="wrap")
    return bound


def _is_join(leq, up, bound):
    """Is the table of `_least_bounds` the join table?  Not if two elements
    are maximal; else one pass tests bound(a, b) <= bound(c, b) for every b
    and every cover a < c where a has two or more upper covers, in blocks
    of at most _BLOCK_CELLS int32 cells.

    Claim: the test passes exactly when every pair has a join, and then it
    is bound: a v b, if it exists, is the upper bound of least rank.  (=>)
    a <= c gives a v b <= c v b.  (<=) By induction down `order`: bound(a,
    b) = a = a v b for b <= a, which covers the top, the one maximal
    element; else a v b is the one candidate if a has one upper cover, and
    if it has several, the test puts bound(a, b), a candidate, below every
    other.  This is the row-by-row test of the recursion: in a column
    b <= a it holds on its own, as bound(a, b) = a < c <= bound(c, b).

    The constructor runs the pass on the dual order only, where it tests
    the meet table.  A finite meet-semilattice with a greatest element 1 is
    a lattice (the dual of Davey and Priestley, Introduction to Lattices
    and Order, 2nd ed., ch. 2): the common upper bounds of a and b hold 1,
    and their meet is a v b.  A finite order has a greatest element iff it
    has one maximal element, so once every meet exists the join side fails
    exactly when two elements are maximal, and else, by the claim, the
    table of `_least_bounds` on the order is the join table.
    """
    if up.count([]) > 1:
        return False
    n = len(up)
    # the test reads leq[x, y] as cell x * n + y of a contiguous leq, or
    # y * n + x of the contiguous table that leq transposes (n <= SIZE_GUARD:
    # int32 holds it)
    lo = np.array([a for a in range(n) if len(up[a]) > 1 for _ in up[a]], dtype=np.int32)
    hi = np.array([c for a in range(n) if len(up[a]) > 1 for c in up[a]], dtype=np.int32)
    x, y = (lo, hi) if leq.strides[0] >= leq.strides[1] else (hi, lo)
    flat = leq.ravel(order="K")
    step = max(1, _BLOCK_CELLS // (2 * n))  # two rows of the table per cover
    for s in range(0, len(lo), step):
        at = bound.take(x[s:s + step], axis=0)
        at *= n
        at += bound.take(y[s:s + step], axis=0)
        # take, not flat[at]: on a block of 32,768 int32 cells, numpy 2.4
        # gathers it in 34 us by take and in 99 us by indexing (measured on
        # boolean:9 and boolean:12)
        if not flat.take(at).all():
            return False
    return True


class FiniteLattice:
    """A finite lattice with derived order, cover, meet and join tables.

    `leq` is the given order as a C-contiguous bool array, read-only once
    built.  It is a copy when the order is validated, so a caller's array
    stays the caller's.  The internal constructors (`_validate=False`) pass
    a fresh C-contiguous bool array that they never write again, and it is
    kept without a copy; any other order, such as the transposed view that
    `dual` passes, is copied.  The meet table is the join table of the dual
    order, read through `leq.T` without a copy.  The two int32 tables take
    O(n^2 d) time, d the largest number of covers of one element, and
    4 n^2 bytes each.  Each is filled in place, and every other array of its
    build is at most one block of _BLOCK_CELLS cells, the rows of one
    element's covers, the cover list, or the n^2 / 8 bytes of the cover
    scan's bitset up-sets; on a non-lattice, the witness.

    The constructor fills the meet table, and one pass tests it (`_is_join`
    on the dual order): a finite meet-semilattice with a greatest element
    is a lattice, so the join side needs only a count of the maximal
    elements.  The join table is filled on its first read, so a caller
    that reads neither table pays for the meet table alone: `validate` and
    `con` read neither, and the modularity test and the covering squares
    read the order, so `dim`, `catalog` and `dot --labels` on a modular
    lattice never fill `join`.  The caustic presentation of any other
    lattice reads it, as do `eval`, `compare`, `props`, `geom` and `check`.

    Instances are immutable after construction and safe to share between
    threads; every operation in this package is a pure function.  The only
    state that changes is idempotent memos filled on first use (the join
    table, the height, the padded upper and lower covers, the first upper
    cover of each element, the covering squares and the step columns of
    the maximal chains): a second thread that fills the same entry computes
    the same value.
    """

    def __init__(self, names, leq, name="L", _validate=True):
        n = len(names)
        if n == 0:
            raise ValueError("lattice has no elements")
        if n > SIZE_GUARD:
            raise ParamTooLarge(f"{n} elements exceeds guard {SIZE_GUARD}")
        if len(set(names)) != n:
            raise ValueError("element names must be distinct")
        self.name = name
        self.names = tuple(str(x) for x in names)
        self.n = n
        self.index = {x: i for i, x in enumerate(self.names)}
        leq = (np.array if _validate else np.asarray)(leq, dtype=bool, order="C")
        if _validate:
            if not leq.diagonal().all():
                raise ValueError("order relation must be reflexive")
            if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
                raise CycleError("order relation is not antisymmetric")
            # float32 BLAS, exact: a path count is at most n < 2**24
            f = leq.astype(np.float32)
            if ((f @ f > 0) & ~leq).any():
                raise ValueError("order relation is not transitive")
        self.leq = leq
        # the down-set grows strictly along <, so sorting by its size gives
        # a linear extension
        self._order = order = np.argsort(leq.sum(axis=0), kind="stable").tolist()
        self.covers = _covers_of_leq(leq, order)
        # the cover list once more as two index arrays, for masked passes
        ends = np.array(self.covers, dtype=np.intp).reshape(-1, 2)
        self.cover_lo, self.cover_hi = ends.T.copy()
        self._up = [[] for _ in range(n)]
        self._down = [[] for _ in range(n)]
        for a, b in self.covers:
            self._up[a].append(b)
            self._down[b].append(a)
        # the meet table is the join table of the dual order, and the test
        # runs on it; the join table waits for its first reader.  The count
        # is "more than one", not "not exactly one": a relation that is no
        # order, such as a quotient by a partition that is no congruence,
        # can have no maximal element, and the quotient check must still
        # reach its own verdict on it
        self.meet = _least_bounds(leq.T, self._down, order[::-1])
        if self._up.count([]) > 1 or not _is_join(leq.T, self._down, self.meet):
            self._raise_witness()
        self.bottom, self.top = order[0], order[-1]
        for a in (self.leq, self.meet, self.cover_lo, self.cover_hi):
            a.flags.writeable = False
        self._height = None
        self._toward = {}

    @functools.cached_property
    def join(self):
        """The join table, filled by the cover recursion on first read.  On
        a lattice the constructor's meet-side test has shown that it is the
        join; on a non-lattice `_raise_witness` reads it as a bound table."""
        join = _least_bounds(self.leq, self._up, self._order)
        join.flags.writeable = False
        return join

    def _raise_witness(self):
        """NotALattice for the first pair i <= j in index order, meet before
        join, with no meet or no join, from the greatest- and least-ranked
        common bounds (n for none).  up(join[i, j]) lies in up(i) & up(j),
        so i v j exists iff both have the same size; dually for meets.  The
        sizes, at most n < 2**24, are exact in a float32 product, run one
        block of rows and the columns j >= i at a time.  A block holds at
        least 256 rows, as BLAS pays a fixed cost per product call."""
        n, f, meet, join = self.n, self.leq.astype(np.float32), self.meet, self.join
        # |down(x)| and |up(x)|, then -1 for "none", which no size equals
        downs, ups = (np.append(f.sum(axis=axis), -1) for axis in (0, 1))
        step = max(256, _BLOCK_CELLS // n)
        for s in range(0, n, step):
            rows = slice(s, s + step)
            no_meet = f[:, rows].T @ f[:, s:] != downs[meet[rows, s:]]
            no_join = f[rows] @ f[s:].T != ups[join[rows, s:]]
            bad = np.triu(no_meet | no_join)
            if bad.any():
                i, j = divmod(int(bad.argmax()), bad.shape[1])
                kind = "meet" if no_meet[i, j] else "join"
                raise NotALattice(kind, (self.names[s + i], self.names[s + j]))
        raise AssertionError("witness scan found no failure")

    # -- basic queries ----------------------------------------------------

    def mt(self, a, b):
        return int(self.meet[a, b])

    def jn(self, a, b):
        return int(self.join[a, b])

    def height(self):
        """Length of the longest chain from bottom to top, along the covers
        in the linear extension of the construction."""
        if self._height is None:
            h = [0] * self.n
            for v in self._order:
                for w in self._up[v]:
                    h[w] = max(h[w], h[v] + 1)
            self._height = h[self.top]
        return self._height

    @functools.cached_property
    def _up_slots(self):
        """The upper covers of each element, ascending, as the rows of one
        array padded with the top."""
        return _padded(self._up, self.top)

    @functools.cached_property
    def _first_cover(self):
        """The index of each element's first upper cover in the sorted cover
        list, where its upper covers start."""
        return self.cover_lo.searchsorted(np.arange(self.n))

    @functools.cached_property
    def _down_slots(self):
        """The lower covers of each element, ascending, as the rows of one
        array padded with the bottom."""
        return _padded(self._down, self.bottom)

    @functools.cached_property
    def _squares(self):
        """The covering squares of L (`_covering_squares`, read off the
        order), for the semimodularity test and the square classes of a
        modular L."""
        return _covering_squares(self.cover_lo, self.cover_hi, self.leq)

    def _chain_covers(self, a, b):
        """The cover indices of the steps of the index-least maximal chain
        from a to b, for a <= b.

        Each step goes from z to the least upper cover of z that lies below
        b.  For a target b these steps form one column, toward_b[z], built
        the first time b is a target: one gather of leq[up, b] over the
        upper cover slots (the top, the padding, lies below b only when b is
        the top and then comes after every real cover) and an argmax over
        the slots.  The covers are sorted by (lo, hi), so the step's cover
        index is z's first cover index plus its slot.  The column is kept on
        the lattice, so a chain costs two list lookups per step.
        """
        if a == b:
            return []
        toward = self._toward.get(b)
        if toward is None:
            toward = self._toward[b] = (self._first_cover
                                        + self.leq[self._up_slots, b].argmax(axis=1)).tolist()
        covers, steps, z = self.covers, [], a
        while z != b:
            i = toward[z]
            steps.append(i)
            z = covers[i][1]
        return steps

    def __eq__(self, other):
        return (isinstance(other, FiniteLattice) and self.names == other.names
                and np.array_equal(self.leq, other.leq))

    def __hash__(self):
        return hash((self.names, self.leq.tobytes()))

    def __repr__(self):
        return f"FiniteLattice({self.name!r}, n={self.n})"


def build_lattice(elements, covers, name="L"):
    """Validate a cover presentation and derive the full lattice structure.

    The returned cover list is the covering relation of the transitive
    closure of the input edges, so transitive input edges are dropped.
    """
    names = [str(x) for x in elements]
    # the closure below allocates n * n bytes, so oversized input stops here
    if len(names) > SIZE_GUARD:
        raise ParamTooLarge(f"{len(names)} elements exceeds guard {SIZE_GUARD}")
    if len(set(names)) != len(names):
        raise ValueError("element names must be distinct")
    idx = {x: i for i, x in enumerate(names)}
    edges = []
    for lo, hi in covers:
        lo, hi = str(lo), str(hi)
        if lo not in idx or hi not in idx:
            raise ValueError(f"cover pair ({lo!r}, {hi!r}) references undeclared name")
        edges.append((idx[lo], idx[hi]))
    # the closure is reflexive, transitive and (the toposort raises
    # CycleError) antisymmetric, so the order axioms need no second check
    leq = _closure_from_edges(len(names), edges)
    return FiniteLattice(names, leq, name=name, _validate=False)


# -- lattice files --------------------------------------------------------


def _is_name(x):
    # lattice and element names are JSON scalars, read as their str()
    return not isinstance(x, (list, dict))


def _is_cover_list(covers):
    """Is `covers` a list of two-element lists of names?  One pass over the
    pairs, with `_is_name` inlined: a call per name costs more than the test."""
    if not isinstance(covers, list):
        return False
    for p in covers:
        if not isinstance(p, list) or len(p) != 2:
            return False
        a, b = p
        if isinstance(a, (list, dict)) or isinstance(b, (list, dict)):
            return False
    return True


def _json_constant(name):
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def from_json(text):
    doc = json.loads(text, parse_constant=_json_constant)
    if not isinstance(doc, dict):
        raise ValueError("lattice file must hold a JSON object")
    for key in ("elements", "covers"):
        if key not in doc:
            raise ValueError(f"lattice file has no {key!r} key")
    elements, covers = doc["elements"], doc["covers"]
    if not isinstance(elements, list) or not all(map(_is_name, elements)):
        raise ValueError("'elements' must be a list of names")
    if not _is_cover_list(covers):
        raise ValueError("'covers' must be a list of two-element lists of names")
    name = doc.get("name", "L")
    if not _is_name(name):
        raise ValueError("'name' must be a name, not a list or an object")
    # compare names, not JSON values, under which 1 == 1.0 == true
    elements = [str(x) for x in elements]
    covers = [(str(a), str(b)) for a, b in covers]
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element names in lattice file")
    if len(set(covers)) != len(covers):
        raise ValueError("duplicate cover pairs in lattice file")
    return build_lattice(elements, covers, name=str(name))


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return from_json(f.read())


# -- constructions --------------------------------------------------------


def dual(L):
    """Order-reversed lattice on the same element names."""
    return FiniteLattice(L.names, L.leq.T, name=f"{L.name}^op", _validate=False)


# -- builtin catalog -------------------------------------------------------


def _chain(n):
    if n < 1:
        raise UnknownBuiltin("chain needs n >= 1")
    if n > SIZE_GUARD:  # before the names are built
        raise ParamTooLarge(f"{n} elements exceeds guard {SIZE_GUARD}")
    return build_lattice([str(i) for i in range(n)],
                         [(str(i), str(i + 1)) for i in range(n - 1)],
                         name=f"chain:{n}")


def _boolean(n):
    if n < 0:
        raise UnknownBuiltin("boolean needs n >= 0")
    if n >= SIZE_GUARD.bit_length():  # 2 ** n > SIZE_GUARD, without computing 2 ** n
        raise ParamTooLarge("boolean lattice too large")
    names = ["".join("1" if s >> i & 1 else "0" for i in range(n)) or "()"
             for s in range(2 ** n)]
    # subsets as bit masks; 16 bits cover every size the guard admits
    s = np.arange(2 ** n, dtype=np.uint16)
    leq = (s[:, None] & s) == s[:, None]
    return FiniteLattice(names, leq, name=f"boolean:{n}", _validate=False)


def _m3():
    return build_lattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("0", "b"), ("0", "c"),
                          ("a", "1"), ("b", "1"), ("c", "1")], name="M3")


def _n5():
    # pentagon {0, a, b, c, 1} with a > c
    return build_lattice(["0", "a", "b", "c", "1"],
                         [("0", "c"), ("c", "a"), ("a", "1"),
                          ("0", "b"), ("b", "1")], name="N5")


def _set_partitions(universe):
    if not universe:
        yield ()
        return
    first, rest = universe[0], universe[1:]
    for part in _set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1:]


def _partition(n):
    if n < 1 or n > 5:
        raise ParamTooLarge("partition lattice supported for 1 <= n <= 5")
    parts = []
    for p in _set_partitions(tuple(range(1, n + 1))):
        parts.append(tuple(sorted(tuple(sorted(b)) for b in p)))
    parts = sorted(set(parts), key=lambda p: (len(p), p), reverse=True)
    # finer partitions first: bottom is the all-singletons partition
    names = ["|".join("".join(map(str, b)) for b in p) for p in parts]
    block_of = []
    for p in parts:
        lookup = {}
        for b in p:
            for x in b:
                lookup[x] = b
        block_of.append(lookup)
    m = len(parts)
    leq = np.zeros((m, m), dtype=bool)
    for i, p in enumerate(parts):
        for j in range(m):
            # p <= q iff every block of p is contained in a block of q
            leq[i, j] = all(set(b) <= set(block_of[j][b[0]]) for b in p)
    return FiniteLattice(names, leq, name=f"partition:{n}", _validate=False)


def _subspaces(q, n):
    """All subspaces of F_q^n as sorted reduced-echelon basis rows."""
    if n < 0:
        raise UnknownBuiltin("subspace needs n >= 0")
    # q ** n > 81 for every n > 6, so a huge n is refused before q ** n is computed
    if q not in (2, 3) or n > 6 or q ** n > 81:
        raise ParamTooLarge("subspace lattice supported for q in {2,3}, q^n <= 81")
    vectors = list(itertools.product(range(q), repeat=n))
    vec_index = {v: i for i, v in enumerate(vectors)}

    def span(rows):
        got = set()
        for coeffs in itertools.product(range(q), repeat=len(rows)):
            v = [0] * n
            for c, r in zip(coeffs, rows):
                for i, x in enumerate(r):
                    v[i] = (v[i] + c * x) % q
            got.add(tuple(v))
        return got

    def echelon_bases(k):
        for pivots in itertools.combinations(range(n), k):
            free_pos = []
            for r, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_pos.append((r, c))
            for fill in itertools.product(range(q), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, c), v in zip(free_pos, fill):
                    rows[r][c] = v
                yield tuple(tuple(r) for r in rows)

    subs = []
    for k in range(n + 1):
        for basis in echelon_bases(k):
            mask = 0
            for v in span(basis):
                mask |= 1 << vec_index[v]
            subs.append((k, basis, mask))
    subs.sort(key=lambda t: (t[0], t[1]))
    names = ["0" if not basis else ",".join("".join(map(str, r)) for r in basis)
             for _, basis, _ in subs]
    m = len(subs)
    leq = np.zeros((m, m), dtype=bool)
    masks = [t[2] for t in subs]
    for i in range(m):
        for j in range(m):
            leq[i, j] = masks[i] & masks[j] == masks[i]
    return FiniteLattice(names, leq, name=f"subspace:{q},{n}", _validate=False)


# Hard-coded Hasse diagrams of the lattices freely generated by a 2-chain
# (resp. 3-chain) together with one extra generator.
_COPROD_C2_C1 = (
    ["0", "a", "b", "c", "d", "e", "f", "g", "1"],
    [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
     ("c", "e"), ("e", "f"), ("e", "g"), ("d", "g"), ("f", "1"), ("g", "1")],
)

_COPROD_C3_C1 = (
    ["0", "a", "b", "c", "d", "e", "f", "g", "h", "i",
     "j", "k", "l", "m", "n", "o", "p", "q", "r", "1"],
    [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
     ("c", "e"), ("e", "f"), ("e", "g"), ("d", "g"), ("d", "j"),
     ("f", "i"), ("f", "h"), ("g", "h"), ("h", "k"), ("i", "l"),
     ("k", "l"), ("k", "m"), ("j", "o"), ("l", "n"), ("m", "n"),
     ("m", "o"), ("n", "p"), ("o", "q"), ("p", "q"), ("p", "r"),
     ("q", "1"), ("r", "1")],
)


def _coprod_c2_c1():
    return build_lattice(*_COPROD_C2_C1, name="coprod_c2_c1")


def _coprod_c3_c1():
    return build_lattice(*_COPROD_C3_C1, name="coprod_c3_c1")


_BUILTINS = {
    "chain": (_chain, 1), "boolean": (_boolean, 1), "M3": (_m3, 0),
    "N5": (_n5, 0), "partition": (_partition, 1), "subspace": (_subspaces, 2),
    "coprod_c2_c1": (_coprod_c2_c1, 0), "coprod_c3_c1": (_coprod_c3_c1, 0),
}


def builtin(key, *params):
    """Construct a catalog lattice, e.g. builtin("partition", 4)."""
    if key not in _BUILTINS:
        raise UnknownBuiltin(f"unknown builtin {key!r}")
    fn, arity = _BUILTINS[key]
    if len(params) != arity:
        raise UnknownBuiltin(f"builtin {key!r} takes {arity} integer parameter(s)")
    ints = []
    for p in params:
        try:
            ints.append(int(p))
        except ValueError:
            raise UnknownBuiltin(f"builtin {key!r} takes integer parameters, "
                                 f"got {p!r}") from None
    return fn(*ints)


def builtin_spec(spec):
    """Parse a CLI-style builtin spec like "partition:4" or "subspace:2,3"."""
    key, _, rest = spec.partition(":")
    params = rest.split(",") if rest else []
    return builtin(key, *params)


# -- structural predicates -------------------------------------------------


def _irreducibles(covers):
    """The elements with exactly one cover in the cover lists `covers`,
    ascending, and that cover of each: J(L) and each j_* from `L._down`, M(L)
    and each m* from `L._up`."""
    one = np.array([x for x, c in enumerate(covers) if len(c) == 1], dtype=np.intp)
    return one, np.array([covers[x][0] for x in one.tolist()], dtype=np.intp)


def _cover_index(lo, hi, n, a, b):
    """The index of each cover a[i] < b[i] among the covers lo < hi of an
    n-element lattice, sorted by (lo, hi), or len(lo) where it is missing.
    The covers are found in the sorted distinct keys lo * n + hi."""
    keys, wanted = lo * n + hi, a * n + b
    t = keys.searchsorted(wanted)
    t[keys[np.minimum(t, len(keys) - 1)] != wanted] = len(keys)
    return t


def _covering_squares(lo, hi, leq):
    """The covering squares over the covers lo[i] < hi[i] of a lattice with
    order leq, sorted by (lo, hi): for each ordered pair of distinct covers
    i = (m, a) and k = (m, c), the pair (i, t) with t the index of the cover
    (c, c v a), or len(lo) where c v a does not cover c.

    The order alone finds t: it is the index of the one cover (c, u) with
    a <= u, or len(lo) if there is none.  Such a u lies above c v a, which
    lies above c and differs from it, as a </= c (a and c are distinct
    covers of m); u covers c, so u = c v a.  So there is at most one such u,
    and there is one exactly when c v a covers c.  The pairs run in blocks
    of at most _BLOCK_CELLS candidate covers (c, u), or of one pair."""
    # the upper covers of x are the covers first[x], ..., first[x] + count[x] - 1
    count = np.bincount(lo, minlength=len(leq))
    first = count.cumsum() - count
    i, k = _runs(first[lo], count[lo])
    other = i != k
    i, c = i[other], hi[k[other]]
    a, t = hi[i], np.full(len(i), len(lo))
    cells = count[c]
    ends, s = cells.cumsum(), 0
    while s < len(c):
        # the pairs from s on whose candidates fit in one block, or pair s
        e = max(s + 1, int(ends.searchsorted(ends[s] - cells[s] + _BLOCK_CELLS, side="right")))
        p, u = _runs(first[c[s:e]], cells[s:e])
        hit = leq[a[s:e][p], hi[u]]
        t[s + p[hit]] = u[hit]
        s = e
    return i, t


def _semimodular(lo, hi, leq):
    """Birkhoff's condition on the covers lo[i] < hi[i] of a lattice with
    order leq, sorted by (lo, hi): whenever a != c both cover m, a v c
    covers a and c.  On a lattice of finite length this is upper
    semimodularity (Birkhoff, Lattice Theory, ch. II)."""
    return bool((_covering_squares(lo, hi, leq)[1] < len(lo)).all())


def is_semimodular(L):
    return bool((L._squares[1] < len(L.covers)).all())


def is_modular(L):
    """A lattice of finite length is modular iff it and its dual are
    semimodular (Birkhoff, Lattice Theory, ch. II).  The dual's covers are
    the reversed pairs, sorted again, and its order is leq.T.  Both passes
    read the order alone (`_covering_squares`), so the test fills no
    table."""
    by_hi = np.lexsort((L.cover_lo, L.cover_hi))
    return is_semimodular(L) and _semimodular(L.cover_hi[by_hi], L.cover_lo[by_hi], L.leq.T)


def is_distributive(L):
    """L is distributive iff it is modular and |J(L)| is its height.

    Proof.  Each step x < y of a maximal chain puts some join-irreducible
    below y but not x, so the height l is at most |J|.  If l = |J| in a
    modular L, every maximal chain has length l and each step adds exactly
    one, so |J(z)| is the rank r(z) of every z.  Then r(x v y) + r(x ^ y) =
    r(x) + r(y) gives |J(x v y)| = |J(x) u J(y)|: every j is join-prime, and
    L is distributive.  Conversely a distributive L is the lattice of
    down-sets of J, whose height is |J|.
    """
    return is_modular(L) and len(_irreducibles(L._down)[0]) == L.height()


def is_complemented(L):
    return bool(((L.meet == L.bottom) & (L.join == L.top)).any(axis=1).all())


def is_sectionally_complemented(L):
    """Every x <= z has a y with x ^ y = 0 and x v y = z: hit[x, x v y] over
    the y with x ^ y = 0, one row per x."""
    hit = np.zeros((L.n, L.n), dtype=bool)
    for x in range(L.n):
        hit[x, L.join[x, L.meet[x] == L.bottom]] = True
    return bool((hit | ~L.leq).all())


def is_relatively_complemented(L):
    """L has no three-element interval: for every 2-chain a < m < b of covers
    some upper cover of a other than m lies below b (A. Bjorner, "On
    complements in lattices of finite length", Discrete Math. 36, 1981).
    Bjorner complements each x in [a, b] by induction on the length of
    [a, b], starting from a y maximal in [a, b] with x ^ y = a.
    """
    lo, hi = L.cover_lo, L.cover_hi
    i, k = _matches(lo, hi)  # cover i = (a, m) and cover k = (m, b)
    a, b = lo[i], hi[k]
    chain, up = _matches(lo, a)
    count = np.bincount(chain[L.leq[hi[up], b[chain]]], minlength=len(a))
    return bool((count >= 2).all())


def is_atomistic(L):
    """Every join-irreducible covers the bottom: an atomistic j is the join
    of the atoms below it, so it is one of them; conversely every x is the
    join of the join-irreducibles below it."""
    return bool((_irreducibles(L._down)[1] == L.bottom).all())


def is_simple(L):
    """L is simple iff it has two or more elements and its join-irreducibles
    form a single class of Freese's D-relation, searched along the arrow
    tables of `congruence.has_one_d_class` with no n-length row per j."""
    from .congruence import has_one_d_class

    return L.n > 1 and has_one_d_class(L)


def properties_report(L):
    semimodular = is_semimodular(L)
    atomistic = is_atomistic(L)
    return {
        "modular": is_modular(L),
        "distributive": is_distributive(L),
        "complemented": is_complemented(L),
        "sectionally_complemented": is_sectionally_complemented(L),
        "relatively_complemented": is_relatively_complemented(L),
        "atomistic": atomistic,
        "semimodular": semimodular,
        "geometric": semimodular and atomistic,
        "simple": is_simple(L),
        "height": L.height(),
    }
