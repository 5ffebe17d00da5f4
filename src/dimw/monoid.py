"""Primitive commutative monoids over QO-systems, in numerical canonical form.

A QO-system is a finite set P with an antisymmetric transitive relation;
its monoid is modelled faithfully by the coefficient vectors x: P -> Z+ u {oo}
whose support is antitone, whose self-related points carry only 0 or oo, and
whose finite nonzero positions form an antichain with finite maxima.  Addition
and order are componentwise; INF is float("inf") with guarded arithmetic.
"""

import operator

import numpy as np

from .errors import NotBelow, NotInF
from .lattice import _components, _strong_components, _transitive_closure

INF = float("inf")


class QOSystem:
    """Finite antisymmetric transitive relation; points named, dense indices.

    The relation is held once, as the read-only bool matrix `rel`; `below`
    (rel | eye) and the self-related points `p0` are derived from it.
    """

    def __init__(self, points, rel_pairs):
        self.points = tuple(str(p) for p in points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("point names must be distinct")
        k = len(self.points)
        self.index = {p: i for i, p in enumerate(self.points)}
        rel = np.zeros((k, k), dtype=bool)
        for p, q in rel_pairs:
            rel[self._as_index(p), self._as_index(q)] = True
        if (rel & rel.T & ~np.eye(k, dtype=bool)).any():
            raise ValueError("relation is not antisymmetric")
        if (_transitive_closure(rel) != rel).any():
            raise ValueError("relation is not transitive")
        self._derive(rel)

    @classmethod
    def closed(cls, rel):
        """The system on the points p0, p1, ... of a bool matrix that is
        antisymmetric and transitive already, as `build_qosystem` and the
        covering-square classes make it; the matrix is taken unchecked."""
        qo = cls.__new__(cls)
        qo.points = tuple("p%d" % i for i in range(len(rel)))
        qo.index = {p: i for i, p in enumerate(qo.points)}
        qo._derive(rel)
        return qo

    def _derive(self, rel):
        rel.flags.writeable = False
        self.rel = rel
        # below[a, b]: a <= b in the associated partial order
        self.below = rel | np.eye(len(rel), dtype=bool)
        self.below.flags.writeable = False
        self.p0 = frozenset(np.flatnonzero(rel.diagonal()).tolist())
        # no pair at all: the monoid is free and no value is ever oo
        self._free = not rel.any()

    def _as_index(self, p):
        return p if isinstance(p, int) else self.index[str(p)]

    def __len__(self):
        return len(self.points)

    def down_set(self, members):
        """The points below some member, for a bool membership vector over
        the points or a stack of them; the result has the same shape."""
        return members @ self.below.T

    def is_antichain(self):
        # below holds the diagonal; anything more relates two distinct points
        return int(self.below.sum()) == len(self.points)

    def zero(self):
        return DimVector(self, (0,) * len(self.points), validate=False)

    def generator(self, p):
        """f_p: oo strictly below p; 1 at p if p is not self-related, else oo."""
        p = self._as_index(p)
        vals = [INF if r else 0 for r in self.rel[:, p].tolist()]
        vals[p] = INF if p in self.p0 else 1
        return DimVector(self, tuple(vals), validate=False)

    def combination(self, counts):
        """The sum of counts[p] copies of f_p over the points, for non-negative
        integer counts: oo strictly below a counted point and on a counted
        self-related point (rel holds its diagonal), counts[p] elsewhere.
        Python work is paid only at the oo positions; counts past int64 stay
        exact Python ints."""
        try:
            counts = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            counts = np.array(counts, dtype=object)
        vals = counts.tolist()
        if not self._free:
            for p in (self.rel @ (counts > 0)).nonzero()[0].tolist():
                vals[p] = INF
        return DimVector(self, vals, validate=False)

    def vector(self, mapping):
        vals = [0] * len(self.points)
        for p, v in mapping.items():
            vals[self._as_index(p)] = INF if v == INF or v == "inf" else int(v)
        return DimVector(self, tuple(vals))

    def to_json_dict(self):
        return {"points": list(self.points),
                "rel": [[self.points[a], self.points[b]]
                        for a, b in np.argwhere(self.rel).tolist()]}

    def __repr__(self):
        return f"QOSystem({len(self.points)} points, {int(self.rel.sum())} relations)"


class DimVector:
    """An element of the canonical numerical monoid over a QOSystem."""

    __slots__ = ("qo", "values")

    def __init__(self, qo, values, validate=True):
        self.qo = qo
        self.values = tuple(values)
        if validate:
            reason = violates_canonical_form(qo, self.values)
            if reason:
                raise NotInF(reason)

    def support(self):
        return [i for i, v in enumerate(self.values) if v != 0]

    def maximal_support(self):
        # p is maximal when p itself is the only support point at or above it
        s = np.array(self.support(), dtype=int)
        return s[self.qo.below[s][:, s].sum(axis=1) == 1].tolist()

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def max_finite(self):
        finite = [v for v in self.values if v != INF]
        return max(finite, default=0)

    def has_infinite(self):
        return INF in self.values

    def __add__(self, other):
        assert self.qo is other.qo
        return DimVector(self.qo, tuple(map(operator.add, self.values, other.values)),
                         validate=False)

    def __mul__(self, k):
        # 0 * oo is 0 here (empty sum)
        if k == 0:
            return self.qo.zero()
        return DimVector(self.qo, [k * v for v in self.values], validate=False)

    __rmul__ = __mul__

    def __le__(self, other):
        return all(map(operator.le, self.values, other.values))

    def __eq__(self, other):
        return (isinstance(other, DimVector) and self.qo is other.qo
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def meet(self, other):
        """Componentwise infimum, as a tuple; not necessarily canonical."""
        return tuple(min(a, b) for a, b in zip(self.values, other.values))

    def to_json_dict(self):
        return {"values": {self.qo.points[i]: ("inf" if v == INF else v)
                           for i, v in enumerate(self.values) if v != 0}}

    def __repr__(self):
        parts = ["%s:%s" % (self.qo.points[i], "oo" if v == INF else v)
                 for i, v in enumerate(self.values) if v != 0]
        return "<" + " ".join(parts) + ">" if parts else "<0>"


def violates_canonical_form(qo, values):
    """Return a reason string if the map is not in canonical form, else None."""
    v = np.array(values, dtype=float)
    # the diagonal of rel never fires: v[p] < v[p] is false
    bad = qo.rel & (v[:, None] < v)
    if np.count_nonzero(bad):
        p, q = divmod(int(bad.argmax()), len(v))
        return f"not antitone at ({qo.points[p]}, {qo.points[q]})"
    bad = qo.rel.diagonal() & (v != 0) & (v != INF)
    if np.count_nonzero(bad):
        return f"finite nonzero value on self-related point {qo.points[bad.argmax()]}"
    # finite positions are now plain points, so the diagonal is false here too
    finite = (v > 0) & (v < INF)
    if finite @ qo.rel @ finite:
        return "finite positions are not an antichain"
    # a self-related point is related to itself, so only plain points can be
    # infinite with nothing of the support strictly above them
    bad = (v == INF) & ~(qo.rel @ (v != 0))
    if np.count_nonzero(bad):
        return f"infinite value at maximal non-self-related point {qo.points[bad.argmax()]}"
    return None


def build_qosystem(k, equalities, absorptions):
    """Quotient the generators 0..k-1 by equalities, close the absorptions, and
    fold the induced preorder's cycles into self-related points.  Each
    relation set is an (m, 2) array of generator indices, or anything that
    reshapes to one, [] included.

    Returns (QOSystem, point_of), point_of[g] the point index of generator g.
    Point names are "p0", "p1", ... ordered by least generator.
    """
    eq, ab = (np.asarray(r, dtype=np.intp).reshape(-1, 2).T for r in (equalities, absorptions))
    # step 1: equivalence closure of the equality pairs, numbered by least member
    cls = _components(k, *eq)
    m = int(cls.max(initial=-1)) + 1
    # step 2: transitive closure of the induced absorption relation
    prec = np.zeros((m, m), dtype=bool)
    prec[cls[ab[0]], cls[ab[1]]] = True
    prec = _transitive_closure(prec)
    # step 3: each class folds into the least class of its cycle
    reps, point_of = _strong_components(prec)
    rows, cols = np.nonzero(prec)
    rel = np.zeros((len(reps),) * 2, dtype=bool)
    rel[point_of[rows], point_of[cols]] = True
    return QOSystem.closed(rel), point_of[cls]


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


def index(x):
    """Largest n for which some nonzero y has n*y <= x: infinity when an
    infinite coefficient occurs, otherwise the largest coefficient."""
    if x.has_infinite():
        return INF
    return int(max(x.values, default=0)) if not x.is_zero() else 0


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
    c00, c01, c10, c11 = (DimVector(qo, c, validate=False) for c in cells)
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
    for p in x.maximal_support():
        terms[p] = INF if p in x.qo.p0 else int(x.values[p])
    return ReducedRep(x.qo, terms)


def from_reduced(r):
    counts = [0] * len(r.qo)
    for p, c in r.items():
        counts[p] = 1 if c == INF else c
    return r.qo.combination(counts)
