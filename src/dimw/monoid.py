"""Primitive commutative monoids over QO-systems, in numerical canonical form.

A QO-system is a finite set P with an antisymmetric transitive relation;
its monoid is modelled faithfully by the coefficient vectors x: P -> Z+ u {oo}
whose support is antitone, whose self-related points carry only 0 or oo, and
whose finite nonzero positions form an antichain with finite maxima.  Addition
and order are componentwise; INF is float("inf") with guarded arithmetic.
"""

import operator

import numpy as np

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

    def is_antichain(self):
        # below holds the diagonal; anything more relates two distinct points
        return int(self.below.sum()) == len(self.points)

    def zero(self):
        return DimVector(self, (0,) * len(self.points))

    def generator(self, p):
        """f_p: oo strictly below p; 1 at p if p is not self-related, else oo."""
        p = self._as_index(p)
        vals = [INF if r else 0 for r in self.rel[:, p].tolist()]
        vals[p] = INF if p in self.p0 else 1
        return DimVector(self, tuple(vals))

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
        return DimVector(self, vals)

    def to_json_dict(self):
        # a free system has no pair to list, so its k x k table is not scanned
        return {"points": list(self.points),
                "rel": [] if self._free else [[self.points[a], self.points[b]]
                                              for a, b in np.argwhere(self.rel).tolist()]}

    def __repr__(self):
        return f"QOSystem({len(self.points)} points, {int(self.rel.sum())} relations)"


class DimVector:
    """An element of the canonical numerical monoid over a QOSystem.  The
    package makes its values canonical by construction, as sums of
    generators, so the values are taken unchecked."""

    __slots__ = ("qo", "values")

    def __init__(self, qo, values):
        self.qo = qo
        self.values = tuple(values)

    def __add__(self, other):
        assert self.qo is other.qo
        return DimVector(self.qo, tuple(map(operator.add, self.values, other.values)))

    def __mul__(self, k):
        # 0 * oo is 0 here (empty sum)
        if k == 0:
            return self.qo.zero()
        return DimVector(self.qo, [k * v for v in self.values])

    __rmul__ = __mul__

    def __le__(self, other):
        return all(map(operator.le, self.values, other.values))

    def __eq__(self, other):
        return (isinstance(other, DimVector) and self.qo is other.qo
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def to_json_dict(self):
        return {"values": {self.qo.points[i]: ("inf" if v == INF else v)
                           for i, v in enumerate(self.values) if v != 0}}

    def __repr__(self):
        parts = ["%s:%s" % (self.qo.points[i], "oo" if v == INF else v)
                 for i, v in enumerate(self.values) if v != 0]
        return "<" + " ".join(parts) + ">" if parts else "<0>"


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
