import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimw import monoid as mon
from dimw.congruence import count_down_sets
from dimw.errors import NotInF
from dimw.lattice import is_distributive
from dimw.monoid import INF, DimVector, QOSystem, build_qosystem, index, violates_canonical_form

from conftest import enumerate_qosystems, grid_vectors, qosystem_reps, random_qosystem, random_vector
from oracles import semilattice_quotient
from theory import (NotBelow, ReducedRep, from_reduced, meet, refine, residual,
                    residual_by_levels, support, to_reduced, truncate)


def n5_system():
    """The relation set produced by the pentagon: q2 below q1 and q3.  The
    generators 1..5 are the indices 0..4, and the map is by generator."""
    qo, point_of = build_qosystem(5, [(0, 3), (2, 4)], [(1, 0), (1, 4)])
    return qo, dict(zip([1, 2, 3, 4, 5], point_of.tolist()))


def test_build_qosystem_n5_relations():
    qo, gmap = n5_system()
    assert len(qo.points) == 3
    assert not qo.p0
    low = gmap[2]
    others = {gmap[1], gmap[3]}
    assert len(others) == 2 and low not in others
    for q in others:
        assert qo.rel[low][q]
    assert sum(sum(r) for r in qo.rel) == 2


def test_build_qosystem_trivial_cases():
    qo, point_of = build_qosystem(3, [], [])
    assert len(qo.points) == 3 and qo.is_antichain() and not qo.p0
    assert point_of.tolist() == [0, 1, 2]
    qo1, _ = build_qosystem(1, [], [(0, 0)])
    assert len(qo1.points) == 1 and qo1.p0 == {0}
    v = qo1.generator(0)
    assert v + v == v  # e + e == e


def test_build_qosystem_cycle_becomes_idempotent():
    qo, point_of = build_qosystem(2, [], [(0, 1), (1, 0)])
    assert len(qo.points) == 1 and qo.p0 == {0}


class LoopQOSystem:
    """Reference: the fields of a QO-system, checked and built with loops."""

    def __init__(self, points, rel_pairs):
        self.points = tuple(str(p) for p in points)
        k = len(self.points)
        index = {p: i for i, p in enumerate(self.points)}
        rel = [[False] * k for _ in range(k)]
        for p, q in rel_pairs:
            rel[index[p]][index[q]] = True
        for a in range(k):
            for b in range(k):
                if rel[a][b] and rel[b][a] and a != b:
                    raise ValueError("relation is not antisymmetric")
        for a in range(k):
            for b in range(k):
                if not rel[a][b]:
                    continue
                for c in range(k):
                    if rel[b][c] and not rel[a][c]:
                        raise ValueError("relation is not transitive")
        self.rel = tuple(tuple(r) for r in rel)
        self.p0 = frozenset(i for i in range(k) if rel[i][i])
        self.p1 = frozenset(range(k)) - self.p0
        self.below = tuple(tuple(rel[a][b] or a == b for b in range(k))
                           for a in range(k))

    def strictly_below(self, a, b):
        return self.below[a][b] and a != b

    def down_set(self, members):
        return frozenset(q for q in range(len(self.points))
                         if any(self.below[q][p] for p in members))

    def lower_sets(self):
        k = len(self.points)
        out = []
        for bits in range(1 << k):
            s = frozenset(i for i in range(k) if bits >> i & 1)
            if all(self.below[q][p] <= (q in s) for p in s for q in range(k)):
                out.append(s)
        return sorted(out, key=lambda s: (len(s), sorted(s)))

    def generator_values(self, p):
        vals = []
        for q in range(len(self.points)):
            if self.strictly_below(q, p):
                vals.append(INF)
            elif q == p:
                vals.append(INF if p in self.p0 else 1)
            else:
                vals.append(0)
        return tuple(vals)

    def violates_canonical_form(self, values):
        """The reason loop, self-related points visited in index order."""
        k = len(self.points)
        for p in range(k):
            for q in range(k):
                if self.strictly_below(p, q) and values[p] < values[q]:
                    return f"not antitone at ({self.points[p]}, {self.points[q]})"
        for p in sorted(self.p0):
            if values[p] not in (0, INF):
                return f"finite nonzero value on self-related point {self.points[p]}"
        finite = [p for p in range(k) if 0 < values[p] < INF]
        for p in finite:
            for q in finite:
                if p != q and self.below[p][q]:
                    return "finite positions are not an antichain"
        support = [p for p in range(k) if values[p] != 0]
        for p in support:
            if p in self.p1 and values[p] == INF:
                if not any(self.strictly_below(p, q) for q in support):
                    return f"infinite value at maximal non-self-related point {self.points[p]}"
        return None


def reference_build_qosystem(generators, equalities, absorptions):
    """Reference: build_qosystem with pure-Python union-finds and a loop
    Floyd-Warshall."""
    gens = list(generators)
    gidx = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in equalities:
        ra, rb = find(gidx[a]), find(gidx[b])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    cls_of = [find(i) for i in range(n)]
    classes = sorted(set(cls_of))
    cpos = {c: i for i, c in enumerate(classes)}
    m = len(classes)
    prec = [[False] * m for _ in range(m)]
    for a, b in absorptions:
        prec[cpos[cls_of[gidx[a]]]][cpos[cls_of[gidx[b]]]] = True
    for k in range(m):
        for i in range(m):
            if prec[i][k]:
                for j in range(m):
                    if prec[k][j]:
                        prec[i][j] = True
    parent2 = list(range(m))

    def find2(x):
        while parent2[x] != x:
            parent2[x] = parent2[parent2[x]]
            x = parent2[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if prec[i][j] and prec[j][i]:
                ri, rj = find2(i), find2(j)
                if ri != rj:
                    parent2[max(ri, rj)] = min(ri, rj)
    reps = sorted(set(find2(i) for i in range(m)))
    rpos = {r: i for i, r in enumerate(reps)}
    names = ["p%d" % i for i in range(len(reps))]
    pairs = []
    for i in range(m):
        for j in range(m):
            if prec[i][j]:
                pairs.append((names[rpos[find2(i)]], names[rpos[find2(j)]]))
    qo = LoopQOSystem(names, sorted(set(pairs)))
    gen_map = {g: rpos[find2(cpos[cls_of[gidx[g]]])] for g in gens}
    return qo, gen_map


# every outcome of violates_canonical_form, by the first two words of its reason
REASONS = {None, "not antitone", "finite nonzero", "finite positions", "infinite value"}


def assert_same_qosystem(qo, ref, rng, reasons):
    """Compare the numpy QO-system with the loop reference field by field and
    on down-sets, the count of lower sets, generators and canonical-form
    reasons; add the outcomes seen to `reasons`."""
    k = len(qo.points)
    assert qo.points == ref.points
    assert qo.rel.tolist() == [list(r) for r in ref.rel]
    assert qo.below.tolist() == [list(r) for r in ref.below]
    assert qo.p0 == ref.p0 and all(type(p) is int for p in qo.p0)
    assert not qo.rel.flags.writeable and not qo.below.flags.writeable
    subsets = [rng.sample(range(k), rng.randint(0, k)) for _ in range(6)]
    stack = np.zeros((len(subsets), k), dtype=bool)
    for row, members in zip(stack, subsets):
        row[members] = True
    for row, down, members in zip(stack, qo.down_set(stack), subsets):
        assert np.array_equal(qo.down_set(row), down)
        assert frozenset(np.flatnonzero(down).tolist()) == ref.down_set(members)
    assert count_down_sets(qo.below) == len(ref.lower_sets())
    candidates = [tuple(rng.choice((0, 1, 2, INF)) for _ in range(k)) for _ in range(4)]
    for p in range(k):
        values = qo.generator(p).values
        assert values == ref.generator_values(p)
        assert all(type(v) is int or v is INF for v in values), values
        candidates.append(values)
        for v in (2, INF):  # changing one value reaches every reason
            candidates.append(values[:p] + (v,) + values[p + 1:])
    for values in candidates:
        why = mon.violates_canonical_form(qo, values)
        assert why == ref.violates_canonical_form(values), values
        reasons.add(why and " ".join(why.split()[:2]))


def assert_same_build(gens, equalities, absorptions, rng, reasons):
    """build_qosystem on the generators' indices against the named-generator
    reference."""
    gidx = {g: i for i, g in enumerate(gens)}
    qo, point_of = build_qosystem(len(gens), *([[gidx[a], gidx[b]] for a, b in pairs]
                                               for pairs in (equalities, absorptions)))
    ref, ref_map = reference_build_qosystem(gens, equalities, absorptions)
    assert_same_qosystem(qo, ref, rng, reasons)
    assert point_of.dtype == np.intp
    assert dict(zip(gens, point_of.tolist())) == ref_map


def test_build_qosystem_matches_loop_reference_on_random_inputs():
    rng = random.Random(31)
    check_rng, reasons = random.Random(131), set()
    for trial in range(400):
        n = rng.randint(0, 9)
        gens = rng.sample(range(100), n) if trial % 2 else [f"g{i}" for i in range(n)]
        if not gens:
            assert_same_build(gens, [], [], check_rng, reasons)
            continue
        equalities = [tuple(rng.choices(gens, k=2)) for _ in range(rng.randint(0, n))]
        # absorptions include self-loops, and cycles once there are enough
        absorptions = [tuple(rng.choices(gens, k=2)) for _ in range(rng.randint(0, 2 * n))]
        assert_same_build(gens, equalities, absorptions, check_rng, reasons)
    assert reasons == REASONS


def test_build_qosystem_matches_loop_reference_on_catalog(small_builtins):
    from dimw.dimension import caustic_relations

    rng = random.Random(33)
    for L in small_builtins:
        X, Y = ([(L.covers[f], L.covers[g]) for f, g in R.tolist()]
                for R in caustic_relations(L))
        assert_same_build(list(L.covers), X, Y, rng, set())


def test_qosystem_rejections_match_loop_reference():
    rng = random.Random(32)
    seen = set()
    check_rng, reasons = random.Random(132), set()
    for _ in range(600):
        k = rng.randint(1, 5)
        points = [f"q{i}" for i in range(k)]
        pairs = {tuple(rng.choices(points, k=2)) for _ in range(rng.randint(0, 2 * k))}
        try:
            ref = LoopQOSystem(points, pairs)
        except ValueError as e:
            with pytest.raises(ValueError) as info:
                QOSystem(points, pairs)
            assert str(info.value) == str(e)
            seen.add(str(e))
        else:
            assert_same_qosystem(QOSystem(points, pairs), ref, check_rng, reasons)
            seen.add(None)
    assert seen == {None, "relation is not antisymmetric", "relation is not transitive"}
    assert reasons == REASONS


def test_generator_vectors():
    qo, gmap = n5_system()
    low, hi = gmap[2], gmap[1]
    f_hi = qo.generator(hi)
    assert f_hi.values[hi] == 1 and f_hi.values[low] == INF
    f_low = qo.generator(low)
    assert f_low.values[low] == 1 and sum(support(f_low) != [] for _ in [0]) == 1
    single = QOSystem(["p"], [("p", "p")])
    assert single.generator(0).values == (INF,)


def test_add_absorption():
    qo, gmap = n5_system()
    f1, f2 = qo.generator(gmap[1]), qo.generator(gmap[2])
    assert f2 + f1 == f1  # absorbed below
    assert f1 + f2 != f2
    assert f1 + qo.zero() == f1
    anti = QOSystem(["a", "b"], [])
    fa = anti.generator(0)
    assert (fa + fa).values == (2, 0)


def test_leq_componentwise():
    qo, gmap = n5_system()
    f1, f2 = qo.generator(gmap[1]), qo.generator(gmap[2])
    assert qo.zero() <= f1
    assert f2 <= f1
    anti = QOSystem(["a", "b"], [])
    assert not anti.generator(0) <= anti.generator(1)
    assert not anti.generator(1) <= anti.generator(0)


def test_reduced_round_trip_examples():
    qo, gmap = n5_system()
    f1 = qo.generator(gmap[1])
    r = to_reduced(f1)
    assert r.items() == [(gmap[1], 1)]
    assert from_reduced(r) == f1
    z = to_reduced(qo.zero())
    assert z.items() == [] and from_reduced(z) == qo.zero()
    single = QOSystem(["p"], [("p", "p")])
    rr = ReducedRep(single, {0: INF})
    assert from_reduced(rr) == single.generator(0)


def test_reduced_rejects_non_antichain():
    qo, gmap = n5_system()
    with pytest.raises(NotInF):
        ReducedRep(qo, {gmap[1]: 1, gmap[2]: 1})


def test_not_in_f_detected():
    qo, gmap = n5_system()
    low, hi = gmap[2], gmap[1]
    vals = [0] * 3
    vals[hi] = 1  # missing the infinite tail below hi
    with pytest.raises(NotInF):
        mon.DimVector(qo, tuple(vals))


def generator_copies(qo, counts):
    """counts[p] copies of f_p summed one addition at a time."""
    out = qo.zero()
    for p, k in enumerate(counts):
        for _ in range(k):
            out = out + qo.generator(p)
    return out


def test_combination_is_the_sum_of_generator_copies():
    rng = random.Random(8)
    self_related = zero_counts = 0
    for _ in range(300):
        qo = random_qosystem(rng, max_points=6)
        counts = [rng.choice((0, 0, 1, 2, 3)) for _ in qo.points]
        self_related += any(counts[p] for p in qo.p0)
        zero_counts += counts.count(0)
        got = qo.combination(counts)
        assert got == generator_copies(qo, counts), (qo, counts)
        assert all(type(v) is int or v == INF for v in got.values)
        for p in range(len(qo)):
            assert qo.combination(np.arange(len(qo)) == p) == qo.generator(p)
    assert self_related >= 50 and zero_counts >= 300, (self_related, zero_counts)
    # every count vector over {0, 1, 2} on every QO-system of at most three
    # points, as a list and as the int64 array a bincount gives
    for k in range(1, 4):
        for qo in enumerate_qosystems(k):
            for counts in itertools.product(range(3), repeat=k):
                want = generator_copies(qo, counts)
                assert qo.combination(list(counts)) == want, (qo, counts)
                got = qo.combination(np.array(counts, dtype=np.int64))
                assert got == want and all(type(v) is int or v == INF for v in got.values)
    empty = QOSystem([], [])
    assert empty.combination([]) == empty.zero() == generator_copies(empty, [])
    assert empty.combination(np.zeros(0, dtype=np.int64)).values == ()


def test_counts_past_int64_stay_exact():
    qo = QOSystem(["p0", "p1", "p2"], [("p0", "p1"), ("p2", "p2")])
    big = 10 ** 20
    assert from_reduced(ReducedRep(qo, {1: big})).values == (INF, big, 0)
    assert truncate(qo, (big, 0, 0), big).values == (big, 0, 0)
    got = qo.combination([2 ** 63, 1, 2 ** 64])
    assert got.values == (INF, 1, INF)
    assert all(type(v) is int or v == INF for v in got.values)


def test_truncate():
    qo, gmap = n5_system()
    assert truncate(qo, qo.zero(), 5) == qo.zero()
    f2 = qo.generator(gmap[2])  # minimal point
    assert truncate(qo, f2, 1) == f2
    f1 = qo.generator(gmap[1])
    x = f1 * 3 + f2 * 2
    assert truncate(qo, x, 3) == x  # fixed once n >= max finite coefficient
    assert truncate(qo, x, 1) <= x


def test_residual():
    qo, gmap = n5_system()
    f1, f2 = qo.generator(gmap[1]), qo.generator(gmap[2])
    assert residual(f1, f1) == qo.zero()
    assert residual(qo.zero(), f1) == f1
    t = residual(f2, f1)
    assert f2 + t == f1
    assert t == f1  # the absorbed generator leaves the whole target
    with pytest.raises(NotBelow):
        residual(f1, f2)


def test_residual_exhaustive_small():
    for qo in qosystem_reps(3):
        vecs = grid_vectors(qo, 2)
        for x in vecs:
            for y in vecs:
                if x <= y:
                    t = residual(x, y)
                    assert x + t == y


def test_residual_matches_level_search():
    """The same t as the search over the even truncation levels, on every
    comparable pair over {0, 1, 2, 3, oo}."""
    systems = enumerate_qosystems(1) + enumerate_qosystems(2) + qosystem_reps(3)
    pairs = 0
    for qo in systems:
        vecs = grid_vectors(qo, 3)
        for x in vecs:
            for y in vecs:
                if x <= y:
                    assert residual(x, y) == residual_by_levels(x, y), (qo.points, x.values,
                                                                        y.values)
                    pairs += 1
    assert pairs == 3617


def test_residual_cost_does_not_grow_with_the_coefficients():
    # the level search runs one truncation per level up to the coefficient
    qo = QOSystem(["a"], [])
    f = qo.generator(0)
    assert residual(qo.zero(), f * 10 ** 20) == f * 10 ** 20
    assert residual(f * 3, f * 10 ** 20).values == (10 ** 20 - 3,)


def index_oracle(x):
    """Brute-force index over the canonical grid (infinite iff witness
    survives past every finite coefficient)."""
    qo = x.qo
    cap = int(x.max_finite()) + 1
    vecs = [v for v in grid_vectors(qo, cap) if not v.is_zero()]
    best = 0
    for n in range(1, cap + 2):
        if any(v * n <= x for v in vecs):
            best = n
        else:
            break
    return INF if best == cap + 1 else best


def test_index_closed_form_examples():
    qo, gmap = n5_system()
    assert index(qo.zero()) == 0
    single = QOSystem(["p"], [("p", "p")])
    assert index(single.generator(0)) == INF
    anti = QOSystem(["a"], [])
    assert index(anti.generator(0) * 4) == 4


def test_index_closed_form_matches_oracle():
    systems = enumerate_qosystems(1) + enumerate_qosystems(2) + enumerate_qosystems(3)
    systems += qosystem_reps(4)
    rng = random.Random(5)
    for qo in systems:
        samples = [qo.zero()] + [random_vector(rng, qo) for _ in range(4)]
        for x in samples:
            assert index(x) == index_oracle(x), (qo.points, x.values)


def test_componentwise_is_algebraic_order():
    """x <= y componentwise iff some z in canonical form has x + z == y.

    Any witness z satisfies z <= y componentwise, so its finite coefficients
    are bounded by y's and the grid enumeration is complete.
    """
    systems = enumerate_qosystems(2) + enumerate_qosystems(3) + qosystem_reps(4)
    for qo in systems:
        vecs = grid_vectors(qo, 2)
        for x in vecs:
            for y in vecs:
                alg = any(x + z == y for z in vecs)
                assert (x <= y) == alg
                if alg:
                    assert x + residual(x, y) == y


def test_unperforation():
    rng = random.Random(6)
    for _ in range(300):
        qo = random_qosystem(rng, max_points=4)
        x, y = random_vector(rng, qo), random_vector(rng, qo)
        for m in (2, 3, 4):
            if x * m <= y * m:
                assert x <= y, (qo.points, x.values, y.values, m)


def test_interval_axiom_witness():
    rng = random.Random(7)
    for _ in range(500):
        qo = random_qosystem(rng, max_points=4)
        x, y0, y1 = (random_vector(rng, qo) for _ in range(3))
        z_raw = meet(x + y0, x + y1)
        z = truncate(qo, z_raw, int(max(v for v in z_raw if v != INF) if any(v != INF for v in z_raw) else 0))
        # z <= x + y0, x + y1 by construction; find y <= y0, y1 with z <= x + y
        n = int(max(x.max_finite(), z.max_finite())) + 1
        y = truncate(qo, meet(y0, y1), n)
        assert y <= y0 and y <= y1
        assert z <= x + y


def test_pseudo_cancellation_witness():
    rng = random.Random(8)
    for _ in range(500):
        qo = random_qosystem(rng, max_points=4)
        x, y, z = (random_vector(rng, qo) for _ in range(3))
        if not (x + z) <= (y + z):
            continue
        zbar = tuple(INF if v == INF else 0 for v in z.values)
        n = int(max(x.max_finite(), y.max_finite(), z.max_finite())) + 1
        t = truncate(qo, zbar, 2 * n)
        assert t + z == z
        assert x <= y + t


def test_index_laws():
    rng = random.Random(9)
    for _ in range(300):
        qo = random_qosystem(rng, max_points=4)
        x, y = random_vector(rng, qo), random_vector(rng, qo)
        ix, iy, ixy = index(x), index(y), index(x + y)
        assert max(ix, iy) <= ixy <= ix + iy
        for n in (2, 3):
            assert index(x * n) == (n * ix if ix != INF else INF) or x.is_zero()
            if x.is_zero():
                assert index(x * n) == 0


def test_absorption_characterization():
    qo, gmap = n5_system()
    for p in range(3):
        for q in range(3):
            if qo.rel[p][q]:
                assert qo.generator(p) + qo.generator(q) == qo.generator(q)


def test_refine_integer_case():
    z = QOSystem(["u"], [])
    two, three, four, one = (z.generator(0) * k for k in (2, 3, 4, 1))
    (c00, c01), (c10, c11) = refine(two, three, four, one)
    assert c00 + c01 == two and c10 + c11 == three
    assert c00 + c10 == four and c01 + c11 == one


def test_refine_diagonal():
    qo, gmap = n5_system()
    a0, a1 = qo.generator(gmap[1]), qo.generator(gmap[3])
    (c00, c01), (c10, c11) = refine(a0, a1, a0, a1)
    assert c00 + c01 == a0 and c10 + c11 == a1
    assert c00 + c10 == a0 and c01 + c11 == a1


def test_refine_crossed_n5():
    qo, gmap = n5_system()
    f1, f3 = qo.generator(gmap[1]), qo.generator(gmap[3])
    (c00, c01), (c10, c11) = refine(f1, f3, f3, f1)
    assert c00 + c01 == f1 and c10 + c11 == f3
    assert c00 + c10 == f3 and c01 + c11 == f1


def test_refine_stress_random():
    rng = random.Random(10)
    done = 0
    while done < 1000:
        qo = random_qosystem(rng, max_points=5)
        a0, a1 = random_vector(rng, qo), random_vector(rng, qo)
        s = a0 + a1
        b0 = random_vector(rng, qo, max_terms=2)
        if not b0 <= s:
            continue
        b1 = residual(b0, s)
        assert_refines(a0, a1, b0, b1)
        done += 1


def assert_refines(a0, a1, b0, b1):
    """refine's four cells are canonical, and rows and columns sum right."""
    cells = (c00, c01), (c10, c11) = refine(a0, a1, b0, b1)
    assert c00 + c01 == a0 and c10 + c11 == a1, (a0, a1, b0, b1)
    assert c00 + c10 == b0 and c01 + c11 == b1, (a0, a1, b0, b1)
    for c in (c00, c01, c10, c11):
        assert violates_canonical_form(c.qo, c.values) is None, (c, a0, a1, b0, b1)
    return cells


def test_refine_exhaustive_small():
    # every equal-sum quadruple over {0, 1, oo} on every QO-system of at most
    # two points and on the three-point isomorphism representatives
    count = 0
    for qo in (*enumerate_qosystems(1), *enumerate_qosystems(2), *qosystem_reps(3)):
        pairs_by_sum = {}
        for a0, a1 in itertools.product(grid_vectors(qo, 1), repeat=2):
            pairs_by_sum.setdefault(a0 + a1, []).append((a0, a1))
        for pairs in pairs_by_sum.values():
            for (a0, a1), (b0, b1) in itertools.product(pairs, repeat=2):
                assert_refines(a0, a1, b0, b1)
                count += 1
    assert count == 6720


def test_refine_cost_does_not_grow_with_the_coefficients():
    # p1 < p2 < p4 and p3 < p4; a search over the coefficient grid needs 11 s
    # here at k = 3 and grows without bound
    qo = QOSystem([f"p{i}" for i in range(5)],
                  [("p1", "p2"), ("p1", "p4"), ("p2", "p4"), ("p3", "p4")])
    for k in (10, 10 ** 20):
        a0 = DimVector(qo, (0, INF, INF, INF, 3 * k))
        a1 = DimVector(qo, (3 * k, INF, k, 0, 0))
        b1 = DimVector(qo, (3 * k, INF, 4 * k, 4 * k, 0))
        (c00, c01), (c10, c11) = assert_refines(a0, a1, a0, b1)
        assert c00 == a0
        assert c01.values == (0, INF, 4 * k, 4 * k, 0)
        assert c10.values == (0, INF, k, 0, 0)
        assert c11.values == (3 * k, 0, 0, 0, 0)


def propto_oracle(x, y, cap=5):
    return any(x <= y * n for n in range(1, cap + 1))


def test_semilattice_quotient_shapes():
    anti = QOSystem(["a", "b", "c"], [])
    latt, sets, classify = semilattice_quotient(anti)
    assert latt.n == 8  # Boolean cube
    qo, gmap = n5_system()
    latt5, sets5, _ = semilattice_quotient(qo)
    assert latt5.n == 5
    single = QOSystem(["p"], [("p", "p")])
    latt2, _, _ = semilattice_quotient(single)
    assert latt2.n == 2
    assert is_distributive(latt5)


def test_semilattice_quotient_matches_propto_oracle():
    systems = enumerate_qosystems(2) + enumerate_qosystems(3) + qosystem_reps(4)
    for qo in systems:
        latt, sets, classify = semilattice_quotient(qo)
        vecs = grid_vectors(qo, 2)
        for x in vecs:
            for y in vecs:
                same_class = classify(x) == classify(y)
                equiv = propto_oracle(x, y) and propto_oracle(y, x)
                assert same_class == equiv, (qo.points, x.values, y.values)


def test_round_trip_on_all_small_systems():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for qo in enumerate_qosystems(n):
            for _ in range(3):
                x = random_vector(rng, qo)
                assert from_reduced(to_reduced(x)) == x
    for qo in qosystem_reps(4):
        for x in grid_vectors(qo, 2):
            assert from_reduced(to_reduced(x)) == x
            r = to_reduced(x)
            assert to_reduced(from_reduced(r)).items() == r.items()


@st.composite
def system_and_vectors(draw):
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    qo = random_qosystem(rng, max_points=4)
    xs = [random_vector(rng, qo) for _ in range(3)]
    return qo, xs


@given(system_and_vectors())
@settings(max_examples=150, deadline=None)
def test_monoid_laws_hypothesis(data):
    qo, (x, y, z) = data
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + qo.zero() == x
    assert violates_canonical_form(qo, (x + y).values) is None
    if x + y == qo.zero():
        assert x.is_zero() and y.is_zero()  # conical


@given(system_and_vectors())
@settings(max_examples=100, deadline=None)
def test_serialization_hypothesis(data):
    qo, (x, _, _) = data
    doc = x.to_json_dict()
    back = qo.vector(doc["values"])
    assert back == x
