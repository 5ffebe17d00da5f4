"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Criterion 3b once pinned the second coproduct lattice at 8 generator classes
with one idempotent.  That value was impossible: the lattice has 272
congruences, and an 8-point system has at most 2**8 = 256 lower sets.  The pin
is now (11, 0), the pair derived without the QO-system pipeline by
`test_shapes_derived_from_congruences_and_potentials` in test_dimension.py:
11 distinct principal congruences of prime intervals, and for every prime a
monoid map into Z+ u {inf} with a finite positive value on it.  See README,
"Criterion 3b: corrected pin".
"""

import itertools
import random
import time

from dimw import dimension as dim
from dimw import geometry as geo
from dimw import lattice as lat
from dimw.congruence import DClasses
from dimw.dimension import delta, dimension_monoid
from dimw.monoid import INF, index

from conftest import (enumerate_qosystems, grid_vectors, qosystem_reps,
                      random_eight_element_lattices, random_qosystem,
                      random_vector)
from oracles import all_congruences, lower_sets
from theory import (from_reduced, meet, n_distributive, normal_kernel_theorems_check, refine,
                    residual, support, to_reduced, truncate, two_piece_decomposition)


def report(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def shape(spec):
    D = dimension_monoid(lat.builtin_spec(spec))
    return len(D.qo.points), len(D.qo.p0)


def test_criterion_1_partition_lattices():
    ok = shape("partition:2") == (1, 0)
    ok = ok and shape("partition:3") == (1, 0)
    ok = ok and shape("partition:4") == (1, 1)
    t0 = time.perf_counter()
    ok = ok and shape("partition:5") == (1, 1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(1, ok, f"partition 5 pipeline took {elapsed:.2f}s")


def test_criterion_2_simple_dichotomy():
    ok = shape("M3") == (1, 0) and shape("partition:4") == (1, 1)
    report(2, ok)


def test_criterion_3a_coproduct_c2_c1():
    classes, idem = shape("coprod_c2_c1")
    report("3a", classes == 5 and idem == 0,
           f"coprod_c2_c1 -> {classes} classes, {idem} idempotent")


def test_criterion_3b_coproduct_c3_c1():
    # Pinned: 11 classes, none idempotent.  The old pin (8, 1) was impossible,
    # since |Con L| = 272 > 2**8; both numbers are derived independently of
    # the pipeline in test_dimension.py (see README, "Criterion 3b").
    classes, idem = shape("coprod_c3_c1")
    report("3b", (classes, idem) == (11, 0),
           f"coprod_c3_c1 -> {classes} classes, {idem} idempotent "
           "(pinned: 11 and 0; see README)")


def test_criterion_4_distributive_case():
    ok = True
    for spec in ("boolean:1", "boolean:2", "boolean:3", "boolean:4",
                 "chain:2", "chain:3", "chain:4", "chain:5", "chain:6",
                 "chain:7", "chain:8"):
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        J, f = dim.distributive_dim(L)
        ok = ok and D.qo.is_antichain() and not D.qo.p0
        ok = ok and len(D.qo.points) == len(J)
        point_to_j = {}
        for (a, b), p in D.gen.items():
            vec = f(a, b)
            ok = ok and sum(vec) == 1
            j = vec.index(1)
            ok = ok and point_to_j.setdefault(p, j) == j
        for a in range(L.n):
            for b in range(L.n):
                if L.le(a, b):
                    v = delta(D, a, b)
                    got = tuple(int(v.values[p]) for p, _ in
                                sorted(point_to_j.items(), key=lambda kv: kv[1]))
                    ok = ok and got == f(a, b)
        if not ok:
            break
    report(4, ok, spec if not ok else "")


def test_criterion_5_congruence_correspondence(small_builtins):
    ok = True
    for L in small_builtins:
        D = dimension_monoid(L)
        dim.congruence_correspondence_check(L, D, DClasses(L))
        ok = ok and len(all_congruences(L)) == len(lower_sets(D.qo))
        if not ok:
            break
    report(5, ok, L.name if not ok else f"{len(small_builtins)} lattices")


def test_criterion_6_modularity_cancellativity(small_builtins):
    ok = True
    for L in small_builtins:
        # the presentation: on a modular L, dimension_monoid is an antichain by construction
        D = dim._presented_monoid(L)
        ok = ok and (lat.is_modular(L) == (D.qo.is_antichain() and not D.qo.p0))
    N5 = lat.builtin("N5")
    D5 = dimension_monoid(N5)
    qo = D5.qo
    rel = [(a, b) for a in range(3) for b in range(3) if qo.rel[a][b]]
    ok = ok and len(qo.points) == 3 and not qo.p0 and len(rel) == 2
    ok = ok and rel[0][0] == rel[1][0]  # one low point under the two others
    dim.congruence_correspondence_check(N5, D5, DClasses(N5))
    ok = ok and len(all_congruences(N5)) == 5 == len(lower_sets(qo))
    report(6, ok)


def test_criterion_7_axiom_suite(small_builtins):
    ok = True
    for L in small_builtins:
        D = dimension_monoid(L)
        zero = D.qo.zero()
        n = L.n
        for a in range(n):
            ok = ok and delta(D, a, a) == zero
        for a in range(n):
            for b in range(n):
                if a != b:
                    ok = ok and not delta(D, a, b).is_zero()
                ok = ok and delta(D, a, L.jn(a, b)) == delta(D, L.mt(a, b), b)
                if L.le(a, b):
                    for c in range(n):
                        if L.le(b, c):
                            ok = ok and delta(D, a, b) + delta(D, b, c) == delta(D, a, c)
        if n <= 32:
            for a, b, c in itertools.product(range(n), repeat=3):
                ok = ok and delta(D, a, c) <= delta(D, a, b) + delta(D, b, c)
                if L.le(b, a):
                    mod = delta(D, L.jn(b, L.mt(a, c)), L.mt(a, L.jn(b, c)))
                    ok = ok and delta(D, b, a) == (delta(D, L.mt(b, c), L.mt(a, c))
                                                   + delta(D, L.jn(b, c), L.jn(a, c)) + mod)
        # path independence via single-source consistency over every interval
        for a in range(n):
            vals = {a: zero}
            for z in sorted(L.interval(a, L.top), key=lambda z: int(L.leq[:, z].sum())):
                if z == a:
                    continue
                opts = [vals[w] + D.qo.generator(D.gen[(w, z)])
                        for w in L.cocovers_of(z) if w in vals]
                ok = ok and opts and all(o == opts[0] for o in opts)
                vals[z] = opts[0]
        if not ok:
            break
    report(7, ok, L.name if not ok else f"{len(small_builtins)} lattices")


def test_criterion_8_functoriality():
    # each check raises MismatchError on a failure
    pool = [lat.builtin_spec(s) for s in ("chain:3", "boolean:2", "M3", "N5")]
    for A in pool:
        DA = dimension_monoid(A)
        dim.functor_checks(A, DA)
        dim.product_functor_check(A, DA, lat.builtin("chain", 2))
        for B in pool:
            dim.product_functor_check(A, DA, B)
    rng = random.Random(2024)
    done = 0
    while done < 10:
        L = pool[rng.randrange(len(pool))]
        cons = all_congruences(L).blocks
        theta = cons[rng.randrange(len(cons))]
        dim.quotient_functor_check(L, dimension_monoid(L), theta)
        done += 1
    report(8, True)


def test_criterion_9_primitive_monoid_suite():
    ok = True
    systems = (enumerate_qosystems(1) + enumerate_qosystems(2)
               + enumerate_qosystems(3) + qosystem_reps(4))
    pipeline_systems = [dimension_monoid(lat.builtin_spec(s)).qo
                        for s in ("N5", "M3", "boolean:3", "partition:4",
                                  "coprod_c2_c1", "chain:4")]
    rng = random.Random(99)

    def index_oracle(x):
        cap = int(x.max_finite()) + 1
        vecs = [v for v in grid_vectors(x.qo, cap) if not v.is_zero()]
        best = 0
        for n in range(1, cap + 2):
            if any(v * n <= x for v in vecs):
                best = n
            else:
                break
        return INF if best == cap + 1 else best

    for qo in [*systems, *pipeline_systems]:
        samples = [qo.zero()] + [random_vector(rng, qo, max_coeff=2) for _ in range(3)]
        for x in samples:
            ok = ok and from_reduced(to_reduced(x)) == x
            ok = ok and index(x) == index_oracle(x)
    # componentwise order == algebraic order via domination oracle (n <= 5)
    for qo in enumerate_qosystems(2) + enumerate_qosystems(3) + qosystem_reps(4):
        vecs = grid_vectors(qo, 2)
        for x in vecs:
            for y in vecs:
                ok = ok and (x <= y) == any(x + z == y for z in vecs)
                propto = any(x <= y * n for n in range(1, 6))
                classify_ok = propto == (set(p for p in support(x)) <=
                                         {q for p in support(y)
                                          for q in range(len(qo.points)) if qo.below[q][p]})
                ok = ok and classify_ok
        if not ok:
            break
    # unperforation m <= 4
    for _ in range(300):
        qo = random_qosystem(rng, max_points=4)
        x, y = random_vector(rng, qo), random_vector(rng, qo)
        for m in (2, 3, 4):
            if x * m <= y * m:
                ok = ok and x <= y
    # interval axiom witnesses, 500 instances
    for _ in range(500):
        qo = random_qosystem(rng, max_points=4)
        x, y0, y1 = (random_vector(rng, qo) for _ in range(3))
        z = truncate(qo, meet(x + y0, x + y1), int(x.max_finite()) + 3)
        n = int(max(x.max_finite(), z.max_finite())) + 1
        y = truncate(qo, meet(y0, y1), n)
        ok = ok and y <= y0 and y <= y1 and z <= x + y
    # pseudo-cancellation witnesses, 500 instances
    done = 0
    while done < 500:
        qo = random_qosystem(rng, max_points=4)
        x, y, z = (random_vector(rng, qo) for _ in range(3))
        if not (x + z) <= (y + z):
            continue
        zbar = tuple(INF if v == INF else 0 for v in z.values)
        t = truncate(qo, zbar, 2 * (int(max(x.max_finite(), y.max_finite())) + 1))
        ok = ok and (t + z == z) and x <= y + t
        done += 1
    # refinement, 1000 valid instances over |P| <= 5
    done = 0
    while done < 1000:
        qo = random_qosystem(rng, max_points=5)
        a0, a1 = random_vector(rng, qo), random_vector(rng, qo)
        s = a0 + a1
        b0 = random_vector(rng, qo, max_terms=2)
        if not b0 <= s:
            continue
        b1 = residual(b0, s)
        (c00, c01), (c10, c11) = refine(a0, a1, b0, b1)
        ok = ok and c00 + c01 == a0 and c10 + c11 == a1
        ok = ok and c00 + c10 == b0 and c01 + c11 == b1
        done += 1
    report(9, ok)


def test_criterion_10_perspectivity_suite():
    ok = True
    detail = ""
    suite = ("subspace:2,2", "subspace:2,3", "subspace:3,2",
             "boolean:2", "boolean:3", "boolean:4")
    for spec in suite:
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        sim = geo.perspectivity_matrix(L)
        ok = ok and geo.is_normal(L, sim)[0]
        geo.index_equality_check(L, D, sim)  # raises on mismatch
        rep = geo.transitivity_cancellativity_check(L, D, sim, geo._transitive_closure(sim))
        ok = ok and rep["transitive"] and rep["cancellative"]
        # every equal-dimension pair splits into two perspective pieces
        for a in range(L.n):
            for b in range(L.n):
                if delta(D, L.bottom, a) == delta(D, L.bottom, b):
                    got = two_piece_decomposition(L, a, b, D, sim)
                    ok = ok and got is not None
        # normal kernel theorems
        krep = normal_kernel_theorems_check(L)
        ok = ok and krep["kernel_size"] == L.n
        # dimension function agreement
        if spec.startswith("subspace"):
            ok = ok and len(D.qo.points) == 1 and not D.qo.p0
            g = D.qo.generator(0)
            for x in range(L.n):
                rank = len(L.maximal_chain(L.bottom, x)) - 1
                ok = ok and delta(D, L.bottom, x) == g * rank
        else:
            for x in range(L.n):
                total = D.qo.zero()
                for a in L.atoms():
                    if L.le(a, x):
                        total = total + delta(D, L.bottom, a)
                ok = ok and delta(D, L.bottom, x) == total
        if not ok:
            detail = spec
            break
    S23 = lat.builtin("subspace", 2, 3)
    ok = ok and n_distributive(S23, 3) and not n_distributive(S23, 2)
    ok = ok and n_distributive(S23, 3, method="A") == n_distributive(S23, 3, method="B")
    report(10, ok, detail)


def test_criterion_11_dep():
    N5, C3 = lat.builtin("N5"), lat.builtin("chain", 3)
    ok = dim.dep_check(N5, DClasses(N5), dimension_monoid(N5), k=3)
    ok = ok and dim.dep_check(C3, DClasses(C3), dimension_monoid(C3), k=3)
    for L in random_eight_element_lattices(2):
        ok = ok and dim.dep_check(L, DClasses(L), dimension_monoid(L), k=3)
    report(11, ok)
