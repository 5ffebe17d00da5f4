import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimw import dimension as dim
from dimw import lattice as lat
from dimw.cli import CATALOG_INSTANCES
from dimw.congruence import DClasses
from dimw.dimension import (DimensionWord, caustic_pairs, caustic_relations, delta,
                            dep_check, dimension_monoid, distributive_dim,
                            functor_checks, is_v_modular, product_functor_check,
                            quotient_functor_check, word_compare)
from dimw.errors import MismatchError, NotALattice, NotDistributive, NotModular
from dimw.monoid import DimVector, QOSystem
import oracles
from conftest import (WORD_SPECS, builtins_up_to, cross_check_lattices, lattices_and_duals,
                      random_eight_element_lattices, random_lattices, random_posets, word_texts)
from oracles import (all_congruences, axiom_check_by_loop, caustic_pairs_by_tables,
                     congruence_correspondence_by_listing, delta_by_steps, dep_check_by_pairs,
                     is_v_modular_by_closure, is_v_modular_by_search, lower_sets,
                     parse_word_by_terms, sampled_domination_by_loop)
from theory import intervals_projective, projectivity_classes, schreier_refine


def by_names(L, pairs):
    return sorted((L.names[a], L.names[b]) for a, b in pairs)


def pair_rows(L, pairs):
    """The caustic pairs as (a, b) tuples, after checking that they come as
    the rows of a (k, 2) intp array."""
    assert pairs.dtype == np.intp and pairs.shape[1:] == (2,), L.name
    return list(map(tuple, pairs.tolist()))


def cover_rows(L, rows):
    """Relation rows of cover indices as ((p, q), (p', q')) cover pairs,
    after checking that they are intp, sorted and distinct."""
    assert rows.dtype == np.intp and rows.shape[1:] == (2,), L.name
    keys = rows[:, 0] * len(L.covers) + rows[:, 1]
    assert (keys[1:] > keys[:-1]).all(), L.name
    return [(L.covers[f], L.covers[g]) for f, g in rows.tolist()]


def test_caustic_pairs_n5():
    N5 = lat.builtin("N5")
    assert by_names(N5, caustic_pairs(N5)) == [("a", "b"), ("b", "c")]


def test_caustic_pairs_m3_and_chain():
    M3 = lat.builtin("M3")
    assert by_names(M3, caustic_pairs(M3)) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert caustic_pairs(lat.builtin("chain", 6)).shape == (0, 2)


def test_caustic_relations_n5_exact():
    N5 = lat.builtin("N5")
    X, Y = (cover_rows(N5, R) for R in caustic_relations(N5))
    i = N5.index

    def pr(u, v):
        return (i[u], i[v])

    wantX = {(pr("0", "b"), pr("a", "1")), (pr("0", "c"), pr("b", "1"))}
    wantY = {(pr("c", "a"), pr("0", "c")), (pr("c", "a"), pr("a", "1"))}
    assert set(X) == {tuple(sorted(p)) for p in wantX} or set(X) == wantX
    assert set(Y) == wantY


def _open_interval(L, a, b):
    return [z for z in L.interval(a, b) if z != a and z != b]


def loop_caustic_pairs(L):
    """Reference: the pairwise loop over the four collapse conditions."""
    out = []
    for a in range(L.n):
        for b in range(a + 1, L.n):
            if L.le(a, b) or L.le(b, a):
                continue
            m, j = L.mt(a, b), L.jn(a, b)
            if (all(L.jn(x, b) == j for x in _open_interval(L, m, a))
                    and all(L.jn(a, y) == j for y in _open_interval(L, m, b))
                    and all(L.mt(x, b) == m for x in _open_interval(L, a, j))
                    and all(L.mt(a, y) == m for y in _open_interval(L, b, j))):
                out.append((a, b))
    return out


def _loop_primes_within(L, lo, hi):
    """Prime intervals [p, q] with lo <= p < q <= hi."""
    return [(p, q) for p, q in L.covers if L.le(lo, p) and L.le(q, hi)]


def loop_caustic_relations(L):
    """Reference: relation emission as set unions over loop_caustic_pairs."""
    X, Y = set(), set()
    for pair in loop_caustic_pairs(L):
        for s, t in (pair, pair[::-1]):
            m, j = L.mt(s, t), L.jn(s, t)
            first_steps = [w for w in L.covers_of(m) if L.le(w, t)]
            last_steps = [v for v in L.cocovers_of(j) if L.le(s, v)]
            for w in first_steps:
                for v in last_steps:
                    X.add(((m, w), (v, j)))
                for pq in _loop_primes_within(L, w, t):
                    Y.add((pq, (m, w)))
            for v in L.cocovers_of(j):
                if L.le(t, v):
                    for pq in _loop_primes_within(L, t, v):
                        Y.add((pq, (v, j)))
    return sorted(X), sorted(Y)


def assert_same_as_loop(L):
    pairs, (X, Y) = caustic_pairs(L), caustic_relations(L)
    assert pair_rows(L, pairs) == loop_caustic_pairs(L), L.name
    assert (cover_rows(L, X), cover_rows(L, Y)) == loop_caustic_relations(L), L.name


def test_caustic_stages_match_loops_on_catalog(monkeypatch):
    lattices = [lat.builtin_spec(spec) for spec in CATALOG_INSTANCES]
    for L in lattices:
        assert_same_as_loop(L)
    monkeypatch.setattr(dim, "_BLOCK_CELLS", 1)  # one row per block
    for L in lattices:
        assert_same_as_loop(L)


def test_caustic_stages_match_loops_on_random_lattices():
    lattices = 0
    for names, edges in random_posets():
        try:
            L = lat.build_lattice(names, [(names[a], names[b]) for a, b in edges])
        except NotALattice:
            continue
        assert_same_as_loop(L)
        lattices += 1
    assert lattices >= 100
    for L in random_eight_element_lattices(20):
        assert_same_as_loop(L)


def test_caustic_pairs_match_dense_oracle(monkeypatch):
    lattices = cross_check_lattices()
    lattices += [lat.dual(L) for L in lattices] + random_lattices()
    lattices += [lat.builtin_spec(spec) for spec in
                 ("boolean:6", "boolean:8", "partition:5", "subspace:2,4", "subspace:2,5")]
    want = [caustic_pairs_by_tables(L) for L in lattices]
    assert {bool(pairs) for pairs in want} == {False, True}
    for cells in (dim._BLOCK_CELLS, 1):  # 1: one row per block
        monkeypatch.setattr(dim, "_BLOCK_CELLS", cells)
        for L, pairs in zip(lattices, want):
            assert pair_rows(L, caustic_pairs(L)) == pairs, L.name


def test_caustic_relations_boolean_square():
    B2 = lat.builtin("boolean", 2)
    X, Y = caustic_relations(B2)
    assert Y.shape == (0, 2)
    assert len(cover_rows(B2, X)) == 2


# (generator classes, idempotent classes) of D L, pinned per builtin
SHAPES = {
    "M3": (1, 0), "partition:4": (1, 1), "partition:5": (1, 1),
    "boolean:3": (3, 0), "chain:5": (4, 0), "N5": (3, 0),
    "coprod_c2_c1": (5, 0),
}


def test_dimension_monoid_shapes():
    for spec, (classes, idem) in SHAPES.items():
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        assert len(D.qo.points) == classes, spec
        assert len(D.qo.p0) == idem, spec
    B3 = dimension_monoid(lat.builtin("boolean", 3))
    assert B3.qo.is_antichain()


def test_dimension_monoid_of_large_simple_modular_and_distributive():
    # subspace:2,5 is simple, modular and geometric, so D L is Z+
    D = dimension_monoid(lat.builtin_spec("subspace:2,5"))
    assert (len(D.qo.points), D.qo.p0) == (1, frozenset())
    # boolean:9 is distributive: one point per join-irreducible, none idempotent
    D = dimension_monoid(lat.builtin_spec("boolean:9"))
    assert (len(D.qo.points), D.qo.p0) == (9, frozenset())
    assert D.qo.is_antichain()


def _shape_from_covers(n, primes):
    """(classes, idempotent classes, |Con L|) of D L from n and the covers alone.

    Uses neither the caustic-pair relations nor the QO-system.  Since the
    maximal semilattice quotient of D L is Con_c L, the generator classes
    biject with the distinct principal congruences con(p) of prime intervals
    p.  Since D L embeds into a power of Z+ u {inf}, D(p) is idempotent iff no
    monoid map D L -> Z+ u {inf} sends it to a finite positive value; such a
    map may be taken inf outside con(p) and h(b) - h(a) inside, for a
    potential h with h(a v b) - h(a) = h(b) - h(a ^ b) whenever a == a v b
    mod con(p), cover weights >= 0, and >= 1 on p.  That is a linear
    feasibility problem, solved with scipy.
    """
    from scipy.optimize import linprog

    up = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in primes:
            if not up[b] <= up[a]:
                up[a] |= up[b]
                changed = True
    down = [{j for j in range(n) if i in up[j]} for i in range(n)]

    def least(common, cone):
        return next(z for z in common if common <= cone[z])

    join = [[least(up[a] & up[b], up) for b in range(n)] for a in range(n)]
    meet = [[least(down[a] & down[b], down) for b in range(n)] for a in range(n)]

    def closure(pairs):
        """Least congruence collapsing `pairs`, as each element's block minimum."""
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(x, y):
            x, y = find(x), find(y)
            if x != y:
                parent[max(x, y)] = min(x, y)
            return x != y

        for a, b in pairs:
            union(a, b)
        changed = True
        while changed:
            changed = False
            for x in range(n):
                r = find(x)
                if r != x:
                    for z in range(n):
                        for t in (join, meet):
                            changed |= union(t[x][z], t[r][z])
        return tuple(find(x) for x in range(n))

    con = {p: closure([p]) for p in primes}
    cons = {closure([])}
    frontier = list(cons)
    while frontier:
        theta = frontier.pop()
        for psi in set(con.values()):
            joined = closure([(x, theta[x]) for x in range(n)]
                             + [(x, psi[x]) for x in range(n)])
            if joined not in cons:
                cons.add(joined)
                frontier.append(joined)

    def bounded_map_exists(p):
        theta = con[p]

        def row(*terms):
            r = [0] * n
            for i, c in terms:
                r[i] += c
            return r

        a_ub = [row((a, 1), (b, -1)) for a, b in primes if theta[a] == theta[b]]
        a_ub.append(row((p[0], 1), (p[1], -1)))
        b_ub = [0] * (len(a_ub) - 1) + [-1]
        a_eq = [row((join[a][b], 1), (a, -1), (b, -1), (meet[a][b], 1))
                for a in range(n) for b in range(n)
                if a not in (join[a][b], meet[a][b]) and theta[a] == theta[join[a][b]]]
        res = linprog([0] * n, A_ub=a_ub, b_ub=b_ub,
                      A_eq=a_eq or None, b_eq=[0] * len(a_eq) or None,
                      bounds=[(None, None)] * n, method="highs")
        assert res.status in (0, 2), res.message  # feasible or infeasible
        return res.status == 0

    finite = {}
    for p in primes:
        finite.setdefault(con[p], set()).add(bounded_map_exists(p))
    assert all(len(v) == 1 for v in finite.values())  # one answer per class
    idem = sum(v == {False} for v in finite.values())
    return len(finite), idem, len(cons)


def test_shapes_derived_from_congruences_and_potentials():
    pytest.importorskip("scipy")

    def derived(spec):
        L = lat.builtin_spec(spec)
        return _shape_from_covers(L.n, L.covers)

    # partition:5 (52 elements) is left out: the pure-Python closures are slow there
    for spec in ("M3", "partition:4", "boolean:3", "chain:5", "N5", "coprod_c2_c1"):
        classes, idem, _ = derived(spec)
        assert (classes, idem) == SHAPES[spec], spec
    # the pin of acceptance criterion 3b; 8 points would give at most 2**8 < 272
    # lower sets, so at least 9 classes
    classes, idem, congruences = derived("coprod_c3_c1")
    assert congruences == 272
    assert (classes, idem) == (11, 0)


def test_n5_exact_system():
    D = dimension_monoid(lat.builtin("N5"))
    qo = D.qo
    assert len(qo.points) == 3 and not qo.p0
    rel = [(a, b) for a in range(3) for b in range(3) if qo.rel[a][b]]
    assert len(rel) == 2
    (lo1, _), (lo2, _) = rel
    assert lo1 == lo2  # one point below the two others


def test_delta_basics():
    N5 = lat.builtin("N5")
    D = dimension_monoid(N5)
    i = N5.index
    for x in range(N5.n):
        assert delta(D, x, x).is_zero()
    # both maximal chains of [0, 1] agree
    via_long = delta(D, i["0"], i["c"]) + delta(D, i["c"], i["a"]) + delta(D, i["a"], i["1"])
    via_short = delta(D, i["0"], i["b"]) + delta(D, i["b"], i["1"])
    assert via_long == via_short == delta(D, i["0"], i["1"])
    M3 = lat.builtin("M3")
    DM = dimension_monoid(M3)
    assert delta(DM, M3.bottom, M3.top) == DM.qo.generator(0) * 2


def test_delta_matches_per_step_sum_on_catalog():
    for spec in CATALOG_INSTANCES:
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        for a in range(L.n):
            for b in range(L.n):
                assert delta(D, a, b) == delta_by_steps(D, a, b), (spec, a, b)


def test_delta_matches_per_step_sum_on_larger_lattices():
    rng = random.Random(150)
    for spec in ("chain:150", "boolean:7", "subspace:2,4"):
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        for _ in range(300):
            a, b = rng.randrange(L.n), rng.randrange(L.n)
            assert delta(D, a, b) == delta_by_steps(D, a, b), (spec, a, b)


def test_axioms_on_small_catalog():
    for L in builtins_up_to(60):
        D = dimension_monoid(L)
        zero = D.qo.zero()
        # (D0), conicality
        for a in range(L.n):
            assert delta(D, a, a) == zero
        for a in range(L.n):
            for b in range(L.n):
                if a != b:
                    assert delta(D, a, b) != zero, L.name
        # (D1) on chains a <= b <= c
        for a in range(L.n):
            for b in range(L.n):
                if not L.le(a, b):
                    continue
                for c in range(L.n):
                    if L.le(b, c):
                        assert delta(D, a, b) + delta(D, b, c) == delta(D, a, c)
        # (D2)
        for a in range(L.n):
            for b in range(L.n):
                assert delta(D, a, L.jn(a, b)) == delta(D, L.mt(a, b), b)


def test_delta_rows_are_the_values_of_delta():
    """One `delta_rows` call over every pair of each lattice and its dual,
    and of the one-element lattice, which has no covers and no points,
    gives the value `delta` gives for each pair, as a float row."""
    for L in lattices_and_duals() + (lat.builtin_spec("chain:1"),):
        D = dimension_monoid(L)
        a, b = np.divmod(np.arange(L.n * L.n), L.n)
        rows = dim.delta_rows(D, a, b)
        assert rows.dtype == float and rows.shape == (L.n * L.n, len(D.qo)), L.name
        assert list(map(tuple, rows.tolist())) == [
            delta(D, x, y).values for x, y in zip(a.tolist(), b.tolist())], L.name


def test_axiom_check_matches_the_loop():
    """`axiom_check` and the loop over `delta` it replaced give the same
    verdict, message and witness on every lattice and its dual, as `check`
    builds its monoid, and with each cover in turn moved onto the next
    generator point."""
    cases = failing = 0
    for L in lattices_and_duals():
        D = dim._presented_monoid(L)
        k = len(D.qo)
        monoids = [D]
        for i in range(len(L.covers) if k > 1 else 0):
            moved = D.point_of_cover.copy()
            moved[i] = (moved[i] + 1) % k
            monoids.append(dim.DimensionMonoid(L, D.qo, moved))
        for T in monoids:
            got = _failure(dim.axiom_check, L, T)
            assert got == _failure(axiom_check_by_loop, L, T), L.name
            cases, failing = cases + 1, failing + (got is not None)
    assert (cases, failing) == (780, 513)


def test_triangle_inequality_on_small_catalog():
    for L in builtins_up_to(32):
        D = dimension_monoid(L)
        for a, b, c in itertools.product(range(L.n), repeat=3):
            assert delta(D, a, c) <= delta(D, a, b) + delta(D, b, c), L.name


def test_modular_remainder_identity():
    # delta(b, a) decomposes through any c with an explicit remainder term
    for L in builtins_up_to(32):
        D = dimension_monoid(L)
        for a in range(L.n):
            for b in range(L.n):
                if not L.le(b, a):
                    continue
                for c in range(L.n):
                    lhs = delta(D, b, a)
                    mod = delta(D, L.jn(b, L.mt(a, c)), L.mt(a, L.jn(b, c)))
                    rhs = (delta(D, L.mt(b, c), L.mt(a, c))
                           + delta(D, L.jn(b, c), L.jn(a, c)) + mod)
                    assert lhs == rhs, (L.name, a, b, c)


def test_path_independence_dp():
    """Every path between two elements carries the same value: checked by
    consistency of the single-source values against every in-interval cover."""
    for L in builtins_up_to(60):
        D = dimension_monoid(L)
        for a in range(L.n):
            vals = {a: D.qo.zero()}
            order = sorted(L.interval(a, L.top), key=lambda z: int(L.leq[:, z].sum()))
            for z in order:
                if z == a:
                    continue
                options = [vals[w] + D.qo.generator(D.gen[(w, z)])
                           for w in L.cocovers_of(z) if w in vals]
                assert options, (L.name, a, z)
                assert all(o == options[0] for o in options), (L.name, a, z)
                vals[z] = options[0]


def test_word_parse_and_compare():
    N5 = lat.builtin("N5")
    D = dimension_monoid(N5)
    w1 = DimensionWord.parse("0..c + c..a", N5)
    w2 = DimensionWord.parse("0..a", N5)
    assert word_compare(D, w1, w2) == "equal"
    w3 = DimensionWord.parse("2*(0..b)", N5)
    assert len(w3) == 2
    empty = DimensionWord([])
    assert word_compare(D, empty, w2) == "less"
    i = N5.index
    lt = DimensionWord([(i["c"], i["a"])])
    gt = DimensionWord([(i["0"], i["c"])])
    assert word_compare(D, lt, gt) == "less"
    assert word_compare(D, gt, lt) == "greater"
    left = DimensionWord([(i["0"], i["c"])])
    right = DimensionWord([(i["0"], i["b"])])
    assert word_compare(D, left, right) == "incomparable"


def test_word_parser_matches_the_term_list_oracle():
    """On generated texts over the names of N5 and coprod_c3_c1, the
    one-pass parser gives the multiset of the term-list parser, in the same
    order, or refuses with the same ValueError text."""
    lattices = {spec: lat.builtin_spec(spec) for spec in WORD_SPECS}
    seen = set()

    @given(st.sampled_from(WORD_SPECS), word_texts())
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def check(spec, text):
        L = lattices[spec]
        try:
            want = parse_word_by_terms(text, L)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                DimensionWord.parse(text, L)
            assert str(err.value) == str(e), (spec, text)
            seen.add(str(e).split(" ", 1)[0])
            return
        got = DimensionWord.parse(text, L)
        assert list(got._mult.items()) == list(want._mult.items()), (spec, text)
        seen.add("word" if got._mult else "empty")

    check()
    assert seen == {"word", "empty", "bad", "unknown"}


def test_delta_is_cached_by_interval(monkeypatch):
    """On one monoid per lattice, every ordered pair asked in a seeded
    shuffled order gets the value of `delta` with an empty cache and of
    its `delta_rows` row, and walks one chain per distinct interval; the
    cache holds each pair and each interval once."""
    rng = random.Random(30)
    walks = []
    chain_covers = lat.FiniteLattice._chain_covers

    def counted(L, a, b):
        walks.append((a, b))
        return chain_covers(L, a, b)

    for L in lattices_and_duals():
        D, fresh = dimension_monoid(L), dimension_monoid(L)
        pairs = list(itertools.product(range(L.n), repeat=2))
        rng.shuffle(pairs)
        walks.clear()
        with monkeypatch.context() as m:
            m.setattr(lat.FiniteLattice, "_chain_covers", counted)
            values = [delta(D, a, b) for a, b in pairs]
        intervals = {(L.mt(a, b), L.jn(a, b)) for a, b in pairs}
        assert sorted(walks) == sorted(intervals), L.name
        assert D._delta_cache.keys() == set(pairs) | intervals, L.name
        a, b = np.array(pairs).T
        rows = dim.delta_rows(D, a, b)
        for (x, y), value, row in zip(pairs, values, rows.tolist()):
            fresh._delta_cache.clear()
            assert value.values == delta(fresh, x, y).values, (L.name, x, y)
            assert value.values == tuple(row), (L.name, x, y)


def test_d2_as_words_everywhere():
    for L in builtins_up_to(20):
        D = dimension_monoid(L)
        for a in range(L.n):
            for b in range(L.n):
                w1 = DimensionWord([(a, L.jn(a, b))])
                w2 = DimensionWord([(L.mt(a, b), b)])
                assert word_compare(D, w1, w2) == "equal"


def test_congruence_correspondence_on_catalog(small_builtins):
    for L in small_builtins:
        D = dimension_monoid(L)
        report = dim.congruence_correspondence_check(L, D, DClasses(L))
        k = len(D.qo)
        assert report == {"classes": k, "points": k, "sampled_quadruples": 200}, L.name
        assert len(all_congruences(L)) == len(lower_sets(D.qo)), L.name


def test_correspondence_check_matches_the_listing():
    """The poset test and the listing check agree on every lattice and its
    dual, and so do their readings of x == y under con(a, b) on 200 seeded
    quadruples each: mask inclusion and the listing's block rows."""
    rng = random.Random(3)
    for L in lattices_and_duals():
        D, con = dimension_monoid(L), all_congruences(L)
        dim.congruence_correspondence_check(L, D, con.classes)
        congruence_correspondence_by_listing(L, D, con)
        quads = [[rng.randrange(L.n) for _ in range(4)] for _ in range(200)]
        xy, ab = (con.classes.collapsed_by([q[s] for q in quads]) for s in (slice(2), slice(2, 4)))
        rows = con.blocks[con.index_of(ab)]
        for (x, y, _, _), row, ok in zip(quads, rows, ~(xy & ~ab).any(axis=1)):
            assert ok == (row[x] == row[y]), (L.name, x, y)


def test_draws_below_are_the_randrange_stream():
    # the correspondence check cuts 800 draws into its 200 quadruples
    for n in range(1, 101):
        rng = random.Random(7)
        want = [[rng.randrange(n) for _ in range(4)] for _ in range(200)]
        draws = dim._draws_below(random.Random(7), n, 800)
        assert [draws[i:i + 4] for i in range(0, 800, 4)] == want, n


def _failure(check, *args):
    """The text of the MismatchError the check raises, message and witness,
    or None when it passes."""
    try:
        check(*args)
    except MismatchError as e:
        return str(e)
    return None


def _verdict(check, *args):
    try:
        check(*args)
    except MismatchError:
        return False
    return True


def test_correspondence_checks_catch_every_moved_cover_and_flipped_cell():
    """Every cover moved to every other point, and every off-diagonal cell
    of the relation flipped: the poset test and the listing check both
    fail."""
    moves, flips = [], []
    for spec in ("N5", "coprod_c3_c1", "boolean:3", "coprod_c2_c1"):
        L = lat.builtin_spec(spec)
        D, con = dimension_monoid(L), all_congruences(L)
        k = len(D.qo)
        for i, p in itertools.product(range(len(L.covers)), range(k)):
            if p != D.point_of_cover[i]:
                moved = D.point_of_cover.copy()
                moved[i] = p
                moves.append((L, con, dim.DimensionMonoid(L, D.qo, moved)))
        for p, q in itertools.product(range(k), repeat=2):
            if p != q:
                rel = D.qo.rel.copy()
                rel[p, q] = not rel[p, q]
                flips.append((L, con, dim.DimensionMonoid(L, QOSystem.closed(rel),
                                                          D.point_of_cover)))
    assert (len(moves), len(flips)) == (348, 142)
    for L, con, T in moves + flips:
        assert not _verdict(dim.congruence_correspondence_check, L, T, con.classes), L.name
        assert not _verdict(congruence_correspondence_by_listing, L, T, con), L.name


def test_d_class_order_is_the_point_order():
    """A second derivation of D L's point order, without caustic pairs: the
    D-classes of the join-irreducibles j, each through its prime interval
    [j_*, j], biject with the points, and the class order is the point
    order, class by class."""
    specs = (("boolean:8", "subspace:2,4", "partition:5", "subspace:3,3")
             + CATALOG_INSTANCES + ("boolean:9", "subspace:2,5"))
    for spec in specs:
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        classes = DClasses(L)
        point = [None] * len(classes)
        for j, c in zip(classes.J.tolist(), classes.cls.tolist()):
            p = D.point_of_cover[L.covers.index((L.cocovers_of(j)[0], j))]
            assert point[c] in (None, p), spec
            point[c] = p
        assert sorted(point) == list(range(len(D.qo.points))), spec
        assert np.array_equal(classes.below, D.qo.below[np.ix_(point, point)]), spec


def test_correspondence_counts():
    for spec, classes, count in (("N5", 3, 5), ("M3", 1, 2), ("chain:3", 2, 4)):
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        assert dim.congruence_correspondence_check(L, D, DClasses(L)) == {
            "classes": classes, "points": classes, "sampled_quadruples": 200}, spec
        assert len(all_congruences(L)) == count == len(lower_sets(D.qo)), spec


def _zero_pairs_to_top(monkeypatch, L):
    """`delta_rows`, and the `delta` of the loop oracles, with the values of
    the argument pairs (x, top) zeroed."""
    rows_of, value_of = dim.delta_rows, oracles.delta

    def zeroed(D, a, b):
        rows = rows_of(D, a, b)
        rows[np.asarray(b) == L.top] = 0
        return rows

    monkeypatch.setattr(dim, "delta_rows", zeroed)
    monkeypatch.setattr(oracles, "delta",
                        lambda D, a, b: D.qo.zero() if b == L.top else value_of(D, a, b))


@pytest.mark.parametrize("spec, tamper, message, witness", [
    ("N5", "order", "refinement order does not match inclusion", (("0", "b"), ("c", "a"))),
    ("coprod_c3_c1", "order", "refinement order does not match inclusion",
     (("0", "a"), ("p", "r"))),
    ("N5", "delta", "collapsing and bounded domination disagree", ("0", "1", "0", "b")),
    ("coprod_c3_c1", "delta", "collapsing and bounded domination disagree",
     ("e", "1", "c", "o")),
    ("N5", "antichain", "refinement order does not match inclusion", (("c", "a"), ("0", "b"))),
    ("N5", "cover", "principal congruence image is not the point's lower set", ("0", "b")),
])
def test_correspondence_check_failures(monkeypatch, spec, tamper, message, witness):
    L = lat.builtin_spec(spec)
    D = dimension_monoid(L)
    if tamper == "order":
        # one off-diagonal cell of the relation flipped
        rel = D.qo.rel.copy()
        rel[0, -1] = not rel[0, -1]
        D = dim.DimensionMonoid(L, QOSystem.closed(rel), D.point_of_cover)
    elif tamper == "delta":
        _zero_pairs_to_top(monkeypatch, L)
    elif tamper == "antichain":
        D = dim.DimensionMonoid(L, QOSystem(D.qo.points, []), D.point_of_cover)
    else:
        # 0..b moved onto another generator point
        moved = D.point_of_cover.copy()
        moved[L.covers.index((L.index["0"], L.index["b"]))] = 2
        D = dim.DimensionMonoid(L, D.qo, moved)
    with pytest.raises(MismatchError, match=message) as err:
        dim.congruence_correspondence_check(L, D, DClasses(L))
    assert err.value.witness == witness


def test_correspondence_samples_match_the_loop(monkeypatch):
    """The sampled stage reads its values as rows and dominates them with
    one array test.  On every lattice and its dual it passes, as the loop
    over `delta` and `propto` does, and with the values of the argument
    pairs (x, top) read as 0 it fails at the quadruple the loop names, or
    passes where the loop does."""
    failing = 0
    for L in lattices_and_duals():
        D, classes = dimension_monoid(L), DClasses(L)
        assert _failure(dim.congruence_correspondence_check, L, D, classes) is None, L.name
        assert sampled_domination_by_loop(L, D, classes) is None, L.name
        with monkeypatch.context() as m:
            _zero_pairs_to_top(m, L)
            want = sampled_domination_by_loop(L, D, classes)
            got = _failure(dim.congruence_correspondence_check, L, D, classes)
        assert got == (None if want is None else str(MismatchError(
            "collapsing and bounded domination disagree", witness=want))), L.name
        failing += want is not None
    assert failing == 112


def test_projectivity_classes():
    M3 = lat.builtin("M3")
    classes = projectivity_classes(M3)
    assert len(classes) == 1 and len(classes[0]) == 6
    B3 = lat.builtin("boolean", 3)
    assert len(projectivity_classes(B3)) == 3
    C4 = lat.builtin("chain", 4)
    assert len(projectivity_classes(C4)) == 3


def modular_lattices():
    """The modular lattices the square-class tests run on: the catalog, its
    duals, products of its entries of at most six elements, the seeded
    random lattices and larger builtins."""
    catalog = [lat.builtin_spec(s) for s in CATALOG_INSTANCES]
    small = [L for L in catalog if L.n <= 6]
    found = catalog + [lat.dual(L) for L in catalog] + random_lattices()
    found += [lat.product(A, B) for A, B in itertools.combinations(small, 2)]
    found += [lat.builtin_spec(s) for s in ("boolean:6", "boolean:7", "boolean:8",
                                            "subspace:2,4", "subspace:3,3", "chain:500")]
    return [L for L in found if lat.is_modular(L)]


def test_square_classes_match_the_presentation(monkeypatch):
    """On a modular lattice D L comes from the covering-square classes; it
    must be the monoid the caustic presentation gives, down to the order of
    the generator map and every value of Delta on lattices of at most 64
    elements."""
    def refuse(L):
        raise AssertionError("a modular lattice must not reach the presentation")

    lattices = modular_lattices()
    assert len(lattices) > 60
    for L in lattices:
        with monkeypatch.context() as m:
            m.setattr(dim, "_presented_monoid", refuse)
            D = dimension_monoid(L)
        P = dim._presented_monoid(L)
        assert np.array_equal(D.point_of_cover, P.point_of_cover), L.name
        assert D.point_of_cover.dtype == np.intp and not D.point_of_cover.flags.writeable
        assert D.gen == dict(zip(L.covers, P.point_of_cover.tolist())), L.name
        with pytest.raises(TypeError):
            D.gen[(0, 0)] = 0
        assert D.qo.points == P.qo.points and np.array_equal(D.qo.rel, P.qo.rel), L.name
        assert D.report_dict() == P.report_dict(), L.name
        if L.n <= 64:
            for a, b in itertools.product(range(L.n), repeat=2):
                assert delta(D, a, b).values == delta(P, a, b).values, (L.name, a, b)


def test_modular_monoid_finds_the_covering_squares_once():
    # L's own squares serve the semimodularity test and the square classes;
    # the dual's pass of the modularity test finds its own.  A profile hook
    # counts the calls under any name the function is imported by.
    code, calls = lat._covering_squares.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        dimension_monoid(lat.builtin("boolean", 4))
    finally:
        sys.setprofile(None)
    assert len(calls) == 2


def test_projectivity_classes_match_pipeline_on_modular():
    for L in modular_lattices():
        if L.n > 64:
            continue
        classes = {frozenset(c) for c in projectivity_classes(L)}
        assert classes == {frozenset(grp) for grp in dimension_monoid(L).classes()}, L.name


def test_modularity_iff_cancellative_shape():
    for L in builtins_up_to(60):
        D = dim._presented_monoid(L)
        assert lat.is_modular(L) == (D.qo.is_antichain() and not D.qo.p0), L.name


def test_distributive_dim():
    B3 = lat.builtin("boolean", 3)
    J, f = distributive_dim(B3)
    assert len(J) == 3
    assert f(B3.bottom, B3.top) == (1, 1, 1)
    assert f(B3.top, B3.top) == (0, 0, 0)
    C3 = lat.builtin("chain", 3)
    J3, f3 = distributive_dim(C3)
    assert f3(0, 2) == (1, 1)
    with pytest.raises(NotDistributive):
        distributive_dim(lat.builtin("M3"))


def test_distributive_dim_agrees_with_pipeline():
    for spec in ("boolean:2", "boolean:3", "boolean:4", "chain:2", "chain:5", "chain:8"):
        L = lat.builtin_spec(spec)
        J, f = distributive_dim(L)
        D = dimension_monoid(L)
        assert D.qo.is_antichain() and not D.qo.p0 and len(D.qo.points) == len(J)
        # each generator class corresponds to exactly one join irreducible
        point_to_j = {}
        for (a, b), p in D.gen.items():
            vec = f(a, b)
            assert sum(vec) == 1
            j = vec.index(1)
            assert point_to_j.setdefault(p, j) == j, spec
        # and word values agree through that identification
        for a in range(L.n):
            for b in range(L.n):
                if L.le(a, b):
                    v = delta(D, a, b)
                    want = f(a, b)
                    got = tuple(int(v.values[p]) for p, j in sorted(
                        point_to_j.items(), key=lambda kv: kv[1]))
                    assert got == want, spec


def test_schreier_refine_boolean_square():
    B2 = lat.builtin("boolean", 2)
    i = B2.index
    c1 = [B2.bottom, i["10"], B2.top]
    c2 = [B2.bottom, i["01"], B2.top]
    cells = schreier_refine(B2, c1, c2)
    nontrivial = [(p, q) for p, q in cells if p[0] != p[1]]
    assert (((B2.bottom, i["10"]), (i["01"], B2.top)) in nontrivial)
    assert (((i["10"], B2.top), (B2.bottom, i["01"])) in nontrivial)


def test_schreier_refine_identical_chains():
    C4 = lat.builtin("chain", 4)
    chain = [0, 1, 2, 3]
    cells = schreier_refine(C4, chain, chain)
    for (u0, u1), (v0, v1) in cells:
        if u0 != u1:
            assert (u0, u1) == (v0, v1)


def test_schreier_refine_m3_and_oracle_role():
    M3 = lat.builtin("M3")
    i = M3.index
    D = dimension_monoid(M3)
    c1 = [M3.bottom, i["a"], M3.top]
    c2 = [M3.bottom, i["b"], M3.top]
    cells = schreier_refine(M3, c1, c2)
    assert len(cells) == 4
    # the refinement certifies both chains carry the same word value
    for (p, q) in cells:
        assert delta(D, *p) == delta(D, *q)
    with pytest.raises(NotModular):
        schreier_refine(lat.builtin("N5"), [0], [0])


def test_schreier_on_modular_catalog():
    rng = random.Random(3)
    for L in builtins_up_to(32):
        if not lat.is_modular(L):
            continue
        D = dimension_monoid(L)
        for _ in range(5):
            a = rng.randrange(L.n)
            b = L.jn(a, rng.randrange(L.n))
            c1 = L.maximal_chain(a, b)
            c2 = list(reversed([L.top]))  # placeholder replaced below
            # a second chain: greedy from the top side
            c2 = [b]
            z = b
            while z != a:
                z = max(w for w in L.cocovers_of(z) if L.le(a, w))
                c2.append(z)
            c2.reverse()
            cells = schreier_refine(L, c1, c2)
            for p, q in cells:
                assert delta(D, *p) == delta(D, *q)


def test_intervals_projective():
    N5 = lat.builtin("N5")
    i = N5.index
    assert intervals_projective(N5, (i["0"], i["b"]), (i["a"], i["1"]))
    assert not intervals_projective(N5, (i["c"], i["a"]), (i["0"], i["b"]))


def test_functor_checks_named():
    for spec in ("chain:3", "boolean:2", "M3", "N5"):
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        functor_checks(L, D)
        product_functor_check(L, D, lat.builtin("chain", 2))


def test_functor_product_pairwise():
    pool = [lat.builtin_spec(s) for s in ("chain:3", "boolean:2", "M3", "N5")]
    for A in pool:
        for B in pool:
            product_functor_check(A, dimension_monoid(A), B)


def test_functor_product_chain2_chain2():
    D = dimension_monoid(lat.product(lat.builtin("chain", 2), lat.builtin("chain", 2)))
    assert len(D.qo.points) == 2 and D.qo.is_antichain()


def test_functor_quotient_identity_and_random():
    rng = random.Random(12)
    pool = [lat.builtin_spec(s) for s in ("chain:3", "boolean:2", "M3", "N5")]
    for L in pool:
        quotient_functor_check(L, dimension_monoid(L), np.arange(L.n))
    done = 0
    while done < 10:
        L = pool[rng.randrange(len(pool))]
        cons = all_congruences(L).blocks
        theta = cons[rng.randrange(len(cons))]
        quotient_functor_check(L, dimension_monoid(L), theta)
        done += 1


@pytest.mark.parametrize("tamper, message, witness", [
    ("moved", "dual generator classes do not match", "('0', 'c')"),
    ("flat", "dual map does not preserve the relation", "(2, 0)"),
    ("moved", "product generator classes do not match", "('(0,0)', '(c,0)')"),
    ("flat", "product map does not preserve the relation", "(3, 1)"),
    ("0c|a|b|1", "quotient generator classes do not match", "('c', 'a')"),
    ("0b1|ac", "quotient map is not defined on the uncollapsed points",
     "0,b,1 | a,c"),
    ("0ab1|c", "quotient map does not preserve the relation", "(2, 1)"),
])
def test_functor_check_failures(tamper, message, witness):
    # N5's monoid with 0..b moved onto the point of 0..c or with its relation
    # dropped, or a partition of N5 that is not a congruence
    L = lat.builtin("N5")
    i = L.index
    D, check, args = dimension_monoid(L), functor_checks, ()
    if tamper == "moved":
        moved = D.point_of_cover.copy()
        moved[L.covers.index((i["0"], i["b"]))] = moved[L.covers.index((i["0"], i["c"]))]
        D = dim.DimensionMonoid(L, D.qo, moved)
    elif tamper == "flat":
        D = dim.DimensionMonoid(L, QOSystem(D.qo.points, []), D.point_of_cover)
    else:
        blocks = tamper.split("|")
        # each block is named by its first name, its least member
        check = quotient_functor_check
        args = (np.array([i[next(b for b in blocks if x in b)[0]] for x in L.names]),)
    if message.startswith("product"):
        check, args = product_functor_check, (lat.builtin("chain", 2),)
    with pytest.raises(MismatchError, match=message) as err:
        check(L, D, *args)
    assert str(err.value.witness) == witness


def test_v_modularity():
    N5 = lat.builtin("N5")
    ok, witness = is_v_modular(N5, dimension_monoid(N5))
    assert not ok
    src, tgt = witness
    assert (N5.names[src[0]], N5.names[src[1]]) == ("c", "a")
    assert (N5.names[tgt[0]], N5.names[tgt[1]]) == ("0", "b")
    M3 = lat.builtin("M3")
    assert is_v_modular(M3, dimension_monoid(M3))[0]
    for spec in ("chain:4", "boolean:3"):
        L = lat.builtin_spec(spec)
        assert is_v_modular(L, dimension_monoid(L))[0], spec


def _v_modular_lattices():
    # the closure and search oracles hold n^4 cells
    return cross_check_lattices() + [L for L in random_lattices() if L.n <= 24]


def test_v_modular_matches_search_oracle():
    """The point-membership verdict is the sum search's at every bound, on
    both derivations of D."""
    verdicts = set()
    for L in _v_modular_lattices():
        for derive in (dimension_monoid, dim._presented_monoid):
            D = derive(L)
            got = is_v_modular(L, D)
            for bound in range(1, 5):
                assert got == is_v_modular_by_search(L, D, bound), (L.name, derive, bound)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_v_modular_evaluates_no_delta(monkeypatch):
    monoids = [(L, dimension_monoid(L)) for L in _v_modular_lattices()]
    expected = [is_v_modular_by_search(L, D, 1) for L, D in monoids]

    def refuse(*args):
        raise AssertionError("Delta evaluated or a vector built")

    monkeypatch.setattr(dim, "delta", refuse)
    monkeypatch.setattr(DimVector, "__init__", refuse)
    assert [is_v_modular(L, D) for L, D in monoids] == expected


def test_v_modular_matches_closure_oracle():
    """The down-set test on the point order gives the verdict and witness of
    the transitive closure of weak projectivity on element pairs, on each
    lattice and its dual, under both derivations of D."""
    cases = []
    for L in _v_modular_lattices():
        for M in (L, lat.dual(L)):
            for derive in (dimension_monoid, dim._presented_monoid):
                D = derive(M)
                got = is_v_modular(M, D)
                assert got == is_v_modular_by_closure(M, D), (M.name, derive)
                cases.append(got[0])
    assert len(cases) == 308 and cases.count(False) == 112


def test_v_modular_past_24_elements():
    """N5 x chain 5 has 25 elements, 25^4 cells for the closure oracle.  It
    fails where N5 does, [c, a] into [0, b], in the copy of N5 at 0 of the
    chain."""
    L = lat.product(lat.builtin("N5"), lat.builtin("chain", 5))
    D = dimension_monoid(L)
    assert L.n == 25
    got = is_v_modular(L, D)
    assert got == is_v_modular_by_closure(L, D) == (False, ((15, 5), (0, 10)))
    assert [L.names[x] for pair in got[1] for x in pair] == ["(c,0)", "(a,0)", "(0,0)", "(b,0)"]


class _Factors:
    """The D-classes of L with some of their rows, so that DEP runs on the
    meet-irreducible congruences of those classes alone."""

    def __init__(self, classes, keep):
        self.below, self.partitions = classes.below[keep], classes.partitions


def test_dep_check_matches_pairwise_oracle():
    """On every subset of factors tried, the stacked orders agree with the
    pairwise oracle run on the listing's meet-irreducible congruences of
    those classes."""
    verdicts = []
    for L in cross_check_lattices():
        con = all_congruences(L)
        classes = con.classes
        D = dimension_monoid(L)
        every = np.arange(len(classes))
        runs = [(every, 3), (every[:1], 2), (every[1:], 2), (every, 0)]
        for keep, k in runs:
            got = dep_check(L, _Factors(classes, keep), D, k=k)
            factors = con.blocks[con.index_of(~classes.below[keep])]
            assert got == dep_check_by_pairs(L, factors, D, k=k), (L.name, k)
            verdicts.append(got)
        # the factors are the listing's meet-irreducibles, in another order
        assert sorted(con.index_of(~classes.below)) == con.meet_irreducibles(), L.name
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20


def test_dep_check():
    N5, C3 = lat.builtin("N5"), lat.builtin("chain", 3)
    assert dep_check(N5, DClasses(N5), dimension_monoid(N5), k=3)
    assert dep_check(C3, DClasses(C3), dimension_monoid(C3), k=3)
    M3 = lat.builtin("M3")  # simple: single factor, trivially fine
    assert dep_check(M3, DClasses(M3), dimension_monoid(M3), k=2)
    for L in random_eight_element_lattices(2):
        assert dep_check(L, DClasses(L), dimension_monoid(L), k=3), L.name


def test_dep_check_explicit_factors():
    C3 = lat.builtin("chain", 3)
    cons, classes = all_congruences(C3), DClasses(C3)
    twochains = [t for t in cons.blocks.tolist() if len(set(t)) == 2]
    assert len(twochains) == 2
    assert cons.blocks[cons.meet_irreducibles()].tolist() == twochains
    assert sorted(classes.partitions(~classes.below).tolist()) == sorted(twochains)
    assert dep_check(C3, classes, dimension_monoid(C3), k=3)


def test_dep_check_evaluates_no_delta(monkeypatch):
    """DEP reads each monoid's word values from one `delta_rows` call, with
    a prime that a factor collapses as a zero row, and keeps its verdicts:
    on all the factors, and on the first class's alone, which fails on some
    lattices."""
    cases = []
    for L in cross_check_lattices():
        classes, D = DClasses(L), dimension_monoid(L)
        cases += [(L, classes, D), (L, _Factors(classes, [0]), D)]
    expected = [dep_check(L, classes, D) for L, classes, D in cases]

    def refuse(*args):
        raise AssertionError("Delta evaluated pair by pair")

    monkeypatch.setattr(dim, "delta", refuse)
    assert [dep_check(L, classes, D) for L, classes, D in cases] == expected
    assert set(expected) == {True, False}


def test_dim_report_shape():
    D = dimension_monoid(lat.builtin("N5"))
    doc = D.report_dict()
    assert set(doc) == {"qosystem", "generators", "p0", "classes"}
    assert doc["p0"] == []
    assert len(doc["generators"]) == 5


def _all_paths(L, u, v):
    """Every maximal chain from u to v (u <= v)."""
    if u == v:
        return [[u]]
    out = []
    for w in L.covers_of(u):
        if L.le(w, v):
            out.extend([[u] + rest for rest in _all_paths(L, w, v)])
    return out


def caustic_path_relations(L):
    """Relation instances generated literally per caustic path: the first
    step of the second leg equals the last step of the first leg's ascent,
    interior steps are absorbed by their leg's boundary step."""
    X, Y = set(), set()
    for pair in caustic_pairs(L).tolist():
        for s, t in (pair, pair[::-1]):
            m, j = L.mt(s, t), L.jn(s, t)
            first_legs = _all_paths(L, m, t)
            ascents = _all_paths(L, s, j)
            for beta0 in first_legs:
                first = (beta0[0], beta0[1])
                for alpha1 in ascents:
                    X.add((first, (alpha1[-2], alpha1[-1])))
                for k in range(1, len(beta0) - 1):
                    Y.add(((beta0[k], beta0[k + 1]), first))
            for beta1 in _all_paths(L, t, j):
                last = (beta1[-2], beta1[-1])
                for k in range(len(beta1) - 2):
                    Y.add(((beta1[k], beta1[k + 1]), last))
    return sorted(X), sorted(Y)


def test_path_free_relations_equal_per_path_relations():
    """The quantified relation set coincides with the union over all caustic
    paths, instance for instance."""
    lattices = [lat.builtin_spec(s) for s in
                ("N5", "M3", "boolean:2", "boolean:3", "chain:5",
                 "coprod_c2_c1", "coprod_c3_c1", "partition:3", "partition:4",
                 "subspace:2,2")]
    lattices += random_eight_element_lattices(3, seed=77)
    for L in lattices:
        fast = tuple(cover_rows(L, R) for R in caustic_relations(L))
        slow = caustic_path_relations(L)
        assert fast == slow, L.name
