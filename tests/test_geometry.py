import itertools
import random

import numpy as np
import pytest

from dimw import geometry as geo
from dimw import lattice as lat
from dimw.dimension import delta, dimension_monoid
from dimw.lattice import _transitive_closure
from dimw.geometry import (index_equality_check, is_normal, lattice_index, perspectivity_matrix,
                           relations_suite, transitivity_cancellativity_check)
from conftest import builtins_up_to, cross_check_lattices, random_lattices
from oracles import (decomposition_closure_by_loop, homogeneous_base_set_by_search,
                     is_normal_by_pairs, lattice_index_by_search, max_homogeneous_below_by_search,
                     n_distributive_by_tuples, neutral_ideal_by_worklist,
                     perspective_by_axes as perspective, perspectivity_by_axes,
                     sectional_complements)
from theory import (diam_congruence, diam_ideal_equivalence_check, diamonds, eqwords_refinement,
                    homogeneous_base_set, independent, jonsson_decomposition, lesssim, m_ideal,
                    n_distributive, neutral_ideal, normal_kernel, normal_kernel_theorems_check,
                    perspective_map, proper_axis, two_piece_decomposition, v_measure_check)

SC_MODULAR_SPECS = ("subspace:2,2", "subspace:2,3", "subspace:3,2",
                    "boolean:2", "boolean:3", "boolean:4")


def test_perspective_basics():
    M3 = lat.builtin("M3")
    i = M3.index
    assert perspective(M3, i["a"], i["a"]) is not None
    x = perspective(M3, i["a"], i["b"])
    assert x is not None
    assert M3.mt(i["a"], x) == M3.mt(i["b"], x)
    assert M3.jn(i["a"], x) == M3.jn(i["b"], x)
    N5 = lat.builtin("N5")
    j = N5.index
    assert perspective(N5, j["c"], j["b"]) is None


def test_perspective_map_is_interval_isomorphism():
    S23 = lat.builtin("subspace", 2, 3)
    sim = perspectivity_matrix(S23)
    planes = [x for x in range(S23.n) if len(S23.maximal_chain(S23.bottom, x)) == 3]
    a, b = planes[0], planes[1]
    assert sim[a, b]
    s = proper_axis(S23, a, b)
    assert S23.jn(a, s) == S23.jn(b, s) == S23.jn(a, b)
    down_a = S23.interval(S23.bottom, a)
    images = [perspective_map(S23, b, s, x) for x in down_a]
    assert sorted(images) == S23.interval(S23.bottom, b)
    for x in down_a:  # order preserved both ways
        for y in down_a:
            tx, ty = perspective_map(S23, b, s, x), perspective_map(S23, b, s, y)
            assert S23.le(x, y) == S23.le(tx, ty)


def test_perspectivity_matrix_reflexive_symmetric():
    for spec in SC_MODULAR_SPECS:
        L = lat.builtin_spec(spec)
        sim = perspectivity_matrix(L)
        assert sim.diagonal().all()
        assert np.array_equal(sim, sim.T)


def test_perspectivity_matches_axis_search():
    for L in builtins_up_to(60) + random_lattices():
        assert np.array_equal(perspectivity_matrix(L), perspectivity_by_axes(L)), L.name


def test_independent():
    M3 = lat.builtin("M3")
    i = M3.index
    assert independent(M3, [i["a"]])
    assert independent(M3, [i["a"], i["b"]])
    assert not independent(M3, [i["a"], i["a"]])
    assert not independent(M3, [i["a"], i["b"], i["c"]])
    N5 = lat.builtin("N5")  # non-modular fallback path
    j = N5.index
    assert independent(N5, [j["c"], j["b"]])
    assert not independent(N5, [j["a"], j["a"]])


def test_lattice_index_examples():
    S23 = lat.builtin("subspace", 2, 3)
    assert lattice_index(S23, perspectivity_matrix(S23))[S23.bottom] == 0
    assert lattice_index(S23, perspectivity_matrix(S23))[S23.top] == 3
    M3 = lat.builtin("M3")
    assert lattice_index(M3, perspectivity_matrix(M3))[M3.top] == 2
    M4 = lat.builtin("subspace", 3, 2)
    assert lattice_index(M4, perspectivity_matrix(M4))[M4.top] == 2


def _homogeneous_oracle_lattices():
    # rand8_5 and the duals rand16^op, rand23^op and rand33^op are where a
    # state without its last partner loses the order of the meet test;
    # partition:5 and subspace:2,4 reach four levels, chain:1 and boolean:0
    # have no state at all
    return (cross_check_lattices() + random_lattices() + [lat.dual(L) for L in random_lattices()]
            + [lat.builtin_spec(s) for s in ("partition:5", "subspace:2,4", "chain:1", "boolean:0")])


def test_homogeneous_levels_match_search_oracle():
    depths = {}
    for L in _homogeneous_oracle_lattices():
        sim = perspectivity_matrix(L)
        index = lattice_index(L, sim)
        assert index == lattice_index_by_search(L, sim), L.name
        assert all(type(i) is int for i in index), L.name
        for m in range(6):
            assert homogeneous_base_set(L, m, sim) == homogeneous_base_set_by_search(
                L, m, sim), (L.name, m)
        if lat.is_sectionally_complemented(L) and lat.is_modular(L):
            for n in (1, 2, 3, 4):
                assert n_distributive(L, n, method="B") == (
                    not max_homogeneous_below_by_search(L, L.top, sim, need=n + 1)), (L.name, n)
        depths[L.name] = index[L.top]
    assert depths["partition:5"] == depths["subspace:2,4"] == 4
    assert depths["chain:1"] == depths["boolean:0"] == 0
    assert sum(d >= 2 for d in depths.values()) >= 20


def test_index_equality_on_suite():
    for spec in SC_MODULAR_SPECS:
        L = lat.builtin_spec(spec)
        table = index_equality_check(L, dimension_monoid(L), perspectivity_matrix(L))
        assert table[L.names[L.bottom]] == 0
        assert all(v >= 1 for k, v in table.items() if k != L.names[L.bottom])


def test_n_distributive():
    B3 = lat.builtin("boolean", 3)
    assert n_distributive(B3, 1)
    M3 = lat.builtin("M3")
    assert not n_distributive(M3, 1)
    assert n_distributive(M3, 2)
    S23 = lat.builtin("subspace", 2, 3)
    assert not n_distributive(S23, 2)
    assert n_distributive(S23, 3)
    # methods agree separately as well
    assert n_distributive(S23, 3, method="A") and not n_distributive(S23, 2, method="A")


@pytest.mark.parametrize("cells", [geo._IDENTITY_CELLS, 64])
def test_n_distributive_identity_matches_tuple_oracle(monkeypatch, cells):
    # 64 cells grow the states a few z at a time and test a few states per
    # block, so a failure can sit in any block
    monkeypatch.setattr(geo, "_IDENTITY_CELLS", cells)
    verdicts = []
    for L in cross_check_lattices():
        for n in (1, 2, 3):
            got = n_distributive(L, n, method="A")
            assert got == n_distributive_by_tuples(L, n), (L.name, n)
            verdicts.append(got)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


@pytest.mark.parametrize("spec", ["partition:5", "subspace:2,4"])
def test_n_distributive_identity_on_lattices_beyond_the_oracle(spec):
    # 3.8M and 13M multisets at n = 4, out of the tuple oracle's reach
    L = lat.builtin_spec(spec)
    assert [n_distributive(L, n, method="A") for n in (1, 2, 3, 4)] == [
        False, False, False, True]


def test_is_normal_matches_pair_oracle():
    rng = np.random.default_rng(8)
    flags = []
    for L in cross_check_lattices():
        sim = perspectivity_matrix(L)
        noise = rng.random((L.n, L.n)) < 0.3
        for rel in (sim, noise | noise.T):
            got = is_normal(L, rel)
            assert got == is_normal_by_pairs(L, rel), L.name
            flags.append(got[0])
    assert flags.count(True) >= 20 and flags.count(False) >= 20


def test_neutral_ideal_matches_worklist_oracle():
    rng = random.Random(9)
    for L in cross_check_lattices():
        sim = perspectivity_matrix(L)
        for k in (0, 1, 1, 2, 2):
            gens = rng.sample(range(L.n), k)
            assert neutral_ideal(L, gens, sim) == neutral_ideal_by_worklist(L, gens, sim), (
                L.name, gens)


def test_decomposition_closure_matches_loop_oracle():
    # a random relation also relates 0 to other elements, which perspectivity
    # never does, so the a0 and b0 exclusions matter
    rng = np.random.default_rng(5)
    grown = 0
    for L in cross_check_lattices():
        sim = perspectivity_matrix(L)
        for rel in (sim, _transitive_closure(sim), rng.random((L.n, L.n)) < 0.2):
            got = geo._decomposition_closure(L, rel)
            assert np.array_equal(got, decomposition_closure_by_loop(L, rel)), L.name
            grown += int((got & ~rel).any())
    assert grown >= 5


def test_diamonds():
    M3 = lat.builtin("M3")
    d2 = diamonds(M3, 2)
    assert (M3.bottom, M3.top) in d2
    assert diamonds(M3, 3) == []
    B3 = lat.builtin("boolean", 3)
    assert diamonds(B3, 2) == []


def test_is_normal_suite():
    for spec in SC_MODULAR_SPECS:
        L = lat.builtin_spec(spec)
        flag, witness = is_normal(L, perspectivity_matrix(L))
        assert flag, (spec, witness)
    one = lat.builtin("chain", 1)
    assert is_normal(one, perspectivity_matrix(one))[0]


def test_m_ideal_examples():
    S22 = lat.builtin("subspace", 2, 2)
    sim = perspectivity_matrix(S22)
    assert len(m_ideal(S22, 1, sim)) == S22.n
    assert len(m_ideal(S22, 2, sim)) == S22.n
    assert m_ideal(S22, 3, sim) == [S22.bottom]
    S23 = lat.builtin("subspace", 2, 3)
    sim = perspectivity_matrix(S23)
    assert len(m_ideal(S23, 1, sim)) == S23.n
    assert m_ideal(S23, 4, sim) == [S23.bottom]


def test_normal_kernel_whole_lattice():
    # finite sectionally complemented modular lattices are normal throughout
    for spec in SC_MODULAR_SPECS:
        L = lat.builtin_spec(spec)
        assert normal_kernel(L, perspectivity_matrix(L)) == list(range(L.n)), spec


def test_normal_kernel_matches_oracle_loop():
    proper = 0
    for L in cross_check_lattices():
        sim = perspectivity_matrix(L)
        expected = [x for x in range(L.n) if is_normal_by_pairs(
            L, sim, neutral_ideal_by_worklist(L, [x], sim))[0]]
        got = normal_kernel(L, sim)
        assert got == expected, L.name
        proper += len(got) < L.n
    assert proper >= 1


def test_diam_congruence_and_equivalence():
    for spec in ("subspace:2,2", "subspace:3,2", "boolean:3", "subspace:2,3"):
        L = lat.builtin_spec(spec)
        for m in (1, 2, 3):
            assert diam_ideal_equivalence_check(L, m), (spec, m)


def test_diam_congruence_shapes():
    S22 = lat.builtin("subspace", 2, 2)
    assert diam_congruence(S22, 2).tolist() == [0] * S22.n  # collapses everything
    assert diam_congruence(S22, 3).tolist() == list(range(S22.n))  # identity


def test_normal_kernel_theorems():
    for spec in ("subspace:2,3", "subspace:2,2", "subspace:3,2", "boolean:4", "M3"):
        L = lat.builtin_spec(spec)
        rep = normal_kernel_theorems_check(L)
        assert rep["kernel_size"] == L.n, spec
        assert rep["quotient_size"] == 1, spec


def test_normal_kernel_theorems_subspace_2_4():
    L = lat.builtin("subspace", 2, 4)
    rep = normal_kernel_theorems_check(L)
    assert rep["kernel_size"] == L.n


def test_two_piece_decomposition():
    S23 = lat.builtin("subspace", 2, 3)
    D = dimension_monoid(S23)
    sim = perspectivity_matrix(S23)
    # same element: the (a, 0, a, 0) style witness must exist
    for a in range(S23.n):
        got = two_piece_decomposition(S23, a, a, D, sim)
        assert got is not None
        a0, a1, b0, b1 = got
        assert S23.jn(a0, a1) == a and S23.mt(a0, a1) == S23.bottom
    # two distinct lines are perspective: decomposition with a zero part
    lines = S23.atoms()
    got = two_piece_decomposition(S23, lines[0], lines[1], D, sim)
    assert got is not None
    # different dimensions: no decomposition
    assert two_piece_decomposition(S23, lines[0], S23.top, D, sim) is None


def test_two_piece_every_equal_delta_pair():
    for spec in SC_MODULAR_SPECS:
        L = lat.builtin_spec(spec)
        D = dimension_monoid(L)
        sim = perspectivity_matrix(L)
        for a in range(L.n):
            for b in range(L.n):
                expected = delta(D, L.bottom, a) == delta(D, L.bottom, b)
                got = two_piece_decomposition(L, a, b, D, sim)
                if expected:
                    a0, a1, b0, b1 = got
                    assert L.jn(a0, a1) == a and L.mt(a0, a1) == L.bottom
                    assert L.jn(b0, b1) == b and L.mt(b0, b1) == L.bottom
                    assert sim[a0, b0] and sim[a1, b1]
                else:
                    assert got is None


def test_relations_suite_chain_of_containments():
    for spec in SC_MODULAR_SPECS:
        L = lat.builtin_spec(spec)
        sim = perspectivity_matrix(L)
        rels = relations_suite(L, dimension_monoid(L), sim, _transitive_closure(sim))
        approx = rels["approx"]
        simeq, approxeq = geo._decomposition_closure(L, sim), rels["approxeq"]
        assert (sim <= approx).all(), spec
        assert (sim <= simeq).all(), spec
        assert (simeq <= approxeq).all(), spec
        assert approxeq.diagonal().all()


def test_relations_suite_geometric_dimension():
    # in the 16-element projective-space lattice, equal dimension is exactly
    # projectivity by decomposition
    S23 = lat.builtin("subspace", 2, 3)
    D = dimension_monoid(S23)
    sim = perspectivity_matrix(S23)
    rels = relations_suite(S23, D, sim, _transitive_closure(sim))
    for a in range(S23.n):
        for b in range(S23.n):
            same = delta(D, S23.bottom, a) == delta(D, S23.bottom, b)
            assert bool(rels["approxeq"][a, b]) == same


def test_lesssim_characterization():
    for L in builtins_up_to(24):
        sim = perspectivity_matrix(L)
        below = lesssim(L, sim)
        for a in range(L.n):
            for b in range(L.n):
                direct = any(L.le(y, b) and sim[a, y] for y in range(L.n))
                assert bool(below[a, b]) == direct, L.name


def test_transitivity_cancellativity():
    for spec in SC_MODULAR_SPECS + ("M3",):
        L = lat.builtin_spec(spec)
        sim = perspectivity_matrix(L)
        rep = transitivity_cancellativity_check(L, dimension_monoid(L), sim,
                                                _transitive_closure(sim))
        assert rep["transitive"] and rep["cancellative"], spec


def test_basic_additivity_of_perspectivity():
    # a_i ~ b_i with independent joins implies the sums are perspective
    for spec in ("subspace:2,2", "subspace:2,3", "boolean:3"):
        L = lat.builtin_spec(spec)
        sim = perspectivity_matrix(L)
        rng = random.Random(13)
        pairs = [(a, b) for a in range(L.n) for b in range(L.n) if sim[a, b]]
        for _ in range(200):
            (a0, b0), (a1, b1) = rng.choice(pairs), rng.choice(pairs)
            if not independent(L, [L.jn(a0, b0), L.jn(a1, b1)]):
                continue
            assert sim[L.jn(a0, a1), L.jn(b0, b1)], spec


def test_corollary_add_persp_cancel():
    # for independent (a, b, c): a ~ b iff a+c ~ b+c
    for spec in ("subspace:2,3", "boolean:3"):
        L = lat.builtin_spec(spec)
        sim = perspectivity_matrix(L)
        for a, b, c in itertools.product(range(L.n), repeat=3):
            if not independent(L, [a, b, c]):
                continue
            assert bool(sim[a, b]) == bool(sim[L.jn(a, c), L.jn(b, c)]), spec


def test_v_measure():
    for spec in ("subspace:2,2", "subspace:3,2", "boolean:3", "subspace:2,3"):
        L = lat.builtin_spec(spec)
        assert v_measure_check(L, dimension_monoid(L)), spec


def test_eqwords_refinement():
    S23 = lat.builtin("subspace", 2, 3)
    D = dimension_monoid(S23)
    sim = perspectivity_matrix(S23)
    approxeq = relations_suite(S23, D, sim, _transitive_closure(sim))["approxeq"]
    rng = random.Random(14)
    zero = S23.bottom

    def decompositions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in S23.interval(zero, total):
            for rest in sectional_complements(S23, first, total):
                for tail in decompositions(rest, k - 1):
                    yield (first,) + tail

    checked = 0
    for target in (S23.top, S23.atoms()[0]):
        dec2 = [d for d in decompositions(target, 2)]
        for _ in range(20):
            pa = rng.choice(dec2)
            pb = rng.choice(dec2)
            matrix = eqwords_refinement(S23, pa, pb, approxeq)
            assert matrix is not None
            # row sums and matched cells
            for i, row in enumerate(matrix):
                join = zero
                for c, d in row:
                    assert approxeq[c, d]
                    join = S23.jn(join, c)
                assert join == pa[i]
            for j in range(len(pb)):
                join = zero
                for row in matrix:
                    join = S23.jn(join, row[j][1])
                assert join == pb[j]
            checked += 1
    assert checked == 40


def test_jonsson_decomposition():
    for spec in ("subspace:2,2", "subspace:3,2", "boolean:3", "subspace:2,3"):
        L = lat.builtin_spec(spec)
        sim = perspectivity_matrix(L)
        sim2 = sim @ sim  # two-step perspectivity
        found = 0
        for a in range(L.n):
            for b in range(L.n):
                if not sim2[a, b] or found >= 6:
                    continue
                got = jonsson_decomposition(L, a, b, sim)
                assert got is not None, (spec, a, b)
                (u0, u1, rest_a), (u, mid, h) = got
                assert sim[u0, u] and sim[u1, u]
                assert L.jn(L.jn(u0, u1), rest_a) == a
                assert L.jn(L.jn(u, mid), h) == b
                found += 1
        assert found > 0, spec
