import functools
import random

import numpy as np
import pytest

from dimw import lattice as lat
from dimw.congruence import quotient_lattice
from dimw.errors import CycleError, NotALattice, ParamTooLarge, UnknownBuiltin

from conftest import (builtins_up_to, lattices_and_duals, random_eight_element_lattices,
                      random_posets)
from oracles import (closure_by_rows, covering_squares_by_join, covers_by_argmax,
                     is_atomistic_by_atom_joins,
                     is_distributive_by_identity, is_modular_by_identity,
                     is_relatively_complemented_by_tables,
                     is_sectionally_complemented_by_tables, is_semimodular_by_pairs,
                     join_table_by_rows, maximal_chain_by_covers)
from theory import interval_sublattice


def test_two_chain():
    L = lat.build_lattice([0, 1], [(0, 1)])
    assert L.n == 2 and L.covers == ((0, 1),)
    assert L.bottom == 0 and L.top == 1


def test_pentagon_from_covers():
    L = lat.build_lattice(["0", "a", "b", "c", "1"],
                          [("0", "c"), ("c", "a"), ("a", "1"), ("0", "b"), ("b", "1")])
    i = L.index
    assert L.mt(i["a"], i["b"]) == i["0"]
    assert L.jn(i["c"], i["b"]) == i["1"]
    assert not lat.is_modular(L)


def test_not_a_lattice_witness():
    with pytest.raises(NotALattice) as err:
        lat.build_lattice(["x", "y", "z"], [("x", "y"), ("x", "z")])
    assert err.value.pair == ("y", "z")
    assert err.value.kind == "join"


def test_construction_leaves_the_callers_array_alone():
    a = np.array([[1, 1], [0, 1]], dtype=bool)
    L = lat.FiniteLattice(["x", "y"], a)
    assert a.flags.writeable and not L.leq.flags.writeable
    a[0, 1] = False
    assert L.leq.tolist() == [[True, True], [False, True]]
    assert lat.dual(L).leq.tolist() == [[True, False], [True, True]]


def test_height_is_the_longest_path_along_the_covers():
    for L in builtins_up_to(60) + _random_poset_lattices():
        # relax every cover until no path grows
        h, grew = [0] * L.n, True
        while grew:
            grew = False
            for a, b in L.covers:
                if h[b] < h[a] + 1:
                    h[b], grew = h[a] + 1, True
        assert L.height() == h[L.top], L.name


def test_cycle_error():
    with pytest.raises(CycleError):
        lat.build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_order_axioms_checked():
    chain = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    assert lat.FiniteLattice("abc", chain).covers == ((0, 1), (1, 2))
    gap = chain.copy()
    gap[0, 2] = False
    for broken, error, text in ((chain & ~np.eye(3, dtype=bool), ValueError, "reflexive"),
                                (chain | chain.T, CycleError, "antisymmetric"),
                                (gap, ValueError, "transitive")):
        with pytest.raises(error, match=text):
            lat.FiniteLattice("abc", broken)


def test_transitive_edges_are_reduced():
    L = lat.build_lattice(["0", "m", "1"], [("0", "m"), ("m", "1"), ("0", "1")])
    assert L.covers == ((0, 1), (1, 2))


def test_unknown_builtin_and_guards():
    with pytest.raises(UnknownBuiltin):
        lat.builtin("heptagon")
    with pytest.raises(ParamTooLarge):
        lat.builtin("partition", 6)
    with pytest.raises(ParamTooLarge):
        lat.builtin("subspace", 3, 5)
    with pytest.raises(ParamTooLarge):
        lat.builtin("boolean", 20)


def test_size_guard_precedes_the_closure(monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"{n} x {n} closure allocated before the size guard")

    monkeypatch.setattr(lat, "_closure_from_edges", refuse)
    with pytest.raises(ParamTooLarge):
        lat.builtin_spec(f"chain:{lat.SIZE_GUARD + 1}")


def test_partition_3_shape():
    P3 = lat.builtin("partition", 3)
    assert P3.n == 5
    assert len(P3.atoms()) == 3
    assert P3.height() == 2


def test_subspace_2_2_is_m3_shaped():
    S = lat.builtin("subspace", 2, 2)
    assert S.n == 5
    assert len(S.atoms()) == 3


def test_chain_4():
    C = lat.builtin("chain", 4)
    assert C.n == 4 and len(C.covers) == 3


def test_product_counts():
    two = lat.builtin("chain", 2)
    sq = lat.product(two, two)
    assert sq.n == 4
    assert lat.is_distributive(sq)
    m3 = lat.builtin("M3")
    assert lat.product(m3, two).n == 10
    one = lat.builtin("chain", 1)
    again = lat.product(m3, one)
    assert again.n == m3.n
    assert np.array_equal(again.leq, m3.leq)
    big = lat.builtin("boolean", 7)
    with pytest.raises(ParamTooLarge):
        lat.product(big, big)


def test_dual_involution_and_n5_selfdual():
    from free_lattice_oracle import lattice_isomorphism

    N5 = lat.builtin("N5")
    D = lat.dual(N5)
    DD = lat.dual(D)
    assert np.array_equal(DD.leq, N5.leq)
    assert lattice_isomorphism(D, N5) is not None  # N5 is self-dual
    C = lat.builtin("chain", 5)
    assert lattice_isomorphism(lat.dual(C), C) is not None


def test_interval_sublattice():
    N5 = lat.builtin("N5")
    i = N5.index
    K, members = interval_sublattice(N5, i["c"], i["1"])
    assert K.n == 3 and len(K.covers) == 2  # the chain c < a < 1
    whole, _ = interval_sublattice(N5, N5.bottom, N5.top)
    assert whole.n == N5.n
    M3 = lat.builtin("M3")
    K2, _ = interval_sublattice(M3, M3.bottom, M3.index["a"])
    assert K2.n == 2


def test_properties_n5_partition4_boolean3():
    n5 = lat.properties_report(lat.builtin("N5"))
    assert not n5["modular"] and not n5["distributive"]
    p4 = lat.properties_report(lat.builtin("partition", 4))
    assert p4["geometric"] and not p4["modular"] and p4["simple"]
    b3 = lat.properties_report(lat.builtin("boolean", 3))
    assert b3["distributive"] and b3["complemented"] and b3["modular"]


def test_property_implications_on_catalog():
    for L in builtins_up_to(60):
        rep = lat.properties_report(L)
        if rep["distributive"]:
            assert rep["modular"], L.name
        assert rep["geometric"] == (rep["semimodular"] and rep["atomistic"]), L.name


@functools.cache
def _predicate_lattices():
    """The catalog up to 60 elements, the lattices among the random posets,
    40 eight-element lattices, M3 x C2, N5 x C3 and M3 x M3, and the duals
    of all of them."""
    M3, N5 = lat.builtin("M3"), lat.builtin("N5")
    out = (builtins_up_to(60) + _random_poset_lattices() + random_eight_element_lattices(40)
           + [lat.product(M3, lat.builtin("chain", 2)), lat.product(N5, lat.builtin("chain", 3)),
              lat.product(M3, M3)])
    return tuple(out + [lat.dual(L) for L in out])


def test_is_distributive_matches_identity_check():
    seen = {True: 0, False: 0}
    modular_only = 0
    for L in _predicate_lattices():
        want = is_distributive_by_identity(L)
        assert lat.is_distributive(L) is want, L.name
        seen[want] += 1
        # |J| == height decides only once modularity holds
        modular_only += is_modular_by_identity(L) and not want
    assert seen[True] >= 50 and seen[False] >= 50, seen
    assert modular_only >= 10, modular_only


def test_boolean_order_matches_loop_definition():
    for n in range(7):
        m = 2 ** n
        leq = np.zeros((m, m), dtype=bool)
        for s in range(m):
            for t in range(m):
                leq[s, t] = (s & t) == s
        assert np.array_equal(lat.builtin("boolean", n).leq, leq), n


def test_subspace_lattices_complemented_modular():
    # every supported parameter pair except the 2825-element (2, 6) case,
    # which the same code path covers at guard scale
    for q, n in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                 (3, 1), (3, 2), (3, 3), (3, 4)]:
        S = lat.builtin("subspace", q, n)
        assert lat.is_modular(S), (q, n)
        assert lat.is_complemented(S), (q, n)


def test_modularity_commutes_with_product_and_dual():
    pool = [lat.builtin("chain", 3), lat.builtin("M3"), lat.builtin("N5")]
    for A in pool:
        assert lat.is_modular(lat.dual(A)) == lat.is_modular(A), A.name
        for B in pool:
            assert lat.is_modular(lat.product(A, B)) == (
                lat.is_modular(A) and lat.is_modular(B)), (A.name, B.name)


def test_meet_join_axioms_small_catalog():
    for L in builtins_up_to(60):
        m, j = L.meet, L.join
        assert np.array_equal(m, m.T) and np.array_equal(j, j.T), L.name
        assert (m.diagonal() == np.arange(L.n)).all()
        assert (j.diagonal() == np.arange(L.n)).all()
        for x in range(L.n):
            assert (m[x, j[x]] == x).all()  # absorption
            assert (j[x, m[x]] == x).all()
        # associativity, exhaustively over all triples
        assert np.array_equal(m[m, :], m[:, m]), L.name
        assert np.array_equal(j[j, :], j[:, j]), L.name


def test_cover_reduction_idempotent():
    for L in builtins_up_to(60):
        rebuilt = lat.build_lattice(
            L.names, [(L.names[a], L.names[b]) for a, b in L.covers], name=L.name)
        assert rebuilt.covers == L.covers, L.name
        assert np.array_equal(rebuilt.leq, L.leq), L.name


def test_json_round_trip(tmp_path):
    L = lat.builtin("N5")
    path = tmp_path / "n5.json"
    lat.save(L, path)
    back = lat.load(path)
    assert back.names == L.names
    assert back.covers == L.covers


def test_json_rejects_duplicates():
    with pytest.raises(ValueError):
        lat.from_json('{"name": "L", "elements": ["a", "a"], "covers": []}')
    with pytest.raises(ValueError):
        lat.from_json('{"name": "L", "elements": ["a", "b"],'
                      ' "covers": [["a", "b"], ["a", "b"]]}')


def test_coproduct_builtins_match_free_lattice_oracle():
    """The hard-coded coproduct diagrams are the lattices freely generated by
    a 2- resp. 3-chain together with one extra element."""
    from free_lattice_oracle import free_lattice_leq, lattice_isomorphism

    cases = [
        ("coprod_c2_c1", ["x0", "x1", "y"], [("x0", "x1")], 9),
        ("coprod_c3_c1", ["x0", "x1", "x2", "y"],
         [("x0", "x1"), ("x1", "x2"), ("x0", "x2")], 20),
    ]
    for key, gens, order, size in cases:
        elems, leq = free_lattice_leq(gens, order)
        assert len(elems) == size
        F = lat.FiniteLattice([f"e{i}" for i in range(len(elems))], leq, name="free")
        L = lat.builtin(key)
        assert L.n == size
        assert lattice_isomorphism(L, F) is not None, key


def _order_oracle(n, edges):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    return leq


def _table_oracle(n, leq):
    """Meet and join tables by definition (the greatest common lower bound,
    the least common upper bound), or the first pair with none: pairs i <= j
    in index order, meet before join, as the NotALattice witness scan."""
    tables = {"meet": np.zeros((n, n), dtype=np.int32),
              "join": np.zeros((n, n), dtype=np.int32)}
    for i in range(n):
        for j in range(i, n):
            for kind in ("meet", "join"):
                if kind == "meet":
                    bounds = [k for k in range(n) if leq[k][i] and leq[k][j]]
                    best = [k for k in bounds if all(leq[m][k] for m in bounds)]
                else:
                    bounds = [k for k in range(n) if leq[i][k] and leq[j][k]]
                    best = [k for k in bounds if all(leq[k][m] for m in bounds)]
                if not best:
                    return None, (kind, i, j)
                tables[kind][i, j] = tables[kind][j, i] = best[0]
    return tables, None


def test_tables_match_definition_on_random_posets():
    seen = {"lattice": 0, "not": 0}
    for names, edges in random_posets():
        n = len(names)
        leq = _order_oracle(n, edges)
        tables, failure = _table_oracle(n, leq)
        covers = [(names[a], names[b]) for a, b in edges]
        if tables is None:
            seen["not"] += 1
            kind, i, j = failure
            for build in (lambda: lat.build_lattice(names, covers),
                          lambda: lat.FiniteLattice(names, leq)):
                with pytest.raises(NotALattice) as err:
                    build()
                assert (err.value.kind, err.value.pair) == (kind, (names[i], names[j]))
            continue
        seen["lattice"] += 1
        for L in (lat.build_lattice(names, covers), lat.FiniteLattice(names, leq)):
            assert np.array_equal(L.leq, np.array(leq))
            assert np.array_equal(L.meet, tables["meet"])
            assert np.array_equal(L.join, tables["join"])
            assert all(leq[L.bottom]) and all(row[L.top] for row in leq)
            for a in range(n):
                assert L.covers_of(a) == [b for x, b in L.covers if x == a]
                assert L.cocovers_of(a) == [x for x, b in L.covers if b == a]
    assert seen["lattice"] >= 100 and seen["not"] >= 100, seen


def _perturbed_orders(count=40, seed=20261019):
    """Seeded perturbations of four catalog lattices: random elements other
    than the bounds deleted, then the labels shuffled."""
    rng = random.Random(seed)
    out = []
    for spec in ("boolean:6", "subspace:2,4", "partition:5", "coprod_c3_c1"):
        L = lat.builtin_spec(spec)
        inner = [x for x in range(L.n) if x not in (L.bottom, L.top)]
        for _ in range(count):
            gone = set(rng.sample(inner, rng.randint(1, len(inner) // 4)))
            keep = [x for x in range(L.n) if x not in gone]
            rng.shuffle(keep)
            out.append(L.leq[np.ix_(keep, keep)])
    return out


def test_join_table_matches_row_recursion():
    """The rank-space table with one monotonicity pass against the row-by-row
    recursion, on each order and its dual."""
    seen = {"lattice": 0, "not": 0}
    orders = [np.array(_order_oracle(len(names), edges)) for names, edges in random_posets()]
    for leq in orders + _perturbed_orders():
        order = np.argsort(leq.sum(axis=0), kind="stable").tolist()
        up, down = [[] for _ in order], [[] for _ in order]
        for a, b in lat._covers_of_leq(leq, order):
            up[a].append(b)
            down[b].append(a)
        for args in ((leq, up, order), (leq.T, down, order[::-1])):
            bound = lat._least_bounds(*args)
            got = bound if lat._is_join(*args[:2], bound) else None
            want = join_table_by_rows(*args)
            if want is None:
                assert got is None
                seen["not"] += 1
            else:
                assert np.array_equal(got, want)
                seen["lattice"] += 1
    assert seen["lattice"] >= 100 and seen["not"] >= 100, seen


def _tampered_quotient_relations():
    """The relations `quotient_lattice` builds on N5 from the partitions
    that test_functor_check_failures passes as congruences; two of them are
    not orders."""
    L = lat.builtin("N5")
    out = []
    for tamper in ("0c|a|b|1", "0b1|ac", "0ab1|c"):
        blocks = tamper.split("|")
        theta = np.array([L.index[next(b for b in blocks if x in b)[0]] for x in L.names])
        out.append(quotient_lattice(L, theta)[0].leq)
    return out


def test_bitset_closure_and_covers_match_row_oracles():
    """The int-bitset closure and cover scan give exactly the bool-row
    closure and the argmax scan, on each relation and its reverse: the
    closure from its strict pairs (CycleError on a cycle) and from the
    edges of each random poset, the covers under the constructor's order."""
    relations = [np.array(_order_oracle(len(names), edges)) for names, edges in random_posets()]
    relations += _perturbed_orders() + [L.leq for L in lattices_and_duals()]
    relations += _tampered_quotient_relations()
    inputs = [(len(names), edges) for names, edges in random_posets()]
    for rel in relations:
        inputs += [(len(r), np.argwhere(r & ~np.eye(len(r), dtype=bool)).tolist())
                   for r in (rel, rel.T)]
    cycles = 0
    for n, edges in inputs:
        try:
            want = closure_by_rows(n, edges)
        except CycleError:
            cycles += 1
            with pytest.raises(CycleError):
                lat._closure_from_edges(n, edges)
            continue
        got = lat._closure_from_edges(n, edges)
        assert got.dtype == bool and np.array_equal(got, want)
    assert cycles == 4
    for rel in relations:
        for r in (rel, rel.T):
            order = np.argsort(r.sum(axis=0), kind="stable").tolist()
            assert lat._covers_of_leq(r, order) == covers_by_argmax(r, order)


def _first_missing_bound(leq):
    """The first pair i <= j in index order, meet before join, with no
    greatest common lower bound or no least common upper bound, as (kind,
    i, j), or None: a common upper bound k of i and j is the least iff its
    up-set, which lies in their common up-set, is as large."""
    missing = {}
    for kind, up in (("meet", leq.T), ("join", leq)):
        common = up[:, None, :] & up[None, :, :]
        least = common & (up.sum(axis=1) == common.sum(axis=2)[:, :, None])
        missing[kind] = np.triu(~least.any(axis=2))
    bad = missing["meet"] | missing["join"]
    if not bad.any():
        return None
    i, j = divmod(int(bad.argmax()), len(leq))
    return ("meet" if missing["meet"][i, j] else "join"), i, j


def test_join_pass_and_one_minimal_element_decide_lattices():
    """A finite join-semilattice with a least element is a lattice, and
    dually, so the join pass and then "at most one minimal element" is the
    verdict of the join and meet passes together on every order and its
    dual, and so is the constructor's verdict, the meet pass and then "at
    most one maximal element"; its NotALattice names the pair the
    definition finds first."""
    orders = [np.array(_order_oracle(len(names), edges)) for names, edges in random_posets()]
    seen = {"lattice": 0, "join pass": 0, "minimal count": 0}
    for leq in orders + _perturbed_orders():
        for leq in (leq, leq.T):
            order = np.argsort(leq.sum(axis=0), kind="stable").tolist()
            up, down = [[] for _ in order], [[] for _ in order]
            for a, b in lat._covers_of_leq(leq, order):
                up[a].append(b)
                down[b].append(a)
            joins = lat._is_join(leq, up, lat._least_bounds(leq, up, order))
            meets = lat._is_join(leq.T, down, lat._least_bounds(leq.T, down, order[::-1]))
            assert (joins and down.count([]) <= 1) == (joins and meets)
            assert (meets and up.count([]) <= 1) == (joins and meets)
            names = [f"x{i}" for i in range(len(leq))]
            witness = _first_missing_bound(leq)
            if witness is None:
                assert joins and meets
                lat.FiniteLattice(names, leq, _validate=False)
                seen["lattice"] += 1
                continue
            seen["minimal count" if joins else "join pass"] += 1
            with pytest.raises(NotALattice) as err:
                lat.FiniteLattice(names, leq, _validate=False)
            kind, i, j = witness
            assert (err.value.kind, err.value.pair) == (kind, (names[i], names[j]))
    assert seen == {"lattice": 750, "join pass": 719, "minimal count": 51}


@pytest.mark.parametrize("spec", ["boolean:8", "subspace:2,4"])
def test_tables_follow_a_relabelling(spec):
    """Shuffled names and covers put the rank order far from the index
    order; the tables are the builtin's under the relabelling."""
    L = lat.builtin_spec(spec)
    rng = random.Random(spec)
    names = list(L.names)
    covers = [(L.names[a], L.names[b]) for a, b in L.covers]
    rng.shuffle(names)
    rng.shuffle(covers)
    S = lat.build_lattice(names, covers)
    pos = np.array([S.index[x] for x in L.names])
    assert not np.array_equal(pos, np.arange(L.n))
    for ours, theirs in ((S.meet, L.meet), (S.join, L.join)):
        assert np.array_equal(ours[np.ix_(pos, pos)], pos[theirs])


def test_join_table_waits_for_its_first_reader(tmp_path):
    path = tmp_path / "n5.json"
    lat.save(lat.builtin("N5"), path)
    L = lat.load(path)
    assert "join" not in vars(L)
    assert np.array_equal(L.join, lat.builtin("N5").join)
    assert "join" in vars(L) and not L.join.flags.writeable


def test_large_chain_and_boolean_build():
    C = lat.builtin("chain", 1000)
    ids = np.arange(1000)
    assert (C.bottom, C.top, len(C.covers)) == (0, 999, 999)
    assert np.array_equal(C.join, np.maximum.outer(ids, ids))
    assert np.array_equal(C.meet, np.minimum.outer(ids, ids))
    B = lat.builtin("boolean", 10)
    ids = np.arange(1024)
    assert (B.bottom, B.top, len(B.covers)) == (0, 1023, 10 * 2 ** 9)
    assert np.array_equal(B.join, np.bitwise_or.outer(ids, ids))
    assert np.array_equal(B.meet, np.bitwise_and.outer(ids, ids))
    assert B.covers_of(0) == [2 ** i for i in range(10)]
    assert B.cocovers_of(1023) == [1023 - 2 ** i for i in reversed(range(10))]


def _random_poset_lattices():
    out = []
    for names, edges in random_posets():
        try:
            out.append(lat.build_lattice(names, [(names[a], names[b]) for a, b in edges]))
        except NotALattice:
            continue
    return out


def test_maximal_chain_matches_cover_loop_oracle():
    lattices = (builtins_up_to(60) + random_eight_element_lattices(20)
                + _random_poset_lattices()
                + [lat.builtin_spec("boolean:7"), lat.builtin_spec("chain:150")])
    assert len(lattices) >= 150
    for L in lattices:
        # the column of each b is built at its first pair and read by the rest
        for a, b in np.argwhere(L.leq).tolist():
            assert L.maximal_chain(a, b) == maximal_chain_by_covers(L, a, b), (L.name, a, b)


def test_maximal_chain_rejects_unordered_endpoints():
    N5 = lat.builtin("N5")
    i = N5.index
    for a, b in (("1", "0"), ("a", "b"), ("b", "c")):
        with pytest.raises(ValueError, match="a <= b"):
            N5.maximal_chain(i[a], i[b])
    assert N5.maximal_chain(i["b"], i["b"]) == [i["b"]]
    assert lat.builtin("chain", 1).maximal_chain(0, 0) == [0]


@pytest.mark.parametrize("predicate, oracle", [
    (lat.is_modular, is_modular_by_identity),
    (lat.is_semimodular, is_semimodular_by_pairs),
    (lat.is_sectionally_complemented, is_sectionally_complemented_by_tables),
    (lat.is_relatively_complemented, is_relatively_complemented_by_tables),
    (lat.is_atomistic, is_atomistic_by_atom_joins),
], ids=lambda f: f.__name__)
def test_cover_predicates_match_table_oracles(predicate, oracle):
    seen = {True: 0, False: 0}
    for L in _predicate_lattices():
        want = oracle(L)
        assert predicate(L) is want, L.name
        seen[want] += 1
    assert seen[True] >= 30 and seen[False] >= 30, seen


@pytest.mark.parametrize("block_cells", [lat._BLOCK_CELLS, 16])
def test_covering_squares_from_the_order_match_the_join_lookup(monkeypatch, block_cells):
    """The squares read off the order are the ones the join table gives,
    on L's covers, the pass of `L._squares`, and on the dual's, the second
    pass of `is_modular`, where the meet table gives them; 16-cell blocks
    split every search into many."""
    monkeypatch.setattr(lat, "_BLOCK_CELLS", block_cells)
    extra = tuple(lat.builtin_spec(s) for s in ("boolean:8", "partition:5", "subspace:2,4"))
    seen = {True: 0, False: 0}
    for L in lattices_and_duals() + extra:
        by_hi = np.lexsort((L.cover_lo, L.cover_hi))
        for lo, hi, leq, table in ((L.cover_lo, L.cover_hi, L.leq, L.join),
                                   (L.cover_hi[by_hi], L.cover_lo[by_hi], L.leq.T, L.meet)):
            got, want = lat._covering_squares(lo, hi, leq), covering_squares_by_join(lo, hi, table)
            assert all(map(np.array_equal, got, want)), L.name
            seen[bool((got[1] < len(lo)).all())] += 1
    assert seen[True] >= 30 and seen[False] >= 30, seen


def test_properties_report_on_large_lattices():
    """Pinned reports of lattices the table oracles are too slow for."""
    fields = ("modular", "distributive", "complemented", "sectionally_complemented",
              "relatively_complemented", "atomistic", "semimodular", "geometric", "simple")
    pins = {
        "boolean:9": (True, True, True, True, True, True, True, True, False, 9),
        "chain:500": (True, True, False, False, False, False, True, False, False, 499),
        "subspace:2,4": (True, False, True, True, True, True, True, True, True, 4),
    }
    for spec, values in pins.items():
        want = dict(zip(fields + ("height",), values))
        assert lat.properties_report(lat.builtin_spec(spec)) == want, spec
