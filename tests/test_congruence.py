import pytest

from dimw import lattice as lat
from dimw.congruence import (Congruence, all_congruences, congruence_from_pairs,
                             principal_congruence, quotient_lattice,
                             rectangular_extension)
from dimw.lattice import _set_partitions

from conftest import builtins_up_to


def brute_force_congruences(L):
    out = []
    for p in _set_partitions(tuple(range(L.n))):
        block_of = [0] * L.n
        for b in p:
            for x in b:
                block_of[x] = min(b)
        c = Congruence(L, tuple(block_of))
        if c.is_compatible():
            out.append(c)
    return out


def blocks_by_names(L, theta):
    return sorted(tuple(sorted(L.names[i] for i in b)) for b in theta.blocks())


def test_principal_congruence_n5():
    N5 = lat.builtin("N5")
    i = N5.index
    t = principal_congruence(N5, i["c"], i["a"])
    assert blocks_by_names(N5, t) == [("0",), ("1",), ("a", "c"), ("b",)]
    t2 = principal_congruence(N5, i["0"], i["b"])
    assert blocks_by_names(N5, t2) == [("0", "b"), ("1", "a", "c")]


def test_principal_congruence_reflexive_case():
    for L in (lat.builtin("M3"), lat.builtin("chain", 4)):
        for x in range(L.n):
            assert principal_congruence(L, x, x).block_count() == L.n


def test_theta_of_meet_join_pair():
    for L in (lat.builtin("N5"), lat.builtin("boolean", 3), lat.builtin("M3")):
        for a in range(L.n):
            for b in range(L.n):
                assert principal_congruence(L, a, b) == principal_congruence(
                    L, L.mt(a, b), L.jn(a, b))


def test_all_congruences_sizes():
    assert len(all_congruences(lat.builtin("N5"))) == 5
    assert len(all_congruences(lat.builtin("M3"))) == 2
    con3 = all_congruences(lat.builtin("chain", 3))
    assert len(con3) == 4
    K = con3.as_lattice()
    assert K.n == 4 and len(K.atoms()) == 2  # Boolean square


def test_all_congruences_match_brute_force():
    for L in builtins_up_to(8):
        generated = set(all_congruences(L).congruences)
        brute = set(brute_force_congruences(L))
        assert generated == brute, L.name


def test_congruence_lattice_distributive():
    for L in builtins_up_to(32):
        K = all_congruences(L).as_lattice()
        assert lat.is_distributive(K), L.name


def test_congruence_invariants():
    for L in builtins_up_to(20):
        for theta in all_congruences(L).congruences:
            assert theta.is_compatible(), L.name
            for block in theta.blocks():  # convexity
                for x in block:
                    for y in block:
                        for z in L.interval(x, y) if L.le(x, y) else []:
                            assert theta.same(x, z)


def test_quotient_identity_and_coarse():
    L = lat.builtin("N5")
    Q, proj = quotient_lattice(L, Congruence.identity(L))
    assert Q.n == L.n
    Q1, _ = quotient_lattice(L, Congruence.coarse(L))
    assert Q1.n == 1


def test_quotient_kernel_is_theta():
    for L in builtins_up_to(16):
        for theta in all_congruences(L).congruences:
            Q, proj = quotient_lattice(L, theta)
            for x in range(L.n):
                for y in range(L.n):
                    assert (proj[x] == proj[y]) == theta.same(x, y)


def test_quotient_n5_by_theta_c_a():
    N5 = lat.builtin("N5")
    i = N5.index
    Q, _ = quotient_lattice(N5, principal_congruence(N5, i["c"], i["a"]))
    assert Q.n == 4
    assert lat.is_distributive(Q) and len(Q.atoms()) == 2  # Boolean square


def test_congruence_from_prime_pairs():
    N5 = lat.builtin("N5")
    i = N5.index
    assert congruence_from_pairs(N5, []).block_count() == N5.n
    t = congruence_from_pairs(N5, [(i["0"], i["c"]), (i["0"], i["b"])])
    assert t.block_count() == 1
    M3 = lat.builtin("M3")
    t2 = congruence_from_pairs(M3, list(M3.covers))
    assert t2.block_count() == 1


def test_rectangular_extension_simple():
    M3 = lat.builtin("M3")
    R, embed, thetas = rectangular_extension(M3)
    assert R.n == M3.n and len(thetas) == 1
    assert sorted(embed) == list(range(M3.n))


def test_rectangular_extension_chain3():
    C3 = lat.builtin("chain", 3)
    R, embed, thetas = rectangular_extension(C3)
    assert R.n == 4 and len(thetas) == 2
    assert lat.is_distributive(R)
    assert len(set(embed)) == 3


def test_rectangular_extension_n5_injective():
    N5 = lat.builtin("N5")
    R, embed, _ = rectangular_extension(N5)
    assert len(set(embed)) == N5.n
    # the embedding preserves and reflects order
    for x in range(N5.n):
        for y in range(N5.n):
            assert N5.le(x, y) == R.le(embed[x], embed[y])


def test_congruence_serialization():
    N5 = lat.builtin("N5")
    i = N5.index
    t = principal_congruence(N5, i["0"], i["b"])
    assert t.to_json() == '{"congruence": [["0", "b"], ["a", "c", "1"]]}'
    assert Congruence.from_json(N5, t.to_json()) == t
    with pytest.raises(ValueError):
        Congruence.from_json(N5, '{"congruence": [["0", "a"], ["b"], ["c"], ["1"]]}')
    with pytest.raises(ValueError):
        Congruence.from_json(N5, '{"congruence": [["0"], ["b"]]}')


def test_congruence_sidecar_in_lattice_file(tmp_path):
    import json

    N5 = lat.builtin("N5")
    i = N5.index
    theta = principal_congruence(N5, i["c"], i["a"])
    doc = json.loads(lat.to_json(N5))
    doc.update(json.loads(theta.to_json()))
    path = tmp_path / "n5_with_theta.json"
    path.write_text(json.dumps(doc, sort_keys=True))

    loaded_doc = json.loads(path.read_text())
    L = lat.from_json(path.read_text())
    back = Congruence.from_json(L, loaded_doc)
    assert blocks_by_names(L, back) == blocks_by_names(N5, theta)
