import json
import random

import numpy as np
import pytest

from dimw import congruence as cg
from dimw import lattice as lat
from dimw.cli import CATALOG_INSTANCES, run
from dimw.congruence import DClasses, count_down_sets, quotient_lattice
from dimw.errors import ParamTooLarge
from dimw.lattice import (_is_name, _json_constant, _set_partitions, _strong_components,
                          _transitive_closure)

from conftest import builtins_up_to, lattices_and_duals, random_lattices
from oracles import (all_congruences, closure_congruences, closure_from_pairs,
                     closure_principal, d_relation_by_witnesses, down_sets, is_compatible_by_pairs,
                     is_simple_by_primes)
from theory import atoms, block_names, congruence_from_pairs, interval, lattice_to_json, le


def every_partition(L):
    """Every partition of the elements of L as a block_of tuple, each block
    named by its least member."""
    for p in _set_partitions(tuple(range(L.n))):
        block_of = [0] * L.n
        for b in p:
            for x in b:
                block_of[x] = min(b)
        yield tuple(block_of)


def brute_force_congruences(L):
    return [c for c in every_partition(L) if is_compatible(L, c)]


def blocks_of(theta):
    """The blocks of a block_of row as index tuples, by least member."""
    blocks = {}
    for x, b in enumerate(np.asarray(theta).tolist()):
        blocks.setdefault(b, []).append(x)
    return list(map(tuple, blocks.values()))


def blocks_by_names(L, theta):
    return sorted(tuple(sorted(L.names[i] for i in b)) for b in blocks_of(theta))


def block_count(theta):
    return len(set(np.asarray(theta).tolist()))


# -- the JSON sidecar of a congruence, beside the lattice file ----------------


def is_compatible(L, block_of):
    """Is the partition of a block_of row, each block named by a member of
    it, a congruence?  x ^ z and x v z share a block with r ^ z and r v z for
    all x, z, r the member naming x's block; so do any two members of a block."""
    b = np.asarray(block_of, dtype=np.intp)
    return all((b[t] == b[t[b]]).all() for t in (L.meet, L.join))


def to_json(L, block_of):
    """The sidecar document of a congruence: {"congruence": [[names...], ...]}."""
    return json.dumps({"congruence": block_names(L, block_of)}, sort_keys=True)


def from_json(L, text):
    """Parse the sidecar format, a JSON text or its parsed document, into the
    block_of row of a congruence of L, each block named by its least member."""
    doc = json.loads(text, parse_constant=_json_constant) if isinstance(text, str) else text
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


def test_principal_congruence_n5():
    N5 = lat.builtin("N5")
    i = N5.index
    t = congruence_from_pairs(N5, [(i["c"], i["a"])])
    assert blocks_by_names(N5, t) == [("0",), ("1",), ("a", "c"), ("b",)]
    t2 = congruence_from_pairs(N5, [(i["0"], i["b"])])
    assert blocks_by_names(N5, t2) == [("0", "b"), ("1", "a", "c")]


def test_principal_congruence_reflexive_case():
    for L in (lat.builtin("M3"), lat.builtin("chain", 4)):
        for x in range(L.n):
            assert block_count(congruence_from_pairs(L, [(x, x)])) == L.n


def test_theta_of_meet_join_pair():
    for L in (lat.builtin("N5"), lat.builtin("boolean", 3), lat.builtin("M3")):
        for a in range(L.n):
            for b in range(L.n):
                assert np.array_equal(congruence_from_pairs(L, [(a, b)]), congruence_from_pairs(
                    L, [(L.mt(a, b), L.jn(a, b))]))


def test_all_congruences_sizes():
    assert len(all_congruences(lat.builtin("N5"))) == 5
    assert len(all_congruences(lat.builtin("M3"))) == 2
    con3 = all_congruences(lat.builtin("chain", 3))
    assert len(con3) == 4
    K = con3.lattice
    assert K.n == 4 and len(atoms(K)) == 2  # Boolean square


def test_all_congruences_match_brute_force():
    for L in builtins_up_to(8):
        generated = set(map(tuple, all_congruences(L).blocks.tolist()))
        brute = set(brute_force_congruences(L))
        assert generated == brute, L.name


def test_congruence_lattice_distributive():
    for L in builtins_up_to(32):
        assert lat.is_distributive(all_congruences(L).lattice), L.name


def test_congruence_invariants():
    for L in builtins_up_to(20):
        for theta in all_congruences(L).blocks.tolist():
            assert is_compatible(L, theta), L.name
            for block in blocks_of(theta):  # convexity
                for x in block:
                    for y in block:
                        for z in interval(L, x, y) if le(L, x, y) else []:
                            assert theta[x] == theta[z]


def test_quotient_identity_and_coarse():
    L = lat.builtin("N5")
    Q, proj = quotient_lattice(L, np.arange(L.n))
    assert Q.n == L.n
    Q1, _ = quotient_lattice(L, np.zeros(L.n, dtype=int))
    assert Q1.n == 1


def test_quotient_kernel_is_theta():
    for L in builtins_up_to(16):
        for theta in all_congruences(L).blocks:
            _, proj = quotient_lattice(L, theta)
            # x and y share a block of Q exactly when they share one of theta
            assert np.array_equal(proj[:, None] == proj, theta[:, None] == theta), L.name


def test_quotient_n5_by_theta_c_a():
    N5 = lat.builtin("N5")
    i = N5.index
    Q, _ = quotient_lattice(N5, congruence_from_pairs(N5, [(i["c"], i["a"])]))
    assert Q.n == 4
    assert lat.is_distributive(Q) and len(atoms(Q)) == 2  # Boolean square


def test_congruence_from_prime_pairs():
    N5 = lat.builtin("N5")
    i = N5.index
    assert block_count(congruence_from_pairs(N5, [])) == N5.n
    t = congruence_from_pairs(N5, [(i["0"], i["c"]), (i["0"], i["b"])])
    assert block_count(t) == 1
    M3 = lat.builtin("M3")
    t2 = congruence_from_pairs(M3, list(M3.covers))
    assert block_count(t2) == 1


def test_congruence_serialization():
    N5 = lat.builtin("N5")
    i = N5.index
    t = congruence_from_pairs(N5, [(i["0"], i["b"])])
    assert to_json(N5, t) == '{"congruence": [["0", "b"], ["a", "c", "1"]]}'
    assert np.array_equal(from_json(N5, to_json(N5, t)), t)
    with pytest.raises(ValueError):
        from_json(N5, '{"congruence": [["0", "a"], ["b"], ["c"], ["1"]]}')
    with pytest.raises(ValueError):
        from_json(N5, '{"congruence": [["0"], ["b"]]}')
    # scalar names match as build_lattice stores them, by their str()
    C3 = lat.from_json('{"elements": [0, 1, 2], "covers": [[0, 1], [1, 2]]}')
    assert from_json(C3, '{"congruence": [[0, 1], [2]]}').tolist() == [0, 0, 2]
    # a block is named by its least member, whatever order the names come in
    assert from_json(C3, '{"congruence": [[2], [1, 0]]}').tolist() == [0, 0, 2]


@pytest.mark.parametrize("doc, message", [
    ('["0", "a"]', "must hold a JSON object"),
    ('{"blocks": [["0", "a", "b", "c", "1"]]}', "has no 'congruence' key"),
    ('{"congruence": "0"}', "must be a list of lists of names"),
    ('{"congruence": ["0", "a"]}', "must be a list of lists of names"),
    ('{"congruence": [["0", ["a"]]]}', "must be a list of lists of names"),
    ('{"congruence": [["0"], ["z"], ["a", "b", "c", "1"]]}', "unknown element 'z'"),
    ('{"congruence": [["0"], [], ["a", "b", "c", "1"]]}', "empty block"),
    ('{"congruence": [["0", "a", "b", "c", "1", Infinity]]}', "Infinity is not a JSON value"),
])
def test_congruence_sidecar_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError, match=message) as err:
        from_json(lat.builtin("N5"), doc)
    assert "\n" not in str(err.value)


def test_is_compatible_matches_pair_loop():
    for L, count in ((lat.builtin("N5"), 5), (lat.builtin("M3"), 2)):
        verdicts = [is_compatible(L, theta) for theta in every_partition(L)]
        assert verdicts == [is_compatible_by_pairs(L, t) for t in every_partition(L)], L.name
        assert sum(verdicts) == count, L.name


def test_congruence_sidecar_in_lattice_file(tmp_path):
    import json

    N5 = lat.builtin("N5")
    i = N5.index
    theta = congruence_from_pairs(N5, [(i["c"], i["a"])])
    doc = json.loads(lattice_to_json(N5))
    doc.update(json.loads(to_json(N5, theta)))
    path = tmp_path / "n5_with_theta.json"
    path.write_text(json.dumps(doc, sort_keys=True))

    loaded_doc = json.loads(path.read_text())
    L = lat.from_json(path.read_text())
    back = from_json(L, loaded_doc)
    assert blocks_by_names(L, back) == blocks_by_names(N5, theta)


def test_all_congruences_match_closure_oracle():
    specs = CATALOG_INSTANCES + ("boolean:6", "subspace:2,4")
    for L in [lat.builtin_spec(s) for s in specs] + random_lattices():
        con = all_congruences(L)
        ordered, leq = closure_congruences(L)
        assert con.blocks.tolist() == [list(c) for c in ordered], L.name
        assert np.array_equal(con.leq, leq), L.name


def test_con_numbers_match_the_listing():
    """What `con` prints, read off the D-class order, against the listing:
    the down-set count is |Con L|, the principal down-sets and their
    complements are its join- and meet-irreducibles, and its height is the
    number of classes."""
    for L in lattices_and_duals():
        con = all_congruences(L)
        classes = con.classes
        assert count_down_sets(classes.below) == len(con), L.name
        assert sorted(con.index_of(classes.below.T)) == con.join_irreducibles(), L.name
        assert sorted(con.index_of(~classes.below)) == con.meet_irreducibles(), L.name
        assert len(classes) == con.lattice.height(), L.name


def test_count_down_sets_matches_the_listing_on_every_small_order():
    for k in range(5):
        pairs = [(c, d) for c in range(k) for d in range(k) if c != d]
        for bits in range(1 << len(pairs)):
            below = np.eye(k, dtype=bool)
            for i, (c, d) in enumerate(pairs):
                below[c, d] = bool(bits >> i & 1)
            if (below & below.T).sum() > k or (below @ below & ~below).any():
                continue
            assert count_down_sets(below) == len(down_sets(below)), below.tolist()


def test_count_down_sets_keeps_its_step_budget(monkeypatch):
    """The count takes fewer than 2N calls for N down-sets, so a budget of
    2 * CON_COUNT_GUARD calls refuses no order with at most CON_COUNT_GUARD
    down-sets; past the budget it stops."""
    for L in lattices_and_duals():
        below = DClasses(L).below
        n = count_down_sets(below)
        monkeypatch.setattr(cg, "CON_COUNT_GUARD", n)
        assert count_down_sets(below) == n, L.name
        monkeypatch.undo()
    def vees(k):
        """k disjoint V's: 5^k down-sets, counted in 2^(k + 1) - 1 calls."""
        below = np.eye(3 * k, dtype=bool)
        below[np.arange(0, 3 * k, 3), np.arange(1, 3 * k, 3)] = True
        below[np.arange(0, 3 * k, 3), np.arange(2, 3 * k, 3)] = True
        return below

    with pytest.raises(ParamTooLarge, match="^congruence lattice too large: counting the "
                       "down-sets of 54 D-classes takes over 200000 steps$"):
        count_down_sets(vees(18))
    monkeypatch.setattr(cg, "CON_COUNT_GUARD", 2 ** 12)
    assert count_down_sets(vees(12)) == 5 ** 12
    monkeypatch.setattr(cg, "CON_COUNT_GUARD", 2 ** 12 - 1)
    with pytest.raises(ParamTooLarge, match="^congruence lattice too large: counting the "
                       "down-sets of 36 D-classes takes over 8190 steps$"):
        count_down_sets(vees(12))
    # an antichain is counted in one call
    monkeypatch.setattr(cg, "CON_COUNT_GUARD", 1)
    assert count_down_sets(np.eye(400, dtype=bool)) == 2 ** 400
    monkeypatch.setattr(cg, "CON_COUNT_GUARD", 0)
    with pytest.raises(ParamTooLarge, match="^congruence lattice too large: counting the "
                       "down-sets of 400 D-classes takes over 0 steps$"):
        count_down_sets(np.eye(400, dtype=bool))


def test_principal_congruence_matches_closure_oracle():
    for L in builtins_up_to(20) + random_lattices():
        con = all_congruences(L)
        pairs = [(a, b) for a in range(L.n) for b in range(L.n)]
        # one stacked pass over all pairs gives the rows of one pass per pair
        stacked = con.classes.collapsed_by(pairs)
        assert np.array_equal(
            stacked, np.vstack([con.classes.collapsed_by([ab]) for ab in pairs])), L.name
        rows = con.blocks[con.index_of(stacked)].tolist()
        for (a, b), row in zip(pairs, rows):
            want = closure_principal(L, a, b)
            assert tuple(congruence_from_pairs(L, [(a, b)]).tolist()) == want, (L.name, a, b)
            assert tuple(row) == want, (L.name, a, b)


def test_congruence_from_pairs_matches_closure_oracle():
    rng = random.Random(7)
    for L in builtins_up_to(60) + random_lattices():
        for _ in range(6):
            pairs = [(rng.randrange(L.n), rng.randrange(L.n))
                     for _ in range(rng.randint(0, 4))]
            assert tuple(congruence_from_pairs(L, pairs).tolist()) == closure_from_pairs(
                L, pairs), (L.name, pairs)


def test_is_simple_matches_prime_interval_loop():
    for L in builtins_up_to(60) + random_lattices():
        assert lat.is_simple(L) == is_simple_by_primes(L), L.name
    # the search stops after one row of D: a chain's classes are singletons
    assert not lat.is_simple(lat.builtin("chain", 1000))


def test_pass_guard_precedes_the_d_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("the arrow tables were reached")

    monkeypatch.setattr(cg, "_arrows", refuse)
    # 1025 join- and 1025 meet-irreducibles: 1025^2 * 2050 steps, the first
    # chain past 2^31; chain:1025 takes exactly 2^31 and passes the guard
    with pytest.raises(ParamTooLarge, match="^D-relation stage of 2153781250 "
                                            "steps exceeds guard 2147483648$"):
        DClasses(lat.builtin("chain", 1026))
    with pytest.raises(AssertionError, match="arrow tables were reached"):
        DClasses(lat.builtin("chain", 1025))


def test_arrow_d_relation_matches_the_witness_pass():
    extra = [lat.builtin_spec(s)
             for s in ("chain:50", "subspace:2,4", "partition:5", "coprod_c3_c1")]
    for L in lattices_and_duals() + tuple(extra + [lat.dual(L) for L in extra]):
        d = d_relation_by_witnesses(L)
        J, up, down = cg._arrows(L)
        assert np.array_equal(up.astype(int) @ down.T.astype(int) > 0, d), L.name
        reach = _transitive_closure(d)
        reps, cls = _strong_components(reach)
        D = DClasses(L)
        assert np.array_equal(D.cls, cls), L.name
        assert np.array_equal(D.below, reach[np.ix_(reps, reps)]), L.name


def test_con_and_check_on_coprod_c3_c1(capsys):
    for argv, out in (
            (["con"], "Con(coprod_c3_c1): 272 congruences (11 meet-irreducible, "
                      "11 join-irreducible); simple: False; congruence lattice height 11\n"),
            (["check"], "axioms: pass\ncongruence_correspondence: pass\ndual_functor: pass\n"),
            (["check", "--all"], "axioms: pass\ncongruence_correspondence: pass\n"
                                 "dimension_extension: pass\ndual_functor: pass\nv_modular: no\n")):
        assert run(argv + ["--builtin", "coprod_c3_c1"]) == 0
        assert capsys.readouterr().out == out
