import functools
import itertools
import random

import pytest
from hypothesis import strategies as st

from dimw import lattice as lat
from dimw.cli import CATALOG_INSTANCES
from dimw.monoid import INF, DimVector, QOSystem

from theory import violates_canonical_form


def builtins_up_to(max_elements):
    """The catalog instances the cross-validation suites run over."""
    out = []
    for spec in CATALOG_INSTANCES:
        L = lat.builtin_spec(spec)
        if L.n <= max_elements:
            out.append(L)
    return out


@pytest.fixture(scope="session")
def small_builtins():
    return builtins_up_to(60)


@functools.cache
def enumerate_qosystems(n):
    """All antisymmetric transitive relations on n labeled points, built once
    per session; a tuple, so no caller can change the shared catalog."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    out = []
    for bits in range(1 << len(pairs)):
        rel = [[False] * n for _ in range(n)]
        for k, (a, b) in enumerate(pairs):
            if bits >> k & 1:
                rel[a][b] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if rel[a][b] and rel[b][a] and a != b:
                    ok = False
                if not ok:
                    break
                if rel[a][b]:
                    for c in range(n):
                        if rel[b][c] and not rel[a][c]:
                            ok = False
                            break
            if not ok:
                break
        if ok:
            out.append(QOSystem([f"p{i}" for i in range(n)],
                                [(a, b) for a in range(n) for b in range(n) if rel[a][b]]))
    return tuple(out)


def qosystem_signature(qo):
    """Canonical form up to isomorphism (brute force, n <= 4)."""
    n = len(qo.points)
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(qo.rel[perm[a]][perm[b]] for a in range(n) for b in range(n))
        if best is None or key < best:
            best = key
    return n, best


@functools.cache
def qosystem_reps(n):
    """One representative per isomorphism class of n-point QO-systems."""
    seen = {}
    for qo in enumerate_qosystems(n):
        seen.setdefault(qosystem_signature(qo), qo)
    return tuple(seen.values())


def random_qosystem(rng, max_points=5):
    n = rng.randint(1, max_points)
    rel = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rel[a][b] = True
    # transitive closure over the index order keeps antisymmetry
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    for a in range(n):
        if rng.random() < 0.25:
            rel[a][a] = True
            for b in range(n):
                if rel[a][b]:
                    pass
    # self-loops must stay transitive: a<a and a<b already implies a<b
    return QOSystem([f"p{i}" for i in range(n)],
                    [(a, b) for a in range(n) for b in range(n) if rel[a][b]])


def random_vector(rng, qo, max_coeff=3, max_terms=3):
    """Random canonical element: a random sum of generator multiples."""
    out = qo.zero()
    for _ in range(rng.randint(0, max_terms)):
        p = rng.randrange(len(qo.points))
        out = out + qo.generator(p) * rng.randint(1, max_coeff)
    return out


@functools.cache
def grid_vectors(qo, max_coeff):
    """All canonical vectors with coefficients in {0..max_coeff, oo}, in grid
    order; one canonical-form pass tests the whole grid."""
    grid = tuple(range(max_coeff + 1)) + (INF,)
    combos = list(itertools.product(grid, repeat=len(qo.points)))
    return tuple(DimVector(qo, combo) for combo, reason
                 in zip(combos, violates_canonical_form(qo, combos)) if reason is None)


def random_poset(rng):
    """A random poset on up to 9 elements, half of them with a bottom and a
    top added, as (names, cover-style edges) in shuffled index order."""
    n = rng.randint(1, 9)
    if rng.random() < 0.5:
        n = max(n, 3)
        rank = list(range(1, n - 1))
        rng.shuffle(rank)
        rank = [0] + rank + [n - 1]
        edges = [(rank[0], x) for x in rank[1:]] + [(x, rank[-1]) for x in rank[:-1]]
    else:
        rank = list(range(n))
        rng.shuffle(rank)
        edges = []
    p = rng.uniform(0.1, 0.7)
    edges += [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < p]
    rng.shuffle(edges)
    return [f"x{i}" for i in range(n)], edges


def random_posets(count=600, seed=20261018):
    """The seeded sample of random posets the table and caustic-pair oracle
    tests run over; about half of them are lattices."""
    rng = random.Random(seed)
    return [random_poset(rng) for _ in range(count)]


def random_lattices(count=40):
    """The first lattices among the seeded random posets."""
    out = []
    for names, edges in random_posets():
        try:
            out.append(lat.build_lattice(names, [(names[a], names[b]) for a, b in edges],
                                         name=f"rand{len(out)}"))
        except Exception:
            continue
        if len(out) == count:
            break
    return out


@functools.cache
def lattices_and_duals():
    """The catalog instances, the seeded random lattices and the duals of
    all of them, built once per session."""
    base = [lat.builtin_spec(s) for s in CATALOG_INSTANCES] + random_lattices()
    return tuple(base + [lat.dual(L) for L in base])


def random_eight_element_lattices(count, seed=20240817):
    """Deterministic sample of 8-element lattices (random order closures)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        k = 6
        edges = []
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.3:
                    edges.append((i + 1, j + 1))
        names = [str(i) for i in range(8)]
        covers = [("0", str(i + 1)) for i in range(k)]
        covers += [(str(a), str(b)) for a, b in edges]
        covers += [(str(i + 1), "7") for i in range(k)]
        try:
            L = lat.build_lattice(names, covers, name=f"rand8_{len(found)}")
        except Exception:
            continue
        if L.n == 8 and L not in found:
            found.append(L)
    return found


def cross_check_lattices():
    """The lattices the cross-check kernels are compared with their oracles
    on: the catalog entries of at most 24 elements and a seeded sample of
    eight-element lattices."""
    return builtins_up_to(24) + random_eight_element_lattices(20)


# the element names of N5 and coprod_c3_c1, the two lattices words are fuzzed on
WORD_SPECS = ("N5", "coprod_c3_c1")
_WORD_NAMES = ("0", "1") + tuple("abcdefghijklmnopqr")


def word_texts():
    """Texts over the element names of N5 and coprod_c3_c1: a soup of names,
    `+`, `*`, `(`, `)`, `..`, digits and spaces, or sums of terms `a..b` and
    `k*(a..b)` with spaces strewn in, some of them malformed by the soup."""
    soup = st.lists(st.sampled_from(("+", "*", "(", ")", "..", " ", *"0123456789")
                                    + _WORD_NAMES), max_size=16).map("".join)
    space = st.sampled_from(("", " ", "  "))
    name = st.sampled_from(_WORD_NAMES)
    pair = st.builds("{}{}{}..{}{}{}".format, space, name, space, space, name, space)
    term = pair | st.builds("{}{}{}*{}({}){}".format, space, st.integers(0, 12), space,
                            space, pair, space)
    terms = st.lists(term | soup, min_size=1, max_size=4).map("+".join)
    return soup | terms
