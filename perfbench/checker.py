"""Output checks: pinned documents and digests for the verbs, two independent
re-derivations for word comparisons.

Every check returns None when the output is right and a one-line reason
when it is not; the caller counts each reason as a failed op.
"""

import hashlib
import json

from inputs import parse_terms


# -- verb documents -----------------------------------------------------------


def dim_digest(doc):
    """A digest of a `dim --json` document that does not depend on element or
    cover order: the classes as a partition of cover names, the relation
    between classes keyed by their least member, and the idempotent classes."""
    classes = {point: sorted(members) for point, members in doc["classes"].items()}
    least = {point: members[0] for point, members in classes.items()}
    canon = {
        "classes": sorted(classes.values()),
        "relation": sorted([least[a], least[b]] for a, b in doc["qosystem"]["rel"]),
        "idempotent": sorted(least[p] for p in doc["p0"]),
    }
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dim_summary(doc):
    return {"digest": dim_digest(doc), "classes": len(doc["classes"]),
            "idempotent": len(doc["p0"])}


def strip_volatile(doc):
    """Drop what a shuffle or the clock may change: every `elapsed_ms` and
    the `is_normal` witness (the first failing pair in element order)."""
    out = {}
    for key, value in doc.items():
        if key == "elapsed_ms":
            continue
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if k != "elapsed_ms"}
            if key == "is_normal":
                value.pop("witness", None)
        out[key] = value
    return out


def canonical(verb, text):
    """What the reference pins for one verb's `--json` output."""
    doc = json.loads(text)
    if verb == "dim":
        return dim_summary(doc)
    return strip_volatile(doc)


def check_verb(verb, spec, result, reference):
    rc, out, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    want = reference["verbs"][verb][spec]
    try:
        got = canonical(verb.split()[0], out)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e!r}"
    if got != want:
        return f"output differs from the reference: {json.dumps(got)[:200]}"
    return None


# -- word comparisons ---------------------------------------------------------


def _scale(k, values):
    return tuple(k * v if v else 0 for v in values)


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def verdict(v1, v2):
    """The comparison word_compare makes, on plain coefficient tuples."""
    if v1 == v2:
        return "equal"
    le = all(a <= b for a, b in zip(v1, v2))
    ge = all(a >= b for a, b in zip(v1, v2))
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


class WordOracle:
    """Re-derives one instance's word values twice, independently of Δ.

    Chain: Δ(a, b) summed along the index-greatest maximal chain of
    [a∧b, a∨b], which differs from the index-least chain the program walks,
    using only the generator map and the generator vectors.
    Indicator: on distributive lattices, the join-irreducible indicator
    model, which is a free commutative monoid.
    """

    def __init__(self, L, D, indicator=None):
        self.L, self.D = L, D
        self.up = [[] for _ in range(L.n)]
        for a, b in L.covers:
            self.up[a].append(b)
        self.gens = {}
        self.chain_cache = {}
        self.indicator = indicator  # (J, f) from distributive_dim, or None
        self.zero = (0,) * len(D.qo.points)

    def _generator(self, point):
        if point not in self.gens:
            self.gens[point] = tuple(self.D.qo.generator(point).values)
        return self.gens[point]

    def chain_delta(self, a, b):
        L = self.L
        lo, hi = L.mt(a, b), L.jn(a, b)
        if (lo, hi) not in self.chain_cache:
            steps, z = {}, lo
            while z != hi:
                w = max(u for u in self.up[z] if L.leq[u, hi])
                point = self.D.gen[(z, w)]
                steps[point] = steps.get(point, 0) + 1
                z = w
            out = self.zero
            for point, k in steps.items():
                out = _add(out, _scale(k, self._generator(point)))
            self.chain_cache[(lo, hi)] = out
        return self.chain_cache[(lo, hi)]

    def value(self, text, delta):
        index = self.L.index
        out = None
        for a, b, mult in parse_terms(text):
            v = _scale(mult, delta(index[a], index[b]))
            out = v if out is None else _add(out, v)
        return out

    def check(self, w1, w2, got):
        want = verdict(self.value(w1, self.chain_delta), self.value(w2, self.chain_delta))
        if got != want:
            return f"verdict {got!r}, second maximal chain gives {want!r}"
        if self.indicator is not None:
            f = self.indicator[1]
            want = verdict(self.value(w1, f), self.value(w2, f))
            if got != want:
                return f"verdict {got!r}, indicator model gives {want!r}"
        return None

