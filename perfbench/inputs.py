"""Seeded inputs: shuffled lattice files and dimension-word pairs.

Everything here depends only on the seed and on plain element/cover lists,
never on the program under test, so the same seed gives the same inputs on
every commit.
"""

import json
import random


def instance_rng(seed, tag):
    """An independent random stream per (seed, instance), so adding an
    instance to a workload does not change the inputs of the others."""
    return random.Random(f"{seed}/{tag}")


def file_name(spec):
    return spec.replace(":", "_").replace(",", "_") + ".json"


def chain_lists(n):
    """Elements and covers of the builtin `chain:n`, named as the catalog
    names them."""
    names = [str(i) for i in range(n)]
    return names, [(names[i], names[i + 1]) for i in range(n - 1)]


def boolean_lists(n):
    """Elements and covers of the builtin `boolean:n` (subsets as bit
    strings, least bit first), named as the catalog names them."""
    names = ["".join("1" if s >> i & 1 else "0" for i in range(n)) or "()"
             for s in range(2 ** n)]
    covers = [(names[s], names[s | 1 << i])
              for s in range(2 ** n) for i in range(n) if not s >> i & 1]
    return names, covers


GENERATED = {"chain": chain_lists, "boolean": boolean_lists}


def shuffled_lattice_doc(name, elements, covers, seed):
    """A lattice file document with both lists shuffled by the seed."""
    rng = instance_rng(seed, name)
    elements = list(elements)
    covers = [list(pair) for pair in covers]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"name": name, "elements": elements, "covers": covers}


def write_lattice(doc, directory):
    path = directory / file_name(doc["name"])
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# -- dimension words ----------------------------------------------------------

# The mix below is chosen by the benchmark, not taken from a source: it makes
# every verdict of `word_compare` common and exercises the k*(...) syntax.
MAX_WALK = 6         # covers climbed for a comparable term
MULT_SHARE = 0.2     # terms written k*(a..b) with k in 2..3
EQUAL_SHARE = 0.4    # pairs that spell one value two ways ("equal")
EXTRA_SHARE = 0.3    # pairs where one side has an extra term ("less"/"greater")
                     # the rest: two independent words (mostly "incomparable")


class WordGen:
    """Random dimension words over one lattice document.

    A term is a list of element names: either a walk up the cover graph
    (a comparable pair whose inner points allow an exact split) or two
    arbitrary elements.  Endpoints are drawn uniformly, so Δ repeats come
    only from the instance's size (see `delta_repeat_share`).
    """

    def __init__(self, doc, rng):
        self.rng = rng
        self.elements = sorted(doc["elements"])
        self.up = {x: [] for x in self.elements}
        for lo, hi in doc["covers"]:
            self.up[lo].append(hi)
        for ups in self.up.values():
            ups.sort()

    def point(self):
        return self.rng.choice(self.elements)

    def term(self):
        rng = self.rng
        mult = rng.randint(2, 3) if rng.random() < MULT_SHARE else 1
        if rng.random() < 0.6:
            path = [self.point()]
            for _ in range(rng.randint(1, MAX_WALK)):
                ups = self.up[path[-1]]
                if not ups:
                    break
                path.append(rng.choice(ups))
            return path, mult
        return [self.point(), self.point()], mult

    def word(self):
        return [self.term() for _ in range(self.rng.randint(1, 4))]

    def equal_variant(self, word):
        """The same monoid value written differently: comparable walks split
        at an inner point, other terms reversed, multiples spelled out."""
        out = []
        for path, mult in word:
            if len(path) > 2:
                mid = len(path) // 2
                pieces = [path[:mid + 1], path[mid:]]
            else:
                pieces = [path[::-1]]
            for piece in pieces:
                if mult > 1 and self.rng.random() < 0.5:
                    out.extend([(piece, 1)] * mult)
                else:
                    out.append((piece, mult))
        self.rng.shuffle(out)
        return out

    def pair(self):
        rng = self.rng
        w1 = self.word()
        kind = rng.random()
        if kind < EQUAL_SHARE:
            w2 = self.equal_variant(w1)
        elif kind < EQUAL_SHARE + EXTRA_SHARE:
            w2 = self.equal_variant(w1) + [self.term()]
            if rng.random() < 0.5:
                w1, w2 = w2, w1
        else:
            w2 = self.word()
        return word_text(w1), word_text(w2)


def word_text(word):
    terms = []
    for path, mult in word:
        iv = f"{path[0]}..{path[-1]}"
        terms.append(iv if mult == 1 else f"{mult}*({iv})")
    return " + ".join(terms)


def word_ops(docs, mix, seed):
    """The compare ops of one words round: (spec, word1, word2), in a seeded
    interleaving of the instances, `mix` giving the count per instance."""
    ops = []
    for spec, count in mix:
        gen = WordGen(docs[spec], instance_rng(seed, "words/" + spec))
        ops.extend((spec, *gen.pair()) for _ in range(count))
    instance_rng(seed, "words/order").shuffle(ops)
    return ops


def parse_terms(text):
    """(a, b, mult) per term of a word text, as the program reads it."""
    out = []
    for raw in text.split(" + "):
        mult = 1
        if raw[0].isdigit() and raw.endswith(")") and "*(" in raw:
            head, _, raw = raw.partition("*(")
            mult, raw = int(head), raw[:-1]
        a, b = raw.split("..")
        out.append((a, b, mult))
    return out


def delta_repeat_share(ops):
    """Share of Δ evaluations in a round whose interval was already evaluated
    earlier in the round on the same instance (the program's Δ cache hits:
    each word evaluates each distinct written pair once)."""
    seen, evaluated, repeats = set(), 0, 0
    for spec, w1, w2 in ops:
        for text in (w1, w2):
            for a, b in {(a, b) for a, b, _ in parse_terms(text)}:
                evaluated += 1
                key = (spec, a, b)
                repeats += key in seen
                seen.add(key)
    return repeats / evaluated if evaluated else 0.0
