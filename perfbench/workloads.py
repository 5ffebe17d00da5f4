"""The four workloads: their inputs, set-up, ops and output checks.

Each workload is a single-process, single-thread, closed-loop caller: one op
starts when the previous one has returned.  A round is the workload's fixed
list of ops; a run repeats rounds until its time is up.  The program gets
every lattice through a seeded, shuffled lattice file (`--file`), never
through `--builtin`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import calibrate
import checker
import inputs

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# cli.CATALOG_INSTANCES at the seed commit, pinned so that the workload does
# not change when the catalog does.
CATALOG = (
    "chain:2", "chain:3", "chain:4", "chain:8",
    "boolean:2", "boolean:3", "boolean:4", "boolean:5",
    "M3", "N5",
    "partition:2", "partition:3", "partition:4", "partition:5",
    "subspace:2,2", "subspace:2,3", "subspace:3,2",
    "coprod_c2_c1", "coprod_c3_c1",
)

# (verb, builtin) per op of a round.
VERB_WORKLOADS = {
    # FiniteLattice construction dominates; chains have no caustic pairs, so
    # relation emission stays idle while the monoid layer gets 499 points.
    "build": [("validate", "boolean:9"), ("dim", "chain:500")],
    # caustic pairs and relation emission dominate; the catalog entries make
    # the median op a small lattice, so fixed per-call costs show.
    "pipeline": [("dim", s) for s in ("boolean:8", "subspace:2,4", "partition:5",
                                      "subspace:3,3") + CATALOG],
    # congruence enumeration dominates, geometry and the cross-checks do the
    # rest.
    "checks": [("con", "partition:5"), ("con", "boolean:6"), ("con", "coprod_c3_c1"),
               ("check", "coprod_c3_c1"), ("check", "partition:4"),
               ("check --all", "subspace:2,3"), ("check --all", "partition:4"),
               ("geom", "subspace:2,3")],
}

# Compares per round and instance.  The counts put the median op inside one
# instance (partition:5) and the p99 inside another (chain:150), so neither
# percentile sits on the boundary between two instances, and leave 50 ops
# beyond the p99, so that it moves little from one seed's words to another's.
WORDS_MIX = (("coprod_c3_c1", 2000), ("partition:5", 1500),
             ("boolean:7", 1000), ("chain:150", 500))
DISTRIBUTIVE = ("boolean:7", "chain:150")

WORKLOADS = ("build", "pipeline", "checks", "words")

# The calibration kernel per workload (see calibrate.py): build spends its
# time in numpy's n x n table passes, the others in the interpreter.
KERNELS = {"build": calibrate.table_passes, "pipeline": calibrate.mixed,
           "checks": calibrate.mixed, "words": calibrate.mixed}


class ProgramMissing(Exception):
    pass


def import_program(root):
    """Import dimw from the checkout's `src`, and nowhere else."""
    src = Path(root) / "src"
    if not (src / "dimw" / "__init__.py").is_file():
        raise ProgramMissing(f"no dimw sources under {src}")
    sys.path.insert(0, str(src))
    import dimw
    from dimw import cli, congruence, dimension, geometry, lattice, monoid

    if Path(dimw.__file__).resolve().parent != (src / "dimw").resolve():
        raise ProgramMissing(f"dimw was imported from {dimw.__file__}, not {src}")
    return {"lattice": lattice, "dimension": dimension, "monoid": monoid,
            "congruence": congruence, "geometry": geometry, "cli": cli}


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def instances(workload):
    if workload == "words":
        return [spec for spec, _ in WORDS_MIX]
    return sorted({spec for _, spec in VERB_WORKLOADS[workload]})


def cold_import(root):
    """Start a fresh interpreter that imports the CLI, the fixed cost every
    `dimw` invocation pays before it reads its input."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    subprocess.run([sys.executable, "-c", "import dimw.cli"], env=env, check=True,
                   cwd=root, stdin=subprocess.DEVNULL, timeout=120)


def run_verb(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label, self.call, self.check = label, call, check


class Prepared:
    """What set-up hands to the timed phase."""

    def __init__(self, ops, properties, reset=None):
        self.ops = ops
        self.properties = properties
        self.reset = reset or (lambda: None)


def write_inputs(prog, workload, seed, workdir):
    """Each instance's builtin written as a shuffled lattice file.  Chains and
    boolean lattices are written down directly: asking the catalog for them
    builds their full meet/join tables, which would dominate set-up."""
    docs, paths = {}, {}
    for spec in instances(workload):
        family, _, param = spec.partition(":")
        if family in inputs.GENERATED:
            names, covers = inputs.GENERATED[family](int(param))
        else:
            L = prog["lattice"].builtin_spec(spec)
            names, covers = L.names, [(L.names[a], L.names[b]) for a, b in L.covers]
        doc = inputs.shuffled_lattice_doc(spec, names, covers, seed)
        docs[spec], paths[spec] = doc, inputs.write_lattice(doc, workdir)
    return docs, paths


def setup(prog, workload, seed, workdir, reference):
    docs, paths = write_inputs(prog, workload, seed, workdir)
    props = {"instances": {spec: {"n": len(doc["elements"]), "covers": len(doc["covers"]),
                                  "caustic_pairs": reference["instances"][spec]["caustic_pairs"]}
                           for spec, doc in docs.items()}}
    if workload == "words":
        return _setup_words(prog, seed, docs, paths, props)
    cli = prog["cli"]
    ops = []
    for verb, spec in VERB_WORKLOADS[workload]:
        argv = verb.split() + ["--file", str(paths[spec]), "--json"]
        ops.append(Op(f"{verb} {spec}",
                      lambda argv=argv: run_verb(cli, argv),
                      lambda res, verb=verb, spec=spec:
                      checker.check_verb(verb, spec, res, reference)))
    return Prepared(ops, props)


def _setup_words(prog, seed, docs, paths, props):
    lattice, dimension = prog["lattice"], prog["dimension"]
    lats = {spec: lattice.load(paths[spec]) for spec in docs}
    state = {}

    def fresh_monoids():
        state.update({spec: dimension.dimension_monoid(L) for spec, L in lats.items()})

    fresh_monoids()
    indicators = {spec: dimension.distributive_dim(lats[spec]) for spec in DISTRIBUTIVE}
    oracles = {}

    def oracle(spec):
        # built lazily, after the round, on that round's monoid
        D = state[spec]
        if spec not in oracles or oracles[spec].D is not D:
            oracles[spec] = checker.WordOracle(lats[spec], D, indicators.get(spec))
        return oracles[spec]

    word_ops = inputs.word_ops(docs, WORDS_MIX, seed)
    ops = []
    for spec, w1, w2 in word_ops:
        L = lats[spec]

        # names are looked up at call time, so a traced run sees its wrappers
        def call(spec=spec, L=L, w1=w1, w2=w2):
            parse = dimension.DimensionWord.parse
            return dimension.word_compare(state[spec], parse(w1, L), parse(w2, L))

        def check(got, spec=spec, w1=w1, w2=w2):
            return oracle(spec).check(w1, w2, got)

        ops.append(Op(f"compare {spec}", call, check))
    props["delta_repeat_share"] = inputs.delta_repeat_share(word_ops)
    return Prepared(ops, props, reset=fresh_monoids)
