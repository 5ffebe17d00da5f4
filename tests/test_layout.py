"""`src/dimw` holds what the verbs run: every public module-level function
of the package, and every public method, classmethod and property of a class
defined in it, is reached by some verb, or is on a stated keep-list.  And
generators are cover indices through the package: no module reads the
tuple-keyed `gen` view."""

import ast
import inspect
import sys

from dimw import cli, congruence, dimension, errors, geometry, lattice, monoid

# reached by no verb, and kept in the package on purpose
KEEP = {
    # the monoid's own algebra: refinement, residuals, reduced representations
    "monoid.refine", "monoid.residual", "monoid.truncate", "monoid.to_reduced",
    "monoid.from_reduced", "monoid.in_canonical_form", "monoid.violates_canonical_form",
    # save beside load; the product beside the dual
    "lattice.save", "lattice.to_json", "lattice.product",
    # Con L's own operation, and the JSON sidecar of a congruence beside the
    # lattice file's, with the compatibility test it runs
    "congruence.congruence_from_pairs", "congruence.to_json", "congruence.from_json",
    "congruence.is_compatible",
    # the indicator model the benchmark's word checker is built from
    "dimension.distributive_dim",
    # query helpers for the tests
    "lattice.FiniteLattice.le", "lattice.FiniteLattice.covers_of",
    "lattice.FiniteLattice.cocovers_of", "lattice.FiniteLattice.interval",
    "lattice.FiniteLattice.atoms", "lattice.FiniteLattice.maximal_chain",
    # the monoid algebra
    "monoid.DimVector.support", "monoid.DimVector.maximal_support", "monoid.DimVector.meet",
    "monoid.ReducedRep.items",
    # read by the benchmark's word checker
    "monoid.QOSystem.generator", "dimension.DimensionMonoid.gen",
    # the inverse of QOSystem.to_json_dict
    "monoid.QOSystem.vector",
}


MODULES = (cli, congruence, dimension, errors, geometry, lattice, monoid)


def _code(value):
    """The code object of a function, method, classmethod, staticmethod or
    property, or None for any other class attribute."""
    for attr in ("__func__", "fget", "func"):  # classmethods, properties, cached ones
        value = getattr(value, attr, value)
    return value.__code__ if inspect.isfunction(value) else None


def _public_functions():
    for module in MODULES:
        prefix = module.__name__.removeprefix("dimw.")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{prefix}.{name}", value.__code__
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    code = None if attr.startswith("_") else _code(member)
                    if code is not None:
                        yield f"{prefix}.{name}.{attr}", code


def _verb_runs(path):
    """argv lists for every verb, text and --json, on N5, on subspace:2,3
    (the sectionally complemented modular branch of check --all) and on a
    lattice file."""
    runs = [["catalog"], ["catalog", "--json"]]
    for source in (["--builtin", "N5"], ["--builtin", "subspace:2,3"], ["--file", str(path)]):
        L = lattice.load(source[1]) if source[0] == "--file" else lattice.builtin_spec(source[1])
        bot, top = L.names[L.bottom], L.names[L.top]
        mid = L.names[L.covers[0][1]]
        word, multiple = f"{bot}..{top}", f"{bot}..{mid} + 2*({mid}..{top})"
        for verb in (["validate"], ["props"], ["con"], ["dim"], ["geom"], ["check"],
                     ["check", "--all"], ["dot"], ["dot", "--labels"],
                     ["eval", "--word", multiple],
                     ["compare", "--word", word, "--word", multiple]):
            # dot prints DOT text only and takes no --json
            runs += [verb + source] + ([] if verb[0] == "dot" else [verb + source + ["--json"]])
    return runs


def test_every_public_function_is_reached_by_a_verb(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m3.json"
    path.write_text('{"name": "M3", "elements": ["0", "a", "b", "c", "1"], "covers": '
                    '[["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]]}')
    runs = _verb_runs(path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in runs:  # through the console entry point, which calls cli.run
            monkeypatch.setattr(sys, "argv", ["dimw", *argv])
            try:
                cli.main()
            except SystemExit as done:
                codes.append(done.code)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    unreached = {name for name, code in _public_functions() if code not in called}
    assert unreached == KEEP, unreached ^ KEEP


def test_no_module_reads_the_gen_view():
    # `DimensionMonoid.gen` is a read-only view of `point_of_cover` kept for
    # readers outside the package; its definition reads no `.gen` attribute
    for module in MODULES:
        reads = [node.lineno for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Attribute) and node.attr == "gen"]
        assert reads == [], (module.__name__, reads)
