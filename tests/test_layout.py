"""`src/dimw` holds what the verbs run: every public module-level function
of the package, and every public method, classmethod and property of a class
defined in it, is reached by some verb, or is on a stated keep-list.  Every
option the verbs reach is one they use: each defaulted parameter of a public
function or method that some verb calls takes two values across the verbs,
or is on a stated keep-list.  And generators are cover indices through the
package: no module reads the tuple-keyed `gen` view."""

import ast
import contextlib
import inspect
import io
import sys

import pytest

from dimw import cli, congruence, dimension, errors, geometry, lattice, monoid

# reached by no verb, and kept in the package on purpose
KEEP = {
    # the canonical-form test that DimVector validates with
    "monoid.violates_canonical_form",
    # save beside load; the product beside the dual
    "lattice.save", "lattice.to_json", "lattice.product",
    # Con L's own operation, and the JSON sidecar of a congruence beside the
    # lattice file's, with the compatibility test it runs
    "congruence.congruence_from_pairs", "congruence.to_json", "congruence.from_json",
    "congruence.is_compatible",
    # the indicator model the benchmark's word checker is built from
    "dimension.distributive_dim",
    # the test suite runs them (criterion 8), and the second the lower sets
    # of the points that a congruence collapses
    "dimension.product_functor_check", "dimension.quotient_functor_check",
    "monoid.QOSystem.down_set",
    # query helpers for the tests
    "lattice.FiniteLattice.le", "lattice.FiniteLattice.covers_of",
    "lattice.FiniteLattice.cocovers_of", "lattice.FiniteLattice.interval",
    "lattice.FiniteLattice.atoms", "lattice.FiniteLattice.maximal_chain",
    # the index of a value and the largest finite entry that bounded
    # domination scales by, which `check` reads off value rows
    "monoid.index", "monoid.DimVector.max_finite",
    "monoid.DimVector.has_infinite", "monoid.DimVector.is_zero",
    # read by the benchmark's word checker
    "monoid.QOSystem.generator", "dimension.DimensionMonoid.gen",
    # the inverse of QOSystem.to_json_dict
    "monoid.QOSystem.vector",
}

# defaulted parameters that take one value across the verbs, kept on purpose
KEEP_OPTIONS = {
    # the package's own constructions are valid by construction, and direct
    # callers get the checks
    "lattice.FiniteLattice.__init__._validate", "monoid.DimVector.__init__.validate",
}


MODULES = (cli, congruence, dimension, errors, geometry, lattice, monoid)


def _function(value):
    """The function behind a function, method, classmethod, staticmethod or
    property, or None for any other class attribute."""
    for attr in ("__func__", "fget", "func"):  # classmethods, properties, cached ones
        value = getattr(value, attr, value)
    return value if inspect.isfunction(value) else None


def _public_functions(dunders=()):
    """(name, function) for each public function and method, and for the
    methods named in `dunders`."""
    for module in MODULES:
        prefix = module.__name__.removeprefix("dimw.")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{prefix}.{name}", value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    fn = None if attr.startswith("_") and attr not in dunders else _function(member)
                    if fn is not None:
                        yield f"{prefix}.{name}.{attr}", fn


def _token(value):
    """A scalar by its type and value, any other object by its type."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return type(value), value
    return type(value)


def _verb_runs(path):
    """argv lists for every verb, text and --json, on N5, on subspace:2,3
    (the sectionally complemented modular branch of check --all) and on a
    lattice file, check --all below the default --bound on N5, and eval of
    the blank word, the empty sum, on N5."""
    runs = [["catalog"], ["catalog", "--json"],
            ["check", "--all", "--bound", "2", "--builtin", "N5"],
            ["eval", "--word", "", "--builtin", "N5"]]
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


@pytest.fixture(scope="module")
def verb_trace(tmp_path_factory):
    """The verb runs, the exit code of each, the code objects they call, and
    the values each defaulted parameter of a public function or method
    takes at its calls, by qualified parameter name."""
    path = tmp_path_factory.mktemp("layout") / "m3.json"
    path.write_text('{"name": "M3", "elements": ["0", "a", "b", "c", "1"], "covers": '
                    '[["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]]}')
    options = {}
    for name, fn in _public_functions(dunders=("__init__",)):
        defaulted = [p for p, param in inspect.signature(fn).parameters.items()
                     if param.default is not param.empty]
        if defaulted:
            options[fn.__code__] = [(f"{name}.{p}", p) for p in defaulted]
    runs, called, values, codes = _verb_runs(path), set(), {}, []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            for option, param in options.get(frame.f_code, ()):
                values.setdefault(option, set()).add(_token(frame.f_locals[param]))

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in runs:  # through the console entry point, which calls cli.run
                mp.setattr(sys, "argv", ["dimw", *argv])
                try:
                    cli.main()
                except SystemExit as done:
                    codes.append(done.code)
        finally:
            sys.setprofile(None)
    return runs, codes, called, values


def test_every_verb_run_succeeds(verb_trace):
    runs, codes, _, _ = verb_trace
    assert codes == [0] * len(runs)


def test_every_public_function_is_reached_by_a_verb(verb_trace):
    *_, called, _ = verb_trace
    unreached = {name for name, fn in _public_functions() if fn.__code__ not in called}
    assert unreached == KEEP, unreached ^ KEEP


def test_every_option_a_verb_reaches_takes_two_values(verb_trace):
    *_, values = verb_trace
    single = {option for option, seen in values.items() if len(seen) < 2}
    assert single == KEEP_OPTIONS, ", ".join(sorted(single ^ KEEP_OPTIONS))


def test_no_module_reads_the_gen_view():
    # `DimensionMonoid.gen` is a read-only view of `point_of_cover` kept for
    # readers outside the package; its definition reads no `.gen` attribute
    for module in MODULES:
        reads = [node.lineno for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Attribute) and node.attr == "gen"]
        assert reads == [], (module.__name__, reads)
