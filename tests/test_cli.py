import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

import dimw
from dimw import dimension as dim
from dimw import geometry as geo
from dimw import lattice as lat
from dimw.cli import CATALOG_INSTANCES, catalog_summary, export_dot, run
from dimw.dimension import dimension_monoid

from conftest import WORD_SPECS, random_lattices, word_texts
from oracles import (is_atomistic_by_atom_joins, is_distributive_by_identity,
                     is_modular_by_identity, is_relatively_complemented_by_tables,
                     is_sectionally_complemented_by_tables, is_semimodular_by_pairs)


def test_dim_verb_partition_4(capsys):
    assert run(["dim", "--builtin", "partition:4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["qosystem"]["points"]) == 1
    assert len(doc["p0"]) == 1


def test_dim_verb_m3(capsys):
    assert run(["dim", "--builtin", "M3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["qosystem"]["points"]) == 1
    assert doc["p0"] == []


def test_check_all_n5(capsys):
    assert run(["check", "--all", "--builtin", "N5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(v["status"] == "pass" for k, v in doc.items() if k != "v_modular")
    # the pentagon is the standard non-V-modular example
    assert doc["v_modular"]["status"] == "no"
    assert doc["v_modular"]["witness"] == [["c", "a"], ["0", "b"]]


def test_check_all_subspace(capsys):
    assert run(["check", "--all", "--builtin", "subspace:2,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_modular"]["status"] == "yes"
    assert doc["transitivity_cancellativity"]["status"] == "pass"


def test_validate_and_props(capsys):
    assert run(["validate", "--builtin", "N5"]) == 0
    assert run(["props", "--builtin", "N5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["modular"] is False and doc["simple"] is False


def test_props_matches_the_table_oracles_on_the_catalog(capsys):
    for spec in CATALOG_INSTANCES:
        L = lat.builtin_spec(spec)
        semimodular, atomistic = is_semimodular_by_pairs(L), is_atomistic_by_atom_joins(L)
        want = {"modular": is_modular_by_identity(L),
                "distributive": is_distributive_by_identity(L),
                "complemented": lat.is_complemented(L),
                "sectionally_complemented": is_sectionally_complemented_by_tables(L),
                "relatively_complemented": is_relatively_complemented_by_tables(L),
                "atomistic": atomistic, "semimodular": semimodular,
                "geometric": semimodular and atomistic,
                "simple": lat.is_simple(L), "height": L.height()}
        assert run(["props", "--builtin", spec, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == want, spec


def test_usage_errors():
    assert run(["props"]) == 2  # neither --builtin nor --file
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_error_exit_code(capsys):
    assert run(["props", "--builtin", "nonsense"]) == 1
    assert run(["props", "--file", "/nonexistent/lattice.json"]) == 1


def test_eval_and_compare(capsys):
    assert run(["eval", "--builtin", "N5", "--word", "0..c + c..a", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]
    code = run(["compare", "--builtin", "N5",
                "--word", "0..a", "--word", "0..c + c..a"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert run(["compare", "--builtin", "N5", "--word", "0..a"]) == 2


def test_word_multiplicity(capsys):
    assert run(["compare", "--builtin", "M3",
                "--word", "2*(0..a)", "--word", "0..1"]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_dot_export(capsys):
    assert run(["dot", "--builtin", "chain:2"]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 1 and out.count("label=") == 2
    assert run(["dot", "--builtin", "N5"]) == 0
    out5 = capsys.readouterr().out
    assert out5.count("->") == 5
    assert run(["dot", "--builtin", "N5", "--labels"]) == 0
    labeled = capsys.readouterr().out
    assert 'label="p' in labeled


def test_dot_deterministic():
    N5 = lat.builtin("N5")
    D = dimension_monoid(N5)
    assert export_dot(N5, D) == export_dot(N5, dimension_monoid(lat.builtin("N5")))


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # the one output change of DOT escaping: names without " or \ print as before
    path = tmp_path / "quoted.json"
    lat.save(lat.build_lattice(['a"b', "c\\d"], [('a"b', "c\\d")], name='q"\\'), path)
    assert run(["dot", "--file", str(path)]) == 0
    assert capsys.readouterr().out == (
        'digraph "q\\"\\\\" {\n  rankdir=BT;\n  n0 [label="a\\"b"];\n'
        '  n1 [label="c\\\\d"];\n  n0 -> n1;\n}\n')


def test_catalog(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "partition:4" in out and "-> 2" in out
    assert "boolean:3" in out and "(Z+)^3" in out
    assert "M3" in out


def test_catalog_summary_values():
    assert catalog_summary("partition:4")["headline"] == "2"
    assert catalog_summary("M3")["headline"] == "Z+"
    assert catalog_summary("boolean:3")["headline"] == "(Z+)^3"
    row = catalog_summary("coprod_c2_c1")
    assert row["classes"] == 5 and row["idempotent_classes"] == 0


def test_geom_verb(capsys):
    assert run(["geom", "--builtin", "subspace:2,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_normal"]["status"] is True
    assert doc["least_n_distributive"] == 2


def test_geom_verb_partition_5(capsys):
    # the n = 4 identity pass; the index of a partition is its rank
    assert run(["geom", "--builtin", "partition:5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    L = lat.builtin("partition", 5)
    assert doc == {"index": {x: 5 - len(x.split("|")) for x in L.names},
                   "is_normal": {"status": False, "witness": ["15|2|3|4", "134|2|5"]},
                   "least_n_distributive": 4}


def test_geom_verb_chain_300(capsys):
    # a chain: perspectivity is equality, so every nonzero element has index
    # 1 and the lattice is distributive
    assert run(["geom", "--builtin", "chain:300", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    L = lat.builtin("chain", 300)
    assert doc == {"index": {x: int(i != L.bottom) for i, x in enumerate(L.names)},
                   "is_normal": {"status": True, "witness": None},
                   "least_n_distributive": 1}


def test_file_round_trip(tmp_path, capsys):
    L = lat.builtin("N5")
    path = tmp_path / "n5.json"
    lat.save(L, path)
    assert run(["dim", "--file", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["qosystem"]["points"]) == 3


def test_check_failure_exit_code(tmp_path, capsys):
    # a sneaky non-lattice file trips validation with exit 1
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "elements": ["x", "y", "z"],'
                    ' "covers": [["x", "y"], ["x", "z"]]}')
    assert run(["validate", "--file", str(path)]) == 1


def test_json_outputs_are_deterministic(capsys):
    verbs = (["validate"], ["props"], ["con"], ["dim"], ["geom"], ["check"],
             ["check", "--all"], ["eval", "--word", "0..a + a..1"],
             ["compare", "--word", "0..a", "--word", "0..1"])
    # subspace:2,3 is sectionally complemented and modular, so it reaches the
    # geometry checks of `check --all`
    for argv in [v + ["--builtin", "coprod_c2_c1", "--json"] for v in verbs] + [
            ["check", "--all", "--builtin", "subspace:2,3", "--json"],
            ["dot", "--builtin", "coprod_c2_c1", "--labels"], ["catalog", "--json"]]:
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first, argv


def test_check_reports_a_broken_axiom_by_element_names(monkeypatch, capsys):
    # 0..b moved onto the point of 0..c: Delta(0, 1) along 0 < b < 1 is no
    # longer Delta(0, a) + Delta(a, 1), so additivity fails at (a, b); check
    # builds its D by the presentation
    build = dim._presented_monoid

    def moved(L):
        D = build(L)
        if L.name != "N5":
            return D
        moved = D.point_of_cover.copy()
        moved[L.covers.index((L.index["0"], L.index["b"]))] = 1
        return dim.DimensionMonoid(L, D.qo, moved)

    monkeypatch.setattr(dim, "_presented_monoid", moved)
    assert run(["check", "--builtin", "N5", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["axioms"] == {"status": "fail", "witness": "('a', 'b')"}


def test_check_reports_a_failure_without_witness_as_null(monkeypatch, capsys):
    monkeypatch.setattr(dim, "dep_check", lambda *args, **kwargs: False)
    assert run(["check", "--all", "--builtin", "N5", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension_extension"] == {"status": "fail", "witness": None}


def test_check_all_builds_each_geometry_object_once(monkeypatch, capsys):
    spies = {name: mock.Mock(wraps=getattr(geo, name))
             for name in ("perspectivity_matrix", "_transitive_closure",
                          "_decomposition_closure")}
    for name, spy in spies.items():
        monkeypatch.setattr(geo, name, spy)
    assert run(["check", "--all", "--builtin", "subspace:2,3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(v["status"] in ("pass", "yes") for v in doc.values())
    assert {name: spy.call_count for name, spy in spies.items()} == {
        "perspectivity_matrix": 1, "_transitive_closure": 1, "_decomposition_closure": 1}


def _python(*args, timeout=120, **options):
    """Run a fresh interpreter that imports this `dimw`, with no traceback on
    stderr; the options go to subprocess.run."""
    src = str(Path(dimw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout, **options)
    assert "Traceback" not in proc.stderr
    return proc


def _proc(*argv, **options):
    """Run `dimw` in a fresh interpreter (`_python`)."""
    return _python("-m", "dimw.cli", *argv, **options)


def _cli(*argv):
    """Run `dimw` in a fresh interpreter; return (exit code, stderr lines)."""
    proc = _proc(*argv)
    return proc.returncode, proc.stderr.splitlines()


def test_lattice_file_missing_key(tmp_path):
    for doc, key in (({"name": "L", "elements": ["a"]}, "covers"),
                     ({"name": "L", "covers": []}, "elements")):
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps(doc))
        code, err = _cli("validate", "--file", str(path))
        assert code == 1 and len(err) == 1, err
        assert repr(key) in err[0]
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert _cli("validate", "--file", str(path)) == (
        1, ["error: lattice file must hold a JSON object"])


def test_lattice_file_without_elements(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"name": "L", "elements": [], "covers": []}')
    code, err = _cli("validate", "--file", str(path))
    assert code == 1 and err == ["error: lattice has no elements"]


def test_word_with_unknown_or_malformed_term():
    for word, name in (("0..zz", "zz"), ("0...a", ".a")):
        code, err = _cli("eval", "--builtin", "N5", "--word", word)
        assert code == 1 and len(err) == 1, err
        assert repr(name) in err[0] and repr(word) in err[0]


def test_bound_below_one_is_a_usage_error():
    for bound in ("-3", "0"):
        code, err = _cli("check", "--all", "--builtin", "N5", "--bound", bound)
        assert code == 2
        assert err[-1].endswith(f"argument --bound: must be at least 1, got {bound}")
    assert run(["check", "--builtin", "N5", "--bound", "1"]) == 0


def test_bound_is_an_option_of_check_only(capsys):
    for verb in ("validate", "props", "con", "dim", "geom", "dot"):
        assert run([verb, "--builtin", "N5", "--bound", "3"]) == 2, verb
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "dimw: error: unrecognized arguments: --bound 3", verb


def test_json_is_not_an_option_of_dot(capsys):
    # dot prints DOT text only, so --json is refused rather than ignored
    assert run(["dot", "--builtin", "chain:2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "dimw: error: unrecognized arguments: --json"


def test_v_modular_does_not_depend_on_the_bound(tmp_path):
    # rand10's first failing target holds two points strictly below the
    # source's point, where a sum search over the parts grew until the bound
    path = tmp_path / "rand10.json"
    lat.save(random_lattices()[10], path)
    runs = [_proc("check", "--all", "--file", str(path), "--bound", bound, timeout=30)
            for bound in ("4", "100000000000000000000")]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert "v_modular: no" in runs[0].stdout
    assert runs[1].stdout == runs[0].stdout


def test_not_a_lattice_witness_is_found_at_scale(tmp_path):
    """A chain of 2,400 elements under two maximal elements x and y: their
    pair comes last in index order, so the search for the first failing pair
    reads every pair (about two minutes for a per-pair scan)."""
    chain = [str(i) for i in range(2400)]
    covers = [*zip(chain, chain[1:]), (chain[-1], "x"), (chain[-1], "y")]
    path = tmp_path / "two_tops.json"
    path.write_text(json.dumps({"elements": chain + ["x", "y"], "covers": covers}))
    proc = _proc("validate", "--file", str(path), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: no join for pair ('x', 'y')"]


def test_lattice_file_with_malformed_fields(tmp_path):
    for i, (doc, key) in enumerate((
            ({"elements": ["a"], "covers": [1]}, "covers"),
            ({"elements": 5, "covers": []}, "elements"),
            ({"elements": ["a", "b"], "covers": [["a"]]}, "covers"),
            ({"elements": [["a"]], "covers": []}, "elements"),
            ({"name": ["x"], "elements": ["a"], "covers": []}, "name"))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        code, err = _cli("validate", "--file", str(path))
        assert code == 1 and len(err) == 1, err
        assert repr(key) in err[0]


def _run_quietly(argv):
    """(exit code, stdout, stderr) of an in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_lattice_file_names_are_compared_as_strings(tmp_path):
    # 1, 1.0 and true are equal JSON values but the distinct names "1",
    # "1.0" and "True"; "1" and 1 are the same name
    docs = {
        "mixed": {"name": 5, "elements": [1, 1.0], "covers": [[1, 1.0]]},
        "diamond": {"elements": ["a", "1", "True", "z"],
                    "covers": [["a", 1], ["a", True], [1, "z"], [True, "z"]]},
        "clash": {"elements": ["1", 1], "covers": []},
    }
    for key, doc in docs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    code, out, _ = _run_quietly(["validate", "--json", "--file", str(tmp_path / "mixed.json")])
    assert code == 0 and json.loads(out)["name"] == "5"
    assert _run_quietly(["dot", "--file", str(tmp_path / "mixed.json")])[1].startswith(
        'digraph "5" {')
    code, out, _ = _run_quietly(["validate", "--json", "--file", str(tmp_path / "diamond.json")])
    assert code == 0 and json.loads(out)["elements"] == 4
    assert _run_quietly(["validate", "--file", str(tmp_path / "clash.json")]) == (
        1, "", "error: duplicate element names in lattice file\n")


# JSON scalars, often equal values with distinct names (1, 1.0, true) or
# distinct values with one name (1, "1"), and the constants NaN, Infinity
# and -Infinity that Python's json writes and reads but JSON does not have
_SCALARS = st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 1.0, True, False, None, "1", "True", "",
                                      float("nan"), float("inf"), float("-inf")]),
                     st.text(max_size=3), st.integers(), st.floats())
_ABSENT = object()


@st.composite
def _lattice_docs(draw):
    """A lattice file: at most 6 scalar elements, often distinct as names;
    their chain in list order, or covers drawn from them and from a name no
    element has; and a name that is absent, a scalar, a list or an object."""
    elements = draw(st.lists(_SCALARS, max_size=6, unique_by=str) | st.lists(_SCALARS, max_size=6))
    ends = st.sampled_from(elements + ["zz"])
    chain = [list(pair) for pair in zip(elements, elements[1:])]
    covers = draw(st.just(chain) | st.lists(st.lists(ends, min_size=2, max_size=2), max_size=8))
    doc = {"elements": elements, "covers": covers}
    name = draw(st.one_of(st.just(_ABSENT), _SCALARS, st.lists(_SCALARS, max_size=2),
                          st.dictionaries(st.text("ab", max_size=1), _SCALARS, max_size=1)))
    if name is not _ABSENT:
        doc["name"] = name
    return doc


def _as_strings(doc):
    """The same file with every scalar name written as its str()."""
    out = {"elements": [str(x) for x in doc["elements"]],
           "covers": [[str(a), str(b)] for a, b in doc["covers"]]}
    if "name" in doc:
        name = doc["name"]
        out["name"] = name if isinstance(name, (list, dict)) else str(name)
    return out


def _has_non_json_constant(doc):
    try:
        json.dumps(doc, allow_nan=False)
    except ValueError:
        return True
    return False


def test_lattice_file_fuzz(tmp_path):
    """validate, dim and dot on generated lattice files end in exit 0, 1 or
    2 with at most one stderr line and no exception; a file with NaN or an
    infinity in it is refused with one error line, and any other reads the
    same as its names written as strings."""
    path, same = tmp_path / "fuzz.json", tmp_path / "strings.json"
    refused = []

    @given(_lattice_docs())
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    def check(doc):
        path.write_text(json.dumps(doc))
        same.write_text(json.dumps(_as_strings(doc)))
        for verb in ("validate", "dim", "dot"):
            got = _run_quietly([verb, "--file", str(path)])
            assert got[0] in (0, 1, 2) and len(got[2].splitlines()) <= 1, (verb, doc, got)
            if _has_non_json_constant(doc):
                assert got[:2] == (1, "") and re.fullmatch(
                    r"error: -?(NaN|Infinity) is not a JSON value\n", got[2]), (verb, doc, got)
                refused.append(doc)
            else:
                assert got == _run_quietly([verb, "--file", str(same)]), (verb, doc)

    check()
    assert refused


def test_check_all_coprod_c3_c1():
    # dep_check reads the meet-irreducible congruences without building rect L
    # (10 * 5**4 * 2**6 elements here), so this ends well inside the timeout
    proc = _proc("check", "--all", "--builtin", "coprod_c3_c1", "--json")
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {
        "congruence_correspondence", "dual_functor", "axioms", "v_modular",
        "dimension_extension"}


def _glued_pentagons(k):
    """k pentagons stacked top to bottom: 4k + 1 elements whose D-class order
    is k disjoint V's, 5^k congruences, counted in 2^(k + 1) - 1 steps."""
    covers = []
    for i in range(k):
        lo, hi = f"e{i}", f"e{i + 1}"
        covers += [[lo, f"b{i}"], [f"b{i}", hi], [lo, f"c{i}"], [f"c{i}", f"a{i}"], [f"a{i}", hi]]
    elements = [f"e{i}" for i in range(k + 1)] + [f"{x}{i}" for i in range(k) for x in "abc"]
    return {"name": f"pentagons{k}", "elements": elements, "covers": covers}


def test_con_refuses_a_large_congruence_lattice_at_once(tmp_path):
    # 18 pentagons need 2^19 - 1 steps of the down-set count, past its budget
    # of 2 * 100000; 16 need 2^17 - 1
    path = tmp_path / "pentagons.json"
    path.write_text(json.dumps(_glued_pentagons(18)))
    start = time.perf_counter()
    assert _cli("con", "--file", str(path)) == (1, ["error: congruence lattice too large"])
    assert time.perf_counter() - start < 10
    path.write_text(json.dumps(_glued_pentagons(16)))
    proc = _proc("con", "--file", str(path))
    assert (proc.returncode, proc.stdout) == (0, (
        f"Con(pentagons16): {5 ** 16} congruences (48 meet-irreducible, 48 join-irreducible); "
        "simple: False; congruence lattice height 48\n"))


def _cap_address_space_1g():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_validate_and_con_fill_the_meet_table_alone(monkeypatch, capsys):
    """The constructor fills the meet table and tests it; the join table is
    filled on its first read, which `validate` and `con` never make, nor
    `dim`, `catalog` and `dot --labels` on a modular lattice, whose
    modularity test and square classes read the order.  The caustic
    presentation of a non-modular lattice reads it."""
    fills = mock.Mock(wraps=lat._least_bounds)
    monkeypatch.setattr(lat, "_least_bounds", fills)
    for spec, dim_fills in (("N5", 2), ("boolean:4", 1), ("partition:4", 2),
                            ("coprod_c3_c1", 2)):
        for verb, count in (("validate", 1), ("con", 1), ("dim", dim_fills)):
            fills.reset_mock()
            assert run([verb, "--builtin", spec]) == 0, (verb, spec)
            assert fills.call_count == count, (verb, spec)
    for argv, count in ((["dot", "--labels", "--builtin", "subspace:2,3"], 1),
                        # 14 modular entries and N5, partition:4, partition:5,
                        # coprod_c2_c1 and coprod_c3_c1
                        (["catalog"], 14 + 2 * 5)):
        fills.reset_mock()
        assert run(argv) == 0, argv
        assert fills.call_count == count, argv
    capsys.readouterr()


def test_validate_peak_memory_on_boolean_12():
    """`validate boolean:12` holds the order and the int32 meet table, 16 MB
    and 64 MB; a join table would add 64 MB more.  The child reports its
    own peak resident set, in KiB on Linux."""
    proc = _python("-c", "import resource\n"
                   "from dimw.cli import run\n"
                   "code = run(['validate', '--builtin', 'boolean:12'])\n"
                   "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)",
                   timeout=60, preexec_fn=_cap_address_space_1g)
    lines = proc.stdout.splitlines()
    assert lines[0] == ("boolean:12: 4096 elements, 24576 covers, height 12, "
                        "bounds [000000000000, 111111111111]")
    code, peak = map(int, lines[1].split())
    assert code == 0 and peak < 160 << 10, peak


def test_dim_peak_memory_on_boolean_12():
    """`dim boolean:12` on a modular lattice reads the order and the covers
    after loading, so it holds what `validate` holds and no join table
    (64 MB).  The child reports its own peak resident set, in KiB on
    Linux."""
    proc = _python("-c", "import resource\n"
                   "from dimw.cli import run\n"
                   "code = run(['dim', '--builtin', 'boolean:12'])\n"
                   "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)",
                   timeout=60, preexec_fn=_cap_address_space_1g)
    lines = proc.stdout.splitlines()
    assert lines[0] == "dimension monoid of boolean:12: 12 generator classes, 0 idempotent"
    assert lines[-2] == "  relation: (antichain)"
    code, peak = map(int, lines[-1].split())
    assert code == 0 and peak < 160 << 10, peak


def _child_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_congruence_verbs_past_the_old_listing_limit():
    """`con` and `check` read Con L off the D-class order, so chains whose
    congruences no listing could hold answer at once, and the axiom loop of
    `check` meets its own guard, on the incomparable pairs, right after
    loading."""
    proc = _proc("check", "--builtin", "boolean:12", timeout=60,
                 preexec_fn=_cap_address_space_1g)
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (1, "", [
        "error: axiom check of 15718430 incomparable pairs exceeds guard 8388608"])
    proc = _proc("con", "--builtin", "chain:20", "--json", timeout=60,
                 preexec_fn=_cap_address_space_1g)
    assert proc.returncode == 0 and json.loads(proc.stdout)["congruences"] == 524288
    for spec in ("chain:16", "chain:300"):
        # processor time of the child, which other load on the machine does
        # not stretch as it does wall time
        start = _child_seconds()
        proc = _proc("check", "--builtin", spec, timeout=60, preexec_fn=_cap_address_space_1g)
        assert _child_seconds() - start < 1, spec
        assert (proc.returncode, proc.stdout) == (0, (
            "axioms: pass\ncongruence_correspondence: pass\ndual_functor: pass\n")), spec


def test_in_process_calls_do_not_share_word_lists(capsys):
    # the parser is built once per process; each call's --word list is its own
    assert run(["compare", "--builtin", "N5", "--word", "0..a", "--word", "0..c + c..a"]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert run(["compare", "--builtin", "N5", "--word", "0..a", "--word", "0..b"]) == 0
    assert capsys.readouterr().out == "incomparable\n"
    assert run(["compare", "--builtin", "N5", "--word", "0..b"]) == 2
    assert "exactly two" in capsys.readouterr().err


def test_compare_counts_its_words_before_loading(capsys):
    # the lattice file does not exist, and the word count is refused first
    argv = ["compare", "--file", "no-such-lattice.json", "--word", "0..a"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: compare needs exactly two --word expressions\n"
    assert run(argv + ["--word", "0..b"]) == 1
    assert "No such file" in capsys.readouterr().err


def test_word_fuzz_through_eval_and_compare():
    """eval and compare on generated words, one to three of them, end in
    exit 0, 1 or 2 with at most one `error:` line on stderr and no
    exception; an answer prints to stdout only, a refusal to stderr only."""
    codes = set()

    @given(st.sampled_from(WORD_SPECS), st.lists(word_texts(), min_size=1, max_size=3))
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    def check(spec, words):
        for verb, texts in (("eval", words[:1]), ("compare", words)):
            got = code, out, err = _run_quietly(
                [verb, "--builtin", spec] + [f"--word={w}" for w in texts])
            assert code in (0, 1, 2) and "Traceback" not in err, (verb, texts, got)
            assert (bool(out), len(err.splitlines())) == ((True, 0) if code == 0 else (False, 1))
            assert code == 0 or err.startswith("error: "), (verb, texts, got)
            codes.add(code)

    check()
    assert codes == {0, 1, 2}


def test_eval_keeps_big_multiplicities_exact(capsys):
    argv = ["eval", "--builtin", "N5", "--json", "--word"]
    assert run(argv + ["99999999999999999999*(0..a) + 0..1"]) == 0
    out = capsys.readouterr().out
    assert '"p1": 100000000000000000000' in out
    assert json.loads(out) == {"values": {"p0": 1, "p1": 10 ** 20, "p2": "inf"}}
    assert run(argv + ["9223372036854775807*(0..a) + 4611686018427387904*(c..1)"]) == 0
    assert json.loads(capsys.readouterr().out) == {"values": {
        "p0": 2 ** 62, "p1": 2 ** 63 - 1, "p2": "inf"}}


def test_numbers_past_the_int_digit_limit_are_refused_by_name(capsys):
    limit = sys.get_int_max_str_digits()
    nines, long = "9" * limit, "9" * (limit + 1)
    # 2 * (10^limit - 1) has limit + 1 digits: it is found but cannot be printed
    for flags in ([], ["--json"]):
        assert run(["eval", "--builtin", "M3", *flags, "--word", f"{nines}*(0..1)"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: value of word '{nines}*(0..1)' has more than {limit} digits to print"]
    refusal = [f"error: multiplicity of {limit + 1} digits in word term '...*(0..1)' "
               f"exceeds the limit {limit}"]
    for argv in (["eval", "--word", f"{long}*( 0..1 )"],
                 ["compare", "--word", "0..1", "--word", f"{long}*(0..1)"]):
        assert run(argv + ["--builtin", "M3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == refusal
    # compare still answers on the longest multiplicity int() reads
    assert run(["compare", "--builtin", "M3", "--word", f"{nines}*(0..1)",
                "--word", f"{nines}*(0..1) + 0..a"]) == 0
    assert capsys.readouterr().out == "less\n"


def test_con_answers_chains_up_to_the_pass_guard():
    proc = _proc("con", "--builtin", "chain:1000", timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, (
        f"Con(chain:1000): {2 ** 999} congruences (999 meet-irreducible, "
        "999 join-irreducible); simple: False; congruence lattice height 999\n"), "")
    # chain:1026 has 1025 join- and 1025 meet-irreducibles, the first past 2^31
    start = time.perf_counter()
    proc = _proc("con", "--builtin", "chain:1026", timeout=10)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (1, "", [
        "error: D-relation stage of 2153781250 steps exceeds guard 2147483648"])


def test_check_all_runs_every_check_past_24_elements(capsys):
    assert run(["check", "--all", "--builtin", "boolean:5", "--json"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert sorted(doc) == ["axioms", "congruence_correspondence", "dimension_extension",
                           "dual_functor", "index_equality", "relations_suite",
                           "transitivity_cancellativity", "v_modular"]
    assert doc["v_modular"] == {"status": "yes", "witness": None}
    assert doc["dimension_extension"] == {"status": "pass"}
    assert err == ""
    assert run(["check", "--all", "--builtin", "N5", "--json"]) == 0
    assert capsys.readouterr().err == ""


def test_nonsense_builtin_parameters_and_empty_word_terms():
    for argv, line in (
            (("dim", "--builtin", "partition:abc"),
             "error: builtin 'partition' takes integer parameters, got 'abc'"),
            (("dim", "--builtin", "boolean:-1"), "error: boolean needs n >= 0"),
            (("eval", "--builtin", "N5", "--word", "0..a +"), "error: bad word term ''")):
        assert _cli(*argv) == (1, [line]), argv


def _builtin_specs():
    """Builtin specs, well-formed or not, that build at most a few hundred
    elements: catalog keys or junk, then parameters that are small ints,
    values past a size guard, or text with no decimal digit, which no int()
    reads."""
    junk = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
    key = st.sampled_from(sorted(lat._BUILTINS)) | junk
    param = (st.integers(-2, 4).map(str)
             | st.sampled_from(["10001", "-100", str(10 ** 20), " 3", "+2", "0_3", "1.5", "2e1"])
             | junk)
    return st.builds(lambda k, sep, ps: k + sep + ",".join(ps),
                     key, st.sampled_from([":", ""]), st.lists(param, max_size=3))


def test_builtin_spec_fuzz():
    """validate on generated builtin specs ends in exit 0, 1 or 2 (an empty
    spec is a missing --builtin) with no exception; an answer prints to
    stdout only, a refusal one `error:` line to stderr only."""
    codes = set()

    @given(_builtin_specs())
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    def check(spec):
        got = code, out, err = _run_quietly(["validate", f"--builtin={spec}"])
        assert code in (0, 1, 2), (spec, got)
        assert (bool(out), len(err.splitlines())) == ((True, 0) if code == 0 else (False, 1))
        assert code == 0 or err.startswith("error: "), (spec, got)
        codes.add(code)

    check()
    assert {0, 1} <= codes


def test_malformed_words_and_builtins_in_process(capsys):
    for argv, line in (
            (["dim", "--builtin", "subspace:2,x"],
             "error: builtin 'subspace' takes integer parameters, got 'x'"),
            (["dim", "--builtin", "subspace:2,-1"], "error: subspace needs n >= 0"),
            (["eval", "--builtin", "N5", "--word", "+ 0..a"], "error: bad word term ''"),
            (["eval", "--builtin", "N5", "--word", "0..a ++ a..1"], "error: bad word term ''"),
            (["compare", "--builtin", "N5", "--word", "0..a", "--word", "0..b +"],
             "error: bad word term ''")):
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [line], argv
    # a blank word is the empty sum, not an empty term
    for word in ("", "  "):
        assert run(["eval", "--builtin", "N5", "--word", word]) == 0
        assert capsys.readouterr().out == f"{word} = <0>\n"
    assert run(["compare", "--builtin", "N5", "--word", "", "--word", "0..0"]) == 0
    assert capsys.readouterr().out == "equal\n"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_huge_builtin_parameters_are_refused_before_allocation():
    # building 10^8 names or computing 2 ** 10^20 ends in MemoryError under the
    # 1.5 GB address-space cap, so each parameter meets its guard first
    for spec, line in (
            ("chain:100000000", "error: 100000000 elements exceeds guard 10000"),
            ("boolean:100000000000000000000", "error: boolean lattice too large"),
            ("subspace:2,100000000000000000000",
             "error: subspace lattice supported for q in {2,3}, q^n <= 81")):
        start = time.perf_counter()
        proc = _proc("validate", "--builtin", spec, timeout=5, preexec_fn=_cap_address_space)
        assert time.perf_counter() - start < 5, spec
        assert (proc.returncode, proc.stderr.splitlines()) == (1, [line]), spec


def test_words_are_parsed_before_the_pipeline(monkeypatch, capsys):
    def refuse(L):
        raise AssertionError("a bad word must fail before the monoid is built")

    monkeypatch.setattr(dim, "dimension_monoid", refuse)
    for argv, name, word in (
            (["eval", "--word", "0..zz"], "zz", "0..zz"),
            (["compare", "--word", "0..a", "--word", "q..1"], "q", "q..1"),
            (["compare", "--word", "0..a + x..1", "--word", "0..b"], "x", "0..a + x..1")):
        assert run(argv + ["--builtin", "N5"]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: unknown element {name!r} in word {word!r}"], argv


def test_check_builds_its_monoid_by_the_presentation(monkeypatch, capsys):
    # boolean:3 is modular, so only check's own D comes from the presentation;
    # the dual's monoid in the functor check comes from the square classes
    spies = {name: mock.Mock(wraps=getattr(dim, name))
             for name in ("_presented_monoid", "_square_classes")}
    for name, spy in spies.items():
        monkeypatch.setattr(dim, name, spy)
    assert run(["check", "--builtin", "boolean:3"]) == 0
    capsys.readouterr()
    assert [call.args[0].name for call in spies["_presented_monoid"].call_args_list] == [
        "boolean:3"]
    assert spies["_square_classes"].call_count == 1


def test_check_all_refuses_the_decomposition_closure_before_the_monoid(monkeypatch, capsys):
    def refuse(L):
        raise AssertionError("the guard must come before the monoid")

    monkeypatch.setattr(dim, "_presented_monoid", refuse)
    monkeypatch.setattr(geo, "DECOMPOSITION_GUARD", 6 ** 3)
    # subspace:2,3 has 16 elements and is sectionally complemented and modular
    assert run(["check", "--all", "--builtin", "subspace:2,3"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: decomposition closure of 16 elements needs 4096 cells, over the guard 216"]


def _cap_address_space_2g():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_check_all_on_boolean_10_is_refused_before_allocation():
    # its decomposition closure would hold 1024^3-cell tensors, past the
    # 2 GB cap; unguarded, it ran for seconds into a MemoryError traceback
    start = time.perf_counter()
    proc = _proc("check", "--all", "--builtin", "boolean:10", timeout=10,
                 preexec_fn=_cap_address_space_2g)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stderr.splitlines()) == (1, [
        "error: decomposition closure of 1024 elements needs 1073741824 cells, "
        "over the guard 536870912"])


def test_check_on_the_one_element_lattice(capsys):
    # chain:1 has no covers, no generator points and no incomparable pairs
    assert run(["check", "--builtin", "chain:1"]) == 0
    assert capsys.readouterr().out == (
        "axioms: pass\ncongruence_correspondence: pass\ndual_functor: pass\n")
    assert run(["check", "--all", "--builtin", "chain:1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {name: row["status"] for name, row in doc.items()} == {
        "axioms": "pass", "congruence_correspondence": "pass", "dimension_extension": "pass",
        "dual_functor": "pass", "index_equality": "pass", "relations_suite": "pass",
        "transitivity_cancellativity": "pass", "v_modular": "yes"}


def test_check_reads_delta_as_rows_outside_dep(monkeypatch, capsys):
    # the axioms, the sampled correspondence and the SCM checks read their
    # values from `delta_rows`; only the DEP words call `delta`
    def refuse(D, a, b):
        raise AssertionError("check must read Delta as rows")

    monkeypatch.setattr(dim, "delta", refuse)
    monkeypatch.setattr(dim, "dep_check", lambda *args, **kwargs: True)
    assert run(["check", "--builtin", "coprod_c3_c1"]) == 0
    # subspace:2,3 reaches the sectionally complemented modular branch
    assert run(["check", "--all", "--builtin", "subspace:2,3"]) == 0
    assert "fail" not in capsys.readouterr().out
