"""The benchmark's own tests: seeded inputs, pinned answers, the tracer, the
calibration and the failure count.  Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import signal
import time

import pytest

import calibrate
import checker
import inputs
import layers
import run
import workloads
from tracer import Tracer

SMALL = ("N5", "coprod_c3_c1", "partition:4", "subspace:2,3", "boolean:4")


def _doc(prog, spec, seed):
    L = prog["lattice"].builtin_spec(spec)
    return inputs.shuffled_lattice_doc(
        L.name, L.names, [(L.names[a], L.names[b]) for a, b in L.covers], seed)


def test_generator_is_deterministic_per_seed(prog):
    docs = {spec: _doc(prog, spec, 5) for spec, _ in workloads.WORDS_MIX}
    assert docs == {spec: _doc(prog, spec, 5) for spec, _ in workloads.WORDS_MIX}
    assert docs["partition:5"] != _doc(prog, "partition:5", 6)
    ops = inputs.word_ops(docs, workloads.WORDS_MIX, 5)
    assert ops == inputs.word_ops(docs, workloads.WORDS_MIX, 5)
    assert len(ops) == sum(count for _, count in workloads.WORDS_MIX)
    other = {spec: _doc(prog, spec, 6) for spec, _ in workloads.WORDS_MIX}
    assert inputs.word_ops(other, workloads.WORDS_MIX, 6) != ops


def test_written_down_families_match_the_catalog(prog):
    for spec in ("chain:1", "chain:7", "boolean:0", "boolean:1", "boolean:4"):
        family, _, param = spec.partition(":")
        names, covers = inputs.GENERATED[family](int(param))
        L = prog["lattice"].builtin_spec(spec)
        assert sorted(names) == sorted(L.names)
        assert sorted(covers) == sorted((L.names[a], L.names[b]) for a, b in L.covers)


def test_word_texts_parse_back(prog):
    doc = _doc(prog, "partition:5", 3)
    gen = inputs.WordGen(doc, inputs.instance_rng(3, "t"))
    for _ in range(200):
        word = gen.word()
        terms = inputs.parse_terms(inputs.word_text(word))
        assert terms == [(path[0], path[-1], mult) for path, mult in word]


def test_shuffled_inputs_give_the_pinned_answers(prog, reference, tmp_path):
    cli = prog["cli"]
    for seed in (1, 2):
        for spec in SMALL:
            path = inputs.write_lattice(_doc(prog, spec, seed), tmp_path)
            res = workloads.run_verb(cli, ["dim", "--file", str(path), "--json"])
            assert checker.check_verb("dim", spec, res, reference) is None, (seed, spec)
        for verb, spec in workloads.VERB_WORKLOADS["checks"]:
            if spec in SMALL:
                path = inputs.write_lattice(_doc(prog, spec, seed), tmp_path)
                res = workloads.run_verb(cli, verb.split() + ["--file", str(path), "--json"])
                assert checker.check_verb(verb, spec, res, reference) is None, (seed, verb, spec)


def test_coprod_c3_c1_pinned_at_today_answer(reference):
    got = reference["verbs"]["dim"]["coprod_c3_c1"]
    assert (got["classes"], got["idempotent"]) == (11, 0)


def test_dim_digest_sees_a_moved_cover(prog):
    rc, out, _ = workloads.run_verb(prog["cli"], ["dim", "--builtin", "N5", "--json"])
    doc = json.loads(out)
    points = sorted(doc["classes"])
    moved = doc["classes"][points[0]].pop()
    doc["classes"][points[1]].append(moved)
    assert checker.dim_digest(doc) != checker.dim_digest(json.loads(out))


def _snapshot(prog):
    snap = {}
    for module in prog.values():
        snap[module] = dict(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                snap[value] = dict(vars(value))
    return snap


def test_tracer_wraps_where_names_are_looked_up_and_restores_all(prog):
    dimension, monoid, lattice = prog["dimension"], prog["monoid"], prog["lattice"]
    before = _snapshot(prog)
    original = monoid.build_qosystem
    tracer = Tracer(prog, layers.HOOKS)
    with tracer:
        assert dimension.build_qosystem is not original
        assert monoid.build_qosystem is not original
        tracer.active = True
        dimension.dimension_monoid(lattice.builtin_spec("N5"))
        tracer.active = False
    after = _snapshot(prog)
    assert before.keys() == after.keys()
    for owner, names in before.items():
        assert all(after[owner][k] is v for k, v in names.items()), owner
    by_name = {span[0]: span for span in tracer.spans}
    qo_span = by_name["monoid.build_qosystem"]
    assert tracer.spans[qo_span[3]][0] == "dimension.dimension_monoid"
    assert "lattice.FiniteLattice._tables" not in by_name
    assert tracer.counts["monoid.points"] == 3
    assert tracer.counts["caustic_pairs.found"] == 2


def test_repeat_counts_do_not_carry_over_to_a_new_monoid(prog):
    # An owner dropped right after its first use would hand its address to
    # the next object made; that object's first use is still a first time.
    tracer = Tracer(prog, layers.HOOKS)
    for _ in range(50):
        assert tracer.first_time("delta", object(), (0, 1))
    # Two monoids of one lattice, built one after the other: the second's
    # first pass is no repeat.
    dimension, lattice = prog["dimension"], prog["lattice"]
    L = lattice.builtin_spec("coprod_c3_c1")
    pairs = [(a, b) for a in range(L.n) for b in range(a + 1, L.n)][:40]
    with tracer:
        for _ in range(2):
            tracer.reset_counts()
            tracer.active = True
            D = dimension.dimension_monoid(L)
            for a, b in pairs:
                dimension.delta(D, a, b)
            first_pass = tracer.counts.get("delta.repeats", 0)
            for a, b in pairs:
                dimension.delta(D, a, b)
            tracer.active = False
            assert first_pass == 0
            assert tracer.counts["delta.repeats"] == len(pairs)
            del D


def test_tracer_leaves_private_helpers_alone(prog):
    tracer = Tracer(prog, layers.HOOKS)
    with tracer:
        patched = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in tracer._patches}
    assert not any(attr.startswith("_") and attr not in ("__init__", "__add__", "__mul__")
                   for _, attr in patched)
    assert ("dimw.dimension", "_primes_within") not in patched
    assert ("dimw.congruence", "_UnionFind") not in patched


def _failed_after_one_round(prep):
    tally = run.Tally()
    run.run_rounds(prep, 1e-9, tally)
    return tally


def test_corrupted_verb_output_is_counted(prog, reference, tmp_path, monkeypatch):
    cli = prog["cli"]
    path = inputs.write_lattice(_doc(prog, "coprod_c3_c1", 1), tmp_path)
    argv = ["dim", "--file", str(path), "--json"]
    op = workloads.Op("dim coprod_c3_c1", lambda: workloads.run_verb(cli, argv),
                      lambda res: checker.check_verb("dim", "coprod_c3_c1", res, reference))
    prep = workloads.Prepared([op, op], {})
    assert _failed_after_one_round(prep).failed == 0
    monkeypatch.setattr(prog["dimension"], "caustic_relations", lambda L: ([], []))
    tally = _failed_after_one_round(prep)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_corrupted_word_verdict_is_counted(prog, reference, tmp_path, monkeypatch):
    prep = workloads.setup(prog, "words", 1, tmp_path, reference)
    prep.ops = prep.ops[:400]
    assert _failed_after_one_round(prep).failed == 0
    prep.reset()
    monkeypatch.setattr(prog["dimension"], "word_compare", lambda D, w1, w2: "equal")
    tally = _failed_after_one_round(prep)
    assert 0 < tally.failed < tally.attempted


def test_calibrated_times_divide_by_the_slowdown_while_each_op_ran():
    cal = calibrate.Calibrator()
    ref = cal.reference
    cal.times, cal.kernels = [0.0, 10.0, 11.0], [ref, ref, 3 * ref]
    tally = run.Tally()
    # (start, end, seconds its calibration points took)
    tally.op_spans = [[(0.0, 0.5, 0.0), (10.0, 11.2, 0.2)],
                      [(20.0, 20.2, 0.0), (20.2, 20.4, 0.0)]]
    assert tally.op_times() == [[0.5, pytest.approx(1.0)], pytest.approx([0.2, 0.2])]
    # slowdown 1 at 0.0; over 10.0-11.2 the harmonic mean of 1 and 3; the
    # second round has no point near it, so the nearest (3) counts
    assert tally.op_times(cal) == [[0.5, pytest.approx(1 / 1.5)],
                                   pytest.approx([0.2 / 3, 0.2 / 3])]
    wall, latencies = run.timings(tally, cal)
    assert wall == pytest.approx((0.5 + 1 / 1.5 + 0.4 / 3) / 2)
    assert latencies == pytest.approx([(0.5 + 0.2 / 3) / 2, (1 / 1.5 + 0.2 / 3) / 2])


def test_calibration_timer_takes_points_inside_a_long_call():
    with calibrate.Calibrator() as cal:
        paused = cal.spent
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * calibrate.INTERVAL:
            pass
    assert len(cal.times) >= 3 and cal.spent > paused
    signal_handler = signal.getsignal(signal.SIGALRM)
    assert signal_handler != cal.point and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    per_layer.append(layers.OVERHEAD)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
