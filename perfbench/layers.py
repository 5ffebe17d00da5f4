"""Per-layer metrics: what the tracer counts at each layer boundary, and how
one traced round's spans turn into the metrics BENCHMARK.json lists.

Times are seconds per round; `.s` is inclusive time, `.self_s` excludes
time in wrapped functions of other groups.  Counts are per round and repeat
exactly between traced runs of one seed.
"""

from tracer import calls, exclusive, inclusive

FL_INIT = "lattice.FiniteLattice.__init__"


def _incomparable_pairs(L):
    comparable = int(L.leq.sum()) - L.n
    return L.n * (L.n - 1) // 2 - comparable


def _delta(t, args, result):
    if not t.first_time("delta", args[0], (args[1], args[2])):
        t.add("delta.repeats")


def _principal(t, args, result):
    if t.first_time("principal", args[0], result.block_of):
        t.add("principal.distinct")


def _join(t, args, result):
    if t.first_time("join", args[0].over, result.block_of):
        t.add("join.new")


def _caustic_pairs(t, args, result):
    t.add("caustic_pairs.found", len(result))
    t.add("caustic_pairs.tested", _incomparable_pairs(args[0]))


def _relations(t, args, result):
    t.add("relations.equalities", len(result[0]))
    t.add("relations.absorptions", len(result[1]))


def _qosystem(t, args, result):
    t.add("monoid.points", len(result[0].points))
    t.add("monoid.p0", len(result[0].p0))


HOOKS = {
    FL_INIT: lambda t, args, result: t.add("lattice.elements", args[0].n),
    "dimension.caustic_pairs": _caustic_pairs,
    "dimension.caustic_relations": _relations,
    "dimension.delta": _delta,
    "monoid.build_qosystem": _qosystem,
    "monoid.QOSystem.lower_sets": lambda t, args, result: t.add("monoid.lower_sets", len(result)),
    "congruence.all_congruences": lambda t, args, result: t.add("congruence.count", len(result)),
    "congruence.principal_congruence": _principal,
    "congruence.Congruence.join": _join,
}


def _ratio(a, b):
    return a / b if b else 0.0


def _s(*names):
    return lambda spans, counts: inclusive(spans, set(names))


def _self(*names):
    return lambda spans, counts: exclusive(spans, set(names))


def _calls(*names):
    return lambda spans, counts: calls(spans, set(names))


def _count(key):
    return lambda spans, counts: counts.get(key, 0)


def _share(num, den):
    return lambda spans, counts: _ratio(counts.get(num, 0), den(spans, counts))


def _cli_self(spans, counts):
    return exclusive(spans, {span[0] for span in spans if span[0].startswith("cli.")})


SUITES = ("geometry.index_equality_check", "geometry.relations_suite",
          "geometry.transitivity_cancellativity_check")

# (name, unit, better, value of one round from its spans and counts)
PER_LAYER = [
    ("lattice.construct.s", "s", "lower", _s(FL_INIT)),
    ("lattice.construct.calls", "count", "lower", _calls(FL_INIT)),
    ("lattice.construct.elements", "count", "lower", _count("lattice.elements")),
    ("lattice.load.self_s", "s", "lower",
     _self("lattice.load", "lattice.from_json", "lattice.build_lattice")),
    ("lattice.maximal_chain.s", "s", "lower", _s("lattice.FiniteLattice.maximal_chain")),
    ("lattice.maximal_chain.calls", "count", "lower",
     _calls("lattice.FiniteLattice.maximal_chain")),

    ("dimension.caustic_pairs.s", "s", "lower", _s("dimension.caustic_pairs")),
    ("dimension.caustic_pairs.found", "count", "lower", _count("caustic_pairs.found")),
    ("dimension.caustic_pairs.yield", "ratio", "higher",
     _share("caustic_pairs.found", _count("caustic_pairs.tested"))),
    ("dimension.caustic_relations.self_s", "s", "lower", _self("dimension.caustic_relations")),
    ("dimension.relations.equalities", "count", "lower", _count("relations.equalities")),
    ("dimension.relations.absorptions", "count", "lower", _count("relations.absorptions")),
    ("dimension.dimension_monoid.calls", "count", "lower", _calls("dimension.dimension_monoid")),
    ("dimension.delta.s", "s", "lower", _s("dimension.delta")),
    ("dimension.delta.calls", "count", "lower", _calls("dimension.delta")),
    ("dimension.delta.repeat_share", "ratio", "higher",
     _share("delta.repeats", _calls("dimension.delta"))),
    ("dimension.word_parse.s", "s", "lower", _s("dimension.DimensionWord.parse")),
    ("dimension.word_compare.self_s", "s", "lower", _self("dimension.word_compare")),
    ("dimension.correspondence_check.s", "s", "lower",
     _s("dimension.congruence_correspondence_check")),
    ("dimension.functor_checks.s", "s", "lower", _s("dimension.functor_checks")),
    ("dimension.v_modular.s", "s", "lower", _s("dimension.is_v_modular")),
    ("dimension.dep_check.s", "s", "lower", _s("dimension.dep_check")),

    ("monoid.build_qosystem.s", "s", "lower", _s("monoid.build_qosystem")),
    ("monoid.build_qosystem.calls", "count", "lower", _calls("monoid.build_qosystem")),
    ("monoid.qosystem_init.s", "s", "lower", _s("monoid.QOSystem.__init__")),
    ("monoid.points", "count", "lower", _count("monoid.points")),
    ("monoid.p0", "count", "lower", _count("monoid.p0")),
    ("monoid.generator.s", "s", "lower", _s("monoid.QOSystem.generator")),
    ("monoid.generator.calls", "count", "lower", _calls("monoid.QOSystem.generator")),
    ("monoid.vector_add.s", "s", "lower", _s("monoid.DimVector.__add__")),
    ("monoid.vector_add.calls", "count", "lower", _calls("monoid.DimVector.__add__")),
    ("monoid.semilattice_quotient.s", "s", "lower", _s("monoid.semilattice_quotient")),
    ("monoid.lower_sets", "count", "lower", _count("monoid.lower_sets")),

    ("congruence.all_congruences.s", "s", "lower", _s("congruence.all_congruences")),
    ("congruence.count", "count", "lower", _count("congruence.count")),
    ("congruence.principal.s", "s", "lower", _s("congruence.principal_congruence")),
    ("congruence.principal.calls", "count", "lower", _calls("congruence.principal_congruence")),
    ("congruence.principal.distinct_share", "ratio", "higher",
     _share("principal.distinct", _calls("congruence.principal_congruence"))),
    ("congruence.join.calls", "count", "lower", _calls("congruence.Congruence.join")),
    ("congruence.join.yield", "ratio", "higher",
     _share("join.new", _calls("congruence.Congruence.join"))),
    ("congruence.quotient.s", "s", "lower", _s("congruence.quotient_lattice")),
    ("congruence.rect.s", "s", "lower", _s("congruence.rectangular_extension")),

    ("geometry.perspectivity_matrix.s", "s", "lower", _s("geometry.perspectivity_matrix")),
    ("geometry.is_normal.s", "s", "lower", _s("geometry.is_normal")),
    ("geometry.n_distributive.s", "s", "lower", _s("geometry.n_distributive")),
    ("geometry.lattice_index.s", "s", "lower", _s("geometry.lattice_index")),
    ("geometry.suites.s", "s", "lower", _s(*SUITES)),

    ("cli.run.self_s", "s", "lower", _cli_self),
    ("cli.output_bytes", "bytes", "lower", _count("cli.output_bytes")),
]

OVERHEAD = ("trace.overhead", "ratio", "lower")


def round_metrics(spans, counts):
    return {name: fn(spans, counts) for name, _, _, fn in PER_LAYER}
