"""Command-line surface: one verb per module capability.

Exit codes: 0 success, 1 check/validation failure, 2 usage error.
"""

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import congruence as con
from . import dimension as dim
from . import geometry as geo
from . import lattice as lat
from .errors import DimwError, MismatchError, ParamTooLarge

# the axiom check of `check` evaluates Delta on every ordered pair of
# incomparable elements
AXIOM_PAIR_GUARD = 1 << 23


def _load(args):
    if args.builtin and args.file:
        print("error: --builtin and --file are mutually exclusive", file=sys.stderr)
        raise SystemExit(2)
    if args.builtin:
        return lat.builtin_spec(args.builtin)
    if args.file:
        return lat.load(args.file)
    print("error: one of --builtin or --file is required", file=sys.stderr)
    raise SystemExit(2)


def _emit(args, doc, human):
    if args.json:
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        print(human)


def cmd_validate(args):
    L = _load(args)
    doc = {"name": L.name, "elements": L.n, "covers": len(L.covers),
           "bottom": L.names[L.bottom], "top": L.names[L.top],
           "height": L.height()}
    _emit(args, doc, f"{L.name}: {L.n} elements, {len(L.covers)} covers, "
          f"height {L.height()}, bounds [{L.names[L.bottom]}, {L.names[L.top]}]")
    return 0


def cmd_props(args):
    L = _load(args)
    rep = lat.properties_report(L)
    _emit(args, rep, "\n".join(f"{k}: {v}" for k, v in sorted(rep.items())))
    return 0


def cmd_con(args):
    L = _load(args)
    # Con L is the lattice of down-sets of the D-class order: its join- and
    # meet-irreducibles are the principal down-sets and their complements,
    # one per class, and its longest chains add one class at a time
    classes = con.DClasses(L)
    count = con.count_down_sets(classes.below)
    doc = {"congruences": count, "meet_irreducible": len(classes),
           "join_irreducible": len(classes), "simple": count == 2}
    _emit(args, doc,
          f"Con({L.name}): {count} congruences ({len(classes)} meet-irreducible, "
          f"{len(classes)} join-irreducible); simple: {doc['simple']}; "
          f"congruence lattice height {len(classes)}")
    return 0


def cmd_dim(args):
    L = _load(args)
    D = dim.dimension_monoid(L)
    doc = D.report_dict()
    lines = [f"dimension monoid of {L.name}: {len(D.qo.points)} generator classes, "
             f"{len(D.qo.p0)} idempotent"]
    for p, members in sorted(doc["classes"].items()):
        tag = " (idempotent)" if p in doc["p0"] else ""
        lines.append(f"  {p}{tag}: " + " ".join(members))
    rel = doc["qosystem"]["rel"]
    lines.append("  relation: " + (" ".join(f"{a}<{b}" for a, b in rel) or "(antichain)"))
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_eval(args):
    L = _load(args)
    word = dim.DimensionWord.parse(args.word, L)
    value = dim.dimension_monoid(L).delta_word(word)
    try:
        _emit(args, value.to_json_dict(), f"{args.word} = {value!r}")
    except ValueError:  # an int past sys.get_int_max_str_digits() digits
        raise ValueError(f"value of word {args.word!r} has more than "
                         f"{sys.get_int_max_str_digits()} digits to print") from None
    return 0


def cmd_compare(args):
    # the word count is a usage error, refused before the lattice is loaded
    if len(args.word) != 2:
        print("error: compare needs exactly two --word expressions", file=sys.stderr)
        return 2
    L = _load(args)
    w1 = dim.DimensionWord.parse(args.word[0], L)
    w2 = dim.DimensionWord.parse(args.word[1], L)
    verdict = dim.word_compare(dim.dimension_monoid(L), w1, w2)
    _emit(args, {"verdict": verdict}, verdict)
    return 0


def cmd_geom(args):
    L = _load(args)
    report = {}
    sim = geo.perspectivity_matrix(L)
    normal, witness = geo.is_normal(L, sim)
    report["is_normal"] = {"status": normal,
                           "witness": None if witness is None else
                           [L.names[witness[0]], L.names[witness[1]]]}
    report["index"] = dict(zip(L.names, geo.lattice_index(L, sim)))
    holds = itertools.islice(geo.n_distributive_verdicts(L), 1, L.height() + 1)
    level = next((n for n, ok in enumerate(holds, 1) if ok), L.height() + 1)
    report["least_n_distributive"] = level
    _emit(args, report,
          "\n".join([f"normal: {normal}",
                     "index: " + " ".join(f"{k}={v}" for k, v in sorted(report['index'].items())),
                     f"least n with n-distributivity: {level}"]))
    return 0


def cmd_check(args):
    L = _load(args)
    # the SCM branch of --all runs the decomposition closure, n^3 cells per tensor
    scm = args.all and lat.is_sectionally_complemented(L) and lat.is_modular(L)
    if scm and L.n ** 3 > geo.DECOMPOSITION_GUARD:
        raise ParamTooLarge(f"decomposition closure of {L.n} elements needs {L.n ** 3} "
                            f"cells, over the guard {geo.DECOMPOSITION_GUARD}")
    # the ordered pairs less the 2|leq| - n comparable ones
    pairs = L.n * L.n - 2 * int(np.count_nonzero(L.leq)) + L.n
    if pairs > AXIOM_PAIR_GUARD:
        raise ParamTooLarge(f"axiom check of {pairs} incomparable pairs exceeds guard "
                            f"{AXIOM_PAIR_GUARD}")
    failures = []
    results = {}

    def run(name, fn):
        try:
            fn()
            results[name] = {"status": "pass"}
        except MismatchError as e:
            failures.append(name)
            results[name] = {"status": "fail",
                             "witness": None if e.witness is None else str(e.witness)}

    # the cross-validation verb derives D by the presentation on every lattice
    D = dim._presented_monoid(L)
    classes = con.DClasses(L)
    run("congruence_correspondence",
        lambda: dim.congruence_correspondence_check(L, D, classes))
    run("dual_functor", lambda: dim.functor_checks(L, D))

    run("axioms", lambda: dim.axiom_check(L, D))
    if args.all:
        def dep():
            if not dim.dep_check(L, classes, D, k=min(args.bound, 3)):
                raise MismatchError("subdirect map does not reflect order")

        ok, witness = dim.is_v_modular(L, D)
        results["v_modular"] = {"status": "yes" if ok else "no",
                                "witness": None if witness is None else
                                [[L.names[u], L.names[v]] for u, v in witness]}
        run("dimension_extension", dep)
        if scm:
            sim = geo.perspectivity_matrix(L)
            approx = geo._transitive_closure(sim)
            run("index_equality", lambda: geo.index_equality_check(L, D, sim))
            run("relations_suite", lambda: geo.relations_suite(L, D, sim, approx))
            run("transitivity_cancellativity",
                lambda: geo.transitivity_cancellativity_check(L, D, sim, approx))
    _emit(args, results,
          "\n".join(f"{k}: {v['status']}" for k, v in sorted(results.items())))
    return 1 if failures else 0


def _dot_id(text):
    """text as a quoted DOT ID: backslashes, then quotes, escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(L, D=None):
    """DOT digraph of the Hasse diagram; optional generator-class labels."""
    lines = [f"digraph {_dot_id(L.name)} {{", "  rankdir=BT;"]
    for i in range(L.n):
        lines.append(f"  n{i} [label={_dot_id(L.names[i])}];")
    for i, (a, b) in enumerate(L.covers):
        label = "" if D is None else f' [label="{D.qo.points[D.point_of_cover[i]]}"]'
        lines.append(f"  n{a} -> n{b}{label};")
    lines.append("}")
    return "\n".join(lines)


def cmd_dot(args):
    L = _load(args)
    D = dim.dimension_monoid(L) if args.labels else None
    print(export_dot(L, D))
    return 0


CATALOG_INSTANCES = (
    "chain:2", "chain:3", "chain:4", "chain:8",
    "boolean:2", "boolean:3", "boolean:4", "boolean:5",
    "M3", "N5",
    "partition:2", "partition:3", "partition:4", "partition:5",
    "subspace:2,2", "subspace:2,3", "subspace:3,2",
    "coprod_c2_c1", "coprod_c3_c1",
)


def catalog_summary(spec):
    L = lat.builtin_spec(spec)
    D = dim.dimension_monoid(L)
    k, p0 = len(D.qo.points), len(D.qo.p0)
    if k == 1:
        headline = "2" if p0 else "Z+"
    elif D.qo.is_antichain() and not p0:
        headline = f"(Z+)^{k}"
    else:
        headline = f"{k} classes, {p0} idempotent"
    return {"builtin": spec, "elements": L.n, "classes": k,
            "idempotent_classes": p0, "headline": headline}


def cmd_catalog(args):
    rows = [catalog_summary(s) for s in CATALOG_INSTANCES]
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        width = max(len(r["builtin"]) for r in rows)
        for r in rows:
            print(f"{r['builtin']:<{width}}  n={r['elements']:<5} -> {r['headline']}")
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def make_parser():
    """The argument parser, built on the first call and shared after it;
    parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="dimw", description="finite-lattice dimension monoid workbench")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, word=False, words=False, json_out=True):
        p.add_argument("--builtin", help="catalog key, e.g. partition:4 or subspace:2,3")
        p.add_argument("--file", help="lattice JSON file")
        if json_out:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if word:
            p.add_argument("--word", required=True, help="e.g. '0..a + 2*(a..1)'")
        if words:
            p.add_argument("--word", action="append", default=[],
                           help="pass twice, one per word")

    common(sub.add_parser("validate", help="load and validate a lattice"))
    common(sub.add_parser("props", help="structural predicate report"))
    common(sub.add_parser("con", help="congruence lattice summary"))
    common(sub.add_parser("dim", help="dimension monoid report"))
    common(sub.add_parser("eval", help="evaluate a dimension word"), word=True)
    common(sub.add_parser("compare", help="compare two dimension words"), words=True)
    common(sub.add_parser("geom", help="perspectivity suite"))
    pc = sub.add_parser("check", help="cross-validation checks")
    common(pc)
    pc.add_argument("--all", action="store_true", help="include the geometry checks")
    pc.add_argument("--bound", type=_positive_int, default=4)
    pd = sub.add_parser("dot", help="DOT export of the Hasse diagram")
    common(pd, json_out=False)
    pd.add_argument("--labels", action="store_true",
                    help="annotate covers with generator class ids")
    pcat = sub.add_parser("catalog", help="builtin table with headline results")
    pcat.add_argument("--json", action="store_true")
    return ap


HANDLERS = {
    "validate": cmd_validate, "props": cmd_props, "con": cmd_con,
    "dim": cmd_dim, "eval": cmd_eval, "compare": cmd_compare,
    "geom": cmd_geom, "check": cmd_check, "dot": cmd_dot, "catalog": cmd_catalog,
}


def run(argv):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    try:
        return HANDLERS[args.verb](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except MismatchError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (DimwError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
