#!/usr/bin/env python3
"""Write perfbench/reference.json: the pinned answers the benchmark checks.

Run from the root of a checkout, on the commit whose answers are to be pinned:

    python3 perfbench/make_reference.py

Each verb runs on the unshuffled builtin (`--builtin`); the benchmark feeds
shuffled files, so a match also shows that shuffling changes no answer.
"""

import json
import sys
from pathlib import Path

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Today's answer for the lattice behind the deliberately red acceptance test
# (the README explains why its pinned 8 classes / 1 idempotent cannot hold).
COPROD_C3_C1 = {"classes": 11, "idempotent": 0}


def main():
    prog = workloads.import_program(ROOT)
    lattice, dimension, cli = prog["lattice"], prog["dimension"], prog["cli"]
    verb_ops = {(verb, spec) for ops in workloads.VERB_WORKLOADS.values() for verb, spec in ops}
    specs = sorted({spec for _, spec in verb_ops} | {spec for spec, _ in workloads.WORDS_MIX})
    ref = {"instances": {}, "verbs": {}}
    for spec in specs:
        L = lattice.builtin_spec(spec)
        ref["instances"][spec] = {"n": L.n, "covers": len(L.covers),
                                  "caustic_pairs": len(dimension.caustic_pairs(L))}
        print(spec, ref["instances"][spec], file=sys.stderr)
    for verb, spec in sorted(verb_ops):
        rc, out, err = workloads.run_verb(cli, verb.split() + ["--builtin", spec, "--json"])
        if rc != 0:
            raise SystemExit(f"{verb} {spec} exited {rc}: {err}")
        ref["verbs"].setdefault(verb, {})[spec] = checker.canonical(verb.split()[0], out)
    got = ref["verbs"]["dim"]["coprod_c3_c1"]
    if {k: got[k] for k in COPROD_C3_C1} != COPROD_C3_C1:
        raise SystemExit(f"coprod_c3_c1 gives {got}, expected {COPROD_C3_C1}")
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
