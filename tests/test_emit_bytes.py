"""Byte gate: the emitted DIMACS/QDIMACS/DQDIMACS text of every pinned case.

Each case is encoded through the driver's dispatch and emitted in the format
its fragment needs; the SHA-256 of the text must match `emit_digests.json`.
The cases run from the suite specs up to the 4-client arbiter's system side
at bounds 4 and 8, the largest files the benchmark's `emit` workload writes,
and the suite specs again without the counter reduction
(`--no-scc-reduction`), whose ranks are compared along every edge.  The
3-client arbiter's environment side at bound 7 pins the explicit
encodings on a component with 8 rejecting states, whose 56 ranks keep
binary counters.
The digests pin the clause form of `tseitin`, which names only shared gates
and gates below a xor, so a change to node construction, encoding or
Tseitin that moves a byte fails here, naming the case.  Regenerate the file only for an intended change:

    PYTHONPATH=src:tests python tests/test_emit_bytes.py > tests/emit_digests.json
"""

import hashlib
import json
import os
import sys

from ltlsynth.driver import RunConfig, build_problem, make_sides
from ltlsynth.ltl import load_spec
from ltlsynth.logic import (FALSE, QuantifiedProblem, Store, emit_dimacs, emit_dqdimacs,
                            emit_qdimacs)
from suite import SUITE, arbiter_doc

DIGESTS = os.path.join(os.path.dirname(__file__), "emit_digests.json")
EMITTERS = {"basic": emit_dimacs, "input": emit_qdimacs, "state": emit_dqdimacs,
            "full": emit_dqdimacs}


def _cases():
    """(case name, side, bound, scc_reduction, encodings) for every suite
    spec on both sides at n = 1..3, and unreduced at n = 1, 2; for arbiter
    k = 2, 3: the system side at n = 2, 3 and the environment side at
    n = 1, 2; for arbiter k = 4: the system side at n = 4, 8; all on every
    encoding.  Then arbiter k = 3's environment side at n = 7 on the two
    explicit encodings."""
    for bench in SUITE:
        for side in make_sides(bench.spec, RunConfig()):
            for n in (1, 2, 3):
                yield f"{bench.name}/{side.role}", side, n, True, EMITTERS
            for n in (1, 2):
                yield f"{bench.name}/{side.role}/unreduced", side, n, False, EMITTERS
    for k in (2, 3):
        spec = load_spec(json.dumps(arbiter_doc(k)))
        system, environment = make_sides(spec, RunConfig())
        for side, bounds in ((system, (2, 3)), (environment, (1, 2))):
            for n in bounds:
                yield f"arbiter{k}/{side.role}", side, n, True, EMITTERS
    system = make_sides(load_spec(json.dumps(arbiter_doc(4))), RunConfig(counter_strategy="off"))[0]
    for n in (4, 8):
        yield f"arbiter4/{system.role}", system, n, True, EMITTERS
    # arbiter k = 3's environment side again: 8 rejecting states in one component
    yield "arbiter3/environment", environment, 7, True, ("basic", "input")


def digests() -> dict[str, str]:
    out = {}
    for name, side, n, scc_reduction, encodings in _cases():
        for encoding in encodings:
            problem, _ = build_problem(side, n, RunConfig(encoding=encoding, scc_reduction=scc_reduction))
            text = EMITTERS[encoding](problem)
            out[f"{name}/{encoding}/n{n}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_emitted_bytes_match_pinned_digests():
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    ours = digests()
    assert ours.keys() == pinned.keys()
    moved = [case for case in ours if ours[case] != pinned[case]]
    assert not moved, f"emitted bytes changed for {len(moved)} case(s): {', '.join(moved)}"


def _rebuilt(problem: QuantifiedProblem) -> tuple[QuantifiedProblem, dict[int, int]]:
    """The same problem built again in a fresh store, and the map from the
    old plain references to the new ones.  The variables come first, in the
    same order; then the matrix's gates, children first, in
    `Store.reachable` order, which visits a gate's last child first where
    the encoders build the first child first."""
    old, store = problem.store, Store()
    for _ in range(old.num_vars):
        store.new_var()
    gate = {"a": store.and_, "o": store.or_}
    new = {FALSE: FALSE}

    def ref(f):
        return store.not_(new[f & ~1]) if f & 1 else new[f]

    for f in old.reachable(problem.matrix):
        node = old.nodes[f >> 1]
        if node[0] == "v":
            new[f] = store.var(node[1])
        elif node[0] == "x":
            new[f] = store.xor2(*map(ref, node[1]))
        elif node[0] in gate:
            new[f] = gate[node[0]]([ref(c) for c in node[1]])
    return QuantifiedProblem(store, ref(problem.matrix), problem.prefix, problem.deps), new


def test_emitted_bytes_ignore_construction_order():
    """Each suite spec on both sides, and arbiter k = 2, 3 on both sides, at
    n = 2 on every encoding, built by the encoder and again in another
    order: the emitted text is the same although the references are not.
    An encoder passing a gate, whose reference follows construction order,
    to `Store.xor2`, which orders its operands by reference, would fail
    here."""
    sides = [side for bench in SUITE for side in make_sides(bench.spec, RunConfig())]
    for k in (2, 3):
        sides += make_sides(load_spec(json.dumps(arbiter_doc(k))), RunConfig())
    reordered = 0
    for side in sides:
        for encoding, emitter in EMITTERS.items():
            problem, _ = build_problem(side, 2, RunConfig(encoding=encoding))
            rebuilt, new = _rebuilt(problem)
            assert emitter(rebuilt) == emitter(problem), encoding
            old_ids = sorted(new)
            reordered += [new[n] for n in old_ids] != sorted(new.values())
    assert reordered > len(sides) * len(EMITTERS) // 2


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
