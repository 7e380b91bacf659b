"""Small benchmark suite with hand-derived ground truth.

Each entry: name, semantics, inputs, outputs, guarantee/assumption lists,
whether the system side is realizable, and the least realizing bound when
at most 3 (None otherwise).  Mixes safety and liveness, realizable and
unrealizable, Mealy and Moore, |I|,|O| <= 2.
"""

from dataclasses import dataclass

from ltlsynth.driver import RunConfig, SideProblem, build_problem, make_sides, search_realizability
from ltlsynth.ltl import SynthSpec, parse_ltl
from oracles import all_letters, eval_ltl_lasso


@dataclass
class Bench:
    name: str
    spec: SynthSpec
    realizable: bool
    least_bound: int | None  # least realizing bound if <= 3


def _spec(semantics, inputs, outputs, guarantees, assumptions=()):
    return SynthSpec(
        semantics,
        tuple(inputs),
        tuple(outputs),
        tuple(parse_ltl(f) for f in assumptions),
        tuple(parse_ltl(f) for f in guarantees),
    )


ARBITER_GUARANTEES = [
    "G (r1 -> X F g1)",
    "G (r2 -> X F g2)",
    "G ! (g1 && g2)",
]


SUITE = [
    Bench("const_true", _spec("moore", ["i"], ["o"], ["true"]), True, 1),
    Bench("always_out", _spec("moore", ["i"], ["o"], ["G o"]), True, 1),
    Bench("eventually_out", _spec("moore", ["i"], ["o"], ["F o"]), True, 1),
    Bench("copy_mealy", _spec("mealy", ["i"], ["o"], ["G (o <-> i)"]), True, 1),
    Bench("copy_moore", _spec("moore", ["i"], ["o"], ["G (o <-> i)"]), False, None),
    Bench(
        "arbiter",
        _spec("moore", ["r1", "r2"], ["g1", "g2"], ARBITER_GUARANTEES),
        True,
        2,
    ),
    Bench("blinker", _spec("moore", ["i"], ["o"], ["G (o <-> X ! o)"]), True, 2),
    Bench("force_input", _spec("moore", ["i"], ["o"], ["F i"]), False, None),
    Bench(
        "contradiction",
        _spec("moore", ["i"], ["o"], ["F o", "G ! o"]),
        False,
        None,
    ),
    Bench(
        "assume_live",
        _spec("moore", ["i"], ["o"], ["G F o"], assumptions=["G F i"]),
        True,
        1,
    ),
    Bench(
        "mutex_live",
        _spec("moore", ["i"], ["o1", "o2"], ["G ! (o1 && o2)", "G F o1", "G F o2"]),
        True,
        2,
    ),
    Bench("req_grant", _spec("moore", ["i"], ["o"], ["G (i -> F o)"]), True, 1),
    Bench("clairvoyant", _spec("mealy", ["i"], ["o"], ["G (o <-> X i)"]), False, None),
    Bench("echo_mealy", _spec("mealy", ["i"], ["o"], ["G (X o <-> i)"]), True, 2),
]


def by_name(name: str) -> Bench:
    return next(b for b in SUITE if b.name == name)


def arbiter_doc(k):
    """Moore k-client arbiter: every request is granted later, grants exclude each other."""
    clients = range(1, k + 1)
    guarantees = [f"G (r{i} -> X F g{i})" for i in clients]
    guarantees += [f"G ! (g{i} && g{j})" for i in clients for j in clients if i < j]
    return {
        "semantics": "moore",
        "inputs": [f"r{i}" for i in clients],
        "outputs": [f"g{i}" for i in clients],
        "guarantees": guarantees,
    }


def encode(kind, a, n, sem, reduction=True):
    """Encode an automaton through the driver's dispatch, as the CLI does."""
    side = SideProblem("system", a, sem)
    return build_problem(side, n, RunConfig(encoding=kind, scc_reduction=reduction))


def search(spec: SynthSpec, cfg: RunConfig):
    """Build both sides once and search them, as the CLI does."""
    return search_realizability(make_sides(spec, cfg), cfg)


def guard(text: str, alphabet) -> int:
    """Letter-set guard of a propositional formula over alphabet, for
    hand-built automata: bit j of a letter's index is alphabet[j], and the
    letters are found with the independent lasso oracle."""
    f = parse_ltl(text)
    mask = 0
    for letter in all_letters(list(alphabet)):
        if eval_ltl_lasso(f, [], [letter]):
            mask |= 1 << sum(1 << j for j, name in enumerate(alphabet) if name in letter)
    return mask
