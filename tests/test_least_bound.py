"""Least-bound oracle: brute force over every small machine.

For seeded random specs over one input and one output, each side's least
bound is found without the encoders: enumerate every Moore machine with at
most 3 states and every Mealy machine with at most 2, and model-check each
against the side's automaton.  The least n with a passing machine must be
the least bound at which each of the four encodings is satisfiable; since
an unreachable state pads any machine, every larger bound in range must be
satisfiable too.  The oracle shares only the automaton with the tool, and
nothing with the encoders, Tseitin, expansion or the SAT solver.
"""

import itertools
import random

from ltlsynth import ltl
from ltlsynth.driver import RunConfig, build_problem, make_sides
from ltlsynth.ltl import SynthSpec
from ltlsynth.solve import solve_internal
from ltlsynth.system import MEALY, MOORE, TransitionSystem, input_valuations
from ltlsynth.verify import model_check
from oracles import random_formula

ENCODINGS = ("basic", "input", "state", "full")
MAX_STATES = {MOORE: 3, MEALY: 2}


def _numbered_breadth_first(n: int, targets: tuple[int, ...], k: int) -> bool:
    """Whether a breadth-first walk from state 0, reading each state's k
    successors in order, reaches every state and meets them as 0, 1, 2, ..."""
    seen = 1
    for t in range(n):
        if t >= seen:
            return False  # t is unreachable
        for t2 in targets[t * k:(t + 1) * k]:
            if t2 > seen:
                return False
            seen += t2 == seen
    return True


def all_machines(n: int, semantics: str, inputs, outputs):
    """Every machine with n states, up to renaming the states and dropping
    unreachable ones: each (state, valuation) pair picks a successor, with
    the states numbered breadth-first from 0, and, for Mealy, a label; for
    Moore each state picks one.  Any n-state machine whose states are all
    reachable is a renaming of exactly one of these, and one with an
    unreachable state acts as a smaller machine, so the least passing n
    is the same as over all machines."""
    vals = input_valuations(inputs)
    keys = [(t, i) for t in range(n) for i in vals]
    labels = [frozenset(o for j, o in enumerate(outputs) if mask >> j & 1)
              for mask in range(1 << len(outputs))]
    per_state = semantics == MOORE
    for targets in itertools.product(range(n), repeat=len(keys)):
        if not _numbered_breadth_first(n, targets, len(vals)):
            continue
        trans = dict(zip(keys, targets))
        for outs in itertools.product(labels, repeat=n if per_state else len(keys)):
            label = {(t, i): outs[t] for t, i in keys} if per_state else dict(zip(keys, outs))
            yield TransitionSystem(n, semantics, tuple(inputs), tuple(outputs), trans, label)


def least_passing(side) -> int | None:
    """The least n within the enumerated range with a machine that passes
    the model check, or None."""
    a = side.automaton
    for n in range(1, MAX_STATES[side.semantics] + 1):
        if any(model_check(ts, a) is None
               for ts in all_machines(n, side.semantics, a.inputs, a.outputs)):
            return n
    return None


def _literal(rng: random.Random, output_share: float) -> ltl.LtlFormula:
    f = ltl.atom("o" if rng.random() < output_share else "i")
    return ltl.lnot(f) if rng.random() < 0.5 else f


def random_spec(rng: random.Random) -> SynthSpec:
    """One or two guarantees over input i and output o, each a random
    formula, G (l <-> X^k l') or G (l -> X^k l') for literals l, l' and
    k = 1, 2, or G F l.  The second shape asks the system to remember."""
    guarantees = []
    for _ in range(rng.randint(1, 2)):
        shape = rng.random()
        if shape < 0.25:
            guarantees.append(random_formula(rng, ["i", "o"], depth=2))
        elif shape < 0.75:
            later = _literal(rng, 0.75)
            for _ in range(rng.randint(1, 2)):
                later = ltl.lnext(later)
            op = rng.choice((ltl.liff, ltl.limplies))
            guarantees.append(ltl.lglobally(op(_literal(rng, 0.5), later)))
        else:
            guarantees.append(ltl.lglobally(ltl.lfinally(_literal(rng, 0.5))))
    return SynthSpec(rng.choice((MOORE, MEALY)), ("i",), ("o",), (), tuple(guarantees))


def test_least_bound_matches_enumerated_machines():
    rng = random.Random(25)
    least_seen = []
    for _ in range(20):
        spec = random_spec(rng)
        for side in make_sides(spec, RunConfig()):
            least = least_passing(side)
            least_seen.append(least)
            for encoding in ENCODINGS:
                cfg = RunConfig(encoding=encoding)
                for n in range(1, MAX_STATES[side.semantics] + 1):
                    status = solve_internal(build_problem(side, n, cfg)[0]).status
                    expected = "sat" if least is not None and n >= least else "unsat"
                    assert status == expected, (ltl.format_ltl(spec.formula()), side.role, encoding, n, least)
    # the seed reaches unsatisfiable sides and every least bound in range
    assert {None, 1, 2, 3} <= set(least_seen)
