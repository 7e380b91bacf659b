import random

import pytest

from ltlsynth.automaton import Ucw, ltl_to_ucw, ucw_accepts_lasso
from ltlsynth.ltl import parse_ltl
from ltlsynth.system import TransitionSystem, input_valuations, moore_system
from ltlsynth.verify import (
    CounterexampleLasso,
    RunGraph,
    Violation,
    build_run_graph,
    check_annotation,
    counterexample_refutes,
    infer_annotation,
    model_check,
)
from suite import guard
from test_system import arbiter_system

ARBITER = "G (r1 -> X F g1) && G (r2 -> X F g2) && G ! (g1 && g2)"


def arbiter_ucw():
    return ltl_to_ucw(parse_ltl(ARBITER), ["r1", "r2"], ["g1", "g2"])


def constant_moore(outputs_on, inputs=(), outputs=("a",)):
    vals = input_valuations(inputs)
    return moore_system(
        1, list(inputs), list(outputs), {(0, v): 0 for v in vals}, [list(outputs_on)]
    )


def g_a_ucw():
    return ltl_to_ucw(parse_ltl("G a"), [], ["a"])


def test_run_graph_constant_a_self_loop():
    g = build_run_graph(constant_moore(["a"]), g_a_ucw())
    assert g.initial in g.vertices
    # every reachable vertex only loops among non-rejecting vertices
    assert infer_annotation(g) is not None


def test_run_graph_constant_empty_reaches_rejecting_sink():
    g = build_run_graph(constant_moore([]), g_a_ucw())
    assert any(v in g.rejecting for v in g.vertices)
    assert infer_annotation(g) is None


def test_run_graph_alphabet_mismatch():
    with pytest.raises(ValueError):
        build_run_graph(constant_moore(["a"], outputs=("a",)), arbiter_ucw())


def test_run_graph_arbiter_paper_edges():
    """The paper's Fig. 2 product structure via a hand-built automaton.

    q0 tracks nothing, q2 tracks a pending g2 request; with the alternator
    the product must contain (t0,q0)->(t1,q2) and (t0,q2)->(t1,q2).
    """
    alphabet = ("r1", "r2", "g1", "g2")
    hand = Ucw(
        ("r1", "r2"),
        ("g1", "g2"),
        2,
        0,
        {
            (0, 0): guard("true", alphabet),
            (0, 1): guard("r2 && ! g2", alphabet),
            (1, 1): guard("! g2", alphabet),
        },
        frozenset([1]),
    )
    g = build_run_graph(arbiter_system(), hand)
    pairs = {(v, w) for v in g.edges for w in g.edges[v]}
    assert ((0, 0), (1, 1)) in pairs
    # (t1,q2) loops back into (t0,q2)? no: t1 emits g2, killing the q2 loop
    assert ((1, 1), (0, 1)) not in pairs


def _fig2_graph():
    """Hand-built fragment of the arbiter run graph used by the paper."""
    t0q0, t0q2, t1q2 = (0, 0), (0, 2), (1, 2)
    return RunGraph(
        initial=t0q0,
        vertices=[t0q0, t0q2, t1q2],
        edges={t0q0: [t1q2], t0q2: [t1q2], t1q2: []},
        rejecting=frozenset([t0q2, t1q2]),
    )


def test_check_annotation_fig2_passes_at_two():
    g = _fig2_graph()
    lam = {(0, 0): 0, (0, 2): 1, (1, 2): 2}
    assert check_annotation(g, lam) is None


def test_check_annotation_fig2_rejects_below_two():
    g = _fig2_graph()
    for low in (0, 1):
        result = check_annotation(g, {(0, 0): 0, (0, 2): 1, (1, 2): low})
        assert isinstance(result, Violation)
        assert result.edge is not None
        assert result.edge[1] == (1, 2)


def test_check_annotation_unnumbered_initial():
    g = _fig2_graph()
    result = check_annotation(g, {(0, 0): None, (0, 2): 1, (1, 2): 2})
    assert isinstance(result, Violation)


def test_check_annotation_rejecting_self_loop_impossible():
    v = (0, 0)
    g = RunGraph(v, [v], {v: [v]}, frozenset([v]))
    assert check_annotation(g, {v: 0}) is not None
    assert check_annotation(g, {v: 5}) is not None
    assert infer_annotation(g) is None


def test_infer_annotation_arbiter_self_consistent():
    g = build_run_graph(arbiter_system(), arbiter_ucw())
    lam = infer_annotation(g)
    assert lam is not None
    assert check_annotation(g, lam) is None
    bound = 2 * len(arbiter_ucw().rejecting)
    assert all(0 <= k <= bound for k in lam.values())


def test_infer_annotation_true_automaton_all_zero():
    a = ltl_to_ucw(parse_ltl("true"), [], ["a"])
    for system in (constant_moore(["a"]), constant_moore([])):
        g = build_run_graph(system, a)
        lam = infer_annotation(g)
        assert lam is not None
        assert set(lam.values()) == {0}


def test_model_check_arbiter_passes():
    assert model_check(arbiter_system(), arbiter_ucw()) is None


def test_model_check_constant_both_grants_fails():
    vals = input_valuations(["r1", "r2"])
    bad = moore_system(
        1, ["r1", "r2"], ["g1", "g2"], {(0, v): 0 for v in vals}, [["g1", "g2"]]
    )
    a = arbiter_ucw()
    lasso = model_check(bad, a)
    assert isinstance(lasso, CounterexampleLasso)
    assert counterexample_refutes(bad, a, lasso)


def _random_io_system(rng: random.Random, n: int) -> TransitionSystem:
    vals = input_valuations(["i0"])
    trans = {}
    label = {}
    for t in range(n):
        for i in vals:
            trans[(t, i)] = rng.randrange(n)
            label[(t, i)] = frozenset(["o0"]) if rng.random() < 0.5 else frozenset()
    return TransitionSystem(n, "mealy", ("i0",), ("o0",), trans, label)


def test_model_check_counterexamples_always_refute():
    rng = random.Random(27)
    from oracles import random_formula

    checked = 0
    for _ in range(40):
        f = random_formula(rng, ["i0", "o0"], depth=3)
        a = ltl_to_ucw(f, ["i0"], ["o0"])
        ts = _random_io_system(rng, rng.randrange(1, 4))
        lasso = model_check(ts, a)
        if lasso is not None:
            assert counterexample_refutes(ts, a, lasso)
            checked += 1
    assert checked >= 10


def test_model_check_agrees_with_exhaustive_lassos():
    """Pass iff every short input lasso induces an accepted trace."""
    rng = random.Random(31)
    from oracles import all_lassos, random_formula
    from ltlsynth.system import run

    exercised = 0
    for _ in range(40):
        f = random_formula(rng, ["i0", "o0"], depth=2)
        a = ltl_to_ucw(f, ["i0"], ["o0"])
        ts = _random_io_system(rng, rng.randrange(1, 3))
        bound = ts.n * a.n_states
        if bound > 4:
            continue
        verdict = model_check(ts, a) is None
        ok = True
        for prefix, loop in all_lassos(["i0"], bound, bound):
            steps = prefix + loop
            trace = [i | o for i, (_, o) in zip(steps, run(ts, steps))]
            # only lassos where the system state recurs induce periodic traces
            states = [t for t, _ in run(ts, steps + loop)] + [0]
            if states[len(prefix)] != states[len(prefix) + len(loop)]:
                continue
            if not ucw_accepts_lasso(a, trace[: len(prefix)], trace[len(prefix):]):
                ok = False
                break
        assert verdict == ok
        exercised += 1
    assert exercised >= 10
