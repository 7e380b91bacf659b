import json
import random

import pytest

from ltlsynth.automaton import (
    Ucw,
    analyze_sccs,
    encode_symbolic,
    full_counters,
    letter_index,
    ltl_to_ucw,
)
from ltlsynth.encode import (
    cofactors,
    count_profile,
    encode_basic,
    encode_fully_symbolic,
    encode_input_symbolic,
    compile_guard,
    encode_state_symbolic,
    extract,
)
from ltlsynth.driver import RunConfig, build_problem, make_sides
from ltlsynth.logic import _AND, _OR, _VAR, FALSE, Store
from ltlsynth.ltl import load_spec, parse_ltl
from ltlsynth.solve import solve_internal
from ltlsynth.verify import build_run_graph, check_annotation, model_check
from suite import ARBITER_GUARANTEES, arbiter_doc, by_name, encode, guard


def ucw_for(text, inputs, outputs):
    return ltl_to_ucw(parse_ltl(text), inputs, outputs)


def arbiter_ucw():
    f = parse_ltl(" && ".join(f"({g})" for g in ARBITER_GUARANTEES))
    return ltl_to_ucw(f, ["r1", "r2"], ["g1", "g2"])


ALL_KINDS = ["basic", "input", "state", "full"]


# ---------------------------------------------------------------------------
# guards specialized to one input valuation, as in the basic encoding


def specialize(store, a, q, q2, i, outvars):
    """Edge guard at input valuation i: its cofactor over the outputs, whose
    atoms are the nodes in outvars."""
    table = cofactors(a.guards.get((q, q2), 0), len(a.inputs), len(a.outputs))
    return compile_guard(store, a.outputs, table[letter_index(a.inputs, i)], outvars)


def test_specialize_guard_substitution():
    a = Ucw(
        ("r1",),
        ("g1",),
        2,
        0,
        {(0, 1): guard("r1 && g1", ("r1", "g1"))},
        frozenset(),
    )
    store = Store()
    ov = {"g1": store.var(store.new_var())}
    node = specialize(store, a, 0, 1, frozenset(["r1"]), ov)
    assert node == ov["g1"]
    assert specialize(store, a, 0, 1, frozenset(), ov) == FALSE
    # absent edge: no guard, and the encoders never visit it
    assert specialize(store, a, 1, 0, frozenset(["r1"]), ov) == FALSE
    assert a.rows()[1] == []


def test_specialize_guard_mutex():
    a = Ucw(
        ("r1",),
        ("g1", "g2"),
        1,
        0,
        {(0, 0): guard("! (g1 && g2)", ("r1", "g1", "g2"))},
        frozenset(),
    )
    store = Store()
    ov = {"g1": store.var(store.new_var()), "g2": store.var(store.new_var())}
    node = specialize(store, a, 0, 0, frozenset(), ov)
    # the prime cover of !(g1 && g2): !g2 first (it holds on letter 0), then !g1
    assert node == store.or_([store.not_(ov["g2"]), store.not_(ov["g1"])])
    for v1 in (False, True):
        for v2 in (False, True):
            assert store.evaluate(node, {1: v1, 2: v2}) == (not (v1 and v2))


@pytest.mark.parametrize("n_in", range(4))
@pytest.mark.parametrize("n_out", range(4))
def test_specialized_guard_matches_letter_set(n_in, n_out):
    """At every input valuation and output letter, the compiled cofactor
    agrees with the guard's bit for that letter; with no input fixed, the
    cofactor is the guard itself."""
    rng = random.Random(1000 * n_in + n_out)
    inputs = tuple(f"i{j}" for j in range(n_in))
    outputs = tuple(f"o{j}" for j in range(n_out))
    for _ in range(12):
        g = rng.getrandbits(1 << (n_in + n_out))
        assert cofactors(g, 0, n_in + n_out) == [g]
        a = Ucw(inputs, outputs, 1, 0, {(0, 0): g}, frozenset())
        store = Store()
        ov = {name: store.var(store.new_var()) for name in outputs}
        for ii in range(1 << n_in):
            i = frozenset(name for j, name in enumerate(inputs) if ii >> j & 1)
            node = specialize(store, a, 0, 0, i, ov)
            for o in range(1 << n_out):
                values = {j + 1: bool(o >> j & 1) for j in range(n_out)}  # variables 1..n_out
                assert store.evaluate(node, values) == bool(g >> (ii | o << n_in) & 1), (g, ii, o)


def test_compile_guard_is_one_or_of_cube_ands():
    # atoms allocated against name order, so the AND's order is not the ids'
    alphabet = ("c", "b", "a")
    a = Ucw((), alphabet, 1, 0, {(0, 0): guard("(a && b && c) || (!a && !b) || (!a && !c)", alphabet)},
            frozenset())
    store = Store()
    atoms = {name: store.var(store.new_var()) for name in alphabet}
    node = compile_guard(store, alphabet, a.guards[(0, 0)], atoms)
    na, nb, nc = (store.not_(atoms[name]) for name in "abc")
    cubes = (store.and_([na, nb]), store.and_([na, nc]), store.and_([atoms["a"], atoms["b"], atoms["c"]]))
    assert store.nodes[node >> 1] == (_OR, cubes)
    assert store.nodes[cubes[2] >> 1] == (_AND, (atoms["a"], atoms["b"], atoms["c"]))


def _depth(store, root):
    """Levels on the longest path from root down to a leaf."""
    depth = {}
    for f in store.reachable(root):
        node = store.nodes[f >> 1]
        kids = node[1] if node[0] != _VAR else ()
        depth[f] = 1 + max((depth[c & ~1] for c in kids), default=0)
    return depth[root & ~1]


def _parity_doc():
    """An 11-input parity guarantee: every edge guard covers 2,048 cubes."""
    parity = "i10"
    for j in reversed(range(10)):
        parity = f"(i{j} <-> {parity})"
    return {"semantics": "mealy", "inputs": [f"i{j}" for j in range(11)], "outputs": ["o"],
            "guarantees": [f"G (o <-> {parity})"]}


@pytest.mark.parametrize("doc, n, kinds", [(arbiter_doc(4), 4, ALL_KINDS),
                                           (_parity_doc(), 1, ["input", "state", "full"])],
                         ids=["arbiter4", "parity11"])
def test_matrix_depth_is_shallow(doc, n, kinds):
    """Covers, codes and the symbolic relation are single n-ary gates, so
    no matrix grows with the number of cubes, rejecting states or edges."""
    side = make_sides(load_spec(json.dumps(doc)), RunConfig(counter_strategy="off"))[0]
    for kind in kinds:
        problem, _ = build_problem(side, n, RunConfig(encoding=kind))
        assert _depth(problem.store, problem.matrix) <= 24, kind


# ---------------------------------------------------------------------------
# Verdicts, one encoder at a time


def test_basic_globally_a_moore():
    a = ucw_for("G a", [], ["a"])
    problem, d = encode_basic(a, 1, "moore", analyze_sccs(a, 1))
    result = solve_internal(problem)
    assert result.status == "sat"
    ts = extract(result.model, d, a.inputs, a.outputs)
    assert ts.moore_label(0) == frozenset(["a"])
    assert model_check(ts, a) is None


def test_basic_false_unsat_all_bounds():
    a = ucw_for("false", [], ["a"])
    for n in (1, 2, 3):
        problem, _ = encode_basic(a, n, "moore", analyze_sccs(a, n))
        assert solve_internal(problem).status == "unsat"


def test_basic_arbiter_bounds():
    a = arbiter_ucw()
    sat1 = solve_internal(encode_basic(a, 1, "moore", analyze_sccs(a, 1))[0])
    assert sat1.status == "unsat"
    problem, d = encode_basic(a, 2, "moore", analyze_sccs(a, 2))
    result = solve_internal(problem)
    assert result.status == "sat"
    ts = extract(result.model, d, a.inputs, a.outputs)
    assert model_check(ts, a) is None


def test_input_symbolic_copy_machine():
    a = ucw_for("G (g <-> r)", ["r"], ["g"])
    problem, d = encode_input_symbolic(a, 1, "mealy", analyze_sccs(a, 1))
    result = solve_internal(problem)
    assert result.status == "sat"
    ts = extract(result.model, d, a.inputs, a.outputs)
    assert model_check(ts, a) is None
    assert ts.label[(0, frozenset(["r"]))] == frozenset(["g"])
    assert ts.label[(0, frozenset())] == frozenset()


def test_input_symbolic_copy_moore_unsat():
    a = ucw_for("G (g <-> r)", ["r"], ["g"])
    for n in (1, 2, 3):
        problem, _ = encode_input_symbolic(a, n, "moore", analyze_sccs(a, n))
        assert solve_internal(problem).status == "unsat"


def test_state_symbolic_single_state_no_bits():
    a = ucw_for("G a", [], ["a"])
    problem, d = encode_state_symbolic(a, 1, "moore", analyze_sccs(a, 1))
    assert d.univ_state == [] and d.trans == {}
    result = solve_internal(problem)
    assert result.status == "sat"
    ts = extract(result.model, d, a.inputs, a.outputs)
    assert model_check(ts, a) is None


def test_fully_symbolic_single_state():
    a = ucw_for("G a", [], ["a"])
    scc = analyze_sccs(a, 1)
    problem, d = encode_fully_symbolic(a, encode_symbolic(a), 1, "moore", scc)
    result = solve_internal(problem)
    assert result.status == "sat"
    ts = extract(result.model, d, a.inputs, a.outputs)
    assert model_check(ts, a) is None


def test_fully_symbolic_arbiter_unsat_at_one():
    a = arbiter_ucw()
    scc = analyze_sccs(a, 1)
    problem, _ = encode_fully_symbolic(a, encode_symbolic(a), 1, "moore", scc)
    assert solve_internal(problem).status == "unsat"


# ---------------------------------------------------------------------------
# Cross-encoding agreement (representative slice; the full sweep is in
# the acceptance suite)


@pytest.mark.parametrize("bench_name", ["copy_moore", "blinker", "arbiter"])
@pytest.mark.parametrize("n", [1, 2])
def test_encodings_agree(bench_name, n):
    bench = by_name(bench_name)
    spec = bench.spec
    a = ltl_to_ucw(spec.formula(), spec.inputs, spec.outputs)
    verdicts = {}
    for kind in ALL_KINDS:
        problem, _ = encode(kind, a, n, spec.semantics)
        verdicts[kind] = solve_internal(problem).status
    assert len(set(verdicts.values())) == 1, verdicts
    expected = "sat" if bench.least_bound is not None and n >= bench.least_bound else "unsat"
    assert verdicts["basic"] == expected


def test_reduction_agrees_with_full_counters():
    for name in ("arbiter", "copy_moore", "eventually_out"):
        spec = by_name(name).spec
        a = ltl_to_ucw(spec.formula(), spec.inputs, spec.outputs)
        for n in (1, 2):
            for kind in ("basic", "input", "state"):
                reduced = solve_internal(encode(kind, a, n, spec.semantics, True)[0])
                full = solve_internal(encode(kind, a, n, spec.semantics, False)[0])
                assert reduced.status == full.status, (name, n, kind)


def test_monotone_in_bound():
    for name in ("arbiter", "blinker", "echo_mealy"):
        bench = by_name(name)
        spec = bench.spec
        a = ltl_to_ucw(spec.formula(), spec.inputs, spec.outputs)
        nb = bench.least_bound
        assert nb is not None
        for kind in ALL_KINDS:
            assert solve_internal(encode(kind, a, nb, spec.semantics)[0]).status == "sat"
            assert (
                solve_internal(encode(kind, a, nb + 1, spec.semantics)[0]).status
                == "sat"
            )


# ---------------------------------------------------------------------------
# Model projection properties


def test_basic_model_projects_to_valid_annotation():
    """Unreduced models carry a full annotation in the verify module's sense."""
    a = arbiter_ucw()
    scc = full_counters(a, 2)
    problem, d = encode_basic(a, 2, "moore", scc)
    result = solve_internal(problem)
    assert result.status == "sat"
    values = result.model.assignment
    ts = extract(result.model, d, a.inputs, a.outputs)
    graph = build_run_graph(ts, a)
    lam = {}
    for (t, q), var in d.reach.items():
        if values.get(var, False):
            # "rank >= j" variables: the rank is the largest j whose variable is true
            ge = d.rank[(t, q)]
            lam[(t, q)] = max((j for j, v in enumerate(ge, 1) if values.get(v, False)), default=0)
        else:
            lam[(t, q)] = None
    assert check_annotation(graph, lam) is None


def test_directory_injective_and_covering():
    a = arbiter_ucw()
    for kind in ALL_KINDS:
        problem, d = encode(kind, a, 2, "moore")
        ids = d.all_vars()
        assert len(ids) == len(set(ids))
        assert sorted(ids) == list(range(1, problem.store.num_vars + 1))


# ---------------------------------------------------------------------------
# count_profile


def test_count_profile_basic_example():
    # n=2, m=1, |I|=1, |O|=1, no reduction, b=2 -> 18 existentials
    a = Ucw(("i",), ("o",), 1, 0, {(0, 0): guard("true", ("i", "o"))}, frozenset([0]))
    scc = full_counters(a, 2)
    assert scc.counter_bits == 2
    problem, d = encode_basic(a, 2, "mealy", scc)
    n_exist, n_univ, n_nodes = count_profile(problem)
    assert n_exist == 18
    assert n_univ == 0
    assert n_nodes > 0


def test_count_profile_closed_forms_arbiter():
    a = arbiter_ucw()
    n = 2
    m = a.n_states
    n_i, n_o = len(a.inputs), len(a.outputs)
    scc = analyze_sccs(a, n)
    b = scc.counter_bits
    c = len(scc.counted)
    ranks = sum(map(scc.rank_width, scc.counted))  # the explicit encoders' rank variables per state

    p_basic, _ = encode_basic(a, n, "mealy", scc)
    e, u, _ = count_profile(p_basic)
    assert e == n * m + n * ranks + n * (1 << n_i) * n + n * (1 << n_i) * n_o
    assert u == 0

    p_input, _ = encode_input_symbolic(a, n, "mealy", scc)
    e, u, _ = count_profile(p_input)
    assert e == n * m + n * ranks + n * n + n * n_o
    assert u == n_i

    p_state, _ = encode_state_symbolic(a, n, "mealy", scc)
    e, u, _ = count_profile(p_state)
    k = (n - 1).bit_length()
    assert e == 2 * m + 2 * c * b + k + n_o
    assert u == n_i + 2 * k

    width = encode_symbolic(a)
    p_full, _ = encode_fully_symbolic(a, width, n, "mealy", scc)
    e, u, _ = count_profile(p_full)
    assert e == 2 + 2 * b + k + n_o
    assert u == n_i + 2 * k + 2 * width


def test_count_profile_growth_with_inputs():
    """Extra input atom: basic existentials double, input-symbolic unchanged."""
    f = parse_ltl("G o")
    one = ltl_to_ucw(f, ["i1"], ["o"])
    two = ltl_to_ucw(f, ["i1", "i2"], ["o"])
    assert one.n_states == two.n_states
    n = 2
    counts = {}
    for tag, a in (("one", one), ("two", two)):
        scc = analyze_sccs(a, n)
        eb, ub, _ = count_profile(encode_basic(a, n, "mealy", scc)[0])
        ei, ui, _ = count_profile(encode_input_symbolic(a, n, "mealy", scc)[0])
        counts[tag] = (eb, ub, ei, ui)
    m = one.n_states
    scc = analyze_sccs(one, n)
    fixed = n * m + n * sum(map(scc.rank_width, scc.counted))
    assert counts["two"][0] - fixed == 2 * (counts["one"][0] - fixed)
    assert counts["two"][2] == counts["one"][2]
    assert counts["two"][3] == counts["one"][3] + 1
