import json
import os
import random
import subprocess
import sys
from functools import lru_cache

import networkx as nx
import pytest

from ltlsynth import ltl
from ltlsynth.automaton import (
    ORDER_RANKS_MAX,
    Ucw,
    analyze_sccs,
    cube_mask,
    encode_symbolic,
    explore,
    full_counters,
    letter_index,
    ltl_to_ucw,
    prime_cover,
    rejecting_cycle,
    sccs,
    ucw_accepts_lasso,
    ucw_to_dot,
)
from ltlsynth.encode import symbolic_nodes
from ltlsynth.logic import Store
from ltlsynth.ltl import load_spec, parse_ltl
from oracles import all_lassos, all_letters, eval_ltl_lasso, random_formula
from suite import SUITE, arbiter_doc, guard

ARBITER = "G (r1 -> X F g1) && G (r2 -> X F g2) && G ! (g1 && g2)"


def ucw(text, inputs, outputs):
    return ltl_to_ucw(parse_ltl(text), inputs, outputs)


@lru_cache(maxsize=None)
def arbiter_sides(k):
    """The k-client arbiter's formula and its system and environment automata."""
    spec = load_spec(json.dumps(arbiter_doc(k)))
    f = spec.formula()
    system = ltl_to_ucw(f, spec.inputs, spec.outputs)
    return f, system, ltl_to_ucw(ltl.negate(f), spec.outputs, spec.inputs)


def test_guard_eval():
    alphabet = ("r1", "g1")
    g = guard("r1 && ! g1", alphabet)
    assert g >> letter_index(alphabet, frozenset(["r1"])) & 1
    assert not g >> letter_index(alphabet, frozenset(["r1", "g1"])) & 1
    assert g == cube_mask(alphabet, {"r1": True, "g1": False})
    assert g != 0
    assert guard("a && ! a", ("a",)) == 0


def test_ucw_globally_accepts_expected_lassos():
    a = ucw("G a", [], ["a"])
    on = frozenset(["a"])
    off = frozenset()
    for prefix, loop in all_lassos(["a"], 2, 2):
        expected = all(l == on for l in prefix + loop)
        assert ucw_accepts_lasso(a, prefix, loop) == expected
    assert ucw_accepts_lasso(a, [], [on])
    assert not ucw_accepts_lasso(a, [off], [on])


def test_ucw_false_accepts_nothing():
    a = ucw("false", [], ["a"])
    for prefix, loop in all_lassos(["a"], 1, 2):
        assert not ucw_accepts_lasso(a, prefix, loop)


def test_ucw_arbiter_paper_lassos():
    a = ucw(ARBITER, ["r1", "r2"], ["g1", "g2"])
    # the alternating-grant word realizes the arbiter formula
    assert ucw_accepts_lasso(a, [], [frozenset(["g1"]), frozenset(["g2"])])
    assert ucw_accepts_lasso(
        a, [], [frozenset(["r1", "g1"]), frozenset(["r2", "g2"])]
    )
    # simultaneous grants violate mutual exclusion
    assert not ucw_accepts_lasso(a, [], [frozenset(["g1", "g2"])])
    # a pending request never granted violates liveness
    assert not ucw_accepts_lasso(a, [], [frozenset(["r1"])])


def test_ltl_to_ucw_rejects_stray_atoms():
    with pytest.raises(ValueError):
        ucw("G x", ["a"], ["b"])


def test_language_against_trace_oracle_small():
    rng = random.Random(21)
    lassos = list(all_lassos(["a", "b"], 2, 2))
    for _ in range(40):
        f = random_formula(rng, ["a", "b"], depth=3)
        a = ltl_to_ucw(f, ["a"], ["b"])
        for prefix, loop in lassos:
            assert ucw_accepts_lasso(a, prefix, loop) == eval_ltl_lasso(
                f, prefix, loop
            ), ltl.format_ltl(f)


def test_language_against_trace_oracle_four_atoms():
    rng = random.Random(22)
    atoms = ["a", "b", "c", "d"]
    letters = all_letters(atoms)
    for _ in range(25):
        f = random_formula(rng, atoms, depth=3)
        a = ltl_to_ucw(f, ["a", "b"], ["c", "d"])
        for _ in range(60):
            prefix = [rng.choice(letters) for _ in range(rng.randrange(0, 3))]
            loop = [rng.choice(letters) for _ in range(rng.randrange(1, 3))]
            assert ucw_accepts_lasso(a, prefix, loop) == eval_ltl_lasso(
                f, prefix, loop
            ), ltl.format_ltl(f)


def test_arbiter_language_against_trace_oracle():
    """Both sides of arbiter k = 2..4, whose negation (system) and formula
    (environment) are conjunctions that the construction splits, on seeded
    lassos.  Grants mostly keep mutual exclusion, so that the response
    properties decide many words; uniform letters would break it in almost
    every word."""
    rng = random.Random(24)
    for k in (2, 3, 4):
        f, system, environment = arbiter_sides(k)
        requests = [f"r{i}" for i in range(1, k + 1)]
        grants = [f"g{i}" for i in range(1, k + 1)]

        def letter():
            out = {r for r in requests if rng.random() < 0.5}
            granted = rng.sample(grants, 2) if rng.random() < 0.05 else [rng.choice(grants + [None])]
            return frozenset(out | set(granted) - {None})

        verdicts = set()
        for _ in range(150):
            prefix = [letter() for _ in range(rng.randrange(0, 3))]
            loop = [letter() for _ in range(rng.randrange(1, 4))]
            holds = eval_ltl_lasso(f, prefix, loop)
            verdicts.add(holds)
            assert ucw_accepts_lasso(system, prefix, loop) == holds, (k, prefix, loop)
            assert ucw_accepts_lasso(environment, prefix, loop) != holds, (k, prefix, loop)
        assert verdicts == {False, True}


def test_globally_propositional_conjuncts_fold_into_guards():
    """A conjunct G p of the negation with p propositional adds no state:
    it cuts the letters of its disjunct, and G false drops the disjunct."""
    alphabet = ("a", "b")
    lassos = list(all_lassos(["a", "b"], 2, 2))
    cases = [
        # negation F a && G false: no run, so every word is accepted
        ("! (F a && G false)", 1, 0),
        # negation G a && G ! b: one rejecting state looping on a && !b
        ("! (G a && G ! b)", 2, 1),
        # the same beside a disjunct that G false empties
        ("! ((G a && G ! b) || (X b && G (a && ! a)))", 2, 1),
        # a folded conjunct beside a temporal one; one tableau of both gives 4
        ("! (G (a || b) && (a U b))", 3, 1),
    ]
    for text, n_states, n_rejecting in cases:
        f = parse_ltl(text)
        a = ltl_to_ucw(f, ["a"], ["b"])
        assert (a.n_states, len(a.rejecting)) == (n_states, n_rejecting), text
        for prefix, loop in lassos:
            assert ucw_accepts_lasso(a, prefix, loop) == eval_ltl_lasso(f, prefix, loop), text
    a = ucw("! (G a && G ! b)", ["a"], ["b"])
    assert a.guards == {(0, 1): guard("a && ! b", alphabet), (1, 1): guard("a && ! b", alphabet)}


def test_until_with_true_right_side_is_always_fulfilled():
    """x U true holds at once; the tableau never puts true among a node's
    formulas, so its acceptance set must not wait for it."""
    lassos = list(all_lassos(["a", "b"], 1, 2))
    for text in ("G F true", "! G F true", "! G (a U true)", "(G (false U true) <-> a)",
                 "! X F (b R false)"):
        f = parse_ltl(text)
        a = ltl_to_ucw(f, ["a"], ["b"])
        for prefix, loop in lassos:
            assert ucw_accepts_lasso(a, prefix, loop) == eval_ltl_lasso(f, prefix, loop), text


def _reachable_with_live_guards(a):
    """States reachable from the initial state; asserts every guard is nonempty."""
    rows = a.rows()
    reach, frontier = {a.initial}, [a.initial]
    while frontier:
        for q2, g in rows[frontier.pop()]:
            assert g, f"empty guard into q{q2}"
            if q2 not in reach:
                reach.add(q2)
                frontier.append(q2)
    return reach


def test_every_state_reachable_and_every_guard_nonempty():
    """The tableau creates a node only as a successor of an existing one, and
    each guard is the cube of a consistent literal set; so ltl_to_ucw needs
    no pruning pass, and the product of tableaux builds only reachable
    states with a nonempty letter set.  Checked on random formulas of both
    polarities, on both sides of every suite spec and on the environment
    side of arbiter k = 2..4."""
    rng = random.Random(23)
    automata = []
    for _ in range(150):
        f = random_formula(rng, ["a", "b", "c"], depth=rng.randrange(1, 6))
        for g in (f, ltl.lnot(f)):
            automata.append(ltl_to_ucw(g, ["a"], ["b", "c"]))
    for bench in SUITE:
        f = bench.spec.formula()
        automata.append(ltl_to_ucw(f, bench.spec.inputs, bench.spec.outputs))
        automata.append(ltl_to_ucw(ltl.negate(f), bench.spec.outputs, bench.spec.inputs))
    automata.extend(arbiter_sides(k)[2] for k in (2, 3, 4))
    for a in automata:
        assert _reachable_with_live_guards(a) == set(range(a.n_states))


_DUMP_SUITE_AUTOMATA = """
import json
import suite
from ltlsynth.driver import RunConfig, make_sides
from ltlsynth.ltl import load_spec
benches = [(bench.name, bench.spec) for bench in suite.SUITE]
benches.append(("arbiter3", load_spec(json.dumps(suite.arbiter_doc(3)))))
for name, spec in benches:
    for side in make_sides(spec, RunConfig()):
        a = side.automaton
        print(name, side.role, a.n_states, a.initial, sorted(a.rejecting), sorted(a.guards.items()))
"""


def test_automata_independent_of_hash_seed():
    """Both sides of every suite spec and of arbiter k = 3, built in two
    processes with different string hashing, are the same automaton."""
    paths = [os.path.dirname(os.path.dirname(ltl.__file__)), os.path.dirname(__file__)]
    dumps = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(paths))
        dumps.append(subprocess.run(
            [sys.executable, "-c", _DUMP_SUITE_AUTOMATA],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert dumps[0].count("\n") == 2 * len(SUITE) + 2
    assert dumps[0] == dumps[1]


# ---------------------------------------------------------------------------
# Product search


def search(graph, rejecting):
    """explore from 'a' over a dict of (label, successor) lists, then
    rejecting_cycle over the named rejecting vertices; the cycle by name."""
    vertices, succ, _ = explore("a", lambda v: graph.get(v, []))
    comp = rejecting_cycle(succ, {vertices.index(v) for v in rejecting if v in vertices})
    return None if comp is None else sorted(vertices[j] for j in comp)


def test_rejecting_cycle_needs_a_cycle_through_a_rejecting_vertex():
    assert search({"a": [(0, "b")], "b": [(0, "b")]}, {"b"}) == ["b"]
    assert search({"a": [(0, "b")]}, {"b"}) is None
    assert search({"a": [(0, "b")], "b": [(0, "a")]}, {"b"}) == ["a", "b"]
    # reachable only from a cycle of non-rejecting vertices
    assert search({"a": [(0, "b")], "b": [(0, "a"), (0, "c")]}, {"c"}) is None


def test_explore_merges_duplicate_moves_keeping_the_first_label():
    vertices, succ, labels = explore("a", {"a": [("x", "b"), ("y", "b")], "b": []}.get)
    assert (vertices, succ, labels) == (["a", "b"], [[1], []], {(0, 1): "x"})


def test_explore_numbers_vertices_when_first_seen():
    graph = {"a": [(0, "b"), (0, "c")], "b": [(0, "e")], "c": [(0, "d")], "d": [], "e": []}
    vertices, succ, _ = explore("a", graph.get)
    # c is expanded before b (last in, first out), but b was seen first
    assert vertices == ["a", "b", "c", "d", "e"]
    assert succ == [[1, 2], [4], [3], [], []]


# ---------------------------------------------------------------------------
# SCC analysis


def test_analyze_sccs_non_rejecting_loop():
    a = Ucw((), ("a",), 1, 0, {(0, 0): guard("true", ("a",))}, frozenset())
    info = analyze_sccs(a, 3)
    assert info.counted == frozenset()
    assert info.counter_bits == 1


def test_analyze_sccs_finally_wait_state():
    a = ucw("F g", [], ["g"])
    info = analyze_sccs(a, 2)
    # |F| = 1 rejecting wait state; bound n*|F| = 2 so two counter bits
    assert len(a.rejecting) == 1
    assert info.counter_bits == 2
    (wait,) = a.rejecting
    assert wait in info.counted


def test_analyze_sccs_arbiter_has_counted_rejecting_state():
    a = ucw(ARBITER, ["r1", "r2"], ["g1", "g2"])
    assert a.rejecting
    assert any(q in info_counted for info_counted in [analyze_sccs(a, 2).counted] for q in a.rejecting)


def test_analyze_sccs_matches_networkx():
    rng = random.Random(5)
    for _ in range(30):
        f = random_formula(rng, ["a", "b"], depth=3)
        a = ltl_to_ucw(f, ["a"], ["b"])
        info = analyze_sccs(a, 2)
        g = nx.DiGraph()
        g.add_nodes_from(range(a.n_states))
        for (q, q2), letters in a.guards.items():
            if letters != 0:
                g.add_edge(q, q2)
        expected = set()
        for comp in nx.strongly_connected_components(g):
            if any(q in a.rejecting for q in comp):
                expected |= comp
        assert info.counted == expected
        # one component id per counted component, distinct across them
        ids = [{info.component[q] for q in comp}
               for comp in nx.strongly_connected_components(g) if comp <= expected]
        assert all(len(c) == 1 for c in ids)
        assert len(set().union(*ids)) == len(ids)


@pytest.mark.parametrize("adj, expected", [
    ([[]], [[0]]),
    ([[0]], [[0]]),
    ([[1], [2], [0]], [[2, 1, 0]]),
    ([[1, 2], [3], [3, 1], [], [4, 0]], [[3], [1], [2], [0], [4]]),
    ([[1], [2, 4], [3, 1], [2], [5], [6], [4, 7], []], [[7], [6, 5, 4], [3, 2, 1], [0]]),
    ([[3, 1], [0, 2], [1], [4], [5], [3], [5, 0]], [[5, 4, 3], [2, 1, 0], [6]]),
    ([[2], [0, 3], [1], [4], [6, 5], [3], [4]], [[5, 6, 4, 3], [1, 2, 0]]),
])
def test_sccs_exact_order(adj, expected):
    """The components and their member order, not only the sets:
    `rejecting_cycle` returns the first match, and the counter analysis
    reads the components in reverse topological order."""
    assert sccs(len(adj), adj.__getitem__) == expected


def test_counted_monotone_under_adding_rejecting():
    rng = random.Random(6)
    for _ in range(20):
        f = random_formula(rng, ["a", "b"], depth=3)
        a = ltl_to_ucw(f, ["a"], ["b"])
        base = analyze_sccs(a, 2).counted
        extra = frozenset(a.rejecting | {a.n_states - 1})
        grown = Ucw(a.inputs, a.outputs, a.n_states, a.initial, a.guards, extra)
        assert base <= analyze_sccs(grown, 2).counted


def test_full_counters():
    a = ucw("F g", [], ["g"])
    info = full_counters(a, 2)
    assert info.counted == frozenset(range(a.n_states))
    assert all(info.needs_compare(q, q2) for q in range(a.n_states) for q2 in range(a.n_states))


def test_order_width_is_the_per_component_size_rule():
    """A counted state's rank has B = n*|F & C| order variables while B is
    at most ORDER_RANKS_MAX, else counter_bits binary bits.  The 3-client
    arbiter's environment side has its 8 rejecting states in one component;
    its system side has 6, each in a component of its own, so B = n there,
    and n*6 without the reduction."""
    _, system, environment = arbiter_sides(3)
    assert len(environment.rejecting) == 8 and len(system.rejecting) == 6
    n = ORDER_RANKS_MAX // 8  # the largest bound with order ranks on the environment side
    for bound, width in ((n, 8 * n), (n + 1, 0)):
        info = analyze_sccs(environment, bound)
        assert {info.order_width(q) for q in info.counted} == {width}
        assert {info.rank_width(q) for q in info.counted} == {width or info.counter_bits}
    assert {analyze_sccs(system, n + 1).order_width(q) for q in system.rejecting} == {n + 1}
    unreduced = full_counters(system, n + 1)
    assert {unreduced.order_width(q) for q in unreduced.counted} == {6 * (n + 1)}


@lru_cache(maxsize=None)
def _suite_and_arbiter_automata():
    """Both sides of every suite spec and of the 2- and 3-client arbiter."""
    automata = []
    for bench in SUITE:
        f = bench.spec.formula()
        automata.append(ltl_to_ucw(f, bench.spec.inputs, bench.spec.outputs))
        automata.append(ltl_to_ucw(ltl.negate(f), bench.spec.outputs, bench.spec.inputs))
    for k in (2, 3):
        automata.extend(arbiter_sides(k)[1:])
    return automata


@pytest.mark.parametrize("analysis", [analyze_sccs, full_counters])
def test_component_bounds_sum_to_the_binary_range(analysis):
    """Every rejecting state lies in exactly one counted component, so the
    component bounds sum to n*|F|, the range the binary width covers."""
    for a in _suite_and_arbiter_automata():
        for n in (1, 2, 3, 5):
            info = analysis(a, n)
            assert sum(info.rank_bound) == n * len(a.rejecting)
            assert info.counter_bits == max(1, (n * len(a.rejecting)).bit_length())


# ---------------------------------------------------------------------------
# Symbolic encoding


def _code_names(width):
    """Names for the source and target code bits: q0, q1, ... and p0, p1, ..."""
    return [f"q{j}" for j in range(width)], [f"p{j}" for j in range(width)]


class _Coded:
    """The encoder's init/reject/delta nodes for automaton a with state
    codes of the given width, in a store with one
    variable per alphabet atom and code bit (`_code_names`); `holds(node,
    env)` evaluates a node with exactly the atoms in env true."""

    def __init__(self, a, width):
        self.store = Store()
        code, code2 = _code_names(width)
        names = a.alphabet + tuple(code + code2)
        self.var = {name: self.store.new_var() for name in names}
        node = {name: self.store.var(v) for name, v in self.var.items()}
        self.init, self.reject, self.delta = symbolic_nodes(
            self.store, a, node, [node[x] for x in code], [node[x] for x in code2]
        )

    def holds(self, node, env) -> bool:
        return self.store.evaluate(node, {v: name in env for name, v in self.var.items()})


def _delta_models(a, width):
    """Decode delta's satisfying assignments into (q, letter, q') triples."""
    coded = _Coded(a, width)
    triples = set()
    alphabet = list(a.alphabet)
    code, code2 = _code_names(width)
    for q in range(1 << width):
        for q2 in range(1 << width):
            for letter in all_letters(alphabet):
                env = set(letter)
                env |= {code[j] for j in range(width) if q >> j & 1}
                env |= {code2[j] for j in range(width) if q2 >> j & 1}
                if coded.holds(coded.delta, env):
                    triples.add((q, frozenset(letter), q2))
    return triples


def test_encode_symbolic_single_state():
    a = Ucw((), ("a",), 1, 0, {(0, 0): guard("true", ("a",))}, frozenset())
    width = encode_symbolic(a)
    assert width == 1
    # delta is satisfied exactly by code 0 -> code 0
    assert _delta_models(a, width) == {
        (0, frozenset(), 0),
        (0, frozenset(["a"]), 0),
    }
    coded = _Coded(a, width)
    assert coded.holds(coded.init, frozenset())
    assert not coded.holds(coded.init, frozenset(_code_names(width)[0]))


def test_encode_symbolic_three_states_excludes_dead_code():
    true = guard("true", ("a",))
    guards = {(0, 1): true, (1, 2): true, (2, 0): true}
    a = Ucw((), ("a",), 3, 0, guards, frozenset([2]))
    width = encode_symbolic(a)
    assert width == 2
    models = _delta_models(a, width)
    assert all(q != 3 and q2 != 3 for q, _, q2 in models)
    coded = _Coded(a, width)
    # init excludes code 3
    code, code2 = _code_names(width)
    assert not coded.holds(coded.init, frozenset(code))
    # reject is the primed code of state 2
    assert coded.holds(coded.reject, frozenset([code2[1]]))
    assert not coded.holds(coded.reject, frozenset())


def test_encode_symbolic_roundtrip_arbiter():
    a = ucw(ARBITER, ["r1", "r2"], ["g1", "g2"])
    width = encode_symbolic(a)
    expected = set()
    for (q, q2), letters in a.guards.items():
        for letter in all_letters(list(a.alphabet)):
            if letters >> letter_index(a.alphabet, letter) & 1:
                expected.add((q, letter, q2))
    assert _delta_models(a, width) == expected


def test_ucw_to_dot_smoke():
    a = ucw("F g", [], ["g"])
    text = ucw_to_dot(a)
    assert "doublecircle" in text
    assert text == ucw_to_dot(a)


def _greedy_cover(alphabet, mask):
    """prime_cover's greedy written with a literal dict per trial cube and
    `cube_mask` for each cube's letters."""
    cubes = []
    left = mask
    while left:
        letter = (left & -left).bit_length() - 1
        care = {name: bool(letter >> j & 1) for j, name in enumerate(alphabet)}
        for name in alphabet:
            wider = {k: v for k, v in care.items() if k != name}
            if cube_mask(alphabet, wider) & ~mask == 0:
                care = wider
        left &= ~cube_mask(alphabet, care)
        cubes.append(tuple(sorted(care.items())))
    return tuple(cubes)


def test_prime_cover_matches_dict_greedy():
    rng = random.Random(23)
    names = ["r1", "g1", "a", "z", "b"]
    for _ in range(2000):
        alphabet = tuple(rng.sample(names, rng.randrange(len(names) + 1)))
        mask = rng.getrandbits(1 << len(alphabet))
        assert prime_cover(alphabet, mask) == _greedy_cover(alphabet, mask), (alphabet, mask)


def test_ucw_to_dot_labels_prime_cover():
    alphabet = ("r1", "g1", "g2")
    a = Ucw(("r1",), ("g1", "g2"), 1, 0, {(0, 0): guard("(r1 && ! g1) || g2", alphabet)}, frozenset())
    assert 'q0 -> q0 [label="!g1 && r1 || g2"];' in ucw_to_dot(a)
