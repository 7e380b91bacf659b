import random

import pytest

from ltlsynth.system import (
    MEALY,
    MOORE,
    TransitionSystem,
    input_valuations,
    moore_system,
    run,
    to_aiger,
    to_dot,
)
from oracles import simulate_aag


def arbiter_system() -> TransitionSystem:
    """Two-state alternator: t0 grants g1, t1 grants g2, regardless of input."""
    vals = input_valuations(["r1", "r2"])
    trans = {}
    for i in vals:
        trans[(0, i)] = 1
        trans[(1, i)] = 0
    return moore_system(2, ["r1", "r2"], ["g1", "g2"], trans, [["g1"], ["g2"]])


def copy_machine() -> TransitionSystem:
    """One-state Mealy system with output a mirroring input i."""
    trans = {(0, frozenset()): 0, (0, frozenset(["i"])): 0}
    label = {(0, frozenset()): frozenset(), (0, frozenset(["i"])): frozenset(["a"])}
    return TransitionSystem(1, MEALY, ("i",), ("a",), trans, label)


def test_run_arbiter_alternates():
    ts = arbiter_system()
    rng = random.Random(1)
    vals = input_valuations(["r1", "r2"])
    inputs = [rng.choice(vals) for _ in range(4)]
    trace = run(ts, inputs)
    assert [o for _, o in trace] == [
        frozenset(["g1"]),
        frozenset(["g2"]),
        frozenset(["g1"]),
        frozenset(["g2"]),
    ]


def test_run_empty():
    assert run(arbiter_system(), []) == []


def test_run_constant_moore():
    vals = input_valuations(["i"])
    ts = moore_system(1, ["i"], ["a"], {(0, v): 0 for v in vals}, [["a"]])
    trace = run(ts, [frozenset(), frozenset(["i"]), frozenset()])
    assert trace == [(0, frozenset(["a"]))] * 3


def test_run_rejects_unknown_atom():
    with pytest.raises(ValueError):
        run(arbiter_system(), [frozenset(["bogus"])])


def test_moore_invariant_enforced():
    vals = input_valuations(["i"])
    label = {(0, frozenset()): frozenset(), (0, frozenset(["i"])): frozenset(["a"])}
    with pytest.raises(ValueError):
        TransitionSystem(1, MOORE, ("i",), ("a",), {(0, v): 0 for v in vals}, label)


def test_trans_totality_enforced():
    with pytest.raises(ValueError):
        TransitionSystem(1, MEALY, ("i",), ("a",), {}, {})


def test_dot_deterministic_and_shaped():
    ts = arbiter_system()
    text1 = to_dot(ts)
    text2 = to_dot(ts)
    assert text1 == text2
    assert text1.count("s0 ->") == 4  # one edge per input valuation
    assert "g1" in text1  # Moore labels inside the nodes

    single = copy_machine()
    dot = to_dot(single)
    assert dot.count("->") >= 2
    assert "/" in dot  # Mealy edge labels carry input/output cubes


def test_aiger_copy_machine_is_wire():
    text = to_aiger(copy_machine())
    lines = text.splitlines()
    header = lines[0].split()
    assert header[0] == "aag"
    assert header[2] == "1" and header[3] == "0"  # one input, no latches
    # output literal equals the input literal
    assert lines[2] == "2"


def test_aiger_constant_output():
    vals = input_valuations(["i"])
    ts = moore_system(1, ["i"], ["a"], {(0, v): 0 for v in vals}, [["a"]])
    lines = to_aiger(ts).splitlines()
    assert lines[2] == "1"  # constant true output literal


def test_aiger_arbiter_shape_and_simulation():
    ts = arbiter_system()
    text = to_aiger(ts)
    header = text.splitlines()[0].split()
    assert header[3] == "1"  # one latch
    # next state !s and outputs !s (g1) and s (g2): wires, no AND gate
    assert header[5] == "0"
    rows = [
        {"r1": True, "r2": False},
        {"r1": True, "r2": True},
        {},
        {"r2": True},
        {"r1": True},
        {},
    ]
    sim = simulate_aag(text, rows)
    inputs = [frozenset(k for k, v in row.items() if v) for row in rows]
    expected = [o for _, o in run(ts, inputs)]
    assert sim == expected


def test_aiger_input_named_like_a_state_bit():
    """An input may carry any atom name, even the latches' symbol names:
    a 2-state Mealy toggle on input state_bit_0 that outputs its state."""
    vals = input_valuations(["state_bit_0"])
    trans = {(t, i): t ^ len(i) for t in range(2) for i in vals}
    label = {(t, i): frozenset(["o"]) if t else frozenset() for t in range(2) for i in vals}
    ts = TransitionSystem(2, MEALY, ("state_bit_0",), ("o",), trans, label)
    seq = [frozenset(["state_bit_0"]), frozenset(), frozenset(["state_bit_0"]), frozenset()]
    rows = [{"state_bit_0": bool(i)} for i in seq]
    assert simulate_aag(to_aiger(ts), rows) == [o for _, o in run(ts, seq)]


def _random_system(rng: random.Random) -> TransitionSystem:
    n = rng.randrange(1, 5)
    semantics = rng.choice([MEALY, MOORE])
    n_i = rng.randrange(0, 3)
    n_o = rng.randrange(1, 3)
    inputs = tuple(f"i{j}" for j in range(n_i))
    outputs = tuple(f"o{j}" for j in range(n_o))
    vals = input_valuations(inputs)
    trans = {}
    label = {}
    for t in range(n):
        moore_out = frozenset(o for o in outputs if rng.random() < 0.5)
        for i in vals:
            trans[(t, i)] = rng.randrange(n)
            if semantics == MOORE:
                label[(t, i)] = moore_out
            else:
                label[(t, i)] = frozenset(o for o in outputs if rng.random() < 0.5)
    return TransitionSystem(n, semantics, inputs, outputs, trans, label)


def test_aiger_fidelity_random_systems():
    rng = random.Random(42)
    for _ in range(40):
        ts = _random_system(rng)
        text = to_aiger(ts)
        vals = input_valuations(ts.inputs)
        seq = [rng.choice(vals) for _ in range(rng.randrange(1, 9))]
        rows = [{name: (name in i) for name in ts.inputs} for i in seq]
        assert simulate_aag(text, rows) == [o for _, o in run(ts, seq)]
