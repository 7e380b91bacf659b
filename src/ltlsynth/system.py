"""Finite Mealy/Moore transition systems and their dot/AIGER serializations."""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import compile_guard
from .logic import _OR, FALSE, Store

MEALY = "mealy"
MOORE = "moore"


def input_valuations(inputs) -> list[frozenset[str]]:
    """All input valuations in canonical order (bitmask over the name list)."""
    names = list(inputs)
    out = []
    for mask in range(1 << len(names)):
        out.append(frozenset(n for j, n in enumerate(names) if mask >> j & 1))
    return out


def _cube(names, valuation: frozenset[str]) -> str:
    return " ".join(n if n in valuation else f"!{n}" for n in names) or "-"


@dataclass
class TransitionSystem:
    """Deterministic finite-state machine over input/output propositions.

    State 0 is initial.  trans and label are total over states and input
    valuations; for Moore semantics the label may not depend on the input.
    """

    n: int
    semantics: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    trans: dict[tuple[int, frozenset[str]], int]
    label: dict[tuple[int, frozenset[str]], frozenset[str]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one state")
        if self.semantics not in (MEALY, MOORE):
            raise ValueError(f"bad semantics {self.semantics!r}")
        vals = input_valuations(self.inputs)
        for t in range(self.n):
            for i in vals:
                if (t, i) not in self.trans:
                    raise ValueError(f"trans not total at ({t}, {set(i)})")
                tgt = self.trans[(t, i)]
                if not 0 <= tgt < self.n:
                    raise ValueError(f"transition target {tgt} out of range")
                if (t, i) not in self.label:
                    raise ValueError(f"label not total at ({t}, {set(i)})")
                if not self.label[(t, i)] <= set(self.outputs):
                    raise ValueError("label uses undeclared outputs")
            if self.semantics == MOORE:
                outs = {self.label[(t, i)] for i in vals}
                if len(outs) > 1:
                    raise ValueError(f"Moore label of state {t} depends on input")

    def moore_label(self, t: int) -> frozenset[str]:
        assert self.semantics == MOORE
        return self.label[(t, frozenset())]


def moore_system(n, inputs, outputs, trans, state_labels) -> TransitionSystem:
    """Convenience constructor: per-state labels, per-(state,input) successors."""
    vals = input_valuations(inputs)
    label = {(t, i): frozenset(state_labels[t]) for t in range(n) for i in vals}
    return TransitionSystem(n, MOORE, tuple(inputs), tuple(outputs), dict(trans), label)


def run(ts: TransitionSystem, inputs: list) -> list[tuple[int, frozenset[str]]]:
    """Execute from state 0; element j is (state_j, outputs_j)."""
    trace = []
    state = 0
    for raw in inputs:
        i = frozenset(raw)
        stray = i - set(ts.inputs)
        if stray:
            raise ValueError(f"unknown input atoms {sorted(stray)}")
        trace.append((state, ts.label[(state, i)]))
        state = ts.trans[(state, i)]
    return trace


def to_dot(ts: TransitionSystem) -> str:
    """Deterministic dot text; Moore labels in nodes, Mealy labels on edges."""
    lines = ["digraph system {", '  node [shape=circle];', "  init [shape=point];"]
    for t in range(ts.n):
        if ts.semantics == MOORE:
            lines.append(f'  s{t} [label="{t}\\n{_cube(ts.outputs, ts.moore_label(t))}"];')
        else:
            lines.append(f'  s{t} [label="{t}"];')
    lines.append("  init -> s0;")
    for t in range(ts.n):
        for i in input_valuations(ts.inputs):
            tgt = ts.trans[(t, i)]
            if ts.semantics == MOORE:
                edge = _cube(ts.inputs, i)
            else:
                edge = f"{_cube(ts.inputs, i)} / {_cube(ts.outputs, ts.label[(t, i)])}"
            lines.append(f'  s{t} -> s{tgt} [label="{edge}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_aiger(ts: TransitionSystem) -> str:
    """ASCII AIGER circuit: binary state code in latches, all-zero reset.

    Each next-state and output bit is the letter set, over the inputs and
    the state bits #0, #1, ... (names no atom can take), of the letters
    ii | t << I where it is true at input valuation ii in state t < n.
    `automaton.compile_guard` builds it in a fresh `logic.Store` whose
    variables 1..I+L are the inputs, then the latches: AIGER literal 2v is
    variable v, and a reference's low bit negates it as a literal's does.
    A children-first walk of each root's cone numbers the ANDs:
    an and/or becomes a left-to-right chain of two-input ANDs, an or the AND
    of its negations, and equal (left, right) pairs share one AND.
    """
    n_in = len(ts.inputs)
    state_bits = max(0, (ts.n - 1).bit_length())
    alphabet = (*ts.inputs, *(f"#{j}" for j in range(state_bits)))
    store = Store()
    atoms = {name: store.var(store.new_var()) for name in alphabet}
    steps = [(ii | t << n_in, t, i) for t in range(ts.n) for ii, i in enumerate(input_valuations(ts.inputs))]

    def compiled(holds) -> int:
        """The node of the letter set of the steps (t, i) where holds(t, i)."""
        return compile_guard(store, alphabet, sum(1 << l for l, t, i in steps if holds(t, i)), atoms)

    roots = [compiled(lambda t, i: ts.trans[(t, i)] >> j & 1) for j in range(state_bits)]
    roots += [compiled(lambda t, i: name in ts.label[(t, i)]) for name in ts.outputs]

    lit = {FALSE: 0}  # plain reference -> AIGER literal
    lit.update((atoms[name], 2 * (j + 1)) for j, name in enumerate(alphabet))

    def aiger(f: int) -> int:
        """Reference f's AIGER literal: its plain one's, with f's sign bit."""
        return lit[f & ~1] ^ f & 1

    gates: dict[tuple[int, int], int] = {}  # (left, right) -> the AND's literal
    for root in roots:
        for f in store.reachable(root):
            if f in lit:
                continue
            tag, kids = store.nodes[f >> 1]
            flip = tag == _OR  # a or b = not (not a and not b)
            acc = aiger(kids[0]) ^ flip
            for c in kids[1:]:
                acc = gates.setdefault((acc, aiger(c) ^ flip), 2 * (n_in + state_bits + len(gates) + 1))
            lit[f] = acc ^ flip

    lines = [f"aag {n_in + state_bits + len(gates)} {n_in} {state_bits} "
             f"{len(ts.outputs)} {len(gates)}"]
    lines += [str(2 * (j + 1)) for j in range(n_in)]
    lines += [f"{2 * (n_in + j + 1)} {aiger(roots[j])}" for j in range(state_bits)]
    lines += [str(aiger(f)) for f in roots[state_bits:]]
    lines += [f"{lhs} {a} {b}" for (a, b), lhs in gates.items()]
    lines += [f"i{j} {name}" for j, name in enumerate(ts.inputs)]
    lines += [f"l{j} state_bit_{j}" for j in range(state_bits)]
    lines += [f"o{j} {name}" for j, name in enumerate(ts.outputs)]
    lines += ["c", f"{ts.semantics} system, {ts.n} states"]
    return "\n".join(lines) + "\n"
