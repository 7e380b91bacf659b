"""Rebuild transition systems from solver models, for every encoding.

One reader serves all four encodings: each (state, input valuation) pair
becomes a universal context (input variables, plus the state-code bits of
the symbolic-state pair) and every trans/out variable is read through
`Model.value_of` in it.  The basic encoding has no universals, so its
per-valuation variables read straight off the assignment; the others read
each variable's expansion copy for the context.  Automaton bits of the fully symbolic encoding never
occur in the dependency sets of trans or out, so they need no context.

Successors: the explicit-state pair (basic, input) has one-hot trans
variables and takes the least true index; the symbolic-state pair (state,
full) has transition bits and reads them as a binary code.
"""

from __future__ import annotations

from .encode import BASIC, INPUT_SYMBOLIC, VarDirectory
from .solve import Model
from .system import MOORE, TransitionSystem, input_valuations


class ExtractionError(RuntimeError):
    """Model inconsistent with the encoding contract; an encoder bug."""


def extract(model: Model, d: VarDirectory, inputs, outputs) -> TransitionSystem:
    explicit = d.kind in (BASIC, INPUT_SYMBOLIC)
    trans = {}
    label = {}
    for t in range(d.n):
        for ii, i in enumerate(input_valuations(inputs)):
            env = {v: (name in i) for name, v in d.univ_inputs.items()}
            for j, v in enumerate(d.univ_state):
                env[v] = bool(t >> j & 1)
            if explicit:
                copy = (ii,) if d.kind == BASIC else ()
                successor = next(
                    (t2 for t2 in range(d.n) if model.value_of(d.trans[(t, *copy, t2)], env)),
                    None,
                )
                if successor is None:
                    raise ExtractionError(f"no successor chosen at state {t}, input {set(i)}")
                out = {
                    name: d.out[(name, t) if d.semantics == MOORE else (name, t, *copy)]
                    for name in outputs
                }
            else:
                successor = sum(1 << j for j, v in d.trans.items() if model.value_of(v, env))
                if successor >= d.n:
                    raise ExtractionError(f"successor code {successor} out of range at state {t}")
                out = d.out
            trans[(t, i)] = successor
            label[(t, i)] = frozenset(
                name for name in outputs if model.value_of(out[name], env)
            )
    return TransitionSystem(d.n, d.semantics, tuple(inputs), tuple(outputs), trans, label)
