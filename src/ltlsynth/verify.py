"""Run graphs, annotation validity, and lasso-based model checking.

This module is the independent check on everything the encoders and
solvers produce: it works directly on the product of a transition system
and an automaton and shares no code with the encodings.  The product is
built and searched for a rejecting cycle by `automaton.explore` and
`automaton.rejecting_cycle`, the search that also decides lasso acceptance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import Ucw, explore, letter_index, rejecting_cycle, sccs, ucw_accepts_lasso
from .system import TransitionSystem, input_valuations, run

Vertex = tuple[int, int]  # (system state, automaton state)


@dataclass
class RunGraph:
    """Product graph restricted to the part reachable from (0, initial)."""

    initial: Vertex
    vertices: list[Vertex]
    edges: dict[Vertex, list[Vertex]]
    rejecting: frozenset[Vertex]


@dataclass
class Violation:
    """First offending edge found by check_annotation."""

    edge: tuple[Vertex, Vertex] | None
    reason: str


def _product(ts: TransitionSystem, a: Ucw):
    """`explore` over the product, each edge labelled by an input valuation
    that takes it; the rejecting vertices by number come last."""
    if set(ts.inputs) != set(a.inputs) or set(ts.outputs) != set(a.outputs):
        raise ValueError("system and automaton alphabets differ")
    steps = [[(i, ts.trans[(t, i)], letter_index(a.alphabet, i | ts.label[(t, i)]))
              for i in input_valuations(ts.inputs)] for t in range(ts.n)]
    rows = a.rows()

    def moves(v):
        t, q = v
        for i, t2, letter in steps[t]:
            for q2, g in rows[q]:
                if g >> letter & 1:
                    yield i, (t2, q2)

    vertices, succ, labels = explore((0, a.initial), moves)
    rejecting = {j for j, (_, q) in enumerate(vertices) if q in a.rejecting}
    return vertices, succ, labels, rejecting


def build_run_graph(ts: TransitionSystem, a: Ucw) -> RunGraph:
    """Explicit product, enumerating input valuations for the edges."""
    vertices, succ, _, rejecting = _product(ts, a)
    edges = {v: [vertices[j] for j in succ[i]] for i, v in enumerate(vertices)}
    return RunGraph(vertices[0], vertices, edges, frozenset(vertices[j] for j in rejecting))


def check_annotation(g: RunGraph, lam: dict[Vertex, int | None]) -> Violation | None:
    """None when valid; otherwise the first violated condition.

    Validity: the initial vertex carries a number, and every edge out of a
    numbered vertex leads to a numbered vertex with a value at least as
    large, strictly larger when the target is rejecting.
    """
    if lam.get(g.initial) is None:
        return Violation(None, "initial vertex is not numbered")
    for v in g.vertices:
        k = lam.get(v)
        if k is None:
            continue
        for v2 in g.edges.get(v, ()):
            k2 = lam.get(v2)
            if k2 is None:
                return Violation((v, v2), "successor of a numbered vertex is unnumbered")
            if v2 in g.rejecting:
                if not k2 > k:
                    return Violation((v, v2), f"needs {k2} > {k} at rejecting target")
            elif not k2 >= k:
                return Violation((v, v2), f"needs {k2} >= {k}")
    return None


def infer_annotation(g: RunGraph) -> dict[Vertex, int] | None:
    """Least valid annotation, or None when a rejecting cycle is reachable.

    Computed on the condensation: an edge inside a component lies on a
    cycle, so one into a rejecting vertex kills validity; otherwise the
    rank of a vertex is the largest number of rejecting vertices on any
    path reaching it.
    """
    idx = {v: j for j, v in enumerate(g.vertices)}
    adj = [[idx[v2] for v2 in g.edges.get(v, ())] for v in g.vertices]
    comps = sccs(len(adj), adj.__getitem__)
    comp_of = {v: cid for cid, comp in enumerate(comps) for v in comp}

    # propagate over edges in topological order (reverse of Tarjan's output):
    # value[target comp] >= value[source comp] + 1 when the target vertex rejects
    value = [0] * len(comps)
    for cid in range(len(comps) - 1, -1, -1):
        for v in comps[cid]:
            for w in adj[v]:
                bonus = 1 if g.vertices[w] in g.rejecting else 0
                if comp_of[w] != cid:
                    value[comp_of[w]] = max(value[comp_of[w]], value[cid] + bonus)
                elif bonus:
                    return None
    return {g.vertices[v]: value[cid] for v, cid in comp_of.items()}


@dataclass
class CounterexampleLasso:
    """Input word u . v^omega whose induced trace the automaton rejects."""

    prefix: list[frozenset[str]]
    loop: list[frozenset[str]]


def _path(succ: list[list[int]], start: int, goal: int, within=None) -> list[int]:
    """The vertices of a shortest path of at least one edge from start to
    goal, through vertices of `within` only when it is given."""
    parent = {start: start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if within is not None and w not in within:
                continue
            if w == goal:
                path = [w, v]
                while v != start:
                    v = parent[v]
                    path.append(v)
                return path[::-1]
            if w not in parent:
                parent[w] = v
                queue.append(w)
    raise AssertionError("goal is unreachable")


def model_check(ts: TransitionSystem, a: Ucw) -> CounterexampleLasso | None:
    """None when the system realizes the automaton's language.

    Otherwise extracts a concrete input lasso driving the product around a
    reachable cycle through a rejecting vertex.
    """
    _, succ, labels, rejecting = _product(ts, a)
    comp = rejecting_cycle(succ, rejecting)
    if comp is None:
        return None
    target = next(v for v in comp if v in rejecting)
    into = _path(succ, 0, target) if target else [0]
    around = _path(succ, target, target, set(comp))
    return CounterexampleLasso([labels[e] for e in zip(into, into[1:])],
                               [labels[e] for e in zip(around, around[1:])])


def counterexample_refutes(
    ts: TransitionSystem, a: Ucw, lasso: CounterexampleLasso
) -> bool:
    """Check that the induced trace of the input lasso is rejected.

    The system revisits its state at the start of the loop, so the trace
    letters are ultimately periodic once the loop inputs have cycled enough
    times for the system state to recur; one unrolling suffices because the
    counterexample cycle already closes in the product.
    """
    steps = list(lasso.prefix) + list(lasso.loop)
    trace = [i | o for i, (_, o) in zip(steps, run(ts, steps))]
    return not ucw_accepts_lasso(a, trace[: len(lasso.prefix)], trace[len(lasso.prefix):])
