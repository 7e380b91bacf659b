"""Run graphs, annotation validity, and lasso-based model checking.

This module is the independent check on everything the encoders and
solvers produce: it works directly on the product of a transition system
and an automaton and shares no code with the encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import Ucw, letter_index, sccs, ucw_accepts_lasso
from .system import TransitionSystem, input_valuations, run

Vertex = tuple[int, int]  # (system state, automaton state)


@dataclass
class RunGraph:
    """Product graph restricted to the part reachable from (0, initial)."""

    initial: Vertex
    vertices: list[Vertex]
    edges: dict[Vertex, list[Vertex]]
    rejecting: frozenset[Vertex]
    # one witness input valuation per edge, for counterexample extraction
    witness: dict[tuple[Vertex, Vertex], frozenset[str]] = field(default_factory=dict)


@dataclass
class Violation:
    """First offending edge found by check_annotation."""

    edge: tuple[Vertex, Vertex] | None
    reason: str


def build_run_graph(ts: TransitionSystem, a: Ucw) -> RunGraph:
    """Explicit product, enumerating input valuations for the edges."""
    if set(ts.inputs) != set(a.inputs) or set(ts.outputs) != set(a.outputs):
        raise ValueError("system and automaton alphabets differ")
    vals = input_valuations(ts.inputs)
    start: Vertex = (0, a.initial)
    vertices = [start]
    seen = {start}
    edges: dict[Vertex, list[Vertex]] = {}
    witness: dict[tuple[Vertex, Vertex], frozenset[str]] = {}
    frontier = [start]
    rows = a.rows()
    while frontier:
        t, q = frontier.pop()
        out: list[Vertex] = []
        for i in vals:
            t2 = ts.trans[(t, i)]
            letter = letter_index(a.alphabet, i | ts.label[(t, i)])
            for q2, g in rows[q]:
                if not g >> letter & 1:
                    continue
                v2 = (t2, q2)
                if v2 not in seen:
                    seen.add(v2)
                    vertices.append(v2)
                    frontier.append(v2)
                if v2 not in out:
                    out.append(v2)
                    witness[((t, q), v2)] = i
        edges[(t, q)] = out
    rejecting = frozenset(v for v in vertices if v[1] in a.rejecting)
    return RunGraph(start, vertices, edges, rejecting, witness)


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


def _condense(g: RunGraph):
    """One Tarjan pass over the run graph.

    Returns the adjacency by vertex index, the components in reverse
    topological order, and the first component with a cycle through a
    rejecting vertex (None when there is none).
    """
    idx = {v: j for j, v in enumerate(g.vertices)}
    adj = [[idx[v2] for v2 in g.edges.get(v, ())] for v in g.vertices]
    comps = sccs(len(g.vertices), lambda v: adj[v])
    for comp in comps:
        cyclic = len(comp) > 1 or comp[0] in adj[comp[0]]
        if cyclic and any(g.vertices[v] in g.rejecting for v in comp):
            return adj, comps, comp
    return adj, comps, None


def infer_annotation(g: RunGraph) -> dict[Vertex, int] | None:
    """Least valid annotation, or None when a rejecting cycle is reachable.

    Computed on the condensation: a cycle through a rejecting vertex kills
    validity; otherwise the rank of a vertex is the largest number of
    rejecting vertices on any path reaching it.
    """
    adj, comps, bad = _condense(g)
    if bad is not None:
        return None

    comp_of = {}
    for cid, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = cid

    # propagate over edges in topological order (reverse of Tarjan's output):
    # value[target comp] >= value[source comp] + 1 when the target vertex rejects
    value = [0] * len(comps)
    for cid in range(len(comps) - 1, -1, -1):
        for v in comps[cid]:
            for w in adj[v]:
                tgt = comp_of[w]
                if tgt == cid:
                    continue
                bonus = 1 if g.vertices[w] in g.rejecting else 0
                value[tgt] = max(value[tgt], value[cid] + bonus)

    lam: dict[Vertex, int] = {}
    for cid, comp in enumerate(comps):
        for v in comp:
            lam[g.vertices[v]] = value[cid]
    return lam


@dataclass
class CounterexampleLasso:
    """Input word u . v^omega whose induced trace the automaton rejects."""

    prefix: list[frozenset[str]]
    loop: list[frozenset[str]]


def model_check(ts: TransitionSystem, a: Ucw) -> CounterexampleLasso | None:
    """None when the system realizes the automaton's language.

    Otherwise extracts a concrete input lasso driving the product around a
    reachable cycle through a rejecting vertex.
    """
    g = build_run_graph(ts, a)
    adj, _, bad_comp = _condense(g)
    if bad_comp is None:
        return None
    members = set(bad_comp)
    target = next(v for v in bad_comp if g.vertices[v] in g.rejecting)
    origin = g.vertices.index(g.initial)

    def bfs(start: int, goal: int, restrict: set[int] | None, skip_trivial: bool):
        """Shortest edge path start->goal; may be empty unless skip_trivial."""
        if start == goal and not skip_trivial:
            return []
        parent: dict[int, tuple[int, int]] = {}
        queue = [start]
        seen = {start}
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if restrict is not None and w not in restrict:
                    continue
                if w == goal:
                    path = [(v, w)]
                    while v != start:
                        pv, _ = parent[v]
                        path.append((pv, v))
                        v = pv
                    path.reverse()
                    return path
                if w not in seen:
                    seen.add(w)
                    parent[w] = (v, w)
                    queue.append(w)
        return None

    into = bfs(origin, target, None, skip_trivial=origin != target)
    around = bfs(target, target, members, skip_trivial=True)
    assert into is not None and around is not None

    def inputs_of(path):
        return [
            g.witness[(g.vertices[v], g.vertices[w])] for v, w in path
        ]

    prefix = inputs_of(into)
    loop = inputs_of(around)
    return CounterexampleLasso(prefix, loop)


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
