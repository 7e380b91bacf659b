"""Universal co-Buchi automata: construction from LTL, analysis, encodings.

The construction follows the classic expand/cover tableau of Gerth, Peled,
Vardi and Wolper: build a nondeterministic generalized Buchi automaton for
the negated formula, degeneralize with a counting construction, then read
the result as a universal co-Buchi automaton for the original formula
(transitions interpreted universally, Buchi-accepting states marked
rejecting).  Top-level disjuncts of the negation are translated separately
and joined under a fresh initial state, which keeps the degeneralization
counters local to each disjunct.  Within a disjunct, a conjunct G p with p
propositional only cuts every guard to p's letters, and each other
conjunct gets its own tableau; the disjunct's automaton is their
synchronous product, built on the fly over the reachable states whose
letter set is nonempty, accepting on the union of the conjuncts'
acceptance sets (Babiak, Kretinsky, Rehak and Strejcek, TACAS 2012).

Edge guards are letter sets, as in Spot (Duret-Lutz et al., "Spot 2.0",
ATVA 2016): an int bitmask over the 2^|AP| letters of the alphabet
inputs + outputs, where bit j of a letter's index is true when alphabet[j]
is.  Evaluation is a bit test, merging is |, and equal sets compare equal.
"""

from __future__ import annotations

from collections.abc import Iterator, KeysView
from dataclasses import dataclass
from functools import lru_cache

from . import ltl
from .logic import Store
from .ltl import LtlFormula, atoms_of


@dataclass
class Ucw:
    """Universal co-Buchi automaton with letter-set edge guards.

    Missing (q, q') pairs mean no edge; a run that cannot continue simply
    dies, which is accepting under the universal reading.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    n_states: int
    initial: int
    guards: dict[tuple[int, int], int]
    rejecting: frozenset[int]

    def __post_init__(self):
        assert 0 <= self.initial < self.n_states
        assert all(0 <= q < self.n_states for q in self.rejecting)
        n_letters = 1 << len(self.alphabet)
        for (q, q2), g in self.guards.items():
            assert 0 <= q < self.n_states and 0 <= q2 < self.n_states
            assert 0 <= g < 1 << n_letters, "guard is not a letter set over the alphabet"

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.inputs + self.outputs

    def rows(self) -> list[list[tuple[int, int]]]:
        """Outgoing (target, guard) pairs of every state, in edge order."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n_states)]
        for (q, q2), g in self.guards.items():
            out[q].append((q2, g))
        return out


def letter_index(alphabet, letter) -> int:
    """Index of a letter (set of true atoms) among the alphabet's letters."""
    return sum(1 << j for j, name in enumerate(alphabet) if name in letter)


@lru_cache(maxsize=None)
def _atom_masks(n_atoms: int) -> tuple[int, ...]:
    """Per atom j, the set of letters in which alphabet[j] is true."""
    return tuple(
        sum(1 << l for l in range(1 << n_atoms) if l >> j & 1) for j in range(n_atoms)
    )


def cube_mask(alphabet, literals: dict[str, bool]) -> int:
    """The letters agreeing with every literal (name -> polarity)."""
    atoms = _atom_masks(len(alphabet))
    out = full = (1 << (1 << len(alphabet))) - 1
    for j, name in enumerate(alphabet):
        if name in literals:
            out &= atoms[j] if literals[name] else full ^ atoms[j]
    return out


@lru_cache(maxsize=4096)
def prime_cover(alphabet: tuple[str, ...], mask: int) -> tuple[tuple[tuple[str, bool], ...], ...]:
    """Greedy cover of a letter set by cubes of (name, polarity) literals.

    Takes the lowest uncovered letter and widens its minterm by dropping
    the literals of alphabet[0], alphabet[1], ... while the cube stays
    inside the mask.  Each cube lists its literals by name; cubes come in
    the order found.  The empty set has no cube, the full set one empty cube.
    """
    cubes = []
    left = mask
    while left:
        letter = (left & -left).bit_length() - 1
        cube = 1 << letter  # the cube's letters
        kept = []
        for j, name in enumerate(alphabet):
            # cube's letters all have bit j as in letter: dropping atom j adds their flips
            positive = bool(letter >> j & 1)
            wider = cube | (cube >> (1 << j) if positive else cube << (1 << j))
            if wider & ~mask:
                kept.append((name, positive))
            else:
                cube = wider
        left &= ~cube
        cubes.append(tuple(sorted(kept)))
    return tuple(cubes)


def compile_guard(store: Store, alphabet: tuple[str, ...], mask: int, atom_map: dict[str, int]) -> int:
    """Store node for a letter set: one OR over its prime cover's cubes, each
    one AND of its literals in name order (atoms from atom_map).  The
    encoders compile their guards and `system.to_aiger` its circuit bits
    through it."""
    return store.or_([
        store.and_([atom_map[name] if positive else store.not_(atom_map[name]) for name, positive in cube])
        for cube in prime_cover(alphabet, mask)
    ])


def format_guard(alphabet: tuple[str, ...], mask: int) -> str:
    """The prime cover as text, e.g. '!g1 && r1 || g2'."""
    cubes = prime_cover(alphabet, mask)
    if not cubes:
        return "false"
    return " || ".join(
        " && ".join(("" if pos else "!") + name for name, pos in cube) or "true"
        for cube in cubes
    )


# ---------------------------------------------------------------------------
# Tableau construction


def _is_literal(f: LtlFormula) -> bool:
    return f.kind == ltl.ATOM or (f.kind == ltl.NOT and f.children[0].kind == ltl.ATOM)


def _expand(new: dict, old: set, nxt: dict, out: set[int], index: dict, work: list):
    """Expand one node, adding the id of every node it closes to `out`, the
    successor set of its source; `new` and `nxt` are insertion-ordered and
    `new` pops last-in first-out, so the result does not depend on formula
    hashes."""
    while True:
        if not new:
            key = (frozenset(old), frozenset(nxt))
            if key not in index:
                index[key] = len(index)
                work.append((index[key], tuple(nxt)))
            out.add(index[key])
            return
        f, _ = new.popitem()
        if f in old:
            continue
        k = f.kind
        if k == ltl.TRUE:
            continue
        if k == ltl.FALSE:
            return  # contradictory branch
        if _is_literal(f):
            neg = f.children[0] if k == ltl.NOT else ltl.lnot(f)
            if neg in old:
                return
            old.add(f)
            continue
        if k == ltl.AND:
            new.update((c, None) for c in f.children if c not in old)
            old.add(f)
            continue
        if k == ltl.NEXT:
            nxt[f.children[0]] = None
            old.add(f)
            continue
        if k == ltl.OR:
            a, b = f.children
            _expand({**new, a: None}, old | {f}, dict(nxt), out, index, work)
            new[b] = None
            old.add(f)
            continue
        if k == ltl.UNTIL:
            a, b = f.children
            # a U b  =  b or (a and X(a U b))
            _expand({**new, a: None}, old | {f}, {**nxt, f: None}, out, index, work)
            new[b] = None
            old.add(f)
            continue
        if k == ltl.RELEASE:
            a, b = f.children
            # a R b  =  b and (a or X(a R b))
            _expand({**new, b: None}, old | {f}, {**nxt, f: None}, out, index, work)
            new.update((c, None) for c in (a, b) if c not in old)
            old.add(f)
            continue
        raise ValueError(f"tableau input must be in negation normal form, got {k}")


def _tableau(phi: LtlFormula, alphabet):
    """GPVW expansion.  Returns (successors, initial ids, acceptance sets,
    labels), successor and initial ids ascending; a node's label is the
    letter set of its literals.

    Acceptance sets are per Until subformula of phi: a run must infinitely
    often visit a node where the Until is absent or already fulfilled.  A
    U true is fulfilled in every node, as true never enters `old`.
    """
    index: dict[tuple[frozenset, frozenset], int] = {}  # (old, nxt) -> node id
    work: list[tuple[int, tuple]] = []
    initial: set[int] = set()
    succ: dict[int, set[int]] = {}
    _expand({phi: None}, set(), {}, initial, index, work)
    while work:
        src, nxt = work.pop()
        succ[src] = set()
        _expand(dict.fromkeys(nxt), set(), {}, succ[src], index, work)
    nodes = list(index)

    untils = []
    seen = set()
    stack = [phi]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if g.kind == ltl.UNTIL:
            untils.append(g)
        stack.extend(g.children)
    untils.sort(key=ltl.format_ltl)

    acc_sets = [
        frozenset(idx for idx, (old, _) in enumerate(nodes)
                  if u not in old or u.children[1] in old or u.children[1].kind == ltl.TRUE)
        for u in untils
    ]
    labels = [
        cube_mask(alphabet, {f.name or f.children[0].name: f.kind == ltl.ATOM
                             for f in old if _is_literal(f)})
        for old, _ in nodes
    ]
    return [sorted(succ[idx]) for idx in range(len(nodes))], sorted(initial), acc_sets, labels


def _degeneralize(succ, initial, acc_sets, labels):
    """Counting construction; returns (succ, initial, accepting, labels)."""
    k = len(acc_sets)
    if k == 0:
        accepting = frozenset(range(len(succ)))
        return succ, initial, accepting, labels
    if k == 1:
        return succ, initial, acc_sets[0], labels

    index: dict[tuple[int, int], int] = {}
    out_succ: list[list[int]] = []
    out_labels: list[dict] = []

    def get(s: int, c: int) -> int:
        key = (s, c)
        if key not in index:
            index[key] = len(out_succ)
            out_succ.append([])
            out_labels.append(labels[s])
        return index[key]

    start = [get(s, 0) for s in initial]
    frontier = list(index)
    done = set()
    while frontier:
        key = frontier.pop()
        if key in done:
            continue
        done.add(key)
        s, c = key
        c2 = (c + 1) % k if s in acc_sets[c] else c
        for s2 in succ[s]:
            out_succ[get(s, c)].append(get(s2, c2))
            if (s2, c2) not in done:
                frontier.append((s2, c2))
    accepting = frozenset(
        idx for (s, c), idx in index.items() if c == 0 and s in acc_sets[0]
    )
    return out_succ, start, accepting, out_labels


def _operands(f: LtlFormula, kind: str) -> list[LtlFormula]:
    """The operands of the chain of `kind` nodes at f's top, left to right."""
    if f.kind == kind:
        return _operands(f.children[0], kind) + _operands(f.children[1], kind)
    return [f]


def _letters(f: LtlFormula, alphabet) -> int | None:
    """The letter set of a propositional NNF formula; None if f is temporal."""
    k = f.kind
    if k == ltl.TRUE:
        return cube_mask(alphabet, {})
    if k == ltl.FALSE:
        return 0
    if _is_literal(f):
        return cube_mask(alphabet, {f.name or f.children[0].name: k == ltl.ATOM})
    if k != ltl.AND and k != ltl.OR:
        return None
    a = _letters(f.children[0], alphabet)
    b = None if a is None else _letters(f.children[1], alphabet)
    if b is None:
        return None
    return a & b if k == ltl.AND else a | b


def _product(parts: list[LtlFormula], letters: int, alphabet):
    """Synchronous product of one tableau per part, each state's letter set
    cut by `letters`.  Builds only the reachable states with a nonempty
    letter set, numbered in tuple order, so one part and all letters give
    its tableau unchanged.  Returns what `_tableau` does; the acceptance
    sets are those of every part."""
    tableaux = [_tableau(p, alphabet) for p in parts]

    def combos(choices):
        """(state tuple, letter set) of each combination with a letter."""
        out = [((), letters)]
        for (_, _, _, labels), ids in zip(tableaux, choices):
            out = [(t + (s,), m & labels[s]) for t, m in out for s in ids if m & labels[s]]
        return out

    label = dict(combos([t[1] for t in tableaux]))
    initial, succ, work = list(label), {}, list(label)
    while work:
        t = work.pop()
        succ[t] = []
        for t2, m in combos([tab[0][s] for tab, s in zip(tableaux, t)]):
            succ[t].append(t2)
            if t2 not in label:
                label[t2] = m
                work.append(t2)
    states = sorted(label)
    ids = {t: j for j, t in enumerate(states)}
    acc_sets = [
        frozenset(ids[t] for t in states if t[i] in acc)
        for i, tab in enumerate(tableaux) for acc in tab[2]
    ]
    return ([[ids[t2] for t2 in succ[t]] for t in states], [ids[t] for t in initial],
            acc_sets, [label[t] for t in states])


def ltl_to_ucw(f: LtlFormula, inputs, outputs) -> Ucw:
    """Universal co-Buchi automaton accepting exactly the models of f."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    alphabet = inputs + outputs
    stray = atoms_of(f) - set(alphabet)
    if stray:
        raise ValueError(f"formula atoms {sorted(stray)} outside the alphabet")

    # NBW for the negation; its accepting states become rejecting here.
    negated = ltl.negate(f)

    guards: dict[tuple[int, int], int] = {}
    rejecting: set[int] = set()
    n_states = 1  # state 0 is the fresh initial state
    for part in _operands(negated, ltl.OR):
        # A conjunct G p = false R p with p propositional only cuts letters.
        letters, temporal = cube_mask(alphabet, {}), []
        for c in _operands(part, ltl.AND):
            folded = None
            if c.kind == ltl.RELEASE and c.children[0].kind == ltl.FALSE:
                folded = _letters(c.children[1], alphabet)
            if folded is None:
                temporal.append(c)
            else:
                letters &= folded
        if not letters:
            continue
        succ, initial, accepting, labels = _degeneralize(*_product(temporal, letters, alphabet))
        base = n_states
        n_states += len(succ)
        rejecting.update(base + s for s in accepting)
        for s in initial:
            guards[(0, base + s)] = labels[s]
        for s, targets in enumerate(succ):
            for s2 in set(targets):
                guards[(base + s, base + s2)] = labels[s2]

    return _merge_duplicates(Ucw(inputs, outputs, n_states, 0, guards, frozenset(rejecting)))


def _merge_duplicates(a: Ucw) -> Ucw:
    """Collapse states with identical rejecting flag and outgoing letter sets."""
    while True:
        signature: dict[tuple, int] = {}
        alias: dict[int, int] = {}
        for q, row in enumerate(a.rows()):
            sig = (q in a.rejecting, q == a.initial, tuple(sorted(row)))
            if sig in signature:
                alias[q] = signature[sig]
            else:
                signature[sig] = q
        if not alias:
            return a
        kept = sorted(set(range(a.n_states)) - set(alias))
        remap = {q: j for j, q in enumerate(kept)}
        for q, rep in alias.items():
            remap[q] = remap[rep]
        guards: dict[tuple[int, int], int] = {}
        for (q, q2) in sorted(a.guards):
            key = (remap[q], remap[q2])
            guards[key] = guards.get(key, 0) | a.guards[(q, q2)]
        a = Ucw(
            a.inputs,
            a.outputs,
            len(kept),
            remap[a.initial],
            guards,
            frozenset(remap[q] for q in a.rejecting),
        )


# ---------------------------------------------------------------------------
# Lasso acceptance


def sccs(num_nodes: int, adj) -> list[list[int]]:
    """Iterative Tarjan; returns components in reverse topological order."""
    index = [0] * num_nodes  # 0 until visited
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    comps: list[list[int]] = []
    call: list[tuple[int, Iterator[int]]] = []  # (v, v's neighbours not yet read)
    counter = 1

    def enter(v: int):
        nonlocal counter
        index[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        call.append((v, iter(adj(v))))

    for root in range(num_nodes):
        if index[root]:
            continue
        enter(root)
        while call:
            v, todo = call[-1]
            for w in todo:
                if not index[w]:
                    enter(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:  # every neighbour read: v's visit ends
                call.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                if call:
                    parent = call[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comps


def explore(start, moves):
    """The graph reachable from `start`, where moves(v) yields the
    (label, successor) pairs of vertex v.

    Vertices are numbered when first seen, from a last-in first-out
    worklist.  Returns the vertices by number, each vertex's distinct
    successors by number in first-seen order, and the first label of every
    edge, keyed by its pair of numbers."""
    number = {start: 0}
    succ: list[list[int]] = [[]]
    labels: dict[tuple[int, int], object] = {}
    work = [start]
    while work:
        v = work.pop()
        i = number[v]
        for label, w in moves(v):
            j = number.setdefault(w, len(succ))
            if j == len(succ):
                succ.append([])
                work.append(w)
            if (i, j) not in labels:
                labels[(i, j)] = label
                succ[i].append(j)
    return list(number), succ, labels


def rejecting_cycle(succ: list[list[int]], rejecting) -> list[int] | None:
    """The first component, in `sccs` order, with a cycle through a vertex
    of `rejecting`; None when no such cycle exists."""
    for comp in sccs(len(succ), succ.__getitem__):
        cyclic = len(comp) > 1 or comp[0] in succ[comp[0]]
        if cyclic and not rejecting.isdisjoint(comp):
            return comp
    return None


def ucw_accepts_lasso(a: Ucw, prefix, loop) -> bool:
    """True iff every run over prefix . loop^omega hits rejecting states
    only finitely often, checked on the product with the word positions."""
    if not loop:
        raise ValueError("loop must be nonempty")
    letters = [letter_index(a.alphabet, l) for l in list(prefix) + list(loop)]
    rows = a.rows()

    def moves(v):
        q, p = v
        p2 = p + 1 if p + 1 < len(letters) else len(prefix)
        return ((None, (q2, p2)) for q2, g in rows[q] if g >> letters[p] & 1)

    vertices, succ, _ = explore((a.initial, 0), moves)
    rejecting = {j for j, (q, _) in enumerate(vertices) if q in a.rejecting}
    return rejecting_cycle(succ, rejecting) is None


# ---------------------------------------------------------------------------
# SCC analysis for the counter reduction

# The largest rank bound B = n*|F & C| at which component C's ranks are
# order-encoded, one variable per "rank >= j" for j = 1..B; above it they
# stay binary, as order ranks grow linearly in B.  On the arbiter's
# environment side, `basic` built and solved k = 4, n = 3 (B = 48) in 8.4 s
# with order ranks against 33.1 s binary, and k = 5, n = 2 (B = 64) in
# 12.1 s with twice the clauses against 8.1 s (2-vCPU VM, CPython 3.11.7).
ORDER_RANKS_MAX = 48


@dataclass
class SccInfo:
    """Which automaton states carry rank counters, and how wide they are.

    component maps each counted state to its component; ranks are compared
    only along edges within one component.  `counted` is the set of its keys.
    rank_bound[C] is n*|F & C|, the largest rank component C's least
    annotation needs: a path inside C meets each (system state, rejecting
    state of C) at most once.  Every rejecting state lies in exactly one
    counted component, so the bounds sum to n*|F|, and binary ranks have
    counter_bits bits, enough for that.
    """

    component: dict[int, int]
    rank_bound: list[int]

    @property
    def counted(self) -> KeysView[int]:
        return self.component.keys()

    @property
    def counter_bits(self) -> int:
        """Bits needed for ranks up to n*|F| (a run repeats beyond that)."""
        return max(1, sum(self.rank_bound).bit_length())

    def needs_compare(self, q: int, q2: int) -> bool:
        return q in self.component and self.component[q] == self.component.get(q2)

    def order_width(self, q: int) -> int:
        """The size rule: counted state q's rank is order-encoded in B
        variables while its component's bound B is at most ORDER_RANKS_MAX;
        0 means binary."""
        bound = self.rank_bound[self.component[q]]
        return bound if bound <= ORDER_RANKS_MAX else 0

    def rank_width(self, q: int) -> int:
        """The number of variables in counted state q's rank."""
        return self.order_width(q) or self.counter_bits


def analyze_sccs(a: Ucw, n_states_of_system: int) -> SccInfo:
    """Counters only for states whose component contains a rejecting state."""
    adj = [[q2 for q2, g in row if g] for row in a.rows()]
    comps = [comp for comp in sccs(a.n_states, lambda v: adj[v]) if not a.rejecting.isdisjoint(comp)]
    component = {q: cid for cid, comp in enumerate(comps) for q in comp}
    bound = [n_states_of_system * len(a.rejecting.intersection(comp)) for comp in comps]
    return SccInfo(component, bound)


def full_counters(a: Ucw, n_states_of_system: int) -> SccInfo:
    """Unreduced variant: every state counted, all in one component, so
    ranks are compared along every edge."""
    return SccInfo(dict.fromkeys(range(a.n_states), 0), [n_states_of_system * len(a.rejecting)])


# ---------------------------------------------------------------------------
# Symbolic (binary-coded) representation


def encode_symbolic(a: Ucw) -> int:
    """The width of the automaton's binary state codes, at least one bit.
    The fully symbolic encoder allocates that many code bits and builds the
    init, reject and delta constraints from them and the letter-set guards
    (`encode.symbolic_nodes`)."""
    return max(1, (a.n_states - 1).bit_length())


# ---------------------------------------------------------------------------
# Debug output


def ucw_to_dot(a: Ucw) -> str:
    """Graphviz text: double circles for rejecting states, guards on edges."""
    lines = ["digraph ucw {", "  init [shape=point];"]
    for q in range(a.n_states):
        shape = "doublecircle" if q in a.rejecting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="q{q}"];')
    lines.append(f"  init -> q{a.initial};")
    for (q, q2) in sorted(a.guards):
        text = format_guard(a.alphabet, a.guards[(q, q2)])
        lines.append(f'  q{q} -> q{q2} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
