"""The four bounded-synthesis encoders: SAT, QBF, and two DQBF variants.

Each encoder turns (automaton, system bound, semantics, counter info) into
a QuantifiedProblem over a fresh Store plus a VarDirectory mapping the
encoding roles back to variable numbers, which `extract` reads a model
through.  Variables are bare numbers: the directory, and `Model.copies` for
expansion copies, are the only descriptions of what a variable means.

Shared structure: reachability flags per (system state, automaton state),
rank counters compared along automaton edges (strictly into rejecting
states), a transition relation with at least one successor everywhere, and
output variables feeding the edge guards.  The explicit pair order-encodes
a component's ranks while its bound is small (`SccInfo.order_width`,
compared by `order_greater`); every other rank is a binary tuple of
`counter_bits` bits compared by `bv_greater`.  The variants differ along
one axis, what stays explicit, and come in two pairs with one skeleton each:

  explicit system states (`_encode_explicit`): the basic encoding
      enumerates the input valuations, compiles each guard's cofactor at
      a valuation over the outputs alone and keeps one copy of trans (and
      of Mealy outputs) per valuation; the input-symbolic one keeps the
      inputs as universal variables, so a single copy serves every
      valuation.
  symbolic system states (`_SymbolicFrame`): system states become
      universally quantified bit vectors, t and its successor t2, with
      Ackermann-style consistency ties between the two occurrences.  The
      state-symbolic encoding keeps one reach/rank pair per automaton
      state; the fully symbolic one also runs over a binary-coded
      automaton, whose state bits are universal as well.

Every guard is a letter set compiled by `automaton.compile_guard`, which
also builds the AIGER circuits, and the encoders walk each state's edges
in target order.  Variable allocation order and the order of each gate's
children fix the emitted DIMACS numbering, so both are part of each encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import SccInfo, Ucw, compile_guard
from .logic import FALSE, QuantifiedProblem, Store, bv_equal, bv_greater, bv_less_const, order_greater
from .solve import Model
from .system import MEALY, MOORE, TransitionSystem, input_valuations

BASIC = "basic"
INPUT_SYMBOLIC = "input"
STATE_SYMBOLIC = "state"
FULLY_SYMBOLIC = "full"


@dataclass
class VarDirectory:
    """Role -> variable map for one encoded instance: with `Model.copies`,
    the only record of what each variable of the encoding means.

    Key shapes per kind:
      basic:  reach[(t,q)], rank[(t,q)]=tuple of order levels or bits, trans[(t,i_idx,t2)],
              out[(name,t,i_idx)] (Mealy) or out[(name,t)] (Moore)
      input:  reach[(t,q)], rank[(t,q)], trans[(t,t2)], out[(name,t)]
      state:  reach[q], rank[q], reach2[q], rank2[q], trans[j], out[name]
      full:   reach[()], rank[()], reach2[()], rank2[()], trans[j], out[name]
    """

    kind: str
    semantics: str
    n: int
    reach: dict = field(default_factory=dict)
    rank: dict = field(default_factory=dict)
    reach2: dict = field(default_factory=dict)
    rank2: dict = field(default_factory=dict)
    trans: dict = field(default_factory=dict)
    out: dict = field(default_factory=dict)
    univ_inputs: dict = field(default_factory=dict)
    univ_state: list = field(default_factory=list)
    univ_state2: list = field(default_factory=list)
    univ_aut: list = field(default_factory=list)
    univ_aut2: list = field(default_factory=list)

    def all_vars(self) -> list[int]:
        out: list[int] = []
        for d in (self.reach, self.reach2, self.trans, self.out):
            out.extend(d.values())
        for d in (self.rank, self.rank2):
            for ids in d.values():
                out.extend(ids)
        out.extend(self.univ_inputs.values())
        out.extend(self.univ_state)
        out.extend(self.univ_state2)
        out.extend(self.univ_aut)
        out.extend(self.univ_aut2)
        return out


class ExtractionError(RuntimeError):
    """Model inconsistent with the encoding contract; an encoder bug."""


def extract(model: Model, d: VarDirectory, inputs, outputs) -> TransitionSystem:
    """The machine in a model of any encoding: at each (state, input
    valuation), the inputs and state-code bits set as its universal context,
    `Model.value_of` reads the trans/out variables.  The successor is the
    least true one-hot trans variable, or the transition bits as a code.
    """
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



def cofactors(mask: int, w: int, width: int) -> list[int]:
    """A letter set's cofactor at each valuation ii of its low w atoms: the
    letters whose low w atoms spell ii, as a letter set over the `width`
    atoms above them.  With w = 0 that is [mask]."""
    bits = format(mask, f"0{1 << (w + width)}b")[::-1]  # bit l of mask at position l
    return [int(bits[ii::1 << w][::-1], 2) for ii in range(1 << w)]


def _code_node(store: Store, bits: list[int], value: int) -> int:
    """The bit nodes spell value, lowest bit first."""
    return store.and_([bit if value >> j & 1 else store.not_(bit) for j, bit in enumerate(bits)])


def symbolic_nodes(store: Store, a: Ucw, atom_map: dict[str, int], code, code2) -> tuple[int, int, int]:
    """(init, reject, delta) of a binary-coded automaton as Store nodes.

    atom_map gives a node for every alphabet atom; code and code2 are the
    bit nodes of the source and target state codes, lowest bit first.
    init is the initial code, reject one OR of the primed rejecting codes,
    and delta one OR over the sorted edges of AND(code(q), guard,
    code2(q2)), so codes of no state satisfy init or a source position of
    delta.
    """
    init = _code_node(store, code, a.initial)
    reject = store.or_([_code_node(store, code2, q) for q in sorted(a.rejecting)])
    delta = store.or_([
        store.and_([_code_node(store, code, q), compile_guard(store, a.alphabet, g, atom_map),
                    _code_node(store, code2, q2)])
        for (q, q2), g in sorted(a.guards.items())
    ])
    return init, reject, delta


# ---------------------------------------------------------------------------
# Explicit system states: basic (SAT) and input-symbolic (QBF)


def _encode_explicit(
    kind: str, a: Ucw, n: int, sem: str, scc: SccInfo
) -> tuple[QuantifiedProblem, VarDirectory]:
    """One obligation builder for the basic and input-symbolic encodings.

    A copy of trans, and of the Mealy outputs, is keyed by a suffix: the
    valuation index (basic) or nothing (input-symbolic).  A copy sees each
    guard as its cofactor at the copy's valuation, a letter set over the
    outputs (basic), or whole over the universal inputs and the outputs
    (input-symbolic); a copy whose cofactor is empty builds nothing for
    that edge.  Input-symbolic Moore outputs do not depend on the inputs
    and join the outer block.
    The basic prefix has an empty universal block, so it stays a SAT
    fragment and emits as one existential block.
    Ranks are compared only within a component C (`SccInfo.needs_compare`),
    so they need values up to B = n*|F & C| only.  While B is at most
    `ORDER_RANKS_MAX` a rank is B variables, the j-th meaning "rank >= j";
    a model's rank is the largest j whose variable is true, so no clause
    ties the levels together.  Above it a rank keeps `counter_bits` bits.
    """
    if n < 1:
        raise ValueError("bound must be positive")
    store = Store()
    symbolic = kind == INPUT_SYMBOLIC
    w = 0 if symbolic else len(a.inputs)  # the atoms each copy fixes: none, or the inputs
    # key suffixes of the trans/out copies: one per valuation, or a single ()
    copies = [()] if symbolic else [(ii,) for ii in range(1 << w)]
    out_copies = [()] if sem == MOORE else copies
    d = VarDirectory(kind, sem, n)

    for t in range(n):
        for q in range(a.n_states):
            d.reach[(t, q)] = store.new_var()
    for t in range(n):
        for q in sorted(scc.counted):
            d.rank[(t, q)] = tuple(store.new_var() for _ in range(scc.rank_width(q)))
    rank = {key: tuple(map(store.var, ids)) for key, ids in d.rank.items()}

    def allocate_outputs():
        for name in a.outputs:
            for t in range(n):
                for s in out_copies:
                    d.out[(name, t, *s)] = store.new_var()

    outer_outputs = symbolic and sem == MOORE
    if outer_outputs:
        allocate_outputs()
    outer = list(range(1, store.num_vars + 1))
    if symbolic:
        d.univ_inputs = {name: store.new_var() for name in a.inputs}
    universals = list(d.univ_inputs.values())
    for t in range(n):
        for s in copies:
            for t2 in range(n):
                d.trans[(t, *s, t2)] = store.new_var()
    if not outer_outputs:
        allocate_outputs()
    inner = list(range(len(outer) + len(universals) + 1, store.num_vars + 1))

    free = a.alphabet[w:]
    univ = {name: store.var(v) for name, v in d.univ_inputs.items()}
    atom_maps = {}
    for t in range(n):
        for s in copies:
            s_out = () if sem == MOORE else s
            atom_maps[(t, s)] = univ | {name: store.var(d.out[(name, t, *s_out)]) for name in a.outputs}

    # each copy's transition nodes, t2 = 0..n-1
    trans = {(t, s): [store.var(d.trans[(t, *s, t2)]) for t2 in range(n)]
             for t in range(n) for s in copies}
    conjuncts = [store.var(d.reach[(0, a.initial)])]
    conjuncts += [store.or_(nodes) for nodes in trans.values()]

    for q, row in enumerate(a.rows()):
        # each edge's guard at each copy's valuation, over the atoms left free; empty ones dropped
        edges = [(q2, [(s, c) for s, c in zip(copies, cofactors(g, w, len(free))) if c])
                 for q2, g in sorted(row)]
        for t in range(n):
            parts = []
            for q2, copy_guards in edges:
                bodies: dict[int, int] = {}  # t2 -> obligation, shared by the copies
                for s, guard in copy_guards:
                    delta = compile_guard(store, free, guard, atom_maps[(t, s)])
                    inner_parts = []
                    for t2, tr in enumerate(trans[(t, s)]):
                        if t2 not in bodies:
                            body = [store.var(d.reach[(t2, q2)])]
                            if scc.needs_compare(q, q2):  # strictly into rejecting states
                                greater = order_greater if scc.order_width(q) else bv_greater
                                body.append(greater(store, rank[(t2, q2)], rank[(t, q)],
                                                    q2 in a.rejecting))
                            bodies[t2] = store.and_(body)
                        inner_parts.append(store.implies(tr, bodies[t2]))
                    parts.append(store.implies(delta, store.and_(inner_parts)))
            if parts:
                conjuncts.append(store.implies(store.var(d.reach[(t, q)]), store.and_(parts)))

    matrix = store.and_(conjuncts)
    problem = QuantifiedProblem(
        store, matrix, [("e", outer), ("a", universals), ("e", inner)]
    )
    return problem, d


def encode_basic(a: Ucw, n: int, sem: str, scc: SccInfo) -> tuple[QuantifiedProblem, VarDirectory]:
    return _encode_explicit(BASIC, a, n, sem, scc)


def encode_input_symbolic(a: Ucw, n: int, sem: str, scc: SccInfo) -> tuple[QuantifiedProblem, VarDirectory]:
    return _encode_explicit(INPUT_SYMBOLIC, a, n, sem, scc)


# ---------------------------------------------------------------------------
# Symbolic system states: state-symbolic and fully symbolic (DQBF)


class _SymbolicFrame:
    """Variables and constraints shared by the two DQBF encodings.

    Universals: inputs, the state codes t and t2, then the automaton-state
    codes (fully symbolic only).  Existentials: reach/rank over t (and
    the automaton code) for each location, their copies reach2/rank2 over
    t2, the transition bits over t and the inputs, and the outputs over t
    (and the inputs, for Mealy).  `locations` and `counted` key the
    reach and rank variables: automaton states, or the single key ().
    """

    def __init__(self, kind, a, n, sem, b, locations, counted, aut_width=0):
        if n < 1:
            raise ValueError("bound must be positive")
        self.store = store = Store()
        self.n = n
        self.k = k = (n - 1).bit_length()
        self.d = d = VarDirectory(kind, sem, n)

        d.univ_inputs = {name: store.new_var() for name in a.inputs}
        d.univ_state = [store.new_var() for _ in range(k)]
        d.univ_state2 = [store.new_var() for _ in range(k)]
        d.univ_aut = [store.new_var() for _ in range(aut_width)]
        d.univ_aut2 = [store.new_var() for _ in range(aut_width)]
        self.universals = list(range(1, store.num_vars + 1))

        t_set = frozenset(d.univ_state)
        ti_set = t_set | frozenset(d.univ_inputs.values())
        self.deps: dict[int, frozenset[int]] = {}
        self.existentials: list[int] = []
        for reach, rank, dep in (
            (d.reach, d.rank, t_set | frozenset(d.univ_aut)),
            (d.reach2, d.rank2, frozenset(d.univ_state2) | frozenset(d.univ_aut2)),
        ):
            for loc in locations:
                reach[loc] = self._allocate(dep)
            for loc in counted:
                rank[loc] = tuple(self._allocate(dep) for _ in range(b))
        for j in range(k):
            d.trans[j] = self._allocate(ti_set)
        for name in a.outputs:
            d.out[name] = self._allocate(ti_set if sem == MEALY else t_set)

        self.t_vec = self.vec(d.univ_state)
        self.t2_vec = self.vec(d.univ_state2)
        self.trans_vec = self.vec(d.trans[j] for j in range(k))
        self.atom_map = {name: store.var(v) for name, v in d.univ_inputs.items()}
        self.atom_map.update({name: store.var(d.out[name]) for name in a.outputs})

    def _allocate(self, dep: frozenset[int]) -> int:
        v = self.store.new_var()
        self.deps[v] = dep
        self.existentials.append(v)
        return v

    def vec(self, ids) -> tuple[int, ...]:
        return tuple(map(self.store.var, ids))

    def match(self) -> int:
        """The transition bits name t2."""
        return self.store.and_([self.store.iff(x, y) for x, y in zip(self.trans_vec, self.t2_vec)])

    def assemble(self, init: int, main: int) -> tuple[QuantifiedProblem, VarDirectory]:
        """Add the dead-code guard and the consistency ties; build the problem."""
        store, d, n = self.store, self.d, self.n
        conjuncts = [init]
        if (1 << self.k) > n:
            # dead state codes carry no obligations, and tau may not produce one
            t_valid = bv_less_const(store, self.t_vec, n)
            valid = store.and_([t_valid, bv_less_const(store, self.t2_vec, n)])
            conjuncts.append(store.implies(valid, main))
            conjuncts.append(store.implies(t_valid, bv_less_const(store, self.trans_vec, n)))
        else:
            conjuncts.append(main)

        # Ackermann consistency: equal codes force equal function values
        same = bv_equal(store, self.t_vec, self.t2_vec)
        if d.univ_aut:
            same = store.and_([same, bv_equal(store, self.vec(d.univ_aut), self.vec(d.univ_aut2))])
        for loc, reach in d.reach.items():
            ties = [store.iff(store.var(reach), store.var(d.reach2[loc]))]
            if loc in d.rank:
                ties.append(bv_equal(store, self.vec(d.rank[loc]), self.vec(d.rank2[loc])))
            conjuncts.append(store.implies(same, store.and_(ties)))

        matrix = store.and_(conjuncts)
        problem = QuantifiedProblem(
            store,
            matrix,
            [("a", self.universals), ("e", self.existentials)],
            deps=self.deps,
        )
        return problem, d


def encode_state_symbolic(a: Ucw, n: int, sem: str, scc: SccInfo) -> tuple[QuantifiedProblem, VarDirectory]:
    """Explicit automaton states: one obligation per edge, guarded by match."""
    f = _SymbolicFrame(
        STATE_SYMBOLIC, a, n, sem, scc.counter_bits, range(a.n_states), sorted(scc.counted)
    )
    store, d = f.store, f.d
    init = store.implies(_code_node(store, f.t_vec, 0), store.var(d.reach[a.initial]))
    match = f.match()

    main_parts = []
    for q, row in enumerate(a.rows()):
        parts = []
        for q2, g in sorted(row):
            delta = compile_guard(store, a.alphabet, g, f.atom_map)
            if delta == FALSE:
                continue
            body = [store.var(d.reach2[q2])]
            if scc.needs_compare(q, q2):  # strictly into rejecting states
                body.append(bv_greater(store, f.vec(d.rank2[q2]), f.vec(d.rank[q]), q2 in a.rejecting))
            parts.append(store.implies(store.and_([delta, match]), store.and_(body)))
        if parts:
            main_parts.append(store.implies(store.var(d.reach[q]), store.and_(parts)))
    return f.assemble(init, store.and_(main_parts))


def encode_fully_symbolic(
    a: Ucw, width: int, n: int, sem: str, scc: SccInfo
) -> tuple[QuantifiedProblem, VarDirectory]:
    """Automaton states coded in `width` bits (`automaton.encode_symbolic`):
    one obligation over the symbolic delta."""
    f = _SymbolicFrame(FULLY_SYMBOLIC, a, n, sem, scc.counter_bits, [()], [()], width)
    store, d = f.store, f.d
    rank_vec = f.vec(d.rank[()])
    rank2_vec = f.vec(d.rank2[()])

    q_init, q_reject2, delta = symbolic_nodes(store, a, f.atom_map, f.vec(d.univ_aut), f.vec(d.univ_aut2))

    reach = store.var(d.reach[()])
    reach2 = store.var(d.reach2[()])
    init = store.implies(store.and_([_code_node(store, f.t_vec, 0), q_init]), reach)
    match = f.match()
    compare = store.and_(
        [
            store.implies(q_reject2, bv_greater(store, rank2_vec, rank_vec, True)),
            store.implies(store.not_(q_reject2), bv_greater(store, rank2_vec, rank_vec, False)),
        ]
    )
    main = store.implies(
        reach,
        store.implies(store.and_([delta, match]), store.and_([reach2, compare])),
    )
    return f.assemble(init, main)


# ---------------------------------------------------------------------------


def count_profile(problem: QuantifiedProblem) -> tuple[int, int, int]:
    """(existential count, universal count, matrix node count), pre-Tseitin."""
    n_exist = len(problem.existentials())
    n_univ = len(problem.universals())
    n_nodes = len(problem.store.reachable(problem.matrix))
    return n_exist, n_univ, n_nodes

