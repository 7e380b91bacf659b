"""Propositional formula DAG, CNF conversion, and solver file formats.

Formulas live in a Store: an append-only arena of hash-consed and, or and
xor gates over variables.  A formula is a reference 2k + s to node k,
negated when s is 1, so negation flips the low bit and builds no node:
the convention of AIGER literals.  Node 0 is the constant, so FALSE is 0
and TRUE is 1.  A variable's node is (tag, its number); every other node
is (tag, a tuple of child references), empty for the constant and two
ascending ones for a xor, so every walk reads node[1] as a node's
children.  Children always precede parents, constants are folded at
construction time, and syntactically equal builds return the same
reference.  An and/or of two operands, and an implication, are folded
and interned in one step, without the n-ary loop.  Variables are numbered
densely from 1 in allocation order, which doubles as the DIMACS numbering.
Cones are walked, and expanded, with explicit stacks, so no formula is too
deep to evaluate, expand, convert or emit.  `tseitin` has one CNF, a
clause form, which the internal solver reads and the emitted files carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby, product

FALSE = 0
TRUE = 1

# node tags
_CONST = "c"
_VAR = "v"
_AND = "a"
_OR = "o"
_XOR = "x"


class Store:
    """Arena of hash-consed formula nodes plus the variable table."""

    def __init__(self):
        self.nodes: list[tuple] = [(_CONST, ())]  # node k has references 2k and 2k + 1
        self._intern: dict[tuple, int] = {self.nodes[0]: FALSE}  # node -> its plain reference
        # f -> f ^ 1 for each negation taken, both ways: one shared int per
        # complement, where f ^ 1 makes a new one at every call
        self._comp: dict[int, int] = {FALSE: TRUE, TRUE: FALSE}
        self.var_node: list[int] = [-1]  # 1-indexed

    # -- construction -------------------------------------------------

    def _mk(self, node: tuple) -> int:
        nodes = self.nodes
        new = 2 * len(nodes)
        ref = self._intern.setdefault(node, new)
        if ref == new:
            nodes.append(node)
        return ref

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its 1-based number."""
        vid = len(self.var_node)
        self.var_node.append(self._mk((_VAR, vid)))
        return vid

    @property
    def num_vars(self) -> int:
        return len(self.var_node) - 1

    def var(self, vid: int) -> int:
        """Reference to variable number vid."""
        return self.var_node[vid]

    def not_(self, f: int) -> int:
        nf = self._comp.get(f)
        if nf is None:
            nf = self._comp[f] = f ^ 1
            self._comp[nf] = f
        return nf

    def _gate(self, tag: str, children) -> int:
        """The and/or of children, folded and interned.  A list of at most
        two takes a direct path with the same checks and the same result as
        the loop."""
        absorbing = FALSE if tag == _AND else TRUE
        neutral = TRUE - absorbing
        if children.__class__ is list and len(children) < 3:
            if len(children) < 2:
                return children[0] if children else neutral
            a, b = children
            if a == absorbing or b == absorbing or a ^ 1 == b:
                return absorbing
            if a == neutral:
                return b
            if b == neutral or b == a:
                return a
            key = (tag, (a, b))
        else:
            seen: set[int] = set()
            kept: list[int] = []
            for c in children:
                if c == absorbing or c ^ 1 in seen:
                    return absorbing
                if c == neutral or c in seen:
                    continue
                seen.add(c)
                kept.append(c)
            if not kept:
                return neutral
            if len(kept) == 1:
                return kept[0]
            key = (tag, tuple(kept))
        return self._mk(key)

    def and_(self, children) -> int:
        return self._gate(_AND, children)

    def or_(self, children) -> int:
        return self._gate(_OR, children)

    def xor2(self, a: int, b: int) -> int:
        if a <= TRUE:
            return self.not_(b) if a else b
        if b <= TRUE:
            return self.not_(a) if b else a
        if a == b:
            return FALSE
        if a ^ 1 == b:
            return TRUE
        if a > b:
            a, b = b, a
        return self._mk((_XOR, (a, b)))

    def implies(self, a: int, b: int) -> int:
        """or_([not_(a), b]) in one step; b complements not a only when
        b == a."""
        na = self.not_(a)
        if na == TRUE or b == TRUE or b == a:
            return TRUE
        if na == FALSE:
            return b
        if b == FALSE or b == na:
            return na
        return self._mk((_OR, (na, b)))

    def iff(self, a: int, b: int) -> int:
        return self.not_(self.xor2(a, b))

    # -- queries ------------------------------------------------------

    def evaluate(self, root: int, assignment: dict[int, bool]) -> bool:
        """Evaluate under a total assignment of the variables in root's cone."""
        value: dict[int, bool] = {}  # by reference
        for f in self.reachable(root):
            node = self.nodes[f >> 1]
            tag = node[0]
            if tag == _CONST:
                v = False
            elif tag == _VAR:
                v = assignment[node[1]]
            elif tag == _AND:
                v = all(value[c] for c in node[1])
            elif tag == _OR:
                v = any(value[c] for c in node[1])
            else:
                a, b = node[1]
                v = value[a] != value[b]
            value[f], value[f + 1] = v, not v
        return value[root]

    def _rebuild(self, f: int, i: int, mask: list[int], memo: list, known: tuple) -> int:
        """Reference f rebuilt at expansion index i.  The rebuild of f's
        node is kept as memo[f][i & mask[f]], a dict that f shares with its
        complement, and f's sign is applied to it on return.

        An and/or stops at its first absorbing child, as a fresh walk would.
        known = (T, F, j) holds the Kleene tables of `_block_tables` and i's
        place j in them: a child missing from the memo that they mark TRUE
        or FALSE at j is that constant, which its rebuild would fold to.
        A child to rebuild pushes its parent's frame on an explicit stack,
        so no depth is too deep; r, the rebuild of the child just finished,
        resumes the parent's walk over its children, else is None.
        """
        T, F, j = known
        nodes, not_ = self.nodes, self.not_
        frames: list[tuple] = []
        r = None
        while True:
            if r is None:  # start on f
                node = nodes[f >> 1]
                tag = node[0]
                stop = FALSE if tag == _AND else TRUE if tag == _OR else None
                kids = iter(node[1])
                parts: list[int] = []
            elif r != stop:  # resume f; an r equal to stop is its node's rebuild
                parts.append(r)
                r = None
            if r is None:
                for c in kids:
                    r = memo[c].get(i & mask[c])
                    if r is None:
                        r = TRUE if T[c] >> j & 1 else FALSE if F[c] >> j & 1 else None
                        if r is None:
                            break  # rebuild c first
                    elif c & 1:
                        r = not_(r)
                    if r == stop:
                        break
                    parts.append(r)
                else:
                    r = self.xor2(*parts) if tag == _XOR else self._gate(tag, parts)
                if r is None:
                    frames.append((f, tag, stop, kids, parts))
                    f = c
                    continue
            memo[f][i & mask[f]] = r
            if f & 1:
                r = not_(r)
            if not frames:
                return r
            f, tag, stop, kids, parts = frames.pop()

    def reachable(self, root: int) -> list[int]:
        """The plain reference of every node in root's cone, each once,
        children before parents."""
        nodes = self.nodes
        seen = bytearray(len(nodes))
        order: list[int] = []
        stack = [root]  # references, and ~f once plain f's children are done
        while stack:
            f = stack.pop()
            if f < 0:
                order.append(~f)
                continue
            n = f >> 1
            if seen[n]:
                continue
            seen[n] = 1
            stack.append(~(f & ~1))
            node = nodes[n]
            if node[0] != _VAR:
                stack.extend(node[1])
        return order

    def variables_in(self, root: int) -> set[int]:
        return {
            self.nodes[f >> 1][1]
            for f in self.reachable(root)
            if self.nodes[f >> 1][0] == _VAR
        }


# ---------------------------------------------------------------------------
# Bit vectors: tuples of formula nodes, least significant bit first


def bv_const(store: Store, value: int, width: int) -> tuple[int, ...]:
    return tuple(TRUE if value >> j & 1 else FALSE for j in range(width))


def bv_greater(store: Store, x: tuple[int, ...], y: tuple[int, ...], strict: bool) -> int:
    """Ripple comparator: x > y when strict, else x >= y.  Linear size."""
    if len(x) != len(y):
        raise ValueError(f"width mismatch: {len(x)} vs {len(y)}")
    acc = FALSE if strict else TRUE
    for xb, yb in zip(x, y):  # LSB towards MSB
        win = store.and_([xb, store.not_(yb)])
        if acc == FALSE:  # equal bits cannot win: build no eq to fold away
            acc = win
            continue
        eq = store.not_(store.xor2(xb, yb))
        acc = store.or_([win, store.and_([eq, acc])])
    return acc


def order_greater(store: Store, x: tuple[int, ...], y: tuple[int, ...], strict: bool) -> int:
    """Order-encoded comparator: x > y when strict, else x >= y, where
    x[j - 1] means "x >= j" and a rank reads as the largest such j (0 for
    none).  Non-strict is AND_j (y_j -> x_j); strict is x_1 and
    AND_{j<B} (y_j -> x_{j+1}) and not y_B, for B = len(x).  Every
    assignment that satisfies it compares as asked, monotone or not, and
    every monotone pair that compares as asked satisfies it."""
    if len(x) != len(y):
        raise ValueError(f"width mismatch: {len(x)} vs {len(y)}")
    if not strict:
        return store.and_([store.implies(yj, xj) for xj, yj in zip(x, y)])
    steps = [store.implies(yj, xj) for xj, yj in zip(x[1:], y)]
    return store.and_([x[0], *steps, store.not_(y[-1])])


def bv_equal(store: Store, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    if len(x) != len(y):
        raise ValueError(f"width mismatch: {len(x)} vs {len(y)}")
    return store.and_([store.not_(store.xor2(a, b)) for a, b in zip(x, y)])


def bv_less_const(store: Store, x: tuple[int, ...], bound: int) -> int:
    """Formula for x < bound (bound >= 1)."""
    if bound >= 1 << len(x):
        return TRUE
    return store.not_(bv_greater(store, x, bv_const(store, bound - 1, len(x)), True))


# ---------------------------------------------------------------------------
# Quantified problems


@dataclass
class QuantifiedProblem:
    """A matrix plus quantifier prefix; deps present means DQBF."""

    store: Store
    matrix: int
    prefix: list[tuple[str, list[int]]]  # ('e'|'a', var numbers)
    deps: dict[int, frozenset[int]] | None = None

    def __post_init__(self):
        bound: set[int] = set()
        for quant, vs in self.prefix:
            if quant not in ("e", "a"):
                raise ValueError(f"bad quantifier {quant!r}")
            for v in vs:
                if v in bound:
                    raise ValueError(f"variable {v} bound twice")
                bound.add(v)
        # with every store variable bound, no matrix variable can be free
        if not bound.issuperset(range(1, self.store.num_vars + 1)):
            free = self.store.variables_in(self.matrix) - bound
            if free:
                raise ValueError(f"unbound matrix variables: {sorted(free)}")
        if self.deps is not None:
            if set(self.deps) != set(self.existentials()):
                raise ValueError("dependency sets must name exactly the existentials")
            universals = self.universals()
            for v, ds in self.deps.items():
                if not ds <= set(universals):
                    raise ValueError(f"dependency of {v} not universal: {sorted(ds)}")

    def universals(self) -> list[int]:
        return [v for quant, vs in self.prefix for v in vs if quant == "a"]

    def existentials(self) -> list[int]:
        return [v for quant, vs in self.prefix for v in vs if quant == "e"]

    def is_sat_fragment(self) -> bool:
        return self.deps is None and not self.universals()

    def dependencies(self) -> dict[int, tuple[int, ...]]:
        """Each existential's universals, ascending.

        They are its `deps` entry when deps is given, and otherwise the
        universals quantified before it in the prefix.
        """
        if self.deps is not None:
            return {e: tuple(sorted(ds)) for e, ds in self.deps.items()}
        out: dict[int, tuple[int, ...]] = {}
        scope: list[int] = []
        for quant, vs in self.prefix:
            if quant == "a":
                scope.extend(vs)
            else:
                frozen = tuple(sorted(scope))
                for e in vs:
                    out[e] = frozen
        return out

    def expand(self) -> tuple[int, dict[tuple[int, tuple[bool, ...]], int]]:
        """The matrix conjoined over every assignment of the universals.

        Each dependent existential e is replaced by one fresh variable per
        assignment `key` of its dependencies, returned as copies[(e, key)].
        Index i sets universal j to bit m-1-j of i, so i counts in
        itertools.product order; a copy is made at the first i showing its
        key.  The rebuild of node n at i depends only on i & mask[n], the
        bits of the universals in n's cone (an existential contributes its
        dependencies' bits; see `_cone_masks`), so it is made once per such
        projection.  A node's memo is cleared when the bits above its
        highest universal outside the cone change: its projections never
        recur.  A node that the Kleene tables of `_block_tables` decide at
        i is not rebuilt: the rebuild would fold to that constant.  So the
        expanded formula is node for node the one that rebuilding the
        matrix for every i makes; only the unreachable nodes that those
        rebuilds would leave in the store are never created.
        """
        store, root = self.store, self.matrix
        universals = self.universals()
        if not universals:
            return root, {}
        m = len(universals)
        bit = {u: 1 << (m - 1 - j) for j, u in enumerate(universals)}
        deps = self.dependencies()
        emask = {e: sum(bit[u] for u in ds) for e, ds in deps.items() if ds}
        nodes = store.nodes
        # by reference, where a node's two references share one entry
        memo: list = [None] * (2 * len(nodes))
        # resets[h]: the memos to clear at each i whose lowest set bit is h-1
        resets: list[list[dict]] = [[] for _ in range(m + 1)]
        first: dict[int, list] = {}  # index -> the (dependent, key) pairs it shows first
        for e in emask:
            f = store.var(e)
            memo[f] = memo[f + 1] = {}  # filled as copies are made
            for key in product((False, True), repeat=len(deps[e])):
                first.setdefault(sum(bit[u] for u, b in zip(deps[e], key) if b), []).append((e, key))
        order = store.reachable(root)
        mask = _cone_masks(nodes, order, {**emask, **bit})
        for f in order:
            node = nodes[f >> 1]
            if node[0] == _VAR:
                v = node[1]
                if v not in emask:
                    memo[f] = memo[f + 1] = {0: store.var(v)} if v not in bit else {0: FALSE, bit[v]: TRUE}
            elif node[0] == _CONST:
                memo[f] = memo[f + 1] = {0: FALSE}
            else:
                memo[f] = memo[f + 1] = {}
                shift = ((1 << m) - 1 & ~mask[f]).bit_length()
                for h in range(shift + 1, m + 1):
                    resets[h].append(memo[f])

        copies: dict[tuple[int, tuple[bool, ...]], int] = {}
        conjuncts: list[int] = []
        blocks = _block_tables(nodes, order, bit, m)
        low = (1 << min(m, _TABLE_BITS)) - 1
        for i in range(1 << m):
            for table in resets[(i & -i).bit_length()]:
                table.clear()
            if not i & low:
                T, F = next(blocks)
            for e, key in first.get(i, ()):
                copy = store.new_var()
                copies[(e, key)] = copy
                memo[store.var(e)][i] = store.var(copy)
            r = memo[root].get(i & mask[root])
            if r is None:
                j = i & low
                r = (TRUE if T[root] >> j & 1 else FALSE if F[root] >> j & 1
                     else store._rebuild(root, i, mask, memo, (T, F, j)))
            elif root & 1:
                r = store.not_(r)
            conjuncts.append(r)
        return store.and_(conjuncts), copies


# The Kleene tables of `_block_tables` cover the assignments of at most this
# many of the lowest universals at once, one bit each, so a gate's pair of
# tables takes at most 2 * 2^_TABLE_BITS bits whatever the universal count.
_TABLE_BITS = 10


def _cone_masks(nodes: list[tuple], order, var_mask: dict[int, int]) -> list[int]:
    """By reference, the OR of var_mask over the variables in each node's
    cone, for the plain references in order, which lists a cone children
    first.  A node's two references share its entry; a variable missing
    from var_mask, and a node outside order, contribute 0."""
    mask = [0] * (2 * len(nodes))
    for r in order:
        node = nodes[r >> 1]
        if node[0] == _VAR:
            b = var_mask.get(node[1], 0)
        else:
            b = 0
            for c in node[1]:
                b |= mask[c]
        mask[r] = mask[r + 1] = b
    return mask


def _block_tables(nodes: list[tuple], order: list[int], bit: dict[int, int], m: int):
    """Three-valued (Kleene) truth tables of the nodes in order, by block.

    order lists a cone's plain references children first and bit gives
    each of the m universals its bit of an index i as in
    `QuantifiedProblem.expand`.  With w = min(m, _TABLE_BITS), a block is
    the 2^w indices that share their bits above the lowest w.  Once per
    block, from the first on, this yields lists (T, F) by reference: bit j
    of T[f] (of F[f]) is set when f is TRUE (FALSE) at index block + j
    whatever the existentials are, so a negation swaps its node's T and F.
    The lists are updated in place between blocks, and only for the nodes
    with a universal among the bits that changed, which `_cone_masks`
    finds.  Existentials are unknown, and a node's tables stay 0 when its
    cone has no universal.
    """
    w = min(m, _TABLE_BITS)
    low, full = (1 << w) - 1, (1 << (1 << w)) - 1
    T, F = [0] * (2 * len(nodes)), [0] * (2 * len(nodes))
    umask = _cone_masks(nodes, order, bit)
    todo = live = [r for r in order if umask[r]]
    redo: dict[int, list[int]] = {}  # lowest set bit of a block -> the nodes to recompute
    block = 0
    while True:
        for r in todo:
            node = nodes[r >> 1]
            tag = node[0]
            if tag == _VAR:
                b = umask[r]
                if b & low:  # bit k of t is this universal's bit in k
                    t = full // ((1 << 2 * b) - 1) * (((1 << b) - 1) << b)
                else:
                    t = full if block & b else 0
                f = full ^ t
            elif tag == _XOR:
                a, b = node[1]
                t = T[a] & F[b] | F[a] & T[b]
                f = T[a] & T[b] | F[a] & F[b]
            else:  # an or is an and with T and F swapped
                P, Q = (T, F) if tag == _AND else (F, T)
                t, f = full, 0
                for c in node[1]:
                    t &= P[c]
                    f |= Q[c]
                if tag == _OR:
                    t, f = f, t
            T[r], F[r], T[r + 1], F[r + 1] = t, f, f, t
        yield T, F
        block += low + 1
        h = block & -block
        todo = redo.get(h)
        if todo is None:
            todo = redo[h] = [r for r in live if umask[r] & ~low & (2 * h - 1)]


# ---------------------------------------------------------------------------
# Tseitin conversion

# A private gate is inlined only while the clause it joins has fewer
# literals than this; past it the gate is named, so the clause form stays
# linear in the size of the formula.
_INLINE_LIMIT = 8


def tseitin(store: Store, root: int) -> tuple[list[list[int]], dict[int, int], int]:
    """Equisatisfiable CNF of root in clause form (Plaisted and Greenbaum,
    1986; Jackson and Sheridan, 2004), as lists of ints.

    Returns (clauses, reference->literal map, total variable count).
    Original variables keep their numbers; definition variables are
    numbered above them.  A constant root yields no clause or the empty
    clause, and an empty map.

    A gate gets a variable when it is shared (two parents in root's cone)
    or sits below a xor, with only the halves of t <-> node that its uses
    need: t -> node where it occurs positively, node -> t where negatively.
    Every other gate is written straight into its parent's clauses, unless
    that would multiply two conjunctions out or copy a clause of
    `_INLINE_LIMIT` literals; such a gate is named too.  The map covers the
    plain references of the named gates, whose variables are numbered in
    the order the walk meets them, and a model of the clauses, restricted
    to the store's variables, satisfies root.

    The walk keeps an explicit stack of work items (g, context), each
    asking for the clauses of `context or g`, g a reference to a gate,
    plain or negated, and context the literals already in the clause.  A
    gate in conjunction position (a plain and, or a negated or) passes the
    context to each child; one in disjunction position adds its children's
    literals, flattens its private disjunction-position children into the
    same clause, and inlines at most one private conjunction-position
    child, naming the rest.  A negated gate's children are the negations
    of the node's.  Naming a reference g queues the matching definition
    half, the item (g, [not t]) for a plain g and (g, [t]) for a negated
    one, so each gate is walked at most once per polarity.  Two tables by
    reference make a child's literal one index: lit holds +-v for a
    variable v, +-t for a gate named t and 0 for a private gate, and
    queued marks the definition halves asked for, and every variable
    reference from the start, as a variable has none.
    """
    if root == TRUE:
        return [], {}, store.num_vars
    if root == FALSE:
        return [[]], {}, store.num_vars
    nodes, var_node, base = store.nodes, store.var_node, store.num_vars
    lit = [0] * (2 * len(nodes))
    queued = bytearray(2 * len(nodes))
    for v in range(1, base + 1):
        r = var_node[v]
        lit[r], lit[r + 1] = v, -v
        queued[r] = queued[r + 1] = 1
    if lit[root]:
        return [[lit[root]]], {}, base
    # parents per gate below root, a xor parent counting twice: below a
    # xor both polarities occur, so the gate is named as a shared one is
    parents = bytearray(len(nodes))  # by node index, counted up to 2
    stack = [root >> 1]
    while stack:
        node = nodes[stack.pop()]
        weight = 2 if node[0] == _XOR else 1
        for c in node[1]:
            if not lit[c]:  # a gate
                c >>= 1
                k = parents[c]
                if not k:
                    stack.append(c)
                parents[c] = 2 if k else weight

    named: list[int] = []  # plain references of the named gates, in numbering order

    def name(g: int) -> int:
        """Number gate reference g's node; returns g's literal."""
        p = g & ~1
        named.append(p)
        lit[p] = base + len(named)
        lit[p + 1] = -lit[p]
        return lit[g]

    clauses: list[list[int]] = []
    todo: list[tuple[int, list[int]]] = [(root, [])]
    while todo:
        g, context = todo.pop()
        node = nodes[g >> 1]
        tag = node[0]
        if tag == _XOR:  # each operand a variable or named, defined both ways
            a, b = [lit[c] or name(c) for c in node[1]]
            for c in node[1]:
                for h in (c ^ 1, c):
                    if not queued[h]:
                        queued[h] = 1
                        todo.append((h, [-lit[h]]))
            if g & 1:
                b = -b
            clauses.append(context + [a, b])
            clauses.append(context + [-a, -b])
            continue
        s = g & 1
        if (tag == _AND) != s:  # conjunction position
            for c in node[1]:
                c ^= s
                l = lit[c]
                if not l:
                    if parents[c >> 1] < 2:
                        todo.append((c, context))
                        continue
                    l = name(c)
                if not queued[c]:
                    queued[c] = 1
                    todo.append((c, [-l]))
                clauses.append(context + [l])
            continue
        clause = list(context)
        inline = None
        flat = [g]
        while flat:
            f = flat.pop()
            s = f & 1
            for c in nodes[f >> 1][1]:
                c ^= s
                l = lit[c]
                if not l:
                    if parents[c >> 1] < 2:
                        tag = nodes[c >> 1][0]
                        if tag != _XOR and (tag == _OR) != c & 1:
                            flat.append(c)  # disjunction position: same clause
                            continue
                        if inline is None:
                            inline = c
                            continue
                    l = name(c)
                if not queued[c]:
                    queued[c] = 1
                    todo.append((c, [-l]))
                clause.append(l)
        if inline is not None:
            if len(clause) < _INLINE_LIMIT:
                todo.append((inline, clause))
                continue
            queued[inline] = 1
            todo.append((inline, [-name(inline)]))
            clause.append(lit[inline])
        clauses.append(clause)
    return clauses, {p: lit[p] for p in named}, base + len(named)


# ---------------------------------------------------------------------------
# File formats


def _dimacs(num_vars: int, clauses: list[list[int]], blocks=(), deps=()) -> str:
    """The `p cnf` header, a quantifier line per (quantifier, variables)
    block, a `d` line per (existential, dependencies) pair, then a line per
    clause.  All clause lines are one format string, joined from a
    `"%d " * k + "0\\n"` per clause of k literals, and filled by one `%`."""
    lengths = list(map(len, clauses))
    line = {k: "%d " * k + "0\n" for k in set(lengths)}
    return "".join([
        f"p cnf {num_vars} {len(clauses)}\n",
        *(" ".join(map(str, [quant, *vs])) + " 0\n" for quant, vs in blocks),
        *(" ".join(map(str, ["d", v, *ds])) + " 0\n" for v, ds in deps),
        "".join(map(line.__getitem__, lengths)) % tuple(chain.from_iterable(clauses)),
    ])


def emit_dimacs(problem: QuantifiedProblem) -> str:
    """Plain CNF text for purely existential problems: exactly the clauses
    of `tseitin`, which `solve_internal` hands the SAT core."""
    if not problem.is_sat_fragment():
        raise ValueError("problem is not purely existential")
    clauses, _, num_vars = tseitin(problem.store, problem.matrix)
    return _dimacs(num_vars, clauses)


def emit_qdimacs(problem: QuantifiedProblem) -> str:
    """Prenex QBF text over the clauses of `tseitin`; its definition
    variables join the innermost existentials."""
    if problem.deps is not None:
        raise ValueError("problem has dependency annotations; use emit_dqdimacs")
    clauses, _, num_vars = tseitin(problem.store, problem.matrix)
    fresh = ("e", range(problem.store.num_vars + 1, num_vars + 1))
    # adjacent nonempty blocks of one quantifier merge into one line
    nonempty = [block for block in [*problem.prefix, fresh] if block[1]]
    blocks = [(quant, [v for _, vs in run for v in vs])
              for quant, run in groupby(nonempty, key=lambda block: block[0])]
    return _dimacs(num_vars, clauses, blocks)


def emit_dqdimacs(problem: QuantifiedProblem) -> str:
    """QDIMACS extended with explicit `d` dependency lines per existential.

    The clauses come from `tseitin`.  A definition variable depends on the
    universals in its gate's cone and on the dependencies of the
    existentials there: `_cone_masks` folds them over the matrix's cone,
    one bit per universal.  Setting the variable to its gate's value is a
    Skolem function over exactly these, so the file keeps the problem's
    truth."""
    if problem.deps is None:
        raise ValueError("problem has no dependency annotations; use emit_qdimacs")
    store = problem.store
    clauses, lit, num_vars = tseitin(store, problem.matrix)
    universals = problem.universals()
    ascending = sorted(universals)
    bit = {u: 1 << j for j, u in enumerate(ascending)}
    var_mask = {e: sum(bit[u] for u in ds) for e, ds in problem.deps.items()}
    cone = _cone_masks(store.nodes, store.reachable(problem.matrix), {**var_mask, **bit})
    # the walk numbers the definition variables in ascending order, after the store's
    masks = [(e, var_mask[e]) for e in sorted(var_mask)]
    masks += [(t, cone[r]) for r, t in lit.items()]
    # one list per distinct mask: many gates share one
    named = {b: [u for u in ascending if b & bit[u]] for b in {b for _, b in masks}}
    blocks = [("a", universals)] if universals else []
    return _dimacs(num_vars, clauses, blocks, ((v, named[b]) for v, b in masks))


@dataclass
class DimacsFile:
    """Parsed (Q/DQ)DIMACS content, able to re-render itself byte-exactly."""

    num_vars: int
    comments: list[str] = field(default_factory=list)
    blocks: list[tuple[str, list[int]]] = field(default_factory=list)
    dep_lines: list[tuple[int, list[int]]] = field(default_factory=list)
    clauses: list[list[int]] = field(default_factory=list)

    def render(self) -> str:
        comments = "".join(f"c {c}\n" for c in self.comments)
        return comments + _dimacs(self.num_vars, self.clauses, self.blocks, self.dep_lines)


def read_dimacs(text: str) -> DimacsFile:
    """Parse DIMACS/QDIMACS/DQDIMACS text (comments before the header only)."""
    doc = DimacsFile(num_vars=0)
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and lines[idx].startswith("c"):
        doc.comments.append(lines[idx][2:] if lines[idx].startswith("c ") else lines[idx][1:])
        idx += 1
    if idx >= len(lines) or not lines[idx].startswith("p cnf "):
        raise ValueError("missing DIMACS header")
    parts = lines[idx].split()
    doc.num_vars = int(parts[2])
    declared_clauses = int(parts[3])
    idx += 1
    for line in lines[idx:]:
        if not line.strip():
            continue
        fields = line.split()
        if fields[-1] != "0":
            raise ValueError(f"line not 0-terminated: {line!r}")
        if fields[0] in ("a", "e"):
            doc.blocks.append((fields[0], [int(x) for x in fields[1:-1]]))
        elif fields[0] == "d":
            doc.dep_lines.append((int(fields[1]), [int(x) for x in fields[2:-1]]))
        else:
            doc.clauses.append([int(x) for x in fields[:-1]])
    if len(doc.clauses) != declared_clauses:
        raise ValueError(
            f"clause count mismatch: header says {declared_clauses}, found {len(doc.clauses)}"
        )
    return doc
