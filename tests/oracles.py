"""Independent test oracles: LTL lasso semantics, aag simulation, naive QBF,
eager universal expansion.

Everything here is deliberately decoupled from the package's own
algorithms so tests cross-check rather than self-confirm.
"""

from __future__ import annotations

import itertools
import random

from ltlsynth import ltl
from ltlsynth.logic import _AND, _CONST, _VAR, _XOR, FALSE, TRUE
from ltlsynth.ltl import LtlFormula


def eval_ltl_lasso(f: LtlFormula, prefix, loop) -> bool:
    """Exact LTL evaluation on the ultimately periodic word prefix . loop^omega.

    Letters are sets of atom names.  Temporal operators are computed per
    position by fixpoint iteration over the finitely many distinct suffixes.
    """
    assert loop, "loop must be nonempty"
    letters = [frozenset(p) for p in list(prefix) + list(loop)]
    total = len(letters)
    loop_start = len(prefix)

    def succ(p: int) -> int:
        return p + 1 if p + 1 < total else loop_start

    vals: dict[LtlFormula, list[bool]] = {}

    def compute(g: LtlFormula) -> list[bool]:
        if g in vals:
            return vals[g]
        k = g.kind
        if k == ltl.ATOM:
            row = [g.name in letters[p] for p in range(total)]
        elif k == ltl.TRUE:
            row = [True] * total
        elif k == ltl.FALSE:
            row = [False] * total
        elif k == ltl.NOT:
            c = compute(g.children[0])
            row = [not v for v in c]
        elif k == ltl.AND:
            a, b = (compute(c) for c in g.children)
            row = [x and y for x, y in zip(a, b)]
        elif k == ltl.OR:
            a, b = (compute(c) for c in g.children)
            row = [x or y for x, y in zip(a, b)]
        elif k == ltl.IMPLIES:
            a, b = (compute(c) for c in g.children)
            row = [(not x) or y for x, y in zip(a, b)]
        elif k == ltl.IFF:
            a, b = (compute(c) for c in g.children)
            row = [x == y for x, y in zip(a, b)]
        elif k == ltl.NEXT:
            c = compute(g.children[0])
            row = [c[succ(p)] for p in range(total)]
        elif k in (ltl.UNTIL, ltl.FINALLY):
            if k == ltl.UNTIL:
                a, b = (compute(c) for c in g.children)
            else:
                a = [True] * total
                b = compute(g.children[0])
            row = [False] * total  # least fixpoint
            for _ in range(total + 1):
                new = [b[p] or (a[p] and row[succ(p)]) for p in range(total)]
                if new == row:
                    break
                row = new
        elif k in (ltl.RELEASE, ltl.GLOBALLY):
            if k == ltl.RELEASE:
                a, b = (compute(c) for c in g.children)
            else:
                a = [False] * total
                b = compute(g.children[0])
            row = [True] * total  # greatest fixpoint
            for _ in range(total + 1):
                new = [b[p] and (a[p] or row[succ(p)]) for p in range(total)]
                if new == row:
                    break
                row = new
        else:
            raise AssertionError(k)
        vals[g] = row
        return row

    return compute(f)[0]


def random_formula(rng: random.Random, atoms: list[str], depth: int) -> LtlFormula:
    """Random LTL syntax tree over the given atoms, any operator kind."""
    if depth <= 0 or rng.random() < 0.25:
        choice = rng.randrange(len(atoms) + 2)
        if choice < len(atoms):
            return ltl.atom(atoms[choice])
        return ltl.LTRUE if choice == len(atoms) else ltl.LFALSE
    unary = [ltl.lnot, ltl.lnext, ltl.lfinally, ltl.lglobally]
    binary = [ltl.land, ltl.lor, ltl.limplies, ltl.liff, ltl.luntil, ltl.lrelease]
    if rng.random() < 0.4:
        op = rng.choice(unary)
        return op(random_formula(rng, atoms, depth - 1))
    op = rng.choice(binary)
    return op(
        random_formula(rng, atoms, depth - 1),
        random_formula(rng, atoms, depth - 1),
    )


def all_letters(atoms: list[str]):
    """All subsets of atoms, as frozensets, in deterministic order."""
    out = []
    for mask in range(1 << len(atoms)):
        out.append(frozenset(a for j, a in enumerate(atoms) if mask >> j & 1))
    return out


def all_lassos(atoms: list[str], max_prefix: int, max_loop: int):
    """Every (prefix, loop) pair over 2^atoms within the length bounds."""
    letters = all_letters(atoms)

    def words(length: int):
        if length == 0:
            yield []
            return
        for rest in words(length - 1):
            for letter in letters:
                yield rest + [letter]

    for plen in range(max_prefix + 1):
        for llen in range(1, max_loop + 1):
            for prefix in words(plen):
                for loop in words(llen):
                    yield prefix, loop


# ---------------------------------------------------------------------------
# aag circuit simulation


def simulate_aag(text: str, input_rows: list[dict[str, bool]]) -> list[frozenset[str]]:
    """Run an ASCII AIGER circuit; returns the named outputs true per step.

    Checks the header and the definitions against the format first: M is
    I + L + A, the inputs are literals 2..2I with the latches next, and
    each AND defines an even literal, once, above every latch; no literal
    exceeds 2M + 1."""
    lines = text.splitlines()
    header = lines[0].split()
    assert header[0] == "aag"
    m, n_in, n_latch, n_out, n_and = (int(x) for x in header[1:6])
    assert m == n_in + n_latch + n_and, "M is not I + L + A"
    at = 1
    in_lits = [int(lines[at + j]) for j in range(n_in)]
    at += n_in
    latches = []
    for j in range(n_latch):
        cur, nxt = (int(x) for x in lines[at + j].split())
        latches.append((cur, nxt))
    at += n_latch
    out_lits = [int(lines[at + j]) for j in range(n_out)]
    at += n_out
    ands = []
    for j in range(n_and):
        lhs, a, b = (int(x) for x in lines[at + j].split())
        ands.append((lhs, a, b))
    at += n_and
    assert in_lits == [2 * (j + 1) for j in range(n_in)], "inputs are not 2..2I"
    assert [cur for cur, _ in latches] == [2 * (n_in + j + 1) for j in range(n_latch)], \
        "latches do not follow the inputs"
    lhs_lits = [lhs for lhs, _, _ in ands]
    assert all(lhs % 2 == 0 and lhs > 2 * (n_in + n_latch) for lhs in lhs_lits), \
        "an AND does not define an even literal above the latches"
    assert len(set(lhs_lits)) == n_and, "an AND literal is defined twice"
    used = [nxt for _, nxt in latches] + out_lits + [x for gate in ands for x in gate]
    assert all(0 <= x <= 2 * m + 1 for x in used), "a literal exceeds 2M + 1"
    in_names = {}
    out_names = {}
    for line in lines[at:]:
        if line.startswith("i"):
            slot, name = line[1:].split(" ", 1)
            in_names[int(slot)] = name
        elif line.startswith("o"):
            slot, name = line[1:].split(" ", 1)
            out_names[int(slot)] = name
        elif line == "c":
            break

    state = {cur: False for cur, _ in latches}
    result = []
    for row in input_rows:
        values = {0: False}
        for slot, lit in enumerate(in_lits):
            values[lit] = bool(row.get(in_names[slot], False))
        values.update(state)

        def lit_val(lit: int) -> bool:
            v = values[lit & ~1]
            return (not v) if lit & 1 else v

        for lhs, a, b in ands:
            assert a & ~1 in values and b & ~1 in values, "aag not topological"
            values[lhs] = lit_val(a) and lit_val(b)
        result.append(
            frozenset(out_names[slot] for slot, lit in enumerate(out_lits) if lit_val(lit))
        )
        state = {cur: lit_val(nxt) for cur, nxt in latches}
    return result


# ---------------------------------------------------------------------------
# Naive quantified-boolean evaluation (semantic, truth-table style)


def eval_qbf_naive(prefix, matrix_eval, variables=None) -> bool:
    """Semantic QBF evaluation by recursion over the prefix.

    prefix is a list of (quantifier, [vars]) with quantifier 'a' or 'e';
    matrix_eval maps a complete dict var->bool to a bool.
    """
    assignment: dict[int, bool] = {}

    def go(block: int) -> bool:
        if block == len(prefix):
            return matrix_eval(dict(assignment))
        quant, vs = prefix[block]
        return _branch(block, quant, vs, 0)

    def _branch(block: int, quant: str, vs, j: int) -> bool:
        if j == len(vs):
            return go(block + 1)
        results = []
        for value in (False, True):
            assignment[vs[j]] = value
            results.append(_branch(block, quant, vs, j + 1))
        del assignment[vs[j]]
        if quant == "e":
            return results[0] or results[1]
        return results[0] and results[1]

    return go(0)


def dpll(clauses: list[list[int]]) -> dict[int, bool] | None:
    """Tiny independent DPLL; returns a model dict or None."""
    clauses = [list(c) for c in clauses]
    assign: dict[int, bool] = {}

    def solve(cls) -> bool:
        while True:
            unit = None
            for c in cls:
                live = []
                satisfied = False
                for lit in c:
                    v = assign.get(abs(lit))
                    if v is None:
                        live.append(lit)
                    elif (lit > 0) == v:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not live:
                    return False
                if len(live) == 1:
                    unit = live[0]
                    break
            if unit is None:
                break
            assign[abs(unit)] = unit > 0
        free = None
        for c in cls:
            for lit in c:
                v = assign.get(abs(lit))
                if v is None:
                    sat = any(
                        assign.get(abs(l)) is not None and (assign[abs(l)] == (l > 0))
                        for l in c
                    )
                    if not sat:
                        free = abs(lit)
                        break
            if free:
                break
        if free is None:
            return True
        snapshot = dict(assign)
        for value in (True, False):
            assign.clear()
            assign.update(snapshot)
            assign[free] = value
            if solve(cls):
                return True
        assign.clear()
        assign.update(snapshot)
        return False

    if solve(clauses):
        return assign
    return None


# ---------------------------------------------------------------------------
# Eager universal expansion: one full rebuild of the matrix per assignment


def eager_expand(problem):
    """(expanded root, copies) by substituting every universal assignment.

    The reference for `QuantifiedProblem.expand`: the same copy
    allocation order, and a memo that lives for one assignment
    only, so every node is rebuilt once per full assignment and no
    three-valued shortcut is taken.  Its expanded formula and clause form
    must equal expand's node for node, up to references: expand skips
    the rebuilds that only fold to a constant, so it never creates the
    unreachable nodes those leave here.
    """
    store = problem.store
    universals = problem.universals()
    deps = problem.dependencies()
    upos = {u: j for j, u in enumerate(universals)}
    positions = {e: [upos[u] for u in ds] for e, ds in deps.items() if ds}
    copies = {}
    conjuncts = []
    for bits in itertools.product((False, True), repeat=len(universals)):
        mapping = {u: (TRUE if bits[j] else FALSE) for u, j in upos.items()}
        for e, pos in positions.items():
            key = tuple(bits[p] for p in pos)
            copy = copies.get((e, key))
            if copy is None:
                copy = copies[(e, key)] = store.new_var()
            mapping[e] = store.var(copy)
        conjuncts.append(_substitute(store, problem.matrix, mapping) if mapping else problem.matrix)
    return store.and_(conjuncts), copies


def _substitute(store, root, mapping):
    """root with variables replaced per mapping; and/or stop at an absorbing child."""
    memo = {}  # by node index; a negated reference takes the complement

    def go(f):
        n = f >> 1
        if n not in memo:
            node = store.nodes[n]
            tag = node[0]
            if tag == _CONST:
                r = FALSE
            elif tag == _VAR:
                r = mapping.get(node[1], store.var(node[1]))
            elif tag == _XOR:
                r = store.xor2(*map(go, node[1]))
            else:
                r = FALSE if tag == _AND else TRUE  # the absorbing value
                parts = []
                for c in node[1]:
                    m = go(c)
                    if m == r:
                        break
                    parts.append(m)
                else:
                    r = store.and_(parts) if tag == _AND else store.or_(parts)
            memo[n] = r
        return store.not_(memo[n]) if f & 1 else memo[n]

    return go(root)
