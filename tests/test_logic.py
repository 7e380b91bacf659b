import itertools
import json
import random

import pytest

from ltlsynth.automaton import analyze_sccs
from ltlsynth.driver import RunConfig, build_problem, make_sides
from ltlsynth.ltl import load_spec
from ltlsynth.logic import (
    _TABLE_BITS,
    _AND,
    _CONST,
    _OR,
    _VAR,
    _XOR,
    FALSE,
    TRUE,
    QuantifiedProblem,
    Store,
    _block_tables,
    bv_const,
    bv_equal,
    bv_greater,
    bv_less_const,
    emit_dimacs,
    emit_dqdimacs,
    emit_qdimacs,
    order_greater,
    read_dimacs,
    tseitin,
)
from ltlsynth.solve import sat_solve, solve_internal
from oracles import _substitute, dpll
from suite import SUITE, arbiter_doc


def test_hash_consing_shares_nodes():
    s = Store()
    a, b = s.new_var(), s.new_var()
    f1 = s.and_([s.var(a), s.or_([s.var(b), s.not_(s.var(a))])])
    before = len(s.nodes)
    f2 = s.and_([s.var(a), s.or_([s.var(b), s.not_(s.var(a))])])
    assert f1 == f2
    assert len(s.nodes) == before


def test_constant_folding():
    s = Store()
    a = s.var(s.new_var())
    assert s.and_([a, TRUE]) == a
    assert s.and_([a, FALSE]) == FALSE
    assert s.or_([a, TRUE]) == TRUE
    assert s.and_([a, s.not_(a)]) == FALSE
    assert s.or_([a, s.not_(a)]) == TRUE
    assert s.not_(s.not_(a)) == a
    assert s.and_([]) == TRUE
    assert s.or_([]) == FALSE
    assert s.xor2(a, a) == FALSE


def _rand_formula(s, rng, var_nodes, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(var_nodes + [TRUE, FALSE])
    pick = rng.randrange(5)
    if pick == 0:
        return s.not_(_rand_formula(s, rng, var_nodes, depth - 1))
    if pick == 1:
        return s.and_([_rand_formula(s, rng, var_nodes, depth - 1) for _ in range(rng.randrange(2, 4))])
    if pick == 2:
        return s.or_([_rand_formula(s, rng, var_nodes, depth - 1) for _ in range(rng.randrange(2, 4))])
    if pick == 3:
        return s.xor2(
            _rand_formula(s, rng, var_nodes, depth - 1),
            _rand_formula(s, rng, var_nodes, depth - 1),
        )
    # if-then-else from three draws: (c and t) or (not c and e)
    c, t, e = (_rand_formula(s, rng, var_nodes, depth - 1) for _ in range(3))
    return s.or_([s.and_([c, t]), s.and_([s.not_(c), e])])


def _assert_node_shapes(store):
    """Every node but a variable is (tag, tuple of child references), each
    child's node precedes its parent, and a xor's two children ascend."""
    for k, node in enumerate(store.nodes):
        tag, kids = node
        if tag == _VAR:
            assert type(kids) is int
            continue
        assert type(kids) is tuple and all(c >> 1 < k for c in kids), node
        if tag == _CONST:
            assert (k, kids) == (0, ())
        elif tag == _XOR:
            a, b = kids
            assert a < b, node
        else:
            assert tag in (_AND, _OR) and len(kids) >= 2, node


def test_nodes_have_one_shape_children_first():
    """On random formulas, and on the 3-client arbiter's `state` and
    `full` stores at n = 3, which hold xor nodes, before and after
    universal expansion."""
    rng = random.Random(23)
    s = Store()
    pool = [s.var(s.new_var()) for _ in range(5)]
    roots = [_rand_formula(s, rng, pool, 4) for _ in range(200)]
    assert any(node[0] == _XOR for node in s.nodes) and len(set(roots)) > 50
    _assert_node_shapes(s)
    spec = load_spec(json.dumps(arbiter_doc(3)))
    [side] = make_sides(spec, RunConfig(counter_strategy="off"))
    for encoding in ("state", "full"):
        problem, _ = build_problem(side, 3, RunConfig(encoding=encoding))
        assert any(node[0] == _XOR for node in problem.store.nodes)
        _assert_node_shapes(problem.store)
        before = len(problem.store.nodes)
        problem.expand()
        assert len(problem.store.nodes) > before
        _assert_node_shapes(problem.store)


def test_tseitin_trivial_cases():
    s = Store()
    v = s.new_var()
    assert tseitin(s, s.var(v)) == ([[1]], {}, 1)
    assert tseitin(s, s.not_(s.var(v))) == ([[-1]], {}, 1)
    # a constant names no node: no clause, or the empty clause
    assert tseitin(s, TRUE) == ([], {}, 1)
    assert tseitin(s, FALSE) == ([[]], {}, 1)

    a, b = s.new_var(), s.new_var()
    root = s.and_([s.var(a), s.var(b)])
    assert tseitin(s, root) == ([[2], [3]], {}, 3)


def test_tseitin_evaluation_agreement_with_witness_extension():
    """With each definition variable set to its gate's value, the clauses
    hold exactly where root does: the Skolem function that the emitted
    files' definition variables rely on."""
    rng = random.Random(9)
    for _ in range(60):
        s = Store()
        vids = [s.new_var() for j in range(3)]
        nodes = [s.var(v) for v in vids]
        root = _rand_formula(s, rng, nodes, 3)
        if root in (TRUE, FALSE):
            continue
        clauses, lit, num_vars = tseitin(s, root)
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip(vids, bits))
            full = {v: assignment.get(v, False) for v in range(1, num_vars + 1)}
            for node, t in lit.items():
                full[t] = s.evaluate(node, assignment)
            ok = all(any((full[abs(x)]) == (x > 0) for x in c) for c in clauses)
            assert ok == s.evaluate(root, assignment)


def test_tseitin_equisatisfiable_and_witnessed():
    """DPLL's own model of the clause form, restricted to the store's
    variables, satisfies root."""
    rng = random.Random(5)
    for _ in range(120):
        s = Store()
        vids = [s.new_var() for j in range(rng.randrange(1, 6))]
        nodes = [s.var(v) for v in vids]
        root = _rand_formula(s, rng, nodes, 3)
        clauses = tseitin(s, root)[0]

        truth = False
        for bits in itertools.product([False, True], repeat=len(vids)):
            if s.evaluate(root, dict(zip(vids, bits))):
                truth = True
                break
        model = dpll(clauses)
        assert (model is not None) == truth
        if model is not None and root not in (TRUE, FALSE):
            # the CNF witness restricted to the original vars satisfies root
            assignment = {v: model.get(v, False) for v in vids}
            assert s.evaluate(root, assignment)


def test_one_sided_tseitin_equisatisfiable_and_witnessed():
    rng = random.Random(13)
    for _ in range(1000):
        s = Store()
        vids = [s.new_var() for j in range(rng.randrange(1, 7))]
        root = _rand_formula(s, rng, [s.var(v) for v in vids], 4)
        clauses, lit, num_vars = tseitin(s, root)
        # definition variables only for named gates, numbered above the store's
        assert num_vars == s.num_vars + len(lit)
        assert all(abs(l) <= num_vars for c in clauses for l in c)

        truth = any(
            s.evaluate(root, dict(zip(vids, bits)))
            for bits in itertools.product([False, True], repeat=len(vids))
        )
        assert (dpll(clauses) is not None) == truth
        result = sat_solve(clauses, num_vars)
        assert (result.status == "sat") == truth
        if truth and root != TRUE:
            model = result.model.assignment
            assert s.evaluate(root, {v: model[v] for v in vids})


def test_one_sided_tseitin_polarity_halves():
    s = Store()
    a, b, c = (s.var(s.new_var()) for _ in "abc")
    conj = s.and_([a, b])
    root = s.or_([s.not_(conj), s.xor2(conj, c)])
    clauses, lit, num_vars = tseitin(s, root)
    # the and sits below the xor: named, with both halves; the xor and the
    # root have one parent each and are written into the root's clauses
    assert lit == {conj: 4} and num_vars == 4
    assert clauses == [
        [-4, 3, 4], [-4, -3, -4],  # not t or (c xor t)
        [-4, 1], [-4, 2],  # t -> a and b
        [4, -1, -2],  # a and b -> t
    ]


def test_clause_form_inlines_nested_implications():
    """r -> (d -> (t -> (a and b))), the shape of every encoding's
    constraints, needs no definition variable and no unit clause."""
    s = Store()
    r, d, t, a, b = (s.var(s.new_var()) for _ in "rdtab")
    root = s.implies(r, s.implies(d, s.implies(t, s.and_([a, b]))))
    clauses, lit, num_vars = tseitin(s, root)
    assert clauses == [[-1, -2, -3, 4], [-1, -2, -3, 5]]
    assert lit == {} and num_vars == 5


def test_clause_form_shares_named_gates():
    s = Store()
    a, b, c, d = (s.var(s.new_var()) for _ in "abcd")
    shared = s.and_([a, b])
    root = s.and_([s.or_([shared, c]), s.or_([s.not_(shared), d])])
    clauses, lit, num_vars = tseitin(s, root)
    # one variable for the gate with two parents, both halves; the ors and
    # the root are inlined
    assert lit == {shared: 5} and num_vars == 5
    assert sorted(map(sorted, clauses)) == sorted(
        map(sorted, [[5, 3], [-5, 4], [-5, 1], [-5, 2], [5, -1, -2]])
    )


def test_clause_form_of_deep_chain_is_linear():
    """or(x, and(y, or(x, and(y, ...)))) 2,000 levels deep: inlining every
    level would repeat each context, 2,005,001 literals in all."""
    s = Store()
    depth = 2000
    xs = [s.var(s.new_var()) for j in range(depth + 1)]
    ys = [s.var(s.new_var()) for j in range(depth)]
    f = xs[depth]
    for j in reversed(range(depth)):
        f = s.or_([xs[j], s.and_([ys[j], f])])
    clauses, _, num_vars = tseitin(s, f)
    assert sum(map(len, clauses)) <= 10 * depth
    assert num_vars - s.num_vars <= depth // 2
    assert sat_solve(clauses, num_vars).status == "sat"
    # with every x false, each level folds to false from the bottom up
    refuted = clauses + [[-x] for x in range(1, depth + 2)]
    assert sat_solve(refuted, num_vars).status == "unsat"


def _walk_pin_root(case):
    """A hand-built root reaching one branch of the clause-form walk, on
    a fresh store with ten variables."""
    s = Store()
    v = [s.var(s.new_var()) for _ in range(10)]
    a, b, c, d, e = v[:5]
    if case == "variable":
        return s, a
    if case == "negated-variable":
        return s, s.not_(a)
    if case == "xor-of-gates":  # both halves of both operands queued
        return s, s.xor2(s.and_([a, b]), s.or_([c, d]))
    if case == "negated-xor":  # one variable operand, one gate
        return s, s.not_(s.xor2(a, s.and_([b, c])))
    if case == "shared-both-polarities":
        g = s.and_([a, b])
        return s, s.and_([s.or_([g, c]), s.or_([s.not_(g), d])])
    if case == "flattened-or":
        return s, s.and_([d, s.or_([a, s.or_([b, c])])])
    if case == "second-conjunction-named":
        return s, s.or_([e, s.and_([a, b]), s.and_([c, d])])
    if case == "inline-below-limit":  # a clause of 7 literals inlines
        return s, s.or_([*v[:7], s.and_(v[8:])])
    if case == "inline-at-limit":  # a clause of 8 literals names
        return s, s.or_([*v[:8], s.and_(v[8:])])
    assert case == "negated-and"  # disjunction position, flattened
    return s, s.or_([d, s.not_(s.and_([a, s.and_([b, c])]))])


@pytest.mark.parametrize("case, clauses, named, num_vars", [
    ("variable", [[1]], [], 10),
    ("negated-variable", [[-1]], [], 10),
    ("xor-of-gates",
     [[11, 12], [-11, -12], [-12, 3, 4], [12, -3], [12, -4], [-11, 1], [-11, 2], [11, -1, -2]],
     [(22, 11), (24, 12)], 12),
    ("negated-xor", [[1, -11], [-1, 11], [-11, 2], [-11, 3], [11, -2, -3]], [(22, 11)], 11),
    ("shared-both-polarities", [[-11, 4], [11, -1, -2], [11, 3], [-11, 1], [-11, 2]],
     [(22, 11)], 11),
    ("flattened-or", [[4], [1, 2, 3]], [], 10),
    ("second-conjunction-named", [[5, 11, 1], [5, 11, 2], [-11, 3], [-11, 4]], [(24, 11)], 11),
    ("inline-below-limit", [[1, 2, 3, 4, 5, 6, 7, 9], [1, 2, 3, 4, 5, 6, 7, 10]], [], 10),
    ("inline-at-limit", [[1, 2, 3, 4, 5, 6, 7, 8, 11], [-11, 9], [-11, 10]], [(22, 11)], 11),
    ("negated-and", [[4, -1, -2, -3]], [], 10),
])
def test_clause_form_walk_is_pinned(case, clauses, named, num_vars):
    """The exact clauses, in order, the named gates in numbering order and
    the variable count for each branch of the walk, including those the
    encoders rarely reach."""
    s, root = _walk_pin_root(case)
    got_clauses, got_map, got_vars = tseitin(s, root)
    assert got_clauses == clauses
    assert list(got_map.items()) == named
    assert got_vars == num_vars


def test_deep_chain_evaluates_and_emits():
    """or(x, and(y, or(x, and(y, ...)))) 5,000 levels deep, past the
    recursion limit: evaluate, emit_dimacs and the clause form take it."""
    s = Store()
    depth = 5000
    xs = [s.new_var() for j in range(depth + 1)]
    ys = [s.new_var() for j in range(depth)]
    f = s.var(xs[depth])
    for j in reversed(range(depth)):
        f = s.or_([s.var(xs[j]), s.and_([s.var(ys[j]), f])])
    env = {v: False for v in xs} | {v: True for v in ys}
    assert not s.evaluate(f, env)
    env[xs[depth]] = True  # reached through every y
    assert s.evaluate(f, env)
    env[ys[depth - 1]] = False
    assert not s.evaluate(f, env)
    env[xs[0]] = True
    assert s.evaluate(f, env)

    doc = read_dimacs(emit_dimacs(QuantifiedProblem(s, f, [("e", xs + ys)])))
    clauses, _, num_vars = tseitin(s, f)
    assert doc.num_vars == num_vars and doc.clauses == clauses
    result = sat_solve(clauses + [[-x] for x in xs[1:]], num_vars)
    assert result.status == "sat" and result.model.assignment[xs[0]]


def test_deep_matrix_expands_and_solves():
    """A QBF whose matrix is 10,000 levels deep, far past the recursion
    limit: forall u exists x, e_j. (u <-> x) and every (e_j or u), as a
    right-nested chain.  At each value of u the expansion rebuilds the
    whole chain, and the solver finds x = u and e_j true at u = 0."""
    s = Store()
    depth = 5000
    u = s.new_var()
    x = s.new_var()
    es = [s.new_var() for j in range(depth)]
    f = s.iff(s.var(u), s.var(x))
    for e in reversed(es):
        f = s.and_([s.or_([s.var(e), s.var(u)]), f])
    problem = QuantifiedProblem(s, f, [("a", [u]), ("e", [x] + es)])
    result = solve_internal(problem)
    assert result.status == "sat"
    model = result.model
    for value in (False, True):
        assert model.value_of(x, {u: value}) is value
    assert all(model.value_of(e, {u: False}) for e in es)
    # and with x forced false the universal u = 1 has no answer
    problem = QuantifiedProblem(s, s.and_([f, s.not_(s.var(x))]), [("a", [u]), ("e", [x] + es)])
    assert solve_internal(problem).status == "unsat"


def test_one_sided_tseitin_halves_arbiter_cnf():
    """Moore 3-client arbiter, basic encoding, n=3: one full definition per
    gate made 7,941 clauses; the clause form has 2,410."""
    spec = load_spec(json.dumps(arbiter_doc(3)))
    [side] = make_sides(spec, RunConfig(counter_strategy="off"))
    problem, _ = build_problem(side, 3, RunConfig(encoding="basic"))
    clauses, _, _ = tseitin(problem.store, problem.matrix)
    assert len(clauses) <= 0.6 * 7941


def test_clause_form_shrinks_arbiter_cnf():
    """Moore 4-client arbiter, basic encoding, n=4: one definition variable
    per gate makes 11,173 variables (516 of them the encoding's: reach,
    ranks, trans and outputs); the clause form names only the shared
    gates, and has 1,852."""
    spec = load_spec(json.dumps(arbiter_doc(4)))
    [side] = make_sides(spec, RunConfig(counter_strategy="off"))
    problem, _ = build_problem(side, 4, RunConfig(encoding="basic"))
    a, n = side.automaton, 4
    scc = analyze_sccs(a, n)
    ranks = sum(map(scc.rank_width, scc.counted))
    assert problem.store.num_vars == n * (a.n_states + ranks + (1 << len(a.inputs)) * n + len(a.outputs)) == 516
    _, _, num_vars = tseitin(problem.store, problem.matrix)
    assert num_vars <= 11173 // 3


def test_gate_creates_no_negations():
    s = Store()
    xs = [s.var(s.new_var()) for j in range(4)]
    before = len(s.nodes)
    s.and_(xs)
    s.or_(xs[:3])
    assert len(s.nodes) == before + 2
    # complements already built are still found
    assert s.or_([xs[0], s.not_(xs[0])]) == TRUE
    nx = s.not_(xs[1])
    assert s.and_([nx, xs[2], xs[1]]) == FALSE


def test_negation_builds_no_node():
    """A negation is a reference's low bit.  On the 3-client arbiter's
    system side at n=3, the constant is the one node outside the matrix's
    cone on every encoding; and a gate's complement folds on the
    two-operand and the n-ary paths, in xor2 and in implies, adding no
    node."""
    spec = load_spec(json.dumps(arbiter_doc(3)))
    side = make_sides(spec, RunConfig())[0]
    assert side.role == "system"
    for encoding in ("basic", "input", "state", "full"):
        problem, _ = build_problem(side, 3, RunConfig(encoding=encoding))
        store = problem.store
        outside = set(range(0, 2 * len(store.nodes), 2)) - set(store.reachable(problem.matrix))
        assert outside == {FALSE}, (encoding, len(outside))

    s = Store()
    a, b, c = (s.var(s.new_var()) for _ in "abc")
    g = s.and_([a, b])
    before = len(s.nodes)
    ng = s.not_(g)
    assert s.not_(ng) == g and ng != g
    for gate, absorbing in ((s.and_, FALSE), (s.or_, TRUE)):
        assert gate([g, ng]) == gate([ng, g]) == absorbing
        assert gate([c, g, ng]) == gate([a, c, ng, g]) == absorbing
    assert s.xor2(g, ng) == s.xor2(ng, g) == TRUE
    assert s.implies(g, g) == s.implies(ng, ng) == TRUE
    assert len(s.nodes) == before


def test_binary_gates_match_the_loop():
    """and_/or_ on two operands and implies return the node, and leave the
    store, that the n-ary loop does: two stores are built in lockstep, one
    through the two-operand paths, one through `_gate` on an iterator."""
    rng = random.Random(1414)
    modes = ("any", "equal", "complement", "fresh", "fresh-equal", "not")
    seen = set()
    for trial in range(40):
        fast, loop = Store(), Store()
        pool = [TRUE, FALSE]
        for j in range(3):
            assert fast.new_var() == loop.new_var()
            pool.append(fast.var(j + 1))
        for step in range(60):
            op, mode = rng.choice(("and", "or", "implies")), rng.choice(modes)
            a = rng.choice(pool)
            if mode in ("fresh", "fresh-equal"):  # a variable never negated before
                v = fast.new_var()
                assert loop.new_var() == v
                b = fast.var(v)
                if mode == "fresh-equal":
                    a = b
            elif mode == "equal":
                b = a
            elif mode in ("complement", "not"):  # negates first
                c = a if mode == "complement" else rng.choice(pool)
                b = fast.not_(c)
                assert loop.not_(c) == b
            else:
                b = rng.choice(pool)
            if rng.random() < 0.5:
                a, b = b, a
            seen.add((op, mode))
            if op == "implies":
                got = fast.implies(a, b)
                want = loop._gate(_OR, iter([loop.not_(a), b]))
            else:
                tag = _AND if op == "and" else _OR
                got = (fast.and_ if op == "and" else fast.or_)([a, b])
                want = loop._gate(tag, iter([a, b]))
            assert got == want, (trial, step, op, mode, a, b)
            assert fast.nodes == loop.nodes and fast._intern == loop._intern
            pool.append(got)
    assert len(seen) == 3 * len(modes)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_bv_greater_matches_integers(width):
    s = Store()
    for x in range(1 << width):
        for y in range(1 << width):
            xv = bv_const(s, x, width)
            yv = bv_const(s, y, width)
            assert (bv_greater(s, xv, yv, True) == TRUE) == (x > y)
            assert (bv_greater(s, xv, yv, False) == TRUE) == (x >= y)
            assert (bv_equal(s, xv, yv) == TRUE) == (x == y)


def test_bv_less_const():
    s = Store()
    for width in (1, 2, 3):
        for bound in range(1, (1 << width) + 2):
            for x in range(1 << width):
                r = bv_less_const(s, bv_const(s, x, width), bound)
                assert (r == TRUE) == (x < bound), (width, bound, x)


def test_bv_greater_symbolic_truth_table():
    s = Store()
    xids = [s.new_var() for j in range(2)]
    yids = [s.new_var() for j in range(2)]
    xv, yv = tuple(map(s.var, xids)), tuple(map(s.var, yids))
    strict = bv_greater(s, xv, yv, True)
    loose = bv_greater(s, xv, yv, False)
    for x in range(4):
        for y in range(4):
            env = {xids[0]: bool(x & 1), xids[1]: bool(x & 2),
                   yids[0]: bool(y & 1), yids[1]: bool(y & 2)}
            assert s.evaluate(strict, env) == (x > y)
            assert s.evaluate(loose, env) == (x >= y)


def test_bv_width_mismatch():
    s = Store()
    with pytest.raises(ValueError):
        bv_greater(s, bv_const(s, 0, 2), bv_const(s, 0, 3), True)


def _order_rank(bits) -> int:
    """An order-encoded rank: the largest j whose "rank >= j" bit is set."""
    return max((j for j, bit in enumerate(bits, 1) if bit), default=0)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_order_greater_decodes_to_the_comparison(width):
    """Every assignment of both vectors, monotone or not: a satisfying one
    compares as asked once each rank reads as its largest true "rank >= j",
    and the monotone encoding of every pair of ranks that compares as asked
    satisfies the formula, so the formula is satisfiable at exactly the
    pairs of ranks 0..width that compare."""
    s = Store()
    xids = [s.new_var() for j in range(1, width + 1)]
    yids = [s.new_var() for j in range(1, width + 1)]
    xv, yv = tuple(map(s.var, xids)), tuple(map(s.var, yids))
    ranks = range(width + 1)
    for strict, holds in ((True, lambda r, t: r > t), (False, lambda r, t: r >= t)):
        node = order_greater(s, xv, yv, strict)
        satisfied = set()
        for xbits in itertools.product((False, True), repeat=width):
            for ybits in itertools.product((False, True), repeat=width):
                env = dict(zip(xids, xbits)) | dict(zip(yids, ybits))
                if s.evaluate(node, env):
                    satisfied.add((_order_rank(xbits), _order_rank(ybits)))
        assert satisfied == {(r, t) for r in ranks for t in ranks if holds(r, t)}, strict
        for r in ranks:
            for t in ranks:
                env = {v: j < r for j, v in enumerate(xids)} | {v: j < t for j, v in enumerate(yids)}
                assert s.evaluate(node, env) == holds(r, t), (strict, r, t)


def test_order_greater_width_mismatch():
    s = Store()
    with pytest.raises(ValueError):
        order_greater(s, bv_const(s, 0, 2), bv_const(s, 0, 3), True)


def test_emit_dimacs_trivial():
    s = Store()
    x = s.new_var()
    p = QuantifiedProblem(s, s.var(x), [("e", [x])])
    assert emit_dimacs(p) == "p cnf 1 1\n1 0\n"


@pytest.mark.parametrize("matrix, body", [(TRUE, ""), (FALSE, "0\n")], ids=["true", "false"])
def test_emit_constant_matrix_bytes(matrix, body):
    """A constant matrix: TRUE gives a header with 0 clauses and no clause
    line, FALSE a single empty clause, under each of the three emitters."""
    s = Store()
    u, e = s.new_var(), s.new_var()
    n = len(body) // 2
    assert emit_dimacs(QuantifiedProblem(s, matrix, [("e", [u, e])])) == f"p cnf 2 {n}\n" + body
    qbf = QuantifiedProblem(s, matrix, [("a", [u]), ("e", [e])])
    assert emit_qdimacs(qbf) == f"p cnf 2 {n}\na 1 0\ne 2 0\n" + body
    dqbf = QuantifiedProblem(s, matrix, [("a", [u]), ("e", [e])], deps={e: frozenset([u])})
    assert emit_dqdimacs(dqbf) == f"p cnf 2 {n}\na 1 0\nd 2 1 0\n" + body


def test_render_every_clause_length():
    """Comments, an empty clause and clauses of every length from 1 to 9,
    past `_INLINE_LIMIT`, re-render byte for byte."""
    clauses = [[(-1) ** k * k for k in range(1, n + 1)] for n in range(9, 0, -1)]
    text = "c comment one\nc two\np cnf 9 11\n0\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in [*clauses, [3, -3]])
    doc = read_dimacs(text)
    assert [len(c) for c in doc.clauses] == [0, *range(9, 0, -1), 2]
    assert doc.render() == text


def test_emit_qdimacs_forall_exists():
    s = Store()
    u = s.new_var()
    e = s.new_var()
    p = QuantifiedProblem(s, s.iff(s.var(e), s.var(u)), [("a", [u]), ("e", [e])])
    text = emit_qdimacs(p)
    lines = text.splitlines()
    assert lines[0].startswith("p cnf ")
    assert lines[1] == "a 1 0"
    # Tseitin definition variables join the innermost existential block
    assert lines[2].startswith("e 2")
    doc = read_dimacs(text)
    assert doc.blocks[0] == ("a", [1])
    assert doc.blocks[1][1][0] == 2
    assert doc.render() == text
    # semantic check: satisfiable, and the e-copies must track u
    model = dpll(doc.clauses)
    assert model is not None


@pytest.mark.parametrize("prefix, text", [
    # an empty universal block between two existential ones: one existential block
    ([("e", [1]), ("a", []), ("e", [2])],
     "p cnf 3 5\ne 1 2 3 0\n1 3 0\n-1 -3 0\n-3 1 2 0\n3 -1 0\n3 -2 0\n"),
    # a prefix ending in a universal block: the Tseitin variable opens an existential one
    ([("e", [1]), ("a", [2])],
     "p cnf 3 5\ne 1 0\na 2 0\ne 3 0\n1 3 0\n-1 -3 0\n-3 1 2 0\n3 -1 0\n3 -2 0\n"),
    # two adjacent existential blocks merge, and the Tseitin variable joins them
    ([("a", [1]), ("e", [2]), ("e", [3])],
     "p cnf 4 6\na 1 0\ne 2 3 4 0\n1 4 0\n-1 -4 0\n-4 1 2 3 0\n4 -1 0\n4 -2 0\n4 -3 0\n"),
], ids=["empty-universal-block", "ends-universal", "adjacent-existential"])
def test_emit_qdimacs_block_rules(prefix, text):
    """The first variable xor the or of all: the or sits below the xor, so
    it gets the one definition variable, with both halves."""
    s = Store()
    n_vars = sum(len(vs) for _, vs in prefix)
    xs = [s.var(s.new_var()) for j in range(n_vars)]
    matrix = s.xor2(xs[0], s.or_(xs))
    assert emit_qdimacs(QuantifiedProblem(s, matrix, prefix)) == text


def test_emit_fragment_mismatch():
    s = Store()
    u = s.new_var()
    e = s.new_var()
    qbf = QuantifiedProblem(s, s.var(e), [("a", [u]), ("e", [e])])
    with pytest.raises(ValueError):
        emit_dimacs(qbf)
    with pytest.raises(ValueError):
        emit_dqdimacs(qbf)
    dqbf = QuantifiedProblem(
        s, s.var(e), [("a", [u]), ("e", [e])], deps={e: frozenset([u])}
    )
    with pytest.raises(ValueError):
        emit_qdimacs(dqbf)
    text = emit_dqdimacs(dqbf)
    assert "d 2 1 0" in text.splitlines()


def test_dqdimacs_tseitin_deps_are_cone_unions():
    """Each definition variable's `d` line names the universals in its
    gate's cone and the dependencies of the existentials there, ascending.
    The gate is read off the `tseitin` map, which covers the named gates,
    and the union is taken over `variables_in`, on random matrices whose
    universals and existentials are numbered in shuffled order, one
    existential with no dependencies, and on the constant, a variable and
    its negation.  Named xor gates, negated children and shared gates must
    all occur."""
    rng = random.Random(41)
    seen = {"xor": 0, "negated child": 0, "shared gate": 0, "empty deps in cone": 0}
    for trial in range(120):
        s = Store()
        vids = [s.new_var() for _ in range(rng.randrange(2, 7))]
        rng.shuffle(vids)
        k = rng.randrange(1, len(vids))
        universals, existentials = vids[:k], vids[k:]
        deps = {e: frozenset(u for u in universals if rng.random() < 0.5) for e in existentials}
        deps[existentials[0]] = frozenset()
        x = s.var(existentials[-1])
        roots = [_rand_formula(s, rng, [s.var(v) for v in vids], 4)]
        if trial == 0:
            roots += [TRUE, FALSE, x, s.not_(x)]
        for root in roots:
            problem = QuantifiedProblem(s, root, [("a", universals), ("e", existentials)], deps=deps)
            text = emit_dqdimacs(problem)
            doc = read_dimacs(text)
            _, lit, _ = tseitin(s, root)
            want = {e: sorted(ds) for e, ds in deps.items()}
            parents: dict[int, int] = {}  # plain reference -> its parents in root's cone
            for f in s.reachable(root):
                node = s.nodes[f >> 1]
                if node[0] != _VAR:
                    for c in node[1]:
                        parents[c & ~1] = parents.get(c & ~1, 0) + 1
            for r, t in lit.items():
                cone = set()
                variables = s.variables_in(r)
                for v in variables:
                    cone |= {v} if v in universals else deps[v]
                want[t] = sorted(cone)
                node = s.nodes[r >> 1]
                seen["xor"] += node[0] == _XOR
                seen["negated child"] += any(c & 1 for c in node[1])
                seen["empty deps in cone"] += existentials[0] in variables
                seen["shared gate"] += parents.get(r, 0) > 1
            assert doc.dep_lines == sorted(want.items())
            assert doc.render() == text
    assert all(seen.values()), seen
    s = Store()
    u, e = s.new_var(), s.new_var()
    problem = QuantifiedProblem(s, TRUE, [("a", [u]), ("e", [e])], deps={e: frozenset([u])})
    assert emit_dqdimacs(problem) == "p cnf 2 0\na 1 0\nd 2 1 0\n"


def test_round_trip_byte_identical():
    rng = random.Random(3)
    for _ in range(40):
        s = Store()
        vids = [s.new_var() for j in range(4)]
        nodes = [s.var(v) for v in vids]
        root = _rand_formula(s, rng, nodes, 3)
        if root in (TRUE, FALSE):
            continue
        p = QuantifiedProblem(s, root, [("e", vids)])
        text = emit_dimacs(p)
        assert read_dimacs(text).render() == text
        p2 = QuantifiedProblem(s, root, [("e", vids[:2]), ("a", vids[2:3]), ("e", vids[3:])])
        text2 = emit_qdimacs(p2)
        assert read_dimacs(text2).render() == text2


def _emitter(problem):
    if problem.deps is not None:
        return emit_dqdimacs
    return emit_dimacs if problem.is_sat_fragment() else emit_qdimacs


def _assert_text_matches_clauses(problem):
    """The emitted file holds exactly the clauses of `tseitin`."""
    doc = read_dimacs(_emitter(problem)(problem))
    clauses, _, num_vars = tseitin(problem.store, problem.matrix)
    assert doc.clauses == clauses
    assert doc.num_vars == num_vars


def test_emitted_clauses_match_tseitin_on_suite():
    for bench in SUITE:
        for side in make_sides(bench.spec, RunConfig()):
            for encoding in ("basic", "input", "state", "full"):
                for n in (1, 2):
                    problem, _ = build_problem(side, n, RunConfig(encoding=encoding))
                    _assert_text_matches_clauses(problem)


def test_emitted_clauses_match_tseitin_on_random_formulas():
    rng = random.Random(17)
    s = Store()
    vids = [s.new_var() for j in range(4)]
    nodes = [s.var(v) for v in vids]
    xors = nodes[0]
    for k in range(12):
        xors = s.xor2(xors, s.and_([nodes[k % 4], s.xor2(nodes[(k + 1) % 4], xors)]))
    roots = [TRUE, FALSE, nodes[2], s.not_(nodes[1]), s.not_(s.or_(nodes[:3])), xors]
    roots += [_rand_formula(s, rng, nodes, 4) for _ in range(200)]
    u = [vids[1], vids[3]]
    e = [vids[0], vids[2]]
    for root in roots:
        _assert_text_matches_clauses(QuantifiedProblem(s, root, [("e", vids)]))
        _assert_text_matches_clauses(QuantifiedProblem(s, root, [("a", u), ("e", e)]))
        deps = {e[0]: frozenset(u[:1]), e[1]: frozenset()}
        _assert_text_matches_clauses(QuantifiedProblem(s, root, [("a", u), ("e", e)], deps=deps))


def _read_back(text):
    """The problem a DIMACS, QDIMACS or DQDIMACS text states: an and of
    ors over its clauses, quantified by its blocks, and with deps from its
    `d` lines when it has any.  A plain DIMACS file's variables are all
    existential."""
    doc = read_dimacs(text)
    s = Store()
    for _ in range(doc.num_vars):
        s.new_var()
    matrix = s.and_([s.or_([s.var(l) if l > 0 else s.not_(s.var(-l)) for l in c])
                     for c in doc.clauses])
    if doc.dep_lines:
        prefix = doc.blocks + [("e", [v for v, _ in doc.dep_lines])]
        return QuantifiedProblem(s, matrix, prefix, {v: frozenset(ds) for v, ds in doc.dep_lines})
    return QuantifiedProblem(s, matrix, doc.blocks or [("e", list(range(1, doc.num_vars + 1)))])


def test_emitted_files_keep_the_verdict_on_suite():
    """Every suite spec, both sides, all four encodings, n = 1, 2: the
    problem read back from its emitted file has the verdict
    `solve_internal` gives the problem itself.  No installed solver reads
    the QDIMACS and DQDIMACS files, so this is what checks that their
    clauses, blocks and `d` lines keep the problem's truth.  The arbiter's
    environment side under `full` at n = 2 is left out: read back, its
    expansion alone takes longer than all the other cases together."""
    verdicts = set()
    for bench in SUITE:
        for side in make_sides(bench.spec, RunConfig()):
            for encoding in ("basic", "input", "state", "full"):
                for n in (1, 2):
                    if (bench.name, side.role, encoding, n) == ("arbiter", "environment", "full", 2):
                        continue
                    problem, _ = build_problem(side, n, RunConfig(encoding=encoding))
                    want = solve_internal(problem).status
                    got = solve_internal(_read_back(_emitter(problem)(problem))).status
                    assert got == want, (bench.name, side.role, encoding, n)
                    verdicts.add((encoding, want))
    assert verdicts == {(e, v) for e in ("basic", "input", "state", "full") for v in ("sat", "unsat")}


def test_free_variable_check_with_and_without_shortcut():
    s = Store()
    x, y, z = s.new_var(), s.new_var(), s.new_var()
    matrix = s.and_([s.var(x), s.var(y)])
    QuantifiedProblem(s, matrix, [("e", [x, y, z])])  # every store variable bound
    QuantifiedProblem(s, matrix, [("e", [x]), ("a", [y])])  # z unbound, not in the matrix
    with pytest.raises(ValueError, match=r"^unbound matrix variables: \[2\]$"):
        QuantifiedProblem(s, matrix, [("e", [x, z])])
    with pytest.raises(ValueError, match=r"^unbound matrix variables: \[1, 2\]$"):
        QuantifiedProblem(s, matrix, [("e", [z, 4, 5])])  # 4, 5 are no store variables


def test_problem_validates_binding():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    with pytest.raises(ValueError):
        QuantifiedProblem(s, s.and_([s.var(x), s.var(y)]), [("e", [x])])
    with pytest.raises(ValueError):
        QuantifiedProblem(s, s.var(x), [("e", [x]), ("a", [x])])

    # deps must name exactly the existentials
    u, e1, e2 = s.new_var(), s.new_var(), s.new_var()
    prefix = [("a", [u]), ("e", [e1, e2])]
    matrix = s.and_([s.var(e2), s.iff(s.var(e1), s.var(u))])
    with pytest.raises(ValueError):
        QuantifiedProblem(s, matrix, prefix, deps={e1: frozenset([u])})
    with pytest.raises(ValueError):
        QuantifiedProblem(
            s, matrix, prefix, deps={e1: frozenset([u]), e2: frozenset(), u: frozenset()}
        )


def test_problem_dependencies():
    s = Store()
    e1, u1, e2, u2, e3 = (s.new_var() for _ in ("e1", "u1", "e2", "u2", "e3"))
    matrix = s.and_([s.var(v) for v in (e1, u1, e2, u2, e3)])
    prefix = [("e", [e1]), ("a", [u1]), ("e", [e2]), ("a", [u2]), ("e", [e3])]
    p = QuantifiedProblem(s, matrix, prefix)
    assert p.dependencies() == {e1: (), e2: (u1,), e3: (u1, u2)}

    deps = {e1: frozenset([u2, u1]), e2: frozenset(), e3: frozenset([u2])}
    dq = QuantifiedProblem(s, matrix, prefix, deps=deps)
    assert dq.dependencies() == {e1: (u1, u2), e2: (), e3: (u2,)}


def test_expand_without_universals_is_identity():
    s = Store()
    a, b = s.new_var(), s.new_var()
    root = s.or_([s.var(a), s.not_(s.var(b))])
    before = len(s.nodes)
    assert QuantifiedProblem(s, root, [("e", [a, b])]).expand() == (root, {})
    assert len(s.nodes) == before


def _assert_tables_fold_like_substitution(s, root, universals):
    """Each constant that `_block_tables` shows for a node at an assignment
    is what substituting that assignment into the node folds it to."""
    m = len(universals)
    bit = {u: 1 << (m - 1 - j) for j, u in enumerate(universals)}
    order = s.reachable(root)
    size = 1 << min(m, _TABLE_BITS)
    blocks = _block_tables(s.nodes, order, bit, m)
    decided = 0
    for block in range(0, 1 << m, size):
        T, F = next(blocks)
        for j in range(size):
            mapping = {u: TRUE if block + j & b else FALSE for u, b in bit.items()}
            for f in order:
                for r in (f, f + 1):  # plain and negated
                    t, f = T[r] >> j & 1, F[r] >> j & 1
                    assert not (t and f)
                    if t or f:
                        assert _substitute(s, r, mapping) == (TRUE if t else FALSE)
                        decided += 1
    return decided


def test_block_tables_fold_like_substitution():
    rng = random.Random(37)
    decided = 0
    for _ in range(60):
        s = Store()
        universals = [s.new_var() for j in range(rng.randrange(1, 7))]
        pool = [s.var(v) for v in universals + [s.new_var(), s.new_var()]]
        decided += _assert_tables_fold_like_substitution(s, _rand_formula(s, rng, pool, 4), universals)
    assert decided
    # more universals than one block covers: the tables are redone per block
    s = Store()
    universals = [s.new_var() for j in range(_TABLE_BITS + 2)]
    pool = [s.var(v) for v in universals[:3] + universals[-1:] + [s.new_var()]]
    roots = [_rand_formula(s, rng, pool, 4) for _ in range(3)]
    assert _assert_tables_fold_like_substitution(s, s.and_(roots), universals)
