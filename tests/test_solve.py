import gc
import json
import os
import pickle
import random
import sys
from itertools import product

import pytest

from ltlsynth.driver import RunConfig, build_problem, make_sides
from ltlsynth.logic import _VAR, _XOR, FALSE, TRUE, QuantifiedProblem, Store, tseitin
from ltlsynth.ltl import load_spec
from ltlsynth.solve import ExpansionLimitError, external_solve, sat_solve, solve_internal
from oracles import dpll, eager_expand, eval_qbf_naive
from suite import arbiter_doc

STUB = f"{sys.executable} {os.path.join(os.path.dirname(__file__), 'external_stub.py')} {{file}}"


def test_sat_trivial_unsat():
    assert sat_solve([[1], [-1]]).status == "unsat"


def test_sat_forced_variable():
    result = sat_solve([[1, 2], [-1, 2]])
    assert result.status == "sat"
    assert result.model.assignment[2] is True


def test_sat_empty_clause():
    assert sat_solve([[1], []]).status == "unsat"


def test_sat_model_is_total():
    result = sat_solve([[1, 2]], num_vars=5)
    assert result.status == "sat"
    assert set(result.model.assignment) == {1, 2, 3, 4, 5}


def _solve_and_attached(cnf, nv=None):
    """sat_solve's result and the encoded clauses it attaches, in order."""
    attached = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "attach":
            attached.append(list(frame.f_locals["cls"]))

    sys.setprofile(hook)
    try:
        result = sat_solve(cnf, nv)
    finally:
        sys.setprofile(None)
    return result, attached


def test_sat_intake_merges_repeats_and_drops_tautologies():
    """Literal v is encoded as 2v and -v as 2v+1; a clause is attached
    sorted, with each literal once, and a tautology is not attached."""
    assert sat_solve([[3, 3]]) == sat_solve([[3]])
    assert sat_solve([[2, -2]]) == sat_solve([], 2)
    assert sat_solve([[1, 1, -1]]) == sat_solve([], 1)
    assert sat_solve([[1, 1], [2, -2], []]).status == "unsat"
    result, attached = _solve_and_attached([[2, -2], [1, 1, -1], [3, -1, 3, 2], [-2, 1, -2]])
    assert result.status == "sat"
    assert attached == [[3, 4, 6], [2, 5]]


def _normal_form(cnf):
    """Each clause with its repeated literals merged; tautologies dropped."""
    out = []
    for clause in cnf:
        lits = list(dict.fromkeys(clause))
        if not any(-l in lits for l in lits):
            out.append(lits)
    return out


def test_sat_intake_matches_normal_form():
    """A clause that repeats a literal is read as the clause without the
    repeat, and a tautology is skipped: on shuffled CNFs with both, the
    status, counters, model and attached clauses are those of the normal
    form."""
    rng = random.Random(23)
    merged = dropped = 0
    statuses = set()
    for _ in range(300):
        nv = rng.randrange(2, 11)
        cnf = []
        for _ in range(rng.randrange(1, 4 * nv)):
            clause = [rng.choice([1, -1]) * rng.randrange(1, nv + 1) for _ in range(rng.randrange(1, 5))]
            draw = rng.random()
            if draw < 0.2:
                clause.append(clause[0])
            elif draw < 0.3:
                clause.append(-clause[0])
            rng.shuffle(clause)
            cnf.append(clause)
        normal = _normal_form(cnf)
        dropped += len(cnf) - len(normal)
        merged += sum(len(set(c)) < len(c) for c in cnf if not any(-l in c for l in c))
        ours = _solve_and_attached(cnf, nv)
        assert ours == _solve_and_attached(normal, nv), cnf
        statuses.add(ours[0].status)
    assert statuses == {"sat", "unsat"}
    assert merged >= 100 and dropped >= 100, (merged, dropped)


def _random_cnf(rng, num_vars, num_clauses, width=3):
    return [
        [
            rng.choice([1, -1]) * rng.randrange(1, num_vars + 1)
            for _ in range(rng.randrange(1, width + 1))
        ]
        for _ in range(num_clauses)
    ]


def test_sat_agrees_with_dpll_oracle():
    rng = random.Random(17)
    for round_ in range(150):
        nv = rng.randrange(2, 13)
        cnf = _random_cnf(rng, nv, rng.randrange(1, 4 * nv))
        ours = sat_solve(cnf, nv)
        expected = dpll(cnf) is not None
        assert (ours.status == "sat") == expected, cnf
        if ours.status == "sat":
            model = ours.model.assignment
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in cnf)


def _brute_sat(cnf, nv) -> bool:
    masks = [
        (sum(1 << l - 1 for l in c if l > 0), sum(1 << -l - 1 for l in c if l < 0))
        for c in cnf
    ]
    full = (1 << nv) - 1
    return any(all(a & pos or ~a & neg & full for pos, neg in masks) for a in range(1 << nv))


def test_sat_binary_heavy_cnfs_match_brute_force():
    """Mostly binary clauses, stored as bare literals in the watch lists.

    A profile hook sees propagate and analyze return, so the test checks
    that the draws reach binary conflicts above level 0 and learn binary
    clauses."""
    seen = {"binary conflict above level 0": 0, "learnt binary clause": 0}

    def hook(frame, event, arg):
        if event != "return" or arg is None:
            return
        name = frame.f_code.co_name
        if name == "propagate" and len(arg) == 2 and frame.f_locals["lvl"] > 0:
            seen["binary conflict above level 0"] += 1
        elif name == "analyze" and len(arg[0]) == 2:
            seen["learnt binary clause"] += 1

    rng = random.Random(19)
    sat = 0
    for _ in range(240):
        nv = rng.randrange(3, 13)
        cnf = [
            [rng.choice([1, -1]) * v
             for v in rng.sample(range(1, nv + 1), rng.choices((1, 2, 3), (1, 14, 5))[0])]
            for _ in range(rng.randrange(nv, 3 * nv))
        ]
        sys.setprofile(hook)
        try:
            ours = sat_solve(cnf, nv)
        finally:
            sys.setprofile(None)
        assert (ours.status == "sat") == _brute_sat(cnf, nv), cnf
        if ours.status == "sat":
            sat += 1
            model = ours.model.assignment
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in cnf)
    assert 40 <= sat <= 200
    assert all(seen.values()), seen


def _php(pigeons, holes, first_var=1):
    """Pigeonhole clauses; pigeon p in hole h is variable first_var + p*holes + h."""
    def var(p, h):
        return first_var + p * holes + h

    cnf = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.append([-var(p1, h), -var(p2, h)])
    return cnf


def test_sat_hard_instance_php():
    """Pigeonhole: 5 pigeons, 4 holes; exercises learning and restarts."""
    assert sat_solve(_php(5, 4)).status == "unsat"


def test_sat_conflict_budget():
    assert sat_solve(_php(6, 5), max_conflicts=5).status == "unknown"


def test_sat_activity_rescale_php():
    """PHP(8,7) runs past conflict 4,491, where var_inc = 0.95^-(c-1) first
    exceeds 1e100 and every activity is rescaled along with the heap."""
    result = sat_solve(_php(8, 7))
    assert result.status == "unsat"
    assert result.stats["conflicts"] >= 4491


def _php_behind_selectors(parts):
    """For each (pigeons, holes), a fresh selector s added to every clause of
    a pigeonhole instance over fresh variables numbered after s."""
    cnf, selectors = [], []
    s = 1
    for pigeons, holes in parts:
        selectors.append(s)
        cnf += [c + [s] for c in _php(pigeons, holes, first_var=s + 1)]
        s += 1 + pigeons * holes
    return cnf, selectors, s - 1


def test_sat_model_total_after_rescale():
    """Six selected PHP(7,6) copies take over 4,491 conflicts before the
    model: a variable left without a heap entry by the rescale would never
    be decided."""
    cnf, selectors, nv = _php_behind_selectors([(7, 6)] * 6)
    result = sat_solve(cnf)
    assert result.status == "sat"
    assert result.stats["conflicts"] >= 4491
    model = result.model.assignment
    assert set(model) == set(range(1, nv + 1))
    assert all(any(model[abs(l)] == (l > 0) for l in c) for c in cnf)


def test_sat_restarts_and_refills_heap():
    """Every clause of PHP(7,6) also holds the selector s.  The solver decides
    s false first, refutes the pigeonholes under it across restarts, then
    sets s."""
    cnf, [s], nv = _php_behind_selectors([(7, 6)])
    result = sat_solve(cnf)
    assert result.status == "sat"
    assert result.stats["restarts"] >= 1
    model = result.model.assignment
    assert model[s] is True
    assert set(model) == set(range(1, nv + 1))
    assert all(any(model[abs(l)] == (l > 0) for l in c) for c in cnf)


def test_sat_restart_schedule_pin_arbiter3_environment():
    """The exact search on the clause form of the 3-client arbiter's
    environment side, basic encoding, n=4, cut off after 1,600 conflicts:
    its 7 restarts use the Luby terms 1, 1, 2, 1, 1, 2, 4, so the pin
    covers the restart schedule beyond its first term.  Update the
    counters only on purpose."""
    spec = load_spec(json.dumps(arbiter_doc(3)))
    side = make_sides(spec, RunConfig())[1]
    assert side.role == "environment"
    problem, _ = build_problem(side, 4, RunConfig(encoding="basic"))
    clauses, _, nv = tseitin(problem.store, problem.matrix)
    result = sat_solve(clauses, nv, max_conflicts=1600)
    assert result.status == "unknown"
    assert result.stats == {
        "conflicts": 1601,
        "decisions": 3937,
        "propagations": 232507,
        "restarts": 7,
        "learnt": 1600,
    }


@pytest.mark.parametrize("encoding, stats", [
    ("input", (28, 370, 3251, 0, 28)),
    ("state", (237, 7961, 36002, 1, 237)),
    ("full", (367, 13486, 80522, 2, 367)),
    ("basic", (66, 558, 6338, 0, 66)),
])
def test_sat_trajectory_pin_arbiter3_expanded(encoding, stats):
    """The exact search on the Moore 3-client arbiter, system side, n=3:
    `basic` is a SAT problem, solved on its clause form alone, and the
    others take the universal-expansion routes: `input` is a QBF, `state`
    and `full` are DQBFs.  A change that alters decisions, propagation
    order or learning moves these counters; update them only on
    purpose."""
    spec = load_spec(json.dumps(arbiter_doc(3)))
    side = make_sides(spec, RunConfig(counter_strategy="off"))[0]
    problem, _ = build_problem(side, 3, RunConfig(encoding=encoding))
    result = solve_internal(problem)
    assert result.status == "sat"
    names = ("conflicts", "decisions", "propagations", "restarts", "learnt")
    assert result.stats == dict(zip(names, stats))


def test_solve_internal_keeps_cdcl_stats():
    s = Store()
    x, y = s.new_var(), s.new_var()
    matrix = s.and_([s.or_([s.var(x), s.var(y)]), s.or_([s.not_(s.var(x)), s.var(y)])])
    p = QuantifiedProblem(s, matrix, [("e", [x, y])])
    clauses, _, nv = tseitin(s, matrix)
    direct = sat_solve(clauses, nv)
    assert direct.stats["decisions"] >= 1
    assert solve_internal(p).stats == direct.stats

    _, _, _, q = _qbf_identity()
    expanded = solve_internal(q)
    assert expanded.status == "sat"
    assert set(expanded.stats) == {"conflicts", "decisions", "propagations", "restarts", "learnt"}


# ---------------------------------------------------------------------------
# QBF


def _qbf_identity():
    s = Store()
    u = s.new_var()
    e = s.new_var()
    return s, u, e, QuantifiedProblem(s, s.iff(s.var(e), s.var(u)), [("a", [u]), ("e", [e])])


def test_qbf_skolem_tracks_universal():
    _, u, e, p = _qbf_identity()
    result = solve_internal(p)
    assert result.status == "sat"
    assert result.model.value_of(e, {u: False}) is False
    assert result.model.value_of(e, {u: True}) is True


def test_qbf_outer_existential_cannot_match():
    s = Store()
    x = s.new_var()
    u = s.new_var()
    p = QuantifiedProblem(s, s.iff(s.var(x), s.var(u)), [("e", [x]), ("a", [u])])
    assert solve_internal(p).status == "unsat"


def _random_qbf(rng):
    s = Store()
    total = rng.randrange(2, 9)
    vids = [s.new_var() for j in range(total)]
    prefix = []
    at = 0
    while at < total:
        size = min(total - at, rng.randrange(1, 4))
        prefix.append((rng.choice(["a", "e"]), vids[at : at + size]))
        at += size
    clauses = []
    for _ in range(rng.randrange(1, 3 * total)):
        clause = [
            s.var(v) if rng.random() < 0.5 else s.not_(s.var(v))
            for v in rng.sample(vids, k=rng.randrange(1, min(3, total) + 1))
        ]
        clauses.append(s.or_(clause))
    matrix = s.and_(clauses)
    return s, vids, prefix, QuantifiedProblem(s, matrix, prefix)


def test_qbf_agrees_with_naive_evaluator():
    rng = random.Random(23)
    for _ in range(120):
        s, vids, prefix, p = _random_qbf(rng)
        expected = eval_qbf_naive(
            prefix, lambda env: s.evaluate(p.matrix, env)
        )
        assert (solve_internal(p).status == "sat") == expected


# ---------------------------------------------------------------------------
# DQBF


def _dqbf_two_universals(dep_on):
    s = Store()
    u1, u2 = s.new_var(), s.new_var()
    e = s.new_var()
    target = u1 if dep_on == "u1" else u2
    p = QuantifiedProblem(
        s,
        s.iff(s.var(e), s.var(target)),
        [("a", [u1, u2]), ("e", [e])],
        deps={e: frozenset([u1])},
    )
    return p


def test_dqbf_respects_dependency_sets():
    assert solve_internal(_dqbf_two_universals("u1")).status == "sat"
    # e depends only on u1, so it cannot track u2
    assert solve_internal(_dqbf_two_universals("u2")).status == "unsat"


def test_dqbf_linear_dependencies_match_qbf():
    rng = random.Random(29)
    for _ in range(80):
        s, vids, prefix, p = _random_qbf(rng)
        scope: list[int] = []
        deps = {}
        for quant, vs in prefix:
            if quant == "a":
                scope.extend(vs)
            else:
                for v in vs:
                    deps[v] = frozenset(scope)
        dq = QuantifiedProblem(s, p.matrix, prefix, deps=deps)
        assert solve_internal(dq).status == solve_internal(p).status


def test_expansion_cap():
    s = Store()
    universals = [s.new_var() for j in range(8)]
    e = s.new_var()
    matrix = s.or_([s.var(e)] + [s.var(u) for u in universals])
    p = QuantifiedProblem(
        s, matrix, [("a", universals), ("e", [e])], deps={e: frozenset(universals)}
    )
    with pytest.raises(ExpansionLimitError):
        solve_internal(p, cap=16)

    # the cap bounds expansion copies only; a SAT problem has none
    x = s.new_var()
    assert solve_internal(QuantifiedProblem(s, s.var(x), [("e", [x])]), cap=0).status == "sat"


def test_expansion_cap_counts_universal_assignments():
    """A QBF whose existential sits outside every universal has no copies
    to make, but expansion still walks all 2^24 universal assignments."""
    s = Store()
    x = s.new_var()
    universals = [s.new_var() for j in range(24)]
    matrix = s.or_([s.var(x)] + [s.var(u) for u in universals])
    p = QuantifiedProblem(s, matrix, [("e", [x]), ("a", universals)])
    with pytest.raises(ExpansionLimitError, match=f"expansion needs {1 << 24} copies, cap is {1 << 22}"):
        solve_internal(p)


def test_expansion_cap_counts_copies():
    """Six existentials over 12 universals, each depending on two of them:
    the expansion takes 2^12 = 4,096 universal assignments and makes 24
    copies, where 2^12 x 6 = 24,576 would be counted per universal
    assignment."""
    s = Store()
    universals = [s.new_var() for j in range(12)]
    pairs = [universals[j : j + 2] for j in range(0, 12, 2)]
    es = [s.new_var() for j in range(6)]
    matrix = s.and_([s.iff(s.var(e), s.xor2(s.var(u), s.var(w))) for e, (u, w) in zip(es, pairs)])
    deps = {e: frozenset(pair) for e, pair in zip(es, pairs)}
    p = QuantifiedProblem(s, matrix, [("a", universals), ("e", es)], deps=deps)
    with pytest.raises(ExpansionLimitError, match="expansion needs 4096 copies, cap is 4095"):
        solve_internal(p, cap=4095)
    result = solve_internal(p, cap=4096)
    assert result.status == "sat"
    for e, (u, w) in zip(es, pairs):
        for bu, bw in product((False, True), repeat=2):
            assert result.model.value_of(e, {u: bu, w: bw}) == (bu != bw)


def _cone(store, root):
    """root's cone in `reachable` order, each child named by its place
    there and its sign, as the reference 2 * place + sign."""
    order = store.reachable(root)
    place = {f: k for k, f in enumerate(order)}
    out = []
    for f in order:
        node = store.nodes[f >> 1]
        if node[0] != _VAR:
            node = (node[0], tuple(2 * place[c & ~1] + (c & 1) for c in node[1]))
        out.append(node)
    return out, root & 1


def _assert_expands_like_eager(problem):
    """expand builds what eager expansion builds, and no node beside it.

    References may differ: eager's rebuilds leave unreachable nodes that
    expand skips creating.  Everything reachable must match exactly."""
    blob = pickle.dumps(problem)
    ours, ref = pickle.loads(blob), pickle.loads(blob)
    (root, copies), (ref_root, ref_copies) = ours.expand(), eager_expand(ref)
    assert copies == ref_copies
    assert ours.store.num_vars == ref.store.num_vars
    assert _cone(ours.store, root) == _cone(ref.store, ref_root)
    ours_cnf, ref_cnf = tseitin(ours.store, root), tseitin(ref.store, ref_root)
    assert (ours_cnf[0], ours_cnf[2]) == (ref_cnf[0], ref_cnf[2])
    in_ref: list[int] = []  # our node index -> eager's plain reference to the same node
    for node in ours.store.nodes:
        if node[0] != _VAR:
            kids = [in_ref[c >> 1] ^ c & 1 for c in node[1]]
            node = (node[0], tuple(sorted(kids) if node[0] == _XOR else kids))
        assert node in ref.store._intern, f"expand made a node eager expansion lacks: {node}"
        in_ref.append(ref.store._intern[node])


def test_expansion_matches_eager_on_arbiters():
    for k, encoding, bounds in ((2, "state", (1, 2)), (2, "full", (1, 2)), (3, "state", (1, 2, 3))):
        spec = load_spec(json.dumps(arbiter_doc(k)))
        side = make_sides(spec, RunConfig(counter_strategy="off"))[0]
        for n in bounds:
            problem, _ = build_problem(side, n, RunConfig(encoding=encoding))
            assert problem.universals()
            _assert_expands_like_eager(problem)


def test_expansion_matches_eager_on_random_problems():
    rng = random.Random(41)
    checked = 0
    while checked < 20:
        s, vids, prefix, p = _random_qbf(rng)
        if not p.universals():
            continue  # see test_expand_without_universals_is_identity
        if checked % 2:
            universals = p.universals()
            deps = {
                e: frozenset(u for u in universals if rng.random() < 0.5)
                for e in p.existentials()
            }
            p = QuantifiedProblem(s, p.matrix, prefix, deps=deps)
        _assert_expands_like_eager(p)
        checked += 1


def test_expansion_leaves_no_cyclic_garbage():
    _, _, _, qbf = _qbf_identity()
    problems = [qbf, _dqbf_two_universals("u1")]
    gc.collect()
    gc.disable()
    try:
        for p in problems:
            assert solve_internal(p).status == "sat"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_internal_dispatch():
    s = Store()
    x = s.new_var()
    p = QuantifiedProblem(s, s.var(x), [("e", [x])])
    result = solve_internal(p)
    assert result.status == "sat" and result.model.assignment[x] is True

    _, u, e, q = _qbf_identity()
    assert solve_internal(q).status == "sat"


# ---------------------------------------------------------------------------
# External bridge


def test_external_trivial_sat_unsat():
    s = Store()
    x = s.new_var()
    sat_p = QuantifiedProblem(s, s.var(x), [("e", [x])])
    result = external_solve(sat_p, STUB)
    assert result.status == "sat"
    assert result.model.assignment.get(x) is True

    s2 = Store()
    y = s2.new_var()
    unsat_p = QuantifiedProblem(
        s2, s2.and_([s2.var(y), s2.not_(s2.var(y))]), [("e", [y])]
    )
    # matrix folds to FALSE; feed the solver the explicit contradiction
    assert unsat_p.matrix == FALSE
    clauses_p = QuantifiedProblem(s2, s2.var(y), [("e", [y])])
    assert external_solve(clauses_p, STUB).status == "sat"


def test_external_differential_against_internal():
    rng = random.Random(31)
    for _ in range(10):
        s = Store()
        vids = [s.new_var() for j in range(4)]
        clauses = []
        for _ in range(rng.randrange(2, 9)):
            clauses.append(
                s.or_([
                    s.var(v) if rng.random() < 0.5 else s.not_(s.var(v))
                    for v in rng.sample(vids, k=rng.randrange(1, 3))
                ])
            )
        p = QuantifiedProblem(s, s.and_(clauses), [("e", vids)])
        if p.matrix in (TRUE, FALSE):
            continue
        theirs = external_solve(p, STUB)
        clauses, _, nv = tseitin(s, p.matrix)
        ours = sat_solve(clauses, nv)
        assert theirs.status == ours.status


def test_external_spawn_failure_is_unknown():
    s = Store()
    x = s.new_var()
    p = QuantifiedProblem(s, s.var(x), [("e", [x])])
    result = external_solve(p, "/nonexistent/solver {file}")
    assert result.status == "unknown"
    assert "spawn failed" in result.detail


def test_external_requires_placeholder():
    s = Store()
    x = s.new_var()
    p = QuantifiedProblem(s, s.var(x), [("e", [x])])
    with pytest.raises(ValueError):
        external_solve(p, "solver")
