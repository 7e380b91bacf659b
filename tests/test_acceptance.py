"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line on success; pytest failure output
marks the criterion red otherwise.  Criterion numbering follows the
project checklist.
"""

import itertools
import os
import random
import sys
import time

from ltlsynth.automaton import analyze_sccs, encode_symbolic, full_counters, ltl_to_ucw
from ltlsynth.driver import RunConfig, make_sides, search_realizability
from ltlsynth.encode import (
    count_profile,
    encode_basic,
    encode_fully_symbolic,
    encode_input_symbolic,
    encode_state_symbolic,
)
from ltlsynth.logic import QuantifiedProblem, Store, read_dimacs, emit_dimacs, emit_dqdimacs, emit_qdimacs, tseitin
from ltlsynth.ltl import parse_ltl
from ltlsynth.solve import external_solve, sat_solve, solve_internal
from ltlsynth.system import TransitionSystem, input_valuations, moore_system, run, to_aiger
from ltlsynth.verify import RunGraph, check_annotation, model_check
from oracles import eval_ltl_lasso, eval_qbf_naive, simulate_aag
from suite import SUITE, by_name, encode, search

STUB = f"{sys.executable} {os.path.join(os.path.dirname(__file__), 'external_stub.py')} {{file}}"
EXTERNAL_SAT = os.environ.get("LTLSYNTH_SAT_CMD", STUB)

ENCODERS = ("basic", "input", "state", "full")


def test_criterion_1_arbiter_reproduction():
    bench = by_name("arbiter")
    spec = bench.spec
    a = ltl_to_ucw(spec.formula(), spec.inputs, spec.outputs)

    timings = {}
    for kind in ENCODERS:
        t0 = time.monotonic()
        unsat = solve_internal(encode(kind, a, 1, "moore")[0])
        sat = solve_internal(encode(kind, a, 2, "moore")[0])
        timings[kind] = time.monotonic() - t0
        assert unsat.status == "unsat", f"{kind} must be UNSAT at bound 1"
        assert sat.status == "sat", f"{kind} must be SAT at bound 2"
        assert timings[kind] < 10.0, f"{kind} took {timings[kind]:.1f}s"

    # bound-1 impossibility independently, by brute force over all four
    # 1-state Moore labelings and the lasso oracle
    phi = spec.formula()
    vals = input_valuations(spec.inputs)
    for bits in itertools.product([False, True], repeat=2):
        out = frozenset(n for n, b in zip(("g1", "g2"), bits) if b)
        ts = moore_system(1, spec.inputs, spec.outputs, {(0, v): 0 for v in vals}, [out])
        refuted = False
        for v in [frozenset(["r1", "r2"]), frozenset(["r1"]), frozenset(["r2"]), frozenset()]:
            trace = [v | out]
            if not eval_ltl_lasso(phi, [], trace):
                refuted = True
                break
        assert refuted, f"1-state labeling {set(out)} not refuted"

    # synthesized artifact: two states, alternating grants in simulation
    outcome = search(spec, RunConfig(mode="synthesis", minimize=True))
    assert outcome.status == "realizable" and outcome.bound == 2
    aag = to_aiger(outcome.system)
    outs = simulate_aag(aag, [{"r1": True, "r2": True}] * 6)
    assert all(o in (frozenset(["g1"]), frozenset(["g2"])) for o in outs)
    assert all(outs[j] != outs[j + 1] for j in range(5))
    print(
        "ACCEPTANCE 1 (arbiter reproduction): PASS "
        + " ".join(f"{k}={timings[k]:.2f}s" for k in ENCODERS)
    )


def test_criterion_2_annotation_oracle():
    t0q0, t0q2, t1q2 = (0, 0), (0, 2), (1, 2)
    g = RunGraph(
        initial=t0q0,
        vertices=[t0q0, t0q2, t1q2],
        edges={t0q0: [t1q2], t0q2: [t1q2], t1q2: []},
        rejecting=frozenset([t0q2, t1q2]),
    )
    for low in range(2):
        bad = check_annotation(g, {t0q0: 0, t0q2: 1, t1q2: low})
        assert bad is not None and bad.edge is not None
        assert bad.edge[1] == t1q2
        assert bad.edge in (((0, 0), t1q2), ((0, 2), t1q2))
    assert check_annotation(g, {t0q0: 0, t0q2: 1, t1q2: 2}) is None
    print("ACCEPTANCE 2 (annotation oracle reproduces the rank argument): PASS")


def test_criterion_3_cross_encoding_agreement():
    t0 = time.monotonic()
    assert len(SUITE) >= 12
    disagreements = []
    for bench in SUITE:
        spec = bench.spec
        a = ltl_to_ucw(spec.formula(), spec.inputs, spec.outputs)
        for n in (1, 2, 3):
            verdicts = {}
            for kind in ENCODERS:
                for reduction in (True, False):
                    problem, _ = encode(kind, a, n, spec.semantics, reduction)
                    verdicts[(kind, reduction)] = solve_internal(problem).status
            if len(set(verdicts.values())) != 1:
                disagreements.append((bench.name, n, verdicts))
            expected = (
                "sat"
                if bench.least_bound is not None and n >= bench.least_bound
                else "unsat"
            )
            assert verdicts[("basic", True)] == expected, (bench.name, n)
    elapsed = time.monotonic() - t0
    assert not disagreements, disagreements
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 3 (cross-encoding agreement, {len(SUITE)} specs, n<=3, "
        f"w/ and w/o reduction): PASS in {elapsed:.1f}s"
    )


def test_criterion_4_end_to_end_soundness():
    checked = 0
    for bench in SUITE:
        cfg = RunConfig(mode="synthesis", max_bound=4)
        built = make_sides(bench.spec, cfg)
        sides = {s.role: s for s in built}
        outcome = search_realizability(built, cfg)
        assert outcome.status in ("realizable", "unrealizable"), bench.name
        assert outcome.system is not None
        side = sides["system" if outcome.status == "realizable" else "environment"]
        assert model_check(outcome.system, side.automaton) is None, bench.name
        checked += 1
    assert checked == len(SUITE)
    print(f"ACCEPTANCE 4 (end-to-end soundness, {checked}/{checked} verified): PASS")


def _all_moore_systems(n):
    vals = input_valuations(["r"])
    for labels in itertools.product([frozenset(), frozenset(["g"])], repeat=n):
        for targets in itertools.product(range(n), repeat=n * 2):
            trans = {}
            at = 0
            for t in range(n):
                for v in vals:
                    trans[(t, v)] = targets[at]
                    at += 1
            yield moore_system(n, ["r"], ["g"], trans, list(labels))


def _all_mealy_one_state():
    vals = input_valuations(["r"])
    for bits in itertools.product([False, True], repeat=2):
        label = {
            (0, v): (frozenset(["g"]) if b else frozenset())
            for v, b in zip(vals, bits)
        }
        yield TransitionSystem(1, "mealy", ("r",), ("g",), {(0, v): 0 for v in vals}, label)


def _realizes(ts, phi, max_pre=3, max_loop=2):
    """Check every short input lasso, unrolling it until the state recurs."""
    from oracles import all_lassos

    for prefix, loop in all_lassos(["r"], max_pre, max_loop):
        state = 0
        for i in prefix:
            state = ts.trans[(state, i)]
        seen = {state: 0}
        j = k = None
        for rep in range(1, ts.n + 2):
            for i in loop:
                state = ts.trans[(state, i)]
            if state in seen:
                j, k = seen[state], rep
                break
            seen[state] = rep
        full_prefix = prefix + loop * j
        full_loop = loop * (k - j)
        steps = full_prefix + full_loop
        trace = [i | o for i, (_, o) in zip(steps, run(ts, steps))]
        if not eval_ltl_lasso(phi, trace[: len(full_prefix)], trace[len(full_prefix):]):
            return False
    return True


def test_criterion_5_semantics_separation():
    phi = parse_ltl("G (g <-> r)")

    # ground truth: no Moore system with n <= 3 realizes the formula
    for n in (1, 2, 3):
        for ts in _all_moore_systems(n):
            assert not _realizes(ts, phi, max_pre=3, max_loop=1), "Moore realization?!"

    # ground truth: a 1-state Mealy system does
    assert any(_realizes(ts, phi) for ts in _all_mealy_one_state())

    doc = by_name("copy_moore")
    moore = search(doc.spec, RunConfig(max_bound=3))
    assert moore.status == "unrealizable"
    mealy = by_name("copy_mealy")
    out = search(mealy.spec, RunConfig())
    assert out.status == "realizable" and out.bound == 1
    print("ACCEPTANCE 5 (Moore unrealizable / Mealy realizable at 1): PASS")


def test_criterion_6_size_formula_audit():
    from ltlsynth.automaton import Ucw
    from suite import guard

    audited = 0

    # hand-built m=1 instance: the documented example value 18
    a1 = Ucw(("i",), ("o",), 1, 0, {(0, 0): guard("true", ("i", "o"))}, frozenset([0]))
    scc = full_counters(a1, 2)
    e, u, _ = count_profile(encode_basic(a1, 2, "mealy", scc)[0])
    assert (e, u) == (18, 0)
    audited += 1

    arb = by_name("arbiter").spec
    a = ltl_to_ucw(arb.formula(), arb.inputs, arb.outputs)
    m, n_i, n_o = a.n_states, len(a.inputs), len(a.outputs)
    for n in (1, 2):
        scc = analyze_sccs(a, n)
        ranks = sum(map(scc.rank_width, scc.counted))  # rank variables per system state

        e, u, _ = count_profile(encode_basic(a, n, "moore", scc)[0])
        assert e == n * m + n * ranks + n * (1 << n_i) * n + n * n_o and u == 0
        audited += 1

        e, u, _ = count_profile(encode_input_symbolic(a, n, "moore", scc)[0])
        assert e == n * m + n * ranks + n * n + n * n_o and u == n_i
        audited += 1

    scc = analyze_sccs(a, 2)
    k = 1
    e, u, _ = count_profile(encode_state_symbolic(a, 2, "moore", scc)[0])
    assert e == 2 * m + 2 * len(scc.counted) * scc.counter_bits + k + n_o
    assert u == n_i + 2 * k
    audited += 1

    width = encode_symbolic(a)
    e, u, _ = count_profile(encode_fully_symbolic(a, width, 2, "moore", scc)[0])
    assert e == 2 + 2 * scc.counter_bits + k + n_o
    assert u == n_i + 2 * k + 2 * width
    audited += 1
    assert audited >= 5

    # growth pattern: one extra input atom doubles the basic encoding's
    # input-indexed variables, leaves input-symbolic existentials unchanged,
    # and adds exactly one universal
    f = parse_ltl("G o")
    one = ltl_to_ucw(f, ["i1"], ["o"])
    two = ltl_to_ucw(f, ["i1", "i2"], ["o"])
    n = 2
    scc1, scc2 = analyze_sccs(one, n), analyze_sccs(two, n)
    fixed = n * one.n_states + n * sum(map(scc1.rank_width, scc1.counted))
    eb1, _, _ = count_profile(encode_basic(one, n, "mealy", scc1)[0])
    eb2, _, _ = count_profile(encode_basic(two, n, "mealy", scc2)[0])
    assert eb2 - fixed == 2 * (eb1 - fixed)
    ei1, ui1, _ = count_profile(encode_input_symbolic(one, n, "mealy", scc1)[0])
    ei2, ui2, _ = count_profile(encode_input_symbolic(two, n, "mealy", scc2)[0])
    assert ei1 == ei2 and ui2 == ui1 + 1
    print(f"ACCEPTANCE 6 (size-formula audit, {audited} instances + growth): PASS")


def test_criterion_7_solver_cross_validation():
    rng = random.Random(97)
    agreements = 0
    for _ in range(500):
        s = Store()
        total = rng.randrange(2, 11)
        vids = [s.new_var() for j in range(total)]
        prefix = []
        at = 0
        while at < total:
            width = min(total - at, rng.randrange(1, 4))
            prefix.append((rng.choice(["a", "e"]), vids[at : at + width]))
            at += width
        clauses = []
        for _ in range(rng.randrange(1, 2 * total)):
            lits = [
                s.var(v) if rng.random() < 0.5 else s.not_(s.var(v))
                for v in rng.sample(vids, k=rng.randrange(1, min(3, total) + 1))
            ]
            clauses.append(s.or_(lits))
        problem = QuantifiedProblem(s, s.and_(clauses), prefix)
        ours = solve_internal(problem).status == "sat"
        truth = eval_qbf_naive(prefix, lambda env: s.evaluate(problem.matrix, env))
        assert ours == truth
        agreements += 1
    assert agreements == 500

    def dep_instance(target):
        s = Store()
        u1, u2 = s.new_var(), s.new_var()
        e = s.new_var()
        dep = frozenset([u1 if target == "u1" else u2])
        matrix = s.iff(s.var(e), s.var(u1 if target == "u1" else u2))
        return QuantifiedProblem(s, matrix, [("a", [u1, u2]), ("e", [e])], deps={e: dep})

    # e <-> u2 with dep {u1} is the violation; its dep {u2} twin is fine
    s = Store()
    u1, u2, e = s.new_var(), s.new_var(), s.new_var()
    violating = QuantifiedProblem(
        s, s.iff(s.var(e), s.var(u2)), [("a", [u1, u2]), ("e", [e])],
        deps={e: frozenset([u1])},
    )
    assert solve_internal(violating).status == "unsat"
    assert solve_internal(dep_instance("u2")).status == "sat"
    print("ACCEPTANCE 7 (500 QBF agreements + DQBF dependency pair): PASS")


def test_criterion_8_format_fidelity():
    rng = random.Random(181)

    # quantified emissions from the actual encoders round-trip byte-exactly
    arb = by_name("arbiter").spec
    a = ltl_to_ucw(arb.formula(), arb.inputs, arb.outputs)
    scc = analyze_sccs(a, 2)
    q_text = emit_qdimacs(encode_input_symbolic(a, 2, "moore", scc)[0])
    assert read_dimacs(q_text).render() == q_text
    dq_text = emit_dqdimacs(encode_state_symbolic(a, 2, "moore", scc)[0])
    assert read_dimacs(dq_text).render() == dq_text
    d_text = emit_dimacs(encode_basic(a, 1, "moore", analyze_sccs(a, 1))[0])
    assert read_dimacs(d_text).render() == d_text

    # twenty random CNF instances: byte round-trip plus external agreement
    agreed = 0
    for _ in range(20):
        s = Store()
        vids = [s.new_var() for j in range(rng.randrange(3, 7))]
        clauses = []
        for _ in range(rng.randrange(3, 14)):
            clauses.append(
                s.or_([
                    s.var(v) if rng.random() < 0.5 else s.not_(s.var(v))
                    for v in rng.sample(vids, k=rng.randrange(1, 3))
                ])
            )
        matrix = s.and_(clauses)
        if matrix in (0, 1):
            matrix = s.or_([s.var(vids[0]), s.not_(s.var(vids[0]))])  # keep nontrivial
        problem = QuantifiedProblem(s, matrix, [("e", vids)])
        text = emit_dimacs(problem)
        assert read_dimacs(text).render() == text

        cnf, _, nv = tseitin(s, matrix)
        internal = sat_solve(cnf, nv)
        external = external_solve(problem, EXTERNAL_SAT)
        assert external.status in ("sat", "unsat"), external.detail
        assert external.status == internal.status
        agreed += 1
    assert agreed == 20
    print("ACCEPTANCE 8 (format round-trips + 20 external agreements): PASS")
