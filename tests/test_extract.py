import pytest

from ltlsynth.automaton import analyze_sccs, ltl_to_ucw
from ltlsynth.encode import encode_basic, encode_input_symbolic, encode_state_symbolic
from ltlsynth.encode import ExtractionError, extract
from ltlsynth.ltl import parse_ltl
from ltlsynth.solve import Model, solve_internal
from ltlsynth.system import input_valuations
from ltlsynth.verify import model_check
from suite import ARBITER_GUARANTEES, encode


def arbiter_ucw():
    f = parse_ltl(" && ".join(f"({g})" for g in ARBITER_GUARANTEES))
    return ltl_to_ucw(f, ["r1", "r2"], ["g1", "g2"])


def test_extract_basic_least_index_tie_break():
    a = ltl_to_ucw(parse_ltl("true"), ["i"], ["o"])
    problem, d = encode_basic(a, 2, "moore", analyze_sccs(a, 2))
    # hand-built model: every transition variable true, outputs false
    assignment = {v: False for v in range(1, problem.store.num_vars + 1)}
    for key, var in d.trans.items():
        assignment[var] = True
    ts = extract(Model(assignment), d, a.inputs, a.outputs)
    for i in input_valuations(a.inputs):
        assert ts.trans[(0, i)] == 0
        assert ts.trans[(1, i)] == 0
    assert model_check(ts, a) is None


def test_extract_basic_missing_successor_is_encoder_bug():
    a = ltl_to_ucw(parse_ltl("true"), ["i"], ["o"])
    problem, d = encode_basic(a, 1, "moore", analyze_sccs(a, 1))
    assignment = {v: False for v in range(1, problem.store.num_vars + 1)}
    with pytest.raises(ExtractionError):
        extract(Model(assignment), d, a.inputs, a.outputs)


def test_extract_state_symbolic_out_of_range_guard():
    a = ltl_to_ucw(parse_ltl("G a"), [], ["a"])
    problem, d = encode_state_symbolic(a, 3, "moore", analyze_sccs(a, 3))
    result = solve_internal(problem)
    assert result.status == "sat"
    # sabotage every transition bit's copies so codes land at 3 (>= n)
    model = result.model
    for (e, _), copy in model.copies.items():
        if e in d.trans.values():
            model.assignment[copy] = True
    with pytest.raises(ExtractionError):
        extract(result.model, d, a.inputs, a.outputs)


@pytest.mark.parametrize(
    "text,inputs,outputs,sem,n",
    [
        ("G a", [], ["a"], "moore", 1),
        ("G (g <-> r)", ["r"], ["g"], "mealy", 1),
        (" && ".join(f"({g})" for g in ARBITER_GUARANTEES), ["r1", "r2"], ["g1", "g2"], "moore", 2),
    ],
)
def test_extraction_all_pipelines_verified(text, inputs, outputs, sem, n):
    a = ltl_to_ucw(parse_ltl(text), inputs, outputs)
    verdicts = {}
    for kind in ("basic", "input", "state", "full"):
        problem, d = encode(kind, a, n, sem)
        result = solve_internal(problem)
        verdicts[kind] = result.status
        if result.status == "sat":
            ts = extract(result.model, d, a.inputs, a.outputs)
            assert model_check(ts, a) is None, kind
            assert ts.semantics == sem
    assert set(verdicts.values()) == {"sat"}


def test_basic_and_input_symbolic_verdict_equality():
    a = arbiter_ucw()
    for n in (1, 2):
        scc = analyze_sccs(a, n)
        pb, db = encode_basic(a, n, "moore", scc)
        pi, di = encode_input_symbolic(a, n, "moore", scc)
        rb = solve_internal(pb)
        ri = solve_internal(pi)
        assert rb.status == ri.status
        if rb.status == "sat":
            ts_b = extract(rb.model, db, a.inputs, a.outputs)
            ts_i = extract(ri.model, di, a.inputs, a.outputs)
            assert model_check(ts_b, a) is None
            assert model_check(ts_i, a) is None
