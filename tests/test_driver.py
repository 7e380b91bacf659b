import ast
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile

import pytest

from ltlsynth import driver
from ltlsynth.driver import (
    RunConfig,
    main,
    make_sides,
)
from ltlsynth.ltl import format_ltl, load_spec
from ltlsynth.logic import read_dimacs
from ltlsynth.solve import SolveResult
from ltlsynth.system import MEALY, TransitionSystem
from ltlsynth.verify import model_check
from oracles import random_formula, simulate_aag
from suite import arbiter_doc, by_name, search

STUB = f"{sys.executable} {os.path.join(os.path.dirname(__file__), 'external_stub.py')} {{file}}"


ARBITER_DOC = arbiter_doc(2)


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_search_arbiter_realizable_at_two():
    spec = by_name("arbiter").spec
    outcome = search(spec, RunConfig(mode="synthesis", minimize=True))
    assert outcome.status == "realizable"
    assert outcome.bound == 2
    assert outcome.system is not None
    side = make_sides(spec, RunConfig())[0]
    assert model_check(outcome.system, side.automaton) is None


def test_search_copy_moore_unrealizable_with_one_state_environment():
    spec = by_name("copy_moore").spec
    outcome = search(spec, RunConfig(mode="synthesis"))
    assert outcome.status == "unrealizable"
    assert outcome.bound == 1
    counter = outcome.system
    assert counter is not None
    assert counter.semantics == "mealy"  # dual of the Moore system
    # the counter-strategy reads the system's output and answers with inputs
    assert counter.inputs == ("o",) and counter.outputs == ("i",)
    env_side = make_sides(spec, RunConfig())[1]
    assert model_check(counter, env_side.automaton) is None


def test_search_trivial_spec_bound_one():
    spec = load_spec(
        '{"semantics": "moore", "inputs": [], "outputs": ["o"], "guarantees": ["true"]}'
    )
    outcome = search(spec, RunConfig())
    assert outcome.status == "realizable"
    assert outcome.bound == 1


def test_search_counter_strategy_off_gives_undetermined():
    spec = by_name("copy_moore").spec
    cfg = RunConfig(counter_strategy="off", max_bound=2)
    assert search(spec, cfg).status == "undetermined"


def test_minimize_finds_least_bound_after_exponential_overshoot():
    spec = load_spec(
        json.dumps(
            {
                "semantics": "moore",
                "inputs": ["i"],
                "outputs": ["o"],
                "guarantees": ["G (o -> X (! o && X ! o))", "G F o"],
            }
        )
    )
    plain = search(spec, RunConfig(counter_strategy="off"))
    assert plain.status == "realizable"
    assert plain.bound == 4  # exponential search jumps over 3
    minimized = search(
        spec, RunConfig(counter_strategy="off", minimize=True)
    )
    assert minimized.status == "realizable"
    assert minimized.bound == 3
    linear = search(
        spec, RunConfig(counter_strategy="off", search="linear")
    )
    assert linear.bound == 3


@pytest.mark.parametrize("encoding", ["basic", "input", "state", "full"])
def test_verdicts_independent_of_encoding(encoding):
    for name in ("copy_mealy", "copy_moore", "blinker"):
        bench = by_name(name)
        cfg = RunConfig(encoding=encoding, max_bound=4)
        outcome = search(bench.spec, cfg)
        expected = "realizable" if bench.realizable else "unrealizable"
        assert outcome.status == expected, (name, encoding)


def test_determinacy_system_and_environment_never_both_win():
    from ltlsynth.driver import _attempt
    from suite import SUITE

    cfg = RunConfig(encoding="basic")
    for bench in SUITE:
        sides = make_sides(bench.spec, cfg)
        for n in (1, 2):
            wins = [
                _attempt(side, n, cfg, want_system=False)[0].status == "sat" for side in sides
            ]
            assert not all(wins), (bench.name, n)


def test_external_solver_verdicts_match_internal():
    for name in ("copy_mealy", "copy_moore"):
        bench = by_name(name)
        internal = search(bench.spec, RunConfig(encoding="basic"))
        external = search(
            bench.spec, RunConfig(encoding="basic", solver_cmd=STUB)
        )
        assert internal.status == external.status
        assert internal.bound == external.bound


# ---------------------------------------------------------------------------
# main()


def test_main_arbiter_synthesis(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    out_path = str(tmp_path / "system.aag")
    code = main([spec_path, "--mode", "synthesis", "--output", out_path, "--minimize"])
    assert code == 10
    text = open(out_path).read()
    rows = [{"r1": True, "r2": True}] * 6
    outs = simulate_aag(text, rows)
    # alternating grants, mutual exclusion, both grants recur
    for step in outs:
        assert step in (frozenset(["g1"]), frozenset(["g2"]))
    assert outs[0] != outs[1]
    for j in range(5):
        assert outs[j] != outs[j + 1]


def test_main_unrealizable_exit_code(tmp_path):
    doc = {
        "semantics": "moore",
        "inputs": ["i"],
        "outputs": ["o"],
        "guarantees": ["G (o <-> i)"],
    }
    code = main([write_spec(tmp_path, doc)])
    assert code == 20


def test_module_run_uninstalled_decides(tmp_path):
    """`python -m ltlsynth.driver SPEC` from a source checkout runs the CLI:
    a `false` guarantee is unrealizable at environment bound 1."""
    doc = {"semantics": "moore", "inputs": [], "outputs": ["o"], "guarantees": ["false"]}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "ltlsynth.driver", write_spec(tmp_path, doc)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 20, proc.stderr
    assert "UNREALIZABLE (environment bound 1)" in proc.stdout.splitlines()


def test_main_exponential_schedule_tries_the_ceiling(tmp_path, capsys):
    """The default schedule ends at the ceiling even when it is no power of
    two: the 3-client arbiter, least bound 3, is realizable with
    --max-bound 3, not a bare UNKNOWN from bounds 1 and 2 alone."""
    spec_path = write_spec(tmp_path, arbiter_doc(3))
    assert main([spec_path, "--encoding", "basic", "--max-bound", "3"]) == 10
    assert capsys.readouterr().out == "REALIZABLE (bound 3)\n"


@pytest.mark.parametrize("ceiling, bounds", [
    (1, [1]), (2, [1, 2]), (3, [1, 2, 3]), (7, [1, 2, 4, 7]), (8, [1, 2, 4, 8]),
])
def test_exponential_schedule_ends_at_the_ceiling(ceiling, bounds):
    assert list(driver._bounds(RunConfig(max_bound=ceiling))) == bounds


def test_sources_import_only_the_standard_library():
    """No runtime dependency beyond the standard library: every absolute
    import in the package's modules names a standard module or ltlsynth."""
    src = os.path.dirname(os.path.abspath(driver.__file__))
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top == "ltlsynth", (name, module)


def test_sources_parse_as_python_3_10():
    """README and pyproject promise Python 3.10+: every module of the
    package parses under the 3.10 grammar."""
    src = os.path.dirname(os.path.abspath(driver.__file__))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                ast.parse(handle.read(), filename=name, feature_version=(3, 10))


def test_main_malformed_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main([str(path)]) == 1


def test_main_missing_file():
    assert main(["/does/not/exist.json"]) == 1


def test_main_emit_qdimacs(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    out = str(tmp_path / "problem.qdimacs")
    code = main(
        [spec_path, "--emit", "qdimacs", "--encoding", "input", "--max-bound", "2",
         "--output", out]
    )
    assert code == 0
    doc = read_dimacs(open(out).read())
    assert doc.blocks and doc.clauses
    assert doc.render() == open(out).read()


def test_main_emit_fragment_mismatch(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    code = main([spec_path, "--emit", "dimacs", "--encoding", "input"])
    assert code == 1


def test_main_emit_only_mode_is_usage_error(tmp_path, capsys):
    # emission is selected by --emit alone; --mode has no emit-only value
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    assert main([spec_path, "--mode", "emit-only"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_main_synthesis_external_symbolic_rejected(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    code = main(
        [spec_path, "--mode", "synthesis", "--solver-cmd", STUB, "--encoding", "input"]
    )
    assert code == 1


def test_main_semantics_override(tmp_path):
    doc = {
        "semantics": "moore",
        "inputs": ["i"],
        "outputs": ["o"],
        "guarantees": ["G (o <-> i)"],
    }
    spec_path = write_spec(tmp_path, doc)
    assert main([spec_path]) == 20
    assert main([spec_path, "--semantics", "mealy"]) == 10


def test_main_dump_ucw(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    dot_path = str(tmp_path / "spec.dot")
    code = main([spec_path, "--dump-ucw", dot_path])
    assert code == 10
    assert "digraph" in open(dot_path).read()


def test_main_expansion_cap_exhaustion_exit_code(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    code = main([spec_path, "--encoding", "full", "--expansion-cap", "4"])
    assert code == 2


def test_main_negative_expansion_cap_is_usage_error(tmp_path, capsys):
    # basic has no universals, so only the check on the option itself can refuse -1
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    assert main([spec_path, "--encoding", "basic", "--expansion-cap", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: expansion cap must not be negative\n")


@pytest.mark.parametrize("args", [["--emit", "qdimacs", "--output"], ["--dump-ucw"],
                                  ["--mode", "synthesis", "--output"]],
                         ids=["emit", "dump_ucw", "synthesis"])
def test_main_write_failure_is_error(tmp_path, capsys, args):
    """A path in a missing directory: exit 1 with one error line."""
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    assert main([spec_path, *args, str(tmp_path / "missing" / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_undetermined_prints_unknown(tmp_path, capsys):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    code = main([spec_path, "--max-bound", "1"])
    assert code == 0
    assert "UNKNOWN" in capsys.readouterr().out


@pytest.mark.parametrize("cmd, reason", [
    ("false {file}", "exit code 1"),
    ("/nonexistent/solver {file}", "spawn failed: "),
], ids=["solver_fails", "solver_missing"])
def test_main_solver_unknown_prints_reason(tmp_path, capsys, cmd, reason):
    doc = {"semantics": "moore", "inputs": ["i"], "outputs": ["o"], "guarantees": ["G o"]}
    code = main([write_spec(tmp_path, doc), "--encoding", "basic", "--solver-cmd", cmd])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"UNKNOWN ({reason}")


G_O = {"semantics": "moore", "inputs": ["i"], "outputs": ["o"], "guarantees": ["G o"]}


@pytest.mark.parametrize("cmd, message", [
    ("solver", "error: solver command must contain the {file} placeholder\n"),
    ("solver '{file}", "error: solver command: No closing quotation\n"),
], ids=["no_placeholder", "unbalanced_quote"])
def test_main_malformed_solver_cmd_is_usage_error(tmp_path, capsys, cmd, message):
    assert main([write_spec(tmp_path, G_O), "--encoding", "basic", "--solver-cmd", cmd]) == 1
    assert capsys.readouterr() == ("", message)


def test_main_solver_gets_whole_temp_path(tmp_path, capsys, monkeypatch):
    """The temp path goes into the split command, so a space in it stays."""
    spaced = tmp_path / "with space"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    code = main([write_spec(tmp_path, G_O), "--encoding", "basic", "--solver-cmd", STUB])
    assert (code, capsys.readouterr().out) == (10, "REALIZABLE (bound 1)\n")


@pytest.mark.parametrize("model, reason", [
    ("v 1 -2 oops 0", "malformed model: invalid literal for int() with base 10: 'oops'"),
    ("v 1 0", "model falsifies clause '"),
], ids=["malformed", "falsifying"])
def test_main_bad_solver_model_is_unknown(tmp_path, capsys, model, reason):
    """A solver that claims sat with a bad model: UNKNOWN with the reason."""
    script = tmp_path / "liar.py"
    script.write_text(f"import sys\nprint({model!r})\nsys.exit(10)\n")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    code = main([write_spec(tmp_path, G_O), "--encoding", "basic", "--mode", "synthesis",
                 "--max-bound", "1", "--solver-cmd", cmd])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.startswith(f"UNKNOWN ({reason}")


@pytest.mark.parametrize("stdout, stderr, code, reason", [
    (b"s SATISFIABLE\nv 1 \xff\xfe 0\n", b"", 10,
     "malformed model: invalid literal for int() with base 10: '\ufffd\ufffd'"),
    (b"", b"\xff oops\n", 3, "exit code 3; stderr: \ufffd oops"),
], ids=["model", "stderr"])
def test_main_non_utf8_solver_output_is_unknown(tmp_path, capsys, stdout, stderr, code, reason):
    """Bytes that are not UTF-8 read as U+FFFD: UNKNOWN with the reason, no traceback."""
    script = tmp_path / "bad.py"
    script.write_text(f"import sys\nsys.stdout.buffer.write({stdout!r})\n"
                      f"sys.stderr.buffer.write({stderr!r})\nsys.exit({code})\n")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    exit_code = main([write_spec(tmp_path, ARBITER_DOC), "--encoding", "basic", "--max-bound", "2",
                      "--solver-cmd", cmd])
    out, err = capsys.readouterr()
    assert (exit_code, err) == (0, "")
    assert out.startswith(f"UNKNOWN ({reason}")


def test_main_solver_reads_only_value_lines(tmp_path, capsys):
    """A stdout line is a model line only when its first token is `v`, so
    a `verbosity` line leaves the sat verdict standing."""
    script = tmp_path / "chatty.py"
    script.write_text("import sys\nprint('verbosity 1')\nprint('s SATISFIABLE')\nsys.exit(10)\n")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    code = main([write_spec(tmp_path, G_O), "--encoding", "basic", "--solver-cmd", cmd])
    assert (code, capsys.readouterr().out) == (10, "REALIZABLE (bound 1)\n")


def test_main_verdict_only_solver_is_trusted(tmp_path, capsys):
    """A solver that exits 10 and prints no model still decides realizability."""
    script = tmp_path / "silent.py"
    script.write_text("import sys\nsys.exit(10)\n")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    code = main([write_spec(tmp_path, G_O), "--encoding", "basic", "--solver-cmd", cmd])
    assert (code, capsys.readouterr().out) == (10, "REALIZABLE (bound 1)\n")


def test_main_verdict_only_solver_in_synthesis_is_unknown(tmp_path, capsys):
    """In synthesis, a solver that says sat but prints no model leaves no
    machine to extract: each such attempt is unknown, with the reason."""
    script = tmp_path / "verdict.py"
    script.write_text("import sys\nprint('s SATISFIABLE')\nsys.exit(10)\n")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    code = main([write_spec(tmp_path, ARBITER_DOC), "--encoding", "basic", "--mode", "synthesis",
                 "--max-bound", "2", "--solver-cmd", cmd])
    assert (code, capsys.readouterr()) == (0, ("UNKNOWN (solver printed no model)\n", ""))


def test_main_linear_search_huge_max_bound(tmp_path, capsys):
    """The bounds are tried in turn; no list of 2^62 of them is built first."""
    code = main([write_spec(tmp_path, G_O), "--search", "linear",
                 "--max-bound", str(2**62)])
    assert (code, capsys.readouterr().out) == (10, "REALIZABLE (bound 1)\n")


def test_undetermined_keeps_first_unknown_reason(monkeypatch):
    """The search goes on past an unknown attempt; its reason is kept, and
    reported only when nothing decides."""
    bounds = []
    monkeypatch.setattr(driver, "build_problem", _recording(driver.build_problem, bounds))
    real_solve = driver._solve

    def unknown_at(n):
        def solve(problem, cfg):
            if bounds[-1] == n:
                return SolveResult("unknown", detail=f"no verdict at {n}")
            return real_solve(problem, cfg)
        return solve

    spec = by_name("blinker").spec  # least bound 2
    monkeypatch.setattr(driver, "_solve", unknown_at(2))
    outcome = search(spec, RunConfig(counter_strategy="off", search="linear", max_bound=3))
    assert (outcome.status, outcome.bound, outcome.detail) == ("realizable", 3, "")
    outcome = search(spec, RunConfig(counter_strategy="off", search="linear", max_bound=2))
    assert (outcome.status, outcome.detail) == ("undetermined", "no verdict at 2")


def test_minimize_stops_at_unknown(tmp_path, monkeypatch, capsys):
    """The walk down from bound 4 meets an unknown at 3: bound 4 stands, with
    the reason on stderr, and bound 2 (unsat) is never tried."""
    bounds = []
    monkeypatch.setattr(driver, "build_problem", _recording(driver.build_problem, bounds))
    real_solve = driver._solve
    monkeypatch.setattr(driver, "_solve", lambda problem, cfg: (
        SolveResult("unknown", detail="budget") if bounds[-1] == 3 else real_solve(problem, cfg)))
    doc = {"semantics": "moore", "inputs": ["i"], "outputs": ["o"],
           "guarantees": ["G (o -> X (! o && X ! o))", "G F o"]}  # least bound 3
    code = main([write_spec(tmp_path, doc), "--counter-strategy", "off", "--minimize"])
    assert code == 10
    out, err = capsys.readouterr()
    assert out == "REALIZABLE (bound 4)\n"
    assert "(bound 3: budget); bound 4 may not be least" in err
    assert bounds == [1, 2, 4, 3]


def test_encoder_bug_message_carries_the_lasso(monkeypatch):
    """An extracted machine that fails model checking is an encoder bug; the
    error names the input lasso on which the machine violates the spec."""
    letters = (frozenset(), frozenset({"i"}))
    never_o = TransitionSystem(
        1, MEALY, ("i",), ("o",),
        {(0, letter): 0 for letter in letters},
        {(0, letter): frozenset() for letter in letters},
    )
    monkeypatch.setattr(driver, "extract", lambda model, directory, inputs, outputs: never_o)
    doc = {"semantics": "mealy", "inputs": ["i"], "outputs": ["o"], "guarantees": ["G F (i -> o)"]}
    with pytest.raises(RuntimeError) as err:
        search(load_spec(json.dumps(doc)), RunConfig(mode="synthesis", counter_strategy="off"))
    assert str(err.value) == ("extracted system system fails verification on input prefix "
                              "[{i}] and loop [{i}]; encoder bug")


def _recording(build, bounds):
    def recorded(side, n, cfg):
        bounds.append(n)
        return build(side, n, cfg)
    return recorded


def test_main_three_client_arbiter_builds_environment_side(tmp_path, capsys):
    """Regression: the environment automaton of the 3-client arbiter once
    carried merged guards nested deeper than the recursion limit."""
    spec_path = write_spec(tmp_path, arbiter_doc(3))
    code = main([spec_path, "--max-bound", "1"])
    assert code == 0
    assert capsys.readouterr().out == "UNKNOWN\n"


def test_main_synthesis_dot_output(tmp_path):
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    out = str(tmp_path / "system.dot")
    code = main([spec_path, "--mode", "synthesis", "--format", "dot", "--output", out])
    assert code == 10
    assert "digraph" in open(out).read()


@pytest.mark.parametrize("guarantee", ["X " * 1200 + "o", " && ".join(["o"] * 3000)],
                         ids=["nested_next", "long_conjunction"])
def test_main_deeply_nested_spec_is_input_error(tmp_path, capsys, guarantee):
    doc = {"semantics": "moore", "inputs": ["i"], "outputs": ["o"], "guarantees": [guarantee]}
    assert main([write_spec(tmp_path, doc), "--max-bound", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: specification nested too deeply (")


def test_main_deep_constraint_matrix_decides(tmp_path, capsys):
    """An 11-input parity guarantee: its guard is a cover of 2,048 cubes,
    one gate of that many children, and the input encoding decides it.  The
    basic encoding compiles one cofactor over the output per valuation."""
    parity = "i10"
    for j in reversed(range(10)):
        parity = f"(i{j} <-> {parity})"
    doc = {"semantics": "mealy", "inputs": [f"i{j}" for j in range(11)], "outputs": ["o"],
           "guarantees": [f"G (o <-> {parity})"]}
    spec_path = write_spec(tmp_path, doc)
    for encoding in ("input", "basic"):
        code = main([spec_path, "--encoding", encoding, "--max-bound", "1", "--counter-strategy", "off"])
        assert code == 10, encoding
        assert capsys.readouterr() == ("REALIZABLE (bound 1)\n", ""), encoding


def test_main_parses_each_call_afresh(tmp_path, monkeypatch):
    """main builds its parser once; a later call still gets the default of
    every option it does not pass."""
    seen = []
    make_sides = driver.make_sides
    monkeypatch.setattr(driver, "make_sides", lambda spec, cfg: seen.append(cfg) or make_sides(spec, cfg))
    spec_path = write_spec(tmp_path, ARBITER_DOC)
    assert main([spec_path, "--encoding", "basic", "--search", "linear", "--max-bound", "2",
                 "--minimize", "--no-scc-reduction", "--counter-strategy", "off",
                 "--mode", "synthesis", "--format", "dot",
                 "--output", str(tmp_path / "a.dot"), "--expansion-cap", "64"]) == 10
    assert main([spec_path, "--semantics", "mealy"]) == 10
    assert seen[0] != RunConfig()
    assert seen[1] == RunConfig(semantics="mealy")
    assert driver._arg_parser.cache_info().currsize == 1


def test_cli_fuzz_random_specs(tmp_path, capsys):
    """60 seeded random specs over at most 3 atoms, each on all four
    encodings: no exception, a documented exit code, no traceback, and no
    two encodings giving opposite verdicts."""
    rng = random.Random(2024)
    for case in range(60):
        atoms = ["a", "b", "c"][: rng.randrange(2, 4)]
        split = rng.randrange(1, len(atoms))
        doc = {
            "semantics": rng.choice(["mealy", "moore"]),
            "inputs": atoms[:split],
            "outputs": atoms[split:],
            "guarantees": [format_ltl(random_formula(rng, atoms, 3))],
        }
        path = write_spec(tmp_path, doc, f"fuzz{case}.json")
        codes = {}
        for encoding in driver.ENCODING_NAMES:
            codes[encoding] = main([path, "--encoding", encoding, "--max-bound", "3"])
            err = capsys.readouterr().err
            assert codes[encoding] in (0, 1, 2, 10, 20), (doc, encoding)
            assert "Traceback" not in err, (doc, encoding)
        assert not {10, 20} <= set(codes.values()), (doc, codes)


TRACED_RUN = """
import json
import sys

import tracing
from ltlsynth import driver

tracer = tracing.Tracer()
tracing.install(tracer)
codes = [driver.main([sys.argv[1], "--mode", "synthesis", "--encoding", encoding,
                      "--output", sys.argv[2]])
         for encoding in driver.ENCODING_NAMES]
sizes = tracer.sizes[None]
keys = ("automaton.counted_states", "automaton.counter_bits", "encode.nodes")
synthesis = [codes, [sizes[key] for key in keys], sorted({span[0] for span in tracer.spans})]
emitted = []  # per format: exit code, clauses counted, spans opened
for encoding, fmt in (("basic", "dimacs"), ("input", "qdimacs"), ("state", "dqdimacs")):
    first, clauses = len(tracer.spans), sizes["logic.cnf_clauses"]
    code = driver.main([sys.argv[1], "--emit", fmt, "--encoding", encoding, "--max-bound", "2",
                        "--output", sys.argv[3]])
    emitted.append([code, sizes["logic.cnf_clauses"] - clauses,
                    sorted({span[0] for span in tracer.spans[first:]})])
print(json.dumps([*synthesis, emitted]))
"""


def test_benchmark_tracer_wraps_the_driver(tmp_path):
    """perfbench/tracing.py wraps driver functions by name and reads the
    SccInfo and the encoders' results: arbiter k=2 synthesis on every
    encoding, both sides, runs under it, records nonzero sizes and opens a
    span for every layer it times.  Then `--emit` in each format opens a
    `logic.emit` and a `logic.tseitin` span and counts the clauses, so a
    renamed `tseitin` or emitter, or a reshaped result, fails here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, write_spec(tmp_path, ARBITER_DOC),
         str(tmp_path / "out.aag"), str(tmp_path / "out.cnf")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, sizes, spans, emitted = json.loads(proc.stdout.splitlines()[-1])  # after the verdict lines
    assert codes == [10] * len(driver.ENCODING_NAMES)
    assert all(sizes), sizes
    layers = {"ltl.load", "automaton.ucw", "automaton.scc", "automaton.symbolic", "encode",
              "logic.tseitin", "solve.expand", "solve.cdcl", "extract", "verify", "system.aiger"}
    assert layers <= set(spans), sorted(layers - set(spans))
    for fmt, (code, clauses, emit_spans) in zip(("dimacs", "qdimacs", "dqdimacs"), emitted):
        assert code == 0 and clauses > 0, (fmt, code, clauses)
        assert {"logic.emit", "logic.tseitin"} <= set(emit_spans), (fmt, emit_spans)


@pytest.mark.parametrize("name, options, tried", [
    ("blinker", {"search": "linear"}, [("system", 1), ("environment", 1), ("system", 2)]),
    ("arbiter", {"search": "linear"}, [("system", 1), ("environment", 1), ("system", 2)]),
    ("arbiter3", {}, [("system", 1), ("environment", 1), ("system", 2), ("environment", 2),
                      ("system", 4), ("system", 3)]),
])
def test_minimize_skips_bounds_the_schedule_refuted(monkeypatch, name, options, tried):
    """The walk down stops above the side's greatest unsat bound: a machine
    padded with an unreachable state shows every bound below a sat one sat,
    so no bound the schedule refuted is solved again."""
    attempts = []
    real_attempt = driver._attempt
    monkeypatch.setattr(driver, "_attempt", lambda side, n, cfg, want_system: (
        attempts.append((side.role, n)) or real_attempt(side, n, cfg, want_system)))
    spec = load_spec(json.dumps(arbiter_doc(3))) if name == "arbiter3" else by_name(name).spec
    outcome = search(spec, RunConfig(encoding="basic", minimize=True, **options))
    assert (outcome.status, outcome.bound) == ("realizable", tried[-1][1])
    assert attempts == tried
