"""Command-line entry point: spec ingestion, bound search, result emission.

Realizability searches the system side and (unless disabled) the
environment side in fair alternation, one bound step per side per round.
The environment plays the negated specification with inputs and outputs
swapped and the semantics dualized, so a win on either side settles the
verdict.  Exit codes: 10 realizable, 20 unrealizable, 0 `--emit` success
or undetermined, 1 usage, input or write errors, 2 resource exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

from .automaton import (
    Ucw,
    analyze_sccs,
    encode_symbolic,
    full_counters,
    ltl_to_ucw,
    ucw_to_dot,
)
from .encode import (
    BASIC,
    FULLY_SYMBOLIC,
    INPUT_SYMBOLIC,
    STATE_SYMBOLIC,
    VarDirectory,
    encode_basic,
    encode_fully_symbolic,
    encode_input_symbolic,
    encode_state_symbolic,
    extract,
)
from .ltl import SynthSpec, load_spec_file, negate
from .logic import QuantifiedProblem, emit_dimacs, emit_dqdimacs, emit_qdimacs
from .solve import (
    DEFAULT_EXPANSION_CAP,
    ExpansionLimitError,
    SolveResult,
    external_solve,
    solve_internal,
    solver_argv,
)
from .system import MEALY, MOORE, TransitionSystem, to_aiger, to_dot
from .verify import model_check

ENCODING_NAMES = (BASIC, INPUT_SYMBOLIC, STATE_SYMBOLIC, FULLY_SYMBOLIC)


@dataclass
class RunConfig:
    encoding: str = INPUT_SYMBOLIC
    mode: str = "realizability"  # 'realizability' | 'synthesis'
    semantics: str | None = None
    search: str = "exponential"  # 'exponential' | 'linear'
    max_bound: int = 8
    minimize: bool = False
    solver_cmd: str | None = None
    scc_reduction: bool = True
    counter_strategy: str = "auto"  # 'auto' | 'off'
    emit: str | None = None  # 'dimacs' | 'qdimacs' | 'dqdimacs'
    output: str | None = None
    fmt: str = "aag"  # 'aag' | 'dot'
    expansion_cap: int = DEFAULT_EXPANSION_CAP
    dump_ucw: str | None = None

    def validate(self):
        if self.encoding not in ENCODING_NAMES:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.mode not in ("realizability", "synthesis"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_bound < 1:
            raise ValueError("max bound must be positive")
        if self.expansion_cap < 0:
            raise ValueError("expansion cap must not be negative")
        if self.solver_cmd is not None:
            solver_argv(self.solver_cmd)  # rejects a malformed command up front
        if (
            self.mode == "synthesis"
            and self.solver_cmd is not None
            and self.encoding != BASIC
        ):
            raise ValueError(
                "synthesis with an external solver only works for the basic "
                "encoding; symbolic extraction needs the internal solvers"
            )


@dataclass
class SideProblem:
    """One player's bounded-synthesis instance family."""

    role: str  # 'system' | 'environment'
    automaton: Ucw
    semantics: str


@dataclass
class SearchOutcome:
    status: str  # 'realizable' | 'unrealizable' | 'undetermined'
    bound: int | None = None
    system: TransitionSystem | None = None
    # the first unknown attempt's reason: why an undetermined search found
    # no verdict, or why --minimize stopped above the least bound it could show
    detail: str = ""


def build_problem(
    side: SideProblem, n: int, cfg: RunConfig
) -> tuple[QuantifiedProblem, VarDirectory]:
    a = side.automaton
    scc = analyze_sccs(a, n) if cfg.scc_reduction else full_counters(a, n)
    if cfg.encoding == BASIC:
        return encode_basic(a, n, side.semantics, scc)
    if cfg.encoding == INPUT_SYMBOLIC:
        return encode_input_symbolic(a, n, side.semantics, scc)
    if cfg.encoding == STATE_SYMBOLIC:
        return encode_state_symbolic(a, n, side.semantics, scc)
    return encode_fully_symbolic(a, encode_symbolic(a), n, side.semantics, scc)


def _solve(problem: QuantifiedProblem, cfg: RunConfig) -> SolveResult:
    if cfg.solver_cmd is not None:
        return external_solve(problem, cfg.solver_cmd)
    return solve_internal(problem, cfg.expansion_cap)


def _attempt(
    side: SideProblem, n: int, cfg: RunConfig, want_system: bool
) -> tuple[SolveResult, TransitionSystem | None]:
    """The solver's result and, on sat when want_system, the verified system."""
    problem, directory = build_problem(side, n, cfg)
    result = _solve(problem, cfg)
    if result.status != "sat" or not want_system:
        return result, None
    if result.model is None:  # an external solver printed only its verdict
        return SolveResult("unknown", detail="solver printed no model"), None
    a = side.automaton
    ts = extract(result.model, directory, a.inputs, a.outputs)
    lasso = model_check(ts, a)
    if lasso is not None:
        raise RuntimeError(
            f"extracted {side.role} system fails verification on input prefix "
            f"[{_word(lasso.prefix)}] and loop [{_word(lasso.loop)}]; encoder bug"
        )
    return result, ts


def _word(letters) -> str:
    """Input letters as text, e.g. '{r1,r2} {}'."""
    return " ".join("{" + ",".join(sorted(letter)) + "}" for letter in letters)


def make_sides(spec: SynthSpec, cfg: RunConfig) -> list[SideProblem]:
    semantics = cfg.semantics or spec.semantics
    formula = spec.formula()
    sides = [SideProblem("system", ltl_to_ucw(formula, spec.inputs, spec.outputs), semantics)]
    # the environment side serves only the counter-strategy search
    if cfg.counter_strategy == "auto" and cfg.emit is None:
        dual_semantics = MEALY if semantics == MOORE else MOORE
        dual = ltl_to_ucw(negate(formula), spec.outputs, spec.inputs)
        sides.append(SideProblem("environment", dual, dual_semantics))
    return sides


def _bounds(cfg: RunConfig) -> range | list[int]:
    if cfg.search == "linear":
        return range(1, cfg.max_bound + 1)
    # powers of two below the ceiling, then the ceiling itself
    return [*(1 << j for j in range((cfg.max_bound - 1).bit_length())), cfg.max_bound]


def _minimized(side: SideProblem, found: int, floor: int, cfg: RunConfig, want_system: bool):
    """Walk the bound down linearly while the instance stays satisfiable,
    stopping above `floor`, the greatest bound shown unsat (0 for none): an
    unreachable state pads any machine, so no bound below it is sat either.

    Returns the least satisfiable bound seen, its system (None if only
    `found` was), and, when the walk stopped at an unknown rather than an
    unsat attempt, that attempt's reason."""
    best_bound, best = found, None
    for n in range(found - 1, floor, -1):
        result, ts = _attempt(side, n, cfg, want_system)
        if result.status == "unknown":
            return best_bound, best, f"bound {n}: {result.detail}"
        if result.status != "sat":
            break
        best_bound, best = n, ts
    return best_bound, best, ""


def search_realizability(sides: list[SideProblem], cfg: RunConfig) -> SearchOutcome:
    """Fair alternation over bounds between the sides built by make_sides.

    An unknown attempt does not stop the search; a later attempt may still
    decide.  The first unknown's reason is kept for an undetermined outcome.
    """
    want_system = cfg.mode == "synthesis"
    unknown = ""
    refuted = [0] * len(sides)  # each side's greatest unsat bound so far
    for n in _bounds(cfg):
        for j, side in enumerate(sides):
            result, ts = _attempt(side, n, cfg, want_system)
            if result.status == "unknown":
                unknown = unknown or result.detail
                continue
            if result.status != "sat":
                refuted[j] = n
                continue
            bound, detail = n, ""
            if cfg.minimize:
                bound, better, detail = _minimized(side, n, refuted[j], cfg, want_system)
                if better is not None:
                    ts = better
            status = "realizable" if side.role == "system" else "unrealizable"
            return SearchOutcome(status, bound, ts, detail)
    return SearchOutcome("undetermined", detail=unknown)


# ---------------------------------------------------------------------------
# CLI


@functools.cache  # built on the first main call, not at import
def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlsynth",
        description="Bounded synthesis from LTL specifications via SAT/QBF/DQBF.",
    )
    parser.add_argument("spec", help="JSON specification file")
    parser.add_argument("--encoding", choices=ENCODING_NAMES)
    parser.add_argument("--mode", choices=("realizability", "synthesis"))
    parser.add_argument("--semantics", choices=(MEALY, MOORE),
                        help="override the semantics given in the spec file")
    parser.add_argument("--search", choices=("exponential", "linear"))
    parser.add_argument("--max-bound", type=int)
    parser.add_argument("--minimize", action="store_true",
                        help="shrink the bound linearly after the first success")
    parser.add_argument("--solver-cmd",
                        help="external solver command with a {file} placeholder")
    parser.add_argument("--no-scc-reduction", dest="scc_reduction", action="store_false",
                        help="keep rank counters for every automaton state")
    parser.add_argument("--counter-strategy", choices=("auto", "off"))
    parser.add_argument("--emit", choices=("dimacs", "qdimacs", "dqdimacs"),
                        help="write the encoded constraint system and stop")
    parser.add_argument("--output", help="artifact or emission path")
    parser.add_argument("--format", dest="fmt", choices=("aag", "dot"))
    parser.add_argument("--expansion-cap", type=int)
    parser.add_argument("--dump-ucw", help="debug: write the specification automaton as dot")
    # every option's default is the RunConfig field it sets
    parser.set_defaults(**vars(RunConfig()))
    return parser


_EMITTERS = {"dimacs": emit_dimacs, "qdimacs": emit_qdimacs, "dqdimacs": emit_dqdimacs}


def _write(path: str | None, text: str) -> bool:
    """Write text to path, or to stdout; False, with an error printed, when
    the file cannot be written."""
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return True
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False


def _emit(side: SideProblem, cfg: RunConfig) -> int:
    problem, _ = build_problem(side, cfg.max_bound, cfg)
    try:
        text = _EMITTERS[cfg.emit](problem)
    except ValueError as exc:
        print(f"error: {exc} (encoding {cfg.encoding!r})", file=sys.stderr)
        return 1
    return 0 if _write(cfg.output, text) else 1


def main(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    options = vars(args)
    spec_path = options.pop("spec")
    cfg = RunConfig(**options)
    try:
        cfg.validate()
        spec = load_spec_file(spec_path)
        sides = make_sides(spec, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: specification nested too deeply (Python recursion limit {limit})",
              file=sys.stderr)
        return 1

    if cfg.dump_ucw and not _write(cfg.dump_ucw, ucw_to_dot(sides[0].automaton)):
        return 1

    try:
        if cfg.emit is not None:
            return _emit(sides[0], cfg)
        outcome = search_realizability(sides, cfg)
    except ExpansionLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2

    if outcome.status == "undetermined":
        print(f"UNKNOWN ({outcome.detail})" if outcome.detail else "UNKNOWN")
        return 0
    if outcome.status == "realizable":
        print(f"REALIZABLE (bound {outcome.bound})")
    else:
        print(f"UNREALIZABLE (environment bound {outcome.bound})")
    if outcome.detail:
        print(f"note: --minimize stopped at an unknown attempt ({outcome.detail}); "
              f"bound {outcome.bound} may not be least", file=sys.stderr)
    if cfg.mode == "synthesis" and outcome.system is not None:
        text = to_aiger(outcome.system) if cfg.fmt == "aag" else to_dot(outcome.system)
        if not _write(cfg.output, text):
            return 1
    return 10 if outcome.status == "realizable" else 20


def cli():
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
