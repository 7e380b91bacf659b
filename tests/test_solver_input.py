"""Solver-input gate: the CNF that `solve_internal` hands to `sat_solve`.

Each case is encoded through the driver's dispatch and decided by
`solve_internal` with `sat_solve` replaced by a recorder; the SHA-256 of
(clauses, variable count, sorted expansion copies) must match
`solver_input_digests.json`.  This pins universal expansion and the clause
form together, so a change to either that moves one literal or one copy
number fails here, naming the case.  Regenerate the file only for an
intended change:

    PYTHONPATH=src:tests python tests/test_solver_input.py > tests/solver_input_digests.json
"""

import hashlib
import json
import os
import sys

from ltlsynth import solve
from ltlsynth.driver import RunConfig, build_problem, make_sides
from ltlsynth.ltl import load_spec
from suite import SUITE, arbiter_doc

DIGESTS = os.path.join(os.path.dirname(__file__), "solver_input_digests.json")
ENCODINGS = ("basic", "input", "state", "full")


def _cases():
    """(case name, side, bounds) for every suite spec and arbiter k = 2, 3 on
    both sides at n = 1, 2; arbiter k = 3's environment side, the slowest
    to expand, at n = 1 only."""
    for bench in SUITE:
        for side in make_sides(bench.spec, RunConfig()):
            yield f"{bench.name}/{side.role}", side, (1, 2)
    for k in (2, 3):
        for side in make_sides(load_spec(json.dumps(arbiter_doc(k))), RunConfig()):
            bounds = (1,) if (k, side.role) == (3, "environment") else (1, 2)
            yield f"arbiter{k}/{side.role}", side, bounds


def _solver_input(problem) -> str:
    """The digest of what solve_internal passes to sat_solve; no search runs."""
    seen = {}
    expand = problem.expand

    def recording_expand():
        matrix, copies = expand()
        seen["copies"] = sorted(copies.items())
        return matrix, copies

    def recording_sat_solve(clauses, num_vars=None, max_conflicts=None):
        seen["cnf"] = (clauses, num_vars)
        return solve.SolveResult("unsat")

    problem.expand = recording_expand
    real = solve.sat_solve
    solve.sat_solve = recording_sat_solve
    try:
        solve.solve_internal(problem)
    finally:
        solve.sat_solve = real
    clauses, num_vars = seen.get("cnf", (None, None))  # None: the matrix expanded to TRUE
    blob = repr((clauses, num_vars, seen["copies"])).encode()
    return hashlib.sha256(blob).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    for name, side, bounds in _cases():
        for encoding in ENCODINGS:
            for n in bounds:
                problem, _ = build_problem(side, n, RunConfig(encoding=encoding))
                out[f"{name}/{encoding}/n{n}"] = _solver_input(problem)
    return out


def test_solver_input_matches_pinned_digests():
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    ours = digests()
    assert ours.keys() == pinned.keys()
    moved = [case for case in ours if ours[case] != pinned[case]]
    assert not moved, f"solver input changed for {len(moved)} case(s): {', '.join(moved)}"


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
