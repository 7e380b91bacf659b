"""Decision procedures: CDCL SAT, one universal expansion path, externals.

The SAT core is a conflict-driven solver with two watched literals per
clause, first-UIP learning, VSIDS-style activities with phase saving, and
Luby restarts.  Values are kept per encoded literal (one bytearray
entry for v and one for -v), so the watch loop reads a literal's value
with one index.  A binary clause, loaded or learnt, lives only in the
watch lists: each of its two literals lists the other one (as in MiniSat
2.2 and Glucose), so visiting it reads one value and loads no clause.
It never moves its watches, and when it is read as a reason or a
conflict its literals come in the order a stored copy would have then,
so the search is step for step that of a solver storing every clause.
Loading encodes and sorts each clause, merges a repeated literal and drops
a tautology; one scan of the sorted literals finds a repeated variable,
and only such a clause is deduplicated through a set.  Loaded and learnt
clauses are watched by the same attach step.  While asserts are on, every
input clause is tested against the final model.  The order heap holds
each variable's current (-activity, var) entry at most once:
backtracking re-pushes only the variables without one, and entries left
behind by bumps are dropped when popped.  `solve_internal` decides
every fragment by full universal expansion (`QuantifiedProblem.expand`):
every existential is copied once per assignment of exactly its
dependency set, and the conjunction of the matrix over all universal
assignments goes to the SAT core in clause form: only shared gates get
definition variables, each with the halves its polarities need, and
every other gate is written straight into its parent's clauses
(`tseitin`, whose clauses `emit_dimacs` writes for a SAT problem).
Each subterm is rebuilt once per assignment of the universals in its own
cone, except where three-valued tables of the universals alone already
show it constant, and the result is identical, node for node, to
substituting every full assignment into the matrix.  A SAT problem is
the case with no universals: its one copy is the matrix itself.  The
model reads a dependent existential at a universal assignment from that
assignment's copy (`Model.value_of`).
"""

from __future__ import annotations

import heapq
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from itertools import islice

from .logic import (
    TRUE,
    QuantifiedProblem,
    emit_dimacs,
    emit_dqdimacs,
    emit_qdimacs,
    read_dimacs,
    tseitin,
)

DEFAULT_EXPANSION_CAP = 1 << 22


class ExpansionLimitError(RuntimeError):
    """Universal expansion would exceed the configured size cap."""


@dataclass
class Model:
    """Variable values; a dependent existential e is read from its
    expansion copy copies[(e, key)], key being the values of deps[e]."""

    assignment: dict[int, bool]
    copies: dict[tuple[int, tuple[bool, ...]], int] = field(default_factory=dict)
    deps: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def value_of(self, var: int, univ_assignment: dict[int, bool] | None = None) -> bool:
        """Value of an existential; dependent ones need the universal context."""
        if self.deps.get(var):
            var = self.copies[(var, tuple(bool(univ_assignment[d]) for d in self.deps[var]))]
        return self.assignment.get(var, False)


@dataclass
class SolveResult:
    status: str  # 'sat' | 'unsat' | 'unknown'
    model: Model | None = None
    detail: str = ""
    stats: dict[str, int] = field(default_factory=dict)  # CDCL counters, see sat_solve


# ---------------------------------------------------------------------------
# CDCL


def sat_solve(clauses, num_vars: int | None = None, max_conflicts: int | None = None) -> SolveResult:
    """Complete CDCL decision; the returned model covers every variable.

    Each clause is encoded and sorted; a repeated literal is merged and a
    tautology dropped, and only a clause that repeats a variable pays for
    a set.  With asserts on, a model is checked against every clause.
    The result's `stats` counts conflicts, decisions, propagations (trail
    literals whose watches were visited), restarts and learnt clauses.
    """
    nv = num_vars or max((abs(l) for c in clauses for l in c), default=0)

    # encoded literals: 2v for v, 2v+1 for -v; val[el]: 0 unknown, 1 true, 2 false
    val = bytearray(2 * nv + 2)
    level = [0] * (nv + 1)
    # reason[v]: -1 for decisions and units, ci >= 0 for the long clause
    # db[ci], ~el for the binary clause (v's true literal, el)
    reason = [-1] * (nv + 1)
    trail: list[int] = []
    trail_lim: list[int] = []
    qhead = 0
    db: list[list[int]] = []  # clauses of three or more literals
    # watches[el]: ci >= 0 for the long clause db[ci], ~other for the
    # binary clause (el, other); both kinds share one list in watch order
    watches: list[list[int]] = [[] for _ in range(2 * nv + 2)]
    activity = [0.0] * (nv + 1)
    var_inc = 1.0
    # Order heap of (-activity, var).  in_heap[v] is set while v's entry with
    # its current activity is on the heap.  A bump pushes a new entry and
    # leaves the old one behind; activities only grow between rescales
    # (which rebuild the heap), so v's current entry is its least and pops
    # first, and older ones pop when v has none.
    heap = [(0.0, v) for v in range(1, nv + 1)]
    in_heap = bytearray(b"\x01") * (nv + 1)
    saved_phase = bytearray(b"\x01") * (nv + 1)  # sign bit of the last value; 1 decides false
    seen = bytearray(nv + 1)  # analyze's marks, cleared before it returns
    conflicts = decisions = propagations = restarts = learnts = 0

    def result(status: str, model: Model | None = None, detail: str = "") -> SolveResult:
        stats = {"conflicts": conflicts, "decisions": decisions, "propagations": propagations,
                 "restarts": restarts, "learnt": learnts}
        return SolveResult(status, model, detail, stats)

    def assign(el: int, why: int):
        val[el] = 1
        val[el ^ 1] = 2
        var = el >> 1
        level[var] = len(trail_lim)
        reason[var] = why
        trail.append(el)

    def attach(cls: list[int]) -> int:
        """Watch a clause of two or more literals on its first two; returns
        the reason code that clause gives its first literal."""
        if len(cls) == 2:
            watches[cls[0]].append(~cls[1])
            watches[cls[1]].append(~cls[0])
            return ~cls[1]
        db.append(cls)
        watches[cls[0]].append(len(db) - 1)
        watches[cls[1]].append(len(db) - 1)
        return len(db) - 1

    # load clauses; units are assigned as read, propagation starts once all are watched
    for raw in clauses:
        cls = [2 * l if l > 0 else 1 - 2 * l for l in raw]
        cls.sort()
        prev = 0  # odd code of the previous literal's variable
        for el in cls:
            if el <= prev:  # a variable repeats: merge equal literals
                cls = sorted(set(cls))
                if any(a ^ 1 == b for a, b in zip(cls, islice(cls, 1, None))):
                    cls = None  # tautology: v and -v are neighbours once sorted
                break
            prev = el | 1
        if cls is None:
            continue
        if not cls:
            return result("unsat")
        if len(cls) > 1:
            attach(cls)
        elif val[cls[0]] == 2:
            return result("unsat")  # a unit contradicting an earlier one
        elif not val[cls[0]]:
            assign(cls[0], -1)

    def propagate() -> list[int] | None:
        """The literals of a falsified clause, or None once the trail is
        propagated.  A long clause keeps the literal it is visited through
        at index 1; a binary clause never moves its watches."""
        nonlocal qhead, propagations
        head = qhead
        lvl = len(trail_lim)
        confl = None
        while head < len(trail):
            fl = trail[head] ^ 1
            head += 1
            ws = watches[fl]
            kept: list[int] = []
            k = 0  # watches of fl visited
            for ci in ws:
                k += 1
                if ci < 0:  # binary clause (fl, first)
                    kept.append(ci)
                    first = ~ci
                    fv = val[first]
                    if fv == 1:
                        continue
                    if fv == 2:
                        kept.extend(ws[k:])
                        confl = [first, fl]
                        break
                    val[first] = 1
                    val[first ^ 1] = 2
                    var = first >> 1
                    level[var] = lvl
                    reason[var] = ~fl
                    trail.append(first)
                    continue
                cls = db[ci]
                first = cls[0]
                if first == fl:
                    first = cls[1]
                    cls[0] = first
                    cls[1] = fl
                fv = val[first]
                if fv == 1:
                    kept.append(ci)
                    continue
                j = 2
                n = len(cls)
                while j < n:
                    lit = cls[j]
                    if val[lit] != 2:
                        cls[1] = lit
                        cls[j] = fl
                        watches[lit].append(ci)
                        break
                    j += 1
                else:
                    kept.append(ci)
                    if fv == 2:
                        kept.extend(ws[k:])
                        confl = cls
                        break
                    val[first] = 1
                    val[first ^ 1] = 2
                    var = first >> 1
                    level[var] = lvl
                    reason[var] = ci
                    trail.append(first)
            watches[fl] = kept
            if confl is not None:
                break
        propagations += head - qhead
        qhead = head
        return confl

    def rescale():
        """Scale activities down; re-key the heap on the unassigned variables."""
        nonlocal var_inc
        for v in range(1, nv + 1):
            activity[v] *= 1e-100
        var_inc *= 1e-100
        heap[:] = [(-activity[v], v) for v in range(1, nv + 1) if not val[2 * v]]
        heapq.heapify(heap)
        for v in range(1, nv + 1):
            in_heap[v] = not val[2 * v]

    def analyze(confl: list[int]) -> tuple[list[int], int]:
        learnt = [0]  # slot 0 takes the asserting literal
        counter = 0
        idx = len(trail) - 1
        cur = len(trail_lim)
        pvar = 0
        cls = confl
        while True:
            # pvar stays marked while its reason is read, so the reason's
            # first literal (pvar's own) is skipped
            for q in cls:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        rescale()
                        act = activity[var]
                    heapq.heappush(heap, (-act, var))
                    in_heap[var] = 1
                    if level[var] == cur:
                        counter += 1
                    else:
                        learnt.append(q)
            seen[pvar] = 0
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            pvar = p >> 1
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            ci = reason[pvar]
            cls = db[ci] if ci >= 0 else [p, ~ci]
        learnt[0] = p ^ 1
        for q in learnt:
            seen[q >> 1] = 0
        if len(learnt) == 1:
            return learnt, 0
        # watch the highest remaining level; backjump there
        best = max(range(1, len(learnt)), key=lambda j: level[learnt[j] >> 1])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def cancel_until(target: int):
        nonlocal qhead
        if len(trail_lim) <= target:
            return
        limit = trail_lim[target]
        for el in islice(trail, limit, None):
            var = el >> 1
            saved_phase[var] = el & 1
            val[el] = 0
            val[el ^ 1] = 0
            if not in_heap[var]:
                in_heap[var] = 1
                heapq.heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[target:]
        qhead = len(trail)

    u = v = 1  # Knuth's reluctant-doubling pair: v runs through the Luby sequence
    restart_budget = 128

    while True:
        confl = propagate()
        if confl is not None:
            conflicts += 1
            if max_conflicts is not None and conflicts > max_conflicts:
                return result("unknown", detail="conflict budget exhausted")
            if not trail_lim:
                return result("unsat")
            learnt, back = analyze(confl)
            learnts += 1
            cancel_until(back)
            assign(learnt[0], attach(learnt) if len(learnt) > 1 else -1)
            var_inc /= 0.95
            restart_budget -= 1
            if restart_budget <= 0:
                restarts += 1
                u, v = (u + 1, 1) if u & -u == v else (u, 2 * v)
                restart_budget = 128 * v
                cancel_until(0)
            continue
        if len(trail) == nv:
            model = {v: val[2 * v] == 1 for v in range(1, nv + 1)}
            if __debug__:  # no input clause is empty here: intake returned unsat
                true_lits = {v if b else -v for v, b in model.items()}
                assert not any(map(true_lits.isdisjoint, clauses)), "SAT model fails a clause"
            return result("sat", Model(model))
        while True:
            _, var = heapq.heappop(heap)
            in_heap[var] = 0  # var's current entry is its least, so none is left
            if not val[2 * var]:
                break
        decisions += 1
        trail_lim.append(len(trail))
        assign(2 * var | saved_phase[var], -1)


# ---------------------------------------------------------------------------
# Universal expansion


def solve_internal(problem: QuantifiedProblem, cap: int = DEFAULT_EXPANSION_CAP) -> SolveResult:
    """Decide a SAT, QBF or DQBF problem by expanding its universals.

    Raises ExpansionLimitError when the expansion would exceed cap: the
    larger of its matrix copies, one per assignment of the universals, and
    its copies of the dependent existentials, one per assignment of each
    one's dependency set.  A SAT problem has no universals and so none.
    The CNF is the clause form of the expanded matrix (see `tseitin`).
    """
    store = problem.store
    universals = problem.universals()
    deps = problem.dependencies()
    dependent = [e for e, ds in deps.items() if ds]
    load = max(1 << len(universals), sum(1 << len(deps[e]) for e in dependent)) if universals else 0
    if load > cap:
        raise ExpansionLimitError(f"expansion needs {load} copies, cap is {cap}")

    matrix, copies = problem.expand()
    if matrix == TRUE:  # every value False
        return SolveResult("sat", Model({}, copies, deps))
    clauses, _, num_vars = tseitin(store, matrix)
    outcome = sat_solve(clauses, num_vars)
    if outcome.status == "sat":
        outcome.model = Model(outcome.model.assignment, copies, deps)
    return outcome


# ---------------------------------------------------------------------------
# External solver bridge


def solver_argv(cmd: str) -> list[str]:
    """The argv tokens of an external solver command; ValueError on an
    unbalanced quote or a missing {file} placeholder."""
    try:
        argv = shlex.split(cmd)
    except ValueError as exc:
        raise ValueError(f"solver command: {exc}") from None
    if not any("{file}" in token for token in argv):
        raise ValueError("solver command must contain the {file} placeholder")
    return argv


def external_solve(problem: QuantifiedProblem, cmd: str) -> SolveResult:
    """Emit the matching format, spawn cmd, read the SAT-competition verdict.

    cmd is split into `solver_argv` tokens, and the placeholder {file} is
    replaced in each token by the emitted file's path; exit code 10 means
    SAT and 20 means UNSAT, and a model is read from the lines whose first
    token is `v`.  Output bytes that are not UTF-8 read as U+FFFD.
    A printed DIMACS model must satisfy every emitted clause; the QBF
    formats' models are not read further.  A solver that prints no model
    gives a sat result without one: a verdict, but no system to extract.
    """
    argv = solver_argv(cmd)
    if problem.deps is not None:
        text, suffix = emit_dqdimacs(problem), ".dqdimacs"
    elif problem.is_sat_fragment():
        text, suffix = emit_dimacs(problem), ".cnf"
    else:
        text, suffix = emit_qdimacs(problem), ".qdimacs"

    fd, path = tempfile.mkstemp(suffix=suffix, prefix="ltlsynth_")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        try:
            proc = subprocess.run([token.replace("{file}", path) for token in argv],
                                  capture_output=True, text=True, errors="replace")
        except OSError as exc:
            return SolveResult("unknown", detail=f"spawn failed: {exc}")
        if proc.returncode == 20:
            return SolveResult("unsat")
        if proc.returncode != 10:
            stderr = proc.stderr.strip()
            detail = f"exit code {proc.returncode}" + (f"; stderr: {stderr}" if stderr else "")
            return SolveResult("unknown", detail=detail)
        try:
            lits = [int(token) for fields in map(str.split, proc.stdout.splitlines())
                    if fields[:1] == ["v"] for token in fields[1:]]
        except ValueError as exc:
            return SolveResult("unknown", detail=f"malformed model: {exc}")
        assignment = {abs(lit): lit > 0 for lit in lits if lit}
        if lits and suffix == ".cnf":
            for clause in read_dimacs(text).clauses:
                if not any(assignment.get(abs(lit), False) == (lit > 0) for lit in clause):
                    line = " ".join(map(str, [*clause, 0]))
                    return SolveResult("unknown", detail=f"model falsifies clause {line!r}")
        return SolveResult("sat", Model(assignment) if assignment else None)
    finally:
        os.unlink(path)
