"""Workload job lists and their hand-derived expected results.

Every job is one `ltlsynth.driver.main` call on a generated spec file.
Expected verdicts and bounds are derived by hand (see the comments), never
taken from the tool, so a regression in any layer shows up as a failed job.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("suite-alt", "arbiter-sat", "arbiter-dqbf", "emit")

# (encoding, emit format) pairs: the format each encoding's fragment needs.
EMIT_FORMATS = (("basic", "dimacs"), ("input", "qdimacs"), ("state", "dqdimacs"), ("full", "dqdimacs"))
ENCODINGS = tuple(e for e, _ in EMIT_FORMATS)

_ARBITER_2 = ["G (r1 -> X F g1)", "G (r2 -> X F g2)", "G ! (g1 && g2)"]

# The fourteen specs of the repository's test suite, with the verdict and the
# least bound of the side that wins.  Realizable entries carry the least
# system bound; unrealizable ones the least environment bound, derived as:
#   copy_moore    the Mealy environment sees o and answers i = !o: 1 state.
#   force_input   the environment holds i low forever: 1 state.
#   contradiction the negated spec is valid, so any environment wins: 1 state.
#   clairvoyant   a 1-state Moore environment emits a constant that the
#                 system can echo; remembering the last o and emitting its
#                 complement needs 2 states.
# Fields: name, semantics, inputs, outputs, guarantees, assumptions,
# realizable, least bound of the winning side.
SUITE = (
    ("const_true", "moore", ["i"], ["o"], ["true"], [], True, 1),
    ("always_out", "moore", ["i"], ["o"], ["G o"], [], True, 1),
    ("eventually_out", "moore", ["i"], ["o"], ["F o"], [], True, 1),
    ("copy_mealy", "mealy", ["i"], ["o"], ["G (o <-> i)"], [], True, 1),
    ("copy_moore", "moore", ["i"], ["o"], ["G (o <-> i)"], [], False, 1),
    ("arbiter", "moore", ["r1", "r2"], ["g1", "g2"], _ARBITER_2, [], True, 2),
    ("blinker", "moore", ["i"], ["o"], ["G (o <-> X ! o)"], [], True, 2),
    ("force_input", "moore", ["i"], ["o"], ["F i"], [], False, 1),
    ("contradiction", "moore", ["i"], ["o"], ["F o", "G ! o"], [], False, 1),
    ("assume_live", "moore", ["i"], ["o"], ["G F o"], ["G F i"], True, 1),
    ("mutex_live", "moore", ["i"], ["o1", "o2"], ["G ! (o1 && o2)", "G F o1", "G F o2"], [], True, 2),
    ("req_grant", "moore", ["i"], ["o"], ["G (i -> F o)"], [], True, 1),
    ("clairvoyant", "mealy", ["i"], ["o"], ["G (o <-> X i)"], [], False, 2),
    ("echo_mealy", "mealy", ["i"], ["o"], ["G (X o <-> i)"], [], True, 2),
)


@dataclass(frozen=True)
class Job:
    """One CLI call; `args` omit the spec path and `--output`."""

    id: str
    spec: str
    args: tuple[str, ...]
    rc: int  # expected exit code
    line: str  # expected stdout, stripped
    artifact: str  # 'aag' or the emitted format
    machine: tuple[str, int, int, int] | None = None  # semantics, states, inputs, outputs


def arbiter_spec(k: int) -> dict:
    """Moore k-client arbiter.

    Its least bound is exactly k: with fewer states some client is granted
    in no state (mutual exclusion allows one grant per state), and the
    environment keeps that client's request up; round-robin uses k states.
    """
    clients = range(1, k + 1)
    guarantees = [f"G (r{i} -> X F g{i})" for i in clients]
    guarantees += [f"G ! (g{i} && g{j})" for i in clients for j in clients if i < j]
    return {
        "semantics": "moore",
        "inputs": [f"r{i}" for i in clients],
        "outputs": [f"g{i}" for i in clients],
        "assumptions": [],
        "guarantees": guarantees,
    }


def specs(workload: str) -> dict[str, dict]:
    """Spec documents by file stem."""
    if workload == "suite-alt":
        return {
            name: {"semantics": sem, "inputs": ins, "outputs": outs,
                   "assumptions": assume, "guarantees": guar}
            for name, sem, ins, outs, guar, assume, _, _ in SUITE
        }
    return {f"arbiter{k}": arbiter_spec(k) for k in (2, 3, 4)}


def _dual(semantics: str) -> str:
    return "mealy" if semantics == "moore" else "moore"


def _synthesis_job(job_id, spec, encoding, max_bound, env_side, sem, ins, outs, realizable, bound):
    args = ("--encoding", encoding, "--mode", "synthesis", "--search", "linear",
            "--max-bound", str(max_bound))
    if not env_side:
        args += ("--counter-strategy", "off")
    if realizable:
        return Job(job_id, spec, args, 10, f"REALIZABLE (bound {bound})", "aag",
                   (sem, bound, ins, outs))
    # the counter-strategy reads the system's outputs under dual semantics
    return Job(job_id, spec, args, 20, f"UNREALIZABLE (environment bound {bound})", "aag",
               (_dual(sem), bound, outs, ins))


def jobs(workload: str) -> list[Job]:
    """The workload's jobs in canonical order, cheapest first."""
    out: list[Job] = []
    if workload == "suite-alt":
        for name, sem, ins, outs, _, _, realizable, bound in SUITE:
            for enc in ENCODINGS:
                out.append(_synthesis_job(f"{name}/{enc}", name, enc, 3, True, sem,
                                          len(ins), len(outs), realizable, bound))
    elif workload in ("arbiter-sat", "arbiter-dqbf"):
        ks, encs = ((2, 3, 4), ("basic", "input")) if workload == "arbiter-sat" else ((2, 3), ("state", "full"))
        for k in ks:
            for enc in encs:
                out.append(_synthesis_job(f"arbiter{k}/{enc}", f"arbiter{k}", enc, k, False,
                                          "moore", k, k, True, k))
    elif workload == "emit":
        for k in (2, 3, 4):
            for enc, fmt in EMIT_FORMATS:
                for bound in (4, 8):
                    args = ("--encoding", enc, "--emit", fmt, "--max-bound", str(bound),
                            "--counter-strategy", "off")
                    out.append(Job(f"arbiter{k}/{enc}/n{bound}", f"arbiter{k}", args, 0, "", fmt))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
