"""Spans and size counts recorded around the program's public functions.

`install` replaces each traced function at the module attribute through
which the driver or the solver calls it, so the program itself is not
edited.  Spans are kept in memory as (name, start, end, parent, job) and
written out when the run ends; a layer's self time is the duration of its
spans minus the part covered by their direct children, scaled by the host
speed during the job (see hostspeed.py).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layer span names and the per-layer metric reporting their self time.
TIMED_LAYERS = {
    "ltl.load": "ltl.load_s",
    "automaton.ucw": "automaton.ucw_s",
    "automaton.scc": "automaton.scc_s",
    "automaton.symbolic": "automaton.symbolic_s",
    "encode": "encode.self_s",
    "logic.tseitin": "logic.tseitin_s",
    "logic.emit": "logic.emit_s",
    "solve.expand": "solve.expand_s",
    "solve.cdcl": "solve.cdcl_s",
    "extract": "extract.self_s",
    "verify": "verify.self_s",
    "system.aiger": "system.aiger_s",
}

# Size counts summed over a pass, by per-layer metric name.
COUNTS = (
    "automaton.ucw_calls",
    "automaton.ucw_states",
    "automaton.ucw_edges",
    "automaton.ucw_rejecting",
    "automaton.counted_states",
    "automaton.counter_bits",
    "encode.exist_vars",
    "encode.univ_vars",
    "encode.nodes",
    "logic.cnf_vars",
    "logic.cnf_clauses",
    "logic.emit_bytes",
    "solve.expansion_copies",
    "solve.cdcl_calls",
    "driver.attempts",
)

# Ratios: metric name -> (numerator count, denominator count).
RATIOS = {
    "solve.sat_share": ("solve.cdcl_sat", "solve.cdcl_calls"),
    "driver.decisive_ratio": ("driver.decisive", "driver.attempts"),
}


def unit_of(metric: str) -> str:
    if metric in TIMED_LAYERS.values():
        return "s"
    if metric in RATIOS:
        return "ratio"
    return "bytes" if metric == "logic.emit_bytes" else "count"


class Tracer:
    """In-memory span log plus per-job size counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self._stack: list[int] = []
        self.job: str | None = None
        self.sizes: dict[str, dict] = defaultdict(lambda: defaultdict(int))

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value):
        self.sizes[self.job][key] += value

    def self_times(self, first: int, last: int, scale: dict[str, float]) -> dict[str, float]:
        """Self time per span name over spans[first:last], each span's
        duration multiplied by its job's factor in `scale`."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans[first:last]:
            if parent >= first:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, job) in enumerate(self.spans[first:last], first):
            out[name] += (end - start - child_time[i]) * scale[job]
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")


def _traced(tracer: Tracer, original, layer: str, size=None):
    def traced(*args, **kwargs):
        index = tracer.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if size is not None:
            size(args, result)
        return result

    return traced


def _wrap(tracer: Tracer, module, attr: str, layer: str, size=None):
    setattr(module, attr, _traced(tracer, getattr(module, attr), layer, size))


def _expansion_copies(problem) -> int:
    """2^|universals| x existentials that depend on some universal."""
    universals = problem.universals()
    if not universals:
        return 0
    if problem.deps is not None:
        dependent = sum(1 for ds in problem.deps.values() if ds)
    else:
        dependent, seen_universal = 0, False
        for quant, vs in problem.prefix:
            seen_universal |= quant == "a" and bool(vs)
            if quant == "e" and seen_universal:
                dependent += len(vs)
    return (1 << len(universals)) * dependent


def install(tracer: Tracer):
    """Wrap the traced functions of an imported ltlsynth in place."""
    from ltlsynth import driver, encode, logic, solve

    def ucw(args, a):
        tracer.add("automaton.ucw_calls", 1)
        tracer.add("automaton.ucw_states", a.n_states)
        tracer.add("automaton.ucw_edges", len(a.guards))
        tracer.add("automaton.ucw_rejecting", len(a.rejecting))

    def scc(args, info):
        tracer.add("automaton.counted_states", len(info.counted))
        tracer.add("automaton.counter_bits", info.counter_bits)

    def encoded(args, result):
        n_exist, n_univ, n_nodes = encode.count_profile(result[0])
        tracer.add("encode.exist_vars", n_exist)
        tracer.add("encode.univ_vars", n_univ)
        tracer.add("encode.nodes", n_nodes)

    def cnf(args, result):
        clauses, _, num_vars = result
        tracer.add("logic.cnf_vars", num_vars)
        tracer.add("logic.cnf_clauses", len(clauses))

    def cdcl(args, outcome):
        tracer.add("solve.cdcl_calls", 1)
        tracer.add("solve.cdcl_sat", outcome.status == "sat")

    def attempt(args, outcome):
        # with the internal solver, each bound attempt solves exactly once
        # and, without --minimize, the first sat outcome settles the verdict
        tracer.add("driver.attempts", 1)
        tracer.add("driver.decisive", outcome.status == "sat")
        tracer.add("solve.expansion_copies", _expansion_copies(args[0]))

    def emitted(args, text):
        tracer.add("logic.emit_bytes", len(text.encode()))

    _wrap(tracer, driver, "load_spec_file", "ltl.load")
    _wrap(tracer, driver, "ltl_to_ucw", "automaton.ucw", ucw)
    _wrap(tracer, driver, "analyze_sccs", "automaton.scc", scc)
    _wrap(tracer, driver, "full_counters", "automaton.scc", scc)
    _wrap(tracer, driver, "encode_symbolic", "automaton.symbolic")
    for name in ("encode_basic", "encode_input_symbolic", "encode_state_symbolic",
                 "encode_fully_symbolic"):
        _wrap(tracer, driver, name, "encode", encoded)
    _wrap(tracer, driver, "solve_internal", "solve.expand", attempt)
    # the solver calls tseitin through its own import, the emitters through logic's
    _wrap(tracer, solve, "tseitin", "logic.tseitin", cnf)
    _wrap(tracer, logic, "tseitin", "logic.tseitin", cnf)
    _wrap(tracer, solve, "sat_solve", "solve.cdcl", cdcl)
    _wrap(tracer, driver, "extract", "extract")
    _wrap(tracer, driver, "model_check", "verify")
    _wrap(tracer, driver, "to_aiger", "system.aiger")
    for fmt, emitter in driver._EMITTERS.items():
        driver._EMITTERS[fmt] = _traced(tracer, emitter, "logic.emit", emitted)


def layer_metrics(self_times: dict[str, float], sizes: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values of one pass from its self times and job sizes."""
    totals = defaultdict(int)
    for job_sizes in sizes.values():
        for key, value in job_sizes.items():
            if isinstance(value, int):
                totals[key] += value
    out = {metric: self_times.get(span, 0.0) for span, metric in TIMED_LAYERS.items()}
    out.update({key: totals[key] for key in COUNTS})
    for metric, (num, den) in RATIOS.items():
        out[metric] = totals[num] / totals[den] if totals[den] else 0.0
    return out
