"""One workload process: import ltlsynth, write the specs, run timed passes.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and PYTHONHASHSEED set from the workload seed.  It prints
`ready <monotonic time>` once the driver is imported and the specs are
written, then one JSON line with its passes.  Each phase `untraced:S` or
`traced:S` runs whole passes over the job list until its next pass would
end after S seconds, and always runs at least one.  Job times are wall
times scaled by the host speed sampled meanwhile (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback

import hostspeed
import workloads


def _check_aag(text: str, machine) -> str | None:
    semantics, states, n_in, n_out = machine
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 6 or header[0] != "aag":
        return "artifact is not ASCII AIGER"
    latches = max(0, (states - 1).bit_length())
    if [int(x) for x in header[2:5]] != [n_in, latches, n_out]:
        return f"AIGER header {' '.join(header)} does not match a {states}-state machine"
    if lines[-1] != f"{semantics} system, {states} states":
        return f"AIGER comment {lines[-1]!r} does not match"
    return None


def _check_emitted(text: str, fmt: str) -> str | None:
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4 or header[:2] != ["p", "cnf"]:
        return "missing 'p cnf' header"
    num_vars, num_clauses = int(header[2]), int(header[3])
    allowed = {"dimacs": "", "qdimacs": "ae", "dqdimacs": "ad"}[fmt]
    clauses = 0
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] in ("a", "e", "d"):
            if tokens[0] not in allowed:
                return f"{tokens[0]!r} line in {fmt} output"
            continue
        lits = [int(t) for t in tokens]
        if lits[-1] != 0 or any(abs(l) > num_vars for l in lits):
            return f"bad clause line {line!r}"
        clauses += 1
    if clauses != num_clauses:
        return f"{clauses} clauses, header says {num_clauses}"
    return None


class Runner:
    """Runs a workload's jobs through the driver and checks every result."""

    def __init__(self, driver, workload: str, workdir: str, seed: int, limit: int | None):
        self.driver = driver
        self.jobs = workloads.jobs(workload)[:limit]
        random.Random(seed).shuffle(self.jobs)
        self.outdir = os.path.join(workdir, "out")
        self.specdir = os.path.join(workdir, "specs")
        self.verified: dict[str, str] = {}  # job id -> sha256 of its checked output
        self.failures: list[str] = []
        self.tracer = None

    def write_specs(self, workload: str):
        os.makedirs(self.outdir, exist_ok=True)
        os.makedirs(self.specdir, exist_ok=True)
        for stem, doc in workloads.specs(workload).items():
            with open(os.path.join(self.specdir, stem + ".json"), "w", encoding="utf-8") as handle:
                json.dump(doc, handle)

    def _check(self, job, rc: int, stdout: str, path: str) -> str | None:
        if rc != job.rc or stdout.strip() != job.line:
            return f"exit {rc}, printed {stdout.strip()!r}; expected exit {job.rc}, {job.line!r}"
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            return f"no artifact: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        if self.verified.get(job.id) == digest:
            return None
        text = data.decode()
        if job.artifact == "aag":
            problem = _check_aag(text, job.machine)
        else:
            problem = _check_emitted(text, job.artifact)
        if problem is None:
            self.verified[job.id] = digest
        return problem

    def run_pass(self) -> dict:
        """One pass over every job; time counts only the driver.main calls."""
        tracer = self.tracer
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.sizes.clear()
        timed = []  # (job id, start, end) of each driver.main call
        failed = 0
        for job in self.jobs:
            path = os.path.join(self.outdir, job.id.replace("/", "_") + "." + job.artifact)
            argv = [os.path.join(self.specdir, job.spec + ".json"), *job.args, "--output", path]
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            gc.collect()
            stdout, stderr = io.StringIO(), io.StringIO()
            if tracer:
                tracer.job = job.id
                root = tracer.open("job")
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.driver.main(argv)
                problem = None
            except Exception:  # a crash fails this job only
                problem = traceback.format_exc()
            timed.append((job.id, start, time.perf_counter()))
            if tracer:
                tracer.close(root)
            if problem is None:
                problem = self._check(job, rc, stdout.getvalue(), path)
            if problem is None and tracer and job.artifact != "aag":
                tracer.sizes[job.id]["emit.sha256"] = self.verified[job.id]
            if problem is not None:
                failed += 1
                self.failures.append(f"{job.id}: {problem} {stderr.getvalue()}".strip())
        result = {"timed": timed, "attempted": len(self.jobs), "failed": failed}
        if tracer:
            result["spans"] = (first_span, len(tracer.spans))
            result["sizes"] = {job: dict(sizes) for job, sizes in tracer.sizes.items()}
        return result

    def finish_pass(self, result: dict, speed: hostspeed.Sampler):
        """Turn a pass's raw times into wall and scaled seconds."""
        timed = result.pop("timed")
        factors = {job: speed.factor(start, end) for job, start, end in timed}
        result["wall_s"] = sum(end - start for _, start, end in timed)
        result["total_s"] = sum((end - start) * factors[job] for job, start, end in timed)
        if "spans" in result:
            result["self_times"] = self.tracer.self_times(*result.pop("spans"), scale=factors)

    def run_phase(self, seconds: float) -> list[dict]:
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(self.run_pass())
            now = time.perf_counter()
            if now + (now - pass_start) - start > seconds:
                return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--phase", action="append", default=[],
                        help="'untraced:SECONDS' or 'traced:SECONDS', in order")
    parser.add_argument("--limit", type=int, default=None, help="run only the first N jobs")
    args = parser.parse_args(argv)

    from ltlsynth import driver

    runner = Runner(driver, args.workload, args.workdir, args.seed, args.limit)
    runner.write_specs(args.workload)
    print(f"ready {time.monotonic()!r}", flush=True)

    phases = []
    speed = hostspeed.Sampler().start()
    for phase in args.phase:
        kind, seconds = phase.split(":")
        if kind == "traced" and runner.tracer is None:
            import tracing

            runner.tracer = tracing.Tracer()
            tracing.install(runner.tracer)
        elif kind == "untraced" and runner.tracer is not None:
            raise SystemExit("untraced phases must come before traced ones")
        phases.append({"kind": kind, "passes": runner.run_phase(float(seconds))})
    speed.stop()
    for phase in phases:
        for result in phase["passes"]:
            runner.finish_pass(result, speed)
    if runner.tracer is not None:
        runner.tracer.write(os.path.join(args.workdir, f"spans-seed{args.seed}.jsonl"))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"phases": phases, "peak_rss_mb": peak_kib / 1024,
                      "failures": runner.failures[:20]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
