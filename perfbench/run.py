"""ltlsynth benchmark: CLI-path workloads with verdict checks and layer traces.

    python3 perfbench/run.py --workload suite-alt --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Load is a closed loop with one client: a single workload
process calls `ltlsynth.driver.main` for one job after another.

Times are in reference seconds: wall time scaled by the host speed sampled
meanwhile, because the shared host's speed swings by up to 2x within seconds
(see hostspeed.py).  The raw wall times go to stderr.

--trace 0 reports the end-to-end metrics:
  total_s      median over passes of the time of one pass, i.e. every job of
               the workload once through driver.main; the passes run in up
               to HASH_SEEDS workload processes with distinct hash seeds
  peak_rss_mb  peak resident memory of the largest workload process
  setup_s      median over fresh interpreters of the time from spawning the
               interpreter until ltlsynth.driver is imported and the specs
               are written (one discarded warm-up fills the bytecode cache)
  ok_share     jobs whose exit code, verdict line, bound and artifact match
               the hand-derived answer / jobs attempted
--trace 1 runs an untraced and a traced phase in one process and a traced
phase in a second process with the next seed (other job order and hash
seed).  It reports per-layer self times (median over traced passes), size
counts, which must repeat exactly in every traced pass of a process, the
number of jobs whose size counts differ between the two hash seeds, and the
tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# The program's work depends on PYTHONHASHSEED (see README.md), so a run
# splits its time over up to this many workload processes, each with its
# own hash seed, to average that dependence rather than draw it once.
HASH_SEEDS = 4
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, workdir: Path, phases: list[str],
           limit: int | None, deadline: float) -> dict:
    """Run worker.py; returns its result with its (spawn, ready) times."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    cmd += [f"--phase={p}" for p in phases]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish before the deadline")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload} worker exited {proc.returncode}: {err.strip()}")
    result = json.loads(lines[-1]) if phases else {}
    result["setup"] = (spawned, float(lines[0].split()[1]))
    return result


def _passes(result: dict, kind: str) -> list[dict]:
    return [p for phase in result["phases"] if phase["kind"] == kind for p in phase["passes"]]


def _counts(results: list[dict]):
    attempted = sum(p["attempted"] for r in results for ph in r["phases"] for p in ph["passes"])
    failed = sum(p["failed"] for r in results for ph in r["phases"] for p in ph["passes"])
    for r in results:
        for line in r["failures"]:
            print(f"failed: {line}", file=sys.stderr)
    return attempted, failed


def _untraced_processes(workload: str, seed: int, seconds: float, workdir: Path,
                        limit: int | None, deadline: float) -> list[dict]:
    """Untraced passes in up to HASH_SEEDS processes, one time slot each.

    A process runs whole passes within its slot and at least one; the next
    process starts only if one more pass fits before `seconds` run out.
    """
    start = time.monotonic()
    results = []
    for i in range(HASH_SEEDS):
        slot = start + (i + 1) * seconds / HASH_SEEDS - time.monotonic()
        results.append(_spawn(workload, seed * HASH_SEEDS + i, workdir,
                              [f"untraced:{max(slot, 0.0)}"], limit, deadline))
        longest = max(p["wall_s"] for p in _passes(results[-1], "untraced"))
        if time.monotonic() + longest > start + seconds:
            break
    return results


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path,
                 limit: int | None, deadline: float) -> dict:
    speed = hostspeed.Sampler(time.monotonic).start()
    try:
        _spawn(workload, seed, workdir, [], limit, deadline)  # warm-up: bytecode cache
        probes = [_spawn(workload, seed, workdir, [], limit, deadline)["setup"]
                  for _ in range(SETUP_PROBES)]
        results = _untraced_processes(workload, seed, seconds, workdir, limit, deadline)
        probes += [result["setup"] for result in results]
    finally:
        speed.stop()
    setups = [speed.scaled(*probe) for probe in probes]
    attempted, failed = _counts(results)
    passes = [p for result in results for p in _passes(result, "untraced")]
    totals = [p["total_s"] for p in passes]
    metrics = {
        "total_s": (statistics.median(totals), "s"),
        "peak_rss_mb": (max(result["peak_rss_mb"] for result in results), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"{workload}: {len(results)} processes, {len(totals)} passes, "
          f"pass totals {[round(t, 3) for t in totals]}, "
          f"wall {[round(p['wall_s'], 3) for p in passes]}, "
          f"setups {[round(s, 3) for s in setups]}, "
          f"wall {[round(end - start, 3) for start, end in probes]}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _differing_jobs(a: dict, b: dict) -> list[str]:
    """Jobs whose size counts differ between two traced passes."""
    return [job for job in sorted(set(a) | set(b)) if a.get(job) != b.get(job)]


def _repeats(traced: list[dict]) -> bool:
    """Every job's size counts must repeat exactly in every pass of one process."""
    ok = True
    for p in traced[1:]:
        for job in _differing_jobs(traced[0]["sizes"], p["sizes"]):
            print(f"size counts differ between passes for {job}: "
                  f"{traced[0]['sizes'].get(job)} vs {p['sizes'].get(job)}", file=sys.stderr)
            ok = False
    return ok


def run_traced(workload: str, seed: int, seconds: float, workdir: Path,
               limit: int | None, deadline: float) -> dict:
    share = seconds / 3
    first = _spawn(workload, seed, workdir, [f"untraced:{share}", f"traced:{share}"], limit, deadline)
    second = _spawn(workload, seed + 1, workdir, [f"traced:{share}"], limit, deadline)
    attempted, failed = _counts([first, second])
    first_traced, second_traced = _passes(first, "traced"), _passes(second, "traced")
    repeated = _repeats(first_traced) and _repeats(second_traced)
    # the two processes differ in hash seed: a difference there is measured,
    # since the verdicts and artifacts are checked on their own
    seed_variant = _differing_jobs(first_traced[0]["sizes"], second_traced[0]["sizes"])
    for job in seed_variant:
        print(f"size counts depend on the hash seed for {job}: "
              f"{first_traced[0]['sizes'].get(job)} vs {second_traced[0]['sizes'].get(job)}",
              file=sys.stderr)
    traced = first_traced + second_traced
    per_pass = [tracing.layer_metrics(p["self_times"], p["sizes"]) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        unit = tracing.unit_of(name)
        # counts and ratios repeat within a process (checked above); times do not
        value = statistics.median(m[name] for m in per_pass) if unit == "s" else per_pass[0][name]
        metrics[name] = (value, unit)
    # overhead within one process, so that both sides run the same work
    untraced_total = statistics.median(p["total_s"] for p in _passes(first, "untraced"))
    traced_total = statistics.median(p["total_s"] for p in _passes(first, "traced"))
    metrics["trace.overhead_s"] = (traced_total - untraced_total, "s")
    metrics["trace.seed_variant_jobs"] = (len(seed_variant), "count")
    print(f"{workload}: {len(traced)} traced passes, repeated={repeated}, "
          f"{len(seed_variant)} jobs depend on the hash seed", file=sys.stderr)
    return {"correct": failed == 0 and repeated, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    if not (ROOT / "src" / "ltlsynth" / "driver.py").is_file():
        raise BenchError(f"no ltlsynth sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds, workdir, limit, deadline)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    return result


def smoke() -> int:
    """One job per workload, both modes; checks the schema against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = json.loads(json.dumps(run(workload, 7, 0.01, bool(trace), limit=1)))
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics {units} != {expected[trace]}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: non-numeric value")
    for line in problems:
        print(line, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one job per workload in both modes, checking the result schema")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
