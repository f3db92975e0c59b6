"""revflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload hier --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 12

A workload is a fixed list of jobs (design, n, flow) run in one process, one
job after another.  Set-up (import revflow and write every input file) is
timed in fresh child processes.  The run then repeats passes over the jobs,
in an order shuffled by --seed, until --seconds have gone by; each job's
stage times are the medians over passes.

Every job is checked: the circuit read back from its .real file must match
the oracle, a functional circuit must realise its permutation exactly, and a
hier circuit must return every ancilla to 0.  A failed check or an exception
fails the job, makes the run incorrect and the exit code 1.

Standard output holds one JSON line for the environment, one per job, in a
traced run one with all spans, and last the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics when --trace is 0 and the per-layer metrics when it is 1.
A traced run alternates untraced and traced passes, so it also reports how
much the tracing itself costs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pipeline

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "qubits": "count",
    "gates": "count",
    "t_count": "count",
    "job_pass_ratio": "ratio",
}

LAYERS = ("arith", "logicnet", "embedding", "synth_functional", "synth_esop", "synth_hier", "revcirc")

# Span names of the calls into revflow that pipeline.py makes.
TIMED_CALLS = (
    "arith.design_xmg",
    "arith.design_truth_table",
    "logicnet.esop_from_tt",
    "logicnet.write_pla",
    "logicnet.read_pla",
    "logicnet.to_truth_table",
    "logicnet.esop_minimize",
    "logicnet.write_xmg",
    "logicnet.read_xmg",
    "embedding.optimum_embed",
    "embedding.bennett_embed",
    "synth_functional.tbs",
    "synth_esop.esop_synth",
    "synth_hier.hier_synth",
    "revcirc.write_real",
    "revcirc.cost_report",
    "revcirc.read_real",
    "revcirc.verify_circuit",
    "revcirc.simulate_full",
    "revcirc.simulate_source_batch",
    "revcirc.free",
)

# per-layer metric -> (JobResult.counts key, unit), summed over jobs
COUNTS = {
    "arith.xmg_nodes": ("xmg_nodes", "count"),
    "logicnet.cubes_rm": ("cubes_rm", "count"),
    "logicnet.cubes_min": ("cubes_min", "count"),
    "embedding.width": ("width", "lines"),
    "synth_functional.gates": ("tbs_gates", "count"),
    "synth_hier.ancillas": ("ancillas", "lines"),
}

PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_CALLS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: unit for name, (_, unit) in COUNTS.items()},
    "revcirc.real_gates_per_s": "1/s",
    "trace.min_coverage": "ratio",
    "trace.overhead_s": "s",
}


def time_setup(workload: str, workdir: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH / "gen_inputs.py"), workload, str(workdir)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    ).stdout
    return float(out.split()[-1])


def run_passes(jobs, workdir: Path, seed: int, seconds: float, trace: bool):
    """Repeat passes over the jobs until `seconds` have gone by.

    Returns [(results, tracer or None)].  A traced run alternates untraced
    and traced passes, makes at least one of each, and writes the inputs in
    every pass, so that the gen step is traced as well.
    """
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or (trace and len(passes) < 2):
        order = list(jobs)
        rng.shuffle(order)
        tracer = pipeline.Tracer() if trace and len(passes) % 2 else None
        results = []
        for job in order:
            gc.collect()  # each job starts from the same heap, whatever ran before it
            results.append(pipeline.run_job(job, workdir, tracer or pipeline.NO_TRACE, gen=trace))
        passes.append((results, tracer))
    return passes


def job_rows(jobs, passes) -> tuple[list[dict], list[str]]:
    """One row per job, stage seconds as medians over passes; plus problems found."""
    rows, problems = [], []
    for job in jobs:
        runs = [r for results, _ in passes for r in results if r.job == job]
        good = [r for r in runs if r.ok]
        qor = {(r.qubits, r.gates, r.t_count) for r in good}
        if len(qor) > 1:
            problems.append(f"{job.name}: cost differs between passes: {sorted(qor)}")
        row = {"design": job.design, "n": job.n, "flow": job.flow, "embedding": job.embedding}
        for stage in ("gen", "synth", "verify"):
            for key, times in ((f"{stage}_s", "seconds"), (f"{stage}_wall_s", "wall_s")):
                values = [getattr(r, times)[stage] for r in good if stage in getattr(r, times)]
                row[key] = statistics.median(values) if values else None
        first = good[0] if good else None
        row.update(
            qubits=first and first.qubits,
            gates=first and first.gates,
            t_count=first and first.t_count,
            cubes_rm=first and first.counts.get("cubes_rm"),
            cubes_min=first and first.counts.get("cubes_min"),
            runs=len(runs),
            failed=len(runs) - len(good),
            errors=sorted({r.error for r in runs if not r.ok}),
        )
        rows.append(row)
    return rows, problems


def end_to_end(rows, setup: list[float], attempted: int, failed: int) -> dict:
    def total(key):
        return sum(row[key] or 0 for row in rows)

    values = {
        "setup_s": statistics.median(setup),
        "synth_s": total("synth_s"),
        "verify_s": total("verify_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "qubits": total("qubits"),
        "gates": total("gates"),
        "t_count": total("t_count"),
        "job_pass_ratio": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_values(results, tracer) -> dict:
    """Per-layer numbers of one traced pass, times at reference speed."""
    by_job = {r.job.name: r for r in results}
    spans = tracer.spans
    values = dict.fromkeys(PER_LAYER, 0.0)
    for span, self_s in zip(spans, pipeline.self_times(spans)):
        top = span
        while top.parent is not None:
            top = spans[top.parent]
        res, stage = by_job[span.job], top.name.removeprefix("bench.")
        if stage not in res.wall_s:  # the stage raised
            continue
        scale = res.seconds[stage] / res.wall_s[stage] if res.wall_s[stage] else 1.0
        if span.name in TIMED_CALLS:
            values[span.name + "_s"] += (span.end - span.start) * scale
        layer = span.name.split(".")[0]
        if layer in LAYERS:
            values[layer + ".self_s"] += self_s * scale
    for name, (key, _) in COUNTS.items():
        values[name] = sum(r.counts.get(key, 0) for r in results)
    read_s = values["revcirc.read_real_s"]
    gates_read = sum(r.counts.get("real_gates", 0) for r in results)
    values["revcirc.real_gates_per_s"] = gates_read / read_s if read_s else 0.0
    return values


def min_coverage(tracers) -> float:
    """Smallest share, over jobs, of a job's stage time that layer spans cover."""
    staged: dict[str, float] = {}
    uncovered: dict[str, float] = {}
    for tracer in tracers:
        for span, self_s in zip(tracer.spans, pipeline.self_times(tracer.spans)):
            if span.name.startswith("bench."):
                staged[span.job] = staged.get(span.job, 0.0) + span.end - span.start
                uncovered[span.job] = uncovered.get(span.job, 0.0) + self_s
    return min(1 - uncovered[job] / staged[job] for job in staged)


def per_layer(passes) -> dict:
    traced = [layer_values(results, tr) for results, tr in passes if tr is not None]
    medians = {name: statistics.median(v[name] for v in traced) for name in PER_LAYER}

    def stage_total(with_trace: bool) -> float:
        return statistics.median(
            sum(r.seconds["synth"] + r.seconds["verify"] for r in results if r.ok)
            for results, tr in passes if (tr is not None) == with_trace
        )

    medians["trace.overhead_s"] = stage_total(True) - stage_total(False)
    medians["trace.min_coverage"] = min_coverage(tr for _, tr in passes if tr is not None)
    return {name: {"value": medians[name], "unit": unit} for name, unit in PER_LAYER.items()}


def spans_record(passes) -> list:
    return [
        [k, s.name, s.start, s.end, s.parent, s.job]
        for k, (_, tr) in enumerate(passes) if tr is not None
        for s in tr.spans
    ]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(args) -> int:
    jobs = pipeline.WORKLOADS[args.workload]
    trace = bool(args.trace)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setup = [] if trace else [time_setup(args.workload, workdir) for _ in range(SETUP_REPEATS)]
        passes = run_passes(jobs, workdir, args.seed, args.seconds, trace)
    attempted = sum(len(results) for results, _ in passes)
    failed = sum(not r.ok for results, _ in passes for r in results)
    rows, problems = job_rows(jobs, passes)
    env = {
        "python": platform.python_version(),
        "git": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
    }
    print(json.dumps({"env": env}))
    for row in rows:
        print(json.dumps({"job": row}))
    correct = failed == 0 and not problems
    if trace:
        print(json.dumps({"spans": spans_record(passes)}))
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(rows, setup, attempted, failed)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    status = 0
    for name in pipeline.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a revflow benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[*pipeline.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="shuffles the job order only")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
