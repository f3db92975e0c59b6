"""Checks on the benchmark itself.

    python3 -m pytest perfbench

The benchmark's pipeline must write the same circuits as the command line,
its layer spans must cover at least 95% of every job's stage time, its cost
figures must not depend on the seed, its first baseline must match
the costs measured when the ROADMAP was re-anchored, and BENCHMARK.json must
list exactly the metrics run.py prints.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import pipeline
import run
from revflow.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)


def _bench(workload: str, seed: int, trace: int = 0, seconds: int = 0):
    """A workload run through run.py: (result, job rows by name)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    rows = {f"{r['job']['design']}{r['job']['n']}": r["job"] for r in records if "job" in r}
    return records[-1], rows


def _cli_options(job: pipeline.Job) -> list[str]:
    """The `revflow synth` switches that select the job's flow."""
    options = ["--method", job.flow]
    if job.flow == "functional":
        options += ["--embedding", job.embedding]
    elif job.flow == "hier":
        options += ["--cleanup", "bennett"]
    return options


@pytest.fixture(scope="module")
def runs():
    return {(w, seed): _bench(w, seed) for w in pipeline.WORKLOADS for seed in SEEDS}


@pytest.mark.parametrize("workload", pipeline.WORKLOADS)
def test_layer_spans_cover_each_job(workload):
    # several traced passes, so that one stall in the tracer's own code on a
    # job of a few milliseconds does not decide the share
    result, _ = _bench(workload, SEEDS[0], trace=1, seconds=10)
    assert result["correct"]
    assert result["metrics"]["trace.min_coverage"]["value"] >= 0.95


@pytest.mark.parametrize("workload", pipeline.WORKLOADS)
def test_circuit_matches_cli(workload, tmp_path):
    jobs = pipeline.WORKLOADS[workload]
    smallest = min(job.n for job in jobs)
    for job in (job for job in jobs if job.n == smallest):
        pipeline.write_input(job, pipeline.input_path(job, tmp_path))
        result = pipeline.run_job(job, tmp_path)
        assert result.ok, result.error
        bench_real = tmp_path / f"{job.name}.real"
        cli_real = tmp_path / f"{job.name}.cli.real"
        with contextlib.redirect_stdout(io.StringIO()):
            synth = [str(pipeline.input_path(job, tmp_path)), *_cli_options(job), "-o", str(cli_real)]
            assert cli_main(["synth", *synth]) == 0
            assert cli_main(["verify", str(bench_real), "--design", job.design, "-n", str(job.n)]) == 0
        assert cli_real.read_bytes() == bench_real.read_bytes()


@pytest.mark.parametrize("workload", pipeline.WORKLOADS)
def test_cost_does_not_depend_on_seed(runs, workload):
    first, second = (runs[workload, seed][0] for seed in SEEDS)
    assert first["correct"] and second["correct"]
    for name in ("qubits", "gates", "t_count", "job_pass_ratio"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_esop_matches_roadmap_baseline(runs):
    rows = runs["esop", SEEDS[0]][1]
    for n, t_count, cubes in ((6, 2_700, (63, 62)), (8, 22_680, (255, 254)), (10, 154_828, (1022, 1021))):
        assert rows[f"intdiv{n}"]["t_count"] == t_count
        assert (rows[f"intdiv{n}"]["cubes_rm"], rows[f"intdiv{n}"]["cubes_min"]) == cubes


def test_hier_matches_roadmap_baseline(runs):
    rows = runs["hier", SEEDS[0]][1]
    for n, t_count, qubits in ((6, 1_064, 139), (8, 1_876, 249), (10, 2_912, 391)):
        assert (rows[f"intdiv{n}"]["t_count"], rows[f"intdiv{n}"]["qubits"]) == (t_count, qubits)
    for n, qubits in ((6, 4_849), (8, 11_018), (10, 16_755)):
        assert rows[f"newton{n}"]["qubits"] == qubits


def test_tbs_matches_roadmap_baseline(tmp_path):
    # n=8 is not in the functional workload (see README.md); check its cost once here
    job = pipeline.Job("intdiv", 8, "functional", "optimum")
    pipeline.write_input(job, pipeline.input_path(job, tmp_path))
    result = pipeline.run_job(job, tmp_path)
    assert result.ok, result.error
    assert result.gates == 235_431


def test_self_times_subtract_children():
    spans = [
        pipeline.Span("bench.synth", 0.0, 10.0, None, "j"),
        pipeline.Span("revcirc.read_real", 1.0, 4.0, 0, "j"),
        pipeline.Span("revcirc.cost_report", 5.0, 9.0, 0, "j"),
    ]
    assert pipeline.self_times(spans) == [3.0, 3.0, 4.0]


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
