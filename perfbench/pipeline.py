"""Jobs, workloads and the gen -> synth -> verify pipeline the benchmark times.

A job is (design, n, flow).  Each stage calls revflow's library functions in
the order the command line does (`revflow gen`, `revflow synth`, `revflow
verify`), and every call into a revflow module goes through a tracer, so a
traced run can attribute each job's time to the module that spent it.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from time import perf_counter

import calibrate

# The benchmark runs from a plain checkout, without an installed revflow.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from revflow.arith import Design, DesignSpec, design_truth_table, design_xmg  # noqa: E402
from revflow.embedding import bennett_embed, optimum_embed  # noqa: E402
from revflow.logicnet import (  # noqa: E402
    DEFAULT_TT_LIMIT,
    esop_from_tt,
    esop_minimize,
    read_pla,
    read_xmg,
    write_pla,
    write_xmg,
)
from revflow.revcirc import (  # noqa: E402
    cost_report,
    read_real,
    simulate_full,
    simulate_source_batch,
    verify_circuit,
    write_real,
)
from revflow.synth_esop import esop_synth  # noqa: E402
from revflow.synth_functional import tbs  # noqa: E402
from revflow.synth_hier import hier_synth  # noqa: E402


@dataclass(frozen=True)
class Job:
    design: str
    n: int
    flow: str
    embedding: str | None = None  # "optimum" or "bennett", functional flow only

    @property
    def name(self) -> str:
        tail = "-bennett" if self.embedding == "bennett" else ""
        return f"{self.design}{self.n}-{self.flow}{tail}"

    @cached_property
    def spec(self) -> DesignSpec:
        return DesignSpec(Design(self.design), self.n)

    @property
    def input_suffix(self) -> str:
        return ".xmg" if self.flow == "hier" else ".pla"


def _intdiv(flow: str, ns: range, embedding: str | None = None) -> list[Job]:
    return [Job("intdiv", n, flow, embedding) for n in ns]


# Why each workload exists is recorded in BENCHMARK.json next to its name.
WORKLOADS: dict[str, list[Job]] = {
    "functional": _intdiv("functional", range(4, 8), "optimum"),
    "functional-bennett": _intdiv("functional", range(4, 8), "bennett"),
    "hier": [Job("newton", n, "hier") for n in range(4, 11)] + _intdiv("hier", range(4, 13)),
    "esop": _intdiv("esop", range(4, 14)),
}


# --- tracing ---------------------------------------------------------------


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None


class Tracer:
    """Keeps one span per call into a layer, in memory, in start order.

    The clock is read as the last thing before a call and the first thing
    after it, so the tracer's own work falls outside the layer spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []

    def _push(self, name: str) -> Span:
        opened = self._open
        span = Span(name, 0.0, 0.0, opened[-1] if opened else None, self.job)
        opened.append(len(self.spans))
        self.spans.append(span)
        return span

    def call(self, name: str, fn, *args, **kwargs):
        span = self._push(name)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self._push(name), self._open)


class _OpenSpan:
    __slots__ = ("span", "opened")

    def __init__(self, span: Span, opened: list[int]):
        self.span = span
        self.opened = opened

    def __enter__(self):
        self.span.start = perf_counter()

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.opened.pop()


class _NoTracer:
    job = None

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NO_TRACE = _NoTracer()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# --- the pipeline ----------------------------------------------------------


def input_path(job: Job, workdir: Path) -> Path:
    return workdir / (job.name + job.input_suffix)


def write_input(job: Job, path: Path, tr=NO_TRACE) -> dict:
    """`revflow gen`: write the job's input file; returns generator counts."""
    if job.flow == "hier":
        net = tr.call("arith.design_xmg", design_xmg, job.spec)
        tr.call("logicnet.write_xmg", write_xmg, net, path)
        return {"xmg_nodes": net.num_nodes}
    table = tr.call("arith.design_truth_table", design_truth_table, job.spec, DEFAULT_TT_LIMIT)
    esop = tr.call("logicnet.esop_from_tt", esop_from_tt, table)
    tr.call("logicnet.write_pla", write_pla, esop, path)
    return {}


def _flow(job: Job, path: Path, tr):
    """Read the input and run the job's flow; returns (circuit, permutation, counts)."""
    if job.flow == "hier":
        net = tr.call("logicnet.read_xmg", read_xmg, path)
        circ = tr.call("synth_hier.hier_synth", hier_synth, net, "bennett")
        return circ, None, {"ancillas": circ.width - net.num_inputs - net.num_outputs}
    esop = tr.call("logicnet.read_pla", read_pla, path)
    if job.flow == "esop":
        minimized = tr.call("logicnet.esop_minimize", esop_minimize, esop)
        circ = tr.call("synth_esop.esop_synth", esop_synth, minimized)
        return circ, None, {"cubes_rm": len(esop.cubes), "cubes_min": len(minimized.cubes)}
    table = tr.call("logicnet.to_truth_table", esop.to_truth_table, DEFAULT_TT_LIMIT)
    embed = optimum_embed if job.embedding == "optimum" else bennett_embed
    perm, emb = tr.call(f"embedding.{job.embedding}_embed", embed, table)
    circ = tr.call("synth_functional.tbs", tbs, perm, embedding=emb)
    return circ, perm, {"width": emb.width, "tbs_gates": len(circ.gates)}


def _synth(job: Job, src: Path, real: Path, tr):
    """`revflow synth`; returns (permutation, cost report, counts)."""
    circ, perm, counts = _flow(job, src, tr)
    tr.call("revcirc.write_real", write_real, circ, real)
    report = tr.call("revcirc.cost_report", cost_report, circ)
    with tr.span("revcirc.free"):  # freeing a large cascade takes measurable time
        del circ
    return perm, report, counts


def _ancillas_clean(circ, planes: list) -> bool:
    """Every constant line that carries no output ends at its constant."""
    full = (1 << (1 << circ.num_inputs)) - 1
    for line, const in enumerate(circ.constants):
        if const is not None and circ.outputs[line] is None and planes[line] != (full if const else 0):
            return False
    return True


def _verify(job: Job, real: Path, perm, tr) -> tuple[list[str], int]:
    """`revflow verify` plus the flow's own checks; returns (failed checks, gates read)."""
    circ = tr.call("revcirc.read_real", read_real, real)
    table = tr.call("arith.design_truth_table", design_truth_table, job.spec, DEFAULT_TT_LIMIT)
    failed = []
    if not tr.call("revcirc.verify_circuit", verify_circuit, circ, table):
        failed.append("oracle")
    if perm is not None and tr.call("revcirc.simulate_full", simulate_full, circ) != perm:
        failed.append("permutation")
    if job.flow == "hier":
        planes = tr.call("revcirc.simulate_source_batch", simulate_source_batch, circ)
        if not _ancillas_clean(circ, planes):
            failed.append("ancilla")
    gates = len(circ.gates)
    with tr.span("revcirc.free"):
        del circ
    return failed, gates


@dataclass
class JobResult:
    job: Job
    seconds: dict = field(default_factory=dict)  # stage -> seconds at reference speed
    wall_s: dict = field(default_factory=dict)  # stage -> wall seconds
    qubits: int | None = None
    gates: int | None = None
    t_count: int | None = None
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class _StageClock:
    """Times stages, each one bracketed by calibration runs (see calibrate.py)."""

    def __init__(self, res: JobResult, tr):
        self.res = res
        self.tr = tr
        self.before = calibrate.loop_time()

    def run(self, stage: str, fn, *args):
        start = perf_counter()
        with self.tr.span("bench." + stage):
            out = fn(*args)
        wall = perf_counter() - start
        after = calibrate.loop_time()
        self.res.wall_s[stage] = wall
        self.res.seconds[stage] = calibrate.scaled(wall, self.before, after)
        self.before = after
        return out


def run_job(job: Job, workdir: Path, tr=NO_TRACE, gen: bool = False) -> JobResult:
    """One job, timed stage by stage.  A raised exception or a failed check
    marks the result as failed instead of propagating."""
    res = JobResult(job)
    job.spec  # noqa: B018  (built here, outside the timed stages)
    src = input_path(job, workdir)
    real = workdir / (job.name + ".real")
    tr.job = job.name
    try:
        clock = _StageClock(res, tr)
        if gen:
            res.counts.update(clock.run("gen", write_input, job, src, tr))
        perm, report, counts = clock.run("synth", _synth, job, src, real, tr)
        failed, gates_read = clock.run("verify", _verify, job, real, perm, tr)
    except Exception as exc:  # a job that raises is counted as failed, the run goes on
        res.error = f"{type(exc).__name__}: {exc}"
        return res
    finally:
        tr.job = None
    res.qubits, res.gates, res.t_count = report.qubits, report.gate_count, report.t_count
    res.counts.update(counts, real_gates=gates_read)
    if failed:
        res.error = "failed checks: " + ", ".join(failed)
    return res
