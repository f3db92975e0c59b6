"""Cross-flow differential test: every flow, driven through run_flow, matches the oracle."""

import gc

import pytest

from conftest import DESIGN_FLOW_IDS, DESIGN_FLOWS, FLOWS, clean_ancillas
from revflow.arith import Design, DesignSpec, design_truth_table
from revflow.cli import flow_source, run_flow
from revflow.revcirc import read_real, simulate_source_batch, write_real


@pytest.mark.parametrize("design,flow", DESIGN_FLOWS, ids=DESIGN_FLOW_IDS)
def test_flows_match_oracle(design, flow):
    method, options, _ = FLOWS[flow]
    for n in range(4, 7):
        spec = DesignSpec(design, n)
        table = design_truth_table(spec)
        circ = run_flow(method, flow_source(method, spec), **options)
        # one layout: inputs low, every other line a constant 0, outputs consecutive
        assert circ.constants == (None,) * n + (0,) * (circ.width - n)
        first = circ.outputs.index(0)
        assert [circ.outputs.index(j) for j in range(n)] == list(range(first, first + n))
        assert circ.num_outputs == n
        planes = simulate_source_batch(circ)
        columns = table.columns()
        for j in range(table.num_outputs):
            assert planes[circ.outputs.index(j)] == columns[j], (n, j)
        if method == "hier":
            assert clean_ancillas(circ)


@pytest.mark.parametrize("design,flow", DESIGN_FLOWS, ids=DESIGN_FLOW_IDS)
def test_mirror_is_the_compute_half(design, flow, tmp_path):
    """A hier circuit's cleanup half is its compute half in reverse, as
    built and as read back, so the mirror RevCircuit finds spans the
    compute half: all but the copy gates, halved.  A table flow's circuit
    has no mirror."""
    method, options, _ = FLOWS[flow]
    path = tmp_path / "c.real"
    if method != "hier":
        ns = range(4, 7)
    else:
        ns = range(4, 9) if design is Design.NEWTON else range(4, 13)
    for n in ns:
        source = flow_source(method, DesignSpec(design, n))
        circ = run_flow(method, source, **options)
        if method == "hier":
            # an output copies its node's line with a CNOT, and a NOT complements it
            copies = sum((edge >> 1 != 0) + (edge & 1) for edge in source.outputs)
            mirror = (len(circ.gates) - copies) // 2
            assert mirror > 0
        else:
            mirror = 0
        write_real(circ, path)
        for c in (circ, read_real(path)):
            assert c._mirror == mirror, (n, flow)



def _exact_pair(gate) -> bool:
    """A gate is exactly a tuple (int target, tuple of int controls)."""
    if type(gate) is not tuple or len(gate) != 2:
        return False
    target, controls = gate
    return type(target) is int and type(controls) is tuple and all(type(c) is int for c in controls)


@pytest.mark.parametrize("design,flow", DESIGN_FLOWS, ids=DESIGN_FLOW_IDS)
def test_gates_are_untracked_pairs(design, flow, tmp_path):
    """Every flow's gates, and read_real's, are exact (target, controls)
    pairs, which the cyclic collector stops tracking.

    A full collection untracks a tuple whose items are untracked when it
    reaches it: every controls tuple, a tuple of ints, at the first pass,
    and a pair at the first pass that reaches it after its controls.  Two
    passes untrack every pair.
    """
    method, options, _ = FLOWS[flow]
    path = tmp_path / "c.real"
    for n in range(4, 6):
        circ = run_flow(method, flow_source(method, DesignSpec(design, n)), **options)
        write_real(circ, path)
        back = read_real(path)
        assert back == circ
        gc.collect()
        gc.collect()
        for gates in (circ.gates, back.gates):
            assert all(map(_exact_pair, gates)), (n, flow)
            assert not any(map(gc.is_tracked, gates)), (n, flow)
