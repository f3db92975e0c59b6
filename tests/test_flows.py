"""Cross-flow differential test: every flow, driven through run_flow, matches the oracle."""

import gc

import pytest

from conftest import DESIGN_FLOW_IDS, DESIGN_FLOWS, FLOWS, clean_ancillas
from revflow.arith import DesignSpec, design_truth_table, design_xmg
from revflow.cli import run_flow
from revflow.revcirc import read_real, simulate_source_batch, write_real


@pytest.mark.parametrize("design,flow", DESIGN_FLOWS, ids=DESIGN_FLOW_IDS)
def test_flows_match_oracle(design, flow):
    method, options, _ = FLOWS[flow]
    for n in range(4, 7):
        spec = DesignSpec(design, n)
        table = design_truth_table(spec)
        source = design_xmg(spec) if method == "hier" else table
        circ = run_flow(method, source, **options)
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
        spec = DesignSpec(design, n)
        circ = run_flow(method, design_xmg(spec) if method == "hier" else design_truth_table(spec), **options)
        write_real(circ, path)
        back = read_real(path)
        assert back == circ
        gc.collect()
        gc.collect()
        for gates in (circ.gates, back.gates):
            assert all(map(_exact_pair, gates)), (n, flow)
            assert not any(map(gc.is_tracked, gates)), (n, flow)
