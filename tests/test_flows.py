"""Cross-flow differential test: every flow, driven through run_flow, matches the oracle."""

import pytest

from conftest import DESIGN_FLOW_IDS, DESIGN_FLOWS, FLOWS, clean_ancillas
from revflow.arith import DesignSpec, design_truth_table, design_xmg
from revflow.cli import run_flow
from revflow.revcirc import simulate_source_batch


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

