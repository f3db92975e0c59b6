"""ESOP-based structural synthesis.

Every cube becomes one mixed-polarity Toffoli per output it feeds: controls
are the cube's literals, the target is that output's line.  Inputs sit on
the low n lines and are never written, so the result is the out-of-place
form out_j = 0 xor f_j(x) on n + m lines.
"""

from __future__ import annotations

from .logicnet import EsopForm, _bits
from .revcirc import MctGate, RevCircuit


def esop_synth(esop: EsopForm) -> RevCircuit:
    """Cascade with one Toffoli per (cube, output) pair, cubes in form order."""
    n, m = esop.num_inputs, esop.num_outputs
    gates = []
    for cube in esop.cubes:
        neg = ~cube.polarity
        controls = tuple(i << 1 | (neg >> i & 1) for i in _bits(cube.mask))
        for j in _bits(cube.output_mask):
            gates.append(MctGate(n + j, controls))
    names = [f"x{i}" for i in range(n)] + [f"y{j}" for j in range(m)]
    return RevCircuit.layout(n + m, gates, names, n, m, n)
