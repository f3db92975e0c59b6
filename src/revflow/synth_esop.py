"""ESOP-based structural synthesis.

Every cube becomes one mixed-polarity Toffoli per output it feeds: controls
are the cube's literals, the target is that output's line.  Inputs sit on
the low n lines and are never written, so the result is the out-of-place
form out_j = 0 xor f_j(x) on n + m lines.
"""

from __future__ import annotations

from .logicnet import Cube, EsopForm
from .revcirc import MctGate, RevCircuit

__all__ = ["esop_synth"]


def _cube_controls(cube: Cube) -> tuple[frozenset, frozenset]:
    pos, neg = set(), set()
    for line, positive in cube.literals.items():
        (pos if positive else neg).add(line)
    return frozenset(pos), frozenset(neg)


def _out_bits(mask: int):
    j = 0
    while mask:
        if mask & 1:
            yield j
        mask >>= 1
        j += 1


def esop_synth(esop: EsopForm) -> RevCircuit:
    """Cascade with one Toffoli per (cube, output) pair, cubes in form order."""
    n, m = esop.num_inputs, esop.num_outputs
    gates = []
    for cube in esop.cubes:
        pos, neg = _cube_controls(cube)
        for j in _out_bits(cube.output_mask):
            gates.append(MctGate(n + j, pos, neg))
    return RevCircuit(
        width=n + m,
        gates=tuple(gates),
        line_names=tuple(f"x{i}" for i in range(n)) + tuple(f"y{j}" for j in range(m)),
        constants=(None,) * n + (0,) * m,
        outputs=(None,) * n + tuple(range(m)),
    )
