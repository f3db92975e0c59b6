"""Truth-table driven synthesis of permutations into Toffoli cascades.

Rows are fixed in ascending order.  For each input word i whose current
image y differs from i, gates are appended output-side: first gates that set
the bits present in i but missing from y (controls on the ones of the
evolving y), then gates that clear the bits present in y but not in i
(controls on the ones of i).  Earlier rows stay fixed because their images
are smaller than i and can never satisfy those control sets.  The circuit
that computes the original permutation is the reversal of the emitted list.
"""

from __future__ import annotations

from .embedding import Embedding, Permutation
from .logicnet import _bits, _transpose
from .revcirc import MctGate, RevCircuit

__all__ = ["tbs"]


def tbs(perm: Permutation, embedding: Embedding | None = None) -> RevCircuit:
    """Synthesize an exact circuit for the permutation.

    When an embedding is given the result takes its line layout: inputs
    x0.. on the low lines, constants c<line> above them, outputs on the top
    m lines.  Without one every line is an input and an output.
    """
    r = perm.width
    size = 1 << r
    full = (1 << size) - 1
    planes = _transpose(perm.images, r)

    emitted: list[MctGate] = []

    def emit(ctrl_mask: int, target: int) -> None:
        gate = MctGate(target, tuple(c << 1 for c in _bits(ctrl_mask)))
        emitted.append(gate)
        fire = full
        for c in gate.controls:
            fire &= planes[c >> 1]
        planes[target] ^= fire

    def image_at(x: int) -> int:
        return sum(((planes[b] >> x) & 1) << b for b in range(r))

    for i in range(size):
        y = image_at(i)
        for b in _bits(i & ~y):
            emit(y, b)
            y |= 1 << b
        for b in _bits(y & ~i):
            emit(i, b)

    if embedding is None:
        return RevCircuit.generic(r, reversed(emitted))
    n, m = embedding.source_inputs, embedding.source_outputs
    names = [f"x{i}" for i in range(n)] + [f"c{line}" for line in range(n, r)]
    return RevCircuit.layout(r, reversed(emitted), names, n, m, r - m)
