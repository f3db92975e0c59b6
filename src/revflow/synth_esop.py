"""ESOP-based structural synthesis.

Every cube becomes one mixed-polarity Toffoli per output it feeds: controls
are the cube's literals, the target is that output's line.  Inputs sit on
the low n lines and are never written, so the result is the out-of-place
form out_j = 0 xor f_j(x) on n + m lines.
"""

from itertools import chain, repeat

from .logicnet import EsopForm
from .revcirc import RevCircuit


def _nibble_tables(width: int) -> list[list[tuple[int, ...]]]:
    """tables[k][key]: the literal of input 4k + i for each set bit i of
    key & 15, ascending, positive iff bit 4 + i of key is set.

    Looking up nibble k of a cube's mask, with nibble k of its polarity
    shifted above it, in tables[k], for every k, and joining the tuples in
    order gives the cube's controls: a few lookups instead of a step per bit.
    """
    return [
        [tuple(base + i << 1 | (key >> 4 + i & 1 ^ 1) for i in range(4) if key >> i & 1)
         for key in range(256)]
        for base in range(0, width, 4)
    ]


def esop_synth(esop: EsopForm) -> RevCircuit:
    """Cascade with one Toffoli per (cube, output) pair, cubes in form order.

    Each cube's controls tuple is built once and shared by its gates, so
    ``RevCircuit`` checks it once per cube; the gates stream into its tuple.
    """
    n, m = esop.num_inputs, esop.num_outputs
    literals = _nibble_tables(n)
    # targets_of[k][key]: the line of output 4k + i for each set bit i of key
    targets_of = [[tuple(n + j + i for i in range(4) if key >> i & 1) for key in range(16)]
                  for j in range(0, m, 4)]

    def cube_gates(cube):
        mask, polarity, out = cube
        controls = ()
        for table in literals:
            controls += table[mask & 15 | (polarity & 15) << 4]
            mask >>= 4
            polarity >>= 4
        targets = ()
        for table in targets_of:
            targets += table[out & 15]
            out >>= 4
        return zip(targets, repeat(controls))

    names = [f"x{i}" for i in range(n)] + [f"y{j}" for j in range(m)]
    return RevCircuit.layout(n + m, chain.from_iterable(map(cube_gates, esop.cubes)), names, n, m, n)
