"""Truth-table driven synthesis of permutations into Toffoli cascades.

Rows are fixed in ascending order.  For each input word i whose current
image y differs from i, gates are appended output-side: first gates that set
the bits present in i but missing from y (controls on the ones of the
evolving y), then gates that clear the bits present in y but not in i
(controls on the ones of i).  Earlier rows stay fixed because their images
are smaller than i and can never satisfy those control sets.  The circuit
that computes the original permutation is the reversal of the emitted list.

The kernel keeps one bit-plane per line over the rows.  A gate's fire, the
AND of its control planes, is computed once and reused: the set step ANDs
its controls for the first gate, and each later set gate, whose controls
grow by the bit just set, costs one AND with that bit's plane; the clear
step's gates all share the controls i and none targets one, so the step
costs one AND of its controls.  Once row i is 64 or more rows past the
base, the settled rows below i's block, on which no later gate fires, are
shifted out of the planes, so reading row i's image is a test of one low
bit per plane.

A row that is already its own image emits no gate, and once its first
rows are settled almost every row of a bennett embedding is one.  At such a
row the kernel ORs over the lines the XOR of each plane with that line's
index pattern shifted down by the base: the set bits are the rows left that
are not their own image.  The scan jumps to the first one after row i, or
stops if there is none.  The jump is exact: the rows it passes emit no gate,
so they change no plane, and the gate list is the one a row-by-row scan
emits.
"""

from .embedding import Embedding, Permutation
from .logicnet import _input_pattern, _transpose
from .revcirc import RevCircuit


def _controls_of(literals: list, mask: int) -> tuple[int, ...]:
    """literals[mask]: the positive literals of mask's set bits, ascending,
    built as those of mask without its top bit plus the top bit's."""
    lits = literals[mask]
    if lits is None:
        top = mask.bit_length() - 1
        lits = literals[mask] = _controls_of(literals, mask ^ 1 << top) + (top << 1,)
    return lits


def tbs(perm: Permutation, embedding: Embedding | None = None) -> RevCircuit:
    """Synthesize an exact circuit for the permutation.

    The result takes the embedding's line layout: inputs x0.. on the low
    lines, constants c<line> above them, outputs on the top m lines.  A
    bare permutation is its own embedding, n = m = r: every line x<i> is an
    input and an output.
    """
    r = perm.width
    # bit k of planes[b] is bit b of row base + k's image
    planes = _transpose(perm.images, r)
    full = (1 << (1 << r)) - 1
    base = 0
    # bit x of patterns[b] is bit b of x, over every row
    patterns = [_input_pattern(b, r) for b in range(r)]
    # literals[mask], once built (see _controls_of); 2^r entries, as many as rows
    literals: list = [()] + [None] * ((1 << r) - 1)
    emitted: list = []

    def fire_of(lits: tuple[int, ...]) -> int:
        fire = full
        for c in lits:
            fire &= planes[c >> 1]
        return fire

    i = 0
    while i < 1 << r:
        if i - base >= 64:
            shift = (i - base) & ~63
            planes = [p >> shift for p in planes]
            full >>= shift
            base += shift
        row = 1 << (i - base)
        y = 0
        for b in range(r):
            if planes[b] & row:
                y |= 1 << b
        if y == i:
            # bit k: row i + 1 + k is not its own image, over every row left
            moved = 0
            for plane, pattern in zip(planes, patterns):
                moved |= plane ^ pattern >> base
            moved >>= i - base + 1
            if not moved:
                break
            i += (moved & -moved).bit_length()
            continue
        up = i & ~y
        if up:
            fire = fire_of(_controls_of(literals, y))
            while up:
                low = up & -up
                up ^= low
                b = low.bit_length() - 1
                emitted.append((b, _controls_of(literals, y)))
                planes[b] ^= fire
                fire &= planes[b]
                y |= low
        down = y & ~i
        if down:
            controls = _controls_of(literals, i)
            fire = fire_of(controls)
            while down:
                low = down & -down
                down ^= low
                b = low.bit_length() - 1
                emitted.append((b, controls))
                planes[b] ^= fire
        i += 1

    n, m = (r, r) if embedding is None else (embedding.source_inputs, embedding.source_outputs)
    names = [f"x{i}" for i in range(n)] + [f"c{line}" for line in range(n, r)]
    return RevCircuit.layout(r, reversed(emitted), names, n, m, r - m)
