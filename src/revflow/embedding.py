"""Embedding irreversible functions into reversible permutations.

An embedding widens an n-input, m-output function to r lines by adding
constant inputs and garbage outputs until some permutation of r-bit words
agrees with the function on the designated output lines whenever the
constant lines hold their fixed values.  Source inputs always sit on the
low n lines and added constants (always 0 here) on the lines above them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .logicnet import TruthTable, _check_limit

__all__ = [
    "Permutation",
    "Embedding",
    "min_additional_lines",
    "bennett_embed",
    "optimum_embed",
    "verify_embedding",
]


@dataclass(frozen=True)
class Permutation:
    """Bijection on r-bit words, stored as the image list."""

    width: int
    images: tuple[int, ...]

    def __post_init__(self):
        size = 1 << self.width
        if len(self.images) != size:
            raise ValueError(f"expected {size} images, got {len(self.images)}")
        seen = bytearray(size)
        for y in self.images:
            if not 0 <= y < size or seen[y]:
                raise ValueError("images do not form a permutation")
            seen[y] = 1

    def apply(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(self.width, tuple(inv))


@dataclass(frozen=True)
class Embedding:
    """How source inputs, constants, outputs and garbage map onto r lines."""

    source_inputs: int
    source_outputs: int
    width: int
    constant_inputs: dict[int, int]  # line -> fixed input bit
    output_lines: dict[int, int]     # source output j -> line carrying it
    garbage_lines: tuple[int, ...]

    def __post_init__(self):
        if self.source_inputs + len(self.constant_inputs) != self.width:
            raise ValueError("constants must fill all lines beyond the source inputs")
        if len(self.output_lines) != self.source_outputs:
            raise ValueError("every source output needs a line")
        lines = sorted(self.output_lines.values())
        if len(set(lines)) != len(lines):
            raise ValueError("output lines collide")
        if set(self.garbage_lines) & set(self.output_lines.values()):
            raise ValueError("garbage overlaps output lines")
        if len(self.garbage_lines) + self.source_outputs != self.width:
            raise ValueError("output roles must cover every line exactly once")

    def domain_word(self, x: int) -> int:
        """Pack a source assignment with the constant inputs into an r-bit word."""
        w = x
        for line, bit in self.constant_inputs.items():
            w |= bit << line
        return w


def min_additional_lines(tt: TruthTable) -> int:
    """Lines that must be added so output patterns can be disambiguated.

    The largest preimage of any output value has to be told apart by the
    garbage bits alone, so its size dictates ceil(log2) extra lines.
    """
    worst = max(Counter(tt.rows).values())
    return (worst - 1).bit_length()


def bennett_embed(tt: TruthTable, limit: int | None = None) -> tuple[Permutation, Embedding]:
    """Width n+m embedding where line n+j returns its own value xor f_j(x).

    Always valid regardless of the function's collision structure; with the
    added lines held at 0 the outputs are exactly f(x) and the inputs pass
    through unchanged as garbage.  Raises TableLimitError before building
    the 2^r images when r exceeds ``limit`` (default DEFAULT_TT_LIMIT).
    """
    n, m = tt.num_inputs, tt.num_outputs
    r = n + m
    _check_limit(r, limit)
    images = []
    for w in range(1 << r):
        x = w & ((1 << n) - 1)
        images.append(w ^ (tt.rows[x] << n))
    emb = Embedding(
        source_inputs=n,
        source_outputs=m,
        width=r,
        constant_inputs={n + j: 0 for j in range(m)},
        output_lines={j: n + j for j in range(m)},
        garbage_lines=tuple(range(n)),
    )
    return Permutation(r, tuple(images)), emb


def optimum_embed(tt: TruthTable, limit: int | None = None) -> tuple[Permutation, Embedding]:
    """Minimum-width embedding: r = max(n, m + min_additional_lines).

    Outputs occupy the top m lines and garbage the rest.  Each output value's
    preimages receive garbage words counting up from 0 in input order, and the
    codomain words left unclaimed are matched to the domain words with nonzero
    constants in increasing order to complete the bijection.  Raises
    TableLimitError before building the 2^r images when r exceeds ``limit``
    (default DEFAULT_TT_LIMIT).
    """
    n, m = tt.num_inputs, tt.num_outputs
    r = max(n, m + min_additional_lines(tt))
    _check_limit(r, limit)
    g = r - m
    size = 1 << r
    images = [0] * size
    claimed = bytearray(size)
    next_garbage: dict[int, int] = {}
    for x in range(1 << n):
        y = tt.rows[x]
        k = next_garbage.get(y, 0)
        next_garbage[y] = k + 1
        word = (y << g) | k
        images[x] = word
        claimed[word] = 1
    free = (w for w in range(size) if not claimed[w])
    for w in range(1 << n, size):
        images[w] = next(free)
    emb = Embedding(
        source_inputs=n,
        source_outputs=m,
        width=r,
        constant_inputs={line: 0 for line in range(n, r)},
        output_lines={j: g + j for j in range(m)},
        garbage_lines=tuple(range(g)),
    )
    return Permutation(r, tuple(images)), emb


def verify_embedding(perm: Permutation, emb: Embedding, tt: TruthTable) -> bool:
    """Check that the permutation realizes the function under the embedding."""
    if perm.width != emb.width:
        raise ValueError("permutation and embedding widths differ")
    if emb.source_inputs != tt.num_inputs or emb.source_outputs != tt.num_outputs:
        raise ValueError("embedding shape does not match the table")
    for x in range(1 << tt.num_inputs):
        image = perm.images[emb.domain_word(x)]
        want = tt.rows[x]
        for j, line in emb.output_lines.items():
            if (image >> line) & 1 != (want >> j) & 1:
                return False
    return True
