"""Embedding irreversible functions into reversible permutations.

An embedding widens an n-input, m-output function to r lines by adding
constant inputs and garbage outputs until some permutation of r-bit words
agrees with the function on the output lines whenever the constant lines
hold 0.  Both embeddings here use one layout: source inputs on lines
0..n-1, a constant 0 on every line above them, and output j on line
r - m + j (the top m lines); every other line ends as garbage.  So an
embedding word is just the input assignment x, and its image carries f(x)
in its top m bits.
"""

from collections import Counter

from .logicnet import TruthTable, _Record, _check_limit


class Permutation(_Record):
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


class Embedding(_Record):
    """Shape of an embedding: n source inputs and m outputs on r lines.

    The line roles follow from the shape (see the module docstring).
    """

    source_inputs: int
    source_outputs: int
    width: int


def min_additional_lines(tt: TruthTable) -> int:
    """Lines that must be added so output patterns can be disambiguated.

    The largest preimage of any output value has to be told apart by the
    garbage bits alone, so its size dictates ceil(log2) extra lines.
    """
    worst = max(Counter(tt.rows).values())
    return (worst - 1).bit_length()


def optimum_width(tt: TruthTable) -> int:
    """The width of ``optimum_embed``'s embedding: max(n, m + min_additional_lines)."""
    return max(tt.num_inputs, tt.num_outputs + min_additional_lines(tt))


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
    return Permutation(r, tuple(images)), Embedding(n, m, r)


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
    r = optimum_width(tt)
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
    return Permutation(r, tuple(images)), Embedding(n, m, r)
