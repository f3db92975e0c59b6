"""Reciprocal datapath designs.

The function of interest maps an n-bit integer x to the n low bits of
floor(2^n / x), i.e. the n most significant fractional bits of 1/x; x = 0
saturates to all ones.  Two combinational designs compute it: an unrolled
restoring divider (INTDIV) and a normalized Newton-Raphson iteration in
two's-complement fixed point (NEWTON).  Both are emitted as majority/xor
networks.  ``newton_trace`` is NEWTON's software model, the bit-exact
reference for its datapath; it works on raw integer words, all at the one
fractional width ``DesignSpec.precision``, as the circuit does.  Its output
equals ``oracle_reciprocal`` at every x, so the exact oracle is every
design's truth table.
"""

import enum
import math

from .logicnet import MAX_NET_WIDTH, TruthTable, Xmg, _Record, _check_limit


def oracle_reciprocal(n: int, x: int) -> int:
    """n low bits of floor(2^n / x); x = 0 saturates to 2^n - 1.

    Exact for any n via integer division.  Note x = 1 wraps: the true value
    1.0 is not representable in n fractional bits, so the result is 0.
    """
    if n < 1:
        raise ValueError("bitwidth must be at least 1")
    if not 0 <= x < 1 << n:
        raise ValueError(f"input {x} out of range for {n} bits")
    if x == 0:
        return (1 << n) - 1
    return ((1 << n) // x) & ((1 << n) - 1)


# ---------------------------------------------------------------------------
# Two's-complement fixed point with 3 integer bits (one of them the sign), so
# every value lies in [-4, 4).  A raw word w at f fractional bits stands for
# w / 2^f.

_INT_BITS = 3


def _wrap(raw: int, frac_bits: int) -> int:
    """raw reduced to the signed range of frac_bits + 3 bits, as hardware wraps."""
    span = 1 << (frac_bits + _INT_BITS)
    raw &= span - 1
    return raw - span if raw >= span >> 1 else raw


def _seed_words(frac_bits: int) -> tuple[int, int]:
    """Raw words of 48/17 and 32/17 at frac_bits, each rounded to the nearest.

    Both constants are positive and below 4, and a denominator of 17 leaves
    no ties, so no wrap or tie rule is needed.
    """
    return ((96 << frac_bits) + 17) // 34, ((64 << frac_bits) + 17) // 34


# ---------------------------------------------------------------------------
# Design descriptions.


class Design(enum.Enum):
    INTDIV = "intdiv"
    NEWTON = "newton"


class DesignSpec(_Record):
    """A reciprocal design instance: which datapath and its width.

    NEWTON carries a fractional width of precision = 2n bits through
    normalization and iteration; INTDIV ignores it.
    """

    design: Design
    bitwidth: int

    def __post_init__(self):
        if self.bitwidth < 2:
            raise ValueError("bitwidth must be at least 2")
        if self.bitwidth > MAX_NET_WIDTH:
            raise ValueError(f"bitwidth {self.bitwidth} exceeds the network width cap of {MAX_NET_WIDTH}")

    @property
    def precision(self) -> int:
        return 2 * self.bitwidth

    @property
    def iterations(self) -> int:
        """Newton steps giving precision+1 good bits, plus one guard step.

        The textbook count ceil(log2((P+1)/log2 17)) leaves the truncated
        iterate one raw ulp short of the fixpoint for some widths (the
        approach from below crawls by single ulps near convergence), which
        breaks the exact x = 1 result.  One extra step always lands on the
        fixpoint.
        """
        return math.ceil(math.log2((self.precision + 1) / math.log2(17))) + 1


# ---------------------------------------------------------------------------
# Software Newton model, the reference for the NEWTON datapath.


class NewtonTrace(_Record):
    """Everything the fixed-point iteration produced for one input.

    ``normalized`` and each of ``iterates`` are raw words at
    ``DesignSpec.precision`` fractional bits.
    """

    exponent: int
    normalized: int
    iterates: tuple[int, ...]
    output: int


def newton_trace(spec: DesignSpec, x: int) -> NewtonTrace:
    """Run the fixed-point reciprocal procedure for one input.

    Steps: normalize x to x' in [1/2, 1) at P fractional bits; form the
    classic linear seed 48/17 - 32/17 * x'; iterate
    x_i = x_{i-1} + x_{i-1} * (1 - x' * x_{i-1}) with every product truncated
    to P fractional bits (floor of the raw product) and every word wrapped to
    P + 3 bits; shift back by the normalization exponent and keep the n most
    significant fractional bits.  Every word is a raw integer at P
    fractional bits.
    """
    n = spec.bitwidth
    if not 0 <= x < 1 << n:
        raise ValueError(f"input {x} out of range for {n} bits")
    p = spec.precision
    if x == 0:
        # handled by a bypass in hardware; the iteration has no valid seed
        return NewtonTrace(0, 0, (), (1 << n) - 1)
    e = x.bit_length()
    xp = x << (p - e)
    c48, c32 = _seed_words(p)
    one = 1 << p
    # a sum or difference wraps at the end alone; a product's operands are wrapped
    xi = _wrap(c48 - (c32 * xp >> p), p)
    iterates = [xi]
    for _ in range(spec.iterations):
        d = _wrap(one - (xp * xi >> p), p)
        xi = _wrap(xi + (xi * d >> p), p)
        iterates.append(xi)
    output = (xi >> e >> (p - n)) & ((1 << n) - 1)
    return NewtonTrace(e, xp, tuple(iterates), output)


# ---------------------------------------------------------------------------
# Bit-vector construction helpers.  A word is a list of literals, LSB first.


def _bv_const(raw: int, width: int) -> list[int]:
    return [raw >> i & 1 for i in range(width)]


def _bv_add(net: Xmg, a: list[int], b: list[int], carry: int = 0) -> list[int]:
    if len(a) != len(b):
        raise ValueError("width mismatch")
    out = []
    for ai, bi in zip(a, b):
        axb = net.add_xor(ai, bi)
        out.append(net.add_xor(axb, carry))
        carry = net.add_maj(ai, bi, carry)
    return out


def _bv_sub(net: Xmg, a: list[int], b: list[int]) -> list[int]:
    return _bv_add(net, a, [x ^ 1 for x in b], 1)


def _bv_mul_lowbits(net: Xmg, a: list[int], b: list[int], width: int) -> list[int]:
    """Low `width` bits of a*b; operands must already be width literals long."""
    acc = [0] * width
    for j in range(width):
        if b[j] == 0:
            continue
        row = [net.add_and(a[i], b[j]) for i in range(width - j)]
        acc[j:] = _bv_add(net, acc[j:], row)
    return acc


def _bv_mul_trunc(net: Xmg, a: list[int], b: list[int], frac_bits: int) -> list[int]:
    """Product of two equal-width words at frac_bits fractional bits, truncated
    back to frac_bits: bits [frac_bits, frac_bits + width) of the full product.
    Works entirely modulo 2^(frac_bits + width), which matches wrap-then-floor
    semantics exactly."""
    ax = a + [a[-1]] * frac_bits  # sign extension is just the MSB literal
    bx = b + [b[-1]] * frac_bits
    return _bv_mul_lowbits(net, ax, bx, len(ax))[frac_bits:]


def _one_hot_msb(net: Xmg, xs: list[int]) -> list[int]:
    """h[k] = 1 iff bit k is the most significant set bit of the input word."""
    n = len(xs)
    hs = [0] * n
    none_above = 1
    for k in range(n - 1, -1, -1):
        hs[k] = net.add_and(xs[k], none_above)
        none_above = net.add_and(none_above, xs[k] ^ 1)
    return hs


def gen_intdiv_xmg(spec: DesignSpec) -> Xmg:
    """Unrolled restoring divider computing the reciprocal table.

    Divides 2^n by x over n+1 steps of shift, compare-subtract, select; the
    borrow ripple uses majority nodes and the difference bits xor nodes.  The
    top quotient bit is dropped, which makes x = 1 wrap to 0 and x = 0
    saturate to all ones (a zero divisor never borrows).
    """
    n = spec.bitwidth
    net = Xmg()
    xs = [net.add_input() for _ in range(n)]
    width = n + 1
    divisor = xs + [0]
    rem = [0] * width
    qbits: dict[int, int] = {}
    for k in range(n, -1, -1):
        shifted = [1 if k == n else 0] + rem[:-1]
        borrow = 0
        sel = []
        for i in range(width):
            sel.append(net.add_xor(divisor[i], borrow))
            borrow = net.add_maj(shifted[i] ^ 1, divisor[i], borrow)
        q = borrow ^ 1  # no borrow out means shifted >= divisor
        qbits[k] = q
        # rem = q ? diff : shifted, via shifted XOR (q AND (diff XOR shifted))
        rem = [net.add_xor(shifted[i], net.add_and(q, sel[i])) for i in range(width)]
    for j in range(n):
        net.add_output(qbits[j])
    return net


def gen_newton_xmg(spec: DesignSpec) -> Xmg:
    """Newton-Raphson reciprocal datapath, bit-exact against newton_trace.

    Normalization finds the most significant set bit with a one-hot priority
    chain and left-aligns x through an and/or matrix; the same one-hot drives
    the final right shift, so both variable shifts are plain multiplexer
    fabric.  All arithmetic runs in two's complement at P fractional bits.
    A zero input bypasses the datapath and forces the all-ones output.
    """
    n = spec.bitwidth
    p = spec.precision
    w = p + _INT_BITS
    net = Xmg()
    xs = [net.add_input() for _ in range(n)]
    hs = _one_hot_msb(net, xs)

    # x' = x << (P - e) with e = k + 1 when h[k] fires; fractional bits only
    xp = [0] * w
    for i in range(p - n, p):
        terms = []
        for k in range(n):
            src = i - p + k + 1  # bit of x that lands at position i
            if 0 <= src < n:
                terms.append(net.add_and(hs[k], xs[src]))
        acc = 0
        for t in terms:
            acc = net.add_or(acc, t)
        xp[i] = acc

    c48, c32 = (_bv_const(raw, w) for raw in _seed_words(p))
    one = _bv_const(1 << p, w)

    seed_t = _bv_mul_trunc(net, c32, xp, p)
    xi = _bv_sub(net, c48, seed_t)
    for _ in range(spec.iterations):
        t = _bv_mul_trunc(net, xp, xi, p)
        d = _bv_sub(net, one, t)
        u = _bv_mul_trunc(net, xi, d, p)
        xi = _bv_add(net, xi, u)

    # y' = x_I >> e through the same one-hot; arithmetic shift pads with sign
    ybits = []
    for j in range(n):
        i = p - n + j  # fractional bit of y' that becomes output j
        acc = 0
        for k in range(n):
            src = i + k + 1
            bit = xi[src] if src < w else xi[w - 1]
            acc = net.add_or(acc, net.add_and(hs[k], bit))
        ybits.append(acc)

    any_input = 0
    for x in xs:
        any_input = net.add_or(any_input, x)
    is_zero = any_input ^ 1
    for j in range(n):
        net.add_output(net.add_or(ybits[j], is_zero))
    return net


# ---------------------------------------------------------------------------
# Dispatch helpers used by the pipeline.


def design_truth_table(spec: DesignSpec, limit: int | None = None) -> TruthTable:
    """The design's input-to-output table, from the exact oracle.

    Both designs compute the reciprocal exactly (NEWTON's model matches the
    oracle at every x), so one table serves both.
    """
    n = spec.bitwidth
    _check_limit(n, limit)
    return TruthTable(n, n, tuple(oracle_reciprocal(n, x) for x in range(1 << n)))


def design_xmg(spec: DesignSpec) -> Xmg:
    if spec.design is Design.INTDIV:
        return gen_intdiv_xmg(spec)
    return gen_newton_xmg(spec)
