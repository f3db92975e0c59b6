"""Reciprocal datapath designs.

The function of interest maps an n-bit integer x to the n low bits of
floor(2^n / x), i.e. the n most significant fractional bits of 1/x; x = 0
saturates to all ones.  Two combinational designs compute it: an unrolled
restoring divider (INTDIV) and a normalized Newton-Raphson iteration in
two's-complement fixed point (NEWTON).  Both are emitted as majority/xor
networks, and NEWTON also has a pure-software fixed-point model that serves
as the bit-exact oracle for its circuits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .logicnet import TruthTable, Xmg, lit_not

__all__ = [
    "oracle_reciprocal",
    "FixedPointValue",
    "fxp_add",
    "fxp_sub",
    "fxp_mul_trunc",
    "Design",
    "DesignSpec",
    "default_newton_iterations",
    "NewtonTrace",
    "newton_trace",
    "newton_reciprocal_model",
    "gen_intdiv_xmg",
    "gen_newton_xmg",
    "design_oracle",
    "design_truth_table",
    "design_xmg",
]


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
# every value lies in [-4, 4).  The fractional width w varies per value.

_INT_BITS = 3


def _wrap(raw: int, frac_bits: int) -> int:
    span = 1 << (frac_bits + _INT_BITS)
    raw &= span - 1
    return raw - span if raw >= span >> 1 else raw


@dataclass(frozen=True)
class FixedPointValue:
    """Signed fixed-point number: raw / 2^frac_bits, total width frac_bits + 3."""

    frac_bits: int
    raw: int

    def __post_init__(self):
        if self.frac_bits < 0:
            raise ValueError("negative fractional width")
        bound = 1 << (self.frac_bits + _INT_BITS - 1)
        if not -bound <= self.raw < bound:
            raise ValueError(f"raw {self.raw} outside [{-bound}, {bound})")

    @classmethod
    def from_ratio(cls, num: int, den: int, frac_bits: int) -> "FixedPointValue":
        """Quantize num/den to the nearest raw value, halves away from zero."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        scaled = num * (1 << frac_bits)
        if scaled >= 0:
            raw = (2 * scaled + den) // (2 * den)
        else:
            raw = -((-2 * scaled + den) // (2 * den))
        return cls(frac_bits, _wrap(raw, frac_bits))

    @property
    def value(self) -> Fraction:
        return Fraction(self.raw, 1 << self.frac_bits)


def _require_same_width(u: FixedPointValue, v: FixedPointValue) -> int:
    if u.frac_bits != v.frac_bits:
        raise ValueError("operands must share a fractional width")
    return u.frac_bits


def fxp_add(u: FixedPointValue, v: FixedPointValue) -> FixedPointValue:
    w = _require_same_width(u, v)
    return FixedPointValue(w, _wrap(u.raw + v.raw, w))


def fxp_sub(u: FixedPointValue, v: FixedPointValue) -> FixedPointValue:
    w = _require_same_width(u, v)
    return FixedPointValue(w, _wrap(u.raw - v.raw, w))


def fxp_mul_trunc(u: FixedPointValue, v: FixedPointValue, frac_bits: int) -> FixedPointValue:
    """Full product, then truncate to frac_bits fractional bits.

    The exact product has u.frac_bits + v.frac_bits fractional bits and six
    integer bits; the result drops the top three integer bits (wrap) and the
    excess fractional bits (floor toward minus infinity on the raw word).
    """
    total = u.frac_bits + v.frac_bits
    if frac_bits > total:
        raise ValueError("cannot gain fractional bits in truncation")
    product = u.raw * v.raw
    return FixedPointValue(frac_bits, _wrap(product >> (total - frac_bits), frac_bits))


# ---------------------------------------------------------------------------
# Design descriptions.


class Design(enum.Enum):
    INTDIV = "intdiv"
    NEWTON = "newton"


def default_newton_iterations(precision: int) -> int:
    """Iteration count giving precision+1 good bits, plus one guard iteration.

    The textbook count ceil(log2((P+1)/log2 17)) leaves the truncated iterate
    one raw ulp short of the fixpoint for some widths (the approach from below
    crawls by single ulps near convergence), which breaks the exact x = 1
    result.  One extra iteration always lands on the fixpoint.
    """
    return math.ceil(math.log2((precision + 1) / math.log2(17))) + 1


@dataclass(frozen=True)
class DesignSpec:
    """A reciprocal design instance: which datapath and its width.

    NEWTON carries a fractional width of precision = 2n bits through
    normalization and iteration; INTDIV ignores it.
    """

    design: Design
    bitwidth: int

    def __post_init__(self):
        if self.bitwidth < 2:
            raise ValueError("bitwidth must be at least 2")

    @property
    def precision(self) -> int:
        return 2 * self.bitwidth

    @property
    def iterations(self) -> int:
        return default_newton_iterations(self.precision)


# ---------------------------------------------------------------------------
# Software Newton model, the oracle for NEWTON circuits.


@dataclass(frozen=True)
class NewtonTrace:
    """Everything the fixed-point iteration produced for one input."""

    exponent: int
    normalized: FixedPointValue
    iterates: tuple[FixedPointValue, ...]
    output: int


def newton_trace(spec: DesignSpec, x: int) -> NewtonTrace:
    """Run the fixed-point reciprocal procedure for one input.

    Steps: normalize x to x' in [1/2, 1) at P fractional bits; form the
    classic linear seed 48/17 - 32/17 * x'; iterate
    x_i = x_{i-1} + x_{i-1} * (1 - x' * x_{i-1}) with every product truncated
    to P fractional bits; shift back by the normalization exponent and keep
    the n most significant fractional bits.
    """
    n = spec.bitwidth
    if not 0 <= x < 1 << n:
        raise ValueError(f"input {x} out of range for {n} bits")
    p = spec.precision
    if x == 0:
        # handled by a bypass in hardware; the iteration has no valid seed
        return NewtonTrace(0, FixedPointValue(p, 0), (), (1 << n) - 1)
    e = x.bit_length()
    xp = FixedPointValue(p, x << (p - e))
    c48 = FixedPointValue.from_ratio(48, 17, p)
    c32 = FixedPointValue.from_ratio(32, 17, p)
    one = FixedPointValue(p, 1 << p)
    xi = fxp_sub(c48, fxp_mul_trunc(c32, xp, p))
    iterates = [xi]
    for _ in range(spec.iterations):
        t = fxp_mul_trunc(xp, xi, p)
        d = fxp_sub(one, t)
        xi = fxp_add(xi, fxp_mul_trunc(xi, d, p))
        iterates.append(xi)
    shifted = xi.raw >> e
    output = (shifted >> (p - n)) & ((1 << n) - 1)
    return NewtonTrace(e, xp, tuple(iterates), output)


def newton_reciprocal_model(spec: DesignSpec, x: int) -> int:
    return newton_trace(spec, x).output


# ---------------------------------------------------------------------------
# Bit-vector construction helpers.  A word is a list of literals, LSB first.


def _bv_const(net: Xmg, raw: int, width: int) -> list[int]:
    raw &= (1 << width) - 1
    return [net.const1 if raw >> i & 1 else net.const0 for i in range(width)]


def _bv_add(net: Xmg, a: list[int], b: list[int], carry: int | None = None) -> list[int]:
    if len(a) != len(b):
        raise ValueError("width mismatch")
    c = net.const0 if carry is None else carry
    out = []
    for ai, bi in zip(a, b):
        axb = net.add_xor(ai, bi)
        out.append(net.add_xor(axb, c))
        c = net.add_maj(ai, bi, c)
    return out


def _bv_sub(net: Xmg, a: list[int], b: list[int]) -> list[int]:
    return _bv_add(net, a, [lit_not(x) for x in b], net.const1)


def _bv_mul_lowbits(net: Xmg, a: list[int], b: list[int], width: int) -> list[int]:
    """Low `width` bits of a*b; operands must already be width literals long."""
    acc = [net.const0] * width
    for j in range(width):
        if b[j] == net.const0:
            continue
        row = [net.add_and(a[i], b[j]) for i in range(width - j)]
        acc[j:] = _bv_add(net, acc[j:], row)
    return acc


def _bv_mul_trunc(net: Xmg, a: list[int], b: list[int],
                  frac_a: int, frac_b: int, frac_out: int, width_out: int) -> list[int]:
    """Fixed-point product bits [drop, drop+width_out) where drop is the count
    of fractional bits truncated away.  Works entirely modulo 2^(drop+width_out),
    which matches wrap-then-floor semantics exactly."""
    drop = frac_a + frac_b - frac_out
    total = drop + width_out
    ax = a + [a[-1]] * (total - len(a))  # sign extension is just the MSB literal
    bx = b + [b[-1]] * (total - len(b))
    product = _bv_mul_lowbits(net, ax, bx, total)
    return product[drop:]


def _one_hot_msb(net: Xmg, xs: list[int]) -> list[int]:
    """h[k] = 1 iff bit k is the most significant set bit of the input word."""
    n = len(xs)
    hs = [net.const0] * n
    none_above = net.const1
    for k in range(n - 1, -1, -1):
        hs[k] = net.add_and(xs[k], none_above)
        none_above = net.add_and(none_above, lit_not(xs[k]))
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
    divisor = xs + [net.const0]
    rem = [net.const0] * width
    qbits: dict[int, int] = {}
    for k in range(n, -1, -1):
        shifted = [net.const1 if k == n else net.const0] + rem[:-1]
        borrow = net.const0
        sel = []
        for i in range(width):
            sel.append(net.add_xor(divisor[i], borrow))
            borrow = net.add_maj(lit_not(shifted[i]), divisor[i], borrow)
        q = lit_not(borrow)  # no borrow out means shifted >= divisor
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
    xp = [net.const0] * w
    for i in range(p - n, p):
        terms = []
        for k in range(n):
            src = i - p + k + 1  # bit of x that lands at position i
            if 0 <= src < n:
                terms.append(net.add_and(hs[k], xs[src]))
        acc = net.const0
        for t in terms:
            acc = net.add_or(acc, t)
        xp[i] = acc

    c48 = _bv_const(net, FixedPointValue.from_ratio(48, 17, p).raw, w)
    c32 = _bv_const(net, FixedPointValue.from_ratio(32, 17, p).raw, w)
    one = _bv_const(net, 1 << p, w)

    seed_t = _bv_mul_trunc(net, c32, xp, p, p, p, w)
    xi = _bv_sub(net, c48, seed_t)
    for _ in range(spec.iterations):
        t = _bv_mul_trunc(net, xp, xi, p, p, p, w)
        d = _bv_sub(net, one, t)
        u = _bv_mul_trunc(net, xi, d, p, p, p, w)
        xi = _bv_add(net, xi, u)

    # y' = x_I >> e through the same one-hot; arithmetic shift pads with sign
    ybits = []
    for j in range(n):
        i = p - n + j  # fractional bit of y' that becomes output j
        acc = net.const0
        for k in range(n):
            src = i + k + 1
            bit = xi[src] if src < w else xi[w - 1]
            acc = net.add_or(acc, net.add_and(hs[k], bit))
        ybits.append(acc)

    any_input = net.const0
    for x in xs:
        any_input = net.add_or(any_input, x)
    is_zero = lit_not(any_input)
    for j in range(n):
        net.add_output(net.add_or(ybits[j], is_zero))
    return net


# ---------------------------------------------------------------------------
# Dispatch helpers used by the pipeline.


def design_oracle(spec: DesignSpec):
    """Reference input-to-output map for a design, as a callable."""
    if spec.design is Design.INTDIV:
        return lambda x: oracle_reciprocal(spec.bitwidth, x)
    return lambda x: newton_reciprocal_model(spec, x)


def design_truth_table(spec: DesignSpec, limit: int | None = None) -> TruthTable:
    return TruthTable.from_function(spec.bitwidth, spec.bitwidth, design_oracle(spec), limit)


def design_xmg(spec: DesignSpec) -> Xmg:
    if spec.design is Design.INTDIV:
        return gen_intdiv_xmg(spec)
    return gen_newton_xmg(spec)
