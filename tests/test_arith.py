"""Oracle, fixed-point helpers, Newton model, and the two design generators."""

import math
from fractions import Fraction

import pytest

from revflow.arith import (
    Design,
    DesignSpec,
    _seed_words,
    _wrap,
    design_truth_table,
    gen_intdiv_xmg,
    gen_newton_xmg,
    newton_trace,
    oracle_reciprocal,
)
from revflow.logicnet import MAX_NET_WIDTH


def test_oracle_values():
    assert oracle_reciprocal(8, 22) == 11
    assert oracle_reciprocal(4, 1) == 0          # 2^n / 1 wraps to 0
    assert oracle_reciprocal(4, 0) == 15         # saturates all ones
    assert oracle_reciprocal(4, 2) == 8
    assert oracle_reciprocal(6, 3) == 21
    # general: floor(2^n / x) for x > 1
    for n in (3, 5, 8):
        for x in range(2, 1 << n):
            assert oracle_reciprocal(n, x) == (1 << n) // x


def test_oracle_value_scale():
    # 11/256 is the value the 8-bit word encodes
    assert Fraction(oracle_reciprocal(8, 22), 256) == Fraction(11, 256)
    assert float(Fraction(11, 256)) == 0.04296875


def test_fixed_point_wraps_like_hardware():
    # Q3.2: values live in [-4, 4); 3 + 3 wraps to -2, -4 - 1 to 3
    assert _wrap(12 + 12, 2) == -8
    assert _wrap(-16 - 4, 2) == 12
    assert [_wrap(v, 0) for v in range(-4, 4)] == list(range(-4, 4))


def test_fixed_point_rounding_nearest():
    # the seed words are 48/17 and 32/17 rounded to the nearest raw word
    for p in range(1, 40):
        for raw, value in zip(_seed_words(p), (Fraction(48, 17), Fraction(32, 17))):
            assert abs(Fraction(raw, 1 << p) - value) < Fraction(1, 2 << p), p
    assert _seed_words(4) == (45, 30)   # 45.18 -> 45, 30.12 -> 30
    assert _seed_words(5) == (90, 60)   # 90.35 -> 90, 60.24 -> 60
    assert _seed_words(3) == (23, 15)   # 22.59 -> 23, 15.06 -> 15


def _fraction_trace(spec, x):
    """The Newton iterates as Fractions: every product floored to P
    fractional bits, every value wrapped into [-4, 4)."""
    p = spec.precision
    ulp = Fraction(1, 1 << p)

    def wrap(v):
        return (v + 4) % 8 - 4

    def mul(u, v):
        return wrap(math.floor(u * v / ulp) * ulp)

    xp = Fraction(x, 1 << x.bit_length())
    c48, c32 = (Fraction(raw, 1 << p) for raw in _seed_words(p))
    xi = wrap(c48 - mul(c32, xp))
    iterates = [xi]
    for _ in range(spec.iterations):
        xi = wrap(xi + mul(xi, wrap(1 - mul(xp, xi))))
        iterates.append(xi)
    return iterates


def test_mul_trunc_floors_toward_minus_infinity():
    # raw-word products floor toward minus infinity, as the Fraction model does
    for n in (3, 6):
        spec = DesignSpec(Design.NEWTON, n)
        for x in range(1, 1 << n):
            words = newton_trace(spec, x).iterates
            assert [Fraction(w, 1 << spec.precision) for w in words] == _fraction_trace(spec, x), x


def test_iteration_count_grows_with_precision():
    counts = [DesignSpec(Design.NEWTON, n).iterations for n in (2, 4, 8, 16)]
    assert counts == sorted(counts)
    assert all(c >= 2 for c in counts)


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(Design.INTDIV, 1)
    spec = DesignSpec(Design.NEWTON, 4)
    assert spec.precision == 8
    # the network width cap bounds every design, whatever the table limit
    for design in Design:
        assert DesignSpec(design, MAX_NET_WIDTH).bitwidth == MAX_NET_WIDTH
        with pytest.raises(ValueError, match=f"network width cap of {MAX_NET_WIDTH}"):
            DesignSpec(design, MAX_NET_WIDTH + 1)


@pytest.mark.parametrize("n", range(2, 17))
def test_newton_model_matches_oracle(n):
    spec = DesignSpec(Design.NEWTON, n)
    for x in range(1 << n):
        assert newton_trace(spec, x).output == oracle_reciprocal(n, x), x


def test_newton_trace_shape():
    spec = DesignSpec(Design.NEWTON, 4)
    tr = newton_trace(spec, 5)
    assert tr.exponent == 3
    assert 1 << (spec.precision - 1) <= tr.normalized < 1 << spec.precision  # in [1/2, 1)
    # seed plus one entry per refinement step
    assert len(tr.iterates) == spec.iterations + 1
    assert 0 <= tr.output < 1 << 4


@pytest.mark.parametrize("n", [4, 5, 6])
def test_newton_error_never_grows_past_an_ulp(n):
    # error to the true reciprocal of the normalized input may jitter by
    # sub-ulp amounts near the fixpoint but never exceed the previous error
    # and one raw ulp at once
    spec = DesignSpec(Design.NEWTON, n)
    ulp = Fraction(1, 1 << spec.precision)
    for x in range(1, 1 << n):
        tr = newton_trace(spec, x)
        target = Fraction(1 << spec.precision, tr.normalized)
        prev = None
        for it in tr.iterates:
            err = abs(Fraction(it, 1 << spec.precision) - target)
            if prev is not None:
                assert err <= max(prev, ulp), (x, it)
            prev = err


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_intdiv_xmg_equals_oracle(n):
    tt = gen_intdiv_xmg(DesignSpec(Design.INTDIV, n)).to_truth_table()
    for x in range(1 << n):
        assert tt.rows[x] == oracle_reciprocal(n, x), x


@pytest.mark.parametrize("n", [4, 5])
def test_newton_xmg_equals_model(n):
    spec = DesignSpec(Design.NEWTON, n)
    tt = gen_newton_xmg(spec).to_truth_table()
    for x in range(1 << n):
        assert tt.rows[x] == newton_trace(spec, x).output, x


def test_design_truth_table_dispatch():
    tt = design_truth_table(DesignSpec(Design.INTDIV, 4))
    assert tt.num_inputs == tt.num_outputs == 4
    assert tt.rows[0] == 15
