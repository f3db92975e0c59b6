"""Oracle, fixed-point helpers, Newton model, and the two design generators."""

from fractions import Fraction

import pytest

from revflow.arith import (
    Design,
    DesignSpec,
    FixedPointValue,
    default_newton_iterations,
    design_truth_table,
    fxp_add,
    fxp_mul_trunc,
    fxp_sub,
    gen_intdiv_xmg,
    gen_newton_xmg,
    newton_reciprocal_model,
    newton_trace,
    oracle_reciprocal,
)


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


def test_fixed_point_roundtrip_and_ops():
    a = FixedPointValue.from_ratio(5, 2, 4)
    assert a.value == Fraction(5, 2)
    b = FixedPointValue.from_ratio(-3, 4, 4)
    assert fxp_add(a, b).value == Fraction(7, 4)
    assert fxp_sub(a, b).value == Fraction(13, 4)


def test_fixed_point_wraps_like_hardware():
    # Q3.2: values live in [-4, 4); 3 + 3 wraps negative
    a = FixedPointValue.from_ratio(3, 1, 2)
    assert fxp_add(a, a).value == Fraction(-2)


def test_fixed_point_rounding_nearest():
    # 1/3 at 4 fractional bits: 16/3 = 5.33 -> 5
    assert FixedPointValue.from_ratio(1, 3, 4).raw == 5
    # 1/6 -> 16/6 = 2.67 -> 3
    assert FixedPointValue.from_ratio(1, 6, 4).raw == 3


def test_mul_trunc_floors_toward_minus_infinity():
    a = FixedPointValue.from_ratio(3, 2, 3)   # 1.5
    b = FixedPointValue.from_ratio(5, 4, 3)   # 1.25
    got = fxp_mul_trunc(a, b, 3)
    assert got.value == Fraction(15, 8)       # 1.875 exact at 3 bits
    c = FixedPointValue.from_ratio(-1, 3, 5)
    d = FixedPointValue.from_ratio(1, 3, 5)
    prod = fxp_mul_trunc(c, d, 5)
    assert prod.value <= Fraction(-1, 9)      # floor, not round


def test_iteration_count_grows_with_precision():
    counts = [default_newton_iterations(p) for p in (4, 8, 16, 32)]
    assert counts == sorted(counts)
    assert all(c >= 2 for c in counts)


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(Design.INTDIV, 1)
    spec = DesignSpec(Design.NEWTON, 4)
    assert spec.precision == 8


@pytest.mark.parametrize("n", [4, 5, 6])
def test_newton_model_matches_oracle(n):
    spec = DesignSpec(Design.NEWTON, n)
    for x in range(1 << n):
        want = oracle_reciprocal(n, x) if x != 0 else (1 << n) - 1
        assert newton_reciprocal_model(spec, x) == want, x


def test_newton_trace_shape():
    spec = DesignSpec(Design.NEWTON, 4)
    tr = newton_trace(spec, 5)
    assert tr.exponent == 3
    assert Fraction(1, 2) <= tr.normalized.value < 1
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
        target = 1 / tr.normalized.value
        prev = None
        for it in tr.iterates:
            err = abs(it.value - target)
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
        assert tt.rows[x] == newton_reciprocal_model(spec, x), x


def test_design_truth_table_dispatch():
    tt = design_truth_table(DesignSpec(Design.INTDIV, 4))
    assert tt.num_inputs == tt.num_outputs == 4
    assert tt.rows[0] == 15
