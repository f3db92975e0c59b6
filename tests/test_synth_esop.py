"""ESOP-based synthesis."""

import random

import pytest

from revflow.arith import Design, DesignSpec, design_truth_table
from revflow.logicnet import EsopForm, TruthTable, esop_from_tt, esop_minimize
from revflow.revcirc import verify_circuit
from revflow.synth_esop import esop_synth


def test_single_cube_is_one_toffoli():
    form = EsopForm(2, 1, ((0b11, 0b11, 1),))
    circ = esop_synth(form)
    assert circ.width == 3
    assert len(circ.gates) == 1
    g = circ.gates[0]
    assert g == (2, (0 << 1, 1 << 1))
    assert verify_circuit(circ, TruthTable(2, 1, (0, 0, 0, 1)))


def test_mixed_polarity_controls():
    form = EsopForm(2, 1, ((0b11, 0b01, 1),))
    circ = esop_synth(form)
    g = circ.gates[0]
    assert g[1] == (0 << 1, 1 << 1 | 1)
    assert verify_circuit(circ, TruthTable(2, 1, (0, 1, 0, 0)))


def test_empty_form_empty_circuit():
    circ = esop_synth(EsopForm(3, 2, ()))
    assert circ.gates == ()
    assert circ.width == 5


@pytest.mark.parametrize("n", [4, 5, 6])
def test_intdiv_flow(n):
    tt = design_truth_table(DesignSpec(Design.INTDIV, n))
    esop = esop_minimize(esop_from_tt(tt))
    circ = esop_synth(esop)
    assert circ.width == 2 * n
    assert all(len(controls) <= n for _, controls in circ.gates)
    assert all(target >= n for target, _ in circ.gates)     # inputs never targeted
    assert verify_circuit(circ, tt)


def test_random_tables_exact():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 4)
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
        circ = esop_synth(esop_from_tt(tt))
        assert verify_circuit(circ, tt)
